//! [`QuadTool`] against the per-byte QUAD algorithm it replaced.
//!
//! The tool works one run of equal last writer at a time. [`Oracle`] is the
//! plain reference model it must agree with: a `HashMap` shadow holding the
//! last writer of each byte, `HashSet` UnMA sets, one binding update per
//! byte read and, in a shard, one orphan entry per byte with no local
//! writer. Seeded random event streams drive both, under all three library
//! policies with and without the stack, sequentially and folded from forked
//! shards at random split points, including shards of shards (so orphans
//! left unresolved by an inner fold pass up to the outer one).

use std::collections::{HashMap, HashSet};
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_quad::{QuadBinding, QuadOptions, QuadProfile, QuadRow, QuadTool};
use tq_tquad::{CallStack, LibPolicy};
use tq_vm::{is_stack_access, Event, MergeTool, ProgramInfo, RoutineMeta, ShardContext, Tool};

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 16
    } else {
        base
    }
}

#[derive(Default)]
struct OracleKernel {
    in_bytes: u64,
    out_bytes: u64,
    in_unma: HashSet<u64>,
    out_unma: HashSet<u64>,
    checked: u64,
    traced: u64,
}

/// Per-byte QUAD.
struct Oracle {
    opts: QuadOptions,
    names: Vec<String>,
    main_image: Vec<bool>,
    tracked: Vec<bool>,
    stack: CallStack,
    shadow: HashMap<u64, u32>,
    kernels: Vec<OracleKernel>,
    bindings: HashMap<(u32, u32), (u64, HashSet<u64>)>,
    shard_mode: bool,
    orphans: HashMap<(u64, u32), u64>,
}

impl Oracle {
    fn new(opts: QuadOptions, info: &ProgramInfo) -> Oracle {
        let routines = &info.routines;
        Oracle {
            opts,
            names: routines.iter().map(|r| r.name.clone()).collect(),
            main_image: routines.iter().map(|r| r.main_image).collect(),
            tracked: routines
                .iter()
                .map(|r| opts.lib_policy == LibPolicy::Track || r.main_image)
                .collect(),
            stack: CallStack::new(),
            shadow: HashMap::new(),
            kernels: routines.iter().map(|_| OracleKernel::default()).collect(),
            bindings: HashMap::new(),
            shard_mode: false,
            orphans: HashMap::new(),
        }
    }

    fn fork(&self, info: &ProgramInfo, ctx: &ShardContext) -> Oracle {
        let mut o = Oracle::new(self.opts, info);
        o.shard_mode = true;
        for &(rtn, sp) in ctx.frames(self.opts.lib_policy == LibPolicy::Track) {
            o.stack.enter(rtn, sp);
        }
        o
    }

    /// The kernel charged with an access, and whether it is recorded.
    fn access(&mut self, rtn: RoutineId, ea: u64, sp: u64) -> Option<u32> {
        if self.opts.lib_policy == LibPolicy::Drop
            && rtn != RoutineId::INVALID
            && !self.tracked[rtn.idx()]
        {
            return None;
        }
        let k = match self.stack.current() {
            Some(k) => k.0,
            None if rtn != RoutineId::INVALID && self.tracked[rtn.idx()] => rtn.0,
            None => return None,
        };
        let kd = &mut self.kernels[k as usize];
        kd.checked += 1;
        let is_stack = is_stack_access(ea, sp);
        if !is_stack {
            kd.traced += 1;
        }
        (self.opts.include_stack || !is_stack).then_some(k)
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch: false,
                rtn,
                ..
            } => {
                let Some(k) = self.access(rtn, ea, sp) else {
                    return;
                };
                self.kernels[k as usize].in_bytes += size as u64;
                for a in ea..ea.saturating_add(size as u64) {
                    self.kernels[k as usize].in_unma.insert(a);
                    match self.shadow.get(&a) {
                        Some(&p) => self.consume(p, k, a, 1),
                        None if self.shard_mode => *self.orphans.entry((a, k)).or_insert(0) += 1,
                        None => {}
                    }
                }
            }
            Event::MemWrite {
                ea, size, sp, rtn, ..
            } => {
                let Some(k) = self.access(rtn, ea, sp) else {
                    return;
                };
                for a in ea..ea.saturating_add(size as u64) {
                    self.kernels[k as usize].out_unma.insert(a);
                    self.shadow.insert(a, k);
                }
            }
            Event::RoutineEnter { rtn, sp, .. } if self.tracked[rtn.idx()] => {
                self.stack.enter(rtn, sp);
            }
            Event::Ret { rtn, .. } => {
                self.stack.ret_in(rtn);
            }
            _ => {}
        }
    }

    fn consume(&mut self, producer: u32, consumer: u32, addr: u64, times: u64) {
        self.kernels[producer as usize].out_bytes += times;
        let b = self.bindings.entry((producer, consumer)).or_default();
        b.0 += times;
        b.1.insert(addr);
    }

    fn absorb(&mut self, other: Oracle) {
        for ((a, consumer), times) in other.orphans {
            match self.shadow.get(&a) {
                Some(&p) => self.consume(p, consumer, a, times),
                None if self.shard_mode => *self.orphans.entry((a, consumer)).or_insert(0) += times,
                None => {}
            }
        }
        self.shadow.extend(other.shadow);
        for (k, ok) in self.kernels.iter_mut().zip(other.kernels) {
            k.in_bytes += ok.in_bytes;
            k.out_bytes += ok.out_bytes;
            k.in_unma.extend(ok.in_unma);
            k.out_unma.extend(ok.out_unma);
            k.checked += ok.checked;
            k.traced += ok.traced;
        }
        for (edge, (bytes, unma)) in other.bindings {
            let b = self.bindings.entry(edge).or_default();
            b.0 += bytes;
            b.1.extend(unma);
        }
    }

    fn into_profile(self) -> QuadProfile {
        let rows = self
            .names
            .into_iter()
            .zip(self.main_image)
            .zip(self.kernels)
            .enumerate()
            .map(|(i, ((name, main_image), k))| QuadRow {
                rtn: RoutineId(i as u32),
                name,
                main_image,
                in_bytes: k.in_bytes,
                in_unma: k.in_unma.len() as u64,
                out_bytes: k.out_bytes,
                out_unma: k.out_unma.len() as u64,
                checked_accesses: k.checked,
                traced_accesses: k.traced,
            })
            .collect();
        let mut bindings: Vec<QuadBinding> = self
            .bindings
            .into_iter()
            .map(|((p, c), (bytes, unma))| QuadBinding {
                producer: RoutineId(p),
                consumer: RoutineId(c),
                bytes,
                unma: unma.len() as u64,
            })
            .collect();
        bindings.sort_by_key(|b| (b.producer.0, b.consumer.0));
        QuadProfile {
            include_stack: self.opts.include_stack,
            rows,
            bindings,
            instr: None,
        }
    }
}

/// Three main-image kernels and two library routines.
fn info() -> ProgramInfo {
    let mk = |id: u32, name: &str, main: bool| RoutineMeta {
        id: RoutineId(id),
        name: name.into(),
        image: if main { "app" } else { "libc" }.into(),
        main_image: main,
        start: 0x10000 + id as u64 * 0x1000,
        end: 0x10000 + id as u64 * 0x1000 + 0x100,
    };
    ProgramInfo {
        routines: vec![
            mk(0, "main", true),
            mk(1, "kernel_a", true),
            mk(2, "kernel_b", true),
            mk(3, "memcpy", false),
            mk(4, "malloc", false),
        ],
        stack_base: tq_vm::layout::STACK_BASE,
        entry: 0x10000,
    }
}

/// Access sizes: mostly word-sized, some spanning words, some spanning
/// pages, up to 10 000 B.
fn size(rng: &mut Rng) -> u32 {
    (match rng.index(32) {
        0..=19 => 1 << rng.index(4),
        20..=27 => rng.u64_in(1, 100),
        28..=30 => rng.u64_in(100, 4200),
        _ => rng.u64_in(4200, 10_001),
    }) as u32
}

/// Unaligned addresses in a three-page heap window, the stack around the
/// current frame, or (rarely) the top page, where ranges are clipped.
fn address(rng: &mut Rng, sp: u64) -> u64 {
    match rng.index(16) {
        0..=10 => 0x1000_0000 + rng.u64_in(0, 3 * 4096),
        11..=14 => sp - 128 + rng.u64_in(0, 512),
        _ => u64::MAX - rng.u64_in(0, 64),
    }
}

/// A balanced random event stream: calls and returns around a shadow
/// stack, reads (some prefetches) and writes by whichever routine runs.
fn events(rng: &mut Rng, info: &ProgramInfo, n: usize) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    let mut stack: Vec<(RoutineId, u64)> = vec![(RoutineId(0), info.stack_base - 0x100)];
    out.push(Event::RoutineEnter {
        rtn: RoutineId(0),
        sp: stack[0].1,
        icount: 0,
    });
    let n_rtns = info.routines.len();
    for i in 1..n as u64 {
        let (rtn, sp) = *stack.last().expect("main is never popped");
        match rng.index(12) {
            0 if stack.len() < 10 => {
                let callee = RoutineId(rng.index(n_rtns) as u32);
                let sp = sp - rng.u64_in(16, 96);
                stack.push((callee, sp));
                out.push(Event::RoutineEnter {
                    rtn: callee,
                    sp,
                    icount: i,
                });
            }
            1 if stack.len() > 1 => {
                stack.pop();
                out.push(Event::Ret { icount: i, rtn });
            }
            2..=6 => out.push(Event::MemRead {
                ea: address(rng, sp),
                size: size(rng),
                sp,
                is_prefetch: rng.index(10) == 0,
                icount: i,
                rtn,
            }),
            _ => out.push(Event::MemWrite {
                ea: address(rng, sp),
                size: size(rng),
                sp,
                icount: i,
                rtn,
            }),
        }
    }
    out
}

/// The shard context before `events[at]`, with both call-stack variants
/// kept by the trace chunker's rules: push on entry, pop on a return
/// inside the routine on top.
fn context_at(info: &ProgramInfo, events: &[Event], at: usize) -> ShardContext {
    let mut ctx = ShardContext::default();
    for ev in &events[..at] {
        match *ev {
            Event::RoutineEnter { rtn, sp, .. } => {
                ctx.frames_all.push((rtn, sp));
                if info.routines[rtn.idx()].main_image {
                    ctx.frames_main.push((rtn, sp));
                }
            }
            Event::Ret { rtn, .. } => {
                for frames in [&mut ctx.frames_all, &mut ctx.frames_main] {
                    if frames.last().is_some_and(|f| f.0 == rtn) {
                        frames.pop();
                    }
                }
            }
            _ => {}
        }
    }
    ctx
}

/// A fold plan: chunk bounds `0 = b0 < b1 < … < n`; the root replays the
/// first chunk itself, forks one worker per later chunk, and a worker with
/// an inner split forks a sub-worker for the tail of its chunk.
struct Plan {
    bounds: Vec<usize>,
    inner: Vec<Option<usize>>,
}

fn plan(rng: &mut Rng, n: usize) -> Plan {
    let mut bounds: Vec<usize> = (0..1 + rng.index(4)).map(|_| rng.index(n)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.dedup();
    let inner = bounds
        .windows(2)
        .map(|w| {
            (w[1] - w[0] > 1 && rng.index(2) == 0)
                .then(|| rng.u64_in(w[0] as u64 + 1, w[1] as u64) as usize)
        })
        .collect();
    Plan { bounds, inner }
}

fn tool_sequential(opts: QuadOptions, info: &ProgramInfo, events: &[Event]) -> QuadProfile {
    let mut t = QuadTool::new(opts);
    t.on_attach(info);
    events.iter().for_each(|e| t.on_event(e));
    t.into_profile()
}

fn oracle_sequential(opts: QuadOptions, info: &ProgramInfo, events: &[Event]) -> QuadProfile {
    let mut o = Oracle::new(opts, info);
    events.iter().for_each(|e| o.on_event(e));
    o.into_profile()
}

fn tool_folded(opts: QuadOptions, info: &ProgramInfo, events: &[Event], p: &Plan) -> QuadProfile {
    let mut root = QuadTool::new(opts);
    root.on_attach(info);
    events[..p.bounds[1]].iter().for_each(|e| root.on_event(e));
    for (w, inner) in p.bounds.windows(2).zip(&p.inner).skip(1) {
        let mut worker = root.fork(info, &context_at(info, events, w[0]));
        let mid = inner.unwrap_or(w[1]);
        events[w[0]..mid].iter().for_each(|e| worker.on_event(e));
        if mid < w[1] {
            let mut sub = worker.fork(info, &context_at(info, events, mid));
            events[mid..w[1]].iter().for_each(|e| sub.on_event(e));
            worker.absorb(sub);
        }
        root.absorb(worker);
    }
    root.into_profile()
}

fn oracle_folded(opts: QuadOptions, info: &ProgramInfo, events: &[Event], p: &Plan) -> QuadProfile {
    let mut root = Oracle::new(opts, info);
    events[..p.bounds[1]].iter().for_each(|e| root.on_event(e));
    for (w, inner) in p.bounds.windows(2).zip(&p.inner).skip(1) {
        let mut worker = root.fork(info, &context_at(info, events, w[0]));
        let mid = inner.unwrap_or(w[1]);
        events[w[0]..mid].iter().for_each(|e| worker.on_event(e));
        if mid < w[1] {
            let mut sub = worker.fork(info, &context_at(info, events, mid));
            events[mid..w[1]].iter().for_each(|e| sub.on_event(e));
            worker.absorb(sub);
        }
        root.absorb(worker);
    }
    root.into_profile()
}

/// Every library policy, with and without stack accesses.
fn all_options() -> Vec<QuadOptions> {
    [
        LibPolicy::AttributeToCaller,
        LibPolicy::Track,
        LibPolicy::Drop,
    ]
    .into_iter()
    .flat_map(|lib_policy| {
        [true, false].map(|include_stack| QuadOptions {
            include_stack,
            lib_policy,
        })
    })
    .collect()
}

#[test]
fn run_granular_quad_matches_the_per_byte_oracle() {
    let info = info();
    let mut rng = Rng::new(0x0B5E_55ED);
    for case in 0..cases(4) {
        let events = events(&mut rng, &info, 300);
        for opts in all_options() {
            let what = format!("case {case}, {opts:?}");
            let expected = oracle_sequential(opts, &info, &events);
            assert_eq!(
                tool_sequential(opts, &info, &events),
                expected,
                "{what}: sequential"
            );
            let p = plan(&mut rng, events.len());
            let folded = tool_folded(opts, &info, &events, &p);
            assert_eq!(
                folded,
                oracle_folded(opts, &info, &events, &p),
                "{what}: folded at {:?} / {:?}",
                p.bounds,
                p.inner
            );
            assert_eq!(
                folded, expected,
                "{what}: folded at {:?} / {:?} differs from sequential",
                p.bounds, p.inner
            );
        }
    }
}

#[test]
fn repeated_orphan_reads_fold_exactly() {
    // One shard reads the same long, page-straddling range many times
    // before any local write: the orphan is one run read N times, and it
    // resolves against a prefix written by two kernels.
    let info = info();
    let opts = QuadOptions::default();
    let heap = 0x1000_0000 + 4000;
    let enter = |rtn: u32, icount| Event::RoutineEnter {
        rtn: RoutineId(rtn),
        sp: info.stack_base - 0x100,
        icount,
    };
    let access = |write: bool, rtn: u32, ea: u64, size: u32| {
        let (sp, icount) = (info.stack_base - 0x100, 0);
        let rtn = RoutineId(rtn);
        if write {
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
            }
        } else {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch: false,
                icount,
                rtn,
            }
        }
    };
    let mut events = vec![
        enter(0, 0),
        access(true, 0, heap, 300),
        enter(1, 1),
        access(true, 1, heap + 100, 50),
    ];
    events.extend((0..5).map(|_| access(false, 1, heap - 10, 400)));
    events.push(access(true, 1, heap, 400));
    events.push(access(false, 1, heap, 400));
    let p = Plan {
        bounds: vec![0, 4, events.len()],
        inner: vec![None, Some(6)],
    };
    let expected = oracle_sequential(opts, &info, &events);
    assert_eq!(tool_sequential(opts, &info, &events), expected);
    assert_eq!(tool_folded(opts, &info, &events, &p), expected);
    let consumed: u64 = expected.bindings.iter().map(|b| b.bytes).sum();
    assert_eq!(
        consumed,
        5 * 300 + 400,
        "every byte read after a write binds"
    );
}
