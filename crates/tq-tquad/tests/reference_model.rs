//! [`TquadTool`] against the paper's naive per-access algorithm.
//!
//! The tool keeps one open (kernel, slice) cell and appends it to the
//! kernel's series only when the kernel or the slice changes. [`Model`] is
//! the §IV algorithm it must agree with: a stack of tracked frames, the
//! slice `(icount - 1) / interval` computed for every access, and one
//! [`KernelSeries::record`] per access. Seeded random event streams drive
//! both under all three library policies, sequentially and folded from
//! forked shards at random split points (including shards of shards); wfs
//! and img at tiny scale drive both live, and the tool again as a
//! sequential and a 2- and 4-shard replay of the same run's capture.

use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_tquad::{
    CallStack, KernelProfile, KernelSeries, LibPolicy, TquadOptions, TquadProfile, TquadTool,
};
use tq_trace::TraceRecorder;
use tq_vm::{
    hooks, is_stack_access, Event, HookMask, InsContext, MergeTool, ProgramInfo, RoutineMeta,
    ShardContext, Tool, Vm,
};

/// The slice intervals checked: one instruction, a prime, Table IV's and
/// the default.
fn intervals() -> [u64; 4] {
    [1, 7, 188, TquadOptions::default().slice_interval]
}

const POLICIES: [LibPolicy; 3] = [
    LibPolicy::AttributeToCaller,
    LibPolicy::Track,
    LibPolicy::Drop,
];

/// The naive tQUAD of §IV: every access looks up its kernel and slice and
/// goes straight into that kernel's series.
struct Model {
    opts: TquadOptions,
    names: Vec<String>,
    main_image: Vec<bool>,
    tracked: Vec<bool>,
    stack: CallStack,
    series: Vec<KernelSeries>,
    calls: Vec<u64>,
    max_icount: u64,
    dropped: u64,
    prefetches: u64,
}

impl Model {
    fn new(opts: TquadOptions) -> Model {
        Model {
            opts,
            names: Vec::new(),
            main_image: Vec::new(),
            tracked: Vec::new(),
            stack: CallStack::new(),
            series: Vec::new(),
            calls: Vec::new(),
            max_icount: 0,
            dropped: 0,
            prefetches: 0,
        }
    }

    fn access(&mut self, rtn: RoutineId, icount: u64, is_read: bool, size: u32, ea: u64, sp: u64) {
        let untracked = rtn == RoutineId::INVALID || !self.tracked[rtn.idx()];
        if self.opts.lib_policy == LibPolicy::Drop && rtn != RoutineId::INVALID && untracked {
            self.dropped += 1;
            return;
        }
        let kernel = match self.stack.current() {
            Some(k) => k,
            None if !untracked => rtn,
            None => {
                self.dropped += 1;
                return;
            }
        };
        let slice = (icount - 1) / self.opts.slice_interval;
        let is_stack = is_stack_access(ea, sp);
        self.series[kernel.idx()].record(slice, is_read, size as u64, is_stack);
    }

    fn into_profile(self) -> TquadProfile {
        let kernels = (self.names.into_iter().zip(self.main_image))
            .zip(self.calls.into_iter().zip(self.series))
            .enumerate()
            .map(|(i, ((name, main_image), (calls, series)))| KernelProfile {
                rtn: RoutineId(i as u32),
                name,
                main_image,
                calls,
                series,
            })
            .collect();
        TquadProfile {
            interval: self.opts.slice_interval,
            total_icount: self.max_icount,
            kernels,
            dropped_accesses: self.dropped,
            prefetches_ignored: self.prefetches,
            instr: None,
        }
    }
}

impl Tool for Model {
    fn name(&self) -> &str {
        "tquad-model"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        for r in &info.routines {
            self.names.push(r.name.clone());
            self.main_image.push(r.main_image);
            self.tracked
                .push(self.opts.lib_policy == LibPolicy::Track || r.main_image);
            self.series.push(KernelSeries::new());
            self.calls.push(0);
        }
    }

    fn instrument_ins(&mut self, _ins: &InsContext<'_>) -> HookMask {
        hooks::MEM_READ | hooks::MEM_WRITE | hooks::RET | hooks::RTN_ENTER
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                icount,
                rtn,
            } => {
                self.max_icount = self.max_icount.max(icount);
                if is_prefetch {
                    self.prefetches += 1;
                } else {
                    self.access(rtn, icount, true, size, ea, sp);
                }
            }
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
            } => {
                self.max_icount = self.max_icount.max(icount);
                self.access(rtn, icount, false, size, ea, sp);
            }
            Event::RoutineEnter { rtn, sp, icount } => {
                self.max_icount = self.max_icount.max(icount);
                if self.tracked[rtn.idx()] {
                    self.stack.enter(rtn, sp);
                    self.calls[rtn.idx()] += 1;
                }
            }
            Event::Ret { rtn, icount } => {
                self.max_icount = self.max_icount.max(icount);
                self.stack.ret_in(rtn);
            }
            Event::Call { .. } | Event::Tick { .. } => {}
        }
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.max_icount = self.max_icount.max(final_icount);
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

/// A random event stream. Before `main` is entered, accesses run in any
/// routine or in none (`RoutineId::INVALID`), so attribution falls back to
/// the static routine. After it, calls and returns keep a shadow stack
/// balanced, with an occasional return from a routine not on top. The
/// clock moves 0–2 instructions per event, so several kernels take turns
/// inside one slice at intervals above a few instructions. Accesses are
/// zero to 63 bytes, on the heap or near the stack pointer, and one read
/// in eight is a prefetch.
fn events(rng: &mut Rng, info: &ProgramInfo, n: usize) -> Vec<Event> {
    let n_rtns = info.routines.len();
    let mut out = Vec::with_capacity(n);
    let mut icount = 1u64;
    let base_sp = info.stack_base - 0x100;
    let mut stack: Vec<(RoutineId, u64)> = Vec::new();
    for _ in 0..rng.index(12) {
        let rtn = match rng.index(n_rtns + 1) {
            i if i == n_rtns => RoutineId::INVALID,
            i => RoutineId(i as u32),
        };
        out.push(access(rng, rtn, base_sp, icount));
        icount += rng.u64_in(0, 3);
    }
    stack.push((RoutineId(0), base_sp));
    out.push(Event::RoutineEnter {
        rtn: RoutineId(0),
        sp: base_sp,
        icount,
    });
    while out.len() < n {
        icount += rng.u64_in(0, 3);
        let (rtn, sp) = *stack.last().expect("main is never popped");
        match rng.index(16) {
            0 | 1 if stack.len() < 10 => {
                let callee = RoutineId(rng.index(n_rtns) as u32);
                let sp = sp - rng.u64_in(16, 96);
                out.push(Event::Call { icount, rtn });
                stack.push((callee, sp));
                out.push(Event::RoutineEnter {
                    rtn: callee,
                    sp,
                    icount,
                });
            }
            2 | 3 if stack.len() > 1 => {
                stack.pop();
                out.push(Event::Ret { icount, rtn });
            }
            4 => out.push(Event::Ret {
                icount,
                rtn: RoutineId(rng.index(n_rtns) as u32),
            }),
            5 => out.push(Event::Tick { icount, rtn }),
            _ => out.push(access(rng, rtn, sp, icount)),
        }
    }
    out
}

fn access(rng: &mut Rng, rtn: RoutineId, sp: u64, icount: u64) -> Event {
    let size = match rng.index(8) {
        0 => 0,
        1 => rng.u64_in(9, 64) as u32,
        _ => 1 << rng.index(4),
    };
    let ea = if rng.index(3) == 0 {
        sp - 128 + rng.u64_in(0, 512)
    } else {
        0x1000_0000 + rng.u64_in(0, 4096)
    };
    if rng.index(2) == 0 {
        Event::MemRead {
            ea,
            size,
            sp,
            is_prefetch: rng.index(8) == 0,
            icount,
            rtn,
        }
    } else {
        Event::MemWrite {
            ea,
            size,
            sp,
            icount,
            rtn,
        }
    }
}

/// The shard context before `events[at]`: both call-stack variants, kept
/// by the trace chunker's rules (push on entry, pop on a return inside the
/// routine on top).
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

fn final_icount(events: &[Event]) -> u64 {
    events.last().map_or(0, |e| match *e {
        Event::MemRead { icount, .. }
        | Event::MemWrite { icount, .. }
        | Event::Call { icount, .. }
        | Event::Ret { icount, .. }
        | Event::RoutineEnter { icount, .. }
        | Event::Tick { icount, .. } => icount + 1,
    })
}

fn model_profile(opts: TquadOptions, info: &ProgramInfo, events: &[Event]) -> TquadProfile {
    let mut m = Model::new(opts);
    m.on_attach(info);
    events.iter().for_each(|e| m.on_event(e));
    m.on_fini(final_icount(events));
    m.into_profile()
}

fn tool_sequential(opts: TquadOptions, info: &ProgramInfo, events: &[Event]) -> TquadProfile {
    let mut t = TquadTool::new(opts);
    t.on_attach(info);
    events.iter().for_each(|e| t.on_event(e));
    t.on_fini(final_icount(events));
    t.into_profile()
}

/// The tool folded from shards: the root replays events up to the first
/// bound itself and forks one worker per later chunk; a worker with an
/// inner split forks a sub-worker for the tail of its chunk. Workers are
/// absorbed in chunk order.
fn tool_folded(
    opts: TquadOptions,
    info: &ProgramInfo,
    events: &[Event],
    bounds: &[usize],
    inner: &[Option<usize>],
) -> TquadProfile {
    let mut root = TquadTool::new(opts);
    root.on_attach(info);
    events[..bounds[1]].iter().for_each(|e| root.on_event(e));
    for (w, inner) in bounds.windows(2).zip(inner).skip(1) {
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
    root.on_fini(final_icount(events));
    root.into_profile()
}

#[test]
fn open_cell_tool_matches_the_per_access_model_on_random_streams() {
    let info = info();
    let mut rng = Rng::new(0x70AD_CE11);
    for case in 0..6 {
        let events = events(&mut rng, &info, 400);
        for interval in intervals() {
            for lib_policy in POLICIES {
                let opts = TquadOptions::default()
                    .with_interval(interval)
                    .with_lib_policy(lib_policy);
                let what = format!("case {case}, interval {interval}, {lib_policy:?}");
                let expected = model_profile(opts, &info, &events);
                assert_eq!(
                    tool_sequential(opts, &info, &events),
                    expected,
                    "{what}: sequential"
                );
                let mut bounds: Vec<usize> = (0..1 + rng.index(4))
                    .map(|_| rng.index(events.len()))
                    .collect();
                bounds.extend([0, events.len()]);
                bounds.sort_unstable();
                bounds.dedup();
                let inner: Vec<Option<usize>> = bounds
                    .windows(2)
                    .map(|w| {
                        (w[1] - w[0] > 1 && rng.index(2) == 0)
                            .then(|| rng.u64_in(w[0] as u64 + 1, w[1] as u64) as usize)
                    })
                    .collect();
                assert_eq!(
                    tool_folded(opts, &info, &events, &bounds, &inner),
                    expected,
                    "{what}: folded at {bounds:?} / {inner:?}"
                );
            }
        }
    }
}

#[test]
fn zero_byte_access_opens_its_entry() {
    let info = info();
    let mut events = vec![Event::RoutineEnter {
        rtn: RoutineId(1),
        sp: info.stack_base - 0x100,
        icount: 1,
    }];
    for (icount, size) in [(2, 0), (9, 8), (12, 0)] {
        events.push(Event::MemWrite {
            ea: 0x1000_0000,
            size,
            sp: info.stack_base - 0x100,
            icount,
            rtn: RoutineId(1),
        });
    }
    let opts = TquadOptions::default().with_interval(4);
    let p = tool_sequential(opts, &info, &events);
    assert_eq!(p, model_profile(opts, &info, &events));
    let entries = p.kernels[1].series.entries();
    let slices: Vec<u64> = entries.iter().map(|e| e.slice).collect();
    assert_eq!(slices, [0, 2]);
    assert_eq!(
        entries[0].w_incl, 0,
        "a zero-byte access still has its entry"
    );
    assert_eq!(entries[1].w_incl, 8);
}

/// One live run under the model and the tool at every interval, plus a
/// recorder; then the tool replays the capture sequentially and on 2 and 4
/// shards. Every profile must equal the model's.
fn check_app(app: &str, mut vm: Vm) {
    let rec = vm.attach_tool(Box::new(TraceRecorder::new()));
    let attached: Vec<_> = intervals()
        .into_iter()
        .map(|interval| {
            let opts = TquadOptions::default().with_interval(interval);
            let tool = vm.attach_tool(Box::new(TquadTool::new(opts)));
            let model = vm.attach_tool(Box::new(Model::new(opts)));
            (opts, tool, model)
        })
        .collect();
    vm.run(None).expect("the app runs");
    let trace = vm
        .detach_tool::<TraceRecorder>(rec)
        .expect("recorder")
        .into_trace();
    assert!(trace.chunks.len() >= 4, "{app}: too few chunks to shard");
    for (opts, tool, model) in attached {
        let what = format!("{app} at interval {}", opts.slice_interval);
        let expected = vm
            .detach_tool::<Model>(model)
            .expect("model")
            .into_profile();
        let live = vm.detach_tool::<TquadTool>(tool).expect("tool");
        assert!(live.into_profile() == expected, "{what}: live");
        let mut seq = TquadTool::new(opts);
        trace.replay(&mut seq).expect("sequential replay");
        assert!(seq.into_profile() == expected, "{what}: replayed");
        for jobs in [2, 4] {
            let mut sharded = TquadTool::new(opts);
            trace
                .replay_sharded(&mut sharded, jobs)
                .expect("sharded replay");
            assert!(
                sharded.into_profile() == expected,
                "{what}: replayed on {jobs} shards"
            );
        }
    }
}

#[test]
fn wfs_tiny_matches_the_model_live_and_replayed() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    check_app("wfs tiny", app.make_vm());
}

#[test]
fn img_tiny_matches_the_model_live_and_replayed() {
    let app = tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny());
    check_app("img tiny", app.make_vm());
}
