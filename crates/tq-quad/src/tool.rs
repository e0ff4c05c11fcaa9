//! The QUAD tool: quantitative data-usage analysis (the companion tool the
//! paper builds on, [Ostadzadeh et al., ARC 2010]).
//!
//! Per kernel it measures, with stack accesses included or excluded:
//!
//! * **IN** — total bytes read by the kernel;
//! * **IN UnMA** — unique addresses the kernel read;
//! * **OUT** — bytes read *by any kernel* from addresses this kernel wrote
//!   (consumption of its productions);
//! * **OUT UnMA** — unique addresses the kernel wrote;
//!
//! plus the producer→consumer **bindings** that form the QDU graph, and a
//! per-kernel count of checked/traced accesses that models the tool's own
//! analysis cost (used for the paper's Table III "QUAD-instrumented"
//! profile).

use crate::pages::SlabMap;
use crate::shadow::ShadowMemory;
use crate::unma::AddressSet;
use std::collections::HashMap;
use tq_isa::RoutineId;
use tq_tquad::{CallStack, LibPolicy};
use tq_vm::{
    hooks, is_stack_access, Event, HookMask, InsContext, InstrInfo, MergeTool, ProgramInfo,
    ShardContext, Tool,
};

/// QUAD options.
#[derive(Clone, Copy, Debug)]
pub struct QuadOptions {
    /// Include local stack-area accesses (the paper's Table II reports both
    /// settings from separate runs; so does this tool).
    pub include_stack: bool,
    /// Library-routine policy (shared with tQUAD).
    pub lib_policy: LibPolicy,
}

impl Default for QuadOptions {
    fn default() -> Self {
        QuadOptions {
            include_stack: true,
            lib_policy: LibPolicy::AttributeToCaller,
        }
    }
}

#[derive(Default)]
struct KernelData {
    in_bytes: u64,
    out_bytes: u64,
    in_unma: AddressSet,
    out_unma: AddressSet,
    /// Memory-access events inspected by the instrumentation routine.
    checked_accesses: u64,
    /// Accesses that reached an analysis (tracing) routine — non-stack
    /// accesses, per the paper's description of the QUAD-instrumented run.
    traced_accesses: u64,
}

/// The QUAD analysis tool.
pub struct QuadTool {
    opts: QuadOptions,
    names: Vec<String>,
    tracked: Vec<bool>,
    main_image: Vec<bool>,
    stack: CallStack,
    shadow: ShadowMemory,
    kernels: Vec<KernelData>,
    /// Producer→consumer edges. Consecutive reads mostly follow one edge,
    /// which the map's last-key memo serves without hashing.
    bindings: SlabMap<(u32, u32), Binding>,
    /// True in a forked shard worker: reads of bytes with no writer in the
    /// *local* shadow may have a producer in an earlier chunk, so they are
    /// logged as orphans instead of being dismissed.
    shard_mode: bool,
    /// Orphan reads: (run start, run length, consuming kernel) → times
    /// read, resolved against the accumulated prefix shadow at absorb time.
    orphans: HashMap<(u64, u32, u32), u64>,
    /// Reduced-instrumentation metadata of the producing run (see
    /// [`Tool::on_instr`]); `None` under full instrumentation.
    instr: Option<InstrInfo>,
}

/// One producer→consumer binding (an edge of the QDU graph).
#[derive(Default, Debug)]
pub struct Binding {
    /// Bytes that flowed over the edge.
    pub bytes: u64,
    /// Unique addresses the data flowed through (QUAD's UnDV).
    pub unma: AddressSet,
}

impl QuadTool {
    /// New tool.
    pub fn new(opts: QuadOptions) -> Self {
        QuadTool {
            opts,
            names: Vec::new(),
            tracked: Vec::new(),
            main_image: Vec::new(),
            stack: CallStack::new(),
            shadow: ShadowMemory::new(),
            kernels: Vec::new(),
            bindings: SlabMap::default(),
            shard_mode: false,
            orphans: HashMap::new(),
            instr: None,
        }
    }

    #[inline]
    fn attribute(&self, static_rtn: RoutineId) -> Option<u32> {
        match self.stack.current() {
            Some(k) => Some(k.0),
            None => {
                if static_rtn != RoutineId::INVALID && self.tracked[static_rtn.idx()] {
                    Some(static_rtn.0)
                } else {
                    None
                }
            }
        }
    }

    /// Consume the tool into its results. For a gated run (`--instr
    /// sample:…`/`converge:…`) the byte totals (`IN`, `OUT`, binding
    /// bytes) are scaled by the inverse observed coverage — they are
    /// volume estimates — while the UnMA counts stay as measured: unseen
    /// addresses cannot be invented, so those are reported as lower
    /// bounds, flagged by the attached [`QuadInstrNote`].
    pub fn into_profile(self) -> QuadProfile {
        let _span = tq_obs::span("quad-flush", "tool");
        let note = self.instr.as_ref().map(|info| QuadInstrNote {
            spec: info.spec.clone(),
            coverage_ppm: (info.coverage() * 1e6).round() as u64,
        });
        let scale = |v: u64| -> u64 {
            match &note {
                Some(n) if n.coverage_ppm > 0 && n.coverage_ppm < 1_000_000 => {
                    (v as u128 * 1_000_000 / n.coverage_ppm as u128) as u64
                }
                _ => v,
            }
        };
        let rows: Vec<QuadRow> = self
            .names
            .into_iter()
            .zip(self.kernels)
            .zip(self.main_image)
            .enumerate()
            .map(|(i, ((name, k), main_image))| QuadRow {
                rtn: RoutineId(i as u32),
                name,
                main_image,
                in_bytes: scale(k.in_bytes),
                in_unma: k.in_unma.len(),
                out_bytes: scale(k.out_bytes),
                out_unma: k.out_unma.len(),
                checked_accesses: k.checked_accesses,
                traced_accesses: k.traced_accesses,
            })
            .collect();
        let mut bindings: Vec<QuadBinding> = self
            .bindings
            .into_iter()
            .map(|((p, c), b)| QuadBinding {
                producer: RoutineId(p),
                consumer: RoutineId(c),
                bytes: scale(b.bytes),
                unma: b.unma.len(),
            })
            .collect();
        // Deterministic order: edges are stored in first-use order, which
        // differs between sequential and sharded replay, and the two must
        // render byte-identically.
        bindings.sort_by_key(|b| (b.producer.0, b.consumer.0));
        {
            use std::sync::OnceLock;
            static ROWS: OnceLock<tq_obs::Counter> = OnceLock::new();
            ROWS.get_or_init(|| {
                tq_obs::counter(
                    "tq_quad_rows_flushed_total",
                    "QUAD profile rows flushed by into_profile",
                )
            })
            .add(rows.len() as u64);
        }
        QuadProfile {
            include_stack: self.opts.include_stack,
            rows,
            bindings,
            instr: note,
        }
    }
}

/// Charge `times` reads by `consumer` of the `n`-byte run at `start`, last
/// written by `producer`: the producer's OUT and the binding edge grow by
/// `n * times` bytes, and the run's addresses join the edge's UnMA.
#[inline]
fn consume(
    kernels: &mut [KernelData],
    bindings: &mut SlabMap<(u32, u32), Binding>,
    producer: u32,
    consumer: u32,
    start: u64,
    n: u32,
    times: u64,
) {
    let bytes = n as u64 * times;
    kernels[producer as usize].out_bytes += bytes;
    let b = bindings.get_or_insert_with((producer, consumer), Binding::default);
    b.bytes += bytes;
    b.unma.insert_range(start, n);
}

impl Tool for QuadTool {
    fn name(&self) -> &str {
        "quad"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        for r in &info.routines {
            let tracked = match self.opts.lib_policy {
                LibPolicy::Track => true,
                LibPolicy::AttributeToCaller | LibPolicy::Drop => r.main_image,
            };
            self.tracked.push(tracked);
            self.main_image.push(r.main_image);
            self.names.push(r.name.clone());
            self.kernels.push(KernelData::default());
        }
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        let mut m = hooks::NONE;
        if ins.inst.may_read_memory() {
            m |= hooks::MEM_READ;
        }
        if ins.inst.may_write_memory() {
            m |= hooks::MEM_WRITE;
        }
        if ins.inst.is_ret() {
            m |= hooks::RET;
        }
        if ins.is_rtn_start {
            m |= hooks::RTN_ENTER;
        }
        m
    }

    fn event_mask(&self) -> HookMask {
        // Replay delivery mask: QUAD never inspects Call or Tick events.
        hooks::MEM_READ | hooks::MEM_WRITE | hooks::RET | hooks::RTN_ENTER
    }

    fn on_instr(&mut self, info: &InstrInfo) {
        self.instr = Some(info.clone());
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                rtn,
                ..
            } => {
                if is_prefetch {
                    return;
                }
                if self.opts.lib_policy == LibPolicy::Drop
                    && rtn != RoutineId::INVALID
                    && !self.tracked[rtn.idx()]
                {
                    return;
                }
                let Some(k) = self.attribute(rtn) else { return };
                let ki = k as usize;
                self.kernels[ki].checked_accesses += 1;
                let is_stack = is_stack_access(ea, sp);
                if !is_stack {
                    self.kernels[ki].traced_accesses += 1;
                }
                if is_stack && !self.opts.include_stack {
                    return;
                }
                self.kernels[ki].in_bytes += size as u64;
                self.kernels[ki].in_unma.insert_range(ea, size);
                // Producer lookup per equal-writer run; consumption is
                // charged to the producer's OUT and recorded as a binding
                // edge. Disjoint field borrows keep this allocation-free on
                // the hot path.
                let kernels = &mut self.kernels;
                let bindings = &mut self.bindings;
                let orphans = &mut self.orphans;
                let shard_mode = self.shard_mode;
                self.shadow.for_each_run(ea, size, |start, n, w| {
                    if w != 0 {
                        consume(kernels, bindings, w - 1, k, start, n, 1);
                    } else if shard_mode {
                        // The producer (if any) wrote in an earlier chunk;
                        // resolved against the prefix shadow at absorb.
                        *orphans.entry((start, n, k)).or_insert(0) += 1;
                    }
                });
            }
            Event::MemWrite {
                ea, size, sp, rtn, ..
            } => {
                if self.opts.lib_policy == LibPolicy::Drop
                    && rtn != RoutineId::INVALID
                    && !self.tracked[rtn.idx()]
                {
                    return;
                }
                let Some(k) = self.attribute(rtn) else { return };
                let ki = k as usize;
                self.kernels[ki].checked_accesses += 1;
                let is_stack = is_stack_access(ea, sp);
                if !is_stack {
                    self.kernels[ki].traced_accesses += 1;
                }
                if is_stack && !self.opts.include_stack {
                    return;
                }
                self.kernels[ki].out_unma.insert_range(ea, size);
                self.shadow.write(ea, size, k + 1);
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
}

impl MergeTool for QuadTool {
    fn fork(&self, info: &ProgramInfo, ctx: &ShardContext) -> Box<dyn MergeTool> {
        let mut t = QuadTool::new(self.opts);
        t.shard_mode = true;
        t.on_attach(info);
        for &(rtn, sp) in ctx.frames(self.opts.lib_policy == LibPolicy::Track) {
            t.stack.enter(rtn, sp);
        }
        Box::new(t)
    }

    /// Fold a finished shard in. Order is the whole point:
    ///
    /// 1. the worker's orphan runs are resolved against `self.shadow`,
    ///    which (workers being absorbed in chunk order) holds exactly the
    ///    last-writer map of the worker's prefix — each run splits into its
    ///    equal-writer sub-runs there, and producers in earlier chunks get
    ///    their OUT bytes and binding edges stitched here;
    /// 2. only then is the worker's shadow overlaid (its writes are newer);
    /// 3. counters sum and UnMA sets union, both order-insensitive.
    fn absorb(&mut self, other: Box<dyn MergeTool>) {
        let other = other
            .into_any()
            .downcast::<QuadTool>()
            .expect("absorb: shard is not a QuadTool");
        let QuadTool {
            shadow: other_shadow,
            kernels: other_kernels,
            bindings: other_bindings,
            orphans: other_orphans,
            ..
        } = *other;

        let kernels = &mut self.kernels;
        let bindings = &mut self.bindings;
        let orphans = &mut self.orphans;
        let shard_mode = self.shard_mode;
        for ((addr, len, consumer), count) in other_orphans {
            self.shadow.for_each_run(addr, len, |start, n, w| {
                if w != 0 {
                    consume(kernels, bindings, w - 1, consumer, start, n, count);
                } else if shard_mode {
                    // This tool is itself a shard of a larger fold: pass
                    // the still-unresolved sub-run up to the next level.
                    *orphans.entry((start, n, consumer)).or_insert(0) += count;
                }
            });
        }
        self.shadow.overlay(&other_shadow);
        for (k, ok) in self.kernels.iter_mut().zip(other_kernels) {
            k.in_bytes += ok.in_bytes;
            k.out_bytes += ok.out_bytes;
            k.checked_accesses += ok.checked_accesses;
            k.traced_accesses += ok.traced_accesses;
            k.in_unma.union(&ok.in_unma);
            k.out_unma.union(&ok.out_unma);
        }
        for (edge, b) in other_bindings {
            let mine = self.bindings.get_or_insert_with(edge, Binding::default);
            mine.bytes += b.bytes;
            mine.unma.union(&b.unma);
        }
    }
}

/// One Table II row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadRow {
    /// Routine id.
    pub rtn: RoutineId,
    /// Kernel name.
    pub name: String,
    /// Whether the kernel is in the main image.
    pub main_image: bool,
    /// Total bytes read.
    pub in_bytes: u64,
    /// Unique addresses read.
    pub in_unma: u64,
    /// Bytes read by anyone from addresses this kernel wrote.
    pub out_bytes: u64,
    /// Unique addresses written.
    pub out_unma: u64,
    /// Access events inspected (instrumentation-routine invocations).
    pub checked_accesses: u64,
    /// Access events traced (non-stack analysis-routine invocations).
    pub traced_accesses: u64,
}

/// A producer→consumer edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuadBinding {
    /// Writing kernel.
    pub producer: RoutineId,
    /// Reading kernel.
    pub consumer: RoutineId,
    /// Bytes transferred.
    pub bytes: u64,
    /// Unique addresses involved.
    pub unma: u64,
}

/// Provenance note for a QUAD profile built from a reduced-instrumentation
/// run. Byte totals (`IN`, `OUT`, binding bytes) were scaled up by the
/// inverse coverage; UnMA counts and binding `unma` are **unscaled lower
/// bounds** — addresses never observed cannot be reconstructed. See
/// `docs/ACCURACY.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadInstrNote {
    /// Canonical `--instr` spec of the producing run.
    pub spec: String,
    /// Observed coverage in parts per million (1 000 000 = exact).
    pub coverage_ppm: u64,
}

/// Results of a QUAD run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadProfile {
    /// Stack setting of the run.
    pub include_stack: bool,
    /// Per-kernel rows (index = routine id).
    pub rows: Vec<QuadRow>,
    /// All producer→consumer bindings.
    pub bindings: Vec<QuadBinding>,
    /// Set when the producing run used a reduced `--instr` mode; `None`
    /// for exact profiles.
    pub instr: Option<QuadInstrNote>,
}

impl QuadProfile {
    /// Look a row up by kernel name.
    pub fn row(&self, name: &str) -> Option<&QuadRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Rows with any traffic, by descending IN bytes.
    pub fn active_rows(&self) -> Vec<&QuadRow> {
        let mut rows: Vec<&QuadRow> = self
            .rows
            .iter()
            .filter(|r| r.in_bytes + r.out_bytes + r.out_unma > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.in_bytes));
        rows
    }

    /// Analysis-cost estimate per kernel, in virtual instruction
    /// equivalents:
    ///
    /// * `alpha` per checked access — the instrumentation stub that
    ///   discards stack accesses;
    /// * `beta` per traced access — the analysis routine run for every
    ///   non-local access;
    /// * `gamma` per *fresh* written address (`OUT UnMA`) — first-time
    ///   shadow-map insertions, by far the most expensive path in a
    ///   tracing tool and the reason `AudioIo_setFrames` (every write to a
    ///   new address) nearly triples its share in the paper's Table III.
    ///
    /// Feeds the Table III emulation.
    pub fn cost_model(&self, alpha: u64, beta: u64, gamma: u64) -> Vec<(RoutineId, u64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.rtn,
                    alpha * r.checked_accesses + beta * r.traced_accesses + gamma * r.out_unma,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_vm::RoutineMeta;

    fn info() -> ProgramInfo {
        let mk = |id: u32, name: &str| RoutineMeta {
            id: RoutineId(id),
            name: name.into(),
            image: "app".into(),
            main_image: true,
            start: 0x10000 + id as u64 * 0x100,
            end: 0x10000 + id as u64 * 0x100 + 0x100,
        };
        ProgramInfo {
            routines: vec![mk(0, "producer"), mk(1, "consumer")],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    fn enter(t: &mut QuadTool, rtn: u32, sp: u64) {
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(rtn),
            sp,
            icount: 0,
        });
    }

    fn ret(t: &mut QuadTool, rtn: u32) {
        t.on_event(&Event::Ret {
            icount: 0,
            rtn: RoutineId(rtn),
        });
    }

    fn write(t: &mut QuadTool, rtn: u32, ea: u64, size: u32) {
        t.on_event(&Event::MemWrite {
            ea,
            size,
            sp: 0x3FFF_F000,
            icount: 0,
            rtn: RoutineId(rtn),
        });
    }

    fn read(t: &mut QuadTool, rtn: u32, ea: u64, size: u32) {
        t.on_event(&Event::MemRead {
            ea,
            size,
            sp: 0x3FFF_F000,
            is_prefetch: false,
            icount: 0,
            rtn: RoutineId(rtn),
        });
    }

    #[test]
    fn producer_consumer_binding() {
        let mut t = QuadTool::new(QuadOptions::default());
        t.on_attach(&info());
        enter(&mut t, 0, 0x3FFF_FF00);
        write(&mut t, 0, 0x1000_0000, 8);
        ret(&mut t, 0);
        enter(&mut t, 1, 0x3FFF_FF00);
        read(&mut t, 1, 0x1000_0000, 8);
        read(&mut t, 1, 0x1000_0000, 8); // consumed twice
        let p = t.into_profile();

        let prod = p.row("producer").unwrap();
        let cons = p.row("consumer").unwrap();
        assert_eq!(prod.out_unma, 8);
        assert_eq!(prod.out_bytes, 16, "OUT counts every consumption");
        assert_eq!(cons.in_bytes, 16);
        assert_eq!(cons.in_unma, 8, "UnMA deduplicates");
        assert_eq!(p.bindings.len(), 1);
        let b = p.bindings[0];
        assert_eq!((b.producer, b.consumer), (RoutineId(0), RoutineId(1)));
        assert_eq!(b.bytes, 16);
        assert_eq!(b.unma, 8);
    }

    #[test]
    fn unwritten_reads_produce_no_binding() {
        let mut t = QuadTool::new(QuadOptions::default());
        t.on_attach(&info());
        enter(&mut t, 1, 0x3FFF_FF00);
        read(&mut t, 1, 0x2000_0000, 8);
        let p = t.into_profile();
        assert!(p.bindings.is_empty());
        assert_eq!(p.row("consumer").unwrap().in_bytes, 8);
    }

    #[test]
    fn partial_overwrite_splits_attribution() {
        let mut t = QuadTool::new(QuadOptions::default());
        t.on_attach(&info());
        enter(&mut t, 0, 0x3FFF_FF00);
        write(&mut t, 0, 0x1000, 8);
        ret(&mut t, 0);
        enter(&mut t, 1, 0x3FFF_FF00);
        write(&mut t, 1, 0x1004, 4); // consumer overwrites the top half
        read(&mut t, 1, 0x1000, 8);
        let p = t.into_profile();
        assert_eq!(p.row("producer").unwrap().out_bytes, 4);
        // Self-binding: consumer reads its own 4 bytes.
        let self_edge = p
            .bindings
            .iter()
            .find(|b| b.producer == RoutineId(1) && b.consumer == RoutineId(1))
            .unwrap();
        assert_eq!(self_edge.bytes, 4);
    }

    #[test]
    fn stack_exclusion_filters_but_still_counts_checks() {
        let mut t = QuadTool::new(QuadOptions {
            include_stack: false,
            ..Default::default()
        });
        t.on_attach(&info());
        enter(&mut t, 0, 0x3FFF_FF00);
        // Stack write (ea above sp): filtered from IN/OUT but checked.
        t.on_event(&Event::MemWrite {
            ea: 0x3FFF_F800,
            size: 8,
            sp: 0x3FFF_F000,
            icount: 0,
            rtn: RoutineId(0),
        });
        write(&mut t, 0, 0x1000_0000, 8); // global
        let p = t.into_profile();
        let r = p.row("producer").unwrap();
        assert_eq!(r.out_unma, 8, "only the global write recorded");
        assert_eq!(r.checked_accesses, 2);
        assert_eq!(r.traced_accesses, 1);
    }

    #[test]
    fn prefetch_ignored() {
        let mut t = QuadTool::new(QuadOptions::default());
        t.on_attach(&info());
        enter(&mut t, 0, 0x3FFF_FF00);
        t.on_event(&Event::MemRead {
            ea: 0x1000_0000,
            size: 8,
            sp: 0x3FFF_F000,
            is_prefetch: true,
            icount: 0,
            rtn: RoutineId(0),
        });
        let p = t.into_profile();
        assert_eq!(p.row("producer").unwrap().in_bytes, 0);
    }

    #[test]
    fn cost_model_shapes() {
        let mut t = QuadTool::new(QuadOptions::default());
        t.on_attach(&info());
        enter(&mut t, 0, 0x3FFF_FF00);
        write(&mut t, 0, 0x1000_0000, 8); // non-stack: checked + traced
        t.on_event(&Event::MemWrite {
            ea: 0x3FFF_F800,
            size: 8,
            sp: 0x3FFF_F000,
            icount: 0,
            rtn: RoutineId(0),
        }); // stack: checked only
        let p = t.into_profile();
        let costs = p.cost_model(2, 10, 3);
        // 2 checked, 1 traced, 16 fresh written addresses (stack accesses
        // are included under the default options, so both stores count).
        assert_eq!(costs[0].1, 2 * 2 + 10 + 3 * 16);
    }
}
