//! The tQUAD tool proper: the VM plug-in that turns memory-access events
//! into per-kernel time-sliced bandwidth series.
//!
//! Mirrors the paper's implementation (§IV.C):
//!
//! * instrumentation attaches analysis calls to every instruction that
//!   references memory (`IncreaseRead`/`IncreaseWrite`) plus every return;
//! * routine-granularity instrumentation attaches `EnterFC`, which pushes
//!   the internal call stack — with the `flag` check that skips functions
//!   outside the main image under the exclusion option;
//! * analysis routines receive the effective address, byte count, the
//!   prefetch flag (they return immediately for prefetches), and the stack
//!   pointer for local-stack-area classification;
//! * predicated instructions only reach the analysis routine when their
//!   predicate held (`INS_InsertPredicatedCall` semantics, enforced by the
//!   VM).
//!
//! The per-access work is kept small: an access in the same (kernel,
//! slice) cell as the one before costs one kernel compare, one clock
//! compare and four masked adds into the open cell. The cell goes to the
//! kernel's [`KernelSeries`] only when the kernel or the slice changes (and
//! in [`MergeTool::absorb`] and [`TquadTool::into_profile`]), through the
//! same append [`KernelSeries::record`] uses, so profiles equal those of
//! one `record` per access.

use crate::callstack::CallStack;
use crate::options::{LibPolicy, TquadOptions};
use crate::profile::{KernelProfile, TquadProfile};
use crate::recon::{reconstruct_series, ReconNote};
use crate::series::{KernelSeries, SliceEntry};
use tq_isa::RoutineId;
use tq_vm::{
    hooks, is_stack_access, Event, HookMask, InsContext, InstrInfo, MergeTool, ProgramInfo,
    ShardContext, Tool,
};

/// The tQUAD profiler tool. Attach to a [`tq_vm::Vm`], run the program, then
/// [`TquadTool::into_profile`] the detached tool.
pub struct TquadTool {
    opts: TquadOptions,
    /// Per-routine: is it tracked (gets frames + attribution)?
    tracked: Vec<bool>,
    names: Vec<String>,
    main_image: Vec<bool>,
    stack: CallStack,
    /// The top of `stack`, kept in step on entry, return and fork.
    top: Option<RoutineId>,
    /// Traffic of the current (kernel, slice) cell, not yet in `series`.
    cell: OpenCell,
    series: Vec<KernelSeries>,
    calls: Vec<u64>,
    max_icount: u64,
    /// Accesses dropped by the library policy (reported for transparency).
    dropped_accesses: u64,
    /// Prefetch events ignored by the analysis routines.
    prefetches_ignored: u64,
    /// Reduced-instrumentation metadata of the producing run, delivered
    /// via [`Tool::on_instr`]; `None` under full instrumentation.
    instr: Option<InstrInfo>,
}

/// The (kernel, slice) cell accesses currently land in.
#[derive(Clone, Copy, Debug)]
struct OpenCell {
    /// The cell's kernel; `RoutineId::INVALID` when no cell is open.
    kernel: RoutineId,
    /// First clock value (`icount - 1`) of the slice.
    start: u64,
    /// Clock values in the slice: the interval, unless the top of the
    /// clock range cuts the slice short (an access at icount 0 has clock
    /// `u64::MAX`), so the wrapping range test never reaches past it.
    len: u64,
    /// The slice's counters so far.
    counts: SliceEntry,
}

impl Default for OpenCell {
    fn default() -> Self {
        OpenCell {
            kernel: RoutineId::INVALID,
            start: 0,
            len: 0,
            counts: SliceEntry::default(),
        }
    }
}

impl TquadTool {
    /// New tool with the given options.
    pub fn new(opts: TquadOptions) -> Self {
        TquadTool {
            opts,
            tracked: Vec::new(),
            names: Vec::new(),
            main_image: Vec::new(),
            stack: CallStack::new(),
            top: None,
            cell: OpenCell::default(),
            series: Vec::new(),
            calls: Vec::new(),
            max_icount: 0,
            dropped_accesses: 0,
            prefetches_ignored: 0,
            instr: None,
        }
    }

    /// Consume the tool into its measurement results. When the run used a
    /// sampling `--instr` mode, each kernel series is reconstructed to
    /// full-run shape (see [`crate::recon`]) and the profile carries a
    /// [`ReconNote`]; exact runs pass through untouched.
    pub fn into_profile(mut self) -> TquadProfile {
        self.flush_cell();
        let gated = self.instr.as_ref().filter(|i| i.slice_len > 0).map(|i| {
            // Anchor the estimator on the true run length, not the
            // last *delivered* event (gating can silence the tail).
            let mut i = i.clone();
            i.total_icount = i.total_icount.max(self.max_icount);
            i
        });
        let interval = self.opts.slice_interval;
        let mut filled = 0u64;
        let mut measured = 0u64;
        let kernels: Vec<KernelProfile> = self
            .names
            .into_iter()
            .zip(self.series)
            .zip(self.main_image.into_iter().zip(self.calls))
            .enumerate()
            .map(|(i, ((name, series), (main_image, calls)))| {
                let series = match &gated {
                    Some(info) => {
                        let (s, f, m) = reconstruct_series(&series, interval, info);
                        filled += f;
                        measured += m;
                        s
                    }
                    None => series,
                };
                KernelProfile {
                    rtn: RoutineId(i as u32),
                    name,
                    main_image,
                    calls,
                    series,
                }
            })
            .collect();
        let instr = self.instr.as_ref().map(|info| ReconNote {
            spec: info.spec.clone(),
            coverage_ppm: (info.coverage() * 1e6).round() as u64,
            filled_slices: filled,
            measured_slices: measured,
        });
        TquadProfile {
            interval,
            total_icount: self.max_icount,
            kernels,
            dropped_accesses: self.dropped_accesses,
            prefetches_ignored: self.prefetches_ignored,
            instr,
        }
    }

    /// The kernel an access belongs to: the top of the internal call stack,
    /// falling back to the instruction's static routine for code executing
    /// before any tracked entry.
    #[inline]
    fn attribute(&self, static_rtn: RoutineId) -> Option<RoutineId> {
        match self.top {
            Some(k) => Some(k),
            None => {
                if static_rtn != RoutineId::INVALID && self.tracked[static_rtn.idx()] {
                    Some(static_rtn)
                } else {
                    None
                }
            }
        }
    }

    #[inline(always)]
    fn record(
        &mut self,
        static_rtn: RoutineId,
        icount: u64,
        is_read: bool,
        size: u32,
        ea: u64,
        sp: u64,
    ) {
        // Under the Drop policy, traffic executed inside untracked routines
        // vanishes from the report entirely.
        if self.opts.lib_policy == LibPolicy::Drop
            && static_rtn != RoutineId::INVALID
            && !self.tracked[static_rtn.idx()]
        {
            self.dropped_accesses += 1;
            return;
        }
        let Some(kernel) = self.attribute(static_rtn) else {
            self.dropped_accesses += 1;
            return;
        };
        let clock = icount.wrapping_sub(1);
        let is_stack = is_stack_access(ea, sp);
        let cell = &mut self.cell;
        if kernel == cell.kernel && clock.wrapping_sub(cell.start) < cell.len {
            cell.counts.count(is_read, size as u64, is_stack);
        } else {
            self.count_in_new_cell(kernel, clock, is_read, size, is_stack);
        }
    }

    /// [`TquadTool::record`]'s path for an access outside the open cell:
    /// close that cell, open the access's own and count the access there.
    /// Kept out of line so the in-cell path saves no registers.
    #[cold]
    #[inline(never)]
    fn count_in_new_cell(
        &mut self,
        kernel: RoutineId,
        clock: u64,
        is_read: bool,
        size: u32,
        is_stack: bool,
    ) {
        self.flush_cell();
        let interval = self.opts.slice_interval;
        let slice = clock / interval;
        let start = slice * interval;
        self.cell = OpenCell {
            kernel,
            start,
            len: (u64::MAX - start).min(interval - 1) + 1,
            counts: SliceEntry {
                slice,
                ..Default::default()
            },
        };
        self.cell.counts.count(is_read, size as u64, is_stack);
    }

    /// `EnterFC`: `flag` says whether the function is in the main image;
    /// untracked routines never get a frame. Kept out of line: pushing a
    /// frame may grow the stack, and that call would make every event
    /// save registers.
    #[inline(never)]
    fn enter(&mut self, rtn: RoutineId, sp: u64) {
        if self.tracked[rtn.idx()] {
            self.stack.enter(rtn, sp);
            self.top = Some(rtn);
            self.calls[rtn.idx()] += 1;
        }
    }

    /// Append the open cell, if any, to its kernel's series.
    fn flush_cell(&mut self) {
        let cell = std::mem::take(&mut self.cell);
        if cell.kernel != RoutineId::INVALID {
            self.series[cell.kernel.idx()].append(cell.counts);
        }
    }
}

impl Tool for TquadTool {
    fn name(&self) -> &str {
        "tquad"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        // PIN_InitSymbols equivalent: copy the routine table.
        for r in &info.routines {
            let tracked = match self.opts.lib_policy {
                LibPolicy::Track => true,
                LibPolicy::AttributeToCaller | LibPolicy::Drop => r.main_image,
            };
            self.tracked.push(tracked);
            self.names.push(r.name.clone());
            self.main_image.push(r.main_image);
            self.series.push(KernelSeries::new());
            self.calls.push(0);
        }
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        // "tQUAD instruments every load, store, call and return
        // instruction" — plus routine entries for EnterFC.
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
        // Replay delivery mask: tQUAD never inspects Call or Tick events,
        // so replay skips constructing those deliveries entirely.
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
                icount,
                rtn,
                ..
            } => {
                self.max_icount = icount;
                if is_prefetch {
                    // "The corresponding analysis routines return
                    // immediately upon detection of a prefetch state."
                    self.prefetches_ignored += 1;
                    return;
                }
                self.record(rtn, icount, true, size, ea, sp);
            }
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
                ..
            } => {
                self.max_icount = icount;
                self.record(rtn, icount, false, size, ea, sp);
            }
            Event::RoutineEnter { rtn, sp, icount } => {
                self.max_icount = icount;
                self.enter(rtn, sp);
            }
            Event::Ret { rtn, icount, .. } => {
                self.max_icount = icount;
                if self.stack.ret_in(rtn).is_some() {
                    self.top = self.stack.current();
                }
            }
            Event::Call { .. } | Event::Tick { .. } => {}
        }
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.max_icount = self.max_icount.max(final_icount);
    }
}

impl MergeTool for TquadTool {
    fn fork(&self, info: &ProgramInfo, ctx: &ShardContext) -> Box<dyn MergeTool> {
        let mut t = TquadTool::new(self.opts);
        t.on_attach(info);
        // Seed the internal call stack with the frames this tool would
        // have pushed over the prefix: all routines under Track, main-image
        // only otherwise. Seeded frames are resumed, not entered — `calls`
        // stays zero (the shard that saw the entry event counts it).
        for &(rtn, sp) in ctx.frames(self.opts.lib_policy == LibPolicy::Track) {
            t.stack.enter(rtn, sp);
        }
        t.top = t.stack.current();
        Box::new(t)
    }

    fn absorb(&mut self, other: Box<dyn MergeTool>) {
        let mut other = other
            .into_any()
            .downcast::<TquadTool>()
            .expect("absorb: shard is not a TquadTool");
        self.flush_cell();
        other.flush_cell();
        self.max_icount = self.max_icount.max(other.max_icount);
        self.dropped_accesses += other.dropped_accesses;
        self.prefetches_ignored += other.prefetches_ignored;
        for (calls, more) in self.calls.iter_mut().zip(&other.calls) {
            *calls += more;
        }
        for (series, partial) in self.series.iter_mut().zip(&other.series) {
            series.merge(partial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_isa::RoutineId;
    use tq_vm::RoutineMeta;

    fn info2() -> ProgramInfo {
        ProgramInfo {
            routines: vec![
                RoutineMeta {
                    id: RoutineId(0),
                    name: "main".into(),
                    image: "app".into(),
                    main_image: true,
                    start: 0x10000,
                    end: 0x10100,
                },
                RoutineMeta {
                    id: RoutineId(1),
                    name: "lib_memcpy".into(),
                    image: "libsim".into(),
                    main_image: false,
                    start: 0x1000000,
                    end: 0x1000100,
                },
            ],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    fn read_ev(ea: u64, icount: u64, rtn: RoutineId) -> Event {
        Event::MemRead {
            ea,
            size: 8,
            sp: 0x3FFF_F000,
            is_prefetch: false,
            icount,
            rtn,
        }
    }

    #[test]
    fn slices_and_stack_classification() {
        let mut t = TquadTool::new(TquadOptions::default().with_interval(100));
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        t.on_event(&read_ev(0x1000_0000, 5, RoutineId(0))); // global, slice 0
        t.on_event(&read_ev(0x3FFF_F800, 150, RoutineId(0))); // stack, slice 1
        let p = t.into_profile();
        let k = &p.kernels[0];
        assert_eq!(k.series.entries().len(), 2);
        assert_eq!(k.series.entries()[0].r_excl, 8);
        assert_eq!(k.series.entries()[1].r_excl, 0, "stack access excluded");
        assert_eq!(k.series.entries()[1].r_incl, 8);
        assert_eq!(k.calls, 1);
    }

    #[test]
    fn prefetches_are_ignored() {
        let mut t = TquadTool::new(TquadOptions::default());
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        t.on_event(&Event::MemRead {
            ea: 0x1000_0000,
            size: 8,
            sp: 0x3FFF_F000,
            is_prefetch: true,
            icount: 2,
            rtn: RoutineId(0),
        });
        let p = t.into_profile();
        assert_eq!(p.prefetches_ignored, 1);
        assert_eq!(p.kernels[0].series.entries().len(), 0);
    }

    #[test]
    fn lib_attribution_to_caller() {
        let mut t = TquadTool::new(
            TquadOptions::default()
                .with_interval(100)
                .with_lib_policy(LibPolicy::AttributeToCaller),
        );
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        // Library routine entered: no frame. Its read attributes to main.
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(1),
            sp: 0x3FFF_FE00,
            icount: 10,
        });
        t.on_event(&read_ev(0x1000_0000, 11, RoutineId(1)));
        let p = t.into_profile();
        assert_eq!(
            p.kernels[0].series.totals(true).0,
            8,
            "attributed to caller"
        );
        assert_eq!(p.kernels[1].series.totals(true).0, 0);
        assert_eq!(p.kernels[1].calls, 0, "untracked routines count no calls");
    }

    #[test]
    fn lib_drop_policy() {
        let mut t = TquadTool::new(
            TquadOptions::default()
                .with_interval(100)
                .with_lib_policy(LibPolicy::Drop),
        );
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(1),
            sp: 0x3FFF_FE00,
            icount: 10,
        });
        t.on_event(&read_ev(0x1000_0000, 11, RoutineId(1)));
        let p = t.into_profile();
        assert_eq!(p.kernels[0].series.totals(true).0, 0);
        assert_eq!(p.kernels[1].series.totals(true).0, 0);
        assert_eq!(p.dropped_accesses, 1);
    }

    #[test]
    fn lib_track_policy() {
        let mut t = TquadTool::new(
            TquadOptions::default()
                .with_interval(100)
                .with_lib_policy(LibPolicy::Track),
        );
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(1),
            sp: 0x3FFF_FE00,
            icount: 10,
        });
        t.on_event(&read_ev(0x1000_0000, 11, RoutineId(1)));
        let p = t.into_profile();
        assert_eq!(p.kernels[1].series.totals(true).0, 8);
        assert_eq!(p.kernels[1].calls, 1);
    }

    #[test]
    fn ret_pops_back_to_caller() {
        let mut t = TquadTool::new(TquadOptions::default().with_interval(100));
        t.on_attach(&info2());
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FF00,
            icount: 1,
        });
        // main calls itself (recursion-like second frame).
        t.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 0x3FFF_FE00,
            icount: 5,
        });
        t.on_event(&Event::Ret {
            icount: 9,
            rtn: RoutineId(0),
        });
        assert_eq!(t.stack.depth(), 1);
        t.on_event(&read_ev(0x1000_0000, 12, RoutineId(0)));
        let p = t.into_profile();
        assert_eq!(p.kernels[0].series.totals(true).0, 8);
    }
}
