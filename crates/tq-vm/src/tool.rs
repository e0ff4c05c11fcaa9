//! The instrumentation (tool) API — the reproduction of Pin's `INS_*` /
//! `RTN_*` interface that tQUAD, QUAD and the sampling profiler plug into.
//!
//! Pin separates **instrumentation time** (a callback runs once, when the
//! JIT first compiles a piece of code, and decides which analysis calls to
//! inject) from **analysis time** (the injected calls run on every
//! execution). The VM keeps the same split:
//!
//! * [`Tool::instrument_ins`] is invoked once per instruction when its basic
//!   block is first decoded into the code cache; it returns a [`HookMask`]
//!   saying which [`Event`]s to deliver for that instruction;
//! * [`Tool::on_event`] receives the events every time the instruction
//!   executes.
//!
//! Predicated instructions only deliver memory events when their predicate
//! is true (Pin's `INS_InsertPredicatedCall`); prefetches *do* deliver their
//! event, flagged, because the paper's analysis routines are the ones that
//! "return immediately upon detection of a prefetch state" — filtering is
//! the tool's job, and the reproduction keeps the cost in the same place.

use std::any::Any;
use tq_isa::{Inst, RoutineId};

/// Bitmask of analysis events a tool attaches to one instruction.
pub type HookMask = u8;

/// Hook bits for [`Tool::instrument_ins`].
pub mod hooks {
    use super::HookMask;

    /// Deliver [`super::Event::MemRead`] when the instruction reads memory.
    pub const MEM_READ: HookMask = 1 << 0;
    /// Deliver [`super::Event::MemWrite`] when the instruction writes memory.
    pub const MEM_WRITE: HookMask = 1 << 1;
    /// Deliver [`super::Event::Call`] when the instruction is a call.
    pub const CALL: HookMask = 1 << 2;
    /// Deliver [`super::Event::Ret`] when the instruction is a return.
    pub const RET: HookMask = 1 << 3;
    /// Deliver [`super::Event::RoutineEnter`] when this instruction is the
    /// first of a routine (Pin's `RTN_AddInstrumentFunction` granularity).
    pub const RTN_ENTER: HookMask = 1 << 4;

    /// Everything an instruction can produce.
    pub const ALL: HookMask = MEM_READ | MEM_WRITE | CALL | RET | RTN_ENTER;
    /// Nothing.
    pub const NONE: HookMask = 0;

    /// [`super::Event::Tick`] delivery. Not an instruction hook — ticks are
    /// requested via [`super::Tool::tick_interval`] — but part of the
    /// *delivery mask* ([`super::Tool::event_mask`]) replay uses to skip
    /// event kinds a tool never looks at.
    pub const TICK: HookMask = 1 << 5;

    /// Every deliverable event kind (the [`super::Tool::event_mask`]
    /// default).
    pub const EVERY: HookMask = ALL | TICK;
}

/// The delivery-mask bit of one event (see [`Tool::event_mask`]).
pub fn event_bit(ev: &Event) -> HookMask {
    match ev {
        Event::MemRead { .. } => hooks::MEM_READ,
        Event::MemWrite { .. } => hooks::MEM_WRITE,
        Event::Call { .. } => hooks::CALL,
        Event::Ret { .. } => hooks::RET,
        Event::RoutineEnter { .. } => hooks::RTN_ENTER,
        Event::Tick { .. } => hooks::TICK,
    }
}

/// Metadata for one routine, shared with tools at attach time
/// (`PIN_InitSymbols` equivalent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineMeta {
    /// Program-wide routine id.
    pub id: RoutineId,
    /// Symbol name.
    pub name: String,
    /// Name of the image the routine lives in.
    pub image: String,
    /// True when that image is the application's main image — the `flag`
    /// tQUAD's `EnterFC` uses to ignore library/OS routines.
    pub main_image: bool,
    /// First instruction address.
    pub start: u64,
    /// One past the last instruction address.
    pub end: u64,
}

/// Static program facts given to every tool when it is attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramInfo {
    /// All routines, indexed by [`RoutineId`].
    pub routines: Vec<RoutineMeta>,
    /// The stack base (initial stack pointer); together with the per-event
    /// `sp` this is what classifies stack-area accesses.
    pub stack_base: u64,
    /// Entry address of the program.
    pub entry: u64,
}

impl ProgramInfo {
    /// Routine metadata by id. Panics on `RoutineId::INVALID`.
    pub fn routine(&self, id: RoutineId) -> &RoutineMeta {
        &self.routines[id.idx()]
    }

    /// Find a routine id by name (first match across images).
    pub fn routine_named(&self, name: &str) -> Option<RoutineId> {
        self.routines.iter().find(|r| r.name == name).map(|r| r.id)
    }
}

/// Instrumentation-time view of one instruction.
#[derive(Clone, Copy, Debug)]
pub struct InsContext<'a> {
    /// Instruction address.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: &'a Inst,
    /// Routine containing `pc` ([`RoutineId::INVALID`] if outside symbols).
    pub rtn: RoutineId,
    /// True when the containing image is the main image.
    pub main_image: bool,
    /// True when `pc` is the first instruction of `rtn`.
    pub is_rtn_start: bool,
}

/// An analysis-time event.
///
/// `icount` is the virtual clock: the 1-based index of the executing
/// instruction. `rtn` is the routine *statically containing the instruction*
/// — tools that need dynamic context (e.g. attributing a library callee to
/// its caller) maintain their own call stack from `Call`/`Ret`/
/// `RoutineEnter`, exactly as tQUAD does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A memory read of `size` bytes at `ea`.
    MemRead {
        /// Instruction pointer.
        ip: u64,
        /// Effective address.
        ea: u64,
        /// Access size in bytes.
        size: u32,
        /// Stack pointer at access time (Pin's `REG_STACK_PTR` argument).
        sp: u64,
        /// True for prefetch hints; tQUAD ignores these.
        is_prefetch: bool,
        /// Virtual clock.
        icount: u64,
        /// Routine containing `ip`.
        rtn: RoutineId,
    },
    /// A memory write of `size` bytes at `ea`.
    MemWrite {
        /// Instruction pointer.
        ip: u64,
        /// Effective address.
        ea: u64,
        /// Access size in bytes.
        size: u32,
        /// Stack pointer at access time.
        sp: u64,
        /// Virtual clock.
        icount: u64,
        /// Routine containing `ip`.
        rtn: RoutineId,
    },
    /// A call instruction executed; fires *after* the return address push.
    Call {
        /// Call-site instruction pointer.
        ip: u64,
        /// Resolved callee routine ([`RoutineId::INVALID`] if the target is
        /// outside all symbols).
        callee: RoutineId,
        /// Virtual clock.
        icount: u64,
        /// Routine containing the call site.
        rtn: RoutineId,
    },
    /// A return instruction executed; fires *after* the return-address pop.
    Ret {
        /// Instruction pointer of the `ret`.
        ip: u64,
        /// Address being returned to.
        return_to: u64,
        /// Virtual clock.
        icount: u64,
        /// Routine containing the `ret`.
        rtn: RoutineId,
    },
    /// Control reached the first instruction of a routine (fires before the
    /// instruction executes and before its other events).
    RoutineEnter {
        /// The routine being entered.
        rtn: RoutineId,
        /// Stack pointer on entry.
        sp: u64,
        /// Virtual clock.
        icount: u64,
    },
    /// Periodic virtual-time tick, requested via [`Tool::tick_interval`].
    Tick {
        /// Virtual clock.
        icount: u64,
        /// Instruction pointer about to execute.
        ip: u64,
        /// Routine containing `ip`.
        rtn: RoutineId,
    },
}

impl Event {
    /// The virtual clock of any event.
    pub fn icount(&self) -> u64 {
        match *self {
            Event::MemRead { icount, .. }
            | Event::MemWrite { icount, .. }
            | Event::Call { icount, .. }
            | Event::Ret { icount, .. }
            | Event::RoutineEnter { icount, .. }
            | Event::Tick { icount, .. } => icount,
        }
    }
}

/// Object-safe downcasting support (so finished tools can be detached from
/// the VM and their results read back).
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Consume into `Box<dyn Any>`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A dynamic analysis tool (the tQUAD/QUAD/profiler plug-in interface).
pub trait Tool: AsAny {
    /// Human-readable tool name (diagnostics).
    fn name(&self) -> &str;

    /// Called once when the tool is attached, before execution starts.
    fn on_attach(&mut self, _info: &ProgramInfo) {}

    /// Instrumentation time: decide which events to receive for `ins`.
    /// Called once per instruction per code-cache fill.
    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask;

    /// Request periodic [`Event::Tick`]s every `n` instructions.
    fn tick_interval(&self) -> Option<u64> {
        None
    }

    /// Event kinds this tool ever acts on, as a union of [`hooks`] bits
    /// (including [`hooks::TICK`]). Replay precomputes this once per trace
    /// and skips delivering event kinds outside the mask — the "per-trace
    /// precomputed per-tool event mask" lever (DESIGN.md §14). The default
    /// is everything; a narrower mask is purely an optimisation and must
    /// not change the tool's output (the tool would have ignored those
    /// events anyway).
    fn event_mask(&self) -> HookMask {
        hooks::EVERY
    }

    /// The run (or the capture being replayed) used a reduced
    /// instrumentation mode: `info` says exactly which memory events were
    /// dropped, so the tool can reconstruct full-run estimates and report
    /// its confidence. Called after [`Tool::on_attach`] on replay, and
    /// before [`Tool::on_fini`] on live runs. Never called under full
    /// instrumentation.
    fn on_instr(&mut self, _info: &crate::instr::InstrInfo) {}

    /// Analysis time: an event this tool subscribed to fired.
    fn on_event(&mut self, ev: &Event);

    /// The program finished (Pin's Fini callback). `final_icount` is the
    /// total number of instructions executed.
    fn on_fini(&mut self, _final_icount: u64) {}
}

/// Replay-resume snapshot taken at a trace-chunk boundary — everything a
/// tool needs to start analysing mid-stream as if it had replayed the whole
/// prefix itself.
///
/// Tools maintain an *internal call stack* (tQUAD §IV.A) whose contents
/// depend on the library policy: under a track-everything policy every
/// routine entry pushes a frame, under main-image-only policies library
/// routines never get one. The two variants diverge on returns (a `ret`
/// only pops when the top frame belongs to the returning routine), so a
/// single stack filtered after the fact is *not* faithful — the snapshot
/// therefore carries both stacks, maintained independently, and each tool
/// picks the one matching its policy via [`ShardContext::frames`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardContext {
    /// Index of the first event of the chunk (0-based).
    pub start_event: u64,
    /// Virtual clock after the last event of the prefix (0 at stream start).
    pub icount: u64,
    /// Delta-decoder instruction pointer.
    pub ip: u64,
    /// Delta-decoder effective address.
    pub ea: u64,
    /// Delta-decoder stack pointer.
    pub sp: u64,
    /// Routine of the most recent event ([`RoutineId::INVALID`] at start);
    /// synthesised ticks attribute to it.
    pub last_rtn: RoutineId,
    /// Call stack with a frame `(routine, sp-at-entry)` for *every* routine
    /// entered, outermost first.
    pub frames_all: Vec<(RoutineId, u64)>,
    /// Call stack restricted to main-image routines only.
    pub frames_main: Vec<(RoutineId, u64)>,
}

impl Default for ShardContext {
    fn default() -> Self {
        ShardContext {
            start_event: 0,
            icount: 0,
            ip: 0,
            ea: 0,
            sp: 0,
            last_rtn: RoutineId::INVALID,
            frames_all: Vec::new(),
            frames_main: Vec::new(),
        }
    }
}

impl ShardContext {
    /// The call-stack snapshot matching a tool's tracking policy:
    /// `track_all_images` selects the every-routine stack, otherwise the
    /// main-image-only stack.
    pub fn frames(&self, track_all_images: bool) -> &[(RoutineId, u64)] {
        if track_all_images {
            &self.frames_all
        } else {
            &self.frames_main
        }
    }
}

/// A tool whose state is *mergeable*: the event stream can be split into
/// chunks, each chunk analysed by an independent worker clone, and the
/// partial results reduced back into one — the map/reduce shape behind
/// `Trace::replay_sharded`.
///
/// Contract (what the sharded-equals-sequential determinism test enforces):
///
/// * [`MergeTool::fork`] returns a worker that, fed the chunk's events,
///   behaves exactly as `self` would have from that point — the call stack
///   is seeded from the snapshot (without counting the seeded entries as
///   calls), counters start at zero;
/// * [`MergeTool::absorb`] folds a finished worker back in. Workers must be
///   absorbed in chunk order: ordered state (e.g. QUAD's last-writer shadow
///   memory) resolves cross-chunk references during the fold.
pub trait MergeTool: Tool + Send {
    /// Clone an attached worker for the chunk starting at `ctx`.
    fn fork(&self, info: &ProgramInfo, ctx: &ShardContext) -> Box<dyn MergeTool>;

    /// Fold the next chunk's finished worker into `self`. Panics when
    /// `other` is not the same concrete tool type.
    fn absorb(&mut self, other: Box<dyn MergeTool>);
}

/// A convenience mask builder: subscribe to the memory/call/ret events that
/// `inst` can actually produce, plus routine entries. This is what a
/// "instrument every load, store, call and return" tool like tQUAD asks for.
pub fn standard_mask(ins: &InsContext<'_>) -> HookMask {
    let mut m = hooks::NONE;
    if ins.inst.may_read_memory() {
        m |= hooks::MEM_READ;
    }
    if ins.inst.may_write_memory() {
        m |= hooks::MEM_WRITE;
    }
    if ins.inst.is_call() {
        m |= hooks::CALL;
    }
    if ins.inst.is_ret() {
        m |= hooks::RET;
    }
    if ins.is_rtn_start {
        m |= hooks::RTN_ENTER;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_isa::{Inst, MemWidth, Reg};

    fn ctx<'a>(inst: &'a Inst, is_rtn_start: bool) -> InsContext<'a> {
        InsContext {
            pc: 0x10000,
            inst,
            rtn: RoutineId(0),
            main_image: true,
            is_rtn_start,
        }
    }

    #[test]
    fn standard_mask_covers_the_paper_instruction_set() {
        let ld = Inst::Ld {
            rd: Reg(1),
            base: Reg(2),
            off: 0,
            width: MemWidth::B4,
        };
        assert_eq!(standard_mask(&ctx(&ld, false)), hooks::MEM_READ);

        let st = Inst::St {
            rs: Reg(1),
            base: Reg(2),
            off: 0,
            width: MemWidth::B8,
        };
        assert_eq!(standard_mask(&ctx(&st, false)), hooks::MEM_WRITE);

        // A call both writes memory (return address push) and is a call.
        let call = Inst::Call { target: 0x20000 };
        assert_eq!(
            standard_mask(&ctx(&call, false)),
            hooks::MEM_WRITE | hooks::CALL
        );

        // Ret reads the stack and is a return.
        assert_eq!(
            standard_mask(&ctx(&Inst::Ret, false)),
            hooks::MEM_READ | hooks::RET
        );

        // Plain ALU op at a routine start only reports routine entry.
        let add = Inst::Add {
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        assert_eq!(standard_mask(&ctx(&add, true)), hooks::RTN_ENTER);
        assert_eq!(standard_mask(&ctx(&add, false)), hooks::NONE);
    }

    #[test]
    fn event_icount_accessor() {
        let ev = Event::Tick {
            icount: 42,
            ip: 0,
            rtn: RoutineId::INVALID,
        };
        assert_eq!(ev.icount(), 42);
        let ev = Event::MemRead {
            ip: 0,
            ea: 0,
            size: 8,
            sp: 0,
            is_prefetch: false,
            icount: 7,
            rtn: RoutineId(1),
        };
        assert_eq!(ev.icount(), 7);
    }
}
