//! # tq-vm — a Pin-like dynamic binary instrumentation VM
//!
//! tQUAD (ICPP 2010) is implemented on Intel Pin: a JIT-based framework
//! where *instrumentation* code runs once per compiled trace and decides
//! which *analysis* calls to inject, and the injected calls then run on
//! every execution. This crate reproduces that architecture for the
//! [`tq_isa`] instruction set:
//!
//! * [`Vm`] — loader + interpreter with a basic-block **code cache**; blocks
//!   are decoded and instrumented once, executed many times;
//! * [`Tool`] — the plug-in trait mirroring Pin's `INS_AddInstrumentFunction`
//!   / `RTN_AddInstrumentFunction` / `INS_InsertPredicatedCall` API surface;
//! * [`Memory`] — a sparse paged 4 GiB address space;
//! * [`HostFs`] — the simulated OS interface (files + console) whose copies
//!   are invisible to tools, as kernel-mode code is to Pin.
//!
//! See `DESIGN.md` at the workspace root for how this substitutes for Pin in
//! the paper's experiments.

#![warn(missing_docs)]

mod dispatch;
pub mod hostfs;
pub mod instr;
pub mod layout;
pub mod mem;
mod obs;
pub mod tool;
pub mod vm;

pub use hostfs::{FsMode, HostFs};
pub use instr::{InstrEmulator, InstrGate, InstrInfo, InstrMode, RoutineFilter, SampleSpec};
pub use layout::is_stack_access;
pub use mem::{Memory, OutOfRange};
pub use tool::{
    event_bit, hooks, standard_mask, AsAny, Event, HookMask, InsContext, MergeTool, ProgramInfo,
    RoutineMeta, ShardContext, Tool,
};
pub use vm::{ExitReason, RunExit, ToolHandle, Vm, VmError, VmStats};
