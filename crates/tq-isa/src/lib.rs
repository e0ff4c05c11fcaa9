//! # tq-isa — the instruction set of the tQUAD reproduction VM
//!
//! The original tQUAD tool ([Ostadzadeh et al., ICPP 2010]) is built on the
//! Intel Pin dynamic binary instrumentation framework and profiles unmodified
//! x86 binaries. Rust has no mature DBI framework bindings, so this
//! reproduction substitutes a self-contained virtual instruction set
//! architecture: a fixed-width, 64-bit RISC-style ISA rich enough to express
//! the *hArtes wfs* case-study application with realistic memory behaviour —
//! loads and stores of every width, stack-relative addressing, calls and
//! returns that spill the return address to the stack, prefetch hints and
//! predicated memory operations (the features Pin's `INS_*` API exposes and
//! tQUAD's instrumentation logic depends on).
//!
//! This crate defines:
//!
//! * [`Reg`]/[`FReg`] — the integer and floating point register files and the
//!   calling convention ([`abi`]);
//! * [`Inst`] — the instruction set, with the classification queries a DBI
//!   framework needs (`is_memory_read`, `memory_write_size`, `is_call`, …);
//! * [`encode()`]/[`decode()`] — the fixed 8-byte binary encoding used to store
//!   text sections in images (round-trip tested);
//! * [`Asm`] — a small assembler with label resolution and routine (symbol)
//!   tracking;
//! * [`Image`], [`Program`], [`Routine`] — binary containers consumed by the
//!   VM loader, mirroring Pin's image/routine object model.

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod image;
pub mod inst;
pub mod prng;
pub mod reg;

pub use asm::{Asm, AsmError};
pub use disasm::disassemble;
pub use encode::{decode, encode, DecodeError};
pub use image::{Image, ImageBuilder, Program, Routine, RoutineId};
pub use inst::{BrCond, HostFn, Inst, MemWidth};
pub use reg::{abi, FReg, Reg};

/// Size of one encoded instruction in bytes. The program counter advances by
/// this amount; branch and call targets are byte addresses.
pub const INST_BYTES: u64 = 8;
