//! # tq-tquad — the tQUAD profiler (the paper's primary contribution)
//!
//! tQUAD delivers *temporal memory bandwidth usage* per kernel: time is
//! measured in executed instructions (platform independent), divided into
//! configurable *time slices*; each kernel's reads and writes are recorded
//! per slice, classified as local-stack-area or global, and attributed via
//! an internal call stack maintained from routine-entry and return events.
//! From the series the crate derives activity spans, average and peak
//! bandwidth in bytes/instruction, and the execution *phases* of the
//! program (Table IV, Figures 6–7 of the paper).
//!
//! * [`TquadTool`] — the VM plug-in ([`tq_vm::Tool`]);
//! * [`TquadProfile`] / [`BandwidthStats`] — results and derived statistics;
//! * [`PhaseDetector`] — phase identification (activity clustering);
//! * [`report`] — Table IV and Figure 6/7 rendering.

pub mod callstack;
pub mod options;
pub mod phase;
pub mod profile;
pub mod recon;
pub mod report;
pub mod series;
pub mod tool;

pub use callstack::CallStack;
pub use options::{LibPolicy, TquadOptions};
pub use phase::{Phase, PhaseDetector};
pub use profile::{ActivityInterval, BandwidthStats, KernelProfile, TquadProfile};
pub use recon::{reconstruct_series, ReconNote};
pub use report::{figure_chart, phase_table, profile_json, Measure};
pub use series::{KernelSeries, SliceEntry};
pub use tool::TquadTool;
