//! # tq-quad — the QUAD memory access pattern analyser
//!
//! tQUAD is "designed as a complementary profiler in a dynamic profiling
//! framework along with QUAD", the group's quantitative data-usage tool
//! (ARC 2010). The paper's Table II and the QDU graph come from QUAD, so
//! the reproduction includes it: byte-granular last-writer shadow memory,
//! per-kernel IN/OUT byte and unique-memory-address (UnMA) accounting, and
//! producer→consumer binding extraction.
//!
//! * [`QuadTool`] — the VM plug-in;
//! * [`QuadProfile`] — per-kernel rows + bindings;
//! * [`table2`] / [`qdu_graph`] — Table II and QDU-graph rendering;
//! * [`AddressSet`] / [`ShadowMemory`] — the compact substrate structures;
//! * [`cluster_by_communication`] — the paper's stated future work: task
//!   clustering that maximises intra-cluster communication (the Delft
//!   WorkBench partitioning objective).

pub mod cluster;
mod pages;
pub mod report;
pub mod shadow;
pub mod tool;
pub mod unma;

pub use cluster::{cluster_by_communication, Cluster, ClusterOptions, Clustering};
pub use report::{qdu_graph, table2};
pub use shadow::ShadowMemory;
pub use tool::{Binding, QuadBinding, QuadOptions, QuadProfile, QuadRow, QuadTool};
pub use unma::AddressSet;
