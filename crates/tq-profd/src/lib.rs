//! # tq-profd — a concurrent profiling service for the tQUAD reproduction
//!
//! The capture-once/replay-many architecture (`tq-trace`) makes every
//! profiling question after the first a pure function of a recorded event
//! stream. This crate turns that property into a long-running service:
//! a TCP daemon (`tq serve`) accepts profiling jobs from any number of
//! clients (`tq submit`), schedules them across a pool of replay workers,
//! and answers from a **content-addressed capture cache**:
//!
//! * the first job for an `(app, scale)` pair runs the VM once, recording
//!   a full `tq-trace` capture keyed by a digest of the program (text,
//!   symbols, data) and its staged input — the *content address*;
//! * every subsequent tool/interval/stack variant against the same
//!   workload is served by offline replay of that capture, in parallel
//!   across workers;
//! * each distinct job's rendered result is memoized, so repeats are pure
//!   cache hits returning **byte-identical** responses.
//!
//! Layering:
//!
//! * [`protocol`] — request/response model over JSON lines (codec shared
//!   with `tq-report`'s hand-rolled [`tq_report::Json`]);
//! * [`apps`] — workload construction (wfs / imgproc at each scale) and
//!   content addressing;
//! * [`cache`] — the two-tier capture store (LRU in-memory over a
//!   persistent on-disk tier) with single-flight recording;
//! * [`exec`] — job execution: capture or replay, tool dispatch, JSON
//!   rendering;
//! * [`stats`] — service observability (cache counters, per-tool latency
//!   histograms);
//! * [`server`] / [`client`] — the TCP daemon (bounded job queue, worker
//!   pool, graceful shutdown, per-job timeout) and the line-oriented
//!   client used by `tq submit`.
//!
//! Under load the service degrades predictably rather than queueing
//! unboundedly: full queues and connection limits answer `busy` with a
//! `retry_after_ms` hint, idle connections are reaped, panicking workers
//! recover, and shutdown sheds the waiting queue. The client side mirrors
//! this with socket timeouts and [`Client::submit_with_retry`]. Every
//! degradation path can be rehearsed deterministically via `tq-faults`
//! (the `TQ_FAULTS` plan string) — see `docs/OPERATIONS.md` for the
//! operator's handbook and DESIGN.md §10 for the model.

#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod client;
pub mod exec;
pub mod fleet;
pub mod protocol;
pub mod server;
pub mod stats;

pub use apps::{AppId, Scale, Workload};
pub use cache::CaptureStore;
pub use client::{Client, ClientConfig, FleetClient, RetryTrail};
pub use fleet::FleetState;
pub use protocol::{
    hex_decode, hex_encode, JobSpec, Request, Response, StackPolicy, ToolId, PEEK_FRAME_BYTES,
};
pub use server::{Server, ServerConfig};
pub use stats::ServiceStats;

/// Best-effort text of a caught panic payload (`&str` / `String`
/// payloads; anything else reports its opaqueness). Used by the worker
/// pool and the capture cache to turn contained unwinds into error
/// replies.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}
