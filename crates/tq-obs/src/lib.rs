//! # tq-obs — the profiler profiling itself
//!
//! tQUAD's whole premise is that cheap, always-on measurement changes how
//! you build systems; this crate applies the premise to the reproduction
//! itself. It provides the primitives a self-hosted telemetry layer
//! needs, with zero external dependencies (the workspace builds offline):
//!
//! * **spans** ([`span()`]/[`span_named`]) — RAII wall-clock timers recorded
//!   into per-thread ring buffers. Each recording thread is its own
//!   *track*, so a sharded replay shows one lane per shard when the log is
//!   exported as Chrome trace-event JSON ([`chrome`]) and loaded in
//!   `chrome://tracing` or Perfetto;
//! * **a structured event log** ([`log`]) — JSON-lines records on stderr
//!   with severity levels and a `TQ_LOG` environment filter;
//! * **metrics** ([`counter`]/[`gauge`]/[`histogram`]) — process-global
//!   monotonic counters, gauges and log₂ histograms behind cloneable
//!   atomic handles, exported as Prometheus-style text exposition
//!   ([`prometheus_text`]) together with any families the caller renders
//!   from counters it keeps itself;
//! * **a global on/off gate** ([`enabled`]/[`set_enabled`], initialised
//!   from the `TQ_OBS` environment variable) — when disabled, every
//!   instrumentation point degrades to one relaxed atomic load and a
//!   branch, a cost the `obs_overhead` bench guard in `tq-bench` bounds at
//!   well under 2% of replay throughput.
//!
//! Everything is bounded: span rings overwrite their oldest entries
//! (dropped spans are counted), logs of exited threads are folded into a
//! bounded retirement ring, and the metric registry only grows with the
//! number of *distinct metric names*, which is static in practice. A
//! long-running `tq-profd` daemon can therefore leave observability on
//! forever.

#![warn(missing_docs)]

pub mod chrome;
pub mod log;
pub mod metrics;
pub mod span;

pub use chrome::{chrome_trace, drain_chrome_trace};
pub use metrics::{counter, gauge, histogram, prometheus_text, Counter, Gauge, Histogram};
pub use span::{
    current_tid, drain_spans, dropped_spans, set_thread_name, span, span_named, thread_names,
    SpanEvent, SpanGuard,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tri-state gate: 0 = not yet initialised (consult `TQ_OBS`), 1 = on,
/// 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is live. The first call consults the `TQ_OBS`
/// environment variable (`0`, `off`, `false` or `no` disable; anything
/// else, including unset, enables) and caches the answer; [`set_enabled`]
/// overrides it at any time. This is the only check on the disabled fast
/// path — a relaxed load and a compare.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = !matches!(
        std::env::var("TQ_OBS").as_deref(),
        Ok("0") | Ok("off") | Ok("false") | Ok("no")
    );
    // A concurrent set_enabled wins: only replace the uninitialised state.
    let _ = STATE.compare_exchange(
        0,
        if on { 1 } else { 2 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 1
}

/// Force instrumentation on or off (e.g. the `--no-obs` CLI flag).
/// Overrides whatever `TQ_OBS` said.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Process epoch: all span timestamps are nanoseconds since the first
/// observation, which keeps them small and makes exported traces start
/// near t=0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch: the clock of span timestamps and
/// log records.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that toggle the global gate or drain the global span log must
    /// serialise against each other (the test harness runs them on
    /// concurrent threads).
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let _g = test_lock::hold();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
