//! Span timers and the per-thread event log.
//!
//! A [`SpanGuard`] measures the wall-clock time between its creation and
//! its drop and appends one [`SpanEvent`] to the *recording thread's* ring
//! buffer. Rings are lock-free in spirit: each is a mutex touched only by
//! its owning thread on the write side, so there is no cross-thread
//! contention on the hot path — exporters take the locks briefly when
//! draining. Rings are bounded ([`RING_CAP`] events, oldest overwritten,
//! drops counted), and the logs of exited threads are folded into one
//! bounded retirement ring, so memory stays O(threads + caps) no matter
//! how long the process runs or how many shard workers come and go.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-thread ring capacity, in span events.
pub const RING_CAP: usize = 8192;
/// Retirement ring capacity (events inherited from exited threads).
pub const RETIRED_CAP: usize = 65536;
/// Live thread logs kept before dead ones are folded into the retirement
/// ring (a sharded replay retires its worker threads at every call, so
/// a long-running daemon would otherwise accumulate logs forever).
const MAX_LIVE_LOGS: usize = 64;
/// Thread-name labels kept; oldest tids are pruned past this.
const MAX_THREAD_NAMES: usize = 1024;

/// One completed span, as drained by an exporter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static for fixed instrumentation points, owned for
    /// dynamic ones such as `shard-3` or routine names).
    pub name: Cow<'static, str>,
    /// Category (Chrome's `cat` field) — groups related spans in the UI.
    pub cat: &'static str,
    /// Track id: a small process-unique id of the recording thread.
    pub tid: u64,
    /// Start time, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct ThreadLog {
    tid: u64,
    ring: Mutex<VecDeque<SpanEvent>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static THREADS: Mutex<Vec<Arc<ThreadLog>>> = Mutex::new(Vec::new());
static RETIRED: Mutex<VecDeque<SpanEvent>> = Mutex::new(VecDeque::new());
static NAMES: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

thread_local! {
    static LOG: Arc<ThreadLog> = register_thread();
}

fn register_thread() -> Arc<ThreadLog> {
    let log = Arc::new(ThreadLog {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ring: Mutex::new(VecDeque::new()),
    });
    let mut threads = lock(&THREADS);
    threads.push(Arc::clone(&log));
    if threads.len() > MAX_LIVE_LOGS {
        retire_dead(&mut threads);
    }
    log
}

/// Fold the rings of exited threads (strong count 1: only the registry
/// still holds them) into the bounded retirement ring.
fn retire_dead(threads: &mut Vec<Arc<ThreadLog>>) {
    let mut retired = lock(&RETIRED);
    threads.retain(|t| {
        if Arc::strong_count(t) > 1 {
            return true;
        }
        let mut ring = lock(&t.ring);
        for ev in ring.drain(..) {
            if retired.len() >= RETIRED_CAP {
                retired.pop_front();
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
            retired.push_back(ev);
        }
        false
    });
}

fn record(ev: SpanEvent) {
    LOG.with(|log| {
        let mut ring = lock(&log.ring);
        if ring.len() >= RING_CAP {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    });
}

/// The calling thread's track id (registers the thread on first use).
pub fn current_tid() -> u64 {
    LOG.with(|log| log.tid)
}

/// Label the calling thread's track in exported traces (Chrome's
/// `thread_name` metadata). A no-op while disabled.
pub fn set_thread_name(name: impl Into<String>) {
    if !crate::enabled() {
        return;
    }
    let tid = current_tid();
    let mut names = lock(&NAMES);
    names.insert(tid, name.into());
    while names.len() > MAX_THREAD_NAMES {
        let Some((&oldest, _)) = names.iter().next() else {
            break;
        };
        names.remove(&oldest);
    }
}

/// Snapshot of the thread-name labels (tid → name).
pub fn thread_names() -> BTreeMap<u64, String> {
    lock(&NAMES).clone()
}

/// Spans lost to ring overwrites since the process started.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An in-flight span; records its event when dropped. Inert (no clock
/// reads, no allocation for static names) while observability is disabled.
#[must_use = "a span measures the scope it is bound to; an unbound guard drops immediately"]
pub struct SpanGuard {
    /// `None` when instrumentation was disabled at creation.
    name: Option<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
}

impl SpanGuard {
    fn new(name: Option<Cow<'static, str>>, cat: &'static str) -> SpanGuard {
        let start_ns = if name.is_some() { crate::now_ns() } else { 0 };
        SpanGuard {
            name,
            cat,
            start_ns,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let end = crate::now_ns();
            record(SpanEvent {
                name,
                cat: self.cat,
                tid: current_tid(),
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
            });
        }
    }
}

/// Open a span with a static name. The usual form for fixed
/// instrumentation points (`span("replay", "replay")`).
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if crate::enabled() {
        SpanGuard::new(Some(Cow::Borrowed(name)), cat)
    } else {
        SpanGuard::new(None, cat)
    }
}

/// Open a span with a computed name (shard indices, routine names…). The
/// name is only materialised when observability is enabled, so call sites
/// may pass `format!(…)` results without paying for them while disabled —
/// prefer `span_named(|| format!(…), cat)`-style laziness at the caller by
/// guarding on [`crate::enabled`] when the formatting itself is hot.
#[inline]
pub fn span_named(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    if crate::enabled() {
        SpanGuard::new(Some(Cow::Owned(name.into())), cat)
    } else {
        SpanGuard::new(None, cat)
    }
}

/// Drain every recorded span (live rings and the retirement ring), sorted
/// by start time then track id. The log is empty afterwards; exporters
/// call this exactly once per report.
pub fn drain_spans() -> Vec<SpanEvent> {
    let mut out: Vec<SpanEvent> = lock(&RETIRED).drain(..).collect();
    let threads = lock(&THREADS);
    for t in threads.iter() {
        out.extend(lock(&t.ring).drain(..));
    }
    drop(threads);
    out.sort_by_key(|e| (e.start_ns, e.tid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn spans_record_name_track_and_duration() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        drain_spans();
        {
            let _outer = span("outer", "test");
            let _inner = span_named(format!("inner-{}", 7), "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let evs = drain_spans();
        let outer = evs.iter().find(|e| e.name == "outer").expect("outer");
        let inner = evs.iter().find(|e| e.name == "inner-7").expect("inner");
        assert_eq!(outer.cat, "test");
        assert_eq!(outer.tid, inner.tid, "same thread, same track");
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
        assert!(outer.dur_ns >= 1_000_000, "slept ≥ 1ms");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        drain_spans();
        crate::set_enabled(false);
        {
            let _s = span("ghost", "test");
            let _d = span_named(String::from("ghost-dyn"), "test");
        }
        crate::set_enabled(true);
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn worker_threads_get_distinct_tracks_and_survive_exit() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        drain_spans();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    set_thread_name(format!("worker-{i}"));
                    let _s = span_named(format!("work-{i}"), "test");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let evs = drain_spans();
        let tids: std::collections::BTreeSet<u64> = evs
            .iter()
            .filter(|e| e.name.starts_with("work-"))
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 3, "one track per worker thread");
        let names = thread_names();
        assert!(tids.iter().all(|t| names.get(t).is_some()));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        drain_spans();
        let before = dropped_spans();
        for i in 0..(RING_CAP + 10) {
            let _s = span_named(format!("s{i}"), "test");
        }
        let evs = drain_spans();
        assert_eq!(evs.len(), RING_CAP);
        assert!(dropped_spans() >= before + 10);
        // The survivors are the newest spans.
        assert!(evs.iter().all(|e| e.name != "s0"));
    }

    #[test]
    fn drained_spans_are_sorted_by_start() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        drain_spans();
        for _ in 0..50 {
            let _s = span("tick", "test");
        }
        let evs = drain_spans();
        assert!(evs.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
