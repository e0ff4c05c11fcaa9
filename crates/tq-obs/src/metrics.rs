//! Process-global metrics: monotonic counters, gauges and log₂ histograms.
//!
//! Handles are cheap `Arc`-wrapped atomics: call sites register once (a
//! short registry lock) and update lock-free afterwards. A caller that
//! already keeps its own counters (a profd node's stats) passes them to
//! [`prometheus_text`] as [`Family`] values instead of registering a
//! second copy. The exposition is sorted by family name — byte-identical
//! for identical values, which keeps the `metrics` endpoint testable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log₂ histogram buckets; bucket `i` holds values in
/// `[2^i, 2^(i+1))` (bucket 0 also holds 0), the last is open-ended.
/// 28 buckets cover one nanosecond-to-minutes range in microseconds.
pub const HISTO_BUCKETS: usize = 28;

/// The bucket of `v` in a log₂ histogram: bucket `i` holds `[2^i, 2^(i+1))`,
/// bucket 0 also holds 0, and the last of [`HISTO_BUCKETS`] is open-ended.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(HISTO_BUCKETS - 1)
}

/// A monotonic counter. Clone freely; all clones share one cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one. A relaxed load and a branch while disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (queue depths,
/// resident bytes). Clone freely; all clones share one cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCells {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂ histogram of non-negative integer observations (typically
/// microseconds). Clone freely; all clones share the cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn value(&self) -> Value {
        match self {
            Metric::Counter(c) => Value::Counter(c.get()),
            Metric::Gauge(g) => Value::Gauge(g.get()),
            Metric::Histogram(h) => Value::Histogram(
                std::array::from_fn(|i| h.0.buckets[i].load(Ordering::Relaxed)),
                h.sum(),
            ),
        }
    }
}

/// A metric family's value at the moment it is rendered.
pub enum Value {
    /// A monotonic count.
    Counter(u64),
    /// A value that moves both ways.
    Gauge(i64),
    /// Per-bucket counts, indexed by [`log2_bucket`], and the sum of the
    /// observations.
    Histogram([u64; HISTO_BUCKETS], u64),
}

/// One metric family of the text exposition.
pub struct Family {
    /// Metric name (`# HELP`/`# TYPE` key and sample name).
    pub name: &'static str,
    /// One-line `# HELP` text.
    pub help: &'static str,
    /// Current value.
    pub value: Value,
}

impl Family {
    fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        let name = self.name;
        let _ = writeln!(out, "# HELP {name} {}", self.help);
        match &self.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
            }
            Value::Histogram(buckets, sum) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cumulative += b;
                    if i + 1 == HISTO_BUCKETS {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    } else {
                        // Bucket i holds integer values < 2^(i+1); the
                        // inclusive upper bound is 2^(i+1)-1.
                        let le = (1u64 << (i + 1)) - 1;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_sum {sum}\n{name}_count {cumulative}");
            }
        }
    }
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

static REGISTRY: Mutex<BTreeMap<&'static str, Entry>> = Mutex::new(BTreeMap::new());

fn registry() -> MutexGuard<'static, BTreeMap<&'static str, Entry>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Register (or fetch) the counter `name`. Registration is idempotent:
/// every call site for one name shares the same cell.
///
/// Panics if `name` is already registered as a different metric kind —
/// that is a programming error, not an operational condition.
pub fn counter(name: &'static str, help: &'static str) -> Counter {
    let mut reg = registry();
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))),
    });
    match &entry.metric {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) the gauge `name`. See [`counter`] for semantics.
pub fn gauge(name: &'static str, help: &'static str) -> Gauge {
    let mut reg = registry();
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))),
    });
    match &entry.metric {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) the histogram `name`. See [`counter`] for semantics.
pub fn histogram(name: &'static str, help: &'static str) -> Histogram {
    let mut reg = registry();
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Histogram(Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))),
    });
    match &entry.metric {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Render `families` together with every registered metric as
/// Prometheus-style text exposition (`# HELP` / `# TYPE` comments,
/// `_bucket{le="…"}` cumulative histogram lines), one writer for both and
/// sorted by name. Includes `tq_obs_spans_dropped_total`, the layer's own
/// loss counter.
pub fn prometheus_text(mut families: Vec<Family>) -> String {
    families.extend(registry().iter().map(|(&name, entry)| Family {
        name,
        help: entry.help,
        value: entry.metric.value(),
    }));
    families.push(Family {
        name: "tq_obs_spans_dropped_total",
        help: "Span events lost to ring-buffer overwrites",
        value: Value::Counter(crate::span::dropped_spans()),
    });
    families.sort_by_key(|f| f.name);
    let mut out = String::new();
    for family in &families {
        family.write(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counters_share_cells_by_name() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let a = counter("test_shared_total", "shared cell");
        let b = counter("test_shared_total", "shared cell");
        let before = a.get();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), before + 3);
    }

    #[test]
    fn disabled_metrics_do_not_move() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let c = counter("test_gated_total", "gated");
        let g = gauge("test_gated_gauge", "gated");
        let h = histogram("test_gated_histo", "gated");
        let (c0, g0, h0) = (c.get(), g.get(), h.count());
        crate::set_enabled(false);
        c.inc();
        g.set(99);
        h.observe(5);
        crate::set_enabled(true);
        assert_eq!((c.get(), g.get(), h.count()), (c0, g0, h0));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let h = histogram("test_histo_micros", "log2 test");
        for v in [0, 1, 2, 3, 4, 1 << 20, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        let text = prometheus_text(Vec::new());
        // Values 0 and 1 land in bucket 0 (le="1"); 2 and 3 raise the
        // cumulative le="3" line to 4.
        assert!(text.contains("test_histo_micros_bucket{le=\"1\"} 2"));
        assert!(text.contains("test_histo_micros_bucket{le=\"3\"} 4"));
        assert!(text.contains("test_histo_micros_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("test_histo_micros_count 7"));
    }

    #[test]
    fn exposition_format_shape() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let c = counter("test_expo_total", "an example counter");
        c.add(5);
        gauge("test_expo_gauge", "an example gauge").set(-3);
        let text = prometheus_text(Vec::new());
        assert!(text.contains("# HELP test_expo_total an example counter"));
        assert!(text.contains("# TYPE test_expo_total counter"));
        assert!(text.contains("# TYPE test_expo_gauge gauge"));
        assert!(text.contains("test_expo_gauge -3"));
        assert!(text.contains("tq_obs_spans_dropped_total"));
        // Sorted by name: the gauge section precedes the counter section
        // ("test_expo_gauge" < "test_expo_total" lexicographically).
        let gpos = text.find("# TYPE test_expo_gauge").unwrap();
        let cpos = text.find("# TYPE test_expo_total").unwrap();
        assert!(gpos < cpos);
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<i64>().is_ok() || value.parse::<f64>().is_ok(),
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn caller_families_share_the_writer_and_the_sort() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let h = histogram("test_writer_a_micros", "registered");
        let mut buckets = [0; HISTO_BUCKETS];
        for v in [0, 3, 900, u64::MAX] {
            h.observe(v);
            buckets[log2_bucket(v)] += 1;
        }
        let sum = 903u64.wrapping_add(u64::MAX);
        let text = prometheus_text(vec![
            Family {
                name: "test_writer_b_micros",
                help: "registered",
                value: Value::Histogram(buckets, sum),
            },
            Family {
                name: "test_writer_0_gauge",
                help: "first by name",
                value: Value::Gauge(-2),
            },
        ]);
        let section = |name: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains(name))
                .map(|l| l.replace(name, "X"))
                .collect()
        };
        assert_eq!(
            section("test_writer_a_micros"),
            section("test_writer_b_micros")
        );
        let pos = |needle: &str| text.find(needle).unwrap();
        assert!(
            pos("# TYPE test_writer_0_gauge gauge\ntest_writer_0_gauge -2") < pos("test_writer_a")
        );
        assert!(pos("test_writer_a") < pos("test_writer_b"));
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted, each once");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _c = counter("test_kind_clash", "first as counter");
        let _g = gauge("test_kind_clash", "then as gauge");
    }
}
