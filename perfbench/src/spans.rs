//! The traced run's span recorder. Spans are recorded by the benchmark's
//! own code around each call into a crate's public API (never inside the
//! program), kept in memory, and written out as a Chrome trace file when
//! the run ends. A layer's self time is a span's duration minus the part
//! of it that its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root; `group` ties together the
/// spans of one pipeline run or one job; `track` is the thread of control
/// (pipeline or client) the span ran on.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub group: u64,
    pub track: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Recorder shared by every thread of a run. When off, [`Spans::span`]
/// only calls its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: u64,
        group: u64,
        track: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.done.lock().expect("span list lock").push(Span {
            id,
            parent,
            name: name.to_string(),
            group,
            track,
            start_ns,
            end_ns,
        });
        r
    }

    /// Every span recorded so far, in start order.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span list lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Layer attribution of a set of spans.
pub struct Attribution {
    /// Self seconds summed per span name, over non-root spans.
    pub self_s: BTreeMap<String, f64>,
    /// Span count per name.
    pub count: BTreeMap<String, u64>,
    /// Total duration of the root spans, in seconds.
    pub root_wall_s: f64,
    /// The smallest share of any root's duration that its descendants'
    /// self times cover (1.0 = fully attributed).
    pub coverage: f64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let self_ns = |s: &Span| -> u64 {
        let covered = children
            .get(&s.id)
            .map(|c| union_len(c.clone(), s.start_ns, s.end_ns))
            .unwrap_or(0);
        (s.end_ns - s.start_ns) - covered
    };
    let mut a = Attribution {
        self_s: BTreeMap::new(),
        count: BTreeMap::new(),
        root_wall_s: 0.0,
        coverage: 1.0,
    };
    for s in spans {
        if s.parent == 0 {
            let dur = (s.end_ns - s.start_ns).max(1);
            a.root_wall_s += dur as f64 / 1e9;
            a.coverage = a.coverage.min(1.0 - self_ns(s) as f64 / dur as f64);
        } else {
            *a.self_s.entry(s.name.clone()).or_default() += self_ns(s) as f64 / 1e9;
            *a.count.entry(s.name.clone()).or_default() += 1;
        }
    }
    if !spans.iter().any(|s| s.parent == 0) {
        a.coverage = 0.0;
    }
    a
}

/// Render spans as a Chrome trace-event file (load it in any trace
/// viewer that reads that format).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
                tq_report::Json::from(s.name.as_str()).render(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.track,
                s.id,
                s.parent,
                s.group
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Write `spans` to `.bench_out/<workload>-seed<seed>.trace.json` under
/// the working directory.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(path, chrome_json(spans))
}
