//! The repository's benchmark: three workloads that cross the layers of
//! the tQUAD reproduction, timed from outside through each crate's public
//! API.
//!
//! ```text
//! tq-perfbench --workload wfs_paper|wfs_capture|profd_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! traced run that breaks the workload down by crate. Either way the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this crate.

mod host;
mod profd;
mod spans;
mod wfs;

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not cross a layer reports 0 for it and says so in its notes.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tq-wfs.build_ms", "ms"),
    ("tq-imgproc.build_ms", "ms"),
    ("tq-vm.bare_ns_per_inst", "ns/inst"),
    ("tq-vm.bare_minst_s", "Minst/s"),
    ("tq-vm.event_ns_per_event", "ns/event"),
    ("tq-vm.instructions", "count"),
    ("tq-vm.events", "count"),
    ("tq-vm.block_execs", "count"),
    ("tq-vm.blocks_fused", "count"),
    ("tq-tquad.live_ns_per_event", "ns/event"),
    ("tq-tquad.replay_ns_per_event", "ns/event"),
    ("tq-tquad.phases_ms", "ms"),
    ("tq-tquad.slices", "count"),
    ("tq-quad.replay_ns_per_event", "ns/event"),
    ("tq-gprof.replay_ns_per_event", "ns/event"),
    ("tq-trace.record_ns_per_event", "ns/event"),
    ("tq-trace.index_ms", "ms"),
    ("tq-trace.open_ms", "ms"),
    ("tq-trace.encode_ns_per_event", "ns/event"),
    ("tq-trace.encode_pct_of_memcpy", "%"),
    ("tq-trace.replay_ns_per_event", "ns/event"),
    ("tq-trace.replay_pct_of_memcpy", "%"),
    ("tq-trace.sharded_speedup", "x"),
    ("tq-trace.capture_bytes", "B"),
    ("tq-trace.capture_bytes_per_event", "B/event"),
    ("tq-report.render_ms", "ms"),
    ("tq-report.parse_ms", "ms"),
    ("tq-profd.run_tool_ms.tquad", "ms"),
    ("tq-profd.run_tool_ms.quad", "ms"),
    ("tq-profd.run_tool_ms.gprof", "ms"),
    ("tq-profd.run_tool_ms.phases", "ms"),
    ("tq-profd.server_job_ms.tquad", "ms"),
    ("tq-profd.server_job_ms.quad", "ms"),
    ("tq-profd.server_job_ms.gprof", "ms"),
    ("tq-profd.server_job_ms.phases", "ms"),
    ("tq-profd.queue_wire_ms", "ms"),
    ("tq-profd.hit_ms", "ms"),
    ("tq-profd.memo_hit_ratio", "1"),
    ("tq-profd.capture_hit_ratio", "1"),
    ("tq-profd.vm_runs", "count"),
    ("tq-profd.rejects", "count"),
    ("tq-profd.retries", "count"),
    ("tq-profd.reduced_jobs", "count"),
    ("tq-profd.events_replayed", "count"),
    ("tq-fleet.peek_fetches", "count"),
    ("tq-fleet.peek_ms", "ms"),
    ("tq-fleet.remote_owned_jobs", "count"),
    ("tq-fleet.redirects", "count"),
    ("tq-fleet.placement_tries", "count"),
    ("host.memcpy_gb_s", "GB/s"),
    ("bench.coverage_pct", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.tracing_overhead_s", "s"),
];

/// Share of traced wall time the layer spans must cover.
pub const COVERAGE_FLOOR: f64 = 0.90;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: timed pipeline runs or jobs, plus checks.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Count one correctness check; a failure is counted and explained.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Benchmark arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tq-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "wfs_paper" => wfs::paper(&args, &mut report),
        "wfs_capture" => wfs::capture(&args, &mut report),
        "profd_mix" => profd::mix(&args, &mut report),
        other => {
            eprintln!("tq-perfbench: unknown workload {other} (wfs_paper|wfs_capture|profd_mix)");
            std::process::exit(2);
        }
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut lines = Vec::new();
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match report.values.get(*name).copied() {
            Some(v) => {
                report.check(v.is_finite(), || format!("{name} is not a number ({v})"));
                lines.push(format!("{name:<34} {v:>16.6} {unit}"));
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            }
            None => {
                lines.push(format!(
                    "{name:<34} n/a (layer not crossed by {})",
                    args.workload
                ));
                0.0
            }
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            tq_report::Json::from(*name).render(),
            tq_report::Json::from(*unit).render()
        ));
    }
    println!(
        "--- {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in report.notes.iter().chain(&lines) {
        println!("  {line}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "  failed_share {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
