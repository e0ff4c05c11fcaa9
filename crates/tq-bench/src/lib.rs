//! # tq-bench — experiment harness for the tQUAD reproduction
//!
//! `repro_paper` regenerates Tables I–IV and Figures 6–7 of the paper in
//! one pass; `repro_overhead` (§V.A), `repro_slices` (§V.B) and
//! `repro_second_app` cover the rest (see the per-experiment index in
//! `DESIGN.md`). Plain timing benches ([`bench()`], `benches/*.rs` with
//! `harness = false`) back the performance claims and the design-choice
//! ablations. Binaries print the paper-shaped rows/series to stdout and
//! drop machine-readable copies under `results/`.
//!
//! All experiments default to [`tq_wfs::WfsConfig::paper_scaled`]; set
//! `TQ_SCALE=small` or `TQ_SCALE=tiny` to shrink them (CI smoke runs).

use std::env::VarError;
use std::path::PathBuf;
use tq_profd::Scale;
use tq_wfs::WfsApp;

/// The scale named by the `TQ_SCALE` environment variable (`tiny`,
/// `small` or `paper`; unset means paper). Any other value prints the
/// parse error and exits with status 1, so a typo never starts a
/// paper-scale run.
pub fn scale() -> Scale {
    parse_scale(std::env::var("TQ_SCALE")).unwrap_or_else(|e| {
        eprintln!("TQ_SCALE: {e}");
        std::process::exit(1)
    })
}

fn parse_scale(var: Result<String, VarError>) -> Result<Scale, String> {
    match var {
        Err(VarError::NotPresent) => Ok(Scale::Paper),
        Err(e) => Err(e.to_string()),
        Ok(v) => Scale::parse(&v),
    }
}

/// Build the wfs app at the [`scale()`] `TQ_SCALE` selects (fixed seed:
/// experiments are deterministic).
pub fn scale_app() -> WfsApp {
    WfsApp::build(scale().wfs_config())
}

/// Directory for machine-readable experiment outputs (`results/` at the
/// workspace root), created on demand.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write an experiment artifact to `results/<name>` and note it on stdout.
pub fn save(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result");
    println!("[saved {}]", path.display());
}

/// Banner with the experiment id and the wfs workload in use.
pub fn banner(what: &str) {
    let c = scale().wfs_config();
    println!("=== {what} ===");
    println!(
        "workload: {} speakers, fft {}, chunk {}, {} chunks, {} trajectory points ({} samples)",
        c.n_speakers,
        c.fft_size,
        c.chunk_len,
        c.n_chunks,
        c.n_points,
        c.n_samples()
    );
    println!();
}

/// Nanoseconds this thread has spent *executing on a CPU*, from
/// `/proc/self/schedstat` (first field). `None` off Linux or when the
/// kernel lacks schedstats.
fn sched_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Timer for speedup-*ratio* guards: prefers on-CPU time over wall time.
///
/// The verify gates compare two measured durations and assert a floor on
/// their ratio. On a loaded single-core box, wall clock charges whichever
/// side happens to be preempted, flaking the ratio in both directions;
/// on-CPU time (ns-resolution via schedstat) does not advance while the
/// bench is sitting on the runqueue, so guest-side load cancels out of
/// the ratio. Falls back to wall clock when schedstat is unavailable.
/// Only meaningful around single-threaded sections (schedstat is
/// per-task).
pub struct GuardTimer {
    cpu0: Option<u64>,
    wall0: std::time::Instant,
}

impl GuardTimer {
    /// Start timing.
    pub fn start() -> GuardTimer {
        GuardTimer {
            cpu0: sched_cpu_ns(),
            wall0: std::time::Instant::now(),
        }
    }

    /// On-CPU (preferred) or wall-clock time since `start`.
    pub fn elapsed(&self) -> std::time::Duration {
        if let (Some(a), Some(b)) = (self.cpu0, sched_cpu_ns()) {
            if b > a {
                return std::time::Duration::from_nanos(b - a);
            }
        }
        self.wall0.elapsed()
    }
}

/// Minimal timing harness for the `benches/*.rs` entry points (the
/// workspace builds with zero external crates, so Criterion is out).
/// Runs `f` for a warmup round, then measures `iters` timed rounds and
/// prints min/median/mean wall-clock per round. `TQ_BENCH_ITERS`
/// overrides the round count (CI smoke runs use 1).
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let iters: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    std::hint::black_box(f()); // warmup
    let mut samples: Vec<std::time::Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed());
    }
    samples.sort();
    let total: std::time::Duration = samples.iter().sum();
    println!(
        "{name}: min {:?}  median {:?}  mean {:?}  ({} iters)",
        samples[0],
        samples[samples.len() / 2],
        total / samples.len() as u32,
        samples.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        std::env::set_var("TQ_BENCH_ITERS", "2");
        let mut calls = 0u32;
        bench("noop", || calls += 1);
        std::env::remove_var("TQ_BENCH_ITERS");
        assert_eq!(calls, 3, "warmup + 2 timed rounds");
    }

    #[test]
    fn guard_timer_reports_positive_time() {
        let t = GuardTimer::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(t.elapsed() > std::time::Duration::ZERO);
    }

    #[test]
    fn default_scale_is_paper() {
        assert_eq!(parse_scale(Err(VarError::NotPresent)), Ok(Scale::Paper));
        assert_eq!(Scale::Paper.wfs_config(), tq_wfs::WfsConfig::paper_scaled());
    }

    #[test]
    fn tq_scale_parses_strictly() {
        for s in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(parse_scale(Ok(s.as_str().into())), Ok(s));
        }
        for typo in ["smal", "", "Tiny", " tiny"] {
            let err = parse_scale(Ok(typo.into())).unwrap_err();
            assert!(err.contains("unknown scale"), "{typo:?}: {err}");
        }
        let not_unicode = VarError::NotUnicode(std::ffi::OsString::from("tiny"));
        assert!(parse_scale(Err(not_unicode)).is_err());
    }
}
