//! Guard bench for the reduced-instrumentation modes (`--instr`): measures
//! what each mode saves and what it costs in accuracy, per workload, and
//! holds both claims (see `docs/ACCURACY.md` for the methodology).
//!
//! For each workload (wfs small, imgproc tiny, a kernelc streaming mix)
//! the bench times `vm.run()` (on-CPU time via [`GuardTimer`], so
//! guest-side preemption cancels out of the speedup ratios) with the
//! tQUAD tool attached under:
//!
//! * **full** — every memory event instrumented (baseline);
//! * **filter:\*** — the all-routines filter, which must be a no-op:
//!   the resulting profile is asserted *identical* to full;
//! * **sample:8/5000@0** — every 8th gating slice live.
//!
//! Accuracy metric: for every kernel carrying at least 1% of the full
//! run's traffic, the relative error of its reconstructed mean bandwidth
//! over active slices (read+write B/instr, stack included — the Table IV
//! "avg" columns) against the exact full-instrumentation value; the
//! per-(workload, mode) maximum lands in the TSV.
//!
//! The **guards** checked by `scripts/verify.sh`:
//! * `filter:*` produces the byte-identical profile on every workload;
//! * sample cuts instrumented wall-time by at least 1.3x vs full
//!   (geometric mean across workloads; best-of-N walls with iterations
//!   interleaved across modes so load bursts cannot bias the ratio);
//! * the max per-kernel bandwidth error stays under the documented
//!   0.25 bound.
//!
//! Results land in `results/instr_accuracy.tsv`, headed by the host's CPU
//! model and core count.

use std::time::Duration;
use tq_bench::{save, GuardTimer};
use tq_imgproc::{ImgApp, ImgConfig};
use tq_kernelc::dsl::*;
use tq_kernelc::{compile, ElemTy, Function, GlobalInit, Module};
use tq_tquad::{TquadOptions, TquadProfile, TquadTool};
use tq_vm::{InstrMode, Vm};
use tq_wfs::{WfsApp, WfsConfig};

/// Wall-time reduction floor for sample vs full (geometric mean across
/// workloads) — the acceptance criterion in `verify.sh`.
const SPEEDUP_FLOOR: f64 = 1.3;

/// Documented max per-kernel bandwidth error bound (docs/ACCURACY.md).
const SAMPLE_ERR_BOUND: f64 = 0.25;

/// Gating-slice length and tQUAD slice interval (kept equal so one gating
/// slice maps onto one tool slice).
const SLICE: u64 = 5_000;

/// Kernels below this share of total full-run traffic are excluded from
/// the relative-error maximum (relative error on near-zero denominators
/// is noise, not signal; the TSV still reports overall coverage).
const TRAFFIC_SHARE_FLOOR: f64 = 0.01;

/// A steady multi-kernel streaming mix: three kernels with distinct
/// bandwidth signatures, interleaved at sub-slice granularity so every
/// gating slice sees the same blend.
fn kernelc_stream() -> Vm {
    let mut m = Module::new("stream_mix");
    m.global("a", ElemTy::F64, 64, GlobalInit::Zero);
    m.global("b", ElemTy::F64, 64, GlobalInit::Zero);
    m.global("out", ElemTy::F64, 1, GlobalInit::Zero);

    // fill: write-heavy; scale: read+write; reduce: read-heavy. One round
    // of the three is a few hundred instructions — far below the gating
    // slice — so every slice sees the same steady blend.
    m.func(Function::new("fill").body(vec![for_(
        "i",
        ci(0),
        ci(16),
        vec![stf(ga("a"), v("i"), i2f(v("i")))],
    )]));
    m.func(Function::new("scale").body(vec![for_(
        "i",
        ci(0),
        ci(16),
        vec![stf(ga("b"), v("i"), mul(ldf(ga("a"), v("i")), cf(1.5)))],
    )]));
    m.func(Function::new("reduce").body(vec![
        letf("acc", cf(0.0)),
        for_(
            "i",
            ci(0),
            ci(16),
            vec![set("acc", add(v("acc"), ldf(ga("b"), v("i"))))],
        ),
        stf(ga("out"), ci(0), v("acc")),
    ]));
    m.func(Function::new("main").body(vec![for_(
        "r",
        ci(0),
        ci(4000),
        vec![
            call("fill", vec![]),
            call("scale", vec![]),
            call("reduce", vec![]),
        ],
    )]));
    let compiled = compile(&m).expect("stream mix compiles");
    Vm::new(compiled.program).expect("stream mix loads")
}

struct Workload {
    name: &'static str,
    make_vm: Box<dyn Fn() -> Vm>,
}

fn workloads() -> Vec<Workload> {
    let wfs = WfsApp::build(WfsConfig::small());
    let img = ImgApp::build(ImgConfig::tiny());
    vec![
        Workload {
            name: "wfs_small",
            make_vm: Box::new(move || wfs.make_vm()),
        },
        Workload {
            name: "img_tiny",
            make_vm: Box::new(move || img.make_vm()),
        },
        Workload {
            name: "kernelc_stream",
            make_vm: Box::new(kernelc_stream),
        },
    ]
}

struct Run {
    wall: Duration,
    profile: TquadProfile,
}

/// One run under `mode` (`None` = full); only `vm.run()` is timed.
fn run_once(w: &Workload, mode: Option<&InstrMode>) -> Run {
    let mut vm = (w.make_vm)();
    if let Some(m) = mode {
        vm.set_instr_mode(m.clone()).expect("mode accepted");
    }
    let h = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(SLICE),
    )));
    let t0 = GuardTimer::start();
    vm.run(None).expect("runs");
    let wall = t0.elapsed();
    let profile = vm
        .detach_tool::<TquadTool>(h)
        .expect("tool detaches")
        .into_profile();
    Run { wall, profile }
}

/// Best-of-N wall clocks for the timed configurations. Iterations are
/// interleaved round-robin across the modes so a background-load burst
/// inflates every mode's round equally instead of biasing whichever mode
/// owned the timer when it hit — the guard is a wall-clock *ratio*, and
/// sequential per-mode loops flake it both ways on a loaded single-core
/// box. Profiles are identical across reps (the VM is deterministic), so
/// each slot keeps its first.
fn best_of_interleaved(w: &Workload, modes: &[Option<&InstrMode>], iters: usize) -> Vec<Run> {
    let mut best: Vec<Option<Run>> = modes.iter().map(|_| None).collect();
    for _ in 0..iters {
        for (ci, mode) in modes.iter().enumerate() {
            let r = run_once(w, *mode);
            match &mut best[ci] {
                None => best[ci] = Some(r),
                Some(b) => {
                    if r.wall < b.wall {
                        b.wall = r.wall;
                    }
                }
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("at least one iteration"))
        .collect()
}

/// Max relative error of reconstructed per-kernel mean bandwidth (the
/// Table IV avg read+write B/instr over active slices, stack included)
/// vs full, over kernels carrying at least `TRAFFIC_SHARE_FLOOR` of full
/// traffic. A kernel the reconstruction lost entirely counts as 100%.
fn max_kernel_error(full: &TquadProfile, recon: &TquadProfile) -> f64 {
    let grand: u64 = full
        .kernels
        .iter()
        .map(|k| {
            let (r, w) = k.series.totals(true);
            r + w
        })
        .sum();
    let mut max_err = 0.0f64;
    for fk in &full.kernels {
        let (fr, fw) = fk.series.totals(true);
        if ((fr + fw) as f64) < TRAFFIC_SHARE_FLOOR * grand as f64 {
            continue;
        }
        let Some(fs) = full.stats(fk, true) else {
            continue;
        };
        let f_bpi = fs.avg_read_bpi + fs.avg_write_bpi;
        let r_bpi = recon
            .kernel(&fk.name)
            .and_then(|rk| recon.stats(rk, true))
            .map(|rs| rs.avg_read_bpi + rs.avg_write_bpi)
            .unwrap_or(0.0);
        let err = (r_bpi - f_bpi).abs() / f_bpi;
        max_err = max_err.max(err);
    }
    max_err
}

/// `cpu=<model> cores=<n>`: the CPU model from `/proc/cpuinfo` where the
/// kernel exposes it, so the TSV says which host its timings come from.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("cpu={model} cores={cores}")
}

fn main() {
    let iters: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let sample: InstrMode = InstrMode::parse(&format!("sample:8/{SLICE}@0")).expect("spec");
    let filter_all: InstrMode = InstrMode::parse("filter:*").expect("spec");

    println!("instr_accuracy: best of {iters}, tquad interval {SLICE}, vm.run() only");
    let mut tsv = format!(
        "# {}\nworkload\tmode\twall_s\tspeedup\tcoverage_ppm\tmax_kernel_err\tfilled_slices\tmeasured_slices\n",
        host()
    );
    let mut speedups = Vec::new();
    let mut max_err = 0.0f64;

    for w in workloads() {
        let mut runs = best_of_interleaved(&w, &[None, Some(&sample)], iters).into_iter();
        let full = runs.next().expect("full run");
        assert!(full.profile.instr.is_none(), "full profile must be exact");

        // filter:* must be a no-op: identical profile, not "close".
        let filt = run_once(&w, Some(&filter_all));
        assert_eq!(
            filt.profile, full.profile,
            "{}: filter:* diverged from full",
            w.name
        );

        tsv.push_str(&format!(
            "{}\tfull\t{:.6}\t1.000\t1000000\t0.000000\t0\t0\n",
            w.name,
            full.wall.as_secs_f64()
        ));

        let r = runs.next().expect("sample run");
        let note = r
            .profile
            .instr
            .as_ref()
            .unwrap_or_else(|| panic!("{}: sample profile lacks a recon note", w.name));
        let speedup = full.wall.as_secs_f64() / r.wall.as_secs_f64();
        let err = max_kernel_error(&full.profile, &r.profile);
        println!(
            "  {:<14} sample wall {:>9.4}s  speedup {speedup:>5.2}x  coverage {:>5.1}%  max kernel err {:>6.2}%",
            w.name,
            r.wall.as_secs_f64(),
            note.coverage() * 100.0,
            err * 100.0,
        );
        tsv.push_str(&format!(
            "{}\tsample\t{:.6}\t{speedup:.3}\t{}\t{err:.6}\t{}\t{}\n",
            w.name,
            r.wall.as_secs_f64(),
            note.coverage_ppm,
            note.filled_slices,
            note.measured_slices,
        ));
        speedups.push(speedup);
        max_err = max_err.max(err);
    }

    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("  geomean speedup: sample {geomean:.2}x (floor {SPEEDUP_FLOOR}x)");
    println!(
        "  max kernel err: sample {:.2}% (bound {:.0}%)",
        max_err * 100.0,
        SAMPLE_ERR_BOUND * 100.0,
    );
    tsv.push_str(&format!(
        "# sample_geomean_speedup={geomean:.3} floor={SPEEDUP_FLOOR}\n\
         # sample_max_err={max_err:.6} bound={SAMPLE_ERR_BOUND}\n"
    ));
    save("instr_accuracy.tsv", &tsv);

    assert!(
        geomean >= SPEEDUP_FLOOR,
        "sample geomean speedup {geomean:.2}x is below the {SPEEDUP_FLOOR}x floor"
    );
    assert!(
        max_err <= SAMPLE_ERR_BOUND,
        "sample max kernel error {max_err:.4} exceeds the {SAMPLE_ERR_BOUND} bound"
    );
    println!("  guard: PASS");
}
