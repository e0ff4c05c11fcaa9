//! Cross-crate contracts of the reduced-instrumentation modes (`--instr`):
//! exactness where exactness is promised, bounded error where it is not.
//! The documented bounds live in `docs/ACCURACY.md`; the workload-scale
//! measurements behind them in `benches/instr_accuracy.rs`.

use tquad_suite::gprof::{GprofOptions, GprofTool};
use tquad_suite::kernelc::dsl::*;
use tquad_suite::kernelc::{compile, ElemTy, Function, GlobalInit, Module};
use tquad_suite::tquad::{TquadOptions, TquadProfile, TquadTool};
use tquad_suite::trace::TraceRecorder;
use tquad_suite::vm::{InstrEmulator, InstrMode, Vm};
use tquad_suite::wfs::{WfsApp, WfsConfig};

/// Documented max per-kernel mean-bandwidth error bound for sampling
/// (docs/ACCURACY.md; measured headroom in `results/instr_accuracy.tsv`).
const SAMPLE_ERR_BOUND: f64 = 0.25;

fn tquad_profile(mut vm: Vm, interval: u64, mode: Option<&str>) -> TquadProfile {
    if let Some(spec) = mode {
        vm.set_instr_mode(InstrMode::parse(spec).expect("spec parses"))
            .expect("mode accepted");
    }
    let h = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(interval),
    )));
    vm.run(None).expect("runs");
    vm.detach_tool::<TquadTool>(h)
        .expect("tool detaches")
        .into_profile()
}

#[test]
fn all_routines_filter_records_the_byte_identical_capture() {
    let app = WfsApp::build(WfsConfig::tiny());
    let digest_under = |mode: Option<&str>| {
        let mut vm = app.make_vm();
        if let Some(spec) = mode {
            vm.set_instr_mode(InstrMode::parse(spec).expect("spec parses"))
                .expect("mode accepted");
        }
        let h = vm.attach_tool(Box::new(TraceRecorder::new()));
        vm.run(None).expect("runs");
        vm.detach_tool::<TraceRecorder>(h)
            .expect("recorder detaches")
            .into_trace()
            .digest()
    };
    let full = digest_under(None);
    assert_eq!(
        digest_under(Some("filter:*")),
        full,
        "filter:* must be indistinguishable from full instrumentation"
    );
    // A real exclusion is NOT a no-op — otherwise the check above proves
    // nothing.
    assert_ne!(digest_under(Some("filter:!fft1d")), full);
}

/// The gate is a pure function of the instrumented event stream, so
/// emulating a reduced mode over a full capture must land on the exact
/// profile a live gated run produces — the contract that lets tq-profd
/// keep one shared full capture per program and emulate every reduced
/// job variant at replay time.
#[test]
fn live_gated_run_matches_gate_emulation_over_the_full_capture() {
    let app = WfsApp::build(WfsConfig::tiny());
    let trace = {
        let mut vm = app.make_vm();
        let h = vm.attach_tool(Box::new(TraceRecorder::new()));
        vm.run(None).expect("runs");
        vm.detach_tool::<TraceRecorder>(h)
            .expect("recorder detaches")
            .into_trace()
    };
    let spec = "sample:3/2000@1";
    let live = tquad_profile(app.make_vm(), 2000, Some(spec));
    let mode = InstrMode::parse(spec).expect("spec parses");
    let canonical = mode.to_string();
    let mut emu = InstrEmulator::new(
        TquadTool::new(TquadOptions::default().with_interval(2000)),
        mode,
    );
    trace.replay(&mut emu).expect("replays");
    let emulated = emu.finish().expect("emulation succeeds").into_profile();
    assert_eq!(live, emulated, "{spec}: live gating != emulated gating");
    assert_eq!(
        live.instr.as_ref().map(|n| n.spec.as_str()),
        Some(canonical.as_str()),
        "{spec}: recon note must carry the canonical spec"
    );
}

/// xorshift-free deterministic PRNG (splitmix64) for the randomized
/// program generator below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A random multi-kernel streaming program: 2–4 kernels with random loop
/// lengths and read/write mixes, called in a random repeating order.
fn random_module(rng: &mut Rng) -> Vm {
    let mut m = Module::new("random_stream");
    m.global("buf", ElemTy::F64, 256, GlobalInit::Zero);
    m.global("out", ElemTy::F64, 1, GlobalInit::Zero);
    let n_kernels = rng.range(2, 5);
    let mut names = Vec::new();
    for k in 0..n_kernels {
        let name = format!("kern{k}");
        let len = rng.range(16, 96) as i64;
        let body = match rng.range(0, 3) {
            0 => vec![for_(
                "i",
                ci(0),
                ci(len),
                vec![stf(ga("buf"), v("i"), i2f(v("i")))],
            )],
            1 => vec![for_(
                "i",
                ci(0),
                ci(len),
                vec![stf(
                    ga("buf"),
                    v("i"),
                    mul(ldf(ga("buf"), v("i")), cf(1.25)),
                )],
            )],
            _ => vec![
                letf("acc", cf(0.0)),
                for_(
                    "i",
                    ci(0),
                    ci(len),
                    vec![set("acc", add(v("acc"), ldf(ga("buf"), v("i"))))],
                ),
                stf(ga("out"), ci(0), v("acc")),
            ],
        };
        m.func(Function::new(name.as_str()).body(body));
        names.push(name);
    }
    let rounds = rng.range(150, 400) as i64;
    let calls_per_round = rng.range(2, 5);
    let round: Vec<_> = (0..calls_per_round)
        .map(|_| call(&names[rng.range(0, n_kernels) as usize], vec![]))
        .collect();
    m.func(Function::new("main").body(vec![for_("r", ci(0), ci(rounds), round)]));
    let compiled = compile(&m).expect("random module compiles");
    Vm::new(compiled.program).expect("random module loads")
}

#[test]
fn sampling_error_stays_within_the_declared_bound_on_random_programs() {
    for seed in 0..6u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
        let full = tquad_profile(random_module(&mut rng), 5000, None);
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
        let sampled = tquad_profile(
            random_module(&mut rng),
            5000,
            Some(&format!("sample:4/5000@{seed}")),
        );
        let note = sampled.instr.as_ref().expect("recon note present");
        assert!(
            note.coverage_ppm <= 1_000_000,
            "coverage is a fraction of the run"
        );

        // Max relative error of per-kernel mean bandwidth (Table IV avg
        // read+write B/instr over active slices), over kernels carrying
        // at least 1% of full-run traffic — the docs/ACCURACY.md metric.
        let grand: u64 = full
            .kernels
            .iter()
            .map(|k| {
                let (r, w) = k.series.totals(true);
                r + w
            })
            .sum();
        for fk in &full.kernels {
            let (r, w) = fk.series.totals(true);
            if ((r + w) as f64) < 0.01 * grand as f64 {
                continue;
            }
            let Some(fs) = full.stats(fk, true) else {
                continue;
            };
            let f_bpi = fs.avg_read_bpi + fs.avg_write_bpi;
            let r_bpi = sampled
                .kernel(&fk.name)
                .and_then(|rk| sampled.stats(rk, true))
                .map(|rs| rs.avg_read_bpi + rs.avg_write_bpi)
                .unwrap_or(0.0);
            let err = (r_bpi - f_bpi).abs() / f_bpi;
            assert!(
                err <= SAMPLE_ERR_BOUND,
                "seed {seed}, kernel {}: bandwidth error {err:.3} exceeds \
                 the documented {SAMPLE_ERR_BOUND} bound",
                fk.name
            );
        }
    }
}

/// gprof only consumes routine-enter/ret/tick events, and slice gating
/// only drops memory events — so sampling leaves the gprof profile
/// byte-identical while still cutting tquad's event volume.
#[test]
fn gprof_profile_is_exact_under_slice_gating() {
    let app = WfsApp::build(WfsConfig::tiny());
    let profile_under = |mode: Option<&str>| {
        let mut vm = app.make_vm();
        if let Some(spec) = mode {
            vm.set_instr_mode(InstrMode::parse(spec).expect("spec parses"))
                .expect("mode accepted");
        }
        let h = vm.attach_tool(Box::new(GprofTool::new(GprofOptions::default())));
        vm.run(None).expect("runs");
        vm.detach_tool::<GprofTool>(h)
            .expect("tool detaches")
            .into_profile()
    };
    let full = profile_under(None);
    assert_eq!(profile_under(Some("sample:4/2000@3")), full);
}
