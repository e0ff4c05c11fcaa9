//! Guard bench: the `tq-obs` layer must be near-free when disabled.
//!
//! Two measurements back the claim:
//!
//! 1. **Direct comparison** — best-of-N sharded tquad replay with the
//!    layer disabled vs enabled (informational: the enabled cost is the
//!    price of a Perfetto trace).
//! 2. **The guard** — the disabled fast path of every instrument kind
//!    (spans, counters, and the `tq-faults` injection hooks) is timed in
//!    a tight loop (one relaxed atomic load + branch), then
//!    scaled by the number of gated call sites one replay actually
//!    executes. That bounds the disabled overhead as a fraction of replay
//!    wall time, and the bench **fails** if the bound exceeds 2% — the
//!    acceptance criterion — independent of scheduler noise, which a
//!    direct instrumented-vs-uninstrumented diff of two multi-millisecond
//!    wall times on a busy CI box could never resolve.

use std::time::{Duration, Instant};
use tq_bench::save;
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{Trace, TraceRecorder};
use tq_wfs::{WfsApp, WfsConfig};

fn capture(config: WfsConfig) -> Trace {
    let app = WfsApp::build(config);
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("capture run");
    vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace()
}

/// Best-of-N wall clock for one sharded tquad replay; also returns the
/// slice count (the number of gated counter increments the replay does).
fn replay_time(trace: &Trace, iters: usize) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut slices = 0;
    for _ in 0..iters {
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(5_000));
        let t0 = Instant::now();
        trace.replay_sharded(&mut tool, 4).expect("replays");
        let dt = t0.elapsed();
        let p = tool.into_profile();
        slices = p.n_slices() as u64;
        std::hint::black_box(p);
        best = best.min(dt);
    }
    (best, slices)
}

/// Per-call cost of a disabled instrument in a tight loop.
fn gated_ns(label: &str, reps: u64, mut f: impl FnMut()) -> f64 {
    assert!(!tq_obs::enabled(), "gate bench must run disabled");
    // Warmup, then best-of-3 batches (best-of filters preemption spikes).
    for _ in 0..reps / 10 {
        f();
    }
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed());
    }
    let ns = best.as_nanos() as f64 / reps as f64;
    println!("  disabled {label}: {ns:.2} ns/call");
    ns
}

fn main() {
    let iters: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let trace = capture(WfsConfig::small());
    println!(
        "obs overhead guard, wfs small ({} events, best of {iters}):",
        trace.n_events
    );

    // 1. Direct comparison, informational.
    tq_obs::set_enabled(false);
    let (off, slices) = replay_time(&trace, iters);
    tq_obs::set_enabled(true);
    let (on, _) = replay_time(&trace, iters);
    let _ = tq_obs::drain_spans();
    tq_obs::set_enabled(false);
    println!(
        "  replay disabled: {off:?}   enabled: {on:?}   ({:+.2}% when enabled)",
        (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0
    );

    // 2. The guard: tight-loop cost of every disabled fast path.
    const REPS: u64 = 2_000_000;
    let span_ns = gated_ns("span", REPS, || {
        // Create-and-drop on purpose: the disabled fast path is the cost
        // under measurement, not a real scope.
        let guard = tq_obs::span("guard", "bench");
        std::hint::black_box(&guard);
    });
    let counter = tq_obs::counter("tq_bench_guard_total", "obs_overhead guard probe");
    let counter_ns = gated_ns("counter inc", REPS, || counter.inc());
    // The structured log hook: with the master gate off, emit() must cost
    // the same relaxed-load-and-branch as every other instrument — the
    // fields must not even be rendered.
    let log_ns = gated_ns("log emit", REPS, || {
        tq_obs::log::debug(
            "bench",
            "guard_probe",
            &[("value", tq_obs::log::Value::U64(1))],
        );
    });
    // The tq-faults hooks share the same discipline (relaxed load +
    // branch when no plan is installed) and sit on the replay path
    // (slow-replay check in run_tool), so they fall under the same bound.
    tq_faults::clear();
    let fault_ns = {
        assert!(!tq_faults::active(), "fault guard bench must run unplanned");
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(tq_faults::sleep_if(tq_faults::FaultPoint::SlowReplay));
            }
            best = best.min(t0.elapsed());
        }
        let ns = best.as_nanos() as f64 / REPS as f64;
        println!("  disabled fault hook: {ns:.2} ns/call");
        ns
    };
    let per_call_ns = span_ns.max(counter_ns).max(fault_ns).max(log_ns);

    // Gated sites one sharded tquad replay executes: one counter inc per
    // flushed slice, plus a handful of spans (replay_sharded, decode,
    // fork, merge, one per shard) and the per-job fault hooks.
    let gated_calls = slices + 16;
    let bound = (gated_calls as f64 * per_call_ns) / off.as_nanos() as f64;
    println!(
        "  bound: {gated_calls} gated calls x {per_call_ns:.2} ns = \
         {:.4}% of the {off:?} replay (limit 2%)",
        bound * 100.0
    );
    save(
        "obs_overhead.tsv",
        &format!(
            "replay_disabled_s\treplay_enabled_s\tspan_ns\tcounter_ns\tfault_ns\tlog_ns\tgated_calls\tbound_pct\n\
             {:.6}\t{:.6}\t{span_ns:.3}\t{counter_ns:.3}\t{fault_ns:.3}\t{log_ns:.3}\t{gated_calls}\t{:.5}\n",
            off.as_secs_f64(),
            on.as_secs_f64(),
            bound * 100.0
        ),
    );
    assert!(
        bound < 0.02,
        "disabled tq-obs overhead bound {:.4}% exceeds the 2% guard",
        bound * 100.0
    );
    println!("  guard: PASS");
}
