//! Bench: analysing from a recorded trace versus re-running the
//! instrumented VM — the payoff of the capture-once/analyse-many
//! architecture for parameter sweeps like §V.B — plus the sharded-replay
//! scaling sweep (shards vs wall clock on one wfs capture) and the cost of
//! event delivery alone (a null tool replayed in memory and streamed).
//! Plain timing harness (`tq_bench::bench`).

use std::time::{Duration, Instant};
use tq_bench::{bench, save};
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{StreamingTrace, Trace, TraceRecorder};
use tq_vm::{standard_mask, Event, HookMask, InsContext, Tool};
use tq_wfs::{WfsApp, WfsConfig};

/// Counts delivered events and does nothing else: a replay into it costs
/// the decode and the delivery, no analysis.
#[derive(Default)]
struct NullTool {
    events: u64,
}

impl Tool for NullTool {
    fn name(&self) -> &str {
        "null"
    }
    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }
    fn on_event(&mut self, _ev: &Event) {
        self.events += 1;
    }
}

/// Best-of-N ns per record for a sequential null replay via `replay`.
fn null_ns_per_event(n_events: u64, iters: usize, replay: impl Fn(&mut NullTool)) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let mut tool = NullTool::default();
        let t0 = Instant::now();
        replay(&mut tool);
        best = best.min(t0.elapsed());
        assert_eq!(tool.events + 1, n_events, "every event but Fini delivered");
    }
    best.as_nanos() as f64 / n_events as f64
}

fn capture(config: WfsConfig) -> Trace {
    let app = WfsApp::build(config);
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("capture run");
    vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace()
}

/// Best-of-N wall clock for one sharded tquad replay.
fn sharded_time(trace: &Trace, jobs: usize, iters: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(5_000));
        let t0 = Instant::now();
        trace.replay_sharded(&mut tool, jobs).expect("replays");
        let dt = t0.elapsed();
        std::hint::black_box(tool.into_profile().n_slices());
        best = best.min(dt);
    }
    best
}

fn main() {
    let app = WfsApp::build(WfsConfig::tiny());

    // Capture once, outside the timed region.
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("capture run");
    let trace = vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace();

    bench("tquad_analysis/live_rerun", || {
        let mut vm = app.make_vm();
        let t = vm.attach_tool(Box::new(TquadTool::new(
            TquadOptions::default().with_interval(5_000),
        )));
        vm.run(None).expect("runs");
        vm.detach_tool::<TquadTool>(t)
            .unwrap()
            .into_profile()
            .n_slices()
    });
    bench("tquad_analysis/trace_replay", || {
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(5_000));
        trace.replay(&mut tool).expect("replays");
        tool.into_profile().n_slices()
    });

    // Shard-count sweep on a bigger capture (tiny replays in microseconds,
    // which only measures thread spawn overhead). The recorder builds the
    // chunk index as it records, so the timed region is the pure parallel
    // replay.
    let iters: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let big = capture(WfsConfig::small());
    let seq = sharded_time(&big, 1, iters);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = format!(
        "# cores={cores} events={}\njobs\tseconds\tspeedup\n",
        big.n_events
    );
    println!(
        "sharded tquad replay, wfs small ({} events, {cores} core(s) — \
         speedup is bounded by the core count):",
        big.n_events
    );
    for jobs in [1usize, 2, 4, 8] {
        let dt = if jobs == 1 {
            seq
        } else {
            sharded_time(&big, jobs, iters)
        };
        let speedup = seq.as_secs_f64() / dt.as_secs_f64();
        println!("  jobs {jobs}: {dt:?}  ({speedup:.2}x vs sequential)");
        report.push_str(&format!("{jobs}\t{:.6}\t{speedup:.3}\n", dt.as_secs_f64()));
    }
    save("trace_replay_shards.tsv", &report);

    let mut bytes = Vec::new();
    big.save(&mut bytes).expect("save");
    let stream = StreamingTrace::from_bytes(bytes).expect("streams");
    let iters = iters.max(5);
    let in_memory = null_ns_per_event(big.n_events, iters, |t| big.replay(t).expect("replays"));
    let streaming = null_ns_per_event(big.n_events, iters, |t| stream.replay(t).expect("streams"));
    println!(
        "null replay, wfs small (best of {iters}): in memory {in_memory:.1} ns/event, \
         streaming {streaming:.1} ns/event"
    );
    save(
        "trace_null_replay.tsv",
        &format!(
            "# best of {iters}, {} events\npath\tns_per_event\n\
             in_memory\t{in_memory:.2}\nstreaming\t{streaming:.2}\n",
            big.n_events
        ),
    );
}
