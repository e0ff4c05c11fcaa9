//! The two wfs workloads.
//!
//! - `wfs_paper`: the paper's own run. wfs `paper_scaled` live under tQUAD
//!   at the Table IV slice interval, then phase detection and Table IV.
//!   Dominated by VM dispatch, event construction and tQUAD analysis; it
//!   records no trace and starts no service.
//! - `wfs_capture`: record once, analyse many. wfs `small` is recorded,
//!   indexed, encoded as TQTRACE3, opened as a stream and replayed under
//!   tquad, quad and gprof (two shards each), then rendered. Dominated by
//!   trace writes and reads and tool analysis.
//!
//! The seed picks the synthetic input audio. The pipeline steps run with
//! the crates' shipped defaults.

use crate::host::{self, median, quantile, Timed};
use crate::spans::{self, Spans};
use crate::{Args, Report, COVERAGE_FLOOR};
use std::time::Instant;
use tq_gprof::{FlatProfile, GprofOptions, GprofTool};
use tq_quad::{QuadOptions, QuadProfile, QuadTool};
use tq_tquad::{
    phase_table, profile_json, Phase, PhaseDetector, TquadOptions, TquadProfile, TquadTool,
};
use tq_trace::{StreamingTrace, Trace, TraceFormat, TraceRecorder};
use tq_vm::{standard_mask, Event, HookMask, InsContext, Tool, Vm, VmStats};
use tq_wfs::{WfsApp, WfsConfig};

/// The input seed of the paper's Table IV run (`WfsApp::build`).
const PAPER_SEED: u64 = 42;
/// The Table IV slice interval: the paper's 5000 instructions on its
/// 6.4e9-instruction run, scaled to the 2.409e8 instructions of wfs
/// `paper_scaled` (as `repro_table4` derives it). Fixed here, so the
/// workload stays the same if a change to the program moves its
/// instruction count.
const TABLE4_INTERVAL: u64 = 188;
/// Builds are repeated for at least this long (and at least
/// `MIN_BUILDS` times); `setup_s` is their median. One build takes
/// milliseconds, too short to time once.
const SETUP_BUDGET_S: f64 = 0.5;
const MIN_BUILDS: usize = 5;
/// Shards of every wfs_capture replay (the host's core count).
const SHARDS: usize = 2;

/// A tool that subscribes to every event a tracing tool would and does
/// nothing with them: what is left of a run under it is VM dispatch plus
/// event construction and delivery.
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

/// Build the app repeatedly; returns it and the median build time in
/// seconds.
fn build_app(config: WfsConfig, seed: u64) -> (WfsApp, f64) {
    let mut secs = Vec::new();
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        let app = WfsApp::build_seeded(config, seed);
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= MIN_BUILDS && t0.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            return (app, median(&secs));
        }
    }
}

/// Run `app` under `tool`; returns the finished VM, its stats, the
/// detached tool and the wall seconds of `Vm::run`.
fn run_under<T: Tool + 'static>(app: &WfsApp, tool: T) -> (Vm, VmStats, T, f64) {
    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(tool));
    let t0 = Instant::now();
    vm.run(None).expect("wfs runs to completion");
    let secs = t0.elapsed().as_secs_f64();
    let stats = *vm.stats();
    let tool = *vm.detach_tool::<T>(h).expect("tool detaches");
    (vm, stats, tool, secs)
}

/// Bare run (no tool): returns the instruction count and wall seconds.
fn run_bare(app: &WfsApp) -> (u64, f64) {
    let mut vm = app.make_vm();
    let t0 = Instant::now();
    let exit = vm.run(None).expect("wfs runs to completion");
    (exit.icount, t0.elapsed().as_secs_f64())
}

/// Medians of `reps` interleaved probe runs: bare, under the null tool,
/// and (with `record`) under the trace recorder.
struct Probes {
    icount: u64,
    null_events: u64,
    delivered: u64,
    bare_s: f64,
    null_s: f64,
    record_s: f64,
}

fn probes(app: &WfsApp, reps: usize, record: bool) -> Probes {
    let (mut bare, mut null, mut rec) = (Vec::new(), Vec::new(), Vec::new());
    let (mut icount, mut null_events, mut delivered) = (0, 0, 0);
    for _ in 0..reps {
        let (n, secs) = run_bare(app);
        icount = n;
        bare.push(secs);
        let (_, stats, tool, secs) = run_under(app, NullTool::default());
        null_events = tool.events;
        delivered = stats.events_delivered;
        null.push(secs);
        if record {
            rec.push(run_under(app, TraceRecorder::new()).3);
        }
    }
    Probes {
        icount,
        null_events,
        delivered,
        bare_s: median(&bare),
        null_s: median(&null),
        record_s: if record { median(&rec) } else { 0.0 },
    }
}

/// Report the VM layer: dispatch and event cost from the probes, counts
/// from the workload's own instrumented run.
fn report_vm(r: &mut Report, p: &Probes, run: &VmStats) {
    let events = p.null_events as f64;
    r.set("tq-vm.bare_ns_per_inst", 1e9 * p.bare_s / p.icount as f64);
    r.set("tq-vm.bare_minst_s", p.icount as f64 / p.bare_s / 1e6);
    r.set(
        "tq-vm.event_ns_per_event",
        1e9 * (p.null_s - p.bare_s) / events,
    );
    r.set("tq-vm.instructions", p.icount as f64);
    r.set("tq-vm.events", events);
    r.set("tq-vm.block_execs", run.block_execs as f64);
    r.set("tq-vm.blocks_fused", run.blocks_fused as f64);
    r.check(p.delivered == p.null_events, || {
        format!(
            "null tool saw {} events, the VM delivered {}",
            p.null_events, p.delivered
        )
    });
}

/// Report the end-to-end metrics of a pipeline timed `iters` times.
fn report_iterations(r: &mut Report, iters: &[Timed], window_s: f64) {
    let walls: Vec<f64> = iters.iter().map(|t| t.wall_s).collect();
    let cpus: Vec<f64> = iters.iter().map(|t| t.cpu_s).collect();
    r.set("run_s", median(&walls));
    r.set("cpu_s", median(&cpus));
    r.set("jobs_per_s", 1.0 / median(&walls));
    r.set("job_p50_ms", 1e3 * median(&walls));
    r.set("job_p90_ms", 1e3 * quantile(&walls, 0.9));
    r.note(format!(
        "{} pipeline runs in {window_s:.3} s; wall per run {:?} s",
        iters.len(),
        walls
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
}

/// Write the traced run's spans, report their attribution and apply the
/// coverage gate.
fn finish_trace(r: &mut Report, workload: &str, seed: u64, spans: &Spans, untraced_s: f64) {
    let all = spans.finished();
    let a = spans::attribute(&all);
    if let Err(e) = spans::write(workload, seed, &all) {
        r.note(format!("could not write the span file: {e}"));
    }
    r.note(format!(
        "layer self time over {:.3} s traced wall:",
        a.root_wall_s
    ));
    for (name, s) in &a.self_s {
        r.note(format!(
            "  {name:<28} {:>9.4} s {:>6.2}%  ({} spans)",
            s,
            100.0 * s / a.root_wall_s,
            a.count[name]
        ));
    }
    r.set("bench.coverage_pct", 100.0 * a.coverage);
    r.set("bench.traced_wall_s", a.root_wall_s);
    r.set("bench.tracing_overhead_s", a.root_wall_s - untraced_s);
    r.check(a.coverage >= COVERAGE_FLOOR, || {
        format!(
            "layer spans cover {:.1}% of traced wall, below {:.0}%",
            100.0 * a.coverage,
            100.0 * COVERAGE_FLOOR
        )
    });
}

/// Run `pipeline` `warmups` times untimed, then back to back for
/// `args.seconds` (at least `min_iters` times) untraced, or once untraced
/// and once traced with `--trace 1`. Returns the last run's output, every
/// untraced run's timing and the timed window's length.
fn iterate<T>(
    args: &Args,
    warmups: usize,
    min_iters: usize,
    spans: &Spans,
    mut pipeline: impl FnMut(&Spans, u64) -> T,
) -> (T, Vec<Timed>, f64) {
    let off = Spans::new(false);
    for _ in 0..warmups {
        pipeline(&off, 0);
    }
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, t) = host::timed(|| pipeline(&off, times.len() as u64));
        times.push(t);
        let done = if args.trace {
            true
        } else {
            times.len() >= min_iters && t0.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            let window = t0.elapsed().as_secs_f64();
            let out = if args.trace {
                pipeline(spans, times.len() as u64)
            } else {
                out
            };
            return (out, times, window);
        }
    }
}

struct PaperRun {
    output_wav: Vec<u8>,
    profile: TquadProfile,
    phases: Vec<Phase>,
    table: String,
    stats: VmStats,
    live_s: f64,
}

/// `wfs_paper`: one live tQUAD run of the paper workload through Table IV.
pub fn paper(args: &Args, r: &mut Report) {
    let (app, build_s) = build_app(WfsConfig::paper_scaled(), args.seed);
    r.set("setup_s", build_s);
    r.set("tq-wfs.build_ms", 1e3 * build_s);
    let reference = app.reference_output();

    let pipeline = |spans: &Spans, g: u64| -> PaperRun {
        spans.span("wfs_paper", 0, g, 0, |root| {
            let (vm, stats, profile, live_s) = spans.span("tq-tquad.live_run", root, g, 0, |_| {
                let options = TquadOptions::default().with_interval(TABLE4_INTERVAL);
                let (vm, stats, tool, live_s) = run_under(&app, TquadTool::new(options));
                (vm, stats, tool.into_profile(), live_s)
            });
            let phases = spans.span("tq-tquad.phases", root, g, 0, |_| {
                PhaseDetector::default().detect(&profile)
            });
            let table = spans.span("tq-report.render", root, g, 0, |_| {
                phase_table(&profile, &phases).render()
            });
            PaperRun {
                output_wav: app.output_wav(&vm).map(<[u8]>::to_vec).unwrap_or_default(),
                profile,
                phases,
                table,
                stats,
                live_s,
            }
        })
    };
    let spans = Spans::new(args.trace);
    let (last, iters, window) = iterate(args, 0, 5, &spans, pipeline);
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.attempted += iters.len() as u64;
    report_iterations(r, &iters, window);

    r.check(last.output_wav == reference, || {
        "live tQUAD run output WAV differs from the native reference".into()
    });
    r.check(
        last.profile.n_slices() > 0 && !last.table.is_empty(),
        || "Table IV is empty".into(),
    );
    if args.seed == PAPER_SEED {
        check_table4(r, &last.profile, &last.phases);
    }

    if args.trace {
        finish_trace(r, "wfs_paper", args.seed, &spans, iters[0].wall_s);
        let p = probes(&app, 2, false);
        report_vm(r, &p, &last.stats);
        r.set(
            "tq-tquad.live_ns_per_event",
            1e9 * (last.live_s - p.null_s) / p.null_events as f64,
        );
        r.set("tq-tquad.slices", last.profile.n_slices() as f64);
        let a = spans::attribute(&spans.finished());
        r.set("tq-tquad.phases_ms", 1e3 * a.self_s["tq-tquad.phases"]);
        r.set("tq-report.render_ms", 1e3 * a.self_s["tq-report.render"]);
        r.set("host.memcpy_gb_s", host::memcpy_gb_s());
        r.note(format!(
            "live run {:.3} s = bare dispatch {:.3} s + events {:.3} s + tQUAD {:.3} s",
            last.live_s,
            p.bare_s,
            p.null_s - p.bare_s,
            last.live_s - p.null_s
        ));
    }
}

/// The paper's Table IV shape: five phases, and `AudioIo_setFrames` the
/// one kernel whose peak bandwidth is an order of magnitude above all
/// others.
fn check_table4(r: &mut Report, profile: &TquadProfile, phases: &[Phase]) {
    r.check(phases.len() == 5, || {
        format!("Table IV has {} phases, expected 5", phases.len())
    });
    let mut peaks: Vec<(String, f64)> = profile
        .active_kernels()
        .iter()
        .filter(|k| k.name != "main")
        .filter_map(|k| {
            profile
                .stats(k, true)
                .map(|s| (k.name.clone(), s.max_total_bpi))
        })
        .collect();
    peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
    let outlier =
        peaks.len() >= 2 && peaks[0].0 == "AudioIo_setFrames" && peaks[0].1 >= 10.0 * peaks[1].1;
    r.check(outlier, || {
        format!(
            "peak-bandwidth outlier is not a unique AudioIo_setFrames: {:?}",
            &peaks[..peaks.len().min(2)]
        )
    });
}

struct Profiles {
    tquad: TquadProfile,
    quad: QuadProfile,
    gprof: FlatProfile,
}

impl Profiles {
    /// The rendered reports, in the order they are written.
    fn render(&self) -> Vec<String> {
        vec![
            profile_json(&self.tquad).render(),
            tq_quad::qdu_graph(&self.quad, 0).render(),
            self.gprof.table("flat profile").render(),
            self.gprof.call_graph_table("call graph").render(),
        ]
    }
}

fn tools() -> (TquadTool, QuadTool, GprofTool) {
    (
        TquadTool::new(TquadOptions::default()),
        QuadTool::new(QuadOptions::default()),
        GprofTool::new(GprofOptions::default()),
    )
}

struct CaptureRun {
    output_wav: Vec<u8>,
    trace: Trace,
    stats: VmStats,
    v3_bytes: usize,
    stream: StreamingTrace,
    profiles: Profiles,
    rendered: Vec<String>,
}

/// `wfs_capture`: record once, then index, encode, open and analyse the
/// capture three ways.
pub fn capture(args: &Args, r: &mut Report) {
    let (app, build_s) = build_app(WfsConfig::small(), args.seed);
    r.set("setup_s", build_s);
    r.set("tq-wfs.build_ms", 1e3 * build_s);
    let reference = app.reference_output();

    let pipeline = |spans: &Spans, g: u64| -> CaptureRun {
        spans.span("wfs_capture", 0, g, 0, |root| {
            let (vm, stats, trace) = spans.span("tq-trace.record", root, g, 0, |_| {
                let (vm, stats, rec, _) = run_under(&app, TraceRecorder::new());
                (vm, stats, rec.into_trace())
            });
            let trace = spans.span("tq-trace.index", root, g, 0, |_| {
                trace
                    .with_chunk_index(tq_trace::DEFAULT_CHUNKS)
                    .expect("chunk index")
            });
            let bytes = spans.span("tq-trace.encode", root, g, 0, |_| {
                let mut bytes = Vec::new();
                trace
                    .save_as(&mut bytes, TraceFormat::V3)
                    .expect("encode v3");
                bytes
            });
            let v3_bytes = bytes.len();
            let stream = spans.span("tq-trace.open", root, g, 0, |_| {
                StreamingTrace::from_bytes(bytes).expect("v3 stream opens")
            });
            let (mut tq, mut qd, mut gp) = tools();
            let profiles = Profiles {
                tquad: spans.span("tq-tquad.replay", root, g, 0, |_| {
                    stream
                        .replay_sharded(&mut tq, SHARDS)
                        .expect("tquad replay");
                    tq.into_profile()
                }),
                quad: spans.span("tq-quad.replay", root, g, 0, |_| {
                    stream.replay_sharded(&mut qd, SHARDS).expect("quad replay");
                    qd.into_profile()
                }),
                gprof: spans.span("tq-gprof.replay", root, g, 0, |_| {
                    stream
                        .replay_sharded(&mut gp, SHARDS)
                        .expect("gprof replay");
                    gp.into_profile()
                }),
            };
            let rendered = spans.span("tq-report.render", root, g, 0, |_| profiles.render());
            CaptureRun {
                output_wav: app.output_wav(&vm).map(<[u8]>::to_vec).unwrap_or_default(),
                trace,
                stats,
                v3_bytes,
                stream,
                profiles,
                rendered,
            }
        })
    };
    let spans = Spans::new(args.trace);
    let (last, iters, window) = iterate(args, 1, 5, &spans, pipeline);
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.attempted += iters.len() as u64;
    report_iterations(r, &iters, window);
    let n_events = last.trace.n_events as f64;
    r.note(format!(
        "{} events, {} v3 bytes ({:.4} B/event)",
        last.trace.n_events,
        last.v3_bytes,
        last.v3_bytes as f64 / n_events
    ));

    // Correctness, outside the timed section.
    r.check(last.output_wav == reference, || {
        "recorded run output WAV differs from the native reference".into()
    });
    let mut reencoded = Vec::new();
    last.trace
        .save_as(&mut reencoded, TraceFormat::V3)
        .expect("encode v3");
    let reloaded = Trace::load(&mut reencoded.as_slice());
    r.check(
        reencoded.len() == last.v3_bytes
            && reloaded.is_ok_and(|t| t.digest() == last.trace.digest()),
        || "v3 bytes do not load back with the same trace digest".into(),
    );
    let (mut tq, mut qd, mut gp) = tools();
    let (sequential, seq) = host::timed(|| {
        last.stream.replay(&mut tq).expect("tquad replay");
        last.stream.replay(&mut qd).expect("quad replay");
        last.stream.replay(&mut gp).expect("gprof replay");
        Profiles {
            tquad: tq.into_profile(),
            quad: qd.into_profile(),
            gprof: gp.into_profile(),
        }
    });
    r.check(
        sequential.tquad == last.profiles.tquad
            && sequential.quad == last.profiles.quad
            && sequential.gprof == last.profiles.gprof
            && sequential.render() == last.rendered,
        || "2-shard replay profiles differ from the sequential replay".into(),
    );

    if args.trace {
        finish_trace(r, "wfs_capture", args.seed, &spans, iters[0].wall_s);
        let a = spans::attribute(&spans.finished());
        let ns_per_event = |name: &str| 1e9 * a.self_s[name] / n_events;
        let p = probes(&app, 5, true);
        report_vm(r, &p, &last.stats);
        let mut null_replay = NullTool::default();
        let ((), decode) =
            host::timed(|| last.stream.replay(&mut null_replay).expect("null replay"));
        let memcpy = host::memcpy_gb_s();
        let stream_bytes = last.trace.events.len() as f64;
        let encode_s = a.self_s["tq-trace.encode"];
        let sharded_s: f64 = ["tq-tquad.replay", "tq-quad.replay", "tq-gprof.replay"]
            .iter()
            .map(|n| a.self_s[*n])
            .sum();
        r.set(
            "tq-trace.record_ns_per_event",
            1e9 * (p.record_s - p.null_s) / n_events,
        );
        r.set("tq-trace.index_ms", 1e3 * a.self_s["tq-trace.index"]);
        r.set("tq-trace.open_ms", 1e3 * a.self_s["tq-trace.open"]);
        r.set(
            "tq-trace.encode_ns_per_event",
            ns_per_event("tq-trace.encode"),
        );
        r.set(
            "tq-trace.encode_pct_of_memcpy",
            100.0 * stream_bytes / encode_s / 1e9 / memcpy,
        );
        r.set(
            "tq-trace.replay_ns_per_event",
            1e9 * decode.wall_s / n_events,
        );
        r.set(
            "tq-trace.replay_pct_of_memcpy",
            100.0 * stream_bytes / decode.wall_s / 1e9 / memcpy,
        );
        r.set("tq-trace.sharded_speedup", seq.wall_s / sharded_s);
        r.set("tq-trace.capture_bytes", last.v3_bytes as f64);
        r.set(
            "tq-trace.capture_bytes_per_event",
            last.v3_bytes as f64 / n_events,
        );
        r.set(
            "tq-tquad.replay_ns_per_event",
            ns_per_event("tq-tquad.replay"),
        );
        r.set("tq-tquad.slices", last.profiles.tquad.n_slices() as f64);
        r.set(
            "tq-quad.replay_ns_per_event",
            ns_per_event("tq-quad.replay"),
        );
        r.set(
            "tq-gprof.replay_ns_per_event",
            ns_per_event("tq-gprof.replay"),
        );
        r.set("tq-report.render_ms", 1e3 * a.self_s["tq-report.render"]);
        r.set("host.memcpy_gb_s", memcpy);
        // The capture's event count includes its end-of-run record, which
        // replay hands to `on_fini` rather than `on_event`.
        r.check(null_replay.events + 1 == last.trace.n_events, || {
            format!(
                "null streaming replay delivered {} events of {}",
                null_replay.events, last.trace.n_events
            )
        });
        r.note(format!(
            "replays on {SHARDS} shards: {sharded_s:.3} s vs sequential {:.3} s \
             ({} cores available)",
            seq.wall_s,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
    }
}
