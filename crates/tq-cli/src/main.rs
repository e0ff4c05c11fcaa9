//! `tq` — command-line driver for the tQUAD reproduction.
//!
//! Mirrors the paper tool's command line: the profiled program is the
//! rebuilt *hArtes wfs* application, and the tQUAD options are the paper's
//! three (time-slice interval, include/exclude local stack area accesses,
//! exclude library/OS routines).
//!
//! ```text
//! tq run     [--app wfs|img] [--scale tiny|small|paper]
//! tq capture [--app …] [--scale …] --out FILE [--fuel N]
//! tq gprof   [--scale …] [--interval N] [--jobs N]
//! tq tquad   [--scale …] [--interval N] [--exclude-stack] [--exclude-libs]
//!            [--chart read|write] [--kernels a,b,c] [--width N] [--jobs N]
//! tq quad    [--scale …] [--exclude-stack] [--exclude-libs] [--dot PATH]
//!            [--jobs N]
//! tq phases  [--scale …] [--interval N] [--jobs N]
//! tq intervals [--scale …] [--interval N] [--kernel NAME] [--gap N] [--jobs N]
//!
//! every profiling subcommand (gprof/tquad/quad/phases/intervals) also
//! accepts [--capture FILE]: replay a `tq capture` file through the
//! streaming reader (one decoded chunk at a time — works on captures
//! larger than RAM) instead of building and running the application.
//! tq disasm  [--routine NAME]
//! tq serve   [--addr HOST:PORT] [--workers N] [--state-dir PATH]
//!            [--cache-mb N] [--queue N] [--timeout-ms N] [--capture-fuel N]
//!            [--max-conns N] [--read-timeout-ms N] [--slow-job-ms N]
//!            [--peers A,B,C] [--advertise HOST:PORT] [--probe-interval-ms N]
//!
//! every VM-running subcommand: [--instr full|filter:…|sample:…]
//! tq submit  [--addr HOST:PORT] [--tool tquad|quad|gprof|phases]
//!            [--app …] [--scale …] [--interval N] [--exclude-stack]
//!            [--exclude-libs|--track-libs] [--retries N] [--timeout SECS]
//!            [--peers A,B,C] [--fallback-hint-ms N] [--backoff-cap-ms N]
//!            | --route | --stats | --metrics | --logs | --ping | --shutdown
//! tq fleet-status --peers A,B,C [--metrics] [--timeout SECS]
//! tq fleet-trace  --peers A,B,C --out FILE [--timeout SECS]
//! ```
//!
//! `--stats`/`--metrics` become roster-wide when `--peers` is given:
//! stats print one JSON line per peer, metrics print one merged
//! exposition with a `peer` label on every sample.
//!
//! See `docs/CLI.md` for the complete flag-by-flag reference and
//! `docs/OPERATIONS.md` for running `tq serve` in production (overload
//! behaviour, fault injection via `TQ_FAULTS`, the structured event log
//! and its `TQ_LOG` filter, reading `stats`/`metrics`, and reading a
//! merged distributed trace).
//!
//! `serve`/`submit` are the front end for the `tq-profd` service: one
//! daemon records each workload once and answers every profiling variant
//! by parallel offline replay (see `crates/tq-profd`).
//!
//! Every subcommand also accepts the self-observability flags:
//! `--trace-out FILE` writes a Chrome trace-event JSON of the run's
//! internal spans (open in Perfetto / chrome://tracing), and `--no-obs`
//! disables the instrumentation layer entirely (see `crates/tq-obs`).

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;
use tq_gprof::{GprofOptions, GprofTool};
use tq_imgproc::{ImgApp, ImgConfig};
use tq_profd::{
    AppId, Client, ClientConfig, FleetClient, JobSpec, Request, RetryPolicy, RetryTrail, Scale,
    Server, ServerConfig, StackPolicy, ToolId,
};
use tq_quad::{qdu_graph, QuadOptions, QuadTool};
use tq_report::Json;
use tq_tquad::{
    figure_chart, phase_table, LibPolicy, Measure, PhaseDetector, TquadOptions, TquadTool,
};
use tq_wfs::{WfsApp, WfsConfig};

struct Args {
    flags: HashMap<String, String>,
    bools: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut bools = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                _ => bools.push(name.to_string()),
            }
        }
        Ok(Args { flags, bools })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
            None => Ok(default),
        }
    }

    /// Like [`Self::u64_or`], but zero is rejected with a usage error. Flags
    /// like `--interval 0` or `--jobs 0` are always mistakes — an interval
    /// of zero instructions has no time axis and zero shards do no work —
    /// and must fail loudly instead of panicking deep inside a tool.
    fn positive_u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.u64_or(name, default)? {
            0 => Err(format!("--{name} must be a positive number")),
            n => Ok(n),
        }
    }
}

/// The profiled application: compiled program + staged input, behind one
/// interface so every subcommand works on either case study.
struct App {
    program: tq_isa::Program,
    input: (String, Vec<u8>),
}

impl App {
    fn make_vm(&self) -> Result<tq_vm::Vm, String> {
        let mut vm = tq_vm::Vm::new(self.program.clone()).map_err(|e| e.to_string())?;
        vm.fs_mut().add_file(&self.input.0, self.input.1.clone());
        Ok(vm)
    }
}

/// Parse `--instr full|filter:…|sample:…` (grammar in
/// docs/CLI.md, accuracy tradeoffs in docs/ACCURACY.md). Reduced modes
/// change what tools observe: they trade instrumentation coverage for
/// speed and attach an `instr` note to the resulting profile. `None`
/// when absent or observationally full.
fn instr_arg(args: &Args) -> Result<Option<tq_vm::InstrMode>, String> {
    match args.get("instr") {
        Some(spec) => {
            let mode = tq_vm::InstrMode::parse(spec)?;
            Ok(if mode.is_full() { None } else { Some(mode) })
        }
        None => Ok(None),
    }
}

/// Where a profiling subcommand gets its event stream: a live VM run over
/// the rebuilt application, or a capture file written by `tq capture`.
enum Source {
    Live(App),
    Capture(std::path::PathBuf),
}

/// `--capture FILE` replays an existing capture (no application build, no
/// VM run); otherwise build the app named by `--app`/`--scale`.
fn source_for(args: &Args) -> Result<Source, String> {
    match args.get("capture") {
        Some(path) => Ok(Source::Capture(path.into())),
        None => app_for(args).map(Source::Live),
    }
}

/// Run `tool` over the source and hand it back full of data.
///
/// Live source: `jobs == 1` attaches the tool to a live VM run (the
/// classic path); `jobs > 1` records the execution once, then shards the
/// offline replay across that many threads — the resulting profile is
/// byte-identical to the live run, just computed in parallel.
///
/// Capture source: the file is opened with [`tq_trace::Trace::open_streaming`]
/// and decoded one chunk at a time, so profiling a larger-than-RAM capture
/// costs one chunk of decoded events per replay thread, never the whole
/// stream. The profile is byte-identical to a live run of the same
/// workload (`scripts/verify.sh` holds this gate).
fn run_profiled<T: tq_vm::MergeTool + 'static>(
    source: &Source,
    args: &Args,
    jobs: usize,
    tool: T,
) -> Result<T, String> {
    let instr = instr_arg(args)?;
    let app = match source {
        Source::Capture(path) => {
            if instr.is_some() {
                return Err("--instr applies to live runs; a capture replays under the \
                     mode it was recorded with (use `tq capture --instr …`)"
                    .into());
            }
            let streaming = tq_trace::Trace::open_streaming(path)
                .map_err(|e| format!("open capture {}: {e}", path.display()))?;
            let mut tool = tool;
            streaming
                .replay_sharded(&mut tool, jobs)
                .map_err(|e| format!("streaming replay failed: {e}"))?;
            return Ok(tool);
        }
        Source::Live(app) => app,
    };
    let mut vm = app.make_vm()?;
    if let Some(mode) = instr {
        vm.set_instr_mode(mode)?;
    }
    if jobs > 1 {
        let trace = {
            let _span = tq_obs::span("capture", "vm");
            let h = vm.attach_tool(Box::new(tq_trace::TraceRecorder::new()));
            vm.run(None).map_err(|e| e.to_string())?;
            // The recorder chunks as it records, so the sharded replay
            // below runs fully parallel with no index pass.
            vm.detach_tool::<tq_trace::TraceRecorder>(h)
                .ok_or("internal error: detached tool had unexpected type")?
                .into_trace()
        };
        let mut tool = tool;
        trace
            .replay_sharded(&mut tool, jobs)
            .map_err(|e| format!("sharded replay failed: {e}"))?;
        Ok(tool)
    } else {
        let h = vm.attach_tool(Box::new(tool));
        vm.run(None).map_err(|e| e.to_string())?;
        vm.detach_tool::<T>(h)
            .map(|boxed| *boxed)
            .ok_or_else(|| "internal error: detached tool had unexpected type".to_string())
    }
}

fn app_for(args: &Args) -> Result<App, String> {
    let scale = args.get("scale").unwrap_or("small");
    match args.get("app").unwrap_or("wfs") {
        "wfs" => {
            let config = match scale {
                "tiny" => WfsConfig::tiny(),
                "small" => WfsConfig::small(),
                "paper" => WfsConfig::paper_scaled(),
                other => return Err(format!("unknown --scale `{other}` (tiny|small|paper)")),
            };
            let a = WfsApp::build(config);
            Ok(App {
                program: a.compiled.program.clone(),
                input: (tq_wfs::INPUT_WAV.into(), a.input_wav.clone()),
            })
        }
        "img" => {
            let config = match scale {
                "tiny" => ImgConfig::tiny(),
                "small" => ImgConfig::small(),
                "paper" => ImgConfig::scaled(),
                other => return Err(format!("unknown --scale `{other}` (tiny|small|paper)")),
            };
            let a = ImgApp::build(config);
            Ok(App {
                program: a.compiled.program.clone(),
                input: (tq_imgproc::INPUT_PGM.into(), a.input_pgm.clone()),
            })
        }
        other => Err(format!("unknown --app `{other}` (wfs|img)")),
    }
}

/// Socket policy for fleet scrapes (`fleet-status`, `fleet-trace`):
/// short timeouts, because a scrape visits every peer sequentially and
/// an unreachable member must cost seconds, not the submit default's
/// ten-minute read budget. `--timeout SECS` overrides.
fn fleet_scrape_config(args: &Args) -> Result<ClientConfig, String> {
    let timeout = Duration::from_secs(args.positive_u64_or("timeout", 5)?);
    let defaults = ClientConfig::default();
    Ok(ClientConfig {
        connect_timeout: defaults.connect_timeout.min(timeout),
        read_timeout: Some(timeout),
        retry: RetryPolicy::default(),
    })
}

/// `--peers a,b,c` as a cleaned list (empty when the flag is absent).
fn peers_arg(args: &Args) -> Vec<String> {
    args.get("peers")
        .map(|list| {
            list.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default()
}

fn lib_policy(args: &Args) -> LibPolicy {
    if args.has("exclude-libs") {
        LibPolicy::Drop
    } else if args.has("track-libs") {
        LibPolicy::Track
    } else {
        LibPolicy::AttributeToCaller
    }
}

fn usage() -> String {
    "usage: tq <run|capture|gprof|tquad|quad|phases|intervals|disasm|serve|submit|\n\
     \u{20}          fleet-status|fleet-trace> [options]\n\
     common options: --app wfs|img --scale tiny|small|paper\n\
     \u{20}               --jobs N (record once, shard the replay over N threads;\n\
     \u{20}               the profile is byte-identical to a sequential run)\n\
     \u{20}               --capture FILE (gprof/tquad/quad/phases/intervals:\n\
     \u{20}               replay an existing `tq capture` file via the streaming\n\
     \u{20}               reader — one decoded chunk at a time, larger-than-RAM\n\
     \u{20}               safe — instead of building and running the app)\n\
     \u{20}               --instr full|filter:a,b|filter:!a,b|filter:*|\n\
     \u{20}               sample:K[/SLICE][@SEED] (reduced instrumentation on\n\
     \u{20}               live runs: per-routine filters and every-k-th-slice\n\
     \u{20}               sampling; parts compose with `+`; profiles carry an\n\
     \u{20}               `instr` note and scale counters back — accuracy\n\
     \u{20}               bounds and cookbook in docs/ACCURACY.md)\n\
     \u{20}               --trace-out FILE (write a Chrome trace of this run's\n\
     \u{20}               internal spans; open in Perfetto) --no-obs (disable\n\
     \u{20}               the self-profiling layer)\n\
     capture options: --out FILE (required) --fuel N (0 = unbounded)\n\
     tquad options:  --interval N --exclude-stack --exclude-libs --chart read|write\n\
     \u{20}               --kernels a,b,c --width N\n\
     quad options:   --exclude-stack --exclude-libs --dot PATH\n\
     phases options: --interval N\n\
     intervals opts: --interval N --kernel NAME --gap N\n\
     gprof options:  --interval N --track-libs\n\
     disasm options: --routine NAME\n\
     serve options:  --addr HOST:PORT --workers N --state-dir PATH --cache-mb N\n\
     \u{20}               --queue N --timeout-ms N --capture-fuel N --max-conns N\n\
     \u{20}               --read-timeout-ms N (0 = never reap idle connections;\n\
     \u{20}               fault injection via TQ_FAULTS=, see docs/OPERATIONS.md)\n\
     \u{20}               --peers A,B,C (join a fleet; cache shards by digest)\n\
     \u{20}               --advertise HOST:PORT --probe-interval-ms N\n\
     \u{20}               --slow-job-ms N (warn-log jobs slower than N; 0 = off)\n\
     \u{20}               structured event log filter via TQ_LOG=level, see docs\n\
     submit options: --addr HOST:PORT --tool tquad|quad|gprof|phases --app --scale\n\
     \u{20}               --interval N --exclude-stack --exclude-libs --track-libs\n\
     \u{20}               --instr SPEC (reduced-instrumentation job variant)\n\
     \u{20}               --retries N (resubmit with backoff on busy responses)\n\
     \u{20}               --timeout SECS (connect/read socket timeouts)\n\
     \u{20}               --peers A,B,C (route to the ring owner, with failover)\n\
     \u{20}               --fallback-hint-ms N --backoff-cap-ms N (retry tuning)\n\
     \u{20}               (or one of: --route --stats --metrics --logs --ping\n\
     \u{20}               --shutdown;\n\
     \u{20}               --stats/--metrics with --peers scrape the whole roster;\n\
     \u{20}               exit 3 = job finally failed after exhausting retries)\n\
     fleet-status:   --peers A,B,C (required) --metrics --timeout SECS\n\
     \u{20}               (per-peer health table, or one merged peer-labelled\n\
     \u{20}               Prometheus exposition with --metrics)\n\
     fleet-trace:    --peers A,B,C --out FILE (merge every peer's span ring\n\
     \u{20}               into one clock-aligned Chrome trace; open in Perfetto)\n\
     full reference: docs/CLI.md; operations handbook: docs/OPERATIONS.md"
        .to_string()
}

/// A CLI failure: what to print, whether the usage text helps, and the
/// process exit code. Exit codes are part of the interface (docs/CLI.md):
/// `1` = usage/config/tool error, `3` = a submitted job finally failed
/// after exhausting its retries (scripts distinguish "you called it wrong"
/// from "the fleet could not serve this").
struct Failure {
    message: String,
    exit: u8,
    print_usage: bool,
}

impl Failure {
    /// Final submit failure: exit 3, no usage text (the invocation was
    /// fine; the service was not).
    fn submit(message: String) -> Failure {
        Failure {
            message,
            exit: 3,
            print_usage: false,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            message,
            exit: 1,
            print_usage: true,
        }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::from(message.to_string())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            if f.print_usage {
                eprintln!("error: {}\n\n{}", f.message, usage());
            } else {
                eprintln!("error: {}", f.message);
            }
            ExitCode::from(f.exit)
        }
    }
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let args = Args::parse(&argv[1..])?;
    if args.has("no-obs") {
        tq_obs::set_enabled(false);
    }
    if tq_obs::enabled() {
        tq_obs::set_thread_name("main".to_string());
    }
    // Held across the whole subcommand, dropped explicitly before the
    // trace drain below so the top-level span makes it into the export.
    let cmd_span = tq_obs::span_named(format!("tq {cmd}"), "cli");

    match cmd.as_str() {
        "run" => {
            let app = app_for(&args)?;
            let mut vm = app.make_vm()?;
            if let Some(mode) = instr_arg(&args)? {
                vm.set_instr_mode(mode)?;
            }
            let exit = vm.run(None).map_err(|e| e.to_string())?;
            println!(
                "finished: {} instructions, exit {:?}",
                exit.icount, exit.reason
            );
            let mut names = vm.fs().file_names();
            names.sort_unstable();
            for name in names {
                if name != app.input.0 {
                    println!(
                        "{name}: {} bytes",
                        vm.fs().file(name).map(|f| f.len()).unwrap_or(0)
                    );
                }
            }
            if !vm.console().is_empty() {
                println!("console: {}", vm.console().trim_end());
            }
            let s = vm.stats();
            println!(
                "code cache: {} blocks built, {} block executions, {} hits",
                s.blocks_built, s.block_execs, s.cache_hits
            );
            if let Some(info) = vm.instr_info() {
                println!(
                    "instr {}: {:.1}% of instructions covered, {} filtered routine(s)",
                    info.spec,
                    info.coverage() * 100.0,
                    info.filtered.len()
                );
            }
        }
        "capture" => {
            // Record the workload once under the trace recorder and write
            // the encoded capture to disk — the offline artifact every
            // analysis tool can replay.
            let app = app_for(&args)?;
            let out = args
                .get("out")
                .ok_or("capture requires --out FILE (the trace file to write)")?;
            let fuel = match args.u64_or("fuel", 0)? {
                0 => None,
                n => Some(n),
            };
            let mut vm = app.make_vm()?;
            // A reduced-mode capture records fewer memory events and
            // carries its mode metadata in the file's TQIM tail, so every
            // later replay reconstructs with the sampling pattern in hand.
            if let Some(mode) = instr_arg(&args)? {
                vm.set_instr_mode(mode)?;
            }
            let h = vm.attach_tool(Box::new(tq_trace::TraceRecorder::new()));
            match vm.run(fuel) {
                Ok(_) => {}
                // A fuel-bounded capture is still a capture (the service
                // uses the same convention for misbehaving workloads).
                Err(tq_vm::VmError::FuelExhausted { .. }) if fuel.is_some() => {}
                Err(e) => return Err(e.to_string().into()),
            }
            let trace = vm
                .detach_tool::<tq_trace::TraceRecorder>(h)
                .ok_or("internal error: detached tool had unexpected type")?
                .into_trace();
            // The recorder's column blobs are written as they are: later
            // `--capture FILE --jobs N` replays and streaming readers use
            // its chunk index directly.
            trace
                .save_to_path(std::path::Path::new(out))
                .map_err(|e| format!("write {out}: {e}"))?;
            let written = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "capture written to {out}: {} events, {written} bytes ({:.2} B/event), digest {}",
                trace.n_events,
                written as f64 / trace.n_events.max(1) as f64,
                trace.digest()
            );
            if let Some(info) = vm.instr_info() {
                eprintln!(
                    "# instr {}: {:.1}% of instructions covered",
                    info.spec,
                    info.coverage() * 100.0
                );
            }
        }
        "gprof" => {
            let src = source_for(&args)?;
            let interval = args.positive_u64_or("interval", 5_000)?;
            let jobs = args.positive_u64_or("jobs", 1)? as usize;
            let p = run_profiled(
                &src,
                &args,
                jobs,
                GprofTool::new(GprofOptions {
                    sample_interval: interval,
                    track_libs: matches!(lib_policy(&args), LibPolicy::Track),
                    ..Default::default()
                }),
            )?;
            println!("{}", p.into_profile().table("FLAT PROFILE").render());
        }
        "tquad" => {
            let src = source_for(&args)?;
            let interval = args.positive_u64_or("interval", 20_000)?;
            let jobs = args.positive_u64_or("jobs", 1)? as usize;
            let include_stack = !args.has("exclude-stack");
            let profile = run_profiled(
                &src,
                &args,
                jobs,
                TquadTool::new(
                    TquadOptions::default()
                        .with_interval(interval)
                        .with_lib_policy(lib_policy(&args)),
                ),
            )?
            .into_profile();

            let measure = match (args.get("chart").unwrap_or("read"), include_stack) {
                ("read", true) => Measure::ReadIncl,
                ("read", false) => Measure::ReadExcl,
                ("write", true) => Measure::WriteIncl,
                ("write", false) => Measure::WriteExcl,
                (other, _) => return Err(format!("unknown --chart `{other}` (read|write)").into()),
            };
            let kernels: Vec<String> = match args.get("kernels") {
                Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
                None => profile
                    .active_kernels()
                    .iter()
                    .take(10)
                    .map(|k| k.name.clone())
                    .collect(),
            };
            let names: Vec<&str> = kernels.iter().map(|s| s.as_str()).collect();
            let width = args.positive_u64_or("width", 96)? as usize;
            println!(
                "{}",
                figure_chart(&profile, &names, measure, width, None).render()
            );
            println!(
                "{} slices of {} instructions; {} prefetches ignored, {} accesses dropped",
                profile.n_slices(),
                profile.interval,
                profile.prefetches_ignored,
                profile.dropped_accesses
            );
            // Reconstructed profiles must never pass for exact ones
            // (docs/ACCURACY.md): the provenance note rides in the output.
            if let Some(n) = &profile.instr {
                println!(
                    "# instr {}: {:.1}% coverage, {} slice(s) carry-filled, {} measured",
                    n.spec,
                    n.coverage() * 100.0,
                    n.filled_slices,
                    n.measured_slices
                );
            }
        }
        "quad" => {
            let src = source_for(&args)?;
            let include_stack = !args.has("exclude-stack");
            let jobs = args.positive_u64_or("jobs", 1)? as usize;
            let profile = run_profiled(
                &src,
                &args,
                jobs,
                QuadTool::new(QuadOptions {
                    include_stack,
                    lib_policy: lib_policy(&args),
                }),
            )?
            .into_profile();

            let mut t = tq_report::Table::new(format!(
                "QUAD (stack accesses {})",
                if include_stack {
                    "included"
                } else {
                    "excluded"
                }
            ))
            .col("kernel", tq_report::Align::Left)
            .col("IN", tq_report::Align::Right)
            .col("IN UnMA", tq_report::Align::Right)
            .col("OUT", tq_report::Align::Right)
            .col("OUT UnMA", tq_report::Align::Right);
            for r in profile.active_rows() {
                t.row(vec![
                    r.name.clone(),
                    tq_report::n(r.in_bytes),
                    tq_report::n(r.in_unma),
                    tq_report::n(r.out_bytes),
                    tq_report::n(r.out_unma),
                ]);
            }
            println!("{}", t.render());
            if let Some(n) = &profile.instr {
                println!(
                    "# instr {}: byte totals scaled from {:.1}% coverage; \
                     UnMA counts are unscaled lower bounds",
                    n.spec,
                    n.coverage_ppm as f64 / 1e4
                );
            }
            if let Some(path) = args.get("dot") {
                std::fs::write(path, qdu_graph(&profile, 1024).render())
                    .map_err(|e| e.to_string())?;
                println!("QDU graph written to {path}");
            }
        }
        "phases" => {
            let src = source_for(&args)?;
            let interval = args.positive_u64_or("interval", 2_000)?;
            let jobs = args.positive_u64_or("jobs", 1)? as usize;
            let profile = run_profiled(
                &src,
                &args,
                jobs,
                TquadTool::new(
                    TquadOptions::default()
                        .with_interval(interval)
                        .with_lib_policy(lib_policy(&args)),
                ),
            )?
            .into_profile();
            let phases = PhaseDetector::default().detect(&profile);
            println!("{}", phase_table(&profile, &phases).render());
        }
        "intervals" => {
            // "tQUAD is capable of providing the detailed information
            // about the exact time intervals in which a kernel is
            // communicating with the memory." (§V)
            let src = source_for(&args)?;
            let interval = args.positive_u64_or("interval", 2_000)?;
            let gap = args.u64_or("gap", 0)?; // zero gap is meaningful: no interval merging
            let jobs = args.positive_u64_or("jobs", 1)? as usize;
            let profile = run_profiled(
                &src,
                &args,
                jobs,
                TquadTool::new(
                    TquadOptions::default()
                        .with_interval(interval)
                        .with_lib_policy(lib_policy(&args)),
                ),
            )?
            .into_profile();
            let wanted = args.get("kernel");
            for k in profile.active_kernels() {
                if let Some(w) = wanted {
                    if k.name != w {
                        continue;
                    }
                }
                let ivs = profile.activity_intervals(k, !args.has("exclude-stack"), gap);
                println!("{} — {} interval(s):", k.name, ivs.len());
                for iv in ivs.iter().take(40) {
                    println!(
                        "    slices {:>8}-{:<8} ({} slices, {} B, {:.4} B/instr)",
                        iv.start,
                        iv.end,
                        iv.end - iv.start + 1,
                        iv.bytes,
                        iv.bytes as f64 / ((iv.end - iv.start + 1) * interval) as f64
                    );
                }
                if ivs.len() > 40 {
                    println!("    … {} more", ivs.len() - 40);
                }
            }
        }
        "disasm" => {
            let app = app_for(&args)?;
            let program = &app.program;
            let want = args.get("routine");
            for img in &program.images {
                for r in &img.routines {
                    if let Some(w) = want {
                        if r.name != w {
                            continue;
                        }
                    }
                    println!(
                        "{} <{}> ({}):",
                        r.name,
                        img.name,
                        if img.is_main { "main" } else { "library" }
                    );
                    let mut pc = r.start;
                    while pc < r.end {
                        let inst = img.fetch(pc).map_err(|e| e.to_string())?;
                        println!("  {pc:#08x}: {}", tq_isa::disassemble(&inst));
                        pc += tq_isa::INST_BYTES;
                    }
                    println!();
                }
            }
        }
        "serve" => {
            let defaults = ServerConfig::default();
            let config = ServerConfig {
                addr: args.get("addr").unwrap_or(&defaults.addr).to_string(),
                workers: args.positive_u64_or("workers", defaults.workers as u64)? as usize,
                state_dir: args.get("state-dir").map(std::path::PathBuf::from),
                cache_bytes: args.u64_or("cache-mb", defaults.cache_bytes >> 20)? << 20,
                queue_depth: args.positive_u64_or("queue", defaults.queue_depth as u64)? as usize,
                job_timeout: Duration::from_millis(
                    args.positive_u64_or("timeout-ms", defaults.job_timeout.as_millis() as u64)?,
                ),
                capture_fuel: match args.u64_or("capture-fuel", 0)? {
                    0 => None,
                    n => Some(n),
                },
                max_conns: args.positive_u64_or("max-conns", defaults.max_conns as u64)? as usize,
                read_timeout: match args.u64_or(
                    "read-timeout-ms",
                    defaults
                        .read_timeout
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0),
                )? {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                },
                // Fleet membership: `--peers` lists the *other* members'
                // advertised addresses; `--advertise` names this node on
                // the ring when the bind address is not it (port 0, NAT).
                peers: peers_arg(&args),
                advertise: args.get("advertise").map(str::to_string),
                probe_interval: Duration::from_millis(args.positive_u64_or(
                    "probe-interval-ms",
                    defaults.probe_interval.as_millis() as u64,
                )?),
                // 0 disables the slow-job log entirely.
                slow_job_ms: args.u64_or("slow-job-ms", defaults.slow_job_ms)?,
            };
            // Fault plans only arm the long-running service, never the
            // one-shot subcommands: rehearsing failure is a server
            // operator's deliberate act (TQ_FAULTS=... tq serve …).
            if tq_faults::init_from_env()? {
                tq_obs::log::warn(
                    "tq",
                    "faults_armed",
                    &[(
                        "plan",
                        std::env::var("TQ_FAULTS").unwrap_or_default().into(),
                    )],
                );
            }
            let workers = config.workers as u64;
            let cache_mb = config.cache_bytes >> 20;
            let peer_list = config.peers.join(",");
            let server = Server::start(config)?;
            let addr = server.local_addr();
            if !peer_list.is_empty() {
                tq_obs::log::info(
                    "tq",
                    "fleet_member",
                    &[("peers", peer_list.as_str().into())],
                );
            }
            // Startup record on stderr: stdout stays parseable (scripts
            // read the "listening on" line for the bound port).
            tq_obs::log::info(
                "tq",
                "serving",
                &[
                    ("addr", addr.to_string().into()),
                    ("workers", workers.into()),
                    ("cache_mb", cache_mb.into()),
                ],
            );
            println!("tq-profd listening on {addr}");
            println!("stop with: tq submit --addr {addr} --shutdown");
            server.join()?;
            println!("tq-profd stopped");
        }
        "submit" => {
            let default_addr = ServerConfig::default().addr;
            let addr = args.get("addr").unwrap_or(&default_addr);
            let client_defaults = ClientConfig::default();
            // One knob bounds both socket timeouts: connect keeps its
            // short default unless the cap is lower, reads get the full
            // budget (a cold paper-scale job can take minutes).
            let timeout = Duration::from_secs(
                args.positive_u64_or(
                    "timeout",
                    client_defaults
                        .read_timeout
                        .map(|d| d.as_secs())
                        .unwrap_or(630),
                )?,
            );
            // Backoff tuning (satellite knobs over RetryPolicy; the
            // defaults are the service's long-standing behaviour).
            let retry = RetryPolicy {
                fallback_hint_ms: args
                    .positive_u64_or("fallback-hint-ms", RetryPolicy::default().fallback_hint_ms)?,
                backoff_cap: Duration::from_millis(args.positive_u64_or(
                    "backoff-cap-ms",
                    RetryPolicy::default().backoff_cap.as_millis() as u64,
                )?),
            };
            let config = ClientConfig {
                connect_timeout: client_defaults.connect_timeout.min(timeout),
                read_timeout: Some(timeout),
                retry,
            };
            // `--peers a,b,c` switches routing on: jobs go to the ring
            // owner of their content digest, with failover. The fleet
            // member list must match what the servers were started with.
            let peers: Vec<String> = peers_arg(&args);
            if args.has("ping") {
                let mut client = Client::connect_with(addr, config)?;
                let r = client.ping()?;
                println!("{}", r.encode());
            } else if args.has("shutdown") {
                let mut client = Client::connect_with(addr, config)?;
                let r = client.shutdown()?;
                println!("{}", r.encode());
            } else if args.has("stats") {
                // `--peers` makes the query roster-aware: one JSON line
                // per member instead of silently asking a single host.
                if peers.is_empty() {
                    let mut client = Client::connect_with(addr, config)?;
                    println!("{}", client.stats()?.render());
                } else {
                    for st in tq_profd::telemetry::scrape_fleet(&peers, &config) {
                        let mut line = Json::obj([("peer", Json::from(st.addr.as_str()))]);
                        match (st.stats, st.error) {
                            (Some(stats), _) => line.set("stats", stats),
                            (None, err) => line.set(
                                "error",
                                Json::from(err.unwrap_or_else(|| "no answer".into())),
                            ),
                        }
                        println!("{}", line.render());
                    }
                }
            } else if args.has("logs") {
                // The server's bounded log tail, one JSON record per
                // line — the daemon's recent history without touching
                // its stderr.
                let mut client = Client::connect_with(addr, config)?;
                let (level, records) = client.logs_tail()?;
                eprintln!("# level: {level}, {} record(s)", records.len());
                for record in records {
                    println!("{record}");
                }
            } else if args.has("metrics") {
                if peers.is_empty() {
                    let mut client = Client::connect_with(addr, config)?;
                    print!("{}", client.metrics()?);
                } else {
                    // Merged exposition with a `peer` label per sample —
                    // the same document `tq fleet-status --metrics` prints.
                    let scraped: Vec<(String, String)> =
                        tq_profd::telemetry::scrape_fleet(&peers, &config)
                            .into_iter()
                            .filter_map(|st| st.metrics.map(|m| (st.addr, m)))
                            .collect();
                    if scraped.is_empty() {
                        return Err("no fleet member answered a metrics request"
                            .to_string()
                            .into());
                    }
                    print!("{}", tq_profd::telemetry::merge_prometheus(&scraped));
                }
            } else {
                let tool = ToolId::parse(args.get("tool").unwrap_or("tquad"))?;
                let app = AppId::parse(args.get("app").unwrap_or("wfs"))?;
                let scale = Scale::parse(args.get("scale").unwrap_or("tiny"))?;
                let mut spec = JobSpec::new(app, scale, tool);
                spec.interval = args.positive_u64_or("interval", spec.interval)?;
                if args.has("exclude-stack") {
                    spec.stack = StackPolicy::Exclude;
                }
                spec.lib_policy = lib_policy(&args);
                if let Some(instr) = args.get("instr") {
                    // Canonicalise through the parser so equivalent
                    // spellings land on one cache entry server-side.
                    spec.instr = tq_vm::InstrMode::parse(instr)?.to_string();
                }
                if args.has("route") {
                    // Ask the server who owns this job's digest — the
                    // answer is the same from every fleet member.
                    let mut client = Client::connect_with(addr, config)?;
                    let resp = client.request(&Request::Route { spec, job_id: 0 })?;
                    println!("{}", resp.encode());
                    drop(cmd_span);
                    return Ok(());
                }
                let retries = args.u64_or("retries", 0)? as u32;
                let mut trail = RetryTrail::default();
                let outcome = if peers.is_empty() {
                    // A dead server on a job submission is a service
                    // failure (exit 3 with the trail), not a usage error
                    // — fold the connect error into the same path as a
                    // failed submit.
                    match Client::connect_with(addr, config) {
                        Ok(mut client) => client
                            .submit_with_retry_trail(spec, retries, &mut trail)
                            .map(|(profile, cached)| (profile, cached, None)),
                        Err(e) => {
                            trail.attempts += 1;
                            trail.peers_tried.push(addr.to_string());
                            trail.last_error = Some(e.clone());
                            Err(e)
                        }
                    }
                } else {
                    FleetClient::with_config(peers, config)
                        .submit_with_trail(spec, retries, &mut trail)
                        .map(|(profile, cached, served_by)| (profile, cached, Some(served_by)))
                };
                // The full attempt trail as one structured JSON line on
                // stderr — visible under TQ_LOG=debug, silent otherwise.
                tq_obs::log::debug(
                    "tq",
                    "retry_trail",
                    &[("trail", trail.to_json().render().into())],
                );
                match outcome {
                    Ok((profile, cached, served_by)) => {
                        // Profile JSON alone on stdout (byte-identical
                        // cold vs warm); bookkeeping goes to stderr.
                        println!("{}", profile.render());
                        let mut fields = vec![
                            ("job_id", tq_profd::job_id_hex(trail.job_id).into()),
                            ("cached", cached.into()),
                            ("attempts", u64::from(trail.attempts).into()),
                        ];
                        if let Some(by) = &served_by {
                            fields.push(("served_by", by.as_str().into()));
                        }
                        tq_obs::log::info("tq", "submit_done", &fields);
                    }
                    Err(e) => {
                        // Final failure: say what was actually tried, and
                        // exit 3 so scripts can tell a dead/overloaded
                        // service from a bad invocation.
                        tq_obs::log::error(
                            "tq",
                            "submit_failed",
                            &[
                                ("job_id", tq_profd::job_id_hex(trail.job_id).into()),
                                ("trail", trail.describe().into()),
                                ("error", e.as_str().into()),
                            ],
                        );
                        return Err(Failure::submit(e));
                    }
                }
            }
        }
        "fleet-status" => {
            // Scrape stats + metrics from every roster member and render
            // one fleet-level view; a dead peer is a row, not a failure.
            let peers = peers_arg(&args);
            if peers.is_empty() {
                return Err("fleet-status requires --peers A,B,C (the fleet roster)".into());
            }
            let config = fleet_scrape_config(&args)?;
            let statuses = tq_profd::telemetry::scrape_fleet(&peers, &config);
            if args.has("metrics") {
                // Merged Prometheus exposition alone on stdout, every
                // sample labelled peer="addr".
                let scraped: Vec<(String, String)> = statuses
                    .into_iter()
                    .filter_map(|st| st.metrics.map(|m| (st.addr, m)))
                    .collect();
                if scraped.is_empty() {
                    return Err("no fleet member answered a metrics request"
                        .to_string()
                        .into());
                }
                print!("{}", tq_profd::telemetry::merge_prometheus(&scraped));
            } else {
                let mut table = tq_report::Table::new("fleet status")
                    .col("peer", tq_report::Align::Left)
                    .col("state", tq_report::Align::Left)
                    .col("role", tq_report::Align::Left)
                    .col("uptime_s", tq_report::Align::Right)
                    .col("jobs", tq_report::Align::Right)
                    .col("hits", tq_report::Align::Right)
                    .col("misses", tq_report::Align::Right)
                    .col("peek_srv", tq_report::Align::Right)
                    .col("peek_fetch", tq_report::Align::Right)
                    .col("slow", tq_report::Align::Right);
                let mut errors: Vec<(String, String)> = Vec::new();
                for st in statuses {
                    match st.stats {
                        Some(stats) => {
                            // Fleet coordination counters live under the
                            // nested `fleet` object; solo nodes have none.
                            let u = |key: &str| {
                                stats
                                    .get(key)
                                    .or_else(|| stats.get("fleet").and_then(|f| f.get(key)))
                                    .and_then(Json::as_u64)
                                    .map(|v| v.to_string())
                                    .unwrap_or_else(|| "-".into())
                            };
                            let uptime = stats
                                .get("uptime_seconds")
                                .and_then(Json::as_f64)
                                .map(|s| format!("{s:.1}"))
                                .unwrap_or_else(|| "-".into());
                            let role = stats
                                .get("role")
                                .and_then(Json::as_str)
                                .unwrap_or("-")
                                .to_string();
                            table.row(vec![
                                st.addr.clone(),
                                "up".into(),
                                role,
                                uptime,
                                u("jobs_submitted"),
                                u("cache_hits"),
                                u("cache_misses"),
                                u("peek_serves"),
                                u("peek_fetches"),
                                u("slow_jobs"),
                            ]);
                        }
                        None => {
                            table.row(vec![
                                st.addr.clone(),
                                "unreachable".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                            ]);
                            errors.push((st.addr, st.error.unwrap_or_else(|| "no answer".into())));
                        }
                    }
                }
                println!("{}", table.render());
                for (addr, err) in errors {
                    eprintln!("# {addr}: {err}");
                }
            }
        }
        "fleet-trace" => {
            // One merged Chrome trace over every peer's span ring: clock
            // offsets estimated per peer, each peer re-homed under its
            // own pid, spans correlated across hops by args.job_id.
            let peers = peers_arg(&args);
            if peers.is_empty() {
                return Err("fleet-trace requires --peers A,B,C (the fleet roster)".into());
            }
            let out = args
                .get("out")
                .ok_or("fleet-trace requires --out FILE (the merged trace to write)")?;
            let config = fleet_scrape_config(&args)?;
            let doc = tq_profd::telemetry::fetch_merged_trace(&peers, &config)?;
            std::fs::write(out, &doc).map_err(|e| format!("write {out}: {e}"))?;
            println!(
                "fleet trace written to {out} ({} bytes; open in Perfetto or chrome://tracing)",
                doc.len()
            );
        }
        other => return Err(format!("unknown subcommand `{other}`").into()),
    }
    drop(cmd_span);
    if let Some(path) = args.get("trace-out") {
        let doc = tq_obs::drain_chrome_trace();
        std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "# trace: {path} ({} bytes; open in Perfetto or chrome://tracing)",
            doc.len()
        );
    }
    Ok(())
}
