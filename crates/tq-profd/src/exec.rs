//! Job execution: capture on a cold workload, replay for every tool.
//!
//! [`record_capture`] is the only function in the service that runs the VM
//! interpreter; everything else is offline replay of the recorded event
//! stream. [`run_tool`] dispatches a [`JobSpec`] over a capture and renders
//! the resulting profile as canonical JSON — the object the server
//! memoizes, so its key order must be deterministic (it is: `tq_report`'s
//! `Json` objects keep insertion order, and every list below is emitted in
//! a sorted or index order, never hash order).

use crate::apps::Workload;
use crate::protocol::{JobSpec, ToolId};
use tq_gprof::{FlatProfile, GprofOptions, GprofTool};
use tq_quad::{QuadOptions, QuadProfile, QuadTool};
use tq_report::Json;
use tq_tquad::{profile_json, LibPolicy, PhaseDetector, TquadOptions, TquadTool};
use tq_trace::{Trace, TraceRecorder};

/// Run the workload under the trace recorder — the one VM execution a
/// content address ever needs. `fuel` bounds the run (a misbehaving
/// workload must not wedge a worker forever).
pub fn record_capture(workload: &Workload, fuel: Option<u64>) -> Result<Trace, String> {
    let _span = tq_obs::span("capture", "vm");
    let mut vm = workload.make_vm()?;
    let h = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(fuel)
        .map_err(|e| format!("capture run failed: {e}"))?;
    // The recorder builds the chunk index as it records, so every later
    // analysis of this capture shards without a rescan (the index persists
    // through the disk tier, and the content digest ignores it).
    let rec = vm
        .detach_tool::<TraceRecorder>(h)
        .ok_or("trace recorder lost its handle")?;
    Ok(rec.into_trace())
}

/// Replay `trace` under the job's tool and render the profile as canonical
/// JSON. Pure function of `(spec, trace)` — the basis of result memoizing:
/// `n_jobs` shards the replay across threads but never changes the output
/// (sharded partials reduce to the byte-identical sequential profile), so
/// it is deliberately *not* part of the memo key.
pub fn run_tool(spec: &JobSpec, trace: &Trace, n_jobs: usize) -> Result<Json, String> {
    // Fault rehearsal: an artificially slow replay is the chaos tests'
    // lever for forcing queue pressure; free when no plan is installed.
    if tq_faults::sleep_if(tq_faults::FaultPoint::SlowReplay) {
        tq_obs::log::warn(
            "tq-profd",
            "fault_fired",
            &[("point", tq_faults::FaultPoint::SlowReplay.key().into())],
        );
    }
    let mode = tq_vm::InstrMode::parse(&spec.instr)?;
    match spec.tool {
        ToolId::Tquad => {
            let profile = replay_tquad(spec, trace, &mode, n_jobs)?;
            Ok(profile_json(&profile))
        }
        ToolId::Quad => {
            let tool = QuadTool::new(QuadOptions {
                include_stack: spec.stack.include(),
                lib_policy: spec.lib_policy,
            });
            Ok(quad_json(
                &replay_with_mode(trace, tool, &mode, n_jobs)?.into_profile(),
            ))
        }
        ToolId::Gprof => {
            if spec.interval == 0 {
                return Err("gprof requires a positive `interval`".into());
            }
            let tool = GprofTool::new(GprofOptions {
                sample_interval: spec.interval,
                track_libs: matches!(spec.lib_policy, LibPolicy::Track),
                ..Default::default()
            });
            Ok(gprof_json(
                &replay_with_mode(trace, tool, &mode, n_jobs)?.into_profile(),
            ))
        }
        ToolId::Phases => {
            let profile = replay_tquad(spec, trace, &mode, n_jobs)?;
            let detector = PhaseDetector {
                include_stack: spec.stack.include(),
                ..PhaseDetector::default()
            };
            let phases = detector.detect(&profile);
            Ok(phases_json(&profile, &phases))
        }
    }
}

/// Drive `tool` over the capture. Full-instrumentation jobs shard across
/// `n_jobs` replay threads; reduced-mode jobs feed the events through the
/// sequential [`tq_vm::InstrEmulator`] instead — the gate is one state
/// machine over the whole stream, so those replays cannot shard, and the
/// result is byte-identical to a live `--instr` run of the same mode.
fn replay_with_mode<T: tq_vm::MergeTool + 'static>(
    trace: &Trace,
    mut tool: T,
    mode: &tq_vm::InstrMode,
    n_jobs: usize,
) -> Result<T, String> {
    if mode.is_full() {
        trace
            .replay_sharded(&mut tool, n_jobs)
            .map_err(|e| format!("replay failed: {e:?}"))?;
        Ok(tool)
    } else {
        let mut emu = tq_vm::InstrEmulator::new(tool, mode.clone());
        trace
            .replay(&mut emu)
            .map_err(|e| format!("replay failed: {e:?}"))?;
        emu.finish()
    }
}

fn replay_tquad(
    spec: &JobSpec,
    trace: &Trace,
    mode: &tq_vm::InstrMode,
    n_jobs: usize,
) -> Result<tq_tquad::TquadProfile, String> {
    if spec.interval == 0 {
        return Err(format!(
            "{} requires a positive `interval`",
            spec.tool.as_str()
        ));
    }
    let tool = TquadTool::new(
        TquadOptions::default()
            .with_interval(spec.interval)
            .with_lib_policy(spec.lib_policy),
    );
    Ok(replay_with_mode(trace, tool, mode, n_jobs)?.into_profile())
}

fn quad_json(p: &QuadProfile) -> Json {
    let name_of = |rtn: tq_isa::RoutineId| {
        p.rows
            .get(rtn.idx())
            .map(|r| r.name.as_str())
            .unwrap_or("?")
    };
    let rows: Vec<Json> = p
        .rows
        .iter()
        .filter(|r| r.in_bytes > 0 || r.out_bytes > 0 || r.checked_accesses > 0)
        .map(|r| {
            Json::obj([
                ("rtn", Json::from(u64::from(r.rtn.0))),
                ("name", Json::from(r.name.as_str())),
                ("main_image", Json::from(r.main_image)),
                ("in_bytes", Json::from(r.in_bytes)),
                ("in_unma", Json::from(r.in_unma)),
                ("out_bytes", Json::from(r.out_bytes)),
                ("out_unma", Json::from(r.out_unma)),
                ("checked_accesses", Json::from(r.checked_accesses)),
                ("traced_accesses", Json::from(r.traced_accesses)),
            ])
        })
        .collect();
    // Bindings come out of a hash map: sort for a canonical rendering.
    let mut bindings: Vec<_> = p.bindings.iter().collect();
    bindings.sort_by_key(|b| (b.producer.0, b.consumer.0));
    let bindings: Vec<Json> = bindings
        .into_iter()
        .map(|b| {
            Json::obj([
                ("producer", Json::from(name_of(b.producer))),
                ("consumer", Json::from(name_of(b.consumer))),
                ("bytes", Json::from(b.bytes)),
                ("unma", Json::from(b.unma)),
            ])
        })
        .collect();
    Json::obj([
        ("include_stack", Json::from(p.include_stack)),
        ("rows", Json::from(rows)),
        ("bindings", Json::from(bindings)),
    ])
}

fn gprof_json(p: &FlatProfile) -> Json {
    let rows: Vec<Json> = p
        .rows
        .iter()
        .filter(|r| r.self_samples > 0 || r.cum_samples > 0 || r.calls > 0)
        .map(|r| {
            Json::obj([
                ("rtn", Json::from(u64::from(r.rtn.0))),
                ("name", Json::from(r.name.as_str())),
                ("self_samples", Json::from(r.self_samples)),
                ("cum_samples", Json::from(r.cum_samples)),
                ("calls", Json::from(r.calls)),
            ])
        })
        .collect();
    let mut edges: Vec<_> = p.edges.iter().collect();
    edges.sort_by_key(|e| (e.caller.0, e.callee.0));
    let edges: Vec<Json> = edges
        .into_iter()
        .map(|e| {
            Json::obj([
                ("caller", Json::from(e.caller_name.as_str())),
                ("callee", Json::from(e.callee_name.as_str())),
                ("count", Json::from(e.count)),
            ])
        })
        .collect();
    Json::obj([
        ("sample_interval", Json::from(p.sample_interval)),
        ("total_samples", Json::from(p.total_samples)),
        ("rows", Json::from(rows)),
        ("edges", Json::from(edges)),
    ])
}

fn phases_json(profile: &tq_tquad::TquadProfile, phases: &[tq_tquad::Phase]) -> Json {
    let items: Vec<Json> = phases
        .iter()
        .map(|ph| {
            let kernels: Vec<Json> = ph
                .kernels
                .iter()
                .map(|&id| {
                    Json::from(
                        profile
                            .kernels
                            .get(id.idx())
                            .map(|k| k.name.as_str())
                            .unwrap_or("?"),
                    )
                })
                .collect();
            Json::obj([
                ("start", Json::from(ph.span.0)),
                ("end", Json::from(ph.span.1)),
                ("slices", Json::from(ph.len())),
                ("kernels", Json::from(kernels)),
            ])
        })
        .collect();
    Json::obj([
        ("interval", Json::from(profile.interval)),
        ("n_slices", Json::from(profile.n_slices())),
        ("n_phases", Json::from(items.len())),
        ("phases", Json::from(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppId, Scale};
    use crate::protocol::StackPolicy;

    fn tiny_capture() -> (Workload, Trace) {
        let w = Workload::build(AppId::Wfs, Scale::Tiny);
        let t = record_capture(&w, None).expect("capture");
        (w, t)
    }

    #[test]
    fn every_tool_replays_and_renders() {
        let (_, trace) = tiny_capture();
        for tool in [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases] {
            let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, tool);
            let json = run_tool(&spec, &trace, 1).unwrap_or_else(|e| panic!("{tool:?}: {e}"));
            let line = json.render();
            assert!(!line.is_empty());
            // Canonical: render ∘ parse ∘ render is the identity.
            assert_eq!(Json::parse(&line).expect("reparse").render(), line);
        }
    }

    #[test]
    fn replay_is_deterministic_per_spec() {
        let (_, trace) = tiny_capture();
        let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Quad);
        let a = run_tool(&spec, &trace, 1).unwrap().render();
        let b = run_tool(&spec, &trace, 1).unwrap().render();
        assert_eq!(a, b, "same spec, same capture, same bytes");
    }

    #[test]
    fn sharded_replay_renders_identical_json() {
        // n_jobs must be invisible in the output — that is what makes it
        // safe to leave out of the result-memo key.
        let (_, trace) = tiny_capture();
        for tool in [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases] {
            let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, tool);
            let seq = run_tool(&spec, &trace, 1).unwrap().render();
            for jobs in [2, 4] {
                let sharded = run_tool(&spec, &trace, jobs).unwrap().render();
                assert_eq!(seq, sharded, "{tool:?} with {jobs} shards");
            }
        }
    }

    #[test]
    fn variants_change_the_answer() {
        let (_, trace) = tiny_capture();
        let base = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Quad);
        let with_stack = run_tool(&base, &trace, 1).unwrap().render();
        let without = run_tool(
            &JobSpec {
                stack: StackPolicy::Exclude,
                ..base.clone()
            },
            &trace,
            1,
        )
        .unwrap()
        .render();
        assert_ne!(
            with_stack, without,
            "stack policy is visible in the profile"
        );
    }

    #[test]
    fn all_routines_filter_is_byte_identical_to_full() {
        let (_, trace) = tiny_capture();
        for tool in [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases] {
            let full = JobSpec::new(AppId::Wfs, Scale::Tiny, tool);
            let filtered = JobSpec {
                instr: "filter:*".into(),
                ..full.clone()
            };
            // `filter:*` is observationally full — the emulator is never
            // engaged, so even the (absent) instr note matches.
            assert_eq!(
                run_tool(&full, &trace, 1).unwrap().render(),
                run_tool(&filtered, &trace, 1).unwrap().render(),
                "{tool:?}"
            );
        }
    }

    #[test]
    fn reduced_modes_note_their_spec_and_change_the_series() {
        let (_, trace) = tiny_capture();
        let full = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
        let sampled = JobSpec {
            instr: "sample:4/20000@7".into(),
            ..full.clone()
        };
        let a = run_tool(&full, &trace, 1).unwrap().render();
        let b = run_tool(&sampled, &trace, 1).unwrap().render();
        assert_ne!(a, b, "a sampled profile is a different answer");
        assert!(!a.contains("\"instr\""), "full profiles carry no note");
        let note = Json::parse(&b).unwrap();
        let note = note.get("instr").expect("sampled profiles carry a note");
        assert_eq!(note.get("spec").unwrap().as_str(), Some("sample:4/20000@7"));
        assert!(note.get("coverage_ppm").unwrap().as_u64().unwrap() < 1_000_000);
        // Deterministic: same spec, same capture, same bytes (the basis
        // of memoising reduced jobs like any other).
        assert_eq!(b, run_tool(&sampled, &trace, 1).unwrap().render());
    }

    #[test]
    fn gprof_is_exact_under_slice_gating() {
        // Only memory events are gated; gprof never looks at them, so its
        // output is byte-identical under sampling.
        let (_, trace) = tiny_capture();
        let full = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Gprof);
        let baseline = run_tool(&full, &trace, 1).unwrap().render();
        let job = JobSpec {
            instr: "sample:4/20000@7".into(),
            ..full.clone()
        };
        assert_eq!(baseline, run_tool(&job, &trace, 1).unwrap().render());
    }

    #[test]
    fn unknown_filter_routine_is_an_error() {
        let (_, trace) = tiny_capture();
        let job = JobSpec {
            instr: "filter:no_such_routine".into(),
            ..JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Quad)
        };
        let err = run_tool(&job, &trace, 1).unwrap_err();
        assert!(err.contains("no_such_routine"), "{err}");
    }

    #[test]
    fn zero_interval_is_an_error_not_a_panic() {
        let (_, trace) = tiny_capture();
        let mut spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
        spec.interval = 0;
        assert!(run_tool(&spec, &trace, 1).is_err());
        assert!(run_tool(&spec, &trace, 4).is_err());
        spec.tool = ToolId::Gprof;
        assert!(run_tool(&spec, &trace, 1).is_err());
    }
}
