//! Self-observability of the replay pipeline: a sharded replay under the
//! `tq-obs` layer must export a Chrome trace-event document that (a) is
//! valid JSON by the workspace's own strict parser, (b) contains one named
//! track per shard, and (c) covers the pipeline stages — decode, fork,
//! every shard, merge.
//!
//! The span registry is process-global, so every test here serializes on
//! one mutex and drains the registry before starting.

use std::sync::{Mutex, OnceLock};
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_report::Json;
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{Trace, TraceRecorder};
use tq_vm::{Event, ProgramInfo, RoutineMeta, Tool};

/// Global-state tests must not interleave: spans drain into whichever
/// test gets there first. `lock()` also tolerates poisoning so one failed
/// assertion does not cascade into every later test.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let m = LOCK.get_or_init(|| Mutex::new(()));
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A small seeded trace with enough events and chunks (one per 500
/// records) to give every shard work.
fn synthetic_trace(seed: u64, n_events: usize) -> Trace {
    let mk = |id: u32, name: &str, base: u64| RoutineMeta {
        id: RoutineId(id),
        name: name.into(),
        image: "app".into(),
        main_image: true,
        start: base,
        end: base + 0x100,
    };
    let info = ProgramInfo {
        routines: vec![mk(0, "main", 0x10000), mk(1, "kernel_a", 0x11000)],
        stack_base: 0x3FFF_FF00,
        entry: 0x10000,
    };
    let mut rng = Rng::new(seed);
    let mut rec = TraceRecorder::with_chunk_events(500);
    rec.on_attach(&info);
    let mut icount = 0u64;
    for _ in 0..n_events {
        icount += rng.u64_in(1, 9);
        rec.on_event(&Event::MemWrite {
            ea: 0x1000_0000 + rng.u64_in(0, 4096),
            size: 1 << rng.index(4),
            sp: info.stack_base,
            icount,
            rtn: RoutineId(0),
        });
    }
    rec.on_fini(icount + 1);
    rec.into_trace()
}

/// Run one sharded replay and return the parsed Chrome trace document.
fn sharded_replay_doc(jobs: usize) -> Json {
    tq_obs::set_enabled(true);
    let _ = tq_obs::drain_spans(); // start from a clean registry
    let trace = synthetic_trace(0x0B5, 4_000);
    let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
    trace
        .replay_sharded(&mut tool, jobs)
        .expect("sharded replay");
    let doc = tq_obs::drain_chrome_trace();
    Json::parse(&doc).expect("chrome trace is valid JSON by the strict workspace parser")
}

fn complete_events(doc: &Json) -> Vec<&Json> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect()
}

#[test]
fn sharded_replay_emits_one_span_per_shard_and_all_stages() {
    let _g = lock();
    const JOBS: usize = 4;
    let doc = sharded_replay_doc(JOBS);
    let events = complete_events(&doc);
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for stage in ["replay_sharded", "decode", "fork", "merge"] {
        assert!(
            names.contains(&stage),
            "missing `{stage}` span in {names:?}"
        );
    }
    for shard in 0..JOBS {
        let want = format!("shard-{shard}");
        assert!(
            names.iter().any(|n| **n == want),
            "missing `{want}` span in {names:?}"
        );
    }
}

#[test]
fn shard_spans_land_on_distinct_tracks() {
    let _g = lock();
    const JOBS: usize = 3;
    let doc = sharded_replay_doc(JOBS);
    let events = complete_events(&doc);
    // Each shard span must sit on its own tid: shard-0 replays on the
    // calling thread, every other shard on its own worker.
    let mut shard_tids = Vec::new();
    for shard in 0..JOBS {
        let want = format!("shard-{shard}");
        let tid = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(&want))
            .and_then(|e| e.get("tid"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no tid on `{want}`"));
        assert!(
            !shard_tids.contains(&tid),
            "shard-{shard} shares tid {tid} with an earlier shard"
        );
        shard_tids.push(tid);
    }
    // Worker tracks are named, so Perfetto shows shard-k labels: the
    // metadata events must cover every non-main shard tid.
    let named_tids: Vec<u64> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    for &tid in &shard_tids[1..] {
        assert!(
            named_tids.contains(&tid),
            "worker tid {tid} has no thread_name metadata"
        );
    }
}

#[test]
fn exported_timestamps_are_monotonically_nondecreasing() {
    let _g = lock();
    let doc = sharded_replay_doc(2);
    let ts: Vec<f64> = complete_events(&doc)
        .iter()
        .filter_map(|e| e.get("ts").and_then(Json::as_f64))
        .collect();
    assert!(ts.len() >= 4, "expected several spans, got {}", ts.len());
    for w in ts.windows(2) {
        assert!(
            w[0] <= w[1],
            "ts went backwards: {} then {} in {ts:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn disabled_layer_exports_an_empty_but_valid_document() {
    let _g = lock();
    tq_obs::set_enabled(true);
    let _ = tq_obs::drain_spans();
    tq_obs::set_enabled(false);
    let trace = synthetic_trace(0x0FF, 1_000);
    let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
    trace.replay_sharded(&mut tool, 3).expect("sharded replay");
    let doc = tq_obs::drain_chrome_trace();
    let parsed = Json::parse(&doc).expect("valid JSON even when disabled");
    assert_eq!(
        parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(|a| a.len()),
        Some(0),
        "disabled layer must record nothing"
    );
    tq_obs::set_enabled(true); // leave the layer as other tests expect it
}
