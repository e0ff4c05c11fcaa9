//! End-to-end service tests: a real server on an ephemeral port, real TCP
//! clients, and the capture/replay determinism guarantees the service is
//! built on.

use std::path::PathBuf;
use tq_profd::exec::{record_capture, run_tool};
use tq_profd::{
    AppId, Client, JobSpec, Request, RetryTrail, Scale, Server, ServerConfig, StackPolicy, ToolId,
    Workload,
};
use tq_report::Json;

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tq-profd-test-{tag}-{}", std::process::id()))
}

fn start(state_dir: Option<PathBuf>) -> (Server, String) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        state_dir,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {key}"))
}

/// The ISSUE's acceptance path: submit the same tquad job twice; the warm
/// response is byte-identical, flagged as cached, and the VM ran once.
#[test]
fn warm_submit_is_byte_identical_cache_hit() {
    let (server, addr) = start(None);
    let mut client = Client::connect(&addr).expect("connect");

    assert!(client.ping().expect("ping").is_ok());

    let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
    let cold = client
        .request(&Request::Submit {
            spec: spec.clone(),
            attempt: 0,
        })
        .expect("cold submit");
    assert!(cold.is_ok(), "{:?}", cold.error());
    assert_eq!(cold.0.get("cached").and_then(Json::as_bool), Some(false));

    let warm = client
        .request(&Request::Submit { spec, attempt: 0 })
        .expect("warm submit");
    assert!(warm.is_ok());
    assert_eq!(warm.0.get("cached").and_then(Json::as_bool), Some(true));

    let cold_profile = cold.0.get("profile").expect("profile").render();
    let warm_profile = warm.0.get("profile").expect("profile").render();
    assert_eq!(
        cold_profile, warm_profile,
        "cold and warm profiles are byte-identical"
    );
    assert!(!cold_profile.is_empty());

    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "vm_runs"),
        1,
        "the warm job did not re-run the VM"
    );
    assert!(
        stat(&stats, "result_hits") >= 1,
        "stats report at least one cache hit"
    );
    assert_eq!(stat(&stats, "jobs_completed"), 2);

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// Different tool variants against one workload share a single capture:
/// vm_runs stays at 1 while every tool answers, and each reply's layers
/// say where its capture came from.
#[test]
fn one_capture_serves_every_tool() {
    let (server, addr) = start(None);
    let mut client = Client::connect(&addr).expect("connect");

    for (i, tool) in [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases]
        .into_iter()
        .enumerate()
    {
        let mut trail = RetryTrail::default();
        let (profile, _) = client
            .submit_with_retry_trail(JobSpec::new(AppId::Wfs, Scale::Tiny, tool), 0, &mut trail)
            .expect("submit");
        assert!(!profile.render().is_empty(), "{tool:?} produced a profile");
        let layer = |k| trail.layers.as_ref().and_then(|l| l.get(k)).cloned();
        let want = if i == 0 { "recorded" } else { "memory" };
        let capture = layer("capture");
        assert_eq!(
            capture.as_ref().and_then(Json::as_str),
            Some(want),
            "{tool:?}"
        );
        let shards = layer("shards").and_then(|j| j.as_u64());
        assert!(matches!(shards, Some(1..=2)), "{tool:?}: shards {shards:?}");
    }
    // A reduced-instrumentation replay runs through the sequential gate
    // emulator, so it reports one shard however many workers are idle.
    let mut trail = RetryTrail::default();
    let spec = JobSpec {
        instr: "sample:8".into(),
        ..JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad)
    };
    client
        .submit_with_retry_trail(spec, 0, &mut trail)
        .expect("reduced submit");
    let layers = trail.layers.as_ref().expect("layers");
    assert_eq!(layers.get("capture").and_then(Json::as_str), Some("memory"));
    assert_eq!(layers.get("shards").and_then(Json::as_u64), Some(1));
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "vm_runs"), 1);
    assert_eq!(stat(&stats, "capture_mem_hits"), 4);
    assert_eq!(stat(&stats, "reduced_jobs"), 1);

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// Concurrent clients racing on a cold workload still trigger exactly one
/// VM run (single-flight capture recording).
#[test]
fn concurrent_cold_clients_single_capture() {
    let (server, addr) = start(None);

    let profiles = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let spec = JobSpec {
                        // Distinct intervals: no result-memo sharing, only
                        // capture sharing.
                        interval: 10_000 + 1_000 * i,
                        ..JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad)
                    };
                    client.submit(spec).expect("submit").0.render()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect::<Vec<_>>()
    });
    assert_eq!(profiles.len(), 4);

    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "vm_runs"),
        1,
        "one capture for four racing clients"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// Malformed and invalid requests get error responses, and the connection
/// survives to serve the next request.
#[test]
fn errors_do_not_kill_the_connection() {
    let (server, addr) = start(None);
    let mut client = Client::connect(&addr).expect("connect");

    use std::io::{BufRead, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    for bad in [
        "this is not json",
        r#"{"type":"submit"}"#,
        r#"{"type":"submit","tool":"x"}"#,
    ] {
        raw.write_all(format!("{bad}\n").as_bytes()).expect("send");
        raw.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let resp = tq_profd::Response::decode(&line).expect("decodes");
        assert!(!resp.is_ok(), "`{bad}` must fail");
        assert!(resp.error().is_some());
    }
    // Same raw connection still answers a good request.
    raw.write_all(b"{\"type\":\"ping\"}\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert!(tq_profd::Response::decode(&line).expect("decodes").is_ok());

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// A server restarted over the same state directory serves the workload
/// from the disk tier: byte-identical profile, zero VM runs.
#[test]
fn disk_tier_survives_restart() {
    let dir = test_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new(AppId::Img, Scale::Tiny, ToolId::Quad);

    let (server, addr) = start(Some(dir.clone()));
    let mut client = Client::connect(&addr).expect("connect");
    let (first, _) = client.submit(spec.clone()).expect("cold submit");
    client.shutdown().expect("shutdown");
    server.join().expect("clean join");

    let (server, addr) = start(Some(dir.clone()));
    let mut client = Client::connect(&addr).expect("connect");
    let (second, _) = client.submit(spec).expect("warm-from-disk submit");
    let stats = client.stats().expect("stats");
    assert_eq!(
        first.render(),
        second.render(),
        "profile identical across restarts"
    );
    assert_eq!(
        stat(&stats, "vm_runs"),
        0,
        "restart served from disk, no VM run"
    );
    assert_eq!(stat(&stats, "capture_disk_hits"), 1);
    client.shutdown().expect("shutdown");
    server.join().expect("clean join");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Determinism at the layer below the service: a capture saved to disk and
/// loaded back replays to exactly the profile of a live run.
#[test]
fn replayed_capture_equals_live_run() {
    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let live = record_capture(&workload, None).expect("capture");

    let dir = test_dir("determinism");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("capture.bin");
    live.save_to_path(&path).expect("save");
    let restored = tq_trace::Trace::load_from_path(&path).expect("load");
    assert_eq!(restored.digest(), live.digest());

    for tool in [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases] {
        let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, tool);
        let from_live = run_tool(&spec, &live, 1).expect("live replay").render();
        let from_disk = run_tool(&spec, &restored, 1).expect("disk replay").render();
        assert_eq!(
            from_live, from_disk,
            "{tool:?} profile differs after save/load"
        );
    }

    // And a second capture of the same deterministic workload digests the
    // same — the content address is stable across recordings.
    let again = record_capture(&workload, None).expect("capture again");
    assert_eq!(again.digest(), live.digest());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Submitting with stack excluded changes quad's profile (the option is
/// honoured end to end), while repeating each variant stays memoized.
#[test]
fn stack_option_propagates_through_the_service() {
    let (server, addr) = start(None);
    let mut client = Client::connect(&addr).expect("connect");

    let base = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Quad);
    let (with_stack, _) = client.submit(base.clone()).expect("submit incl");
    let (without, _) = client
        .submit(JobSpec {
            stack: StackPolicy::Exclude,
            ..base.clone()
        })
        .expect("submit excl");
    assert_ne!(with_stack.render(), without.render());

    let (repeat, cached) = client.submit(base).expect("repeat");
    assert!(cached);
    assert_eq!(repeat.render(), with_stack.render());

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// An oversized request line (a hostile or broken client streaming bytes
/// with no newline) gets a clean error response and a closed connection —
/// the server neither buffers it unboundedly nor hangs a worker.
#[test]
fn oversized_request_line_is_rejected_cleanly() {
    let (server, addr) = start(None);

    use std::io::{BufRead, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    // Well past the 64 KiB cap, in one line. The server stops reading at
    // the cap and hangs up, so these writes may themselves fail with a
    // reset — that is the "close" half of the contract, not a test bug.
    let blob = "x".repeat(96 * 1024);
    let sent = raw
        .write_all(blob.as_bytes())
        .and_then(|()| raw.write_all(b"\n"))
        .and_then(|()| raw.flush());
    let mut line = String::new();
    match (sent, reader.read_line(&mut line)) {
        // Best case: the error reply survived the teardown race.
        (Ok(()), Ok(n)) if n > 0 => {
            let resp = tq_profd::Response::decode(&line).expect("decodes");
            assert!(!resp.is_ok(), "oversized line must fail");
            assert!(
                resp.error().unwrap_or("").contains("exceeds"),
                "error names the cap: {:?}",
                resp.error()
            );
        }
        // Otherwise the server closed on us (EOF or RST while our unread
        // bytes were still in flight). Equally acceptable: the request was
        // refused without buffering it, and crucially without hanging.
        (_, Ok(_)) | (_, Err(_)) => {}
    }

    // And the service is still healthy for everyone else.
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.ping().expect("ping").is_ok());
    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// A client that disconnects mid-request (partial line, no newline) must
/// not wedge anything: the connection thread exits and the service keeps
/// answering.
#[test]
fn mid_request_disconnect_leaves_service_healthy() {
    let (server, addr) = start(None);

    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(br#"{"type":"sub"#).expect("partial send");
        raw.flush().expect("flush");
        // Drop: closes the socket with the request line unterminated.
    }
    // A fresh client gets served immediately — no worker was consumed by
    // the partial request, no lock is stuck.
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.ping().expect("ping").is_ok());
    let (profile, _) = client
        .submit(JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Gprof))
        .expect("submit after disconnect");
    assert!(!profile.render().is_empty());

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// The `metrics` request returns Prometheus-style text exposition carrying
/// counters, gauges and histograms, and the stats snapshot reports cache
/// hit/miss counts, live queue depth and uptime.
#[test]
fn metrics_exposition_and_stats_fields() {
    let (server, addr) = start(None);
    let mut client = Client::connect(&addr).expect("connect");

    let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Gprof);
    client.submit(spec.clone()).expect("cold submit");
    client.submit(spec).expect("warm submit");

    let text = client.metrics().expect("metrics");
    for needle in [
        "# TYPE tq_profd_jobs_submitted_total counter",
        "# TYPE tq_profd_queue_depth gauge",
        "# TYPE tq_profd_job_micros histogram",
        "tq_profd_job_micros_bucket{le=\"+Inf\"}",
        "tq_profd_job_micros_count",
        "# TYPE tq_profd_uptime_seconds gauge",
        "tq_obs_spans_dropped_total",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "cache_hits") >= 1, "warm job counted as a hit");
    assert_eq!(stat(&stats, "cache_misses"), stat(&stats, "vm_runs"));
    assert_eq!(stat(&stats, "queue_len"), 0, "queue drained");
    let _ = stat(&stats, "busy_workers");
    assert!(
        stats.get("uptime_seconds").and_then(Json::as_f64).is_some(),
        "uptime_seconds present"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}
