//! Fleet integration tests: real multi-instance servers on loopback.
//!
//! The property under test is the tentpole contract — the consistent-hash
//! ring *shards* the capture cache instead of duplicating it. A job
//! submitted to the wrong node is served there, but the capture is fetched
//! from its ring owner (which records it on demand), so the fleet performs
//! exactly one VM recording per content digest no matter where jobs land.
//! Each reply states the job's layers, and each node's `metrics` render
//! its own `stats`.

use std::net::TcpListener;
use tq_profd::exec::{record_capture, run_tool};
use tq_profd::{
    AppId, Client, FleetClient, JobSpec, Request, RetryTrail, Scale, Server, ServerConfig, ToolId,
    Workload, PEEK_FRAME_BYTES,
};
use tq_report::Json;

/// Reserve `n` distinct loopback addresses: bind ephemeral listeners, note
/// the ports, drop the listeners. The fleet needs every member's address
/// in every roster *before* any server binds, which rules out port 0.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Start one server per address, each configured with the others as peers.
fn start_fleet(addrs: &[String]) -> Vec<Server> {
    addrs
        .iter()
        .map(|addr| {
            let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
            Server::start(ServerConfig {
                addr: addr.clone(),
                workers: 2,
                peers,
                ..ServerConfig::default()
            })
            .expect("fleet member starts")
        })
        .collect()
}

fn spec() -> JobSpec {
    JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad)
}

fn stats_of(addr: &str) -> Json {
    Client::connect(addr)
        .expect("connect for stats")
        .stats()
        .expect("stats")
}

fn u64_at<'a>(j: &'a Json, path: &[&str]) -> u64 {
    let mut cur = j;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}: {j:?}"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("not a u64: {path:?}"))
}

/// The ring owner of `spec()`'s digest and the other member of a
/// two-node fleet.
fn owner_and_non_owner(addrs: &[String]) -> (String, String) {
    let digest = Workload::build(AppId::Wfs, Scale::Tiny).digest();
    let ring = tq_fleet::Ring::new(addrs.to_vec());
    let owner = ring.owner_of(&digest).expect("owner").to_string();
    let non_owner = addrs.iter().find(|a| **a != owner).expect("two nodes");
    (owner, non_owner.clone())
}

fn shutdown_all(addrs: &[String], servers: Vec<Server>) {
    for addr in addrs {
        let _ = Client::connect(addr).and_then(|mut c| c.shutdown());
    }
    for s in servers {
        s.join().expect("clean join");
    }
}

/// The verify.sh smoke, as a test: submit to the *non-owner* of the job's
/// digest and assert exactly one recording happened fleet-wide — on the
/// owner, via the non-owner's peek — with a byte-identical profile.
#[test]
fn non_owner_submit_records_once_fleetwide_via_peek() {
    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);

    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let trace = record_capture(&workload, None).expect("local capture");
    let want = run_tool(&spec(), &trace, 1)
        .expect("fault-free run")
        .render();
    let (owner, non_owner) = owner_and_non_owner(&addrs);

    let mut client = Client::connect(&non_owner).expect("connect non-owner");
    let (profile, cached) = client.submit(spec()).expect("submit to non-owner");
    assert!(!cached, "first submit is not a memo hit");
    assert_eq!(profile.render(), want, "routed profile is byte-identical");

    let owner_stats = stats_of(&owner);
    let non_owner_stats = stats_of(&non_owner);

    // Exactly one recording fleet-wide, and it lives on the owner.
    assert_eq!(
        u64_at(&owner_stats, &["cache_misses"]),
        1,
        "{owner_stats:?}"
    );
    assert_eq!(u64_at(&owner_stats, &["vm_runs"]), 1);
    assert_eq!(u64_at(&owner_stats, &["fleet", "peek_serves"]), 1);
    assert_eq!(
        u64_at(&non_owner_stats, &["cache_misses"]),
        0,
        "non-owner must not record: {non_owner_stats:?}"
    );
    assert_eq!(u64_at(&non_owner_stats, &["vm_runs"]), 0);
    assert_eq!(u64_at(&non_owner_stats, &["fleet", "peek_fetches"]), 1);
    assert_eq!(u64_at(&non_owner_stats, &["fleet", "remote_owned_jobs"]), 1);

    // Both members report their fleet role in stats.
    for stats in [&owner_stats, &non_owner_stats] {
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("fleet"));
    }

    // A repeat on the non-owner is a pure memo hit — still one recording.
    let (profile2, cached2) = client.submit(spec()).expect("repeat submit");
    assert!(cached2, "repeat is memoized");
    assert_eq!(profile2.render(), want);
    assert_eq!(u64_at(&stats_of(&owner), &["vm_runs"]), 1);

    shutdown_all(&addrs, servers);
}

/// Every member answers `route` identically (the ring is deterministic on
/// the shared roster), and exactly one member claims ownership.
#[test]
fn route_answers_agree_across_members() {
    let addrs = reserve_addrs(3);
    let servers = start_fleet(&addrs);

    let mut owners = Vec::new();
    let mut self_claims = 0;
    for addr in &addrs {
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .request(&Request::Route { spec: spec() })
            .expect("route answered");
        assert!(resp.is_ok(), "{resp:?}");
        owners.push(
            resp.0
                .get("owner")
                .and_then(Json::as_str)
                .expect("owner field")
                .to_string(),
        );
        if resp.0.get("is_owner").and_then(Json::as_bool) == Some(true) {
            self_claims += 1;
        }
    }
    assert!(
        owners.windows(2).all(|w| w[0] == w[1]),
        "members disagree on the owner: {owners:?}"
    );
    assert!(addrs.contains(&owners[0]), "owner is a member");
    assert_eq!(self_claims, 1, "exactly one member claims ownership");

    shutdown_all(&addrs, servers);
}

/// `FleetClient` routes straight to the owner: the non-owners never see
/// the job at all (no peeks, no remote-owned serves).
#[test]
fn fleet_client_routes_to_the_owner() {
    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);

    let mut fc = FleetClient::new(addrs.clone());
    let expected_owner = fc.owner_of(&spec()).expect("owner");
    let (_profile, cached, served_by) = fc.submit(spec(), 3).expect("fleet submit");
    assert!(!cached);
    assert_eq!(served_by, expected_owner, "served by the ring owner");

    for addr in &addrs {
        let stats = stats_of(addr);
        let is_owner = *addr == served_by;
        assert_eq!(
            u64_at(&stats, &["vm_runs"]),
            u64::from(is_owner),
            "only the owner records: {stats:?}"
        );
        assert_eq!(u64_at(&stats, &["fleet", "peek_fetches"]), 0);
        assert_eq!(u64_at(&stats, &["fleet", "remote_owned_jobs"]), 0);
    }

    shutdown_all(&addrs, servers);
}

/// A peek delivers the owner's capture in bounded frames: the bytes load
/// as a trace with the owner's own digest, the connection survives the
/// multi-line exchange, and a wrong digest is a clean error.
#[test]
fn peeked_capture_loads_with_the_owners_digest() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let owner_digest = record_capture(&workload, None)
        .expect("local capture")
        .digest();

    let mut client = Client::connect(&addr).expect("connect");
    let bytes = client
        .peek_fetch(AppId::Wfs, Scale::Tiny, &workload.digest())
        .expect("peek")
        .expect("capture found");
    assert!(bytes.len() > PEEK_FRAME_BYTES, "spans several frames");
    assert!(bytes.starts_with(b"TQTRACE"), "framed as a trace");
    let peeked = tq_trace::Trace::load(&mut bytes.as_slice()).expect("peeked capture loads");
    assert_eq!(peeked.digest(), owner_digest);
    assert!(client.ping().expect("ping after peek").is_ok());

    // A miss (wrong digest) is a clean error, not a hang.
    let err = client
        .peek_fetch(AppId::Wfs, Scale::Tiny, "not-a-digest")
        .expect_err("digest mismatch refused");
    assert!(err.contains("mismatch"), "{err}");

    let _ = client.shutdown();
    server.join().expect("clean join");
}

/// A server with no peers serves alone: `role` says so, and there is no
/// `fleet` stats block to mislead dashboards.
#[test]
fn single_node_reports_single_role() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let stats = stats_of(&addr);
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("single"));
    assert!(stats.get("fleet").is_none(), "{stats:?}");
    let _ = Client::connect(&addr).and_then(|mut c| c.shutdown());
    server.join().expect("clean join");
}

/// A routed job states its layers in its reply: the non-owner's cold job
/// peeked the owner's capture and replayed it, inside the job's total; its
/// repeat is a memo hit that replays nothing.
#[test]
fn routed_submit_reply_states_its_layers() {
    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);
    let (owner, non_owner) = owner_and_non_owner(&addrs);

    let mut client = Client::connect(&non_owner).expect("connect non-owner");
    let mut layers = || {
        let mut trail = RetryTrail::default();
        client
            .submit_with_retry_trail(spec(), 0, &mut trail)
            .expect("routed submit");
        assert_eq!(trail.attempts, 1, "{trail:?}");
        assert_eq!(trail.attempt_ms.len(), 1, "one elapsed sample: {trail:?}");
        trail.layers.expect("the reply states its layers")
    };
    // The cold job's debug records (the worker's `job_done`) reach the
    // stderr log and its record counter.
    tq_obs::log::set_level(tq_obs::log::Level::Debug);
    let cold = layers();
    tq_obs::log::set_level(tq_obs::log::Level::Info);
    let us = |key| u64_at(&cold, &[key]);
    assert_eq!(
        cold.get("capture").and_then(Json::as_str),
        Some("peek"),
        "{cold:?}"
    );
    assert!(us("capture_us") > 0, "the peek took time: {cold:?}");
    assert!(us("replay_us") > 0, "the replay took time: {cold:?}");
    assert!(us("shards") >= 1, "{cold:?}");
    assert!(
        us("queue_us") + us("capture_us") + us("replay_us") <= us("total_us"),
        "the layers fit inside the job: {cold:?}"
    );

    let warm = layers();
    assert_eq!(
        warm.get("capture").and_then(Json::as_str),
        Some("memo"),
        "{warm:?}"
    );
    assert_eq!(u64_at(&warm, &["replay_us"]), 0, "{warm:?}");

    assert_eq!(u64_at(&stats_of(&non_owner), &["fleet", "peek_fetches"]), 1);
    assert_eq!(u64_at(&stats_of(&owner), &["fleet", "peek_serves"]), 1);
    let metrics = Client::connect(&non_owner)
        .and_then(|mut c| c.metrics())
        .expect("metrics");
    assert!(
        sample(&metrics, "tq_log_records_total").unwrap_or(0) >= 1,
        "the job's log records are counted"
    );

    shutdown_all(&addrs, servers);
}

/// Value of one counter sample in a Prometheus exposition (exact-name
/// match, label-free samples only).
fn sample(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Every profd and fleet family of the `metrics` exposition, with the
/// `stats` figure it renders.
fn stats_figures(stats: &Json) -> Vec<(&'static str, u64)> {
    let s = |key| u64_at(stats, &[key]);
    let fleet = |key| u64_at(stats, &["fleet", key]);
    let latency_count: u64 = ["tquad", "quad", "gprof", "phases"]
        .iter()
        .map(|tool| u64_at(stats, &["latency", tool, "count"]))
        .sum();
    vec![
        ("tq_profd_jobs_submitted_total", s("jobs_submitted")),
        ("tq_profd_jobs_completed_total", s("jobs_completed")),
        ("tq_profd_jobs_failed_total", s("jobs_failed")),
        ("tq_profd_result_hits_total", s("result_hits")),
        (
            "tq_profd_capture_hits_total",
            s("capture_mem_hits") + s("capture_disk_hits"),
        ),
        ("tq_profd_capture_misses_total", s("vm_runs")),
        ("tq_profd_sheds_total", s("sheds")),
        ("tq_profd_rejects_total", s("rejects")),
        ("tq_profd_retries_observed_total", s("retries_observed")),
        ("tq_profd_queue_depth", s("queue_len")),
        ("tq_profd_faults_injected", s("faults_injected")),
        ("tq_profd_job_micros_count", latency_count),
        ("tq_fleet_peek_serves_total", fleet("peek_serves")),
        (
            "tq_fleet_peek_serve_misses_total",
            fleet("peek_serve_misses"),
        ),
        ("tq_fleet_peek_fetches_total", fleet("peek_fetches")),
        (
            "tq_fleet_peek_fetch_failures_total",
            fleet("peek_fetch_failures"),
        ),
        (
            "tq_fleet_remote_owned_jobs_total",
            fleet("remote_owned_jobs"),
        ),
    ]
}

#[test]
fn each_node_renders_its_own_stats_as_metrics() {
    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);
    let (_, non_owner) = owner_and_non_owner(&addrs);

    // Through the non-owner: a cold job (peeked from the owner), its memo
    // hit, and a retry of another tool.
    let mut client = Client::connect(&non_owner).expect("connect non-owner");
    client.submit(spec()).expect("cold submit");
    client.submit(spec()).expect("memo hit");
    let retry = Request::Submit {
        spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Gprof),
        attempt: 1,
    };
    assert!(client.request(&retry).expect("retried submit").is_ok());

    for addr in &addrs {
        let mut c = Client::connect(addr).expect("connect");
        let before = c.stats().expect("stats");
        let metrics = c.metrics().expect("metrics");
        let after = c.stats().expect("stats");
        for ((name, was), (_, now)) in stats_figures(&before)
            .into_iter()
            .zip(stats_figures(&after))
        {
            let family = name.strip_suffix("_count").unwrap_or(name);
            assert_eq!(
                metrics.matches(&format!("# TYPE {family} ")).count(),
                1,
                "{addr}: {family} appears once"
            );
            let got = sample(&metrics, name).unwrap_or_else(|| panic!("{addr}: no {name}"));
            assert_eq!(was, now, "{addr}: {name} moved while idle");
            assert_eq!(got, was, "{addr}: {name} differs from its stats figure");
        }
        let fetches = sample(&metrics, "tq_fleet_peek_fetches_total").unwrap();
        let serves = sample(&metrics, "tq_fleet_peek_serves_total").unwrap();
        if *addr == non_owner {
            assert_eq!((fetches, serves), (1, 0), "the non-owner fetched");
            assert_eq!(sample(&metrics, "tq_profd_jobs_submitted_total"), Some(3));
            assert_eq!(sample(&metrics, "tq_profd_result_hits_total"), Some(1));
            assert_eq!(sample(&metrics, "tq_profd_retries_observed_total"), Some(1));
        } else {
            assert_eq!((fetches, serves), (0, 1), "the owner served");
            assert_eq!(sample(&metrics, "tq_profd_jobs_submitted_total"), Some(0));
            assert_eq!(sample(&metrics, "tq_profd_capture_misses_total"), Some(1));
        }
    }

    shutdown_all(&addrs, servers);
}
