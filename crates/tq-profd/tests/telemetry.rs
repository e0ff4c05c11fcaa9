//! Fleet telemetry integration tests: a live 2-node fleet on loopback.
//!
//! The tentpole contract under test: one routed submit through the
//! non-owner leaves a correlated telemetry picture — the distributed
//! `job_id` tags spans on the wire and in the logs, the `trace`/`logs`
//! endpoints answer with parseable documents, and the `tq_job_*` /
//! `tq_log_*` / `tq_fleet_*` Prometheus series move.
//!
//! Everything here runs in ONE process, so both servers (and the client)
//! share one `tq-obs` registry, span ring and log tail: the `tq_log_*`
//! and span families are process-wide sums. The `tq_profd_*`, `tq_job_*`
//! and `tq_fleet_*` families render each node's own `stats`, so they are
//! per node even here. The true cross-process merge (distinct span rings
//! joined by clock-offset estimation) is proved end-to-end by
//! `scripts/verify.sh`.

use std::net::TcpListener;
use tq_profd::telemetry::{fetch_merged_trace, merge_prometheus};
use tq_profd::{
    job_id_hex, AppId, Client, ClientConfig, JobSpec, RetryTrail, Scale, Server, ServerConfig,
    ToolId, Workload,
};
use tq_report::Json;

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

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

fn shutdown_all(addrs: &[String], servers: Vec<Server>) {
    for addr in addrs {
        let _ = Client::connect(addr).and_then(|mut c| c.shutdown());
    }
    for s in servers {
        s.join().expect("clean join");
    }
}

/// Value of one counter sample in a Prometheus exposition (exact-name
/// match, label-free samples only — the per-process registry emits none).
fn sample(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[test]
fn routed_submit_tags_spans_logs_and_counters_with_one_job_id() {
    tq_obs::set_enabled(true);
    tq_obs::log::set_level(tq_obs::log::Level::Debug);
    tq_obs::log::set_stderr(false);

    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);

    let digest = Workload::build(AppId::Wfs, Scale::Tiny).digest();
    let ring = tq_fleet::Ring::new(addrs.clone());
    let owner = ring.owner_of(&digest).expect("owner").to_string();
    let non_owner = addrs
        .iter()
        .find(|a| **a != owner)
        .expect("two nodes")
        .clone();

    // Route through the NON-owner: the job is served there, the capture
    // is peeked from the owner, and both hops share the minted job_id.
    let mut client = Client::connect(&non_owner).expect("connect non-owner");
    let mut trail = RetryTrail::default();
    let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
    client
        .submit_with_retry_trail(spec, 0, &mut trail)
        .expect("routed submit");

    assert_ne!(trail.job_id, 0, "submission minted a job id");
    assert_eq!(trail.attempts, 1);
    assert_eq!(
        trail.attempt_ms.len(),
        1,
        "one attempt, one elapsed sample: {trail:?}"
    );
    let hex = job_id_hex(trail.job_id);
    assert_eq!(hex.len(), 16, "wire form is fixed-width hex: {hex}");

    // The job_id went over the wire: the non-owner counted a tagged job,
    // not a server-minted one, and fetched the capture the owner served.
    let metrics_of = |addr: &str| {
        Client::connect(addr)
            .expect("connect")
            .metrics()
            .expect("metrics")
    };
    let metrics = metrics_of(&non_owner);
    let owner_metrics = metrics_of(&owner);
    assert_eq!(sample(&metrics, "tq_job_tagged_total"), Some(1));
    assert_eq!(sample(&metrics, "tq_job_minted_total"), Some(0));
    assert_eq!(sample(&owner_metrics, "tq_job_tagged_total"), Some(0));
    assert!(
        sample(&metrics, "tq_log_records_total").unwrap_or(0) >= 1,
        "structured log counter must move"
    );
    assert_eq!(
        sample(&metrics, "tq_fleet_peek_fetches_total"),
        Some(1),
        "routed submit peeks the owner"
    );
    assert_eq!(
        sample(&owner_metrics, "tq_fleet_peek_serves_total"),
        Some(1),
        "owner serves the peek"
    );

    // The logs endpoint answers with parseable JSON-lines records, and
    // the job lifecycle record carries our job_id.
    let (level, records) = Client::connect(&non_owner)
        .expect("connect")
        .logs_tail()
        .expect("logs");
    assert_eq!(level, "debug");
    let mut saw_job_done = false;
    for record in &records {
        let parsed = Json::parse(record).unwrap_or_else(|e| panic!("bad record {record}: {e}"));
        assert!(parsed.get("ts_ns").is_some(), "records are stamped");
        assert!(parsed.get("level").is_some());
        if parsed.get("event").and_then(Json::as_str) == Some("job_done")
            && parsed.get("job_id").and_then(Json::as_str) == Some(hex.as_str())
        {
            saw_job_done = true;
        }
    }
    assert!(
        saw_job_done,
        "a job_done record carries the submission's job_id; got {} records",
        records.len()
    );

    // The trace endpoint answers with a parseable Chrome doc whose job
    // span carries the same correlation key.
    let export = Client::connect(&non_owner)
        .expect("connect")
        .trace_export()
        .expect("trace");
    assert!(export.t1_ns >= export.t0_ns);
    let doc = Json::parse(&export.doc).expect("chrome doc parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let tagged: Vec<&str> = events
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("job_id"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(
        tagged.contains(&hex.as_str()),
        "an exported span carries the job_id ({} tagged spans)",
        tagged.len()
    );

    // The merged fleet trace still carries the key, re-homed per peer.
    let merged = fetch_merged_trace(&addrs, &ClientConfig::default()).expect("merged trace");
    let merged_doc = Json::parse(&merged).expect("merged doc parses");
    let merged_events = merged_doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let process_names: Vec<&str> = merged_events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    for addr in &addrs {
        assert!(
            process_names.contains(&addr.as_str()),
            "every peer gets a named pid track: {process_names:?}"
        );
    }
    assert!(
        merged_events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("job_id"))
                .and_then(Json::as_str)
                == Some(hex.as_str())
        }),
        "merged trace keeps the correlation key"
    );

    // The merged exposition labels every sample with its peer.
    let per_peer: Vec<(String, String)> = addrs
        .iter()
        .map(|addr| {
            let m = Client::connect(addr)
                .expect("connect")
                .metrics()
                .expect("metrics");
            (addr.clone(), m)
        })
        .collect();
    let merged_metrics = merge_prometheus(&per_peer);
    for addr in &addrs {
        assert!(
            merged_metrics.contains(&format!("tq_job_tagged_total{{peer=\"{addr}\"}}")),
            "peer-labelled job counter present for {addr}"
        );
    }
    assert_eq!(
        merged_metrics
            .matches("# TYPE tq_job_tagged_total counter")
            .count(),
        1,
        "headers deduped across peers"
    );

    shutdown_all(&addrs, servers);
}

/// A `stats` value by path.
fn stat(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |j, key| j.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack {path:?}: {}", stats.render()))
}

/// Every profd, job and fleet family of the `metrics` exposition, with
/// the `stats` figure it renders.
fn stats_figures(stats: &Json) -> Vec<(&'static str, u64)> {
    let s = |key| stat(stats, &[key]);
    let fleet = |key| stat(stats, &["fleet", key]);
    let latency_count: u64 = ["tquad", "quad", "gprof", "phases"]
        .iter()
        .map(|tool| stat(stats, &["latency", tool, "count"]))
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
        ("tq_job_tagged_total", s("jobs_tagged")),
        ("tq_job_minted_total", s("jobs_minted")),
        ("tq_job_slow_total", s("slow_jobs")),
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
        ("tq_fleet_redirects_issued_total", fleet("redirects_issued")),
        (
            "tq_fleet_remote_owned_jobs_total",
            fleet("remote_owned_jobs"),
        ),
        ("tq_fleet_probe_rounds_total", fleet("probe_rounds")),
        ("tq_fleet_peers_alive", fleet("peers_alive")),
    ]
}

#[test]
fn each_node_renders_its_own_stats_as_metrics() {
    tq_obs::set_enabled(true);
    tq_obs::log::set_stderr(false);
    let addrs = reserve_addrs(2);
    let servers = start_fleet(&addrs);
    let digest = Workload::build(AppId::Wfs, Scale::Tiny).digest();
    let owner = tq_fleet::Ring::new(addrs.clone())
        .owner_of(&digest)
        .expect("owner")
        .to_string();
    let non_owner = addrs.iter().find(|a| **a != owner).expect("two nodes");

    // Through the non-owner: a tagged cold job (peeked from the owner),
    // its memo hit, and an untagged retry of another tool.
    let mut client = Client::connect(non_owner).expect("connect non-owner");
    let spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
    let mut trail = RetryTrail::default();
    client
        .submit_with_retry_trail(spec.clone(), 0, &mut trail)
        .expect("tagged submit");
    client
        .submit_with_retry_trail(spec, 0, &mut RetryTrail::default())
        .expect("memo hit");
    let untagged = tq_profd::Request::Submit {
        spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Gprof),
        attempt: 1,
        job_id: 0,
    };
    assert!(client.request(&untagged).expect("untagged submit").is_ok());

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
            if name == "tq_fleet_probe_rounds_total" {
                // The prober ticks on its own clock between the reads.
                assert!(
                    was <= got && got <= now,
                    "{addr}: {name} {was}..{now}, got {got}"
                );
            } else {
                assert_eq!(was, now, "{addr}: {name} moved while idle");
                assert_eq!(got, was, "{addr}: {name} differs from its stats figure");
            }
        }
        let fetches = sample(&metrics, "tq_fleet_peek_fetches_total").unwrap();
        let serves = sample(&metrics, "tq_fleet_peek_serves_total").unwrap();
        if addr == non_owner {
            assert_eq!((fetches, serves), (1, 0), "the non-owner fetched");
            assert_eq!(sample(&metrics, "tq_profd_jobs_submitted_total"), Some(3));
            assert_eq!(sample(&metrics, "tq_profd_result_hits_total"), Some(1));
            assert_eq!(sample(&metrics, "tq_job_tagged_total"), Some(2));
            assert_eq!(sample(&metrics, "tq_job_minted_total"), Some(1));
            assert_eq!(sample(&metrics, "tq_profd_retries_observed_total"), Some(1));
        } else {
            assert_eq!((fetches, serves), (0, 1), "the owner served");
            assert_eq!(sample(&metrics, "tq_profd_jobs_submitted_total"), Some(0));
            assert_eq!(sample(&metrics, "tq_profd_capture_misses_total"), Some(1));
        }
    }

    shutdown_all(&addrs, servers);
}
