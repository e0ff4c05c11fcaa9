//! Chaos and overload tests: a real server with a seeded `tq-faults` plan
//! installed in-process. The contract under test is the ISSUE's acceptance
//! bar — every submitted job terminates with either a profile that is
//! byte-identical to the fault-free output or an explicit error/busy
//! response; nothing hangs and no reply is dropped.
//!
//! The fault plan is process-global, so these tests serialize on a mutex
//! and always clear the plan on exit (panic included) via a drop guard.

use std::sync::Mutex;
use std::time::Duration;
use tq_faults::{FaultPlan, FaultPoint};
use tq_profd::exec::{record_capture, run_tool};
use tq_profd::{
    AppId, Client, ClientConfig, FleetClient, JobSpec, RetryTrail, Scale, Server, ServerConfig,
    ToolId, Workload,
};
use tq_report::Json;

/// Serializes the tests sharing the global fault plan.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Clears the installed plan when the test ends, pass or fail.
struct PlanGuard;
impl Drop for PlanGuard {
    fn drop(&mut self) {
        tq_faults::clear();
    }
}

fn start(config: ServerConfig) -> (Server, String) {
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// A distinct-but-same-capture job: varying the slice interval changes the
/// result-memo key without needing a new workload capture.
fn spec_n(n: u64) -> JobSpec {
    let mut spec = JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad);
    spec.interval = 1000 + n;
    spec
}

/// Fault-free expected profile for `spec`, computed below the service
/// layer. Must be called with no fault plan installed.
fn expected_profile(trace: &tq_trace::Trace, spec: &JobSpec) -> String {
    assert!(!tq_faults::active(), "expected profiles need a clean plan");
    run_tool(spec, trace, 1)
        .expect("fault-free run_tool")
        .render()
}

/// Poll `cond` until it holds or `limit` passes (then panic).
fn wait_for(limit: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + limit;
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "condition not reached within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reserve `n` distinct loopback addresses (bind port 0, note, drop) so a
/// fixed roster can be handed to every member before any server binds.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Queue-full submissions are answered immediately with `busy` and a
/// `retry_after_ms` hint, and `Client::submit_with_retry` rides the hint
/// to an eventual success.
#[test]
fn queue_full_yields_busy_and_retry_succeeds() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard;
    tq_faults::clear();

    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let trace = record_capture(&workload, None).expect("capture");
    let want = expected_profile(&trace, &spec_n(3));

    let (server, addr) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });

    // Warm the capture cache so the gate below only holds replay, not
    // the recording single-flight.
    let mut client = Client::connect(&addr).expect("connect");
    client.submit(spec_n(0)).expect("warm capture");

    // From here on every replay holds at a shut gate: one job pins the
    // worker, one fills the queue, and the third must be shed. Both
    // states are stable until the gate is released, so polling for them
    // cannot miss a window.
    tq_faults::install(FaultPlan::seeded(42).with_gate(FaultPoint::SlowReplay));
    let occupant = |n: u64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.submit(spec_n(n))
        })
    };
    let stat = |key: &str| {
        Client::connect(&addr)
            .expect("connect for stats")
            .stats()
            .expect("stats")
            .get(key)
            .and_then(Json::as_u64)
    };
    let first = occupant(1);
    wait_for(Duration::from_secs(60), || stat("busy_workers") == Some(1));
    let second = occupant(2);
    wait_for(Duration::from_secs(60), || stat("queue_len") == Some(1));
    assert_eq!(
        stat("busy_workers"),
        Some(1),
        "the gate still holds the worker"
    );

    let resp = client
        .request(&tq_profd::Request::Submit {
            spec: spec_n(3),
            attempt: 0,
        })
        .expect("probe transmits");
    assert!(resp.is_busy(), "queue-full probe must be shed: {resp:?}");
    let hint = resp.retry_after_ms().expect("busy carries retry_after_ms");
    assert!(hint >= 25, "hint respects the floor: {hint}");

    // The resilient path: same job, retried with backoff, succeeds once
    // the occupants drain — and the profile matches the fault-free run.
    tq_faults::release(FaultPoint::SlowReplay);
    let (profile, _cached) = client
        .submit_with_retry(spec_n(3), 10)
        .expect("retry eventually lands");
    assert_eq!(
        profile.render(),
        want,
        "shed-then-retried job is byte-identical"
    );

    for t in [first, second] {
        t.join().expect("occupant thread").expect("occupant job");
    }

    let stats = client.stats().expect("stats");
    let rejects = stats.get("rejects").and_then(Json::as_u64).unwrap_or(0);
    assert!(rejects >= 1, "stats count the shed submission: {stats:?}");

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
}

/// The chaos soak: a mixed seeded plan (worker panics, read stalls, cache
/// IO errors, slow replays, accept delays) while a batch of jobs runs
/// through `submit_with_retry`. Every job must terminate — a profile
/// byte-identical to its fault-free output, or an explicit error — and the
/// service must report the injections.
#[test]
fn chaos_soak_terminates_every_job_correctly_or_cleanly() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard;
    tq_faults::clear();

    const JOBS: u64 = 12;
    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let trace = record_capture(&workload, None).expect("capture");
    let expected: Vec<String> = (0..JOBS)
        .map(|n| expected_profile(&trace, &spec_n(n)))
        .collect();

    let state_dir = std::env::temp_dir().join(format!("tq-profd-chaos-{}", std::process::id()));
    let (server, addr) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 4,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });

    tq_faults::install(
        FaultPlan::seeded(7)
            .with(FaultPoint::WorkerPanic, 0.15, Duration::ZERO)
            .with(FaultPoint::ReadStall, 0.20, Duration::from_millis(20))
            .with(FaultPoint::CacheIoError, 0.30, Duration::ZERO)
            .with(FaultPoint::SlowReplay, 0.30, Duration::from_millis(30))
            .with(FaultPoint::AcceptDelay, 0.20, Duration::from_millis(20)),
    );

    let outcomes: Vec<_> = (0..JOBS)
        .map(|n| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let config = ClientConfig {
                    read_timeout: Some(Duration::from_secs(60)),
                    ..ClientConfig::default()
                };
                let mut c = Client::connect_with(&addr, config).expect("connect");
                (n, c.submit_with_retry(spec_n(n), 8))
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("no client thread hangs or panics"))
        .collect();

    let mut ok = 0usize;
    let mut errored = 0usize;
    for (n, outcome) in outcomes {
        match outcome {
            Ok((profile, _cached)) => {
                assert_eq!(
                    profile.render(),
                    expected[n as usize],
                    "job {n} survived chaos but diverged from the fault-free profile"
                );
                ok += 1;
            }
            Err(e) => {
                // Explicit, human-readable failure — never a hang, never a
                // silent drop. Injected worker panics surface here.
                assert!(!e.is_empty(), "job {n} failed without a message");
                errored += 1;
            }
        }
    }
    assert_eq!(ok + errored, JOBS as usize, "every job terminated");
    assert!(ok >= 1, "at least one job survives the plan (seed=7)");

    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    let injected = stats
        .get("faults_injected")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(injected > 0, "the plan actually fired: {stats:?}");

    client.shutdown().expect("shutdown");
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Shutdown under backlog sheds the queued jobs with an explicit error
/// (never leaves a client waiting on a dead socket) and counts them.
#[test]
fn shutdown_sheds_queued_jobs_explicitly() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard;
    tq_faults::clear();

    let (server, addr) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    client.submit(spec_n(0)).expect("warm capture");

    tq_faults::install(FaultPlan::seeded(11).with(
        FaultPoint::SlowReplay,
        1.0,
        Duration::from_millis(400),
    ));

    // One job pins the worker, three wait in the queue.
    let waiters: Vec<_> = (1..=4)
        .map(|n| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.submit(spec_n(n))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    client.shutdown().expect("shutdown accepted");

    let mut shed = 0usize;
    for t in waiters {
        match t.join().expect("waiter thread") {
            // The in-flight job may finish normally.
            Ok(_) => {}
            Err(e) => {
                assert!(
                    e.contains("shed"),
                    "queued jobs fail with the shed message, got: {e}"
                );
                shed += 1;
            }
        }
    }
    assert!(shed >= 1, "shutdown shed the backlog");

    server.join().expect("clean join");
}

/// Fleet chaos: the owner of a job's digest dies *mid-response* — its one
/// worker is pinned by a slow replay and the routed job sits in its queue
/// when shutdown sheds it. The fleet client must fail over to the next
/// ring node and still produce a byte-identical profile (the survivor
/// records locally once its peek at the dying owner fails).
#[test]
fn fleet_failover_when_owner_dies_mid_response() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard;
    tq_faults::clear();

    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let trace = record_capture(&workload, None).expect("capture");
    let want = expected_profile(&trace, &spec_n(2));

    let addrs = reserve_addrs(2);
    let servers: Vec<Server> = addrs
        .iter()
        .map(|addr| {
            let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
            Server::start(ServerConfig {
                addr: addr.clone(),
                workers: 1,
                peers,
                ..ServerConfig::default()
            })
            .expect("fleet member starts")
        })
        .collect();

    let mut fc = FleetClient::new(addrs.clone());
    let owner = fc.owner_of(&spec_n(0)).expect("owner");
    let survivor = addrs.iter().find(|a| **a != owner).expect("two nodes");

    // Warm the owner's capture so the fault below only stretches replays.
    Client::connect(&owner)
        .expect("connect owner")
        .submit(spec_n(0))
        .expect("warm capture");

    tq_faults::install(FaultPlan::seeded(7).with(
        FaultPoint::SlowReplay,
        1.0,
        Duration::from_millis(400),
    ));

    // Pin the owner's only worker with a slow replay...
    let pin_addr = owner.clone();
    let pin = std::thread::spawn(move || {
        let mut c = Client::connect(&pin_addr).expect("connect");
        c.submit(spec_n(1))
    });
    wait_for(Duration::from_secs(5), || {
        let stats = Client::connect(&owner)
            .expect("connect for stats")
            .stats()
            .expect("stats");
        stats.get("busy_workers").and_then(Json::as_u64) == Some(1)
    });

    // ...then kill the owner shortly after the routed job lands behind it.
    let trail = {
        // Stop the owner from a helper thread 150ms from now, while the
        // fleet submit below is waiting in its queue.
        let stop_addr = owner.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            // Shutdown over the wire: same path as Server::request_stop.
            if let Ok(mut c) = Client::connect(&stop_addr) {
                let _ = c.shutdown();
            }
        });
        let mut trail = RetryTrail::default();
        let (profile, _cached, served_by) = fc
            .submit_with_trail(spec_n(2), 5, &mut trail)
            .expect("fleet submit survives the owner dying");
        killer.join().expect("killer thread");
        assert_eq!(profile.render(), want, "failover profile is byte-identical");
        assert_eq!(&served_by, survivor, "served by the surviving ring node");
        trail
    };
    assert!(trail.attempts >= 2, "took more than one attempt: {trail:?}");
    assert!(
        trail.peers_tried.contains(&owner) && trail.peers_tried.contains(survivor),
        "trail names both peers: {trail:?}"
    );

    // The pinned job ran to completion through the graceful shutdown.
    pin.join()
        .expect("pin thread")
        .expect("pinned job finishes");

    tq_faults::clear();
    let survivor_stats = Client::connect(survivor)
        .expect("connect survivor")
        .stats()
        .expect("stats");
    assert_eq!(
        survivor_stats.get("vm_runs").and_then(Json::as_u64),
        Some(1),
        "survivor recorded locally after its peek failed: {survivor_stats:?}"
    );

    let _ = Client::connect(survivor).and_then(|mut c| c.shutdown());
    for s in servers {
        s.join().expect("clean join");
    }
}

/// Fleet chaos: a stale roster entry — the ring names a member that is not
/// running at all. A routed submit must fail over past the corpse to the
/// next ring node and return a byte-identical capture.
#[test]
fn fleet_stale_roster_entry_fails_over() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard;
    tq_faults::clear();

    let workload = Workload::build(AppId::Wfs, Scale::Tiny);
    let trace = record_capture(&workload, None).expect("capture");
    let want = expected_profile(&trace, &spec_n(0));

    let addrs = reserve_addrs(2);
    // Find which reserved address the ring makes the owner, then start a
    // server ONLY on the other one: the owner entry is stale.
    let digest = workload.digest();
    let ring = tq_fleet::Ring::new(addrs.clone());
    let stale = ring.owner_of(&digest).expect("owner").to_string();
    let live = addrs
        .iter()
        .find(|a| **a != stale)
        .expect("two addrs")
        .clone();
    let server = Server::start(ServerConfig {
        addr: live.clone(),
        workers: 1,
        peers: vec![stale.clone()],
        ..ServerConfig::default()
    })
    .expect("live member starts");

    let mut fc = FleetClient::new(addrs.clone());
    assert_eq!(fc.owner_of(&spec_n(0)), Some(stale.clone()));

    let mut trail = RetryTrail::default();
    let (profile, cached, served_by) = fc
        .submit_with_trail(spec_n(0), 3, &mut trail)
        .expect("submit fails over past the stale entry");
    assert!(!cached);
    assert_eq!(profile.render(), want, "failover profile is byte-identical");
    assert_eq!(served_by, live, "served by the live node");
    assert_eq!(
        trail.peers_tried,
        vec![stale.clone(), live.clone()],
        "owner tried first, then the live node: {trail:?}"
    );

    // The live node recorded locally (peeking a corpse cannot succeed) and
    // counted the failed fetch.
    let stats = Client::connect(&live)
        .expect("connect live")
        .stats()
        .expect("stats");
    assert_eq!(stats.get("vm_runs").and_then(Json::as_u64), Some(1));
    let fetch_failures = stats
        .get("fleet")
        .and_then(|f| f.get("peek_fetch_failures"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(fetch_failures >= 1, "failed peek is counted: {stats:?}");

    // The client remembers the dead owner: a second submit on the same
    // client goes straight to the live node.
    let mut trail = RetryTrail::default();
    let (again, _, served_by) = fc
        .submit_with_trail(spec_n(0), 3, &mut trail)
        .expect("second submit");
    assert_eq!(again.render(), want, "second profile is byte-identical");
    assert_eq!(served_by, live);
    assert_eq!(
        trail.peers_tried,
        vec![live.clone()],
        "the dead owner is skipped: {trail:?}"
    );

    let _ = Client::connect(&live).and_then(|mut c| c.shutdown());
    server.join().expect("clean join");
}
