//! Fleet load generator: saturate a 3-node in-process `tq-profd` fleet
//! through the busy → retry path and the cross-node peek, and report
//! end-to-end submit latencies.
//!
//! Two client populations run concurrently against deliberately small
//! servers (one worker, shallow queue, fault-injected slow replays):
//!
//! - **routed** threads use [`FleetClient`], so every job lands on the
//!   ring owner of its content digest first and fails over on busy;
//! - **misdirected** threads use a plain [`Client`] pinned to one node,
//!   so jobs whose digest is owned elsewhere force cross-instance cache
//!   peeks, and busy responses back off and retry on the same node.
//!
//! Latencies go into a `tq-obs` histogram (visible in the metrics dump)
//! and are also kept raw for exact percentiles. The bench *fails* if the
//! fleet never served a peek or never saw a remote-owned job, or if it
//! recorded any digest more than once — a silent fleet is a broken bench,
//! not a fast one. Results land in
//! `results/fleet_load.tsv`. `TQ_BENCH_ITERS` scales the per-thread job
//! count (CI smoke runs use 1).

use std::net::TcpListener;
use std::time::{Duration, Instant};
use tq_bench::save;
use tq_profd::{AppId, Client, FleetClient, JobSpec, Scale, Server, ServerConfig, ToolId};
use tq_report::Json;

/// Reserve `n` distinct loopback addresses so every member's roster can
/// be fixed before any server binds.
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
                workers: 1,
                queue_depth: 1,
                peers,
                ..ServerConfig::default()
            })
            .expect("fleet member starts")
        })
        .collect()
}

/// The job mix: two content digests (wfs and img at tiny scale) spread
/// over the ring, with the slice interval varied so repeat submissions
/// replay instead of memo-hitting.
fn job(i: usize) -> JobSpec {
    let app = if i % 2 == 0 { AppId::Wfs } else { AppId::Img };
    let mut spec = JobSpec::new(app, Scale::Tiny, ToolId::Tquad);
    spec.interval = 2_000 + 500 * ((i / 2) % 8) as u64;
    spec
}

fn u64_at(j: &Json, path: &[&str]) -> u64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let iters: usize = std::env::var("TQ_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let jobs_per_thread = 8 * iters;
    const ROUTED_THREADS: usize = 3;
    const MISDIRECTED_THREADS: usize = 2;
    const RETRIES: u32 = 8;

    // Slow every replay down a little so one worker + a depth-1 queue
    // actually saturates and the busy/retry path gets real traffic.
    tq_faults::install(tq_faults::FaultPlan::seeded(7).with(
        tq_faults::FaultPoint::SlowReplay,
        1.0,
        Duration::from_millis(3),
    ));
    tq_obs::set_enabled(true);
    let latency = tq_obs::histogram(
        "tq_fleet_load_latency_us",
        "end-to-end fleet submit latency (µs)",
    );

    let addrs = reserve_addrs(3);
    let servers = start_fleet(&addrs);
    println!(
        "fleet_load: 3 nodes, {} routed + {} misdirected threads x {} jobs, {} retries",
        ROUTED_THREADS, MISDIRECTED_THREADS, jobs_per_thread, RETRIES
    );

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..ROUTED_THREADS {
        let members = addrs.clone();
        let latency = latency.clone();
        handles.push(std::thread::spawn(move || {
            let mut fc = FleetClient::new(members);
            let mut samples = Vec::with_capacity(jobs_per_thread);
            let mut attempts = 0u64;
            for i in 0..jobs_per_thread {
                let spec = job(t + i * ROUTED_THREADS);
                let mut trail = tq_profd::RetryTrail::default();
                let s0 = Instant::now();
                fc.submit_with_trail(spec, RETRIES, &mut trail)
                    .expect("routed submit");
                let us = s0.elapsed().as_micros() as u64;
                latency.observe(us);
                samples.push(us);
                attempts += u64::from(trail.attempts);
            }
            (samples, attempts)
        }));
    }
    for t in 0..MISDIRECTED_THREADS {
        // Every misdirected thread hammers one fixed node; jobs owned by
        // the other two nodes arrive "at the wrong door" on purpose.
        let addr = addrs[t % addrs.len()].clone();
        let latency = latency.clone();
        handles.push(std::thread::spawn(move || {
            let mut samples = Vec::with_capacity(jobs_per_thread);
            let mut attempts = 0u64;
            for i in 0..jobs_per_thread {
                let spec = job(t + i * MISDIRECTED_THREADS + 1);
                let mut trail = tq_profd::RetryTrail::default();
                let mut client = Client::connect(&addr).expect("connect");
                let s0 = Instant::now();
                client
                    .submit_with_retry_trail(spec, RETRIES, &mut trail)
                    .expect("misdirected submit");
                let us = s0.elapsed().as_micros() as u64;
                latency.observe(us);
                samples.push(us);
                attempts += u64::from(trail.attempts);
            }
            (samples, attempts)
        }));
    }

    let mut samples: Vec<u64> = Vec::new();
    let mut attempts = 0u64;
    for h in handles {
        let (s, a) = h.join().expect("load thread");
        samples.extend(s);
        attempts += a;
    }
    let wall = t0.elapsed();
    samples.sort_unstable();

    // Fleet-wide counters: the proof the load actually flowed through
    // the busy/peek machinery.
    let mut peek_serves = 0u64;
    let mut peek_fetches = 0u64;
    let mut remote_owned = 0u64;
    let mut busy = 0u64;
    let mut vm_runs = 0u64;
    for addr in &addrs {
        let stats = Client::connect(addr)
            .expect("connect for stats")
            .stats()
            .expect("stats");
        peek_serves += u64_at(&stats, &["fleet", "peek_serves"]);
        peek_fetches += u64_at(&stats, &["fleet", "peek_fetches"]);
        remote_owned += u64_at(&stats, &["fleet", "remote_owned_jobs"]);
        busy += u64_at(&stats, &["rejects"]);
        vm_runs += u64_at(&stats, &["vm_runs"]);
    }

    let total = samples.len() as u64;
    let (p50, p90, p99) = (
        percentile(&samples, 0.50),
        percentile(&samples, 0.90),
        percentile(&samples, 0.99),
    );
    let max = *samples.last().unwrap_or(&0);
    println!(
        "  {total} jobs in {wall:?} ({:.0} jobs/s), {attempts} attempts ({busy} busy rejections)",
        total as f64 / wall.as_secs_f64()
    );
    println!("  latency µs: p50 {p50}  p90 {p90}  p99 {p99}  max {max}");
    println!(
        "  fleet: {peek_serves} peek serves / {peek_fetches} fetches, \
         {remote_owned} remote-owned jobs, {vm_runs} vm runs"
    );
    assert_eq!(
        latency.count(),
        total,
        "tq-obs histogram saw every submission"
    );
    assert_eq!(vm_runs, 2, "one recording per content digest, fleet-wide");

    save(
        "fleet_load.tsv",
        &format!(
            "jobs\twall_s\tattempts\tbusy\tpeek_serves\tpeek_fetches\t\
             remote_owned\tvm_runs\tp50_us\tp90_us\tp99_us\tmax_us\n\
             {total}\t{:.6}\t{attempts}\t{busy}\t{peek_serves}\t{peek_fetches}\t\
             {remote_owned}\t{vm_runs}\t{p50}\t{p90}\t{p99}\t{max}\n",
            wall.as_secs_f64()
        ),
    );

    for addr in &addrs {
        let _ = Client::connect(addr).and_then(|mut c| c.shutdown());
    }
    for s in servers {
        s.join().expect("clean join");
    }
    tq_faults::clear();

    // The acceptance gates: a run that never peeked did not exercise the
    // fleet at all.
    assert!(
        peek_serves > 0 && peek_fetches > 0,
        "no cross-instance cache peeks happened (serves {peek_serves}, fetches {peek_fetches})"
    );
    assert!(remote_owned > 0, "no job ever landed on a non-owner");
    println!("  gates: PASS (peeks and remote-owned nonzero, one recording per digest)");
}
