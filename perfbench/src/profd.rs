//! `profd_mix`: warm serving from a two-node in-process fleet.
//!
//! Each node runs one worker. Two closed-loop clients send seeded job
//! sequences that alternate the wfs and img apps (both at `tiny` scale)
//! over all four tools. Client 0 routes every job to the ring owner with
//! `FleetClient`; client 1 always submits to the non-owner, so the
//! remote-owned path carries half the traffic. Captures are recorded and
//! peeked during set-up, so the VM does no work in the timed rounds.
//!
//! Per app lane and per block of 50 jobs, 36 are fresh variants that
//! replay, 10 repeat an earlier job of the same lane and are memo hits,
//! and 4 are `sample:8` variants that go through the gate emulator (1 per
//! tool). The seed orders each block and picks what the repeats repeat;
//! the make-up is fixed, so every seed does the same work. The make-up
//! keeps both reported percentiles inside a dense cluster of latencies,
//! where they are steady from run to run:
//! - The img capture is 16 times larger than the wfs one, and a full
//!   quad replay of it takes about a second, ten times any other job. At a
//!   9% share those jobs would put p90 on the edge of that cluster, so the
//!   img lane runs quad only as its `sample:8` variant; its fresh jobs are
//!   12 each of tquad, gprof and phases, and p90 falls among them.
//! - Memo hits (20%) and the cheap wfs jobs come first in latency order.
//!   Twenty of the wfs lane's 36 fresh jobs are quad replays (about as
//!   slow as the img jobs), so p50 falls among them rather than in the
//!   gap above the cheap ones.
//!
//! Placement is pinned: ports are re-reserved until the wfs and img
//! digests have different ring owners, so each node serves one lane of
//! each client and the per-node job counts are the same on every run.

use crate::host::{self, mean, median, quantile};
use crate::spans::{self, Spans};
use crate::{Args, Report, COVERAGE_FLOOR};
use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::Instant;
use tq_fleet::Ring;
use tq_imgproc::{ImgApp, ImgConfig, COEFFS_BIN, EDGES_PGM, RECON_PGM};
use tq_isa::prng::Rng;
use tq_profd::exec::{record_capture, run_tool};
use tq_profd::{
    AppId, Client, FleetClient, JobSpec, RetryTrail, Scale, Server, ServerConfig, ToolId, Workload,
};
use tq_report::Json;
use tq_wfs::{WfsApp, WfsConfig};

const APPS: [AppId; 2] = [AppId::Wfs, AppId::Img];
const TOOLS: [ToolId; 4] = [ToolId::Tquad, ToolId::Quad, ToolId::Gprof, ToolId::Phases];
/// Jobs per app lane per block, and their make-up.
const BLOCK: usize = 50;
const SAMPLES_PER_TOOL: usize = 1;
const REPEATS: usize = 10;

/// Fresh jobs per tool in one block of a lane (see the module docs).
fn fresh_mix(app: AppId) -> [(ToolId, usize); 4] {
    match app {
        AppId::Wfs => [
            (ToolId::Tquad, 6),
            (ToolId::Quad, 20),
            (ToolId::Gprof, 5),
            (ToolId::Phases, 5),
        ],
        AppId::Img => [
            (ToolId::Tquad, 12),
            (ToolId::Quad, 0),
            (ToolId::Gprof, 12),
            (ToolId::Phases, 12),
        ],
    }
}

/// Throughput the round count is sized by, so the rounds last about
/// `--seconds` while the count stays a pure function of the arguments.
const NOMINAL_JOBS_PER_S: f64 = 25.0;
/// Full fleet set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const MAX_PLACEMENT_TRIES: u32 = 64;
const RETRIES: u32 = 8;
const SAMPLE_MODE: &str = "sample:8";

/// One client's job sequence: `blocks` blocks of each app lane,
/// interleaved wfs first, so that block `i` of both lanes is jobs
/// `[100 i, 100 (i + 1))`.
fn plan(seed: u64, client: u64, blocks: usize) -> Vec<JobSpec> {
    let sample = tq_vm::InstrMode::parse(SAMPLE_MODE)
        .expect("valid instrumentation mode")
        .to_string();
    let lanes: Vec<Vec<JobSpec>> = APPS
        .iter()
        .enumerate()
        .map(|(a, &app)| {
            let mut rng = Rng::new(seed ^ (client << 40) ^ ((a as u64) << 48));
            let mut lane: Vec<JobSpec> = Vec::new();
            // Fresh jobs so far per (tool, sampled): the k-th gets interval
            // default + 1 + k, so every seed replays the same set of specs,
            // only in another order.
            let mut fresh_k: HashMap<(ToolId, bool), u64> = HashMap::new();
            for _ in 0..blocks {
                // Slot kinds: Some(tool, sampled) is a fresh job, None a repeat.
                let mut slots: Vec<Option<(ToolId, bool)>> = Vec::new();
                for (t, n) in fresh_mix(app) {
                    slots.extend(std::iter::repeat_n(Some((t, false)), n));
                }
                for t in TOOLS {
                    slots.extend(std::iter::repeat_n(Some((t, true)), SAMPLES_PER_TOOL));
                }
                assert_eq!(slots.len() + REPEATS, BLOCK, "block make-up");
                slots.resize(BLOCK, None);
                for i in (1..slots.len()).rev() {
                    slots.swap(i, rng.index(i + 1));
                }
                if lane.is_empty() {
                    // A lane opens with a fresh job, so a repeat always
                    // has something to repeat.
                    let first = slots.iter().position(Option::is_some).expect("fresh slot");
                    slots.swap(0, first);
                }
                for slot in slots {
                    let spec = match slot {
                        Some((tool, sampled)) => {
                            let mut spec = JobSpec::new(app, Scale::Tiny, tool);
                            // A unique interval makes the job a memo miss;
                            // the small offset keeps its replay cost that of
                            // the tool's default.
                            let k = fresh_k.entry((tool, sampled)).or_default();
                            spec.interval = tool.default_interval() + 1 + *k;
                            *k += 1;
                            if sampled {
                                spec.instr = sample.clone();
                            }
                            spec
                        }
                        None => lane[rng.index(lane.len())].clone(),
                    };
                    lane.push(spec);
                }
            }
            lane
        })
        .collect();
    (0..lanes[0].len())
        .flat_map(|i| [lanes[0][i].clone(), lanes[1][i].clone()])
        .collect()
}

struct Fleet {
    addrs: Vec<String>,
    servers: Vec<Server>,
    placement_tries: u32,
}

impl Fleet {
    /// Start two nodes on ports whose ring puts the two digests on
    /// different owners.
    fn start(digests: &[String; 2]) -> Fleet {
        let mut held = Vec::new();
        let mut tries = 0;
        let addrs = loop {
            tries += 1;
            assert!(
                tries <= MAX_PLACEMENT_TRIES,
                "no port pair split the two digests in {MAX_PLACEMENT_TRIES} tries"
            );
            let pair: Vec<TcpListener> = (0..2)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port"))
                .collect();
            let addrs: Vec<String> = pair
                .iter()
                .map(|l| l.local_addr().expect("bound address").to_string())
                .collect();
            let ring = Ring::new(addrs.clone());
            // Rejected pairs stay bound until a good one is found, so the
            // next reservation draws new ports.
            held.extend(pair);
            if ring.owner_of(&digests[0]) != ring.owner_of(&digests[1]) {
                break addrs;
            }
        };
        drop(held);
        let servers = addrs
            .iter()
            .map(|addr| {
                Server::start(ServerConfig {
                    addr: addr.clone(),
                    workers: 1,
                    peers: addrs.iter().filter(|a| *a != addr).cloned().collect(),
                    ..ServerConfig::default()
                })
                .expect("fleet node starts")
            })
            .collect();
        Fleet {
            addrs,
            servers,
            placement_tries: tries,
        }
    }

    fn stop(self) {
        for s in &self.servers {
            s.request_stop();
        }
        for s in self.servers {
            s.join().expect("fleet node shuts down cleanly");
        }
    }

    fn stats(&self) -> Vec<Json> {
        self.addrs
            .iter()
            .map(|a| {
                Client::connect(a)
                    .and_then(|mut c| c.stats())
                    .expect("stats from fleet node")
            })
            .collect()
    }
}

/// The ring member of `addrs` that does not own `spec`'s digest.
fn non_owner(fc: &mut FleetClient, addrs: &[String], spec: &JobSpec) -> String {
    let owner = fc.owner_of(spec).expect("fleet has an owner");
    addrs
        .iter()
        .find(|a| **a != owner)
        .expect("two-node fleet")
        .clone()
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Difference of a stats field between two snapshots, per node.
fn delta(before: &[Json], after: &[Json], path: &[&str]) -> Vec<f64> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| num(a, path) - num(b, path))
        .collect()
}

/// Total server-side microseconds and job count for `tool` across nodes.
fn latency_delta(before: &[Json], after: &[Json], tool: &str) -> (f64, f64) {
    let total =
        |s: &Json| num(s, &["latency", tool, "mean_micros"]) * num(s, &["latency", tool, "count"]);
    let t: f64 = before
        .iter()
        .zip(after)
        .map(|(b, a)| total(a) - total(b))
        .sum();
    let n: f64 = delta(before, after, &["latency", tool, "count"])
        .iter()
        .sum();
    (t, n)
}

/// One full set-up: build both workloads, start the fleet, and warm every
/// capture on both nodes (the owner records, the non-owner peeks).
struct Setup {
    fleet: Fleet,
    workloads: [Workload; 2],
    /// Build seconds of each workload, in `APPS` order.
    build_s: [f64; 2],
    peek_s: Vec<f64>,
}

fn set_up() -> Setup {
    let mut build_s = [0.0; 2];
    let workloads = APPS.map(|app| {
        let t0 = Instant::now();
        let w = Workload::build(app, Scale::Tiny);
        build_s[APPS.iter().position(|a| *a == app).expect("known app")] =
            t0.elapsed().as_secs_f64();
        w
    });
    let fleet = Fleet::start(&workloads.each_ref().map(Workload::digest));
    let mut fc = FleetClient::new(fleet.addrs.clone());
    let mut peek_s = Vec::new();
    for app in APPS {
        // The tool default interval: no timed job uses it.
        let spec = JobSpec::new(app, Scale::Tiny, ToolId::Tquad);
        let owner = fc.owner_of(&spec).expect("fleet has an owner");
        Client::connect(&owner)
            .and_then(|mut c| c.submit(spec.clone()))
            .expect("owner records the capture");
        let other = non_owner(&mut fc, &fleet.addrs, &spec);
        let t = Instant::now();
        Client::connect(&other)
            .and_then(|mut c| c.submit(spec))
            .expect("non-owner peeks the capture");
        peek_s.push(t.elapsed().as_secs_f64());
    }
    Setup {
        fleet,
        workloads,
        build_s,
        peek_s,
    }
}

/// One job as the client saw it.
struct Done {
    spec: JobSpec,
    node: String,
    latency_s: f64,
    cached: bool,
    reply: Result<Json, String>,
    attempts: u32,
}

/// One client's closed loop: submit each job of `plan` after the previous
/// one returned and the other client reached the same step. `submit`
/// returns the reply, whether it was a memo hit and the node that served
/// it.
fn run_client(
    spans: &Spans,
    name: &str,
    track: u64,
    round: u64,
    plan: Vec<JobSpec>,
    step: &Barrier,
    mut submit: impl FnMut(&JobSpec, &mut RetryTrail) -> Result<(Json, bool, String), String>,
) -> Vec<Done> {
    spans.span(name, 0, round, track, |root| {
        plan.into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut trail = RetryTrail::default();
                let t0 = Instant::now();
                let job = format!("tq-profd.job.{}", spec.tool.as_str());
                let id = (round << 32) | (track << 24) | i as u64;
                let res = spans.span(&job, root, id, track, |_| submit(&spec, &mut trail));
                let latency_s = t0.elapsed().as_secs_f64();
                spans.span("bench.lockstep_wait", root, id, track, |_| step.wait());
                let (reply, cached, node) = match res {
                    Ok((j, cached, node)) => (Ok(j), cached, node),
                    Err(e) => (Err(e), false, String::new()),
                };
                Done {
                    spec,
                    node,
                    latency_s,
                    cached,
                    reply,
                    attempts: trail.attempts,
                }
            })
            .collect()
    })
}

/// The two closed-loop clients. They keep their connections (and their
/// digest lookups) from round to round.
struct Clients<'a> {
    addrs: &'a [String],
    routed: FleetClient,
    misdirected: FleetClient,
    conns: HashMap<String, Client>,
}

impl<'a> Clients<'a> {
    fn new(addrs: &'a [String]) -> Clients<'a> {
        let mut c = Clients {
            addrs,
            routed: FleetClient::new(addrs.to_vec()),
            misdirected: FleetClient::new(addrs.to_vec()),
            conns: HashMap::new(),
        };
        // Resolve both digests before anything is timed.
        for app in APPS {
            let spec = JobSpec::new(app, Scale::Tiny, ToolId::Tquad);
            c.routed.owner_of(&spec);
            c.misdirected.owner_of(&spec);
        }
        c
    }

    /// Run one round: both clients' job lists concurrently. Returns each
    /// client's jobs and the round's wall and process CPU time.
    fn round(
        &mut self,
        plans: [Vec<JobSpec>; 2],
        spans: &Spans,
        round: u64,
    ) -> ([Vec<Done>; 2], host::Timed) {
        let Clients {
            addrs,
            routed,
            misdirected,
            conns,
        } = self;
        let [plan0, plan1] = plans;
        let step = Barrier::new(2);
        let step = &step;
        host::timed(|| {
            std::thread::scope(|s| {
                let a = s.spawn(|| {
                    run_client(
                        spans,
                        "client.owner",
                        1,
                        round,
                        plan0,
                        step,
                        |spec, trail| routed.submit_with_trail(spec.clone(), RETRIES, trail),
                    )
                });
                let b = s.spawn(|| {
                    run_client(
                        spans,
                        "client.non_owner",
                        2,
                        round,
                        plan1,
                        step,
                        |spec, trail| {
                            let node = non_owner(misdirected, addrs, spec);
                            if !conns.contains_key(&node) {
                                conns.insert(node.clone(), Client::connect(&node)?);
                            }
                            let client = conns.get_mut(&node).expect("connected above");
                            let (j, cached) =
                                client.submit_with_retry_trail(spec.clone(), RETRIES, trail)?;
                            Ok((j, cached, node))
                        },
                    )
                });
                [
                    a.join().expect("owner client thread"),
                    b.join().expect("non-owner client thread"),
                ]
            })
        })
    }
}

/// The served apps' VM outputs against their native mirrors
/// (`Workload::build` builds these same apps).
fn check_outputs(r: &mut Report) {
    let wfs = WfsApp::build(WfsConfig::tiny());
    let (vm, _) = wfs.run_bare().expect("wfs runs to completion");
    r.check(
        wfs.output_wav(&vm) == Some(&wfs.reference_output()[..]),
        || "wfs tiny output WAV differs from the native reference".into(),
    );
    let img = ImgApp::build(ImgConfig::tiny());
    let (vm, _) = img.run_bare().expect("img runs to completion");
    let want = img.reference_outputs();
    let got = |name: &str| vm.fs().file(name);
    r.check(
        got(EDGES_PGM) == Some(&want.edges_pgm[..])
            && got(COEFFS_BIN) == Some(&want.coeffs_bin[..])
            && got(RECON_PGM) == Some(&want.recon_pgm[..]),
        || "img tiny outputs differ from the native reference".into(),
    );
}

/// Check every reply against a local `run_tool` on the same spec and
/// capture. Returns each distinct spec's local rendering and `run_tool`
/// seconds.
fn verify(
    r: &mut Report,
    done: &[Vec<Done>; 2],
    captures: &[tq_trace::Trace; 2],
) -> HashMap<JobSpec, (String, f64)> {
    // Reference renderings for every distinct spec, computed on both
    // cores.
    let todo: Vec<JobSpec> = done
        .iter()
        .flatten()
        .map(|d| d.spec.clone())
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let local: HashMap<JobSpec, (String, f64)> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                let mine: Vec<JobSpec> = todo.iter().skip(h).step_by(2).cloned().collect();
                s.spawn(move || {
                    mine.into_iter()
                        .map(|spec| {
                            let cap = &captures
                                [APPS.iter().position(|a| *a == spec.app).expect("known app")];
                            let t0 = Instant::now();
                            let json = run_tool(&spec, cap, 1).expect("local run_tool");
                            let secs = t0.elapsed().as_secs_f64();
                            (spec, (json.render(), secs))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    });

    // Replies against the local reference; memo hits against the first
    // reply their node gave for the same spec.
    let mut first: HashMap<(String, JobSpec), String> = HashMap::new();
    for d in done.iter().flatten() {
        let reply = match &d.reply {
            Ok(j) => j.render(),
            Err(e) => {
                r.check(false, || format!("job {:?} failed: {e}", d.spec));
                continue;
            }
        };
        let key = (d.node.clone(), d.spec.clone());
        match first.get(&key) {
            Some(prev) => r.check(d.cached && *prev == reply, || {
                format!(
                    "repeat of {:?} on {} was not an identical memo hit",
                    d.spec, d.node
                )
            }),
            None => {
                r.check(!d.cached && local[&d.spec].0 == reply, || {
                    format!("reply for {:?} differs from a local run_tool", d.spec)
                });
                first.insert(key, reply);
            }
        }
    }
    local
}

pub fn mix(args: &Args, r: &mut Report) {
    // A round is one block of every lane: 100 jobs per client. The count
    // is a pure function of `--seconds`; a traced run times one round
    // untraced and one traced.
    let rounds = if args.trace {
        2
    } else {
        ((args.seconds * NOMINAL_JOBS_PER_S) / (4 * BLOCK) as f64)
            .round()
            .max(3.0) as usize
    };

    // The fleet that serves the rounds comes from the first set-up, so
    // the process holds the memory of one fleet start, as a real server
    // would. The other set-ups run afterwards, for the median.
    let (setup, first) = host::timed(set_up);
    r.note(format!(
        "peak RSS after set-up {:.1} MB",
        host::peak_rss_mb()
    ));
    let mut setups = vec![first.wall_s];
    let mut builds = vec![setup.build_s];
    r.set("tq-fleet.peek_ms", 1e3 * mean(&setup.peek_s));
    r.set(
        "tq-fleet.placement_tries",
        setup.fleet.placement_tries as f64,
    );
    let fleet = &setup.fleet;

    let spans = Spans::new(args.trace);
    let off = Spans::new(false);
    let plans = [plan(args.seed, 0, rounds), plan(args.seed, 1, rounds)];
    let per_client = plans[0].len() / rounds;
    let mut clients = Clients::new(&fleet.addrs);
    let before = fleet.stats();
    let mut done: [Vec<Done>; 2] = [Vec::new(), Vec::new()];
    let mut timed = Vec::new();
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let traced = args.trace && round == 1;
        let slice = |c: usize| plans[c][round * per_client..(round + 1) * per_client].to_vec();
        let (jobs, t) = clients.round(
            [slice(0), slice(1)],
            if traced { &spans } else { &off },
            round as u64,
        );
        let lat: Vec<f64> = jobs.iter().flatten().map(|d| d.latency_s).collect();
        r.note(format!(
            "round {round}{}: {} jobs in {:.3} s, p50 {:.2} ms, p90 {:.2} ms ({} samples beyond p90)",
            if traced { " (traced)" } else { "" },
            lat.len(),
            t.wall_s,
            1e3 * median(&lat),
            1e3 * quantile(&lat, 0.9),
            lat.len() / 10
        ));
        if !traced {
            p50.push(median(&lat));
            p90.push(quantile(&lat, 0.9));
            timed.push(t);
        }
        for (all, new) in done.iter_mut().zip(jobs) {
            all.extend(new);
        }
    }
    let after = fleet.stats();
    r.set("peak_rss_mb", host::peak_rss_mb());
    let walls: Vec<f64> = timed.iter().map(|t| t.wall_s).collect();
    let cpus: Vec<f64> = timed.iter().map(|t| t.cpu_s).collect();
    r.set("run_s", median(&walls));
    r.set("cpu_s", median(&cpus));
    r.set("jobs_per_s", (2 * per_client) as f64 / median(&walls));
    r.set("job_p50_ms", 1e3 * median(&p50));
    r.set("job_p90_ms", 1e3 * median(&p90));

    let jobs: Vec<&Done> = done.iter().flatten().collect();
    r.attempted += jobs.len() as u64;
    let captures = setup
        .workloads
        .each_ref()
        .map(|w| record_capture(w, None).expect("local capture"));
    let local = verify(r, &done, &captures);
    check_outputs(r);

    // Placement: every node serves one lane of each client, so its counts
    // are fixed by the plan.
    let per_node = (jobs.len() / 2) as f64;
    let want = [
        ("jobs_completed", per_node),
        ("result_hits", per_node * REPEATS as f64 / BLOCK as f64),
        (
            "reduced_jobs",
            per_node * (4 * SAMPLES_PER_TOOL) as f64 / BLOCK as f64,
        ),
        ("vm_runs", 0.0),
    ];
    for (field, expect) in want {
        let got = delta(&before, &after, &[field]);
        r.note(format!("per-node {field} {got:?}"));
        r.check(got.iter().all(|g| *g == expect), || {
            format!("per-node {field} {got:?}, expected {expect} on each node")
        });
    }

    let sum = |path: &[&str]| -> f64 { delta(&before, &after, path).iter().sum() };
    let completed = sum(&["jobs_completed"]);
    let memo = sum(&["result_hits"]);
    let lat: Vec<f64> = jobs.iter().map(|d| d.latency_s).collect();
    let hits: Vec<f64> = jobs
        .iter()
        .filter(|d| d.cached)
        .map(|d| d.latency_s)
        .collect();
    r.set("tq-profd.memo_hit_ratio", memo / completed);
    r.set(
        "tq-profd.capture_hit_ratio",
        sum(&["capture_mem_hits"]) / (completed - memo),
    );
    r.set("tq-profd.vm_runs", sum(&["vm_runs"]));
    r.set("tq-profd.rejects", sum(&["rejects"]));
    r.set("tq-profd.reduced_jobs", sum(&["reduced_jobs"]));
    r.set("tq-profd.events_replayed", sum(&["events_replayed"]));
    r.set(
        "tq-profd.retries",
        jobs.iter()
            .map(|d| d.attempts.saturating_sub(1) as f64)
            .sum(),
    );
    r.set(
        "tq-fleet.remote_owned_jobs",
        sum(&["fleet", "remote_owned_jobs"]),
    );
    r.set("tq-fleet.redirects", sum(&["fleet", "redirects_issued"]));
    r.set(
        "tq-fleet.peek_fetches",
        after
            .iter()
            .map(|s| num(s, &["fleet", "peek_fetches"]))
            .sum(),
    );
    let (mut server_us, mut server_n) = (0.0, 0.0);
    for tool in TOOLS {
        let name = tool.as_str();
        let (t_us, n) = latency_delta(&before, &after, name);
        server_us += t_us;
        server_n += n;
        r.set(&format!("tq-profd.server_job_ms.{name}"), t_us / n / 1e3);
        let local_s: Vec<f64> = local
            .iter()
            .filter(|(spec, _)| spec.tool == tool && spec.instr == "full")
            .map(|(_, (_, secs))| *secs)
            .collect();
        r.set(
            &format!("tq-profd.run_tool_ms.{name}"),
            1e3 * median(&local_s),
        );
    }
    r.set(
        "tq-profd.queue_wire_ms",
        1e3 * mean(&lat) - server_us / server_n / 1e3,
    );
    r.set("tq-profd.hit_ms", 1e3 * median(&hits));

    // The reply lines' render and parse cost, timed on the replies.
    let (mut render, mut parse) = (Vec::new(), Vec::new());
    for d in &jobs {
        if let Ok(j) = &d.reply {
            let t0 = Instant::now();
            let line = std::hint::black_box(j.render());
            render.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let back = Json::parse(&line).is_ok();
            parse.push(t1.elapsed().as_secs_f64());
            r.check(back, || "a reply line does not parse back".into());
        }
    }
    r.set("tq-report.render_ms", 1e3 * median(&render));
    r.set("tq-report.parse_ms", 1e3 * median(&parse));

    if args.trace {
        let all = spans.finished();
        let a = spans::attribute(&all);
        if let Err(e) = spans::write("profd_mix", args.seed, &all) {
            r.note(format!("could not write the span file: {e}"));
        }
        r.note("client self time per job kind:");
        for (name, s) in &a.self_s {
            r.note(format!("  {name:<28} {s:>9.4} s ({} jobs)", a.count[name]));
        }
        // The two clients' roots run concurrently; the round's wall is
        // the longer of the two.
        let traced_wall = all
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, f64::max);
        r.set("bench.coverage_pct", 100.0 * a.coverage);
        r.set("bench.traced_wall_s", traced_wall);
        r.set("bench.tracing_overhead_s", traced_wall - walls[0]);
        r.check(a.coverage >= COVERAGE_FLOOR, || {
            format!(
                "job spans cover {:.1}% of a client's traced wall",
                100.0 * a.coverage
            )
        });
        r.set("host.memcpy_gb_s", host::memcpy_gb_s());
    }
    setup.fleet.stop();
    for _ in 1..SETUP_REPEATS {
        let (s, t) = host::timed(set_up);
        setups.push(t.wall_s);
        builds.push(s.build_s);
        s.fleet.stop();
    }
    r.set("setup_s", median(&setups));
    for (i, name) in ["tq-wfs.build_ms", "tq-imgproc.build_ms"]
        .iter()
        .enumerate()
    {
        let ms: Vec<f64> = builds.iter().map(|b| 1e3 * b[i]).collect();
        r.set(name, median(&ms));
    }
}
