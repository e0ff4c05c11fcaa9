//! The TCP daemon: acceptor, bounded job queue, replay worker pool.
//!
//! One thread per client connection parses JSON-line requests; `submit`
//! requests go through a bounded queue to N worker threads. Workers answer
//! in three tiers, cheapest first:
//!
//! 1. **result memo** — this exact [`JobSpec`] ran before: return the
//!    memoized profile (byte-identical, no replay);
//! 2. **capture cache** — the workload's capture exists (memory or disk):
//!    replay it under the requested tool;
//! 3. **cold** — run the VM once under the trace recorder (single-flight
//!    per content address), then replay.
//!
//! **Overload policy** (see `docs/OPERATIONS.md` and DESIGN.md §10): the
//! server degrades by answering fast, never by queueing unboundedly.
//! A full job queue gets an immediate `busy` + `retry_after_ms` response
//! instead of blocking the submitter; a connection over `max_conns` is
//! told `busy` and closed before a thread is spawned for it; an idle or
//! stalled connection is closed after `read_timeout`; a worker that panics
//! is caught and answers with an error instead of shrinking the pool.
//!
//! Shutdown is graceful for *running* work only: jobs still waiting in the
//! queue are shed with an error reply (counted in `sheds`), in-flight jobs
//! finish and reply, workers exit, the acceptor is woken by a
//! self-connection and joins. [`Server::join`] returns only once every
//! accepted submit (and the shutdown request itself) has its reply on the
//! socket, so a process that exits right after it drops no reply.
//!
//! Every degradation path above can be rehearsed: `tq-faults` hooks sit at
//! the accept, read, worker, cache-IO and replay points and are free when
//! no fault plan is installed.

use crate::apps::{AppId, Scale, Workload};
use crate::cache::{CaptureSource, CaptureStore};
use crate::exec::{record_capture, run_tool};
use crate::fleet::FleetState;
use crate::protocol::{hex_encode, JobSpec, Request, Response, PEEK_FRAME_BYTES};
use crate::stats::ServiceStats;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tq_obs::metrics::{Family, Value};
use tq_report::Json;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Replay worker threads.
    pub workers: usize,
    /// State directory for the persistent capture tier (`None` = memory
    /// only).
    pub state_dir: Option<PathBuf>,
    /// In-memory capture budget in bytes.
    pub cache_bytes: u64,
    /// Bounded job-queue depth; a submission against a full queue is
    /// answered immediately with `busy` + `retry_after_ms`, never queued
    /// or blocked.
    pub queue_depth: usize,
    /// Per-job reply timeout. The job keeps running and still populates
    /// the caches; only the waiting client gets an error.
    pub job_timeout: Duration,
    /// Instruction budget for capture runs (`None` = unbounded).
    pub capture_fuel: Option<u64>,
    /// Maximum concurrently served connections. One over the limit is
    /// answered with a single `busy` line and closed before a connection
    /// thread exists for it.
    pub max_conns: usize,
    /// Per-connection read/idle timeout: a client that sends nothing for
    /// this long is disconnected (`None` = never). Bounds both idle
    /// connections and read-stalled requests.
    pub read_timeout: Option<Duration>,
    /// Advertised addresses of the *other* fleet members. Empty = this
    /// node serves alone (no ring, no peeks).
    pub peers: Vec<String>,
    /// This node's own advertised address — its name on the consistent-
    /// hash ring, which must match what peers list in their `--peers`.
    /// `None` uses the bound listen address (fine when `addr` is concrete;
    /// required when binding port 0 behind a fixed roster).
    pub advertise: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7471".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            state_dir: None,
            cache_bytes: 256 << 20,
            queue_depth: 64,
            job_timeout: Duration::from_secs(600),
            capture_fuel: None,
            max_conns: 256,
            read_timeout: Some(Duration::from_secs(300)),
            peers: Vec::new(),
            advertise: None,
        }
    }
}

/// `target` field of this crate's structured log records.
const LOG: &str = "tq-profd";

/// Longest accepted request line (a valid request is well under 1 KiB; a
/// client streaming an unbounded "line" must not grow server memory).
const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// One queued job: the spec plus where to send the answer, the submit's
/// whole reply (see [`submit_reply`]).
struct Job {
    spec: JobSpec,
    /// When the connection thread queued the job: the reply's `queue_us`
    /// and `total_us` count from here.
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, String>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    config: ServerConfig,
    started: Instant,
    store: CaptureStore,
    stats: Mutex<ServiceStats>,
    /// `(app, scale)` → content address, so warm jobs skip rebuilding the
    /// workload entirely.
    digests: Mutex<HashMap<(AppId, Scale), String>>,
    /// JobSpec → rendered profile (tier 1).
    results: Mutex<HashMap<JobSpec, Arc<Json>>>,
    queue: Mutex<Queue>,
    /// Signalled when a job arrives or the queue closes.
    not_empty: Condvar,
    /// Workers currently executing a job; the gap to `config.workers` is
    /// idle capacity a running job may borrow as replay shards.
    busy: AtomicUsize,
    /// Connections currently being served (the acceptor rejects above
    /// `config.max_conns`).
    conns: AtomicUsize,
    /// Fleet membership, routing and peeking (None: serving alone).
    fleet: Option<FleetState>,
    shutdown: AtomicBool,
    /// Submit and shutdown requests whose reply is not yet written (see
    /// [`ReplyGuard`]); `join` waits for it to reach zero.
    replying: Mutex<usize>,
    /// Signalled when `replying` drops to zero.
    replied: Condvar,
}

/// Counts one request in `replying` from before it is handled until its
/// reply is written, however the connection thread leaves. Taken before a
/// submit's push and before shutdown begins, so a job the queue accepted
/// is always counted by the time `join` looks.
struct ReplyGuard<'a>(&'a Shared);

impl<'a> ReplyGuard<'a> {
    fn hold(shared: &'a Shared) -> ReplyGuard<'a> {
        *lock(&shared.replying) += 1;
        ReplyGuard(shared)
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        let mut n = lock(&self.0.replying);
        *n -= 1;
        if *n == 0 {
            self.0.replied.notify_all();
        }
    }
}

/// Why a submit was not enqueued.
enum PushError {
    /// The queue is at `queue_depth`: shed now, client retries later.
    Busy {
        /// Suggested client wait before resubmitting.
        retry_after_ms: u64,
    },
    /// Shutdown has begun; the queue accepts nothing more.
    Closed,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// The server's `retry_after_ms` hint on a shed: roughly how long the
    /// backlog ahead of this client needs to drain, from the measured mean
    /// job latency (100ms before any job has finished), clamped to
    /// [25ms, 5s].
    fn retry_after_ms(&self, queue_len: usize) -> u64 {
        let mean_ms = lock(&self.stats)
            .mean_job_micros()
            .map(|us| us / 1_000.0)
            .unwrap_or(100.0);
        let workers = self.config.workers.max(1) as f64;
        ((queue_len + 1) as f64 * mean_ms / workers).clamp(25.0, 5_000.0) as u64
    }

    /// Enqueue a job without blocking: a full queue is the client's
    /// problem (it gets `busy` + a retry hint), never the acceptor's or
    /// the connection thread's.
    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut q = lock(&self.queue);
        if q.closed {
            return Err(PushError::Closed);
        }
        if q.jobs.len() >= self.config.queue_depth {
            let len = q.jobs.len();
            drop(q);
            return Err(PushError::Busy {
                retry_after_ms: self.retry_after_ms(len),
            });
        }
        q.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the next job; `None` means the queue closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Begin shutdown: close the queue and shed every job still waiting in
    /// it (oldest first — they have waited longest and would be last to
    /// run). Running jobs are left to finish and reply normally.
    fn close_queue(&self) {
        let shed: Vec<Job> = {
            let mut q = lock(&self.queue);
            q.closed = true;
            q.jobs.drain(..).collect()
        };
        self.not_empty.notify_all();
        if !shed.is_empty() {
            lock(&self.stats).sheds += shed.len() as u64;
            tq_obs::log::warn(LOG, "queue_shed", &[("jobs", shed.len().into())]);
            for job in shed {
                let _ = job.reply.send(Err(
                    "shed: server is shutting down; resubmit elsewhere".into()
                ));
            }
        }
    }

    /// The content address for `(app, scale)`, building the workload at
    /// most once per pair per process.
    fn digest_for(&self, app: AppId, scale: Scale) -> (String, Option<Workload>) {
        if let Some(d) = lock(&self.digests).get(&(app, scale)) {
            return (d.clone(), None);
        }
        let w = Workload::build(app, scale);
        let d = w.digest();
        lock(&self.digests).insert((app, scale), d.clone());
        (d, Some(w))
    }

    /// Execute one job through the three answer tiers.
    fn execute(&self, spec: &JobSpec, enqueued: Instant) -> Result<Response, String> {
        let _span = tq_obs::span_named(format!("job-{}", spec.tool.as_str()), "profd");
        // Fault rehearsal: a worker may be told to die here; worker_loop
        // contains the unwind and answers with an error.
        tq_faults::panic_if(tq_faults::FaultPoint::WorkerPanic);
        let t0 = Instant::now();
        if let Some(hit) = lock(&self.results).get(spec) {
            let json = (**hit).clone();
            let micros = t0.elapsed().as_micros() as u64;
            let mut st = lock(&self.stats);
            st.result_hits += 1;
            st.jobs_completed += 1;
            st.record_latency(spec.tool, micros);
            drop(st);
            tq_obs::log::debug(
                LOG,
                "job_done",
                &[
                    ("tool", spec.tool.as_str().into()),
                    ("source", "memo".into()),
                    ("micros", micros.into()),
                ],
            );
            let zero = Duration::ZERO;
            return Ok(submit_reply(json, "memo", enqueued, t0, zero, zero, 0));
        }

        let (digest, mut prebuilt) = self.digest_for(spec.app, spec.scale);
        if let Some(f) = &self.fleet {
            if !f.is_owner(&digest) {
                f.note_remote_owned_job();
            }
        }
        let fuel = self.config.capture_fuel;
        let mut peeked = false;
        let capture_t0 = Instant::now();
        let (trace, source) = self.store.get_or_record(&digest, || {
            // Fleet cache sharding: a digest another node owns is fetched
            // from that node (which records it on demand — keeping one
            // recording per digest fleet-wide) instead of re-recorded
            // here. A dead or failing owner falls through to a local
            // recording; routing is an optimisation, never a dependency.
            if let Some(f) = &self.fleet {
                if !f.is_owner(&digest) {
                    if let Some(t) = f.try_peek(spec.app, spec.scale, &digest) {
                        peeked = true;
                        return Ok(t);
                    }
                }
            }
            let w = prebuilt
                .take()
                .unwrap_or_else(|| Workload::build(spec.app, spec.scale));
            record_capture(&w, fuel)
        })?;
        let capture_time = capture_t0.elapsed();
        // A peeked capture entered the cache without a VM run; the fleet
        // counters (`peek_fetches`) account for it instead.
        if !peeked {
            lock(&self.stats).count_capture(source);
        }

        // Borrow idle workers as replay shards: a lone job on a quiet
        // server fans out across the whole pool, a full queue degrades to
        // one shard per worker. `busy` includes this worker, hence `+ 1`.
        let busy = self.busy.load(Ordering::SeqCst).max(1);
        let n_jobs = self.config.workers.max(1).saturating_sub(busy) + 1;
        // The threads the replay will really use: reduced-mode replays run
        // through the sequential gate emulator whatever `n_jobs` says, and
        // a sharded replay takes at most one shard per chunk.
        let shards = if spec.instr != "full" {
            1
        } else {
            n_jobs.clamp(1, trace.chunks.len().max(1))
        };
        let replay_t0 = Instant::now();
        let json = run_tool(spec, &trace, n_jobs)?;
        let replay_time = replay_t0.elapsed();
        lock(&self.results).insert(spec.clone(), Arc::new(json.clone()));
        let micros = t0.elapsed().as_micros() as u64;
        let mut st = lock(&self.stats);
        st.jobs_completed += 1;
        st.bytes_replayed += trace.events.len() as u64;
        st.events_replayed += trace.n_events;
        if spec.instr != "full" {
            st.reduced_jobs += 1;
        } else if shards > 1 {
            st.sharded_replays += 1;
        }
        st.record_latency(spec.tool, micros);
        let source_str = match source {
            _ if peeked => "peek",
            CaptureSource::Memory => "memory",
            CaptureSource::Disk => "disk",
            CaptureSource::Recorded => "recorded",
        };
        drop(st);
        tq_obs::log::debug(
            LOG,
            "job_done",
            &[
                ("tool", spec.tool.as_str().into()),
                ("app", spec.app.as_str().into()),
                ("scale", spec.scale.as_str().into()),
                ("source", source_str.into()),
                ("micros", micros.into()),
            ],
        );
        Ok(submit_reply(
            json,
            source_str,
            enqueued,
            t0,
            capture_time,
            replay_time,
            shards,
        ))
    }

    /// The encoded capture bytes a `peek` for `digest` should serve, or
    /// `Ok(None)` for a clean miss, or `Err(response)` for a refusal. The
    /// rules keep recording work where the ring says it belongs:
    ///
    /// * this node **owns** the digest → serve from cache, recording on
    ///   demand if cold (that recording is the fleet's one recording for
    ///   the digest, and is bookkept exactly like a cold submit);
    /// * this node does **not** own it → answer only if the capture
    ///   happens to be cached; never spend a VM run on another node's
    ///   keyspace.
    ///
    /// When the disk tier holds the capture, its bytes are served as-is
    /// (one `fs::read`, no decode, no re-encode) — the cheap path for
    /// capture-sized images.
    fn peek_capture_bytes(
        &self,
        app: AppId,
        scale: Scale,
        digest: &str,
    ) -> Result<Option<Vec<u8>>, Response> {
        // Validate the address: a peek answered for the wrong digest
        // would poison the requester's cache.
        let (expected, mut prebuilt) = self.digest_for(app, scale);
        if expected != digest {
            return Err(Response::err(format!(
                "peek digest mismatch: {}/{} addresses {expected}",
                app.as_str(),
                scale.as_str()
            )));
        }
        if let Some(bytes) = self.store.peek_bytes(digest) {
            lock(&self.stats).capture_disk_hits += 1;
            return Ok(Some(bytes));
        }
        let owned = self
            .fleet
            .as_ref()
            .map(|f| f.is_owner(digest))
            .unwrap_or(true);
        let trace = if owned {
            let fuel = self.config.capture_fuel;
            let recorded = self.store.get_or_record(digest, || {
                let w = prebuilt
                    .take()
                    .unwrap_or_else(|| Workload::build(app, scale));
                record_capture(&w, fuel)
            });
            match recorded {
                Ok((trace, source)) => {
                    lock(&self.stats).count_capture(source);
                    Some(trace)
                }
                Err(e) => return Err(Response::err(format!("peek recording failed: {e}"))),
            }
        } else {
            self.store.get_if_cached(digest).map(|(t, _)| t)
        };
        match trace {
            Some(trace) => {
                let mut bytes = Vec::new();
                trace
                    .save(&mut bytes)
                    .map_err(|e| Response::err(format!("peek serialization failed: {e}")))?;
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    /// Answer a `peek` directly on the connection: a header line
    /// declaring `frames` and `total_bytes`, then that many frame lines of
    /// at most [`PEEK_FRAME_BYTES`] raw bytes each. Only one frame's hex
    /// exists at a time on this side, so serving a capture costs its byte
    /// size, not 3× it. An IO error aborts the connection (the client
    /// counts the failed fetch and falls back to recording locally).
    fn stream_peek(
        &self,
        writer: &mut impl Write,
        app: AppId,
        scale: Scale,
        digest: String,
    ) -> std::io::Result<()> {
        let _span = tq_obs::span("peek-serve", "profd");
        let (header, bytes) = match self.peek_capture_bytes(app, scale, &digest) {
            Err(resp) => (resp, None),
            Ok(None) => {
                if let Some(f) = &self.fleet {
                    f.note_peek_missed();
                }
                (
                    Response::ok([("found", Json::from(false)), ("digest", Json::from(digest))]),
                    None,
                )
            }
            Ok(Some(bytes)) => {
                if let Some(f) = &self.fleet {
                    f.note_peek_served();
                }
                let header = Response::ok([
                    ("found", Json::from(true)),
                    ("digest", Json::from(digest)),
                    (
                        "frames",
                        Json::from(bytes.len().div_ceil(PEEK_FRAME_BYTES) as u64),
                    ),
                    ("total_bytes", Json::from(bytes.len() as u64)),
                ]);
                (header, Some(bytes))
            }
        };
        let mut line = header.encode();
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        if let Some(bytes) = bytes {
            for (i, frame) in bytes.chunks(PEEK_FRAME_BYTES).enumerate() {
                let mut line = Json::obj([
                    ("frame", Json::from(i as u64)),
                    ("data_hex", Json::from(hex_encode(frame))),
                ])
                .render();
                line.push('\n');
                writer.write_all(line.as_bytes())?;
            }
        }
        writer.flush()
    }

    /// This node's `metrics` exposition: its stats and fleet counters as
    /// metric families, next to the process-wide tq-obs registry.
    fn metrics_text(&self) -> String {
        let mut families = lock(&self.stats).families();
        let gauges = [
            (
                "tq_profd_queue_depth",
                "Jobs currently waiting in the bounded queue",
                lock(&self.queue).jobs.len() as i64,
            ),
            (
                "tq_profd_uptime_seconds",
                "Seconds since the service started (set at each metrics scrape)",
                self.started.elapsed().as_secs() as i64,
            ),
            (
                "tq_profd_faults_injected",
                "Faults injected by the active tq-faults plan (set at each metrics scrape)",
                tq_faults::injected() as i64,
            ),
        ];
        families.extend(gauges.map(|(name, help, v)| Family {
            name,
            help,
            value: Value::Gauge(v),
        }));
        if let Some(f) = &self.fleet {
            families.extend(f.families());
        }
        tq_obs::prometheus_text(families)
    }

    fn stats_json(&self) -> Json {
        let uptime = self.started.elapsed().as_micros() as u64;
        let mut j = lock(&self.stats).to_json(uptime);
        j.set("workers", Json::from(self.config.workers as u64));
        j.set(
            "busy_workers",
            Json::from(self.busy.load(Ordering::SeqCst) as u64),
        );
        j.set("queue_depth", Json::from(self.config.queue_depth as u64));
        j.set("queue_len", Json::from(lock(&self.queue).jobs.len() as u64));
        j.set("max_conns", Json::from(self.config.max_conns as u64));
        j.set(
            "open_conns",
            Json::from(self.conns.load(Ordering::SeqCst) as u64),
        );
        j.set("faults_injected", Json::from(tq_faults::injected()));
        j.set(
            "captures_in_memory",
            Json::from(self.store.mem_entries() as u64),
        );
        j.set(
            "capture_bytes_in_memory",
            Json::from(self.store.mem_bytes()),
        );
        j.set(
            "role",
            Json::from(if self.fleet.is_some() {
                "fleet"
            } else {
                "single"
            }),
        );
        if let Some(f) = &self.fleet {
            j.set("fleet", f.to_json());
        }
        j
    }
}

/// A submit's successful reply: the profile, whether the result memo
/// answered it, and its `layers`, where the job's time went on the worker
/// that ran it. `capture` is where the capture came from (`memo` when the
/// memo answered and nothing was replayed); `queue_us` runs from enqueue
/// to `started`, and `total_us` from enqueue to now.
fn submit_reply(
    profile: Json,
    capture: &str,
    enqueued: Instant,
    started: Instant,
    capture_time: Duration,
    replay_time: Duration,
    shards: usize,
) -> Response {
    let us = |d: Duration| Json::from(d.as_micros() as u64);
    Response::ok([
        ("cached", Json::from(capture == "memo")),
        ("profile", profile),
        (
            "layers",
            Json::obj([
                ("capture", Json::from(capture)),
                ("queue_us", us(started - enqueued)),
                ("capture_us", us(capture_time)),
                ("replay_us", us(replay_time)),
                ("shards", Json::from(shards as u64)),
                ("total_us", us(enqueued.elapsed())),
            ]),
        ),
    ])
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.pop() {
        shared.busy.fetch_add(1, Ordering::SeqCst);
        // A panicking job (tool bug, injected worker_panic fault) must not
        // shrink the worker pool or leave its submitter waiting: contain
        // the unwind and answer with an error. Shared state stays sound —
        // every lock in this crate recovers from poisoning.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.execute(&job.spec, job.enqueued)
        }))
        .unwrap_or_else(|p| {
            Err(format!(
                "worker panicked while running the job (worker recovered): {}",
                crate::panic_message(p.as_ref())
            ))
        });
        shared.busy.fetch_sub(1, Ordering::SeqCst);
        if let Err(e) = &result {
            lock(&shared.stats).jobs_failed += 1;
            tq_obs::log::warn(
                LOG,
                "job_failed",
                &[
                    ("tool", job.spec.tool.as_str().into()),
                    ("error", e.as_str().into()),
                ],
            );
        }
        // A submitter that timed out dropped its receiver; the work is
        // done and cached either way.
        let _span = tq_obs::span("respond", "profd");
        let _ = job.reply.send(result);
    }
}

fn handle_request(shared: &Arc<Shared>, addr: SocketAddr, req: Request) -> (Response, bool) {
    match req {
        Request::Ping => (Response::ok([("pong", Json::from(true))]), false),
        Request::Stats => (Response::ok([("stats", shared.stats_json())]), false),
        // Never reaches here: connection_loop streams every peek's frames
        // straight onto the socket.
        Request::Peek { .. } => (Response::err("peek is answered by the connection"), false),
        Request::Route { spec } => {
            let _span = tq_obs::span("route", "profd");
            let (digest, _) = shared.digest_for(spec.app, spec.scale);
            let (owner, self_name) = match &shared.fleet {
                Some(f) => (f.owner_of(&digest).to_string(), f.self_addr().to_string()),
                None => (addr.to_string(), addr.to_string()),
            };
            let is_owner = owner == self_name;
            (
                Response::ok([
                    ("digest", Json::from(digest)),
                    ("owner", Json::from(owner)),
                    ("is_owner", Json::from(is_owner)),
                ]),
                false,
            )
        }
        Request::Metrics => (
            Response::ok([("metrics", Json::from(shared.metrics_text()))]),
            false,
        ),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.close_queue();
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(addr);
            (Response::ok([("stopping", Json::from(true))]), true)
        }
        Request::Submit { spec, attempt } => {
            {
                let mut st = lock(&shared.stats);
                st.jobs_submitted += 1;
                if attempt > 0 {
                    st.retries_observed += 1;
                }
            }
            let (tx, rx) = mpsc::channel();
            let pushed = {
                let _span = tq_obs::span("enqueue", "profd");
                shared.try_push(Job {
                    spec,
                    enqueued: Instant::now(),
                    reply: tx,
                })
            };
            match pushed {
                Ok(()) => {}
                Err(PushError::Busy { retry_after_ms }) => {
                    lock(&shared.stats).rejects += 1;
                    tq_obs::log::warn(
                        LOG,
                        "overload_shed",
                        &[("retry_after_ms", retry_after_ms.into())],
                    );
                    return (
                        Response::busy("queue full: job shed, retry later", retry_after_ms),
                        false,
                    );
                }
                Err(PushError::Closed) => {
                    lock(&shared.stats).jobs_failed += 1;
                    tq_obs::log::warn(LOG, "shutdown_shed", &[]);
                    return (Response::err("server is shutting down"), false);
                }
            }
            match rx.recv_timeout(shared.config.job_timeout) {
                Ok(Ok(reply)) => (reply, false),
                Ok(Err(e)) => (Response::err(e), false),
                Err(_) => (
                    Response::err(format!(
                        "job timed out after {:?} (it continues and will warm the cache)",
                        shared.config.job_timeout
                    )),
                    false,
                ),
            }
        }
    }
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn connection_loop(shared: Arc<Shared>, addr: SocketAddr, stream: TcpStream) {
    let _guard = ConnGuard(Arc::clone(&shared));
    // The read timeout doubles as the idle timeout: a connection that
    // sends nothing (or stalls mid-line) for this long is closed. Reads
    // and writes share the socket, so only SO_RCVTIMEO is set — replies
    // are never timed out from our side.
    if stream.set_read_timeout(shared.config.read_timeout).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // Cap the request line: a valid request is well under 1 KiB, and
        // `read_line` on the raw reader would otherwise buffer an
        // unbounded "line" from a hostile or broken client.
        let mut limited = reader.take(MAX_REQUEST_LINE + 1);
        let n = limited.read_line(&mut line);
        reader = limited.into_inner();
        match n {
            Ok(0) | Err(_) => return, // client hung up, stalled past the timeout, or sent non-UTF-8
            Ok(_) => {}
        }
        if line.len() as u64 > MAX_REQUEST_LINE {
            // Oversized: the tail of the line is still in flight, so the
            // stream cannot be resynchronized — answer and hang up.
            let mut out =
                Response::err(format!("request line exceeds {MAX_REQUEST_LINE} bytes")).encode();
            out.push('\n');
            let _ = writer
                .write_all(out.as_bytes())
                .and_then(|_| writer.flush());
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        // Fault rehearsal: a stalled client link delays the request here,
        // after the bytes arrived and before any work happens.
        if tq_faults::sleep_if(tq_faults::FaultPoint::ReadStall) {
            tq_obs::log::warn(
                LOG,
                "fault_fired",
                &[("point", tq_faults::FaultPoint::ReadStall.key().into())],
            );
        }
        let request = Request::decode(&line);
        let _replying = matches!(request, Ok(Request::Submit { .. } | Request::Shutdown))
            .then(|| ReplyGuard::hold(&shared));
        let (response, stop) = match request {
            // Peeks write a multi-line response (header + frames) straight
            // onto the socket instead of the one-line path below.
            Ok(Request::Peek { app, scale, digest }) => {
                if shared.stream_peek(&mut writer, app, scale, digest).is_err() {
                    return;
                }
                continue;
            }
            Ok(req) => handle_request(&shared, addr, req),
            Err(e) => (Response::err(format!("bad request: {e}")), false),
        };
        let mut out = response.encode();
        out.push('\n');
        if writer
            .write_all(out.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            return;
        }
        if stop {
            return;
        }
    }
}

/// A running profiling service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start: acceptor plus `config.workers` replay workers.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let workers_n = config.workers.max(1);
        // The ring name defaults to the *bound* address so `--addr` with a
        // concrete port needs no extra flag; port-0 binds behind a fixed
        // roster must advertise explicitly.
        let fleet = if config.peers.is_empty() {
            None
        } else {
            let self_addr = config.advertise.clone().unwrap_or_else(|| addr.to_string());
            Some(FleetState::new(self_addr, config.peers.clone()))
        };
        let shared = Arc::new(Shared {
            store: CaptureStore::new(config.state_dir.clone(), config.cache_bytes),
            config,
            started: Instant::now(),
            stats: Mutex::new(ServiceStats::default()),
            digests: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            queue: Mutex::new(Queue::default()),
            not_empty: Condvar::new(),
            busy: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            fleet,
            shutdown: AtomicBool::new(false),
            replying: Mutex::new(0),
            replied: Condvar::new(),
        });

        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tq-profd-worker-{i}"))
                    .spawn(move || {
                        tq_obs::set_thread_name(format!("tq-profd-worker-{i}"));
                        worker_loop(&shared)
                    })
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tq-profd-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        // Fault rehearsal: a slow accept path delays every
                        // connection behind this one (the backlog is the
                        // kernel's listen queue).
                        if tq_faults::sleep_if(tq_faults::FaultPoint::AcceptDelay) {
                            tq_obs::log::warn(
                                LOG,
                                "fault_fired",
                                &[("point", tq_faults::FaultPoint::AcceptDelay.key().into())],
                            );
                        }
                        // Connection limit: answer `busy` inline and close
                        // before a thread exists for this client. The
                        // counter is reserved here and released by the
                        // connection thread's ConnGuard.
                        let occupied = shared.conns.fetch_add(1, Ordering::SeqCst);
                        if occupied >= shared.config.max_conns {
                            shared.conns.fetch_sub(1, Ordering::SeqCst);
                            lock(&shared.stats).rejects += 1;
                            tq_obs::log::warn(
                                LOG,
                                "conn_limit",
                                &[("max_conns", shared.config.max_conns.into())],
                            );
                            let resp = Response::busy(
                                format!(
                                    "connection limit reached ({} open)",
                                    shared.config.max_conns
                                ),
                                shared.retry_after_ms(lock(&shared.queue).jobs.len()),
                            );
                            let mut out = resp.encode();
                            out.push('\n');
                            let _ = stream
                                .write_all(out.as_bytes())
                                .and_then(|_| stream.flush());
                            continue; // drop closes the rejected stream
                        }
                        let conn_shared = Arc::clone(&shared);
                        if std::thread::Builder::new()
                            .name("tq-profd-conn".into())
                            .spawn(move || connection_loop(conn_shared, addr, stream))
                            .is_err()
                        {
                            // Spawn failed: nothing will run ConnGuard.
                            shared.conns.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                })
                .map_err(|e| e.to_string())?
        };

        Ok(Server {
            addr,
            shared,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a shutdown request has been accepted.
    pub fn is_stopping(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the server to stop (same path as a client `shutdown` request).
    pub fn request_stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.close_queue();
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the acceptor and all workers have exited (after a
    /// shutdown request drained the queue) and every accepted submit has
    /// its reply written. A client that stops reading holds the wait for
    /// at most `job_timeout`.
    pub fn join(self) -> Result<(), String> {
        self.acceptor
            .join()
            .map_err(|_| "acceptor panicked".to_string())?;
        for w in self.workers {
            w.join().map_err(|_| "worker panicked".to_string())?;
        }
        let shared = &self.shared;
        let _ = shared.replied.wait_timeout_while(
            lock(&shared.replying),
            shared.config.job_timeout,
            |n| *n > 0,
        );
        Ok(())
    }
}
