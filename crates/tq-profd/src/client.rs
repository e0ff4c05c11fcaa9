//! The line-oriented client used by `tq submit` and the tests.
//!
//! Resilience lives here, mirrored against the server's overload controls:
//! connects and reads are bounded by [`ClientConfig`] timeouts (a dead
//! server address fails fast instead of hanging forever), and
//! [`Client::submit_with_retry`] resubmits after `busy` responses with
//! capped exponential backoff, jittered by `tq_isa::prng` so a stampede of
//! shed clients does not return in lockstep. Backoff shape is an explicit
//! [`RetryPolicy`] so the fleet bench and operators can tune it.
//!
//! [`FleetClient`] layers routing on top: it computes the same
//! consistent-hash ring as the servers (`tq-fleet`), submits each job to
//! its owner first, honors `redirect_to` hints on `busy`, and fails over
//! around dead or shedding peers.

use crate::apps::{AppId, Scale, Workload};
use crate::protocol::{
    hex_decode, job_id_hex, mint_job_id, JobSpec, Request, Response, PEEK_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tq_fleet::{Ring, Roster};
use tq_report::Json;

/// Per-process submission sequence, mixed into client-minted job ids so
/// two submissions of the same spec from one process still get distinct
/// distributed-trace ids.
static SUBMISSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mint the distributed-trace id for one logical submission. The id is
/// reused verbatim across every retry and failover hop of that
/// submission — that reuse is what lets the fleet trace merger correlate
/// the hops into one track.
fn mint_submission_id(identity: &str) -> u64 {
    let seq = SUBMISSION_SEQ.fetch_add(1, Ordering::Relaxed);
    mint_job_id(
        identity,
        seq ^ u64::from(std::process::id()).rotate_left(32),
    )
}

/// Backoff shape for resubmission after `busy`/shed responses.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Hint to assume when a response carries no `retry_after_ms` (e.g.
    /// the transport died before the server could answer).
    pub fallback_hint_ms: u64,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            fallback_hint_ms: 50,
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Client-side socket policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout per resolved address.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for a response line (`None` =
    /// wait forever). Must exceed the server's per-job reply timeout or
    /// slow cold jobs will be misreported as transport errors.
    pub read_timeout: Option<Duration>,
    /// Backoff shape for [`Client::submit_with_retry`].
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            // The server's default job timeout is 600s; leave headroom so
            // the server's own timeout error reaches us first.
            read_timeout: Some(Duration::from_secs(630)),
            retry: RetryPolicy::default(),
        }
    }
}

/// What a retried submission actually did: how many attempts ran, which
/// peers saw one, and the last backpressure hint. `tq submit` prints this
/// on final failure so an operator sees *where* the job died, not just
/// that it did.
#[derive(Clone, Debug, Default)]
pub struct RetryTrail {
    /// The distributed-trace id minted for this submission (0 before the
    /// first attempt). Every retry and failover hop carries the same id.
    pub job_id: u64,
    /// Total submit attempts made (including the first).
    pub attempts: u32,
    /// Wall-clock milliseconds each attempt spent (request send to
    /// response/error), in attempt order.
    pub attempt_ms: Vec<u64>,
    /// Distinct peer addresses tried, in first-contact order.
    pub peers_tried: Vec<String>,
    /// The last `retry_after_ms` hint a server sent (None: no server ever
    /// answered with one).
    pub last_retry_after_ms: Option<u64>,
    /// The last per-attempt error before success or giving up.
    pub last_error: Option<String>,
}

impl RetryTrail {
    fn note_peer(&mut self, addr: &str) {
        if self.peers_tried.last().map(String::as_str) != Some(addr)
            && !self.peers_tried.iter().any(|p| p == addr)
        {
            self.peers_tried.push(addr.to_string());
        }
    }

    fn note_elapsed(&mut self, started: Instant) {
        self.attempt_ms.push(started.elapsed().as_millis() as u64);
    }

    /// One-line rendering for diagnostics (`attempts=3 peers=a,b last_hint=50ms`).
    pub fn describe(&self) -> String {
        let hint = match self.last_retry_after_ms {
            Some(ms) => format!("{ms}ms"),
            None => "none".into(),
        };
        format!(
            "job_id={} attempts={} peers_tried={} last_retry_after_ms={}",
            job_id_hex(self.job_id),
            self.attempts,
            if self.peers_tried.is_empty() {
                "none".into()
            } else {
                self.peers_tried.join(",")
            },
            hint
        )
    }

    /// Structured rendering: the JSON object `tq submit` logs at debug
    /// level after every submission, successful or not.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("job_id", Json::from(job_id_hex(self.job_id))),
            ("attempts", Json::from(u64::from(self.attempts))),
            (
                "attempt_ms",
                Json::from(
                    self.attempt_ms
                        .iter()
                        .map(|&ms| Json::from(ms))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "peers_tried",
                Json::from(
                    self.peers_tried
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        if let Some(ms) = self.last_retry_after_ms {
            obj.set("last_retry_after_ms", Json::from(ms));
        }
        if let Some(err) = &self.last_error {
            obj.set("last_error", Json::from(err.as_str()));
        }
        obj
    }
}

/// One peer's span ring as exported by its `trace` endpoint, bracketed by
/// the client-side round-trip timestamps needed to place the peer's
/// clock: `offset ≈ server_now_ns − (t0_ns + t1_ns) / 2` (NTP's
/// single-sample estimator; see `crate::telemetry`).
#[derive(Clone, Debug)]
pub struct TraceExport {
    /// Client clock (`tq_obs::now_ns`) just before the request was sent.
    pub t0_ns: u64,
    /// Client clock just after the response arrived.
    pub t1_ns: u64,
    /// The peer's own `tq_obs::now_ns` when it answered.
    pub server_now_ns: u64,
    /// The peer's retired+live spans as a Chrome trace-event JSON document.
    pub doc: String,
}

/// A connected client. One request/response at a time; the connection
/// stays open across requests and transparently reopens inside
/// [`Client::submit_with_retry`] if the server shed it.
pub struct Client {
    addr: String,
    config: ClientConfig,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Jitter source for backoff sleeps; deterministic per process+addr,
    /// decorrelated across client processes.
    rng: tq_isa::prng::Rng,
}

fn open(addr: &str, config: &ClientConfig) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let addrs: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .collect();
    let mut last_err = format!("connect {addr}: no addresses");
    for a in &addrs {
        match TcpStream::connect_timeout(a, config.connect_timeout) {
            Ok(stream) => {
                stream
                    .set_read_timeout(config.read_timeout)
                    .map_err(|e| e.to_string())?;
                let read_half = stream.try_clone().map_err(|e| e.to_string())?;
                return Ok((stream, BufReader::new(read_half)));
            }
            Err(e) => last_err = format!("connect {a}: {e}"),
        }
    }
    Err(last_err)
}

impl Client {
    /// Connect to a running service with default timeouts.
    pub fn connect(addr: &str) -> Result<Client, String> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit socket policy.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Client, String> {
        let (writer, reader) = open(addr, &config)?;
        let mut seed = 0xC1E5_7D00u64 ^ u64::from(std::process::id());
        for b in addr.bytes() {
            seed = seed.rotate_left(8) ^ u64::from(b);
        }
        Ok(Client {
            addr: addr.to_string(),
            config,
            writer,
            reader,
            rng: tq_isa::prng::Rng::new(seed),
        })
    }

    /// Drop the current connection and open a fresh one (used after the
    /// server sheds us or the transport dies mid-retry).
    fn reconnect(&mut self) -> Result<(), String> {
        let (writer, reader) = open(&self.addr, &self.config)?;
        self.writer = writer;
        self.reader = reader;
        Ok(())
    }

    /// Send one request, wait for its response line.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = req.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Response::decode(&reply),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<Response, String> {
        self.request(&Request::Ping)
    }

    /// Submit a job once; on success returns `(profile, cached)`. A `busy`
    /// shed comes back as a plain `Err` — use [`Client::submit_with_retry`]
    /// to honor the server's backpressure instead.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(Json, bool), String> {
        let job_id = mint_submission_id(&format!("{spec:?}"));
        let resp = self.request(&Request::Submit {
            spec,
            attempt: 0,
            job_id,
        })?;
        Self::parse_submit(resp)
    }

    fn parse_submit(resp: Response) -> Result<(Json, bool), String> {
        if !resp.is_ok() {
            return Err(resp.error().unwrap_or("unknown server error").to_string());
        }
        let cached = resp
            .0
            .get("cached")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let profile = resp
            .0
            .get("profile")
            .cloned()
            .ok_or("response missing `profile`")?;
        Ok((profile, cached))
    }

    /// The address this client is currently connected to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One backoff sleep: exponential in the attempt number, seeded by the
    /// server's `retry_after_ms` hint, capped per [`RetryPolicy`], and
    /// jittered ±50% so shed clients spread out instead of re-stampeding.
    fn backoff(&mut self, hint_ms: u64, attempt: u32) {
        backoff_sleep(&self.config.retry, &mut self.rng, hint_ms, attempt);
    }

    /// Submit a job, resubmitting up to `retries` times when the server
    /// sheds us — a `busy` response (queue full, connection limit) or a
    /// dropped connection. Sleeps between attempts per the backoff policy,
    /// honoring the server's `retry_after_ms` hint. Non-busy job errors are
    /// returned immediately: the job failed on its merits and a retry
    /// would fail identically.
    pub fn submit_with_retry(
        &mut self,
        spec: JobSpec,
        retries: u32,
    ) -> Result<(Json, bool), String> {
        self.submit_with_retry_trail(spec, retries, &mut RetryTrail::default())
    }

    /// [`Client::submit_with_retry`], recording every attempt into `trail`.
    /// A `busy` response carrying a `redirect_to` hint moves the retry to
    /// the hinted peer (the server names its least-loaded live fleet
    /// sibling); if the hinted peer is unreachable the client stays put.
    pub fn submit_with_retry_trail(
        &mut self,
        spec: JobSpec,
        retries: u32,
        trail: &mut RetryTrail,
    ) -> Result<(Json, bool), String> {
        if trail.job_id == 0 {
            trail.job_id = mint_submission_id(&format!("{spec:?}"));
        }
        let mut attempt: u32 = 0;
        loop {
            trail.attempts += 1;
            trail.note_peer(&self.addr);
            let started = Instant::now();
            let result = self.request(&Request::Submit {
                spec: spec.clone(),
                attempt: u64::from(attempt),
                job_id: trail.job_id,
            });
            trail.note_elapsed(started);
            let (hint_ms, redirect, err) = match result {
                Ok(resp) if resp.is_busy() => {
                    let hint = resp
                        .retry_after_ms()
                        .unwrap_or(self.config.retry.fallback_hint_ms);
                    trail.last_retry_after_ms = Some(hint);
                    let redirect = resp.redirect_to().map(str::to_string);
                    (
                        hint,
                        redirect,
                        resp.error().unwrap_or("server busy").to_string(),
                    )
                }
                Ok(resp) => {
                    let parsed = Self::parse_submit(resp);
                    if let Err(e) = &parsed {
                        trail.last_error = Some(e.clone());
                    }
                    return parsed;
                }
                // Transport failure: the server may have shed the whole
                // connection (max-conns reject closes it) or died; only a
                // reconnect can tell.
                Err(e) => (self.config.retry.fallback_hint_ms, None, e),
            };
            trail.last_error = Some(err.clone());
            if attempt >= retries {
                return Err(format!("giving up after {attempt} retries: {err}"));
            }
            self.backoff(hint_ms, attempt);
            attempt += 1;
            tq_obs::counter(
                "tq_profd_client_retries_total",
                "Submissions this client retried after busy/shed responses",
            )
            .inc();
            if let Some(peer) = redirect.filter(|p| *p != self.addr) {
                // Follow the server's hint to its less-loaded sibling; if
                // the sibling is unreachable, fall back to where we were.
                let old = std::mem::replace(&mut self.addr, peer);
                if self.reconnect().is_err() {
                    self.addr = old;
                    let _ = self.reconnect();
                }
                continue;
            }
            // Best effort: if the old connection is gone, replace it. A
            // failed reconnect burns this attempt and backs off again.
            if self.ping().is_err() {
                let _ = self.reconnect();
            }
        }
    }

    /// Fetch the service stats object.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.request(&Request::Stats)?;
        if !resp.is_ok() {
            return Err(resp.error().unwrap_or("unknown server error").to_string());
        }
        resp.0
            .get("stats")
            .cloned()
            .ok_or_else(|| "response missing `stats`".into())
    }

    /// Fetch the Prometheus-style text exposition of the server's
    /// process-wide metrics.
    pub fn metrics(&mut self) -> Result<String, String> {
        let resp = self.request(&Request::Metrics)?;
        if !resp.is_ok() {
            return Err(resp.error().unwrap_or("unknown server error").to_string());
        }
        resp.0
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "response missing `metrics`".into())
    }

    /// Request a graceful shutdown.
    pub fn shutdown(&mut self) -> Result<Response, String> {
        self.request(&Request::Shutdown)
    }

    /// Export the peer's span ring as a Chrome trace document, timing the
    /// round-trip on the local `tq_obs` clock so the caller can estimate
    /// the peer's clock offset (see [`TraceExport`]).
    pub fn trace_export(&mut self) -> Result<TraceExport, String> {
        let t0_ns = tq_obs::now_ns();
        let resp = self.request(&Request::Trace)?;
        let t1_ns = tq_obs::now_ns();
        if !resp.is_ok() {
            return Err(resp.error().unwrap_or("unknown server error").to_string());
        }
        let server_now_ns = resp
            .0
            .get("now_ns")
            .and_then(Json::as_u64)
            .ok_or("trace response missing `now_ns`")?;
        let doc = resp
            .0
            .get("trace")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("trace response missing `trace`")?;
        Ok(TraceExport {
            t0_ns,
            t1_ns,
            server_now_ns,
            doc,
        })
    }

    /// Fetch the peer's recent structured-log tail. Returns the peer's
    /// active level name and the JSON-lines records, oldest first.
    pub fn logs_tail(&mut self) -> Result<(String, Vec<String>), String> {
        let resp = self.request(&Request::Logs)?;
        if !resp.is_ok() {
            return Err(resp.error().unwrap_or("unknown server error").to_string());
        }
        let level = resp
            .0
            .get("level")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let records = resp
            .0
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("logs response missing `records`")?
            .iter()
            .filter_map(|r| r.as_str().map(str::to_string))
            .collect();
        Ok((level, records))
    }

    /// Fetch the encoded capture for `digest` via a `peek`: a header line
    /// declaring `frames`/`total_bytes`, then that many bounded frame
    /// lines ([`PEEK_FRAME_BYTES`] raw bytes each).
    ///
    /// `Ok(None)` is a clean miss (the peer does not have the capture);
    /// `Err` is a transport or protocol failure.
    pub fn peek_fetch(
        &mut self,
        app: AppId,
        scale: Scale,
        digest: &str,
    ) -> Result<Option<Vec<u8>>, String> {
        self.peek_fetch_tagged(app, scale, digest, 0)
    }

    /// [`Client::peek_fetch`] carrying the distributed-trace `job_id` of
    /// the submission that triggered the fetch, so the serving peer's
    /// `peek-serve` span joins the same trace (0 = untagged).
    pub fn peek_fetch_tagged(
        &mut self,
        app: AppId,
        scale: Scale,
        digest: &str,
        job_id: u64,
    ) -> Result<Option<Vec<u8>>, String> {
        let header = self.request(&Request::Peek {
            app,
            scale,
            digest: digest.to_string(),
            job_id,
        })?;
        if !header.is_ok() {
            return Err(header.error().unwrap_or("unknown server error").to_string());
        }
        if header.0.get("found").and_then(Json::as_bool) != Some(true) {
            return Ok(None);
        }
        // The server echoes the digest it answered for; a mismatch means
        // the response belongs to some other request and is discarded.
        if header.0.get("digest").and_then(Json::as_str) != Some(digest) {
            return Err("peek response digest mismatch".into());
        }
        let frames = header
            .0
            .get("frames")
            .and_then(Json::as_u64)
            .ok_or("peek header missing `frames`")? as usize;
        let total = header
            .0
            .get("total_bytes")
            .and_then(Json::as_u64)
            .ok_or("peek header missing `total_bytes`")? as usize;
        // The declared sizes must be mutually consistent before any
        // allocation happens — a lying header cannot make us reserve more
        // than the frames it is about to send could ever fill.
        if total.div_ceil(PEEK_FRAME_BYTES).max(1) != frames.max(1) {
            return Err(format!(
                "peek header inconsistent: {frames} frames for {total} bytes"
            ));
        }
        let mut bytes = Vec::with_capacity(total);
        for i in 0..frames {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(format!("server closed mid-peek at frame {i}/{frames}")),
                Ok(_) => {}
                Err(e) => return Err(format!("recv frame {i}: {e}")),
            }
            let frame = Json::parse(line.trim()).map_err(|e| format!("frame {i}: {e}"))?;
            if frame.get("frame").and_then(Json::as_u64) != Some(i as u64) {
                return Err(format!("peek frames out of order at frame {i}"));
            }
            let hex = frame
                .get("data_hex")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("frame {i} missing `data_hex`"))?;
            let data = hex_decode(hex).ok_or_else(|| format!("frame {i} is not valid hex"))?;
            if data.len() > PEEK_FRAME_BYTES || bytes.len() + data.len() > total {
                return Err(format!("frame {i} overruns the declared transfer size"));
            }
            bytes.extend_from_slice(&data);
        }
        if bytes.len() != total {
            return Err(format!(
                "peek delivered {} bytes, header declared {total}",
                bytes.len()
            ));
        }
        Ok(Some(bytes))
    }
}

fn backoff_sleep(policy: &RetryPolicy, rng: &mut tq_isa::prng::Rng, hint_ms: u64, attempt: u32) {
    let base_ms = hint_ms.max(1).saturating_mul(1u64 << attempt.min(16));
    let capped_ms = base_ms.min(policy.backoff_cap.as_millis() as u64);
    let jittered = (capped_ms as f64 * rng.f64_in(0.5, 1.5)).max(1.0);
    std::thread::sleep(Duration::from_millis(jittered as u64));
}

/// Errors that justify trying the next ring node instead of giving up:
/// the transport died, the server announced it is shutting down and shed
/// the job, or a bounded retry run on one peer was exhausted.
fn is_failover_error(err: &str) -> bool {
    err.starts_with("shed:")
        || err.contains(": shed:")
        || err.contains("server is shutting down")
        || err.starts_with("send:")
        || err.starts_with("recv:")
        || err.starts_with("connect ")
        || err.starts_with("resolve ")
        || err.contains("server closed the connection")
}

/// A ring-aware client for a tq-profd fleet.
///
/// Builds the same consistent-hash ring as the servers (`tq-fleet` is
/// deterministic on the sorted member list, so client and servers agree
/// without any coordination), routes each job to the owner of its content
/// digest first, and walks the ring on failure: dead peers are remembered
/// in a local [`Roster`] and skipped, shedding peers ("shed: …" errors,
/// which the server sends when shutting down) trigger immediate failover,
/// and `busy` responses burn a bounded number of backoff retries before
/// moving on. Digest computation builds the workload once per
/// `(app, scale)` and is memoized.
pub struct FleetClient {
    ring: Ring,
    roster: Roster,
    config: ClientConfig,
    conns: HashMap<String, Client>,
    digests: HashMap<(AppId, Scale), String>,
    rng: tq_isa::prng::Rng,
}

impl FleetClient {
    /// A fleet client over the given member addresses (order-insensitive),
    /// with default socket policy.
    pub fn new(members: Vec<String>) -> FleetClient {
        FleetClient::with_config(members, ClientConfig::default())
    }

    /// A fleet client with explicit socket/backoff policy.
    pub fn with_config(members: Vec<String>, config: ClientConfig) -> FleetClient {
        let mut seed = 0xF1EE_7C11u64 ^ u64::from(std::process::id());
        for m in &members {
            for b in m.bytes() {
                seed = seed.rotate_left(7) ^ u64::from(b);
            }
        }
        FleetClient {
            ring: Ring::new(members.clone()),
            roster: Roster::new(members),
            config,
            conns: HashMap::new(),
            digests: HashMap::new(),
            rng: tq_isa::prng::Rng::new(seed),
        }
    }

    /// The ring owner for a job's content digest.
    pub fn owner_of(&mut self, spec: &JobSpec) -> Option<String> {
        let digest = self.digest_for(spec.app, spec.scale);
        self.ring.owner_of(&digest).map(str::to_string)
    }

    fn digest_for(&mut self, app: AppId, scale: Scale) -> String {
        self.digests
            .entry((app, scale))
            .or_insert_with(|| Workload::build(app, scale).digest())
            .clone()
    }

    fn connection(&mut self, addr: &str) -> Result<&mut Client, String> {
        if !self.conns.contains_key(addr) {
            let client = Client::connect_with(addr, self.config.clone())?;
            self.conns.insert(addr.to_string(), client);
        }
        Ok(self.conns.get_mut(addr).expect("just inserted"))
    }

    /// Submit a job to the fleet. Returns `(profile, cached, served_by)`;
    /// `retries` bounds the *total* extra attempts across all peers.
    pub fn submit(&mut self, spec: JobSpec, retries: u32) -> Result<(Json, bool, String), String> {
        self.submit_with_trail(spec, retries, &mut RetryTrail::default())
    }

    /// [`FleetClient::submit`], recording the attempt trail.
    pub fn submit_with_trail(
        &mut self,
        spec: JobSpec,
        retries: u32,
        trail: &mut RetryTrail,
    ) -> Result<(Json, bool, String), String> {
        let digest = self.digest_for(spec.app, spec.scale);
        if trail.job_id == 0 {
            trail.job_id = mint_submission_id(&digest);
        }
        let route: Vec<String> = self
            .ring
            .route(&digest)
            .into_iter()
            .map(str::to_string)
            .collect();
        if route.is_empty() {
            return Err("fleet has no members".into());
        }
        let budget = retries.saturating_add(1); // total attempts allowed
        let mut spent: u32 = 0;
        let mut last_err = String::from("no live fleet member reachable");
        // Walk the ring repeatedly until the attempt budget runs out; a
        // full pass with every peer dead resets the roster so a recovered
        // peer gets another look instead of permanent exile.
        while spent < budget {
            let mut touched_any = false;
            for addr in &route {
                if spent >= budget {
                    break;
                }
                if !self.roster.is_live(addr) {
                    continue;
                }
                touched_any = true;
                let connect_started = Instant::now();
                let client = match self.connection(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        spent += 1;
                        trail.attempts += 1;
                        trail.note_peer(addr);
                        trail.note_elapsed(connect_started);
                        trail.last_error = Some(e.clone());
                        last_err = format!("{addr}: {e}");
                        self.roster.mark_dead(addr);
                        continue;
                    }
                };
                let started = Instant::now();
                let result = client.request(&Request::Submit {
                    spec: spec.clone(),
                    attempt: u64::from(spent),
                    job_id: trail.job_id,
                });
                spent += 1;
                trail.attempts += 1;
                trail.note_peer(addr);
                trail.note_elapsed(started);
                match result {
                    Ok(resp) if resp.is_busy() => {
                        let hint = resp
                            .retry_after_ms()
                            .unwrap_or(self.config.retry.fallback_hint_ms);
                        trail.last_retry_after_ms = Some(hint);
                        last_err = format!("{addr}: {}", resp.error().unwrap_or("server busy"));
                        trail.last_error = Some(last_err.clone());
                        self.roster.record_success(addr, u64::MAX, u64::MAX);
                        let next = resp.redirect_to().map(str::to_string);
                        backoff_sleep(&self.config.retry, &mut self.rng, hint, spent.min(8));
                        // A redirect hint names a less-loaded sibling: jump
                        // there next instead of continuing in ring order —
                        // but only if it is one of ours and alive.
                        if let Some(hinted) = next {
                            if hinted != *addr
                                && route.contains(&hinted)
                                && self.roster.is_live(&hinted)
                                && spent < budget
                            {
                                if let Ok((json, cached)) =
                                    self.try_once(&hinted, &spec, spent, trail)
                                {
                                    return Ok((json, cached, hinted));
                                }
                                spent += 1;
                            }
                        }
                    }
                    Ok(resp) => match Client::parse_submit(resp) {
                        Ok((json, cached)) => {
                            self.roster.record_success(addr, 0, 0);
                            return Ok((json, cached, addr.clone()));
                        }
                        Err(e) if is_failover_error(&e) => {
                            last_err = format!("{addr}: {e}");
                            trail.last_error = Some(last_err.clone());
                            self.roster.record_failure(addr);
                            self.conns.remove(addr);
                        }
                        // The job failed on its merits; every peer would
                        // fail it identically.
                        Err(e) => {
                            trail.last_error = Some(e.clone());
                            return Err(format!("{addr}: {e}"));
                        }
                    },
                    Err(e) => {
                        last_err = format!("{addr}: {e}");
                        trail.last_error = Some(last_err.clone());
                        self.roster.mark_dead(addr);
                        self.conns.remove(addr);
                    }
                }
            }
            if !touched_any {
                // Every member looked dead: forget the verdicts and retry
                // from scratch (the alternative is failing without ever
                // re-checking a peer that may have restarted).
                self.roster = Roster::new(route.clone());
                spent += 1;
            }
        }
        Err(format!("giving up after {spent} attempts: {last_err}"))
    }

    /// One single-shot submit against a specific peer (used to chase a
    /// redirect hint). Failures are recorded but never fatal — the caller
    /// resumes its ring walk.
    fn try_once(
        &mut self,
        addr: &str,
        spec: &JobSpec,
        attempt: u32,
        trail: &mut RetryTrail,
    ) -> Result<(Json, bool), String> {
        trail.attempts += 1;
        trail.note_peer(addr);
        let connect_started = Instant::now();
        let client = match self.connection(addr) {
            Ok(c) => c,
            Err(e) => {
                trail.note_elapsed(connect_started);
                self.roster.mark_dead(addr);
                return Err(e);
            }
        };
        let started = Instant::now();
        let result = client.request(&Request::Submit {
            spec: spec.clone(),
            attempt: u64::from(attempt),
            job_id: trail.job_id,
        });
        trail.note_elapsed(started);
        let resp = match result {
            Ok(r) => r,
            Err(e) => {
                self.roster.mark_dead(addr);
                self.conns.remove(addr);
                return Err(e);
            }
        };
        if resp.is_busy() {
            trail.last_retry_after_ms = resp.retry_after_ms().or(trail.last_retry_after_ms);
            return Err(resp.error().unwrap_or("server busy").to_string());
        }
        Client::parse_submit(resp)
    }
}
