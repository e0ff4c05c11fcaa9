//! The wire protocol: JSON lines over TCP.
//!
//! One request per line, one response line back, connection stays open for
//! further requests. The codec is the workspace's hand-rolled
//! [`tq_report::Json`]; objects keep insertion order, so a response built
//! twice from the same data is byte-identical — the property the capture
//! cache's "warm responses equal cold responses" guarantee rests on.

use crate::apps::{AppId, Scale};
use tq_report::Json;
use tq_tquad::LibPolicy;

/// Which profiling tool a job runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ToolId {
    /// tQUAD time-sliced bandwidth profile (full per-kernel series).
    Tquad,
    /// QUAD producer→consumer bindings and UnMA counts.
    Quad,
    /// Sampling flat profile.
    Gprof,
    /// Phase detection over a tQUAD profile.
    Phases,
}

impl ToolId {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ToolId::Tquad => "tquad",
            ToolId::Quad => "quad",
            ToolId::Gprof => "gprof",
            ToolId::Phases => "phases",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<ToolId, String> {
        match s {
            "tquad" => Ok(ToolId::Tquad),
            "quad" => Ok(ToolId::Quad),
            "gprof" => Ok(ToolId::Gprof),
            "phases" => Ok(ToolId::Phases),
            other => Err(format!("unknown tool `{other}` (tquad|quad|gprof|phases)")),
        }
    }

    /// Default slice/sample interval when the job does not set one.
    pub fn default_interval(self) -> u64 {
        match self {
            ToolId::Tquad => 20_000,
            ToolId::Quad => 0, // interval-free
            ToolId::Gprof => 5_000,
            ToolId::Phases => 2_000,
        }
    }
}

/// Stack-accesses setting (the paper's include/exclude local stack option).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum StackPolicy {
    /// Count stack-area accesses (paper default).
    #[default]
    Include,
    /// Drop them.
    Exclude,
}

impl StackPolicy {
    /// True if stack accesses count.
    pub fn include(self) -> bool {
        matches!(self, StackPolicy::Include)
    }

    fn as_str(self) -> &'static str {
        match self {
            StackPolicy::Include => "include",
            StackPolicy::Exclude => "exclude",
        }
    }

    fn parse(s: &str) -> Result<StackPolicy, String> {
        match s {
            "include" => Ok(StackPolicy::Include),
            "exclude" => Ok(StackPolicy::Exclude),
            other => Err(format!("unknown stack policy `{other}` (include|exclude)")),
        }
    }
}

/// A profiling job: workload plus tool configuration. Doubles as the
/// result-memo key (hash/eq over every field that affects the output).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct JobSpec {
    /// Which application to profile.
    pub app: AppId,
    /// Workload scale.
    pub scale: Scale,
    /// Which tool to run.
    pub tool: ToolId,
    /// Slice/sample interval in instructions (tool-dependent default).
    pub interval: u64,
    /// Stack-accesses policy.
    pub stack: StackPolicy,
    /// Library-routine policy.
    pub lib_policy: LibPolicy,
    /// Instrumentation mode spec (`"full"`, `"sample:8"`, …) in the
    /// canonical [`tq_vm::InstrMode`] spelling. Part of the job identity:
    /// a sampled profile is a different answer than a full one, so it
    /// memoises separately. The underlying *capture* stays shared — the
    /// server always records full and emulates reduced modes at replay.
    pub instr: String,
}

impl JobSpec {
    /// A job with tool defaults for everything but app/scale/tool.
    pub fn new(app: AppId, scale: Scale, tool: ToolId) -> JobSpec {
        JobSpec {
            app,
            scale,
            tool,
            interval: tool.default_interval(),
            stack: StackPolicy::default(),
            lib_policy: LibPolicy::AttributeToCaller,
            instr: "full".to_string(),
        }
    }

    fn libs_str(&self) -> &'static str {
        match self.lib_policy {
            LibPolicy::Track => "track",
            LibPolicy::AttributeToCaller => "attribute",
            LibPolicy::Drop => "drop",
        }
    }

    fn to_json(&self) -> Json {
        self.to_json_typed("submit")
    }

    /// The spec's wire object under an explicit request `type` (`submit`
    /// and `route` carry identical job fields).
    fn to_json_typed(&self, ty: &'static str) -> Json {
        let mut obj = Json::obj([
            ("type", Json::from(ty)),
            ("app", Json::from(self.app.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("tool", Json::from(self.tool.as_str())),
            ("interval", Json::from(self.interval)),
            ("stack", Json::from(self.stack.as_str())),
            ("libs", Json::from(self.libs_str())),
        ]);
        // Only written for reduced modes, so the wire form servers that
        // predate the field see is unchanged.
        if self.instr != "full" {
            obj.set("instr", Json::from(self.instr.as_str()));
        }
        obj
    }

    fn from_json(v: &Json) -> Result<JobSpec, String> {
        let app = AppId::parse(v.get("app").and_then(Json::as_str).unwrap_or("wfs"))?;
        let scale = Scale::parse(v.get("scale").and_then(Json::as_str).unwrap_or("tiny"))?;
        let tool = ToolId::parse(
            v.get("tool")
                .and_then(Json::as_str)
                .ok_or("submit requires `tool`")?,
        )?;
        let interval = match v.get("interval") {
            Some(j) => j
                .as_u64()
                .ok_or("`interval` must be a non-negative integer")?,
            None => tool.default_interval(),
        };
        let stack = StackPolicy::parse(v.get("stack").and_then(Json::as_str).unwrap_or("include"))?;
        let lib_policy = match v.get("libs").and_then(Json::as_str).unwrap_or("attribute") {
            "track" => LibPolicy::Track,
            "attribute" => LibPolicy::AttributeToCaller,
            "drop" => LibPolicy::Drop,
            other => {
                return Err(format!(
                    "unknown lib policy `{other}` (track|attribute|drop)"
                ))
            }
        };
        // Canonicalise through the parser: the spec is part of the job's
        // memo identity, so `sample:8` and any equivalent spelling must
        // land on the same cache entry (and garbage must fail here, not
        // deep inside a worker).
        let instr = match v.get("instr").and_then(Json::as_str) {
            Some(spec) => tq_vm::InstrMode::parse(spec)?.to_string(),
            None => "full".to_string(),
        };
        Ok(JobSpec {
            app,
            scale,
            tool,
            interval,
            stack,
            lib_policy,
            instr,
        })
    }
}

/// A client request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Run (or fetch) a profiling job.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Retry generation: 0 for a first submission, `n` for the n-th
        /// resubmission after a `busy` response. Not part of the job
        /// identity — the server only counts it (`retries_observed`), so
        /// operators can see clients backing off in `stats`.
        attempt: u64,
        /// Distributed-trace correlation id minted by the client
        /// ([`mint_job_id`]); 0 when absent (legacy clients), in which
        /// case the server mints one so its own spans are still tagged.
        /// One id persists across every retry and peer hop of a logical
        /// submission — the key the fleet trace merger joins on.
        job_id: u64,
    },
    /// Where does this job live? Answers with the fleet owner of the
    /// job's content digest (and the digest itself) without running
    /// anything — clients and scripts use it to route submissions.
    Route {
        /// The job whose owner is asked for.
        spec: JobSpec,
        /// Trace correlation id, so even the routing hop of a traced
        /// submission shows up under the job's key (0 = untagged).
        job_id: u64,
    },
    /// Fleet-internal capture transfer: fetch the capture for a content
    /// digest from the node that owns it, so a non-owner can serve a
    /// routed job by replaying the owner's recording instead of making
    /// its own. Carries `(app, scale)` so an owner that has not recorded
    /// the capture yet can do so on demand (that recording is the *one*
    /// per fleet).
    Peek {
        /// Which application the digest belongs to.
        app: AppId,
        /// Workload scale.
        scale: Scale,
        /// The content address being fetched; the receiver verifies it
        /// matches its own digest for `(app, scale)`. The answer is a
        /// header carrying `frames` and `total_bytes`, then that many
        /// bounded frame lines (at most [`PEEK_FRAME_BYTES`] raw bytes
        /// each).
        digest: String,
        /// Trace correlation id of the job this fetch serves (0 =
        /// untagged), so the owner's peek-side spans join the same
        /// distributed trace as the non-owner's replay.
        job_id: u64,
    },
    /// Service statistics snapshot.
    Stats,
    /// Prometheus-style text exposition of the process-wide tq-obs
    /// metrics (counters, gauges, histograms).
    Metrics,
    /// Export the peer's span rings as a Chrome-trace JSON document
    /// (non-destructive snapshot), together with the peer's `now_ns`
    /// clock reading so the requester can estimate the clock offset and
    /// merge rings from several peers onto one timeline.
    Trace,
    /// Export the tail of the peer's structured event log (recent
    /// JSON-line records) and its current `TQ_LOG` filter.
    Logs,
    /// Graceful shutdown: drain the queue, stop workers, exit.
    Shutdown,
}

impl Request {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => Json::obj([("type", Json::from("ping"))]).render(),
            Request::Stats => Json::obj([("type", Json::from("stats"))]).render(),
            Request::Metrics => Json::obj([("type", Json::from("metrics"))]).render(),
            Request::Trace => Json::obj([("type", Json::from("trace"))]).render(),
            Request::Logs => Json::obj([("type", Json::from("logs"))]).render(),
            Request::Shutdown => Json::obj([("type", Json::from("shutdown"))]).render(),
            Request::Submit {
                spec,
                attempt,
                job_id,
            } => {
                let mut obj = spec.to_json();
                if *attempt > 0 {
                    obj.set("attempt", Json::from(*attempt));
                }
                set_job_id(&mut obj, *job_id);
                obj.render()
            }
            Request::Route { spec, job_id } => {
                let mut obj = spec.to_json_typed("route");
                set_job_id(&mut obj, *job_id);
                obj.render()
            }
            Request::Peek {
                app,
                scale,
                digest,
                job_id,
            } => {
                let mut obj = Json::obj([
                    ("type", Json::from("peek")),
                    ("app", Json::from(app.as_str())),
                    ("scale", Json::from(scale.as_str())),
                    ("digest", Json::from(digest.as_str())),
                ]);
                set_job_id(&mut obj, *job_id);
                obj.render()
            }
        }
    }

    /// Decode one line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        match v.get("type").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("metrics") => Ok(Request::Metrics),
            Some("trace") => Ok(Request::Trace),
            Some("logs") => Ok(Request::Logs),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("submit") => Ok(Request::Submit {
                spec: JobSpec::from_json(&v)?,
                attempt: v.get("attempt").and_then(Json::as_u64).unwrap_or(0),
                job_id: get_job_id(&v),
            }),
            Some("route") => Ok(Request::Route {
                spec: JobSpec::from_json(&v)?,
                job_id: get_job_id(&v),
            }),
            Some("peek") => Ok(Request::Peek {
                app: AppId::parse(v.get("app").and_then(Json::as_str).unwrap_or("wfs"))?,
                scale: Scale::parse(v.get("scale").and_then(Json::as_str).unwrap_or("tiny"))?,
                digest: v
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or("peek requires `digest`")?
                    .to_string(),
                job_id: get_job_id(&v),
            }),
            Some(other) => Err(format!("unknown request type `{other}`")),
            None => Err("request missing `type`".into()),
        }
    }
}

/// Write a job id into a request object, only when set: absent means
/// "untagged", so the wire form legacy servers see is unchanged and they
/// simply never learn the field exists.
fn set_job_id(obj: &mut Json, job_id: u64) {
    if job_id != 0 {
        obj.set("job_id", Json::from(job_id_hex(job_id)));
    }
}

/// Read an optional wire job id (0 when absent or malformed — a garbled
/// id degrades to "untagged" rather than failing the request).
fn get_job_id(v: &Json) -> u64 {
    v.get("job_id")
        .and_then(Json::as_str)
        .and_then(parse_job_id)
        .unwrap_or(0)
}

/// A job id as the wire carries it: 16 lowercase hex characters. Hex
/// rather than a JSON number because the hand-rolled codec stores numbers
/// as `f64`, which silently loses precision above 2⁵³ — fatal for a
/// correlation key that must match exactly across peers.
pub fn job_id_hex(job_id: u64) -> String {
    format!("{job_id:016x}")
}

/// Inverse of [`job_id_hex`]; `None` on anything that is not hex that
/// fits a `u64`.
pub fn parse_job_id(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Mint a distributed-trace job id: a splitmix64-style mix over the
/// job's content identity (the workload digest when the client knows it,
/// else the spec's wire encoding) and the retry generation at mint time.
/// Minted **once** per logical submission — every busy-retry, redirect
/// and peer hop reuses the same id, which is exactly what makes the
/// merged fleet trace line up. Never returns 0 (the "untagged" value).
pub fn mint_job_id(identity: &str, attempt: u64) -> u64 {
    let mut h = tq_fleet::hash64(identity.as_bytes());
    h ^= attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    if h == 0 {
        1
    } else {
        h
    }
}

/// A server response (already in JSON form; `ok`/`error` discipline is
/// uniform across request kinds).
#[derive(Clone, PartialEq, Debug)]
pub struct Response(pub Json);

impl Response {
    /// A successful response carrying extra fields.
    pub fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Response {
        let mut obj = Json::obj([("ok", Json::from(true))]);
        for (k, v) in fields {
            obj.set(k, v);
        }
        Response(obj)
    }

    /// An error response.
    pub fn err(message: impl Into<String>) -> Response {
        Response(Json::obj([
            ("ok", Json::from(false)),
            ("error", Json::from(message.into())),
        ]))
    }

    /// An overload response: the request was shed without being processed
    /// and the client should retry after `retry_after_ms`. Distinguished
    /// from a plain [`Response::err`] by `busy: true` — a busy job is safe
    /// to resubmit, an errored one failed on its merits.
    pub fn busy(message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response(Json::obj([
            ("ok", Json::from(false)),
            ("busy", Json::from(true)),
            ("error", Json::from(message.into())),
            ("retry_after_ms", Json::from(retry_after_ms)),
        ]))
    }

    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        self.0.render()
    }

    /// Decode one line.
    pub fn decode(line: &str) -> Result<Response, String> {
        Json::parse(line.trim())
            .map(Response)
            .map_err(|e| e.to_string())
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.0.get("ok").and_then(Json::as_bool).unwrap_or(false)
    }

    /// The error message, if any.
    pub fn error(&self) -> Option<&str> {
        self.0.get("error").and_then(Json::as_str)
    }

    /// Whether this is an overload (`busy`) response the client may retry.
    pub fn is_busy(&self) -> bool {
        self.0.get("busy").and_then(Json::as_bool).unwrap_or(false)
    }

    /// The server's retry hint in milliseconds, on `busy` responses.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.0.get("retry_after_ms").and_then(Json::as_u64)
    }

    /// Attach a fleet redirect hint to a `busy` response: the address of
    /// the least-loaded live peer the shed client should resubmit to.
    pub fn with_redirect(mut self, addr: &str) -> Response {
        self.0.set("redirect_to", Json::from(addr));
        self
    }

    /// The peer a `busy` response suggests resubmitting to, if the
    /// server is part of a fleet and had a live peer to hint at.
    pub fn redirect_to(&self) -> Option<&str> {
        self.0.get("redirect_to").and_then(Json::as_str)
    }
}

/// Raw capture bytes per frame of a `peek` transfer. Hex doubles
/// it on the wire, so one frame line is ~48 KiB plus framing — bounded on
/// both sides and symmetric with the server's 64 KiB request-line cap.
/// Neither peer ever materialises more than one frame's hex at a time, so
/// transferring a multi-GB capture costs the capture bytes plus
/// one frame, not 3× the capture (bytes + full hex + line buffer).
pub const PEEK_FRAME_BYTES: usize = 24 * 1024;

/// Lowercase-hex encoding for binary payloads carried inside the JSON
/// line protocol (`peek` capture transfers). Hex doubles the size but
/// survives any JSON string escaping untouched, keeps the line protocol
/// line-oriented, and needs no alphabet table a reviewer has to trust.
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xF) as usize] as char);
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let nib = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Trace,
            Request::Logs,
            Request::Shutdown,
            Request::Submit {
                spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad),
                attempt: 0,
                job_id: 0,
            },
            Request::Submit {
                spec: JobSpec {
                    interval: 123,
                    stack: StackPolicy::Exclude,
                    lib_policy: LibPolicy::Drop,
                    ..JobSpec::new(AppId::Img, Scale::Small, ToolId::Quad)
                },
                attempt: 3,
                job_id: 0x00AB_CDEF_0123_4567,
            },
            Request::Submit {
                spec: JobSpec {
                    instr: "sample:4/20000@7".into(),
                    ..JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad)
                },
                attempt: 0,
                job_id: 0,
            },
            Request::Route {
                spec: JobSpec::new(AppId::Img, Scale::Tiny, ToolId::Gprof),
                job_id: u64::MAX,
            },
            Request::Peek {
                app: AppId::Wfs,
                scale: Scale::Tiny,
                digest: "00112233445566778899aabbccddeeff".into(),
                job_id: 0,
            },
            Request::Peek {
                app: AppId::Img,
                scale: Scale::Small,
                digest: "ffeeddccbbaa99887766554433221100".into(),
                job_id: 7,
            },
        ] {
            let line = req.encode();
            assert!(!line.contains('\n'), "one line per request");
            assert_eq!(Request::decode(&line).unwrap(), req);
        }
    }

    #[test]
    fn submit_defaults_fill_in() {
        let req = Request::decode(r#"{"type":"submit","tool":"gprof"}"#).unwrap();
        let Request::Submit {
            spec,
            attempt,
            job_id,
        } = req
        else {
            panic!("submit")
        };
        assert_eq!(spec.app, AppId::Wfs);
        assert_eq!(spec.scale, Scale::Tiny);
        assert_eq!(spec.interval, ToolId::Gprof.default_interval());
        assert_eq!(spec.stack, StackPolicy::Include);
        assert_eq!(attempt, 0, "first submissions default to attempt 0");
        assert_eq!(job_id, 0, "legacy submissions decode as untagged");
        assert_eq!(spec.instr, "full", "absent instr decodes as full");
    }

    #[test]
    fn instr_is_canonicalised_and_full_stays_off_the_wire() {
        // Full jobs encode without the field, so the wire form servers
        // that predate it see is unchanged.
        let full = Request::Submit {
            spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad),
            attempt: 0,
            job_id: 0,
        };
        assert!(!full.encode().contains("instr"));
        // Decoding canonicalises the spec (the memo key must not split
        // across equivalent spellings)…
        let req =
            Request::decode(r#"{"type":"submit","tool":"tquad","instr":"sample:4"}"#).unwrap();
        let Request::Submit { spec, .. } = req else {
            panic!("submit")
        };
        assert_eq!(spec.instr, "sample:4/20000@0");
        // …and garbage fails at decode, not deep inside a worker.
        assert!(Request::decode(r#"{"type":"submit","tool":"tquad","instr":"sample:0"}"#).is_err());
        // Convergence gating was removed; its spec is garbage too.
        let converge = r#"{"type":"submit","tool":"tquad","instr":"converge:0.1,6"}"#;
        assert!(Request::decode(converge).is_err());
    }

    #[test]
    fn job_id_is_hex_on_the_wire_and_absent_when_untagged() {
        // Untagged requests encode without the field, so old servers
        // never see an unknown key.
        let untagged = Request::Submit {
            spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad),
            attempt: 0,
            job_id: 0,
        };
        assert!(!untagged.encode().contains("job_id"));
        // Tagged requests carry 16 lowercase hex chars — a string, not a
        // JSON number, so ids above 2^53 survive the f64 codec exactly.
        let tagged = Request::Submit {
            spec: JobSpec::new(AppId::Wfs, Scale::Tiny, ToolId::Tquad),
            attempt: 0,
            job_id: u64::MAX - 1,
        };
        let line = tagged.encode();
        assert!(line.contains("\"job_id\":\"fffffffffffffffe\""), "{line}");
        assert_eq!(Request::decode(&line).unwrap(), tagged);
        // A garbled id degrades to untagged instead of failing the job.
        let garbled = r#"{"type":"submit","tool":"tquad","job_id":"not-hex"}"#;
        let Request::Submit { job_id, .. } = Request::decode(garbled).unwrap() else {
            panic!("submit")
        };
        assert_eq!(job_id, 0);
    }

    #[test]
    fn job_id_hex_round_trips() {
        for id in [1u64, 0xAB, 2u64.pow(53) + 1, u64::MAX] {
            assert_eq!(parse_job_id(&job_id_hex(id)), Some(id));
        }
        assert_eq!(parse_job_id(""), None);
        assert_eq!(parse_job_id("xyz"), None);
        assert_eq!(parse_job_id("10000000000000000"), None, "overflow");
    }

    #[test]
    fn minted_job_ids_are_stable_distinct_and_nonzero() {
        let a = mint_job_id("digest-a", 0);
        assert_eq!(a, mint_job_id("digest-a", 0), "deterministic");
        assert_ne!(a, 0, "0 is reserved for untagged");
        assert_ne!(a, mint_job_id("digest-b", 0), "identity matters");
        assert_ne!(a, mint_job_id("digest-a", 1), "attempt matters");
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Request::decode("").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode(r#"{"type":"nope"}"#).is_err());
        assert!(
            Request::decode(r#"{"type":"submit"}"#).is_err(),
            "tool is required"
        );
        assert!(Request::decode(r#"{"type":"submit","tool":"tquad","interval":-4}"#).is_err());
    }

    #[test]
    fn response_shapes() {
        let ok = Response::ok([("cached", Json::from(true))]);
        assert!(ok.is_ok());
        assert_eq!(ok.error(), None);
        let back = Response::decode(&ok.encode()).unwrap();
        assert_eq!(back, ok);

        let e = Response::err("boom");
        assert!(!e.is_ok());
        assert_eq!(e.error(), Some("boom"));
        assert!(!e.is_busy(), "plain errors are not retryable");
        assert_eq!(e.retry_after_ms(), None);

        let b = Response::busy("queue full", 150);
        assert!(!b.is_ok());
        assert!(b.is_busy());
        assert_eq!(b.retry_after_ms(), Some(150));
        assert_eq!(b.redirect_to(), None);
        let back = Response::decode(&b.encode()).unwrap();
        assert!(back.is_busy(), "busy survives the wire");
        assert_eq!(back.retry_after_ms(), Some(150));

        let r = Response::busy("queue full", 150).with_redirect("127.0.0.1:7472");
        let back = Response::decode(&r.encode()).unwrap();
        assert_eq!(back.redirect_to(), Some("127.0.0.1:7472"));
    }

    #[test]
    fn peek_decode_requires_digest() {
        assert!(Request::decode(r#"{"type":"peek","app":"wfs","scale":"tiny"}"#).is_err());
        assert!(Request::decode(r#"{"type":"peek","digest":"ab","app":"nope"}"#).is_err());
    }

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xAB, 0xCD, 0x00, 0xFF],
            (0..=255).collect(),
        ] {
            let enc = hex_encode(&bytes);
            assert_eq!(hex_decode(&enc).as_deref(), Some(bytes.as_slice()));
        }
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
        assert_eq!(hex_decode("ABCD"), Some(vec![0xAB, 0xCD]), "upper accepted");
    }
}
