//! Fleet coordination: the server-side half of `tq-fleet`.
//!
//! `tq-fleet` decides *where* a content digest lives; this module owns
//! the sockets that act on that decision for a running daemon. When a
//! routed job lands here for a digest another node owns,
//! [`FleetState::try_peek`] fetches the owner's capture (the owner
//! records it on demand — that recording is the one per fleet) instead
//! of re-recording locally. A dead or failing owner degrades to a local
//! recording, never to a failed job.
//!
//! Counters surface in `stats` (under `"fleet"`) and as `tq_fleet_*`
//! metrics in the Prometheus exposition.

use crate::apps::{AppId, Scale};
use crate::client::{Client, ClientConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tq_fleet::Ring;
use tq_obs::metrics::{Family, Value};
use tq_report::Json;
use tq_trace::Trace;

/// `target` field of this module's structured log records.
const LOG: &str = "tq-profd";

/// Connect budget for one peek fetch: a dead owner costs at most this
/// before the job records locally.
const PEEK_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Read budget for one peek fetch. Generous: a cold owner records the
/// capture inside the peek, and losing the fetch to a timeout means
/// re-recording locally anyway.
const PEEK_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One node's view of the fleet: the deterministic ring and the
/// coordination counters.
pub struct FleetState {
    self_addr: String,
    ring: Ring,
    peek_serves: AtomicU64,
    peek_serve_misses: AtomicU64,
    peek_fetches: AtomicU64,
    peek_fetch_failures: AtomicU64,
    remote_owned_jobs: AtomicU64,
}

impl FleetState {
    /// The fleet view of the node advertised as `self_addr` (its name on
    /// the ring, which must match what the peers were given in their
    /// `--peers` lists): the ring spans self plus every peer.
    pub fn new(self_addr: String, peers: Vec<String>) -> FleetState {
        let mut members = peers;
        members.push(self_addr.clone());
        FleetState {
            ring: Ring::new(members),
            self_addr,
            peek_serves: AtomicU64::new(0),
            peek_serve_misses: AtomicU64::new(0),
            peek_fetches: AtomicU64::new(0),
            peek_fetch_failures: AtomicU64::new(0),
            remote_owned_jobs: AtomicU64::new(0),
        }
    }

    /// This node's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// The ring owner of a content digest.
    pub fn owner_of(&self, digest: &str) -> &str {
        self.ring.owner_of(digest).unwrap_or(&self.self_addr)
    }

    /// True when this node owns the digest.
    pub fn is_owner(&self, digest: &str) -> bool {
        self.owner_of(digest) == self.self_addr
    }

    /// Fetch the capture for a remotely-owned digest from its owner.
    /// `None` means the owner is dead, unreachable, or answered without
    /// the capture — the caller records locally instead (correctness
    /// never depends on a peer). Every call attempts the fetch: a dead
    /// owner costs one failed connect per cold digest, because the local
    /// recording that follows fills the capture cache.
    pub fn try_peek(&self, app: AppId, scale: Scale, digest: &str) -> Option<Trace> {
        let owner = self.owner_of(digest);
        if owner == self.self_addr {
            return None;
        }
        match fetch_capture(owner, app, scale, digest) {
            Some(trace) => {
                self.peek_fetches.fetch_add(1, Ordering::Relaxed);
                Some(trace)
            }
            None => {
                self.peek_fetch_failures.fetch_add(1, Ordering::Relaxed);
                tq_obs::log::warn(
                    LOG,
                    "peek_fetch_failed",
                    &[("owner", owner.into()), ("digest", digest.into())],
                );
                None
            }
        }
    }

    /// Count a peek request this node answered with a capture.
    pub fn note_peek_served(&self) {
        self.peek_serves.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a peek request this node had to turn away empty-handed.
    pub fn note_peek_missed(&self) {
        self.peek_serve_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a submit served here for a digest another node owns.
    pub fn note_remote_owned_job(&self) {
        self.remote_owned_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// The coordination counters: `stats` key, metric family, `# HELP`
    /// text and value. [`Self::to_json`] and [`Self::families`] both read
    /// them from here.
    fn counters(&self) -> [(&'static str, &'static str, &'static str, u64); 5] {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            (
                "peek_serves",
                "tq_fleet_peek_serves_total",
                "Peek requests answered with a capture (this node was asked as owner or happened to hold it)",
                n(&self.peek_serves),
            ),
            (
                "peek_serve_misses",
                "tq_fleet_peek_serve_misses_total",
                "Peek requests this node could not answer (digest not cached and not owned here)",
                n(&self.peek_serve_misses),
            ),
            (
                "peek_fetches",
                "tq_fleet_peek_fetches_total",
                "Captures fetched from their ring owner instead of re-recording locally",
                n(&self.peek_fetches),
            ),
            (
                "peek_fetch_failures",
                "tq_fleet_peek_fetch_failures_total",
                "Peek fetches that failed (dead owner, timeout, bad payload) and fell back to local recording",
                n(&self.peek_fetch_failures),
            ),
            (
                "remote_owned_jobs",
                "tq_fleet_remote_owned_jobs_total",
                "Submits served here for digests another fleet node owns",
                n(&self.remote_owned_jobs),
            ),
        ]
    }

    /// The `stats` JSON block: this node's ring name, the ring size and
    /// the coordination counters.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj([
            ("self", Json::from(self.self_addr.as_str())),
            ("ring_nodes", Json::from(self.ring.len() as u64)),
        ]);
        for (key, _, _, v) in self.counters() {
            j.set(key, Json::from(v));
        }
        j
    }

    /// The `tq_fleet_*` families of the `metrics` exposition.
    pub fn families(&self) -> Vec<Family> {
        self.counters()
            .into_iter()
            .map(|(_, name, help, v)| Family {
                name,
                help,
                value: Value::Counter(v),
            })
            .collect()
    }
}

/// Fetch and decode `digest`'s capture from `owner`; `None` on any
/// transport, protocol or decode failure.
fn fetch_capture(owner: &str, app: AppId, scale: Scale, digest: &str) -> Option<Trace> {
    let config = ClientConfig {
        connect_timeout: PEEK_CONNECT_TIMEOUT,
        read_timeout: Some(PEEK_READ_TIMEOUT),
    };
    // Bounded frame lines instead of one hex line holding 2× the capture.
    let bytes = Client::connect_with(owner, config)
        .ok()?
        .peek_fetch(app, scale, digest)
        .ok()??;
    // `Trace::load` checks the TQTRACE5 magic, the header and chunk
    // index, that the index covers the blob store exactly and names only
    // known routines, and that nothing but a well-formed instrumentation
    // tail follows, so a truncated or misframed payload fails here rather
    // than entering the cache. (The format has no checksum: a flipped
    // byte inside a chunk surfaces as a decode error at replay.)
    Trace::load(&mut bytes.as_slice()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(self_addr: &str, peers: &[&str]) -> FleetState {
        FleetState::new(
            self_addr.into(),
            peers.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn every_member_computes_the_same_owner() {
        let a = fleet("127.0.0.1:1", &["127.0.0.1:2", "127.0.0.1:3"]);
        let b = fleet("127.0.0.1:2", &["127.0.0.1:3", "127.0.0.1:1"]);
        for i in 0..200u64 {
            let digest = format!("{:032x}", (i as u128) * 0x9E37_79B9);
            assert_eq!(a.owner_of(&digest), b.owner_of(&digest));
            assert_eq!(
                a.is_owner(&digest),
                a.owner_of(&digest) == "127.0.0.1:1",
                "is_owner consistent with owner_of"
            );
        }
    }

    #[test]
    fn peek_of_self_owned_digest_is_refused_locally() {
        let f = fleet("me:1", &["peer:2"]);
        // Find a digest this node owns; try_peek must not try the wire.
        let mine = (0..500u64)
            .map(|i| format!("{i:032x}"))
            .find(|d| f.is_owner(d))
            .expect("node owns something");
        assert!(f.try_peek(AppId::Wfs, Scale::Tiny, &mine).is_none());
        assert_eq!(f.peek_fetch_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dead_owner_fails_the_fetch_and_counts_it() {
        // A port nothing listens on: bind one, then release it.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve a port")
            .to_string();
        let f = fleet("127.0.0.1:1", &[dead.as_str()]);
        let theirs = (0..500u64)
            .map(|i| format!("{i:032x}"))
            .find(|d| !f.is_owner(d))
            .expect("peer owns something");
        assert!(f.try_peek(AppId::Wfs, Scale::Tiny, &theirs).is_none());
        assert!(f.try_peek(AppId::Wfs, Scale::Tiny, &theirs).is_none());
        let j = f.to_json();
        assert_eq!(
            j.get("peek_fetch_failures").and_then(Json::as_u64),
            Some(2),
            "every call attempts the fetch"
        );
        assert_eq!(j.get("peek_fetches").and_then(Json::as_u64), Some(0));
    }
}
