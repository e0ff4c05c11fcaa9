//! Fleet coordination: the server-side half of `tq-fleet`.
//!
//! `tq-fleet` decides *where* a content digest lives and *who* looks
//! healthy; this module owns the sockets that act on those decisions for
//! a running daemon:
//!
//! * a **prober** (spawned by [`crate::Server`]) pings every configured
//!   peer on a fixed cadence over the ordinary JSON-lines protocol —
//!   `ping` responses carry `queue_len`/`busy_workers`, so one cheap
//!   round-trip yields both liveness and load;
//! * **peek fetches**: when a routed job lands here for a digest another
//!   node owns, [`FleetState::try_peek`] fetches the owner's capture
//!   (the owner records it on demand — that recording is the one per
//!   fleet) instead of re-recording locally. A dead or failing owner
//!   degrades to a local recording, never to a failed job;
//! * **redirect hints**: a `busy` response names the least-loaded live
//!   peer so shed clients resubmit somewhere useful.
//!
//! Counters for all of it surface in `stats` (under `"fleet"`) and as
//! `tq_fleet_*` metrics in the Prometheus exposition.

use crate::apps::{AppId, Scale};
use crate::client::{Client, ClientConfig, RetryPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tq_fleet::{Health, Ring, Roster};
use tq_obs::metrics::{Family, Value};
use tq_report::Json;
use tq_trace::Trace;

/// `target` field of this module's structured log records.
const LOG: &str = "tq-profd";

/// Log a roster health transition (the `Option` returned by the roster's
/// record/mark calls): `info` while a peer degrades or recovers, `warn`
/// when it is declared dead — the event an operator pages on.
fn log_transition(peer: &str, transition: Option<(Health, Health)>) {
    if let Some((from, to)) = transition {
        let level = if to == Health::Dead {
            tq_obs::log::Level::Warn
        } else {
            tq_obs::log::Level::Info
        };
        tq_obs::log::emit(
            level,
            LOG,
            "peer_health",
            &[
                ("peer", peer.into()),
                ("from", from.as_str().into()),
                ("to", to.as_str().into()),
            ],
        );
    }
}

/// Fleet membership and probing knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// This node's advertised address — its name on the ring, and what
    /// peers' rosters call it. Must match what the peers were given in
    /// their `--peers` lists.
    pub self_addr: String,
    /// The other fleet members' advertised addresses.
    pub peers: Vec<String>,
    /// Pause between probe rounds.
    pub probe_interval: Duration,
    /// Connect/read budget for one probe ping.
    pub probe_timeout: Duration,
    /// Connect/read budget for one peek fetch. Generous by default: a
    /// cold owner records the capture inside the peek, and losing the
    /// fetch to a timeout means re-recording locally anyway.
    pub peek_timeout: Duration,
}

impl FleetConfig {
    /// Config with default probing cadence and timeouts.
    pub fn new(self_addr: String, peers: Vec<String>) -> FleetConfig {
        FleetConfig {
            self_addr,
            peers,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(500),
            peek_timeout: Duration::from_secs(120),
        }
    }
}

/// One node's view of the fleet: the deterministic ring, the probed
/// roster, and the coordination counters.
pub struct FleetState {
    config: FleetConfig,
    ring: Ring,
    roster: Mutex<Roster>,
    peek_serves: AtomicU64,
    peek_serve_misses: AtomicU64,
    peek_fetches: AtomicU64,
    peek_fetch_failures: AtomicU64,
    redirects_issued: AtomicU64,
    remote_owned_jobs: AtomicU64,
    probe_rounds: AtomicU64,
}

fn lock_roster(m: &Mutex<Roster>) -> std::sync::MutexGuard<'_, Roster> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FleetState {
    /// Build the fleet view: the ring spans self plus every peer, the
    /// roster tracks only the peers.
    pub fn new(config: FleetConfig) -> FleetState {
        let mut members = config.peers.clone();
        members.push(config.self_addr.clone());
        FleetState {
            ring: Ring::new(members),
            roster: Mutex::new(Roster::new(config.peers.clone())),
            config,
            peek_serves: AtomicU64::new(0),
            peek_serve_misses: AtomicU64::new(0),
            peek_fetches: AtomicU64::new(0),
            peek_fetch_failures: AtomicU64::new(0),
            redirects_issued: AtomicU64::new(0),
            remote_owned_jobs: AtomicU64::new(0),
            probe_rounds: AtomicU64::new(0),
        }
    }

    /// This node's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.config.self_addr
    }

    /// The probing cadence (the server's prober thread sleeps this long
    /// between rounds).
    pub fn probe_interval(&self) -> Duration {
        self.config.probe_interval
    }

    /// The ring owner of a content digest.
    pub fn owner_of(&self, digest: &str) -> &str {
        self.ring
            .owner_of(digest)
            .unwrap_or(self.config.self_addr.as_str())
    }

    /// True when this node owns the digest.
    pub fn is_owner(&self, digest: &str) -> bool {
        self.owner_of(digest) == self.config.self_addr
    }

    fn probe_client_config(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: self.config.probe_timeout,
            read_timeout: Some(self.config.probe_timeout),
            retry: RetryPolicy::default(),
        }
    }

    /// One probe round: ping every peer, fold liveness and reported load
    /// into the roster. Called by the server's prober thread; also
    /// callable directly (tests, or a fleet-aware client warming its
    /// view).
    pub fn probe_once(&self) {
        let cfg = self.probe_client_config();
        for peer in &self.config.peers {
            let outcome = Client::connect_with(peer, cfg.clone())
                .and_then(|mut c| c.ping())
                .ok()
                .filter(|r| r.is_ok());
            let mut roster = lock_roster(&self.roster);
            let transition = match outcome {
                Some(resp) => {
                    let q = resp.0.get("queue_len").and_then(Json::as_u64).unwrap_or(0);
                    let b = resp
                        .0
                        .get("busy_workers")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    roster.record_success(peer, q, b)
                }
                None => roster.record_failure(peer),
            };
            drop(roster);
            log_transition(peer, transition);
        }
        self.probe_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// The least-loaded live peer, for `busy` redirect hints. `None`
    /// when every peer looks dead (then the client's plain backoff is
    /// the best remaining advice).
    pub fn redirect_hint(&self) -> Option<String> {
        let hint = lock_roster(&self.roster)
            .least_loaded_live()
            .map(|p| p.addr.clone());
        if hint.is_some() {
            self.redirects_issued.fetch_add(1, Ordering::Relaxed);
        }
        hint
    }

    /// Fetch the capture for a remotely-owned digest from its owner.
    /// `None` means the owner is dead, unreachable, or answered without
    /// the capture — the caller records locally instead (correctness
    /// never depends on a peer).
    pub fn try_peek(&self, app: AppId, scale: Scale, digest: &str) -> Option<Trace> {
        let owner = self.owner_of(digest).to_string();
        if owner == self.config.self_addr {
            return None;
        }
        if !lock_roster(&self.roster).is_live(&owner) {
            self.peek_fetch_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let fetched = self.fetch_capture(&owner, app, scale, digest);
        match fetched {
            Some(trace) => {
                self.peek_fetches.fetch_add(1, Ordering::Relaxed);
                Some(trace)
            }
            None => {
                self.peek_fetch_failures.fetch_add(1, Ordering::Relaxed);
                tq_obs::log::warn(
                    LOG,
                    "peek_fetch_failed",
                    &[("owner", owner.as_str().into()), ("digest", digest.into())],
                );
                None
            }
        }
    }

    fn fetch_capture(&self, owner: &str, app: AppId, scale: Scale, digest: &str) -> Option<Trace> {
        let cfg = ClientConfig {
            connect_timeout: self.config.probe_timeout,
            read_timeout: Some(self.config.peek_timeout),
            retry: RetryPolicy::default(),
        };
        let mut client = match Client::connect_with(owner, cfg) {
            Ok(c) => c,
            Err(_) => {
                // Unreachable right now: mark it so routing stops
                // betting on this owner before the prober notices.
                let transition = lock_roster(&self.roster).record_failure(owner);
                log_transition(owner, transition);
                return None;
            }
        };
        // Bounded frame lines instead of one hex line holding 2× the
        // capture.
        let bytes = client.peek_fetch(app, scale, digest).ok()??;
        // `Trace::load` validates framing and checksums, so a payload
        // mangled in transit fails here rather than poisoning the cache.
        Trace::load(&mut bytes.as_slice()).ok()
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
    fn counters(&self) -> [(&'static str, &'static str, &'static str, u64); 7] {
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
                "redirects_issued",
                "tq_fleet_redirects_issued_total",
                "Busy responses that carried a redirect_to hint naming a live peer",
                n(&self.redirects_issued),
            ),
            (
                "remote_owned_jobs",
                "tq_fleet_remote_owned_jobs_total",
                "Submits served here for digests another fleet node owns",
                n(&self.remote_owned_jobs),
            ),
            (
                "probe_rounds",
                "tq_fleet_probe_rounds_total",
                "Completed peer probe rounds",
                n(&self.probe_rounds),
            ),
        ]
    }

    /// The `stats` JSON block: membership, per-peer health/load, and the
    /// coordination counters.
    pub fn to_json(&self) -> Json {
        let roster = lock_roster(&self.roster);
        let peers: Vec<Json> = roster
            .peers()
            .iter()
            .map(|p| {
                Json::obj([
                    ("addr", Json::from(p.addr.as_str())),
                    ("health", Json::from(p.health.as_str())),
                    ("probes", Json::from(p.probes)),
                    ("failures", Json::from(p.failures)),
                    ("last_queue_len", Json::from(p.last_queue_len)),
                    ("last_busy_workers", Json::from(p.last_busy_workers)),
                ])
            })
            .collect();
        let live = roster.live_count() as u64;
        drop(roster);
        let mut j = Json::obj([
            ("self", Json::from(self.config.self_addr.as_str())),
            ("ring_nodes", Json::from(self.ring.len() as u64)),
            ("peers_alive", Json::from(live)),
            ("peers", Json::from(peers)),
        ]);
        for (key, _, _, v) in self.counters() {
            j.set(key, Json::from(v));
        }
        j
    }

    /// The `tq_fleet_*` families of the `metrics` exposition.
    pub fn families(&self) -> Vec<Family> {
        let mut families: Vec<Family> = self
            .counters()
            .into_iter()
            .map(|(_, name, help, v)| Family {
                name,
                help,
                value: Value::Counter(v),
            })
            .collect();
        families.push(Family {
            name: "tq_fleet_peers_alive",
            help: "Configured peers currently not considered dead (updated each probe round)",
            value: Value::Gauge(lock_roster(&self.roster).live_count() as i64),
        });
        families
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(self_addr: &str, peers: &[&str]) -> FleetState {
        FleetState::new(FleetConfig::new(
            self_addr.into(),
            peers.iter().map(|s| s.to_string()).collect(),
        ))
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
    }

    #[test]
    fn dead_owner_short_circuits_the_fetch() {
        let f = fleet("me:1", &["peer:2"]);
        let theirs = (0..500u64)
            .map(|i| format!("{i:032x}"))
            .find(|d| !f.is_owner(d))
            .expect("peer owns something");
        lock_roster(&f.roster).mark_dead("peer:2");
        assert!(f.try_peek(AppId::Wfs, Scale::Tiny, &theirs).is_none());
        assert_eq!(f.peek_fetch_failures.load(Ordering::Relaxed), 1);
        let j = f.to_json();
        assert_eq!(j.get("peek_fetch_failures").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("peers_alive").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn redirect_hint_requires_a_live_peer() {
        let f = fleet("me:1", &["peer:2"]);
        assert_eq!(f.redirect_hint(), Some("peer:2".into()));
        lock_roster(&f.roster).mark_dead("peer:2");
        assert_eq!(f.redirect_hint(), None);
        assert_eq!(
            f.redirects_issued.load(Ordering::Relaxed),
            1,
            "only issued hints are counted"
        );
    }
}
