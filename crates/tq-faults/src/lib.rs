//! # tq-faults — deterministic fault injection for the profiling service
//!
//! A production service is only as trustworthy as its worst day, and the
//! worst day never happens on the developer's machine unless it is made to.
//! This crate lets `tq-profd` (and anything else in the workspace) rehearse
//! failure on demand: a **fault plan** assigns each named injection point a
//! probability and an optional delay, and the hooks threaded through the
//! server decide *deterministically* — from the plan's seed and a global
//! draw counter, via splitmix64 — whether to fire at each visit.
//!
//! Design constraints, in order:
//!
//! * **free when off** — the production configuration. With no plan
//!   installed, every hook is one relaxed atomic load and a branch (the
//!   same discipline as `tq-obs`; the `obs_overhead` bench guard in
//!   `tq-bench` bounds both);
//! * **deterministic** — the decision at draw *n* is a pure function of
//!   `(seed, n)`. Two runs of a single-threaded workload under the same
//!   plan inject identically; concurrent workloads still draw from one
//!   reproducible sequence, only the thread interleaving varies;
//! * **zero dependencies** — the crate stands alone so anything (including
//!   `tq-isa`'s own tests, in principle) can use it without cycles.
//!
//! ## Plan syntax
//!
//! A plan is a comma-separated list of `key=value` clauses, accepted either
//! programmatically ([`FaultPlan::parse`]) or via the `TQ_FAULTS`
//! environment variable ([`init_from_env`]):
//!
//! ```text
//! TQ_FAULTS="seed=42,worker_panic=0.05,read_stall=0.1:50ms,slow_replay=0.2:10ms"
//! ```
//!
//! Each fault clause is `<point>=<probability>[:<delay>]`. Probabilities
//! are in `[0,1]`; delays take `ns`/`us`/`ms`/`s` suffixes (default unit
//! milliseconds, default value 10ms) and only matter for the delay-shaped
//! points. `seed=N` (default 0) picks the deterministic decision stream.
//! See `docs/OPERATIONS.md` for a cookbook of worked examples.
//!
//! ## Gates
//!
//! Tests can also arm a delay-shaped point as a *gate*
//! ([`FaultPlan::with_gate`]): every visit blocks until the test calls
//! [`release`]. A gate holds the service in a known state for as long as
//! the test needs it, where a sleep only makes that state likely.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Number of distinct injection points ([`FaultPoint`] variants).
pub const N_POINTS: usize = 5;

/// A named place in the service where a fault may be injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Acceptor stalls before handing a fresh connection to its thread
    /// (models a slow `accept(2)` path / SYN-flood mitigation delays).
    AcceptDelay,
    /// Connection thread stalls while reading a request line (models a
    /// slow or stalled client link).
    ReadStall,
    /// A replay worker panics mid-job (models a latent tool bug; the
    /// worker pool must recover and answer with an error).
    WorkerPanic,
    /// The capture cache's disk tier fails an IO operation (models a full
    /// or flaky disk; jobs must fall back to re-recording, not fail).
    CacheIoError,
    /// Replay runs artificially slowly (models oversized workloads; this
    /// is the knob chaos tests use to force queue pressure).
    SlowReplay,
}

impl FaultPoint {
    const ALL: [FaultPoint; N_POINTS] = [
        FaultPoint::AcceptDelay,
        FaultPoint::ReadStall,
        FaultPoint::WorkerPanic,
        FaultPoint::CacheIoError,
        FaultPoint::SlowReplay,
    ];

    fn idx(self) -> usize {
        match self {
            FaultPoint::AcceptDelay => 0,
            FaultPoint::ReadStall => 1,
            FaultPoint::WorkerPanic => 2,
            FaultPoint::CacheIoError => 3,
            FaultPoint::SlowReplay => 4,
        }
    }

    /// The plan-string key for this point (`accept_delay`, `read_stall`,
    /// `worker_panic`, `cache_io_error`, `slow_replay`).
    pub fn key(self) -> &'static str {
        match self {
            FaultPoint::AcceptDelay => "accept_delay",
            FaultPoint::ReadStall => "read_stall",
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::CacheIoError => "cache_io_error",
            FaultPoint::SlowReplay => "slow_replay",
        }
    }

    fn parse_key(s: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.iter().copied().find(|p| p.key() == s)
    }
}

/// What an armed injection point does when it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Sleep for the rule's delay, then continue normally.
    Sleep(Duration),
    /// Panic (the site is expected to contain the unwind).
    Panic,
    /// Fail the guarded IO operation.
    Error,
    /// Block until the point's gate is released ([`release`]).
    Hold,
}

/// One point's injection rule: fire with `prob`, delay-shaped points sleep
/// for `delay`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Probability of firing per visit, in `[0,1]`.
    pub prob: f64,
    /// Sleep length for the delay-shaped points; ignored by
    /// `worker_panic` and `cache_io_error`.
    pub delay: Duration,
    /// A gate ([`FaultPlan::with_gate`]): visits hold until [`release`]
    /// instead of drawing against `prob`.
    pub gate: bool,
}

/// A parsed fault plan: a seed plus at most one [`Rule`] per point.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    rules: [Option<Rule>; N_POINTS],
}

fn parse_delay(s: &str) -> Result<Duration, String> {
    let (num, mult_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000.0)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000.0)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000.0)
    } else {
        (s, 1_000_000.0) // bare number: milliseconds
    };
    let n: f64 = num
        .parse()
        .map_err(|_| format!("bad delay `{s}` (want e.g. 20ms, 1s, 500us)"))?;
    if !(n >= 0.0) || !n.is_finite() {
        return Err(format!("delay `{s}` must be finite and non-negative"));
    }
    Ok(Duration::from_nanos((n * mult_ns) as u64))
}

impl FaultPlan {
    /// A plan with the given seed and no armed points (useful as a base
    /// for [`FaultPlan::with`] in tests).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: [None; N_POINTS],
        }
    }

    /// Arm `point` with firing probability `prob` and delay `delay`.
    pub fn with(mut self, point: FaultPoint, prob: f64, delay: Duration) -> FaultPlan {
        self.rules[point.idx()] = Some(Rule {
            prob: prob.clamp(0.0, 1.0),
            delay,
            gate: false,
        });
        self
    }

    /// Arm the delay-shaped `point` as a gate: from [`install`] on, every
    /// visit blocks until [`release`] opens it (or the plan is cleared),
    /// then passes freely.
    pub fn with_gate(mut self, point: FaultPoint) -> FaultPlan {
        self.rules[point.idx()] = Some(Rule {
            prob: 1.0,
            delay: Duration::ZERO,
            gate: true,
        });
        self
    }

    /// The rule armed at `point`, if any.
    pub fn rule(&self, point: FaultPoint) -> Option<Rule> {
        self.rules[point.idx()]
    }

    /// True if no point is armed (such a plan never injects anything).
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }

    /// Parse a plan string: comma-separated `seed=N` and
    /// `<point>=<prob>[:<delay>]` clauses (see the crate docs for the
    /// grammar and `docs/OPERATIONS.md` for worked examples).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad clause `{clause}` (want key=value)"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("bad seed `{value}` (want an unsigned integer)"))?;
                continue;
            }
            let point = FaultPoint::parse_key(key).ok_or_else(|| {
                format!(
                    "unknown fault point `{key}` (want one of: {})",
                    FaultPoint::ALL.map(FaultPoint::key).join(", ")
                )
            })?;
            let (prob_s, delay_s) = match value.split_once(':') {
                Some((p, d)) => (p, Some(d)),
                None => (value, None),
            };
            let prob: f64 = prob_s
                .parse()
                .map_err(|_| format!("bad probability `{prob_s}` for `{key}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!(
                    "probability for `{key}` must be in [0,1], got {prob}"
                ));
            }
            let delay = match delay_s {
                Some(d) => parse_delay(d)?,
                None => Duration::from_millis(10),
            };
            plan.rules[point.idx()] = Some(Rule {
                prob,
                delay,
                gate: false,
            });
        }
        Ok(plan)
    }
}

/// Fast gate: true iff a non-empty plan is installed. Mirrors the plan so
/// the disabled hook path never takes the mutex.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed plan (`None` = faults off).
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Global draw counter: decision `n` is `splitmix64(seed + n)`.
static DRAWS: AtomicU64 = AtomicU64::new(0);
/// Count of faults actually injected (all points).
static INJECTED: AtomicU64 = AtomicU64::new(0);
/// Which gates are shut (indexed by [`FaultPoint`]).
static GATES: Mutex<[bool; N_POINTS]> = Mutex::new([false; N_POINTS]);
/// Signalled whenever a gate opens.
static GATE_OPENED: Condvar = Condvar::new();

/// Set every gate: shut where `plan` arms one, open elsewhere.
fn set_gates(plan: Option<&FaultPlan>) {
    let mut gates = GATES.lock().unwrap_or_else(|e| e.into_inner());
    for p in FaultPoint::ALL {
        gates[p.idx()] = plan.and_then(|plan| plan.rule(p)).is_some_and(|r| r.gate);
    }
    GATE_OPENED.notify_all();
}

/// Open the gate at `point`: every visit blocked there resumes, and later
/// visits pass without stopping.
pub fn release(point: FaultPoint) {
    GATES.lock().unwrap_or_else(|e| e.into_inner())[point.idx()] = false;
    GATE_OPENED.notify_all();
}

/// Block while the gate at `point` is shut.
fn wait_at_gate(point: FaultPoint) {
    let gates = GATES.lock().unwrap_or_else(|e| e.into_inner());
    let _open = GATE_OPENED
        .wait_while(gates, |g| g[point.idx()])
        .unwrap_or_else(|e| e.into_inner());
}

/// The splitmix64 step — the same generator `tq_isa::prng` seeds itself
/// with, re-derived here to keep the crate dependency-free.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Install `plan` process-wide, resetting the draw and injection counters.
/// An empty plan is equivalent to [`clear`].
pub fn install(plan: FaultPlan) {
    let mut g = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let on = !plan.is_empty();
    set_gates(Some(&plan));
    *g = if on { Some(plan) } else { None };
    DRAWS.store(0, Ordering::Relaxed);
    INJECTED.store(0, Ordering::Relaxed);
    ACTIVE.store(on, Ordering::Release);
}

/// Remove any installed plan: every hook returns to the one-load fast path.
pub fn clear() {
    let mut g = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *g = None;
    set_gates(None);
    ACTIVE.store(false, Ordering::Release);
}

/// Install a plan from the `TQ_FAULTS` environment variable if it is set
/// and non-empty. Returns whether a plan was installed; a malformed plan
/// string is an error (the caller should refuse to start, not silently run
/// fault-free).
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var("TQ_FAULTS") {
        Ok(s) if !s.trim().is_empty() => {
            let plan = FaultPlan::parse(&s).map_err(|e| format!("TQ_FAULTS: {e}"))?;
            let on = !plan.is_empty();
            install(plan);
            Ok(on)
        }
        _ => Ok(false),
    }
}

/// True iff a non-empty plan is installed. This is the entire cost of a
/// hook when faults are off: one relaxed load and a branch.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Total faults injected since the last [`install`].
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

#[cold]
fn check_slow(point: FaultPoint) -> Option<Fault> {
    let rule = {
        let g = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        g.as_ref()
            .and_then(|p| p.rule(point).filter(|r| r.prob > 0.0).map(|r| (r, p.seed)))
    };
    let (rule, seed) = rule?;
    if rule.gate {
        if !GATES.lock().unwrap_or_else(|e| e.into_inner())[point.idx()] {
            return None;
        }
        INJECTED.fetch_add(1, Ordering::Relaxed);
        return Some(Fault::Hold);
    }
    // One draw per armed-point visit; the decision is a pure function of
    // (seed, draw index), so a given plan replays the same verdict stream.
    let n = DRAWS.fetch_add(1, Ordering::Relaxed);
    let unit = splitmix64(seed.wrapping_add(n)) as f64 / (u64::MAX as f64 + 1.0);
    if unit >= rule.prob {
        return None;
    }
    INJECTED.fetch_add(1, Ordering::Relaxed);
    Some(match point {
        FaultPoint::WorkerPanic => Fault::Panic,
        FaultPoint::CacheIoError => Fault::Error,
        _ => Fault::Sleep(rule.delay),
    })
}

/// The hook: decide whether `point` fires on this visit. `None` on the
/// (production) fast path; the caller interprets the returned [`Fault`].
#[inline]
pub fn check(point: FaultPoint) -> Option<Fault> {
    if !active() {
        return None;
    }
    check_slow(point)
}

/// Convenience hook for delay-shaped points: sleep (or hold at a shut
/// gate) if the point fires. Returns whether a stall was injected.
#[inline]
pub fn sleep_if(point: FaultPoint) -> bool {
    match check(point) {
        Some(Fault::Sleep(d)) => {
            std::thread::sleep(d);
            true
        }
        Some(Fault::Hold) => {
            wait_at_gate(point);
            true
        }
        _ => false,
    }
}

/// Convenience hook for [`FaultPoint::WorkerPanic`]-shaped points: panic
/// if the point fires. The surrounding worker loop is expected to catch
/// the unwind and convert it to a clean error reply.
#[inline]
pub fn panic_if(point: FaultPoint) {
    if let Some(Fault::Panic) = check(point) {
        panic!("tq-faults: injected panic at {}", point.key());
    }
}

/// Convenience hook for IO-error-shaped points: `Err` if the point fires.
#[inline]
pub fn fail_if(point: FaultPoint) -> Result<(), String> {
    match check(point) {
        Some(Fault::Error) => Err(format!("tq-faults: injected IO error at {}", point.key())),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate the process-global plan; serialise them.
    fn hold() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_full_plan() {
        let p = FaultPlan::parse(
            "seed=42, worker_panic=0.25, read_stall=0.5:50ms, slow_replay=1:2s, cache_io_error=0.75",
        )
        .expect("parses");
        assert_eq!(p.seed, 42);
        let stall = p.rule(FaultPoint::ReadStall).expect("armed");
        assert_eq!(stall.prob, 0.5);
        assert_eq!(stall.delay, Duration::from_millis(50));
        let slow = p.rule(FaultPoint::SlowReplay).expect("armed");
        assert_eq!(slow.delay, Duration::from_secs(2));
        // Default delay when omitted.
        assert_eq!(
            p.rule(FaultPoint::CacheIoError).expect("armed").delay,
            Duration::from_millis(10)
        );
        assert!(p.rule(FaultPoint::AcceptDelay).is_none());
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("worker_panic").is_err(), "missing =");
        assert!(FaultPlan::parse("nope=0.5").is_err(), "unknown point");
        assert!(FaultPlan::parse("worker_panic=2").is_err(), "prob > 1");
        assert!(FaultPlan::parse("worker_panic=x").is_err(), "bad prob");
        assert!(FaultPlan::parse("read_stall=0.5:abc").is_err(), "bad delay");
        assert!(FaultPlan::parse("seed=-1").is_err(), "bad seed");
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
    }

    #[test]
    fn delay_units() {
        assert_eq!(parse_delay("20ms").unwrap(), Duration::from_millis(20));
        assert_eq!(parse_delay("3s").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_delay("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_delay("250ns").unwrap(), Duration::from_nanos(250));
        assert_eq!(parse_delay("7").unwrap(), Duration::from_millis(7));
    }

    #[test]
    fn inactive_by_default_and_after_clear() {
        let _g = hold();
        clear();
        assert!(!active());
        assert_eq!(check(FaultPoint::WorkerPanic), None);
        install(FaultPlan::seeded(1).with(FaultPoint::WorkerPanic, 1.0, Duration::ZERO));
        assert!(active());
        clear();
        assert!(!active());
        // An empty plan does not arm the gate.
        install(FaultPlan::seeded(9));
        assert!(!active());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let _g = hold();
        let plan = FaultPlan::seeded(7).with(FaultPoint::SlowReplay, 0.5, Duration::ZERO);
        let draw = |plan: &FaultPlan, n: usize| -> Vec<bool> {
            install(plan.clone());
            (0..n)
                .map(|_| check(FaultPoint::SlowReplay).is_some())
                .collect()
        };
        let a = draw(&plan, 64);
        let b = draw(&plan, 64);
        assert_eq!(a, b, "same seed, same verdict stream");
        assert!(a.iter().any(|&x| x), "p=0.5 fires within 64 draws");
        assert!(a.iter().any(|&x| !x), "p=0.5 skips within 64 draws");
        let c = draw(
            &FaultPlan::seeded(8).with(FaultPoint::SlowReplay, 0.5, Duration::ZERO),
            64,
        );
        assert_ne!(a, c, "different seed, different stream");
        clear();
    }

    #[test]
    fn probabilities_zero_and_one() {
        let _g = hold();
        install(FaultPlan::seeded(3).with(FaultPoint::CacheIoError, 0.0, Duration::ZERO));
        // p=0 arms the gate but never fires or counts.
        for _ in 0..32 {
            assert_eq!(check(FaultPoint::CacheIoError), None);
        }
        assert_eq!(injected(), 0);
        install(FaultPlan::seeded(3).with(FaultPoint::CacheIoError, 1.0, Duration::ZERO));
        for _ in 0..8 {
            assert!(fail_if(FaultPoint::CacheIoError).is_err());
        }
        assert_eq!(injected(), 8);
        // Unarmed points never fire even while the plan is active.
        assert_eq!(check(FaultPoint::ReadStall), None);
        clear();
    }

    #[test]
    fn panic_hook_panics_and_is_catchable() {
        let _g = hold();
        install(FaultPlan::seeded(0).with(FaultPoint::WorkerPanic, 1.0, Duration::ZERO));
        let r = std::panic::catch_unwind(|| panic_if(FaultPoint::WorkerPanic));
        assert!(r.is_err(), "p=1 worker_panic must panic");
        clear();
    }

    #[test]
    fn gate_holds_until_released() {
        let _g = hold();
        install(FaultPlan::seeded(0).with_gate(FaultPoint::SlowReplay));
        let (tx, rx) = std::sync::mpsc::channel();
        let visitor = std::thread::spawn(move || {
            let stalled = sleep_if(FaultPoint::SlowReplay);
            tx.send(()).expect("send");
            stalled
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a shut gate holds its visitor"
        );
        release(FaultPoint::SlowReplay);
        assert!(visitor.join().expect("visitor"), "the held visit counts");
        assert_eq!(injected(), 1);
        // An open gate lets later visits through without counting them.
        assert!(!sleep_if(FaultPoint::SlowReplay));
        assert_eq!(injected(), 1);
        clear();
    }

    #[test]
    fn env_init_roundtrip() {
        let _g = hold();
        // Explicit parse of an env-style string rather than process-global
        // set_var (the test binary is multi-threaded).
        let plan = FaultPlan::parse("seed=5,accept_delay=1:1ns").expect("parses");
        install(plan);
        assert!(active());
        assert!(sleep_if(FaultPoint::AcceptDelay));
        assert!(injected() >= 1);
        clear();
    }
}
