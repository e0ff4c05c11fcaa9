//! Untrusted-input net for the `TQ_FAULTS` grammar: an operator's
//! environment string reaches [`FaultPlan::parse`] unchecked. Seeded
//! random and mutated plans must parse to `Ok` or `Err`, never panic, and
//! every `Ok` must print and parse back to the same plan.

use std::time::Duration;
use tq_faults::{FaultPlan, FaultPoint};

const POINTS: [FaultPoint; 5] = [
    FaultPoint::AcceptDelay,
    FaultPoint::ReadStall,
    FaultPoint::WorkerPanic,
    FaultPoint::CacheIoError,
    FaultPoint::SlowReplay,
];

/// Well-formed and near-miss plans the mutator starts from.
const CORPUS: &[&str] = &[
    "",
    "seed=42,worker_panic=0.05,read_stall=0.1:50ms,slow_replay=0.2:10ms",
    "seed=7, accept_delay=1:2s , cache_io_error=0.75",
    "read_stall=0.5:250us,slow_replay=1:3ns",
    "slow_replay=1:1e3",
    "seed=18446744073709551615,accept_delay=0:0",
    "worker_panic=1e-3,slow_replay=0.5:1e300s",
    "worker_panic=2",
    "nope=0.5",
];

/// Characters the grammar gives meaning to, plus some it does not.
const ALPHABET: &[char] = &[
    's', 'e', 'd', 'm', 'u', 'n', 'a', 'r', 'l', '_', '=', ',', ':', '.', '-', '+', ' ', '0', '1',
    '5', '9', 'E', 'i', 'f', 'N', 'é', '\0',
];

/// splitmix64: the test's own seeded draws (the crate has no dependencies).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn index(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

fn random_char(state: &mut u64) -> char {
    ALPHABET[index(state, ALPHABET.len())]
}

/// One random edit of `plan`: truncate, insert, delete, replace, or splice
/// in a span of another corpus plan.
fn mutate(state: &mut u64, plan: &str) -> String {
    let mut chars: Vec<char> = plan.chars().collect();
    match index(state, 5) {
        0 => chars.truncate(index(state, chars.len() + 1)),
        1 => {
            let at = index(state, chars.len() + 1);
            chars.insert(at, random_char(state));
        }
        2 if !chars.is_empty() => {
            chars.remove(index(state, chars.len()));
        }
        3 if !chars.is_empty() => {
            let at = index(state, chars.len());
            chars[at] = random_char(state);
        }
        _ => {
            let other: Vec<char> = CORPUS[index(state, CORPUS.len())].chars().collect();
            let lo = index(state, other.len() + 1);
            let hi = lo + index(state, other.len() - lo + 1);
            let at = index(state, chars.len() + 1);
            chars.splice(at..at, other[lo..hi].iter().copied());
        }
    }
    chars.into_iter().collect()
}

/// The plan in the grammar it was parsed from: every armed point with its
/// probability and its delay in nanoseconds.
fn print(plan: &FaultPlan) -> String {
    let mut clauses = vec![format!("seed={}", plan.seed)];
    for point in POINTS {
        if let Some(rule) = plan.rule(point) {
            let ns = rule.delay.as_nanos();
            clauses.push(format!("{}={}:{ns}ns", point.key(), rule.prob));
        }
    }
    clauses.join(",")
}

/// Everything a parsed plan decides: the seed and each point's rule.
fn fields(plan: &FaultPlan) -> (u64, Vec<Option<(f64, Duration, bool)>>) {
    let rules = POINTS
        .iter()
        .map(|&p| plan.rule(p).map(|r| (r.prob, r.delay, r.gate)))
        .collect();
    (plan.seed, rules)
}

fn exercise(spec: &str) -> bool {
    let Ok(plan) = FaultPlan::parse(spec) else {
        return false;
    };
    let printed = print(&plan);
    let again = FaultPlan::parse(&printed)
        .unwrap_or_else(|e| panic!("`{spec}` printed as `{printed}`, which fails: {e}"));
    assert_eq!(fields(&again), fields(&plan), "`{spec}` → `{printed}`");
    true
}

#[test]
fn fault_plans_parse_or_error_and_accepted_ones_round_trip() {
    for spec in CORPUS {
        exercise(spec);
    }
    let mut state = 0xFA17_u64;
    let mut accepted = 0;
    for _ in 0..5_000 {
        let mut spec = CORPUS[index(&mut state, CORPUS.len())].to_string();
        for _ in 0..=index(&mut state, 3) {
            spec = mutate(&mut state, &spec);
        }
        accepted += exercise(&spec) as usize;
    }
    for _ in 0..1_000 {
        let spec: String = (0..index(&mut state, 32))
            .map(|_| random_char(&mut state))
            .collect();
        exercise(&spec);
    }
    assert!(accepted > 300, "only {accepted} mutated plans parsed");
}
