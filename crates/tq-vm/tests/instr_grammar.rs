//! Untrusted-input net for the reduced-instrumentation surface: the
//! `--instr` grammar (a CLI flag, and profd's `Submit.instr`, which comes
//! over the wire) and the `InstrInfo` record a capture's `TQIM` tail
//! carries. Seeded random and mutated inputs must come back `Ok` or `Err`,
//! never panic; every `Ok` spec round-trips through `Display`; every
//! decoded record re-encodes to the bytes it came from. Mirrors the
//! capture fuzzing in `tq-trace/tests/columnar.rs`.

use tq_isa::prng::Rng;
use tq_vm::{InstrGate, InstrInfo, InstrMode};

/// Well-formed and near-miss specs the mutator starts from.
const CORPUS: &[&str] = &[
    "full",
    "filter:*",
    "filter:fft1d,AudioIo_setFrames",
    "filter:!memcpy_sim",
    "sample:8",
    "sample:4/2000@7",
    "filter:!fft1d+sample:4",
    "sample:2/18446744073709551615",
    "sample:18446744073709551616",
    "converge:0.1,6",
    "converge:0.05,4,32/20000",
    "sample:2+converge:0.1,4",
];

/// Characters the grammar gives meaning to, plus some it does not.
const ALPHABET: &[char] = &[
    's', 'a', 'm', 'p', 'l', 'e', 'f', 'i', 't', 'r', 'u', 'c', 'o', 'n', 'v', 'g', ':', '*', '!',
    ',', '/', '@', '+', '.', '-', ' ', '0', '1', '2', '9', 'é', '\0',
];

fn random_char(rng: &mut Rng) -> char {
    ALPHABET[rng.index(ALPHABET.len())]
}

/// One random edit of `spec`: insert, delete, replace, duplicate a span,
/// or splice with another corpus entry.
fn mutate(rng: &mut Rng, spec: &str) -> String {
    let mut chars: Vec<char> = spec.chars().collect();
    match rng.index(5) {
        0 => {
            let at = rng.index(chars.len() + 1);
            chars.insert(at, random_char(rng));
        }
        1 if !chars.is_empty() => {
            chars.remove(rng.index(chars.len()));
        }
        2 if !chars.is_empty() => {
            let at = rng.index(chars.len());
            chars[at] = random_char(rng);
        }
        3 if !chars.is_empty() => {
            let lo = rng.index(chars.len());
            let hi = lo + rng.index(chars.len() - lo) + 1;
            let span: Vec<char> = chars[lo..hi].to_vec();
            let at = rng.index(chars.len() + 1);
            chars.splice(at..at, span);
        }
        _ => {
            let other = CORPUS[rng.index(CORPUS.len())];
            return format!("{spec}+{other}");
        }
    }
    chars.into_iter().collect()
}

/// Parse `spec`; an accepted one must print canonically, re-parse to the
/// same mode, and drive a gate and a mode record without panicking.
fn exercise(spec: &str) -> bool {
    let Ok(mode) = InstrMode::parse(spec) else {
        return false;
    };
    let canon = mode.to_string();
    assert_eq!(
        InstrMode::parse(&canon).as_ref(),
        Ok(&mode),
        "`{spec}` printed as `{canon}`, which does not parse back"
    );
    let mut gate = InstrGate::new(&mode);
    for icount in [1, 2, 20_001, 1 << 40, u64::MAX] {
        gate.advance(icount);
        let _ = gate.admit();
    }
    let info = InstrInfo::of(&mode, &[], 5_000);
    assert!((0.0..=1.0).contains(&info.coverage()), "`{spec}`");
    assert_eq!(InstrInfo::decode(&info.encode()).as_ref(), Some(&info));
    true
}

#[test]
fn instr_grammar_never_panics_and_accepted_specs_round_trip() {
    for spec in CORPUS {
        exercise(spec);
    }
    let mut rng = Rng::new(0x1057);
    let mut accepted = 0;
    for _ in 0..4_000 {
        let mut spec = CORPUS[rng.index(CORPUS.len())].to_string();
        for _ in 0..=rng.index(4) {
            spec = mutate(&mut rng, &spec);
        }
        accepted += exercise(&spec) as usize;
    }
    for _ in 0..1_000 {
        let spec: String = (0..rng.index(24)).map(|_| random_char(&mut rng)).collect();
        exercise(&spec);
    }
    // The mutations must not all be rejected, or the round-trip half of
    // this test checked nothing.
    assert!(accepted > 200, "only {accepted} mutated specs parsed");
}

#[test]
fn convergence_specs_are_parse_errors() {
    for spec in [
        "converge:0.1,6",
        "converge:0.05,4,32/20000",
        "filter:!fft1d+converge:0.1,6",
        "sample:2+converge:0.1,4",
    ] {
        assert!(InstrMode::parse(spec).is_err(), "`{spec}` parsed");
    }
}

fn random_info(rng: &mut Rng) -> InstrInfo {
    let spec: String = (0..rng.index(40)).map(|_| random_char(rng)).collect();
    InstrInfo {
        spec,
        slice_len: rng.next_u64() >> rng.index(64),
        sample_period: rng.next_u64() >> rng.index(64),
        sample_offset: rng.next_u64() >> rng.index(64),
        filtered: (0..rng.index(6)).map(|_| rng.next_u32()).collect(),
        total_icount: rng.next_u64() >> rng.index(64),
    }
}

#[test]
fn instr_records_decode_or_error_and_never_panic() {
    let mut rng = Rng::new(0x7A11);
    for _ in 0..300 {
        let info = random_info(&mut rng);
        let bytes = info.encode();
        assert_eq!(InstrInfo::decode(&bytes).as_ref(), Some(&info));
        for cut in 0..bytes.len() {
            assert_eq!(InstrInfo::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        for _ in 0..8 {
            let mut flipped = bytes.clone();
            for _ in 0..=rng.index(3) {
                let at = rng.index(flipped.len());
                flipped[at] ^= rng.next_u64() as u8 | 1;
            }
            // Whatever a flip decodes to must be what those bytes encode.
            if let Some(decoded) = InstrInfo::decode(&flipped) {
                assert_eq!(decoded.encode(), flipped);
            }
        }
    }
    let mut noise = vec![0u8; 64];
    for _ in 0..500 {
        rng.fill_bytes(&mut noise);
        let n = rng.index(noise.len() + 1);
        if let Some(decoded) = InstrInfo::decode(&noise[..n]) {
            assert_eq!(decoded.encode(), &noise[..n]);
        }
    }
}

#[test]
fn instr_records_in_the_gap_list_layout_are_rejected() {
    // Before convergence gating was removed the record ended in a gap
    // list: a u32 count, then (u32 routine, u64 start, u64 end) per gap.
    let mut rng = Rng::new(0x6A95);
    for _ in 0..100 {
        let info = random_info(&mut rng);
        for n_gaps in [0u32, 1, 3] {
            let mut old = info.encode();
            old.extend_from_slice(&n_gaps.to_le_bytes());
            for _ in 0..n_gaps {
                old.extend_from_slice(&rng.next_u32().to_le_bytes());
                old.extend_from_slice(&rng.next_u64().to_le_bytes());
                old.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            assert_eq!(InstrInfo::decode(&old), None, "{n_gaps} gap(s)");
        }
    }
}
