//! The `TQ_LOG` grammar is strict: exactly `off|error|warn|info|debug|trace`
//! in any casing. `TQ_LOG` arrives from outside the process, so seeded
//! mutations of every valid name — truncations, bit flips, inserts — and
//! random strings must parse to `Ok` or `Err`, never panic, and be
//! accepted exactly when they are a valid name in some casing.

use tq_obs::log::{parse_filter, Level};

const NAMES: [(&str, Option<Level>); 6] = [
    ("off", None),
    ("error", Some(Level::Error)),
    ("warn", Some(Level::Warn)),
    ("info", Some(Level::Info)),
    ("debug", Some(Level::Debug)),
    ("trace", Some(Level::Trace)),
];

/// splitmix64: a fixed seed gives the same mutations on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference: the filter a string names, if it names one.
fn oracle(s: &str) -> Option<Option<Level>> {
    let lower = s.to_ascii_lowercase();
    NAMES.iter().find(|(n, _)| *n == lower).map(|(_, l)| *l)
}

fn check(s: &str) -> bool {
    let got = parse_filter(s);
    match oracle(s) {
        Some(want) => assert_eq!(got, Ok(want), "{s:?} names a filter"),
        None => {
            let err = got.as_ref().expect_err(s);
            assert!(
                err.contains("off|error|warn|info|debug|trace"),
                "{s:?}: {err}"
            );
        }
    }
    got.is_ok()
}

#[test]
fn every_casing_of_every_name_is_accepted() {
    for (name, _) in NAMES {
        for mask in 0u32..1 << name.len() {
            let cased: String = name
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if mask >> i & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            assert!(check(&cased), "{cased:?}");
        }
    }
}

#[test]
fn truncations_flips_inserts_and_the_empty_string_are_rejected() {
    assert!(!check(""), "set but empty is not unset");
    let mut rng = Rng(0x7106_5EED);
    let mut rejected = 0;
    for (name, _) in NAMES {
        for cut in 0..name.len() {
            assert!(!check(&name[..cut]), "prefix of {name}");
            assert!(!check(&name[cut + 1..]), "suffix of {name}");
        }
        for (i, byte) in name.bytes().enumerate() {
            for bit in 0..8 {
                let mut bytes = name.as_bytes().to_vec();
                bytes[i] = byte ^ (1 << bit);
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue;
                };
                // Bit 5 only changes an ASCII letter's case.
                assert_eq!(check(&flipped), bit == 5, "{flipped:?}");
                rejected += usize::from(bit != 5);
            }
        }
        for at in 0..=name.len() {
            for _ in 0..8 {
                let c = [' ', '\t', '\n', 'a', 'o', 'x', '=', ',', 'é', '\0'][rng.below(10)];
                let mut inserted = name.to_string();
                inserted.insert(at, c);
                assert!(!check(&inserted), "{inserted:?}");
                rejected += 1;
            }
        }
    }
    assert_eq!(rejected, 26 * 6 + 32 * 8, "every mutation ran");
}

#[test]
fn random_strings_never_panic() {
    let alphabet: Vec<char> = "offerrorwarninfodebugtraceOFFWARN _-=:,\t\u{0}é"
        .chars()
        .collect();
    let mut rng = Rng(0x00C0_FFEE);
    let mut accepted = 0;
    for _ in 0..20_000 {
        let len = rng.below(8);
        let s: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len())])
            .collect();
        accepted += usize::from(check(&s));
    }
    // Valid names are a vanishing share of random strings; the oracle
    // above already checked each one either way.
    assert!(
        accepted < 100,
        "{accepted} of 20000 random strings accepted"
    );
}
