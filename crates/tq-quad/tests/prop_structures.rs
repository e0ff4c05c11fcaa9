//! Randomised tests of QUAD's substrate structures against reference
//! models: AddressSet vs `HashSet<u64>`, ShadowMemory vs `HashMap<u64,u32>`.
//!
//! Formerly proptest-based; now deterministic sweeps driven by the vendored
//! [`tq_isa::prng::Rng`] (zero external crates). `heavy-tests` multiplies
//! the iteration counts.

use std::collections::{HashMap, HashSet};
use tq_isa::prng::Rng;
use tq_quad::{AddressSet, ShadowMemory};

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 16
    } else {
        base
    }
}

/// Range lengths from empty through single words to several pages.
fn range_len(rng: &mut Rng) -> u32 {
    match rng.index(16) {
        0..=9 => rng.next_u32() % 16,
        10..=14 => rng.next_u32() % 200,
        _ => rng.next_u32() % (2 * 4096 + 100),
    }
}

fn addr(rng: &mut Rng) -> u64 {
    match rng.index(3) {
        0 => rng.u64_in(0, 255),
        1 => rng.u64_in(4080, 4119), // page straddles
        _ => rng.u64_in(0x1000_0000, 0x1000_00FF),
    }
}

#[test]
fn address_set_matches_hashset() {
    let mut rng = Rng::new(0xADD2_E550);
    for _ in 0..cases(256) {
        let mut ours = AddressSet::new();
        let mut reference: HashSet<u64> = HashSet::new();
        for _ in 0..rng.index(200) {
            let a = addr(&mut rng);
            assert_eq!(ours.insert(a), reference.insert(a), "insert {a:#x}");
        }
        for _ in 0..rng.index(60) {
            let a = addr(&mut rng);
            let len = range_len(&mut rng);
            ours.insert_range(a, len);
            for x in a..a + len as u64 {
                reference.insert(x);
            }
        }
        // Ranges reaching past the top of the address space are clipped:
        // the last byte inserted is `u64::MAX - 1`.
        if rng.index(4) == 0 {
            let len = range_len(&mut rng).max(1);
            let a = u64::MAX - rng.u64_in(0, len as u64);
            ours.insert_range(a, len);
            for x in a..a.saturating_add(len as u64) {
                reference.insert(x);
            }
        }
        assert_eq!(ours.len(), reference.len() as u64);
        // Membership spot checks around the hot ranges and the top page.
        for probe in (0..256)
            .chain(4070..4130)
            .chain((0x1000_0000..0x1000_0000 + 3 * 4096).step_by(7))
            .chain((u64::MAX - 4200..=u64::MAX).step_by(3))
        {
            assert_eq!(
                ours.contains(probe),
                reference.contains(&probe),
                "byte {probe:#x}"
            );
        }
    }
}

#[test]
fn shadow_memory_matches_map() {
    let mut rng = Rng::new(0x5AD0_3333);
    for _ in 0..cases(256) {
        let mut shadow = ShadowMemory::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for _ in 0..1 + rng.index(100) {
            let a = addr(&mut rng);
            let len = 1 + rng.next_u32() % 15 + if rng.index(32) == 0 { 4096 } else { 0 };
            let writer = 1 + rng.next_u32() % 7;
            shadow.write(a, len, writer);
            for x in a..a + len as u64 {
                reference.insert(x, writer);
            }
        }
        for probe in (0..300).chain(4060..4140).chain(0x1000_0000..0x1000_0110) {
            assert_eq!(
                shadow.writer_at(probe),
                reference.get(&probe).copied().unwrap_or(0),
                "byte {probe:#x}"
            );
        }
        // for_each_run's contract over random windows, straddling pages.
        for _ in 0..8 {
            let a = addr(&mut rng).saturating_sub(rng.u64_in(0, 64));
            let len = range_len(&mut rng);
            check_runs(&shadow, a, len);
        }
        check_runs(&shadow, u64::MAX - 5, 16);
    }
}

/// `for_each_run(addr, len)` visits non-empty runs that tile exactly
/// `[addr, addr+len)` (clipped at `u64::MAX`) in order, each of one
/// writer that agrees with `writer_at`, and maximal: two adjacent runs
/// share a writer only across a page boundary.
fn check_runs(shadow: &ShadowMemory, addr: u64, len: u32) {
    let mut runs: Vec<(u64, u32, u32)> = Vec::new();
    shadow.for_each_run(addr, len, |a, n, w| runs.push((a, n, w)));
    let mut next = addr;
    for &(a, n, w) in &runs {
        assert_eq!(a, next, "runs must tile the range in order");
        assert!(n > 0, "empty run at {a:#x}");
        assert!(
            a >> 12 == (a + n as u64 - 1) >> 12,
            "run {a:#x}+{n} crosses a page"
        );
        for x in a..a + n as u64 {
            assert_eq!(shadow.writer_at(x), w, "byte {x:#x} in run {a:#x}+{n}");
        }
        next = a + n as u64;
    }
    assert_eq!(
        next,
        addr.saturating_add(len as u64),
        "runs cover the range"
    );
    for pair in runs.windows(2) {
        let ((_, _, w0), (b, _, w1)) = (pair[0], pair[1]);
        assert!(w0 != w1 || b % 4096 == 0, "runs at {b:#x} are not maximal");
    }
}
