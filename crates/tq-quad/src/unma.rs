//! Compact sets of byte addresses — the UnMA (Unique Memory Address)
//! counters of QUAD's Table II.
//!
//! The paper's `wav_store` touches ~65 *million* distinct addresses; a
//! `HashSet<u64>` costs ~48 bytes per element where this page-bitmap
//! representation costs one bit (plus one 512-byte bitmap per touched 4 KiB
//! page, kept in the shared `SlabMap`). A contiguous range is inserted
//! with one masked OR per 64-bit bitmap word, so an access or an
//! equal-writer run costs its word count, not its byte count. The set is
//! counted only when read out ([`AddressSet::len`] popcounts its pages), so
//! inserts never count bits. The `unma_sets` bench quantifies both; this
//! module is the production representation.

use crate::pages::{new_page, SlabMap, PAGE_SHIFT, PAGE_SIZE};

const WORDS_PER_PAGE: usize = PAGE_SIZE / 64;

/// A set of 64-bit byte addresses, one bit per address within 4 KiB pages.
/// Every page holds at least one address.
///
/// ```
/// use tq_quad::AddressSet;
/// let mut s = AddressSet::new();
/// s.insert_range(0x1000, 8);
/// assert!(s.contains(0x1007) && !s.contains(0x1008));
/// assert_eq!(s.len(), 8);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AddressSet {
    pages: SlabMap<u64, Box<[u64; WORDS_PER_PAGE]>>,
}

impl AddressSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an address; returns true if it was new.
    #[inline]
    pub fn insert(&mut self, addr: u64) -> bool {
        let off = addr as usize & (PAGE_SIZE - 1);
        let word = &mut self.pages.get_or_insert_with(addr >> PAGE_SHIFT, new_page)[off / 64];
        let mask = 1u64 << (off % 64);
        let new = *word & mask == 0;
        *word |= mask;
        new
    }

    /// Insert a contiguous range `[addr, addr+len)` (one access or run of
    /// `len` bytes): one masked OR per bitmap word it covers. Ranges are
    /// clipped at the top of the address space rather than overflowing
    /// (only reachable via corrupt replayed traces).
    #[inline]
    pub fn insert_range(&mut self, addr: u64, len: u32) {
        let mut a = addr;
        let end = addr.saturating_add(len as u64);
        while a < end {
            let off = a as usize & (PAGE_SIZE - 1);
            let stop = off + ((end - a) as usize).min(PAGE_SIZE - off);
            let bitmap = self.pages.get_or_insert_with(a >> PAGE_SHIFT, new_page);
            let mut bit = off;
            while bit < stop {
                let n = (64 - bit % 64).min(stop - bit);
                let mask = (u64::MAX >> (64 - n)) << (bit % 64);
                bitmap[bit / 64] |= mask;
                bit += n;
            }
            a += (stop - off) as u64;
        }
    }

    /// Union another set into this one, page-bitmap-wise. The reduce step
    /// for UnMA counters in sharded replay: a union of per-shard address
    /// sets is exactly the sequential set, since addresses dedupe no matter
    /// which shard touched them.
    pub fn union(&mut self, other: &AddressSet) {
        for (page, src) in other.pages.iter() {
            let dst = self.pages.get_or_insert_with(page, new_page);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d |= s;
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, addr: u64) -> bool {
        let off = addr as usize & (PAGE_SIZE - 1);
        self.pages
            .get(addr >> PAGE_SHIFT)
            .is_some_and(|b| b[off / 64] & (1u64 << (off % 64)) != 0)
    }

    /// Number of addresses in the set: a popcount over every page, so
    /// read it once per profile, not per access.
    pub fn len(&self) -> u64 {
        self.pages
            .iter()
            .flat_map(|(_, bitmap)| bitmap.iter())
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// True when empty (no page was ever touched).
    pub fn is_empty(&self) -> bool {
        self.pages.len() == 0
    }

    /// Approximate heap footprint in bytes (for the ablation bench).
    pub fn heap_bytes(&self) -> usize {
        self.pages.len() * (WORDS_PER_PAGE * 8 + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = AddressSet::new();
        assert!(s.insert(0x1000));
        assert!(!s.insert(0x1000), "duplicate");
        assert!(s.insert(0x1001));
        assert!(s.contains(0x1000));
        assert!(!s.contains(0x0FFF));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn range_insert_counts_bytes() {
        let mut s = AddressSet::new();
        s.insert_range(0x2000 - 3, 8); // straddles a page boundary
        assert_eq!(s.len(), 8);
        assert!(s.contains(0x1FFD));
        assert!(s.contains(0x2004));
        assert!(!s.contains(0x2005));
    }

    #[test]
    fn page_boundaries() {
        let mut s = AddressSet::new();
        s.insert(0x0FFF);
        s.insert(0x1000);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pages.len(), 2);
    }

    #[test]
    fn overlapping_ranges_dedupe() {
        let mut s = AddressSet::new();
        s.insert_range(100, 8);
        s.insert_range(104, 8);
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn union_counts_overlap_once() {
        let mut a = AddressSet::new();
        a.insert_range(100, 8);
        let mut b = AddressSet::new();
        b.insert_range(104, 8); // 4 bytes overlap
        b.insert(0x5000); // different page
        a.union(&b);
        assert_eq!(a.len(), 13);
        assert!(a.contains(100) && a.contains(111) && a.contains(0x5000));
        // Union with an empty set is identity both ways.
        let before = a.len();
        a.union(&AddressSet::new());
        assert_eq!(a.len(), before);
        let mut empty = AddressSet::new();
        empty.union(&a);
        assert_eq!(empty.len(), a.len());
    }

    /// Differential check against a HashSet reference over random inserts.
    #[test]
    fn matches_hashset_reference() {
        use std::collections::HashSet;
        let mut ours = AddressSet::new();
        let mut reference = HashSet::new();
        let mut x: u64 = 0x12345;
        for _ in 0..10_000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % 100_000;
            assert_eq!(ours.insert(addr), reference.insert(addr));
        }
        assert_eq!(ours.len(), reference.len() as u64);
        for a in 0..1000 {
            assert_eq!(ours.contains(a), reference.contains(&a));
        }
    }
}
