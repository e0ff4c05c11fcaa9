//! The store behind QUAD's per-page and per-edge state: the pages of
//! [`ShadowMemory`](crate::ShadowMemory) and [`AddressSet`](crate::AddressSet),
//! and the tool's producer→consumer bindings.
//!
//! Values live in a slab, indexed by a std `HashMap<key, slot>`. The index
//! keeps the default SipHash: page numbers and routine ids come from
//! untrusted captures, so it must resist crafted collisions. A memo of the
//! last few keys found makes a run of accesses to one page (or to a few
//! interleaved pages), or of reads along one edge, cost a few compares
//! instead of one hash.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;

/// log2 of the page size.
pub(crate) const PAGE_SHIFT: u32 = 12;
/// Bytes per page.
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A zeroed page of `N` elements, allocated on first write.
pub(crate) fn new_page<T: Copy + Default, const N: usize>() -> Box<[T; N]> {
    Box::new([T::default(); N])
}

/// Lookups remembered: enough for the few arrays a loop body streams
/// through at once, so interleaved accesses to them still skip the hash.
const MEMO: usize = 4;

/// A map whose entries are never removed, with a memo of recent lookups.
#[derive(Clone, Debug)]
pub(crate) struct SlabMap<K: Copy, V> {
    index: HashMap<K, usize>,
    slab: Vec<(K, V)>,
    /// Recently found keys and their slots, replaced round-robin. Slots
    /// are never freed, so a remembered slot stays valid.
    memo: [Cell<Option<(K, usize)>>; MEMO],
    next: Cell<usize>,
}

impl<K: Copy, V> Default for SlabMap<K, V> {
    fn default() -> Self {
        SlabMap {
            index: HashMap::new(),
            slab: Vec::new(),
            memo: Default::default(),
            next: Cell::new(0),
        }
    }
}

impl<K: Copy + Eq + Hash, V> SlabMap<K, V> {
    #[inline]
    fn slot(&self, key: K) -> Option<usize> {
        for m in &self.memo {
            match m.get() {
                Some((k, slot)) if k == key => return Some(slot),
                _ => {}
            }
        }
        let slot = *self.index.get(&key)?;
        self.remember(key, slot);
        Some(slot)
    }

    fn remember(&self, key: K, slot: usize) {
        let i = self.next.get();
        self.memo[i].set(Some((key, slot)));
        self.next.set((i + 1) % MEMO);
    }

    /// The value under `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<&V> {
        self.slot(key).map(|s| &self.slab[s].1)
    }

    /// The value under `key`, inserted from `new` if absent.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, key: K, new: impl FnOnce() -> V) -> &mut V {
        let slot = match self.slot(key) {
            Some(s) => s,
            None => {
                let s = self.slab.len();
                self.slab.push((key, new()));
                self.index.insert(key, s);
                self.remember(key, s);
                s
            }
        };
        &mut self.slab[slot].1
    }

    /// Every entry, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slab.iter().map(|(k, v)| (*k, v))
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }
}

impl<K: Copy, V> IntoIterator for SlabMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Every entry, in insertion order.
    fn into_iter(self) -> Self::IntoIter {
        self.slab.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_agree_with_inserts_past_the_memo() {
        let mut s: SlabMap<u64, [u8; 4]> = SlabMap::default();
        assert!(s.get(7).is_none());
        s.get_or_insert_with(7, Default::default)[1] = 5;
        assert_eq!(s.get(7), Some(&[0, 5, 0, 0]));
        // More keys than memo entries, revisited in a different order.
        for k in 0..3 * MEMO as u64 {
            s.get_or_insert_with(100 + k, Default::default)[0] = k as u8;
        }
        s.get_or_insert_with(7, || unreachable!("present"))[2] = 6;
        for k in (0..3 * MEMO as u64).rev().step_by(2) {
            assert_eq!(s.get(100 + k).map(|p| p[0]), Some(k as u8));
            assert!(s.get(1000 + k).is_none());
        }
        assert_eq!(s.get(7), Some(&[0, 5, 6, 0]));
        assert_eq!(s.len(), 1 + 3 * MEMO);
        let keys: Vec<u64> = s.iter().map(|(k, _)| k).take(3).collect();
        assert_eq!(keys, vec![7, 100, 101], "insertion order");
        let owned: Vec<(u64, [u8; 4])> = s.into_iter().take(2).collect();
        assert_eq!(owned, vec![(7, [0, 5, 6, 0]), (100, [0, 0, 0, 0])]);
    }
}
