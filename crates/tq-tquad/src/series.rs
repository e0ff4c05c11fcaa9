//! Per-kernel time-sliced bandwidth series.
//!
//! Storage is *sparse*: one entry per slice in which the kernel touched
//! memory, appended in virtual-time order (a kernel active in 616 of
//! 1 270 684 slices — `AudioIo_setFrames` in Table IV — costs 616 entries,
//! not 1.2 M). Each entry carries four counters so a single run yields both
//! the stack-included and stack-excluded views the paper obtains from
//! separate runs.

/// Traffic of one kernel in one time slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SliceEntry {
    /// Slice index (`icount / interval`).
    pub slice: u64,
    /// Bytes read, stack accesses included.
    pub r_incl: u64,
    /// Bytes read, stack accesses excluded.
    pub r_excl: u64,
    /// Bytes written, stack accesses included.
    pub w_incl: u64,
    /// Bytes written, stack accesses excluded.
    pub w_excl: u64,
}

impl SliceEntry {
    /// Read bytes under the given stack filter.
    #[inline]
    pub fn read(&self, include_stack: bool) -> u64 {
        if include_stack {
            self.r_incl
        } else {
            self.r_excl
        }
    }

    /// Written bytes under the given stack filter.
    #[inline]
    pub fn write(&self, include_stack: bool) -> u64 {
        if include_stack {
            self.w_incl
        } else {
            self.w_excl
        }
    }

    /// Combined read+write bytes under the given stack filter.
    #[inline]
    pub fn total(&self, include_stack: bool) -> u64 {
        self.read(include_stack) + self.write(include_stack)
    }

    /// Count one access of `bytes` into this entry. Masks pick the
    /// counters, so the update has no branches.
    #[inline]
    pub(crate) fn count(&mut self, is_read: bool, bytes: u64, is_stack: bool) {
        let read = 0u64.wrapping_sub(is_read as u64);
        let global = (is_stack as u64).wrapping_sub(1);
        self.r_incl += bytes & read;
        self.r_excl += bytes & read & global;
        self.w_incl += bytes & !read;
        self.w_excl += bytes & !read & global;
    }

    /// Add another entry's counters (of the same slice) to this one.
    #[inline]
    fn add(&mut self, other: &SliceEntry) {
        self.r_incl += other.r_incl;
        self.r_excl += other.r_excl;
        self.w_incl += other.w_incl;
        self.w_excl += other.w_excl;
    }
}

/// Counter for new (kernel, slice) entries — the tool's per-slice flush
/// point: one increment each time a kernel first touches memory in a slice.
fn slices_flushed() -> &'static tq_obs::Counter {
    use std::sync::OnceLock;
    static C: OnceLock<tq_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        tq_obs::counter(
            "tq_tquad_slices_flushed_total",
            "New per-kernel slice entries appended to tQUAD bandwidth series",
        )
    })
}

/// The sparse slice series of one kernel.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelSeries {
    entries: Vec<SliceEntry>,
}

impl KernelSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access: the paper's per-access update. `slice` values
    /// must arrive in nondecreasing order (they do: virtual time is
    /// monotonic). A zero-byte access still opens its slice's entry.
    #[inline]
    pub fn record(&mut self, slice: u64, is_read: bool, bytes: u64, is_stack: bool) {
        let mut cell = SliceEntry {
            slice,
            ..Default::default()
        };
        cell.count(is_read, bytes, is_stack);
        self.append(cell);
    }

    /// Append the traffic of one slice: summed into the last entry when
    /// that entry has the same slice, else pushed as a new entry. The one
    /// way entries enter a series, so a cell counted in one `append` and
    /// the same accesses counted in one [`KernelSeries::record`] each give
    /// equal series.
    #[inline]
    pub(crate) fn append(&mut self, cell: SliceEntry) {
        match self.entries.last_mut() {
            Some(e) if e.slice == cell.slice => e.add(&cell),
            _ => {
                debug_assert!(
                    self.entries.last().is_none_or(|e| e.slice < cell.slice),
                    "slices must be recorded in order"
                );
                slices_flushed().inc();
                self.entries.push(cell);
            }
        }
    }

    /// All entries, in slice order.
    pub fn entries(&self) -> &[SliceEntry] {
        &self.entries
    }

    /// Merge another series into this one, summing the counters of equal
    /// slices (a sorted merge-join; both inputs are in slice order by
    /// construction). Shards of a time-partitioned replay only ever share
    /// the boundary slice, so this reduces partial series exactly.
    pub fn merge(&mut self, other: &KernelSeries) {
        if other.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (a, b) = (self.entries[i], other.entries[j]);
            if a.slice < b.slice {
                merged.push(a);
                i += 1;
            } else if b.slice < a.slice {
                merged.push(b);
                j += 1;
            } else {
                let mut sum = a;
                sum.add(&b);
                merged.push(sum);
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
    }

    /// Number of *active* slices under the given stack filter (the paper's
    /// per-kernel "activity span" count in Table IV). With stack accesses
    /// excluded, slices whose only traffic was local drop out — the paper
    /// observes exactly this for `zeroRealVec`/`zeroCplxVec`.
    pub fn active_slices(&self, include_stack: bool) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.total(include_stack) > 0)
            .count() as u64
    }

    /// First and last active slice under the filter.
    pub fn span(&self, include_stack: bool) -> Option<(u64, u64)> {
        let mut it = self.entries.iter().filter(|e| e.total(include_stack) > 0);
        let first = it.next()?.slice;
        let last = self
            .entries
            .iter()
            .rev()
            .find(|e| e.total(include_stack) > 0)
            .expect("found a first")
            .slice;
        Some((first, last))
    }

    /// Total bytes (read, written) under the filter.
    pub fn totals(&self, include_stack: bool) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for e in &self.entries {
            r += e.read(include_stack);
            w += e.write(include_stack);
        }
        (r, w)
    }

    /// Peak read+write bytes in any single slice under the filter.
    pub fn peak_total(&self, include_stack: bool) -> u64 {
        self.entries
            .iter()
            .map(|e| e.total(include_stack))
            .max()
            .unwrap_or(0)
    }

    /// Dense vector of per-slice values over `0..n_slices` (for charts).
    /// `f` selects the measure (e.g. `|e| e.read(true)`). Entries at or
    /// past `n_slices` are silently dropped rather than indexed
    /// out-of-bounds — callers may legitimately ask for a shorter horizon
    /// than the series covers (or pass an `n_slices` computed from a
    /// different interval).
    pub fn dense(&self, n_slices: u64, f: impl Fn(&SliceEntry) -> u64) -> Vec<f64> {
        let mut out = vec![0.0; n_slices as usize];
        for e in &self.entries {
            if e.slice < n_slices {
                out[e.slice as usize] = f(e) as f64;
            }
        }
        out
    }

    /// Active slice indices under the filter (for phase detection).
    pub fn active_indices(&self, include_stack: bool) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|e| e.total(include_stack) > 0)
            .map(|e| e.slice)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merges_same_slice() {
        let mut s = KernelSeries::new();
        s.record(3, true, 8, false);
        s.record(3, true, 4, true); // stack read
        s.record(3, false, 2, false);
        s.record(7, false, 16, true);
        assert_eq!(s.entries().len(), 2);
        let e = s.entries()[0];
        assert_eq!((e.r_incl, e.r_excl, e.w_incl, e.w_excl), (12, 8, 2, 2));
        let e2 = s.entries()[1];
        assert_eq!((e2.w_incl, e2.w_excl), (16, 0));
    }

    #[test]
    fn activity_depends_on_stack_filter() {
        let mut s = KernelSeries::new();
        s.record(0, true, 8, true); // stack-only slice
        s.record(5, true, 8, false); // global slice
        assert_eq!(s.active_slices(true), 2);
        assert_eq!(s.active_slices(false), 1);
        assert_eq!(s.span(true), Some((0, 5)));
        assert_eq!(s.span(false), Some((5, 5)));
    }

    #[test]
    fn totals_and_peaks() {
        let mut s = KernelSeries::new();
        s.record(0, true, 10, false);
        s.record(0, false, 5, false);
        s.record(1, true, 100, true);
        assert_eq!(s.totals(true), (110, 5));
        assert_eq!(s.totals(false), (10, 5));
        assert_eq!(s.peak_total(true), 100);
        assert_eq!(s.peak_total(false), 15);
    }

    #[test]
    fn dense_projection() {
        let mut s = KernelSeries::new();
        s.record(1, true, 8, false);
        s.record(3, true, 2, false);
        let d = s.dense(5, |e| e.r_incl);
        assert_eq!(d, vec![0.0, 8.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn dense_ignores_entries_past_the_horizon() {
        // Regression: entries beyond `n_slices` must be dropped, not
        // indexed out of bounds (and n_slices == 0 must not panic).
        let mut s = KernelSeries::new();
        s.record(1, true, 8, false);
        s.record(9, true, 2, false);
        assert_eq!(s.dense(3, |e| e.r_incl), vec![0.0, 8.0, 0.0]);
        assert_eq!(s.dense(0, |e| e.r_incl), Vec::<f64>::new());
    }

    #[test]
    fn merge_is_a_sorted_join() {
        let mut a = KernelSeries::new();
        a.record(0, true, 8, false);
        a.record(3, false, 4, false);
        let mut b = KernelSeries::new();
        b.record(3, true, 2, true);
        b.record(5, false, 1, false);
        a.merge(&b);
        let slices: Vec<u64> = a.entries().iter().map(|e| e.slice).collect();
        assert_eq!(slices, vec![0, 3, 5]);
        let boundary = a.entries()[1];
        assert_eq!(
            (boundary.r_incl, boundary.r_excl, boundary.w_incl),
            (2, 0, 4),
            "boundary slice sums both shards"
        );
        // Merging from/into empty is identity.
        let mut empty = KernelSeries::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&KernelSeries::new());
        assert_eq!(empty, a);
    }

    #[test]
    fn empty_series() {
        let s = KernelSeries::new();
        assert_eq!(s.active_slices(true), 0);
        assert_eq!(s.span(true), None);
        assert_eq!(s.peak_total(false), 0);
    }
}
