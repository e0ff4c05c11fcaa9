//! Reconstruction of full-run bandwidth series from sampled captures
//! (`--instr sample:…`).
//!
//! A sampled run records memory traffic only in *live* gating slices:
//! every `period`-th slice of the deterministic phase. The estimator here
//! rebuilds a per-tool-slice series from those observations:
//!
//! * a tool slice whose instruction range is **partially** live scales its
//!   measured counters by `total/live` instruction weight (the measured
//!   portion is treated as representative of the whole slice);
//! * a tool slice whose range is **fully dead** is filled by carrying the
//!   previous reconstructed slice forward (a zero-order hold between
//!   observations);
//! * slices that were measured live but saw no traffic stay empty — and
//!   reset the carry, so activity never bleeds past an observed silence.
//!
//! The estimator is deliberately simple and *bounded*: `docs/ACCURACY.md`
//! defines the error metric and `benches/instr_accuracy.rs` measures it per
//! workload; reports carry a [`ReconNote`] so no reconstructed profile can
//! be mistaken for an exact one.

use crate::series::{KernelSeries, SliceEntry};
use tq_vm::InstrInfo;

/// Provenance of a reconstructed profile: what mode produced the capture
/// and how much of the run was actually observed. Attached to
/// [`crate::TquadProfile::instr`]; `None` there means the profile is an
/// exact full-instrumentation measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReconNote {
    /// Canonical `--instr` spec of the producing run.
    pub spec: String,
    /// Fraction of (routine × gating-slice) cells observed, in parts per
    /// million (1 000 000 = everything measured).
    pub coverage_ppm: u64,
    /// Tool slices synthesized by carry-forward (no live observation).
    pub filled_slices: u64,
    /// Tool slices backed by at least one live gating slice.
    pub measured_slices: u64,
}

impl ReconNote {
    /// Coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.coverage_ppm as f64 / 1e6
    }
}

/// Scale `v` by `total/live` with round-to-nearest (128-bit intermediate,
/// so byte counters cannot overflow).
fn scale(v: u64, live: u64, total: u64) -> u64 {
    if live == 0 || live == total {
        return v;
    }
    ((v as u128 * total as u128 + (live / 2) as u128) / live as u128) as u64
}

/// Live instruction weight inside the instruction range `[lo, hi)`:
/// instructions belonging to gating slices that were sampled live.
fn live_weight(info: &InstrInfo, lo: u64, hi: u64) -> u64 {
    let ls = info.slice_len;
    debug_assert!(ls > 0);
    let mut live = 0u64;
    let mut g = lo / ls;
    while g * ls < hi {
        let s_lo = (g * ls).max(lo);
        let s_hi = ((g + 1) * ls).min(hi);
        if info.sample_live(g) {
            live += s_hi - s_lo;
        }
        g += 1;
    }
    live
}

/// Reconstruct one kernel's series at tool-slice granularity (`interval`
/// instructions per slice) over its observed activity span. Returns the
/// reconstructed series plus `(filled, measured)` tool-slice counts.
pub fn reconstruct_series(
    series: &KernelSeries,
    interval: u64,
    info: &InstrInfo,
) -> (KernelSeries, u64, u64) {
    if info.slice_len == 0 {
        return (series.clone(), 0, 0);
    }
    let entries = series.entries();
    let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
        return (KernelSeries::new(), 0, 0);
    };
    let first = first.slice;
    let n_tool = info.total_icount.div_ceil(interval).max(1);
    let last = last.slice.min(n_tool - 1);

    let mut out = KernelSeries::new();
    let mut rebuilt: Vec<SliceEntry> = Vec::new();
    let mut carry: Option<SliceEntry> = None;
    let mut idx = 0usize;
    let mut filled = 0u64;
    let mut measured = 0u64;
    for t in first..=last {
        let lo = t * interval;
        let hi = ((t + 1) * interval).min(info.total_icount.max(lo + 1));
        let total = hi - lo;
        let live = live_weight(info, lo, hi);
        while idx < entries.len() && entries[idx].slice < t {
            idx += 1;
        }
        let here = entries.get(idx).filter(|e| e.slice == t);
        if live == 0 {
            filled += 1;
            if let Some(c) = carry {
                rebuilt.push(SliceEntry { slice: t, ..c });
            }
            continue;
        }
        measured += 1;
        match here {
            Some(e) => {
                let scaled = SliceEntry {
                    slice: t,
                    r_incl: scale(e.r_incl, live, total),
                    r_excl: scale(e.r_excl, live, total),
                    w_incl: scale(e.w_incl, live, total),
                    w_excl: scale(e.w_excl, live, total),
                };
                rebuilt.push(scaled);
                carry = Some(scaled);
            }
            None => {
                // Observed silence: genuinely inactive, and the carry must
                // not paint activity past it.
                carry = None;
            }
        }
    }
    for e in rebuilt {
        // Reassemble via record() calls so KernelSeries invariants (sorted,
        // merged per slice) hold: excl counts as non-stack, the incl-excl
        // remainder as stack traffic.
        out.record(e.slice, true, e.r_excl, false);
        if e.r_incl > e.r_excl {
            out.record(e.slice, true, e.r_incl - e.r_excl, true);
        }
        out.record(e.slice, false, e.w_excl, false);
        if e.w_incl > e.w_excl {
            out.record(e.slice, false, e.w_incl - e.w_excl, true);
        }
    }
    (out, filled, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info_sampling(period: u64, offset_seedless: bool) -> InstrInfo {
        // Build an info whose sample_offset is 0 for predictable tests.
        let _ = offset_seedless;
        InstrInfo {
            spec: format!("sample:{period}/100@0"),
            slice_len: 100,
            sample_period: period,
            sample_offset: 0,
            filtered: Vec::new(),
            total_icount: 1000,
        }
    }

    #[test]
    fn sampling_scales_partially_live_slices() {
        // Tool slice == 2 gating slices; period 2 offset 0 → exactly one
        // of the two gating slices in every tool slice is live.
        let mut s = KernelSeries::new();
        s.record(0, true, 40, false); // measured in live half
        s.record(2, true, 10, false);
        let info = info_sampling(2, true);
        let (r, filled, measured) = reconstruct_series(&s, 200, &info);
        // Slice 0: 40 bytes over half the slice → 80 estimated.
        assert_eq!(r.entries()[0].r_incl, 80);
        assert_eq!(r.entries()[0].r_excl, 80);
        assert_eq!(measured, 3, "all tool slices partially live");
        assert_eq!(filled, 0);
        // Slice 1 was measured live with zero traffic → stays empty.
        assert_eq!(r.entries().len(), 2);
        assert_eq!(r.entries()[1].slice, 2);
        assert_eq!(r.entries()[1].r_incl, 20);
    }

    #[test]
    fn sampling_fills_dead_slices_by_carry_forward() {
        // Tool slice == gating slice (100); period 2 offset 0 → odd tool
        // slices are fully dead.
        let mut s = KernelSeries::new();
        s.record(0, true, 8, false);
        s.record(2, true, 8, false);
        let info = info_sampling(2, true);
        let (r, filled, measured) = reconstruct_series(&s, 100, &info);
        let slices: Vec<u64> = r.entries().iter().map(|e| e.slice).collect();
        assert_eq!(slices, vec![0, 1, 2], "dead slice 1 carry-filled");
        assert_eq!(r.entries()[1].r_incl, 8);
        assert_eq!((filled, measured), (1, 2));
    }

    #[test]
    fn observed_silence_resets_the_carry() {
        let mut s = KernelSeries::new();
        s.record(0, true, 8, false);
        s.record(6, true, 8, false);
        let info = info_sampling(2, true);
        let (r, _, _) = reconstruct_series(&s, 100, &info);
        // Slice 1 (dead) is filled; slice 2 is live-and-silent, so slices
        // 3 and 5 (dead) must NOT inherit slice 0's bytes.
        let slices: Vec<u64> = r.entries().iter().map(|e| e.slice).collect();
        assert_eq!(slices, vec![0, 1, 6]);
    }

    #[test]
    fn stack_split_survives_reconstruction() {
        let mut s = KernelSeries::new();
        s.record(0, true, 30, false);
        s.record(0, true, 10, true); // stack read
        s.record(0, false, 6, true); // stack write
        let info = info_sampling(2, true);
        let (r, _, _) = reconstruct_series(&s, 200, &info);
        let e = r.entries()[0];
        assert_eq!((e.r_incl, e.r_excl), (80, 60));
        assert_eq!((e.w_incl, e.w_excl), (12, 0));
    }

    #[test]
    fn full_info_is_identity() {
        let mut s = KernelSeries::new();
        s.record(4, true, 8, false);
        let info = InstrInfo::default();
        let (r, filled, measured) = reconstruct_series(&s, 100, &info);
        assert_eq!(r, s);
        assert_eq!((filled, measured), (0, 0));
    }
}
