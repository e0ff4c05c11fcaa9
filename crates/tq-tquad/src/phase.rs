//! Execution-phase identification.
//!
//! "tQUAD recognizes five different phases in the whole execution span of
//! the hArtes wfs by the thorough examination of different graphs. […] The
//! kernels that are active at the same time interval are possibly relevant
//! (communicating)." (§V)
//!
//! Each kernel becomes a bucketed activity vector over the run, and
//! agglomerative average-linkage clustering merges kernels by cosine
//! similarity of those vectors or by containment of their activity
//! intervals. The intervals are quantile-trimmed first, which ignores
//! brief out-of-phase activations (the paper notes `r2c` "gets active in
//! the 145th time slice for a very short time and then becomes silent
//! until the 14663th").

use crate::profile::TquadProfile;
use tq_isa::RoutineId;

/// Phase detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct PhaseDetector {
    /// Number of time buckets the run is divided into.
    pub buckets: usize,
    /// Minimum similarity to merge two clusters.
    pub threshold: f64,
    /// Quantile trimmed from each end of a kernel's active-slice list when
    /// computing its robust interval (ignores brief out-of-span
    /// activations).
    pub trim_quantile: f64,
    /// Stack filter under which activity is measured.
    pub include_stack: bool,
    /// Kernels whose trimmed span covers at least this fraction of the run
    /// are excluded: they are structural (e.g. `main`), not phase-bound —
    /// the paper likewise "only consider\[s\] the kernels previously
    /// selected and not all the functions".
    pub max_span_fraction: f64,
}

impl Default for PhaseDetector {
    fn default() -> Self {
        PhaseDetector {
            buckets: 1024,
            threshold: 0.5,
            trim_quantile: 0.01,
            include_stack: true,
            max_span_fraction: 0.95,
        }
    }
}

/// One detected phase.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Earliest starting and latest ending slice over the member kernels
    /// (the paper's "phase span").
    pub span: (u64, u64),
    /// Member kernels, ordered by their own activity start.
    pub kernels: Vec<RoutineId>,
}

impl Phase {
    /// Phase length in slices.
    pub fn len(&self) -> u64 {
        self.span.1 - self.span.0 + 1
    }

    /// True if the phase is a single slice long.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Percentage of the whole execution this phase spans ("% phase span").
    pub fn span_pct(&self, total_slices: u64) -> f64 {
        100.0 * self.len() as f64 / total_slices.max(1) as f64
    }
}

struct Item {
    rtn: RoutineId,
    interval: (u64, u64),
    vector: Vec<f64>,
    weight: usize,
}

impl PhaseDetector {
    /// Detect phases in a profile, excluding the `main` entry routine.
    ///
    /// `main` is structural: its own memory traffic (call-argument staging
    /// between kernel invocations) is interleaved with *every* phase, so
    /// including it would bridge otherwise-disjoint phases into one. The
    /// paper likewise clusters "the kernels previously selected and not
    /// all the functions". Use [`PhaseDetector::detect_excluding`] for a
    /// custom exclusion list.
    pub fn detect(&self, profile: &TquadProfile) -> Vec<Phase> {
        self.detect_excluding(profile, &["main"])
    }

    /// Detect phases, omitting the named routines. Kernels with no
    /// activity under the configured stack filter are omitted as well.
    pub fn detect_excluding(&self, profile: &TquadProfile, exclude: &[&str]) -> Vec<Phase> {
        let n_slices = profile.n_slices();
        let mut items: Vec<Item> = Vec::new();

        for k in &profile.kernels {
            if exclude.contains(&k.name.as_str()) {
                continue;
            }
            let indices = k.series.active_indices(self.include_stack);
            let Some(interval) = trimmed_interval(&indices, self.trim_quantile) else {
                // Inactive under this stack filter: nothing to cluster.
                continue;
            };
            let span_frac = (interval.1 - interval.0 + 1) as f64 / n_slices.max(1) as f64;
            if span_frac >= self.max_span_fraction {
                continue;
            }
            items.push(Item {
                rtn: k.rtn,
                interval,
                vector: bucket_vector(&indices, n_slices, self.buckets),
                weight: 1,
            });
        }
        if items.is_empty() {
            return Vec::new();
        }

        // Agglomerative clustering: clusters are lists of item indices.
        let mut clusters: Vec<Vec<usize>> = (0..items.len()).map(|i| vec![i]).collect();
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..clusters.len() {
                for j in i + 1..clusters.len() {
                    let sim = cluster_similarity(&clusters[i], &clusters[j], &items);
                    if sim >= self.threshold && best.is_none_or(|(_, _, s)| sim > s) {
                        best = Some((i, j, sim));
                    }
                }
            }
            match best {
                Some((i, j, _)) => {
                    let merged = clusters.remove(j);
                    clusters[i].extend(merged);
                }
                None => break,
            }
        }

        let mut phases: Vec<Phase> = clusters
            .into_iter()
            .map(|members| {
                let mut ks: Vec<(u64, RoutineId)> = members
                    .iter()
                    .map(|&i| (items[i].interval.0, items[i].rtn))
                    .collect();
                ks.sort();
                let start = members
                    .iter()
                    .map(|&i| items[i].interval.0)
                    .min()
                    .expect("non-empty");
                let end = members
                    .iter()
                    .map(|&i| items[i].interval.1)
                    .max()
                    .expect("non-empty");
                Phase {
                    span: (start, end),
                    kernels: ks.into_iter().map(|(_, r)| r).collect(),
                }
            })
            .collect();
        phases.sort_by_key(|p| p.span);
        phases
    }
}

/// Hybrid similarity: bucketed-activity cosine OR interval containment.
/// The cosine separates time-disjoint phases; the overlap coefficient
/// rescues kernels that are only sparsely active inside a dense phase
/// (`AudioIo_setFrames` touches memory in 616 of ~578 000 slices in Table
/// IV) and whose activity vectors are therefore nearly orthogonal to their
/// phase-mates.
fn cluster_similarity(a: &[usize], b: &[usize], items: &[Item]) -> f64 {
    let va = sum_vectors(a, items);
    let vb = sum_vectors(b, items);
    let ia = union_interval(a, items);
    let ib = union_interval(b, items);
    cosine(&va, &vb).max(overlap_coefficient(ia, ib))
}

/// Quantile-trimmed first/last active slice; `None` for an empty list (a
/// kernel can have zero active slices under the chosen stack filter, which
/// previously underflowed `n - 1` here).
fn trimmed_interval(sorted_indices: &[u64], q: f64) -> Option<(u64, u64)> {
    let n = sorted_indices.len();
    if n == 0 {
        return None;
    }
    let lo = ((n as f64 * q).floor() as usize).min(n - 1);
    let hi = ((n as f64 * (1.0 - q)).ceil() as usize).clamp(lo + 1, n) - 1;
    Some((sorted_indices[lo], sorted_indices[hi]))
}

fn bucket_vector(indices: &[u64], n_slices: u64, buckets: usize) -> Vec<f64> {
    let mut v = vec![0.0f64; buckets.max(1)];
    for &s in indices {
        let b = ((s as u128 * buckets as u128) / n_slices.max(1) as u128) as usize;
        v[b.min(buckets - 1)] += 1.0;
    }
    // Presence, not volume: a kernel's phase membership is about *when* it
    // runs, not how loud it is.
    for x in v.iter_mut() {
        if *x > 0.0 {
            *x = 1.0 + x.ln().max(0.0);
        }
    }
    v
}

fn sum_vectors(members: &[usize], items: &[Item]) -> Vec<f64> {
    let dim = items[members[0]].vector.len();
    let mut out = vec![0.0; dim];
    for &m in members {
        for (o, x) in out.iter_mut().zip(&items[m].vector) {
            *o += x / items[m].weight as f64;
        }
    }
    out
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn union_interval(members: &[usize], items: &[Item]) -> (u64, u64) {
    let start = members
        .iter()
        .map(|&i| items[i].interval.0)
        .min()
        .expect("non-empty");
    let end = members
        .iter()
        .map(|&i| items[i].interval.1)
        .max()
        .expect("non-empty");
    (start, end)
}

/// Interval intersection over the smaller interval's length — 1.0 when one
/// interval is contained in the other.
fn overlap_coefficient(a: (u64, u64), b: (u64, u64)) -> f64 {
    let inter_lo = a.0.max(b.0);
    let inter_hi = a.1.min(b.1);
    let inter = if inter_hi >= inter_lo {
        inter_hi - inter_lo + 1
    } else {
        0
    };
    let min_len = (a.1 - a.0 + 1).min(b.1 - b.0 + 1);
    inter as f64 / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{KernelProfile, TquadProfile};
    use crate::series::KernelSeries;

    /// Build a profile with kernels active over given slice ranges.
    fn synthetic(ranges: &[(&str, u64, u64)], total_slices: u64) -> TquadProfile {
        let kernels = ranges
            .iter()
            .enumerate()
            .map(|(i, (name, lo, hi))| {
                let mut s = KernelSeries::new();
                for slice in *lo..=*hi {
                    s.record(slice, true, 8, false);
                }
                KernelProfile {
                    rtn: RoutineId(i as u32),
                    name: name.to_string(),
                    main_image: true,
                    calls: 1,
                    series: s,
                }
            })
            .collect();
        TquadProfile {
            interval: 1000,
            total_icount: total_slices * 1000,
            kernels,
            dropped_accesses: 0,
            prefetches_ignored: 0,
            instr: None,
        }
    }

    #[test]
    fn disjoint_ranges_make_distinct_phases() {
        // init | load | main | save — the WFS shape in miniature.
        let p = synthetic(
            &[
                ("init_a", 0, 5),
                ("init_b", 1, 4),
                ("load", 10, 100),
                ("proc_a", 110, 500),
                ("proc_b", 120, 480),
                ("proc_c", 115, 495),
                ("save", 510, 1000),
            ],
            1001,
        );
        let phases = PhaseDetector::default().detect(&p);
        assert_eq!(phases.len(), 4, "{phases:?}");
        assert_eq!(phases[0].kernels.len(), 2);
        assert_eq!(phases[2].kernels.len(), 3);
        let (lo, hi) = phases[3].span;
        assert!(
            (510..=520).contains(&lo) && hi >= 985,
            "save span ~(510,1000): {:?}",
            (lo, hi)
        );
    }

    #[test]
    fn sparse_kernel_joins_its_phase() {
        // A kernel active in a few slices scattered across the same window
        // as a dense kernel must cluster with it (AudioIo_setFrames-like).
        let mut p = synthetic(&[("dense", 100, 500)], 600);
        let mut s = KernelSeries::new();
        for slice in (100..500).step_by(50) {
            s.record(slice, false, 1000, false);
        }
        p.kernels.push(KernelProfile {
            rtn: RoutineId(1),
            name: "sparse".into(),
            main_image: true,
            calls: 1,
            series: s,
        });
        let phases = PhaseDetector::default().detect(&p);
        assert_eq!(phases.len(), 1, "{phases:?}");
        assert_eq!(phases[0].kernels.len(), 2);
    }

    #[test]
    fn trimming_ignores_brief_out_of_span_activity() {
        // r2c-like: one early blip at slice 2, real activity 400..800.
        let mut s = KernelSeries::new();
        s.record(2, true, 8, false);
        for slice in 400..=800 {
            s.record(slice, true, 8, false);
        }
        let idx = s.active_indices(true);
        let (lo, hi) = trimmed_interval(&idx, 0.01).unwrap();
        assert!(lo >= 400, "early blip trimmed: lo={lo}");
        assert!(hi >= 790, "symmetric trim keeps ~the top: hi={hi}");
    }

    #[test]
    fn trimmed_interval_of_nothing_is_none() {
        // Regression: used to compute `n - 1` on an empty list and panic.
        assert_eq!(trimmed_interval(&[], 0.01), None);
        assert_eq!(trimmed_interval(&[7], 0.01), Some((7, 7)));
    }

    #[test]
    fn stack_only_kernel_does_not_panic_the_detector() {
        // Regression: a kernel whose only traffic is stack-local has zero
        // active slices under include_stack=false; the detector must skip
        // it, not underflow in the quantile trim.
        let mut p = synthetic(&[("worker", 10, 60), ("helper", 15, 55)], 100);
        let mut s = KernelSeries::new();
        s.record(20, true, 8, true); // stack-only activity
        p.kernels.push(KernelProfile {
            rtn: RoutineId(2),
            name: "stack_only".into(),
            main_image: true,
            calls: 1,
            series: s,
        });
        let det = PhaseDetector {
            include_stack: false,
            ..PhaseDetector::default()
        };
        let phases = det.detect(&p);
        assert!(
            phases.iter().all(|ph| !ph.kernels.contains(&RoutineId(2))),
            "inactive kernel excluded: {phases:?}"
        );
    }

    #[test]
    fn empty_profile_has_no_phases() {
        let p = synthetic(&[], 10);
        assert!(PhaseDetector::default().detect(&p).is_empty());
    }

    #[test]
    fn phase_span_pct() {
        let ph = Phase {
            span: (10, 19),
            kernels: vec![],
        };
        assert_eq!(ph.len(), 10);
        assert!((ph.span_pct(100) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_and_cosine_helpers() {
        assert_eq!(
            overlap_coefficient((100, 200), (0, 1000)),
            1.0,
            "containment"
        );
        assert_eq!(overlap_coefficient((0, 4), (10, 14)), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine(&[0.0], &[0.0]), 0.0);
    }
}
