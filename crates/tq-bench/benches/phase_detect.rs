//! Phase detection (activity-vector cosine with span-overlap rescue) on
//! synthetic profiles of growing size. Plain timing harness
//! (`tq_bench::bench`).

use tq_bench::bench;
use tq_isa::RoutineId;
use tq_tquad::{KernelProfile, KernelSeries, PhaseDetector, TquadProfile};

/// A synthetic profile: `k` kernels per phase, `p` phases laid out
/// sequentially over `slices_per_phase` each.
fn synthetic(phases: usize, kernels_per_phase: usize, slices_per_phase: u64) -> TquadProfile {
    let mut kernels = Vec::new();
    for ph in 0..phases {
        let lo = ph as u64 * slices_per_phase;
        for k in 0..kernels_per_phase {
            let mut s = KernelSeries::new();
            // Vary density: kernel 0 dense, the rest progressively sparser.
            let step = 1 + k as u64 * 3;
            let mut slice = lo + k as u64;
            while slice < lo + slices_per_phase {
                s.record(slice, true, 8, false);
                slice += step;
            }
            kernels.push(KernelProfile {
                rtn: RoutineId(kernels.len() as u32),
                name: format!("k{ph}_{k}"),
                main_image: true,
                calls: 1,
                series: s,
            });
        }
    }
    TquadProfile {
        interval: 1000,
        total_icount: phases as u64 * slices_per_phase * 1000,
        kernels,
        dropped_accesses: 0,
        prefetches_ignored: 0,
        instr: None,
    }
}

fn main() {
    for &(phases, kernels) in &[(5usize, 4usize), (8, 8)] {
        let profile = synthetic(phases, kernels, 10_000);
        let label = format!("{phases}phases_x{kernels}kernels");
        bench(&format!("phase_detection/activity_cosine/{label}"), || {
            PhaseDetector::default().detect(&profile).len()
        });
    }

    // Sanity: the detector finds the layout.
    let p = synthetic(5, 4, 10_000);
    assert_eq!(PhaseDetector::default().detect(&p).len(), 5);
}
