//! **Table IV** — phases in the execution path of the hArtes wfs.
//!
//! tQUAD at a fine slice interval (the paper sets 5000 instructions "in
//! order to have accurate estimations"); phase identification over the
//! per-kernel activity spans; per kernel and phase: activity span, average
//! read/write bandwidth (bytes/instruction) with the stack included and
//! excluded, peak R+W bandwidth, and the phase's aggregate peak.
//!
//! Shape expectations: **five phases** in the order initialization
//! (`ffw`, `ldint`) → wave load (`wav_load`) → wave propagation
//! (`vsmult2d`, `calculateGainPQ`, `PrimarySource_deriveTP`) → WFS main
//! processing (*fourteen* kernels) → wave save (`wav_store` alone);
//! `AudioIo_setFrames` peak bandwidth an order of magnitude above every
//! other kernel (> 50 B/instr in the paper, ~3 B/instr for the rest);
//! `zeroRealVec`/`zeroCplxVec` activity spans collapsing when stack
//! accesses are excluded.

use tq_bench::{banner, save, scale_app};
use tq_tquad::{phase_table, profile_json, PhaseDetector, TquadOptions, TquadTool};

fn main() {
    banner("Table IV: phases in the execution path of hArtes wfs");
    let app = scale_app();

    // The paper-equivalent fine interval: 5000 instructions on their
    // 6.4 G-instruction run, scaled to ours (≈ 1.27 M slices either way).
    let (_, bare) = app.run_bare().expect("bare run for sizing");
    let interval = ((bare.icount as f64 * 5000.0 / 6.4e9) as u64).max(16);

    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(interval),
    )));
    vm.run(None).expect("wfs runs under tQUAD");
    let profile = vm.detach_tool::<TquadTool>(h).unwrap().into_profile();
    // The slice count the phase table's title prints too: the last,
    // partial slice counts.
    println!(
        "slice interval = {interval} instructions ≈ paper's 5000 on 6.4e9 ({} slices)\n",
        profile.n_slices()
    );

    let phases = PhaseDetector::default().detect(&profile);
    println!("{} phases identified (paper: 5)\n", phases.len());

    let table = phase_table(&profile, &phases);
    println!("{}", table.render());

    // Peak-bandwidth outlier check.
    let mut peaks: Vec<(String, f64)> = profile
        .active_kernels()
        .iter()
        .filter(|k| k.name != "main")
        .filter_map(|k| {
            profile
                .stats(k, true)
                .map(|s| (k.name.clone(), s.max_total_bpi))
        })
        .collect();
    peaks.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    if peaks.len() >= 2 {
        println!(
            "peak bandwidth outlier: {} at {:.2} B/instr vs runner-up {} at {:.2} B/instr \
             (paper: AudioIo_setFrames > 50 vs ≤ 3 for all others)",
            peaks[0].0, peaks[0].1, peaks[1].0, peaks[1].1
        );
    }

    // Activity-span collapse for the zeroing kernels.
    for name in ["zeroRealVec", "zeroCplxVec"] {
        if let Some(k) = profile.kernel(name) {
            let incl = profile.stats(k, true).map(|s| s.activity_span).unwrap_or(0);
            let excl = profile
                .stats(k, false)
                .map(|s| s.activity_span)
                .unwrap_or(0);
            println!(
                "{name}: activity span {incl} (stack incl) → {excl} (excl), factor {:.1} \
                 (paper: 2 and 8)",
                incl as f64 / excl.max(1) as f64
            );
        }
    }

    save("table4_phases.csv", &table.to_csv());
    // Machine-readable profile (per-kernel slice series) for downstream
    // analysis.
    save("table4_profile.json", &profile_json(&profile).render());
}
