//! **Generality check** — the paper states tQUAD "was tested on a set of
//! real applications" but reports only the wfs case study. This binary
//! runs the full toolchain on the second application (image pipeline:
//! blur → Sobel edges → threshold; 8×8 DCT encode → decode → verify) and
//! prints its flat profile and phase structure, demonstrating that nothing
//! in the reproduction is wfs-specific.

use tq_bench::{save, scale};
use tq_gprof::{GprofOptions, GprofTool};
use tq_imgproc::ImgApp;
use tq_quad::{cluster_by_communication, ClusterOptions, QuadOptions, QuadTool};
use tq_tquad::{phase_table, PhaseDetector, TquadOptions, TquadTool};

fn main() {
    println!("=== Second application: edge detection + DCT compression pipeline ===");
    let cfg = scale().img_config();
    println!(
        "image {}×{}, {} blur passes, {} DCT blocks\n",
        cfg.width,
        cfg.height,
        cfg.blur_passes,
        cfg.blocks()
    );
    let app = ImgApp::build(cfg);

    let mut vm = app.make_vm();
    let g = vm.attach_tool(Box::new(GprofTool::new(GprofOptions {
        sample_interval: 5_000,
        ..Default::default()
    })));
    let q = vm.attach_tool(Box::new(QuadTool::new(QuadOptions::default())));
    let t = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(2_000),
    )));
    let exit = vm.run(None).expect("pipeline runs");
    println!(
        "{} instructions; MSE = {}",
        exit.icount,
        vm.console().trim()
    );

    let gprof = vm.detach_tool::<GprofTool>(g).unwrap().into_profile();
    println!("\n{}", gprof.table("FLAT PROFILE").render());

    let quad = vm.detach_tool::<QuadTool>(q).unwrap().into_profile();
    let clustering = cluster_by_communication(
        &quad,
        ClusterOptions {
            max_cluster_size: 5,
            min_edge_bytes: 1024,
        },
    );
    println!(
        "task clustering: {} clusters, {:.1} % of traffic intra-cluster",
        clustering.clusters.len(),
        100.0 * clustering.internal_fraction()
    );

    let profile = vm.detach_tool::<TquadTool>(t).unwrap().into_profile();
    let phases = PhaseDetector::default().detect_excluding(&profile, &["main", "img_store"]);
    println!(
        "\n{} phases (expected: load, filter, sobel, threshold, encode, decode, verify)\n",
        phases.len()
    );
    let table = phase_table(&profile, &phases);
    println!("{}", table.render());
    save("second_app_phases.csv", &table.to_csv());
}
