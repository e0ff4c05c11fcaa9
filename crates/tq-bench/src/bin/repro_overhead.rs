//! **§V.A** — instrumentation overhead.
//!
//! "tQUAD instruments every load, store, call and return instruction,
//! which will result in a slowdown of the execution of the hArtes wfs
//! ranging from 37.2 X to 68.95 X compared to native execution. The amount
//! of introduced overhead is strongly dependent on the time slice and the
//! option to include/exclude stack area accesses."
//!
//! The reproduction measures wall-clock slowdown of the instrumented VM
//! against the bare VM across the slice-interval range and both library
//! policies, plus the other tools for context, and the no-code-cache
//! ablation (what instrumentation costs without Pin's decode-once model).
//! Absolute factors differ from the paper's (their baseline is native x86,
//! ours an interpreter — see EXPERIMENTS.md); the *shape* — overhead grows
//! as slices shrink, analysis volume dominates — is the claim under test.

use std::time::Instant;
use tq_bench::{banner, save, scale_app};
use tq_gprof::{GprofOptions, GprofTool};
use tq_quad::{QuadOptions, QuadTool};
use tq_report::{f, Align, Table};
use tq_tquad::{LibPolicy, TquadOptions, TquadTool};
use tq_wfs::WfsApp;

fn time_bare(app: &WfsApp) -> (f64, u64) {
    let mut vm = app.make_vm();
    let t0 = Instant::now();
    let exit = vm.run(None).expect("bare run");
    (t0.elapsed().as_secs_f64(), exit.icount)
}

fn time_tquad(app: &WfsApp, interval: u64, policy: LibPolicy, cache: bool) -> f64 {
    let mut vm = app.make_vm();
    vm.set_cache_enabled(cache);
    vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default()
            .with_interval(interval)
            .with_lib_policy(policy),
    )));
    let t0 = Instant::now();
    vm.run(None).expect("instrumented run");
    t0.elapsed().as_secs_f64()
}

fn main() {
    banner("§V.A: instrumentation slowdown vs native (bare-VM) execution");
    let app = scale_app();

    // Median-of-3 bare baseline.
    let mut bares: Vec<f64> = (0..3).map(|_| time_bare(&app).0).collect();
    bares.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let bare = bares[1];
    let icount = time_bare(&app).1;
    println!("bare VM: {bare:.3} s for {icount} instructions\n");

    // Paper-equivalent slice intervals: 5000 … 1e8 on 6.4 G instructions,
    // scaled to our run length.
    let scale = icount as f64 / 6.4e9;
    let intervals: Vec<u64> = [5_000f64, 100_000.0, 25e6, 1e8]
        .iter()
        .map(|p| ((p * scale) as u64).max(16))
        .collect();

    let mut rows: Vec<(String, f64)> = Vec::new();

    // tQUAD across intervals × lib policies. Timed SERIALLY: concurrent
    // VMs would contend for cores and inflate every wall-clock number.
    for &interval in &intervals {
        for policy in [LibPolicy::AttributeToCaller, LibPolicy::Drop] {
            let t = time_tquad(&app, interval, policy, true);
            let label = format!(
                "tquad interval={interval}{}",
                match policy {
                    LibPolicy::Drop => " (libs excluded)",
                    _ => "",
                }
            );
            rows.push((label, t));
        }
    }

    // Other tools for context.
    {
        let mut vm = app.make_vm();
        vm.attach_tool(Box::new(GprofTool::new(GprofOptions {
            sample_interval: 5_000,
            ..Default::default()
        })));
        let t0 = Instant::now();
        vm.run(None).expect("gprof run");
        rows.push(("gprof-sim".into(), t0.elapsed().as_secs_f64()));
    }
    {
        let mut vm = app.make_vm();
        vm.attach_tool(Box::new(QuadTool::new(QuadOptions::default())));
        let t0 = Instant::now();
        vm.run(None).expect("quad run");
        rows.push(("quad (stack incl)".into(), t0.elapsed().as_secs_f64()));
    }

    // Ablation: instrumentation without a code cache (re-decode and
    // re-instrument every block execution).
    let no_cache = time_tquad(&app, intervals[1], LibPolicy::AttributeToCaller, false);
    rows.push((
        format!("tquad interval={} WITHOUT code cache", intervals[1]),
        no_cache,
    ));

    let mut table = Table::new(format!(
        "INSTRUMENTATION SLOWDOWN (baseline: bare VM, {bare:.3} s; paper reports 37.2–68.95× vs native x86)"
    ))
    .col("configuration", Align::Left)
    .col("wall (s)", Align::Right)
    .col("slowdown", Align::Right);
    for (label, t) in &rows {
        table.row(vec![label.clone(), f(*t, 3), format!("{:.2}x", t / bare)]);
    }
    println!("{}", table.render());

    let mut tquad: Vec<(&str, f64)> = rows
        .iter()
        .filter(|(l, _)| l.starts_with("tquad") && !l.contains("WITHOUT"))
        .map(|(l, t)| (l.trim_start_matches("tquad "), t / bare))
        .collect();
    tquad.sort_by(|a, b| a.1.total_cmp(&b.1));
    if let (Some((lo_label, lo)), Some((hi_label, hi))) = (tquad.first(), tquad.last()) {
        println!(
            "tquad slowdown range: {lo:.2}× ({lo_label}) … {hi:.2}× ({hi_label}) \
             (shape check: finer slices / more analysis → more overhead)"
        );
    }

    save("overhead.csv", &table.to_csv());
}
