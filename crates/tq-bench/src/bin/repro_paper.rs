//! **The paper in one pass** — Tables I–IV and Figures 6–7 of the tQUAD
//! paper from one bare sizing run and one live run.
//!
//! The sizing run counts the instructions, which fix the three tQUAD slice
//! intervals. The live run attaches six tools to one VM: gprof (Table I,
//! and Table III's baseline), QUAD with the stack excluded and included
//! (Table II; the included run also prices Table III's instrumentation
//! cost and draws the QDU graph), and tQUAD at the paper's fine interval
//! (Table IV), at 64 slices (Fig. 6) and at 255 slices (Fig. 7). Every
//! table and headline check prints to stdout, next to the paper's figure;
//! EXPERIMENTS.md discusses each. Machine-readable copies land in
//! `results/`. The Table IV profile's slice series is not saved:
//! `tq submit --tool tquad --interval <I>` serves it as JSON.

use tq_bench::{banner, save, scale_app};
use tq_gprof::{comparison_table, FlatProfile, GprofOptions, GprofTool, TimeModel};
use tq_quad::{qdu_graph, QuadOptions, QuadProfile, QuadTool};
use tq_tquad::{
    figure_chart, phase_table, Measure, PhaseDetector, TquadOptions, TquadProfile, TquadTool,
};

/// Instruction-equivalents of QUAD's instrumentation stub per access.
const ALPHA: u64 = 6;
/// Instruction-equivalents of QUAD's tracing analysis per non-stack access.
const BETA: u64 = 60;
/// Instruction-equivalents per first-time written address (shadow-map
/// insertion — the expensive path).
const GAMMA: u64 = 150;

/// The paper's Fig. 6 kernel set (its top ten).
const TOP10: [&str; 10] = [
    "wav_store",
    "fft1d",
    "DelayLine_processChunk",
    "bitrev",
    "zeroRealVec",
    "AudioIo_setFrames",
    "perm",
    "cadd",
    "cmult",
    "Filter_process",
];

/// The paper's Fig. 7 kernel set (the "last ten" of its Table I listing).
const LAST10: [&str; 10] = [
    "wav_load",
    "Filter_process_pre_",
    "zeroCplxVec",
    "r2c",
    "c2r",
    "AudioIo_getFrames",
    "ffw",
    "vsmult2d",
    "calculateGainPQ",
    "PrimarySource_deriveTP",
];

fn main() {
    banner("The tQUAD paper in one pass: Tables I–IV, Figures 6–7 (hArtes wfs)");
    let app = scale_app();

    // The slice intervals, scaled from the paper's 6.4 G-instruction run:
    // 5000 for Table IV (≈ 1.27 M slices either way), 64 slices for
    // Fig. 6 (paper: 1e8) and 255 for Fig. 7 (paper: 25e6).
    let (_, bare) = app.run_bare().expect("bare run for sizing");
    let fine = ((bare.icount as f64 * 5000.0 / 6.4e9) as u64).max(16);
    let coarse64 = (bare.icount / 64).max(1);
    let coarse255 = (bare.icount / 255).max(1);

    let mut vm = app.make_vm();
    let g = vm.attach_tool(Box::new(GprofTool::new(GprofOptions {
        sample_interval: 5_000,
        time_model: TimeModel::q9550(),
        track_libs: false,
    })));
    let quad = |include_stack| {
        Box::new(QuadTool::new(QuadOptions {
            include_stack,
            ..Default::default()
        }))
    };
    let qe = vm.attach_tool(quad(false));
    let qi = vm.attach_tool(quad(true));
    let tquads = [fine, coarse64, coarse255].map(|interval| {
        vm.attach_tool(Box::new(TquadTool::new(
            TquadOptions::default().with_interval(interval),
        )))
    });
    let exit = vm.run(None).expect("wfs runs under all six tools");

    let gprof = vm.detach_tool::<GprofTool>(g).unwrap().into_profile();
    let excl = vm.detach_tool::<QuadTool>(qe).unwrap().into_profile();
    let incl = vm.detach_tool::<QuadTool>(qi).unwrap().into_profile();
    let [p4, p6, p7] = tquads.map(|h| vm.detach_tool::<TquadTool>(h).unwrap().into_profile());

    table1(&gprof, exit.icount);
    table2(&excl, &incl);
    table3(&gprof, &incl);
    table4(&p4);
    fig6(&p6);
    fig7(&p7);
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

fn table1(profile: &FlatProfile, icount: u64) {
    section("Table I: gprof-style flat profile of hArtes wfs");
    let table = profile.table(&format!(
        "FLAT PROFILE ({} instructions, {} samples at every {} instructions)",
        icount, profile.total_samples, profile.sample_interval
    ));
    println!("{}", table.render());

    let ranked = profile.ranked();
    let top2 = ranked.iter().take(2);
    println!(
        "top-2 kernels: {} ({:.1} % of total; paper: wav_store+fft1d ≈ 60 %)",
        top2.clone()
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>()
            .join(" + "),
        top2.map(|r| profile.pct_time(r)).sum::<f64>()
    );
    save("table1_flat_profile.csv", &table.to_csv());

    // gprof's call-graph section, for the record (heaviest 15 edges).
    let cg = profile.call_graph_table("CALL GRAPH (top edges)");
    let rendered: String = cg.render().lines().take(20).collect::<Vec<_>>().join("\n");
    println!("\n{rendered}\n…");
    save("table1_call_graph.csv", &cg.to_csv());
}

fn table2(excl: &QuadProfile, incl: &QuadProfile) {
    section("Table II: QUAD producer/consumer summary for hArtes wfs");
    let table = tq_quad::table2(excl, incl);
    println!("{}", table.render());

    let sf = excl.row("AudioIo_setFrames").expect("kernel profiled");
    println!(
        "AudioIo_setFrames: OUT = {} vs OUT UnMA = {} (excl) → every write hits a fresh address: {}",
        sf.out_bytes,
        sf.out_unma,
        if sf.out_bytes == sf.out_unma { "YES (paper: yes)" } else { "no" }
    );
    for k in ["zeroRealVec", "zeroCplxVec"] {
        let i = incl.row(k).unwrap();
        let e = excl.row(k).unwrap();
        let ratio = i.in_bytes as f64 / e.in_bytes.max(1) as f64;
        println!("{k}: IN stack-incl/excl ratio = {ratio:.0} (paper: > 300 / > 750)");
    }
    let ws = incl.row("wav_store").unwrap();
    println!(
        "wav_store: IN UnMA = {} vs OUT UnMA = {} (paper: 64.9 M vs 1 115)",
        ws.in_unma, ws.out_unma
    );

    save("table2_quad.csv", &table.to_csv());
    save("qdu_graph.dot", &qdu_graph(incl, 1024).render());
}

fn table3(baseline: &FlatProfile, quad: &QuadProfile) {
    section("Table III: flat profile of the QUAD-instrumented hArtes wfs");
    let mut instrumented = baseline.clone();
    for (rtn, cost) in quad.cost_model(ALPHA, BETA, GAMMA) {
        instrumented.add_cost(rtn, cost);
    }
    let table = comparison_table(
        baseline,
        &instrumented,
        &format!(
            "QUAD-INSTRUMENTED FLAT PROFILE (α = {ALPHA}/checked, β = {BETA}/traced, γ = {GAMMA}/fresh written address)"
        ),
    );
    println!("{}", table.render());

    let pct = |p: &FlatProfile, name: &str| p.row(name).map(|r| p.pct_time(r)).unwrap_or(0.0);
    println!(
        "AudioIo_setFrames: {:.2} % → {:.2} % (paper: 4.01 → 11.19, ^^)",
        pct(baseline, "AudioIo_setFrames"),
        pct(&instrumented, "AudioIo_setFrames")
    );
    println!(
        "bitrev:            {:.2} % → {:.2} % (paper: 8.19 → 0.42, vv)",
        pct(baseline, "bitrev"),
        pct(&instrumented, "bitrev")
    );
    println!(
        "wav_store/fft1d keep ranks 1–2 (paper: <->): instrumented ranks = {:?}",
        instrumented
            .ranked()
            .iter()
            .take(3)
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>()
    );
    save("table3_instrumented_profile.csv", &table.to_csv());
}

fn table4(profile: &TquadProfile) {
    section("Table IV: phases in the execution path of hArtes wfs");
    // The slice count the phase table's title prints too: the last,
    // partial slice counts.
    println!(
        "slice interval = {} instructions ≈ paper's 5000 on 6.4e9 ({} slices)\n",
        profile.interval,
        profile.n_slices()
    );
    let phases = PhaseDetector::default().detect(profile);
    println!("{} phases identified (paper: 5)\n", phases.len());
    let table = phase_table(profile, &phases);
    println!("{}", table.render());

    // Peak-bandwidth outlier check.
    let mut peaks: Vec<(&str, f64)> = profile
        .active_kernels()
        .iter()
        .filter(|k| k.name != "main")
        .filter_map(|k| {
            profile
                .stats(k, true)
                .map(|s| (k.name.as_str(), s.max_total_bpi))
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
            let span = |stack| profile.stats(k, stack).map_or(0, |s| s.activity_span);
            let (incl, excl) = (span(true), span(false));
            println!(
                "{name}: activity span {incl} (stack incl) → {excl} (excl), factor {:.1} \
                 (paper: 2 and 8)",
                incl as f64 / excl.max(1) as f64
            );
        }
    }
    save("table4_phases.csv", &table.to_csv());
}

fn fig6(profile: &TquadProfile) {
    section("Figure 6: bandwidth over time, reads incl. stack, 64 coarse slices");
    let interval = profile.interval;
    println!("slice interval = {interval} instructions → 64 slices (paper: 1e8 → 64)\n");
    let chart = figure_chart(profile, &TOP10, Measure::ReadIncl, 64, None);
    println!("{}", chart.render());

    // The headline timing fact of the figure.
    let n = profile.n_slices();
    let ws = profile.kernel("wav_store").expect("wav_store profiled");
    let (first, last) = ws.series.span(true).expect("wav_store active");
    println!(
        "wav_store active slices {first}..{last} of {n} → starts at {:.0} % of execution \
         (paper: \"called approximately in the middle… the only kernel active in the second half\")",
        100.0 * first as f64 / n as f64
    );

    let lanes = bandwidth_lanes(profile, &TOP10, Measure::ReadIncl, n);
    save("fig6_read_incl_series.tsv", &series_tsv(&lanes, n));

    // The figure as an actual graphic.
    let mut svg = tq_report::SvgChart::new(
        format!("Fig. 6 — memory bandwidth (reads incl. stack), slice = {interval} instructions"),
        1000,
        30,
    );
    for (k, values) in lanes {
        if let Some(values) = values {
            svg.lane(k, values);
        }
    }
    let mut html = tq_report::HtmlReport::new("tQUAD — Figure 6");
    html.paragraph(
        "Memory bandwidth usage of the top-10 kernels over time slices, read accesses          including the stack area (cf. the paper's Figure 6).",
    );
    html.chart(&svg);
    save("fig6.html", &html.render());
}

fn fig7(profile: &TquadProfile) {
    section("Figure 7: bandwidth over time, writes excl. stack, 255 fine slices, first half");
    println!(
        "slice interval = {} instructions → 255 slices (paper: 25e6 → 255)\n",
        profile.interval
    );
    // Cut the tail where only wav_store remains active, as the paper does
    // ("the second half of the total 255 time slices is cut off, as no
    // kernel but wav_store is active during this period").
    let half = profile
        .kernel("wav_store")
        .and_then(|k| k.series.span(true))
        .map(|(first, _)| first + 1)
        .unwrap_or(profile.n_slices() / 2);
    let chart = figure_chart(profile, &LAST10, Measure::WriteExcl, 128, Some(half));
    println!("{}", chart.render());

    // Verify the cut is justified: past it, only wav_store (plus the entry
    // routine's bookkeeping) writes.
    let mut active_late: Vec<&str> = profile
        .kernels
        .iter()
        .filter(|k| {
            k.series
                .entries()
                .iter()
                .any(|e| e.slice > half && e.w_incl > 0)
        })
        .map(|k| k.name.as_str())
        .collect();
    active_late.sort_unstable();
    println!("kernels writing after slice {half}: {active_late:?} (paper: wav_store only)");

    let lanes = bandwidth_lanes(profile, &LAST10, Measure::WriteExcl, half);
    save("fig7_write_excl_series.tsv", &series_tsv(&lanes, half));
}

/// Per-slice bandwidth (bytes/instruction) of each of `kernels` over
/// slices `0..n`, or `None` for a kernel the run never entered.
fn bandwidth_lanes<'k>(
    profile: &TquadProfile,
    kernels: &[&'k str],
    measure: Measure,
    n: u64,
) -> Vec<(&'k str, Option<Vec<f64>>)> {
    let interval = profile.interval as f64;
    kernels
        .iter()
        .map(|&name| {
            let values = profile.kernel(name).map(|k| {
                k.series
                    .dense(n, |e| measure.of(e))
                    .into_iter()
                    .map(|v| v / interval)
                    .collect()
            });
            (name, values)
        })
        .collect()
}

/// `lanes` as a TSV for external plotting: a `slice` column, then one
/// column per kernel (0 for a kernel the run never entered).
fn series_tsv(lanes: &[(&str, Option<Vec<f64>>)], n: u64) -> String {
    let mut tsv = String::from("slice");
    for (name, _) in lanes {
        tsv.push('\t');
        tsv.push_str(name);
    }
    tsv.push('\n');
    for slice in 0..n as usize {
        tsv.push_str(&slice.to_string());
        for (_, values) in lanes {
            let val = values.as_ref().map_or(0.0, |v| v[slice]);
            tsv.push_str(&format!("\t{val:.6}"));
        }
        tsv.push('\n');
    }
    tsv
}
