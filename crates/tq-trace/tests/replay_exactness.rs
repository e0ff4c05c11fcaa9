//! Replay exactness: tQUAD and QUAD produce *identical* results whether
//! they run live under the VM or offline from a recorded trace of the same
//! execution — the property that makes one-capture/many-analyses sound.

use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{PhaseDetector, TquadOptions, TquadTool};
use tq_trace::{Trace, TraceRecorder};
use tq_wfs::{WfsApp, WfsConfig};

fn record(app: &WfsApp) -> (Trace, tq_tquad::TquadProfile, tq_quad::QuadProfile) {
    // One VM run with the recorder AND the live tools attached, so live
    // and replayed tools see the very same execution.
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    let t = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(777),
    )));
    let q = vm.attach_tool(Box::new(QuadTool::new(QuadOptions::default())));
    vm.run(None).expect("wfs runs");
    let trace = vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace();
    let live_t = vm.detach_tool::<TquadTool>(t).unwrap().into_profile();
    let live_q = vm.detach_tool::<QuadTool>(q).unwrap().into_profile();
    (trace, live_t, live_q)
}

fn tquad_fingerprint(p: &tq_tquad::TquadProfile) -> String {
    let mut s = format!("icount={} slices={}\n", p.total_icount, p.n_slices());
    for k in &p.kernels {
        s.push_str(&format!("{} calls={}", k.name, k.calls));
        for e in k.series.entries() {
            s.push_str(&format!(
                " {}:{},{},{},{}",
                e.slice, e.r_incl, e.r_excl, e.w_incl, e.w_excl
            ));
        }
        s.push('\n');
    }
    s
}

fn quad_fingerprint(p: &tq_quad::QuadProfile) -> String {
    let mut s = String::new();
    for r in &p.rows {
        s.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            r.name,
            r.in_bytes,
            r.in_unma,
            r.out_bytes,
            r.out_unma,
            r.checked_accesses,
            r.traced_accesses
        ));
    }
    let mut edges: Vec<String> = p
        .bindings
        .iter()
        .map(|b| format!("{}->{} {} {}", b.producer.0, b.consumer.0, b.bytes, b.unma))
        .collect();
    edges.sort();
    s.push_str(&edges.join("\n"));
    s
}

#[test]
fn tquad_live_equals_tquad_replayed() {
    let app = WfsApp::build(WfsConfig::tiny());
    let (trace, live, _) = record(&app);

    let mut offline = TquadTool::new(TquadOptions::default().with_interval(777));
    trace.replay(&mut offline).expect("replay succeeds");
    let offline = offline.into_profile();

    assert_eq!(tquad_fingerprint(&live), tquad_fingerprint(&offline));
}

#[test]
fn quad_live_equals_quad_replayed() {
    let app = WfsApp::build(WfsConfig::tiny());
    let (trace, _, live) = record(&app);

    let mut offline = QuadTool::new(QuadOptions::default());
    trace.replay(&mut offline).expect("replay succeeds");
    let offline = offline.into_profile();

    assert_eq!(quad_fingerprint(&live), quad_fingerprint(&offline));
}

#[test]
fn one_capture_many_intervals() {
    // The §V.B sweep pattern: capture once, analyse at several intervals;
    // each replay must match a fresh live run at that interval.
    let app = WfsApp::build(WfsConfig::tiny());
    let (trace, _, _) = record(&app);

    for interval in [100u64, 5_000, 50_000] {
        let mut offline = TquadTool::new(TquadOptions::default().with_interval(interval));
        trace.replay(&mut offline).expect("replay succeeds");
        let offline = offline.into_profile();

        let mut vm = app.make_vm();
        let t = vm.attach_tool(Box::new(TquadTool::new(
            TquadOptions::default().with_interval(interval),
        )));
        vm.run(None).expect("live run");
        let live = vm.detach_tool::<TquadTool>(t).unwrap().into_profile();

        assert_eq!(
            tquad_fingerprint(&live),
            tquad_fingerprint(&offline),
            "interval {interval}"
        );
        // Phase detection therefore agrees too.
        assert_eq!(
            PhaseDetector::default().detect(&live).len(),
            PhaseDetector::default().detect(&offline).len()
        );
    }
}

#[test]
fn trace_is_compact_and_persistable() {
    let app = WfsApp::build(WfsConfig::tiny());
    let (trace, _, _) = record(&app);
    assert!(
        trace.bytes_per_event() < 10.0,
        "column encoding should stay small: {:.1} B/event over {} events",
        trace.bytes_per_event(),
        trace.n_events
    );

    let mut bytes = Vec::new();
    trace.save(&mut bytes).unwrap();
    let back = Trace::load(&mut bytes.as_slice()).unwrap();
    assert_eq!(back, trace);

    // The loaded trace replays identically.
    let mut a = TquadTool::new(TquadOptions::default());
    trace.replay(&mut a).unwrap();
    let mut b = TquadTool::new(TquadOptions::default());
    back.replay(&mut b).unwrap();
    assert_eq!(
        tquad_fingerprint(&a.into_profile()),
        tquad_fingerprint(&b.into_profile())
    );
}
