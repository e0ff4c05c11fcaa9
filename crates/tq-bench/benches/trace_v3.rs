//! Bench: the TQTRACE3 columnar format — encoded size against the decoded
//! row stream, the decoded-memory footprint of streaming versus
//! whole-stream replay, and the replay-time cost of decoding columns on
//! the fly. Doubles as a fidelity guard: the capture must load back
//! bit-identical, streaming profiles must match in-memory ones, and v3
//! must hit its ≤ 0.7× size contract against the row stream on the wfs
//! capture (the same gate `scripts/verify.sh` holds on the CLI path).

use tq_bench::save;
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{StreamingTrace, Trace, TraceRecorder};
use tq_wfs::{WfsApp, WfsConfig};

fn capture(config: WfsConfig) -> Trace {
    let app = WfsApp::build(config);
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("capture run");
    vm.detach_tool::<TraceRecorder>(r)
        .unwrap()
        .into_trace()
        .with_chunk_index(tq_trace::DEFAULT_CHUNKS)
        .expect("chunk index")
}

fn profile_of(trace: &Trace) -> tq_tquad::TquadProfile {
    let mut tool = TquadTool::new(TquadOptions::default().with_interval(5_000));
    trace.replay(&mut tool).expect("replay");
    tool.into_profile()
}

fn streaming_profile(st: &StreamingTrace, jobs: usize) -> tq_tquad::TquadProfile {
    let mut tool = TquadTool::new(TquadOptions::default().with_interval(5_000));
    st.replay_sharded(&mut tool, jobs)
        .expect("streaming replay");
    tool.into_profile()
}

fn main() {
    let trace = capture(WfsConfig::small());
    let stream_bytes = trace.events.len();
    let n_events = trace.n_events as usize;
    let want = profile_of(&trace);

    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    let loaded = Trace::load(&mut bytes.as_slice()).expect("loads back");
    assert_eq!(loaded.digest(), trace.digest(), "v3 loads bit-identical");
    let v3_len = bytes.len();
    let ratio = v3_len as f64 / stream_bytes as f64;
    println!("wfs small capture: {n_events} events, {stream_bytes} decoded event-stream bytes");
    println!(
        "  v3: {v3_len} bytes ({ratio:.3}x the row stream, {:.2} B/event)",
        v3_len as f64 / n_events as f64
    );
    let mut report = String::from("format\tbytes\tratio_vs_rows\tbytes_per_event\n");
    for (name, len) in [("rows", stream_bytes), ("v3", v3_len)] {
        report.push_str(&format!(
            "{name}\t{len}\t{:.4}\t{:.4}\n",
            len as f64 / stream_bytes as f64,
            len as f64 / n_events as f64
        ));
    }
    assert!(
        v3_len as f64 <= 0.7 * stream_bytes as f64,
        "v3 size contract broken: {v3_len} > 0.7 * {stream_bytes} row-stream bytes"
    );

    // Streaming decoded-memory footprint: a whole-stream replay holds all
    // `n_events` rows decoded at once; the lazy reader holds one chunk's
    // rows per replay thread. Report the bound and hold the fidelity gate.
    let st = StreamingTrace::from_bytes(bytes).expect("streaming open");
    let largest_chunk_rows = (0..st.n_chunks())
        .map(|k| st.chunk_rows(k).expect("chunk decodes").len())
        .max()
        .unwrap_or(0);
    println!(
        "streaming: {} chunks, largest decoded chunk {} bytes \
         ({:.1}% of the full stream); resident file image {} bytes",
        st.n_chunks(),
        largest_chunk_rows,
        100.0 * largest_chunk_rows as f64 / stream_bytes as f64,
        st.resident_bytes()
    );
    assert!(
        largest_chunk_rows < stream_bytes,
        "streaming must decode strictly less than the whole stream at once"
    );
    for jobs in [1usize, 4] {
        assert_eq!(
            streaming_profile(&st, jobs),
            want,
            "streaming replay (jobs={jobs}) must be byte-identical"
        );
    }
    report.push_str(&format!(
        "streaming_peak_chunk\t{largest_chunk_rows}\t{:.4}\t-\n",
        largest_chunk_rows as f64 / stream_bytes as f64
    ));

    save("trace_v3.tsv", &report);
    println!("trace_v3: all fidelity and size gates passed");
}
