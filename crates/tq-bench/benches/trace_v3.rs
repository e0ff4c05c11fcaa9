//! Bench: the TQTRACE4 capture format — encoded size against the row
//! stream of the reference model (`tq-trace/tests/common/rows.rs`, the
//! delta+varint codec captures used before events were recorded into
//! columns), the largest chunk a streaming replay decodes at once, and
//! fidelity: the capture must load back with the same digest, streaming
//! profiles must match in-memory ones, and the capture must hit its
//! ≤ 0.7× size contract against the row stream on the wfs capture.

use tq_bench::save;
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{StreamingTrace, Trace, TraceRecorder};
use tq_wfs::{WfsApp, WfsConfig};

#[allow(dead_code)] // the bench needs only the row writer
#[path = "../../tq-trace/tests/common/rows.rs"]
mod rows;

/// One wfs run recorded into columns and, alongside, into oracle rows.
fn capture(config: WfsConfig) -> (Trace, rows::RowRecorder) {
    let app = WfsApp::build(config);
    let mut vm = app.make_vm();
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    let o = vm.attach_tool(Box::new(rows::RowRecorder::default()));
    vm.run(None).expect("capture run");
    let trace = vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace();
    (trace, *vm.detach_tool::<rows::RowRecorder>(o).unwrap())
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
    let (trace, oracle) = capture(WfsConfig::small());
    let row_bytes = oracle.rows.len();
    let n_events = trace.n_events as usize;
    let want = profile_of(&trace);

    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    let loaded = Trace::load(&mut bytes.as_slice()).expect("loads back");
    assert_eq!(loaded.digest(), trace.digest(), "v3 loads bit-identical");
    let v3_len = bytes.len();
    let ratio = v3_len as f64 / row_bytes as f64;
    println!("wfs small capture: {n_events} events, {row_bytes} row-stream bytes (reference)");
    println!(
        "  v3: {v3_len} bytes ({ratio:.3}x the row stream, {:.2} B/event, {} chunks)",
        v3_len as f64 / n_events as f64,
        trace.chunks.len()
    );
    let mut report = String::from("format\tbytes\tratio_vs_rows\tbytes_per_event\n");
    for (name, len) in [("rows", row_bytes), ("v3", v3_len)] {
        report.push_str(&format!(
            "{name}\t{len}\t{:.4}\t{:.4}\n",
            len as f64 / row_bytes as f64,
            len as f64 / n_events as f64
        ));
    }
    assert!(
        v3_len as f64 <= 0.7 * row_bytes as f64,
        "v3 size contract broken: {v3_len} > 0.7 * {row_bytes} row-stream bytes"
    );

    // Streaming footprint: the reader keeps the blob store resident and
    // each replay thread decodes one chunk's blob at a time.
    let largest_chunk = trace
        .chunks
        .iter()
        .map(|c| (c.end - c.start) as usize)
        .max()
        .unwrap_or(0);
    let st = StreamingTrace::from_bytes(bytes).expect("streaming open");
    println!(
        "streaming: {} chunks, largest chunk blob {} bytes ({:.2}% of the capture); \
         resident blob store {} bytes",
        st.n_chunks(),
        largest_chunk,
        100.0 * largest_chunk as f64 / v3_len as f64,
        st.resident_bytes()
    );
    assert!(
        largest_chunk < v3_len / 8,
        "one chunk must be a small fraction of the capture"
    );
    for jobs in [1usize, 4] {
        assert_eq!(
            streaming_profile(&st, jobs),
            want,
            "streaming replay (jobs={jobs}) must be byte-identical"
        );
    }
    report.push_str(&format!(
        "largest_chunk_blob\t{largest_chunk}\t{:.4}\t-\n",
        largest_chunk as f64 / row_bytes as f64
    ));

    save("trace_v3.tsv", &report);
    println!("trace_v3: all fidelity and size gates passed");
}
