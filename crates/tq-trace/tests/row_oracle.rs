//! The column path against a reference model: the delta+varint row codec
//! (`common/rows.rs`) that captures used before events were recorded
//! straight into columns. Three properties:
//!
//! * record → column replay delivers exactly the event sequence the row
//!   oracle writes and reads back — sequential, sharded at 2 and 4, and
//!   streamed — on random traces, a strided kernel, and wfs and img
//!   captures;
//! * a saved capture is at most 0.7× the oracle's row stream on the real
//!   workloads (wfs tiny and small, img tiny) and on the strided kernel;
//! * `Trace::digest` depends on the events alone: two chunkings of one
//!   sequence digest equal, and a one-field change digests differently.

mod common;

use common::rows::{decode_rows, Record, RowRecorder};
use common::{random_run, strided_run, Run};
use tq_trace::{StreamingTrace, Trace, TraceRecorder};
use tq_vm::{
    standard_mask, Event, HookMask, InsContext, MergeTool, ProgramInfo, ShardContext, Tool,
};

/// Collects every delivered record; workers' records are appended on
/// absorb, so a sharded replay yields the sequence in chunk order.
#[derive(Default)]
struct Seq {
    recs: Vec<Record>,
}

impl Tool for Seq {
    fn name(&self) -> &str {
        "seq"
    }
    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }
    fn on_event(&mut self, ev: &Event) {
        self.recs.push(Record::Event(*ev));
    }
    fn on_fini(&mut self, icount: u64) {
        self.recs.push(Record::Fini(icount));
    }
}

impl MergeTool for Seq {
    fn fork(&self, _info: &ProgramInfo, _ctx: &ShardContext) -> Box<dyn MergeTool> {
        Box::new(Seq::default())
    }
    fn absorb(&mut self, other: Box<dyn MergeTool>) {
        let other = other.into_any().downcast::<Seq>().expect("a Seq worker");
        self.recs.extend(other.recs);
    }
}

fn save_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    bytes
}

/// Every replay surface delivers the oracle's decoded rows, record for
/// record.
fn assert_matches_oracle(trace: &Trace, oracle: &RowRecorder, what: &str) {
    let want = decode_rows(&oracle.rows).expect("oracle rows decode");
    assert_eq!(trace.n_events, oracle.n_records, "{what}: record count");
    assert_eq!(want.len() as u64, oracle.n_records, "{what}: oracle count");

    let mut seq = Seq::default();
    trace.replay(&mut seq).expect("sequential replay");
    assert!(seq.recs == want, "{what}: sequential replay != oracle");
    let stream = StreamingTrace::from_bytes(save_bytes(trace)).expect("streams");
    let mut st = Seq::default();
    stream.replay(&mut st).expect("streaming replay");
    assert!(st.recs == want, "{what}: streaming replay != oracle");
    for jobs in [2, 4] {
        let mut sh = Seq::default();
        trace.replay_sharded(&mut sh, jobs).expect("sharded replay");
        assert!(sh.recs == want, "{what}: {jobs}-shard replay != oracle");
        let mut sh = Seq::default();
        stream
            .replay_sharded(&mut sh, jobs)
            .expect("streaming sharded");
        assert!(sh.recs == want, "{what}: streaming {jobs}-shard != oracle");
    }
}

/// A VM run recorded twice over: into columns and into oracle rows.
fn record_app(mut vm: tq_vm::Vm) -> (Trace, RowRecorder) {
    let cols = vm.attach_tool(Box::new(TraceRecorder::new()));
    let rows = vm.attach_tool(Box::new(RowRecorder::default()));
    vm.run(None).expect("app runs");
    let trace = vm.detach_tool::<TraceRecorder>(cols).unwrap().into_trace();
    let rows = *vm.detach_tool::<RowRecorder>(rows).unwrap();
    (trace, rows)
}

fn wfs(config: tq_wfs::WfsConfig) -> (Trace, RowRecorder) {
    record_app(tq_wfs::WfsApp::build(config).make_vm())
}

fn img_tiny() -> (Trace, RowRecorder) {
    record_app(tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny()).make_vm())
}

#[test]
fn random_traces_replay_the_oracle_sequence() {
    for seed in 0..6u64 {
        let run = random_run(0x0AC1E ^ seed, 1_500);
        for chunk in [97, 1_000] {
            let trace = run.record(chunk);
            assert_matches_oracle(&trace, &run.rows(), &format!("seed {seed}/{chunk}"));
        }
    }
}

#[test]
fn strided_trace_replays_the_oracle_sequence() {
    let run = strided_run(3_000);
    assert_matches_oracle(&run.record(1_024), &run.rows(), "strided");
}

#[test]
fn wfs_tiny_capture_replays_the_oracle_sequence() {
    let (trace, rows) = wfs(tq_wfs::WfsConfig::tiny());
    assert!(trace.chunks.len() >= 4, "wfs tiny must span several chunks");
    assert_matches_oracle(&trace, &rows, "wfs tiny");
}

#[test]
fn img_tiny_capture_replays_the_oracle_sequence() {
    let (trace, rows) = img_tiny();
    assert!(trace.chunks.len() >= 4, "img tiny must span several chunks");
    assert_matches_oracle(&trace, &rows, "img tiny");
}

/// The saved capture against the oracle's row stream.
fn ratio(trace: &Trace, rows: &RowRecorder) -> f64 {
    save_bytes(trace).len() as f64 / rows.rows.len() as f64
}

#[test]
fn captures_are_at_most_0_7x_the_row_stream() {
    let cases = [
        ("wfs tiny", wfs(tq_wfs::WfsConfig::tiny())),
        ("wfs small", wfs(tq_wfs::WfsConfig::small())),
        ("img tiny", img_tiny()),
        ("strided", {
            let run = strided_run(3_000);
            (run.record(1_024), run.rows())
        }),
    ];
    for (what, (trace, rows)) in &cases {
        let r = ratio(trace, rows);
        assert!(r <= 0.7, "{what}: capture is {r:.4}x the row stream");
    }
}

#[test]
fn random_traces_stay_within_framing_of_the_row_stream() {
    // Random traces are the codec's worst case: nothing to fold. Over
    // eight chunks the capture may exceed the row stream by at most 64 B
    // per chunk, header and index included.
    let run = random_run(0x5123, 2_000);
    let records = run.events.len() as u64 + 1;
    let trace = run.record(records.div_ceil(8));
    assert_eq!(trace.chunks.len(), 8);
    let rows = run.rows();
    let bytes = save_bytes(&trace).len();
    assert!(
        bytes <= rows.rows.len() + 64 * 8,
        "{bytes} capture bytes vs {} row bytes on incompressible input",
        rows.rows.len()
    );
}

#[test]
fn digests_ignore_chunking_and_see_every_field() {
    let run = random_run(0xD16E, 1_200);
    let base = run.record(tq_trace::CHUNK_EVENTS).digest();
    for chunk in [1, 7, 160, 1_000] {
        let trace = run.record(chunk);
        assert_eq!(
            trace.digest(),
            base,
            "{chunk}-record chunks changed the digest"
        );
    }
    // One field of one mid-trace read, or the final clock, changes the
    // digest.
    let i = 600
        + run.events[600..]
            .iter()
            .position(|e| matches!(e, Event::MemRead { .. }))
            .unwrap();
    let mut edits: Vec<Run> = Vec::new();
    for field in 0..4 {
        let mut events = run.events.clone();
        if let Event::MemRead {
            ea,
            size,
            sp,
            is_prefetch,
            ..
        } = &mut events[i]
        {
            match field {
                0 => *ea += 1,
                1 => *size ^= 1,
                2 => *sp -= 8,
                _ => *is_prefetch = !*is_prefetch,
            }
        }
        edits.push(Run {
            events,
            fini: run.fini,
        });
    }
    edits.push(Run {
        events: run.events.clone(),
        fini: run.fini + 1,
    });
    for (k, edit) in edits.iter().enumerate() {
        for chunk in [160, tq_trace::CHUNK_EVENTS] {
            assert_ne!(edit.record(chunk).digest(), base, "edit {k} at {chunk}");
        }
    }
}
