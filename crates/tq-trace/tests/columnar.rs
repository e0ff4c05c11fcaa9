//! Capture-format property net: captures save and load back equal (same blob
//! store, same digest), the streaming reader reproduces in-memory replay
//! bit-for-bit, corrupt, truncated or hand-built captures come back as
//! `Err`s — never panics — through every replay surface and tool, and the
//! decoder rejects clocks that stand at 0, wrap, or run backwards across
//! chunks. Mirrors `sharded_replay.rs`: seeded random traces as the
//! property net, wfs capture as the acceptance path.

mod common;

use common::{random_run, synthetic_info};
use tq_gprof::{GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{StreamingTrace, Trace, TraceError, TraceRecorder};
use tq_vm::{Event, InstrInfo, Tool};

/// Chunk length for the synthetic traces: a 1 200-event trace gets 8
/// chunks, so every sharded path really shards.
const CHUNK: u64 = 160;

fn random_trace(seed: u64, n_events: usize) -> Trace {
    random_run(seed, n_events).record(CHUNK)
}

fn save_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    bytes
}

#[test]
fn v3_save_load_roundtrips_bit_exactly() {
    for seed in 0..4u64 {
        let trace = random_trace(0x3C01 ^ seed, 1_200);
        assert!(trace.chunks.len() >= 8, "seed {seed}: too few chunks");
        let bytes = save_bytes(&trace);
        assert_eq!(&bytes[..8], tq_trace::MAGIC, "seed {seed}");
        let reloaded = Trace::load(&mut bytes.as_slice()).expect("reload");
        assert_eq!(trace, reloaded, "seed {seed}: v3 roundtrip not exact");
        assert_eq!(trace.digest(), reloaded.digest(), "seed {seed}");
    }
}

/// Push bytes through every v3 decode surface. Any outcome but a panic is
/// acceptable: corrupt images may fail to parse, fail mid-replay, or — if
/// the flip landed in dead space — succeed benignly.
fn exercise_v3(bytes: &[u8]) {
    if let Ok(t) = Trace::load(&mut { bytes }) {
        let _ = exercise_trace(&t);
    }
    if let Ok(s) = StreamingTrace::from_bytes(bytes.to_vec()) {
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
        let _ = s.replay(&mut tool);
        let mut tool = QuadTool::new(QuadOptions::default());
        let _ = s.replay_sharded(&mut tool, 4);
        let mut tool = GprofTool::new(gprof_opts());
        let _ = s.replay(&mut tool);
        let mut tool = GprofTool::new(gprof_opts());
        let _ = s.replay_sharded(&mut tool, 2);
    }
}

fn gprof_opts() -> GprofOptions {
    GprofOptions {
        sample_interval: 500,
        ..Default::default()
    }
}

/// Replay an in-memory trace through every tool, sequentially and on 4
/// shards, and digest it. Returns how many of the replays failed.
fn exercise_trace(t: &Trace) -> usize {
    let results = [
        t.replay(&mut TquadTool::new(
            TquadOptions::default().with_interval(777),
        )),
        t.replay_sharded(
            &mut TquadTool::new(TquadOptions::default().with_interval(777)),
            4,
        ),
        t.replay(&mut QuadTool::new(QuadOptions::default())),
        t.replay_sharded(&mut QuadTool::new(QuadOptions::default()), 4),
        t.replay(&mut GprofTool::new(gprof_opts())),
        t.replay_sharded(&mut GprofTool::new(gprof_opts()), 4),
    ];
    let _ = t.digest();
    results.iter().filter(|r| r.is_err()).count()
}

#[test]
fn truncated_v3_errors_instead_of_panicking() {
    let trace = random_trace(0x5EED3, 800);
    let bytes = save_bytes(&trace);
    let mut rng = Rng::new(0x7E573);
    for _ in 0..200 {
        let cut = rng.index(bytes.len());
        exercise_v3(&bytes[..cut]);
    }
    // Deterministic sweep over the fragile region right after the header.
    for cut in 0..64.min(bytes.len()) {
        exercise_v3(&bytes[..cut]);
    }
}

#[test]
fn corrupted_v3_errors_instead_of_panicking() {
    let trace = random_trace(0xD1CE3, 800);
    let pristine = save_bytes(&trace);
    let mut rng = Rng::new(0xF00D3);
    for _ in 0..200 {
        let mut bytes = pristine.clone();
        for _ in 0..=rng.index(4) {
            let at = rng.index(bytes.len());
            bytes[at] ^= rng.next_u64() as u8 | 1;
        }
        exercise_v3(&bytes);
    }
}

/// Streaming replay (sequential and sharded) must match in-memory
/// sequential replay bit-exactly for every tool.
fn assert_streaming_matches(trace: &Trace, bytes: Vec<u8>, what: &str) {
    let stream = StreamingTrace::from_bytes(bytes).expect("open streaming");
    assert_eq!(stream.info(), &trace.info, "{what}: info drifted");
    assert_eq!(stream.n_events(), trace.n_events, "{what}");

    let opts = TquadOptions::default().with_interval(777);
    let mut seq = TquadTool::new(opts);
    trace.replay(&mut seq).expect("in-memory replay");
    let seq = seq.into_profile();
    let mut st = TquadTool::new(opts);
    stream.replay(&mut st).expect("streaming replay");
    assert_eq!(seq, st.into_profile(), "{what}: tquad streaming diverged");
    for jobs in [2, 4, 7] {
        let mut st = TquadTool::new(opts);
        stream
            .replay_sharded(&mut st, jobs)
            .expect("streaming sharded");
        assert_eq!(
            seq,
            st.into_profile(),
            "{what}: tquad streaming-sharded diverged at {jobs} jobs"
        );
    }

    let qopts = QuadOptions::default();
    let mut seq = QuadTool::new(qopts);
    trace.replay(&mut seq).expect("in-memory replay");
    let seq = seq.into_profile();
    let mut st = QuadTool::new(qopts);
    stream.replay(&mut st).expect("streaming replay");
    assert_eq!(seq, st.into_profile(), "{what}: quad streaming diverged");
    let mut st = QuadTool::new(qopts);
    stream
        .replay_sharded(&mut st, 4)
        .expect("streaming sharded");
    assert_eq!(
        seq,
        st.into_profile(),
        "{what}: quad streaming-sharded diverged"
    );

    let gopts = GprofOptions {
        sample_interval: 500,
        ..Default::default()
    };
    let mut seq = GprofTool::new(gopts);
    trace.replay(&mut seq).expect("in-memory replay");
    let seq = seq.into_profile();
    let mut st = GprofTool::new(gopts);
    stream.replay(&mut st).expect("streaming replay");
    assert_eq!(seq, st.into_profile(), "{what}: gprof streaming diverged");
    let mut st = GprofTool::new(gopts);
    stream
        .replay_sharded(&mut st, 4)
        .expect("streaming sharded");
    assert_eq!(
        seq,
        st.into_profile(),
        "{what}: gprof streaming-sharded diverged"
    );
}

#[test]
fn streaming_replay_matches_in_memory_for_all_formats() {
    let trace = random_trace(0x57AE, 1_500);
    assert_streaming_matches(&trace, save_bytes(&trace), "v3");
}

#[test]
fn wfs_capture_streams_exactly() {
    // Acceptance path: a real application capture through the whole
    // pipeline — record into columns, save, stream back.
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("wfs runs");
    let trace = vm.detach_tool::<TraceRecorder>(h).unwrap().into_trace();
    assert!(trace.chunks.len() > 4, "wfs tiny must span several chunks");
    let bytes = save_bytes(&trace);
    assert_eq!(&bytes[..8], tq_trace::MAGIC);
    assert_eq!(
        Trace::load(&mut bytes.as_slice()).expect("reload").digest(),
        trace.digest()
    );
    assert_streaming_matches(&trace, bytes, "wfs tiny v3");
}

#[test]
fn streaming_decodes_one_chunk_at_a_time() {
    // The bounded-memory contract: the reader keeps only the blob store
    // resident — no blob is decoded at open — and each replay thread
    // decodes one chunk's blob at a time, every one of which is a small
    // fraction of the store.
    let trace = random_trace(0xB0B0, 2_000);
    let stream = StreamingTrace::from_bytes(save_bytes(&trace)).expect("open streaming");
    assert_eq!(stream.n_chunks(), trace.chunks.len());
    assert!(stream.n_chunks() >= 8);
    assert_eq!(stream.resident_bytes(), trace.events.len());
    let largest = trace.chunks.iter().map(|c| c.end - c.start).max().unwrap();
    assert!(
        largest * 4 < trace.events.len() as u64,
        "one chunk holds a quarter of the store"
    );
}

#[test]
fn legacy_magics_are_bad_headers() {
    // The row-stream TQTRACE1/TQTRACE2 layouts, the length-prefixed
    // TQTRACE3 blob layout and the TQTRACE4 columns that also stored
    // instruction pointers, call targets and return addresses are retired:
    // a file that carries one of their magics is not a capture, whatever
    // follows it.
    let v3 = save_bytes(&random_trace(0x01D, 200));
    for magic in [b"TQTRACE1", b"TQTRACE2", b"TQTRACE3", b"TQTRACE4"] {
        let mut legacy = v3.clone();
        legacy[..8].copy_from_slice(magic);
        assert_eq!(
            Trace::load(&mut legacy.as_slice()),
            Err(TraceError::BadHeader)
        );
        assert!(matches!(
            StreamingTrace::from_bytes(legacy),
            Err(TraceError::BadHeader)
        ));
    }
}

#[test]
fn reduced_mode_tails_round_trip_and_the_gap_list_layout_is_malformed() {
    let mut trace = random_trace(0x7A11, 300);
    let info = InstrInfo {
        spec: "filter:!a+sample:4/100@0".into(),
        slice_len: 100,
        sample_period: 4,
        sample_offset: 1,
        filtered: vec![2],
        total_icount: 10_000,
    };
    trace.instr = Some(info.clone());
    let bytes = save_bytes(&trace);
    let reloaded = Trace::load(&mut bytes.as_slice()).expect("reload");
    assert_eq!(reloaded.instr.as_ref(), Some(&info));
    // Before convergence gating was removed the tail body ended in a gap
    // list (a u32 count, then 20 bytes per gap). Such a capture is
    // malformed now, not a capture with its gaps silently dropped.
    trace.instr = None;
    let full = save_bytes(&trace);
    for n_gaps in [0u32, 2] {
        let mut body = info.encode();
        body.extend_from_slice(&n_gaps.to_le_bytes());
        body.resize(body.len() + 20 * n_gaps as usize, 7);
        let mut old = full.clone();
        old.extend_from_slice(b"TQIM");
        tq_trace::varint::write_u64(&mut old, body.len() as u64);
        old.extend_from_slice(&body);
        assert!(
            matches!(
                Trace::load(&mut old.as_slice()),
                Err(TraceError::Malformed(_))
            ),
            "{n_gaps} gap(s)"
        );
        assert!(
            matches!(
                StreamingTrace::from_bytes(old),
                Err(TraceError::Malformed(_))
            ),
            "{n_gaps} gap(s)"
        );
    }
}

#[test]
fn misdescribed_indexes_fail_to_save_and_leave_no_file() {
    // The fields are public, so a hand-built trace can carry an index that
    // does not describe its blob store: save must refuse rather than write
    // a file that cannot load.
    let good = random_trace(0xC0DE, 400);
    let mut gap = good.clone();
    gap.chunks[1].start += 1;
    let mut short = good.clone();
    short.events.push(0);
    let mut empty = good.clone();
    empty.chunks.clear();
    for (what, trace) in [("gap", gap), ("short", short), ("empty", empty)] {
        let mut sink = Vec::new();
        let err = trace.save(&mut sink).expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(sink.is_empty(), "{what}: nothing written before the check");

        let dir = std::env::temp_dir().join(format!("tq-trace-badidx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.capture");
        assert!(trace.save_to_path(&path).is_err(), "{what}");
        assert!(!path.exists(), "{what}: no target on a failed save");
        assert!(
            !path.with_extension("tmp").exists(),
            "{what}: no temp file on a failed save"
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(trace
            .replay(&mut QuadTool::new(QuadOptions::default()))
            .is_err());
    }
}

#[test]
fn garbage_blobs_under_a_valid_index_error_instead_of_panicking() {
    // A hand-built trace keeps a valid index over a blob store of garbage:
    // every tool, sequential or sharded, must get `Err` back.
    let trace = random_trace(0x6A4B, 800);
    let len = trace.events.len();
    let mut rng = Rng::new(0x6A4B);
    let fills: Vec<Vec<u8>> = vec![
        vec![0; len],
        vec![0xFF; len],
        vec![0x01; len],
        (0..len).map(|_| rng.next_u64() as u8).collect(),
        (0..len).map(|_| rng.next_u64() as u8 & 0x7F).collect(),
    ];
    for (i, events) in fills.into_iter().enumerate() {
        let garbage = Trace {
            events,
            ..trace.clone()
        };
        assert_eq!(exercise_trace(&garbage), 6, "fill {i}: a replay succeeded");
    }
    assert_eq!(exercise_trace(&trace), 0, "the pristine trace replays");
}

/// Record `events` (then `Fini` at `fini`) through the column recorder.
fn record_events(events: &[Event], fini: u64, chunk: u64) -> Trace {
    let mut rec = TraceRecorder::with_chunk_events(chunk);
    common::rows::feed(&mut rec, &synthetic_info(), events, fini);
    rec.into_trace()
}

fn read_at(icount: u64) -> Event {
    Event::MemRead {
        ea: 0x1000_0000,
        size: 8,
        sp: 0x3FFF_FE00,
        is_prefetch: false,
        icount,
        rtn: RoutineId(1),
    }
}

/// tQUAD slices by `icount - 1` and requires slices in order: every
/// surface must reject the bad clock before the tool sees it.
fn assert_clock_rejected(trace: &Trace, want: &str) {
    let tquad = || TquadTool::new(TquadOptions::default().with_interval(10));
    let err = Err(TraceError::Malformed(match want {
        "zero" => "record at icount 0",
        "wrap" => "clock overflows",
        _ => "chunk clock runs backwards",
    }));
    assert_eq!(trace.replay(&mut tquad()), err, "{want}: sequential");
    for jobs in [2, 4] {
        assert_eq!(
            trace.replay_sharded(&mut tquad(), jobs),
            err,
            "{want}: {jobs} shards"
        );
    }
    let stream = StreamingTrace::from_bytes(save_bytes(trace)).expect("saves and opens");
    assert_eq!(stream.replay(&mut tquad()), err, "{want}: streaming");
    assert_eq!(
        stream.replay_sharded(&mut tquad(), 4),
        err,
        "{want}: streaming sharded"
    );
}

#[test]
fn an_event_at_icount_zero_is_malformed() {
    let events: Vec<Event> = [0, 1, 2, 3].into_iter().map(read_at).collect();
    assert_clock_rejected(&record_events(&events, 9, 1), "zero");
    // A Fini at 0 is the same clock error.
    let fini_only = record_events(&[], 0, 1);
    assert_eq!(
        fini_only.replay(&mut TquadTool::new(TquadOptions::default())),
        Err(TraceError::Malformed("record at icount 0"))
    );
}

#[test]
fn a_clock_that_wraps_is_malformed() {
    // 5 then 3: the recorder stores Δ = 3 − 5 mod 2^64, and the decoder's
    // checked add overflows instead of wrapping back to 3.
    let events: Vec<Event> = [1, 2, 5, 3, 6].into_iter().map(read_at).collect();
    assert_clock_rejected(&record_events(&events, 9, 3), "wrap");
    // The largest possible Δ from clock 1 wraps too.
    let events = [read_at(1), read_at(u64::MAX), read_at(0)];
    assert_clock_rejected(&record_events(&events, u64::MAX, 3), "wrap");
}

#[test]
fn a_chunk_clock_below_the_previous_chunk_is_malformed() {
    // Four one-event chunks at clocks 10, 20, 30, 40 (+ Fini). Lowering a
    // snapshot clock below the previous chunk's last record is caught by
    // the sequential driver loop and, on shards, before the run's worker
    // is absorbed.
    let events: Vec<Event> = [10, 20, 30, 40].into_iter().map(read_at).collect();
    let good = record_events(&events, 50, 1);
    assert_eq!(good.chunks.len(), 5);
    assert_eq!(exercise_trace(&good), 0);
    for k in [1, 2, 3] {
        let mut bad = good.clone();
        bad.chunks[k].ctx.icount -= 1;
        assert_clock_rejected(&bad, "backwards");
    }
    // Equal to the previous last record is the normal case.
    assert_eq!(good.chunks[2].ctx.icount, 20);
}

#[test]
fn records_after_fini_are_malformed() {
    let events = [read_at(1), read_at(2)];
    let mut rec = TraceRecorder::with_chunk_events(2);
    common::rows::feed(&mut rec, &synthetic_info(), &events, 3);
    rec.on_event(&read_at(4)); // past the end of the run
    let trace = rec.into_trace();
    let err = Err(TraceError::Malformed("records after Fini"));
    assert_eq!(
        trace.replay(&mut QuadTool::new(QuadOptions::default())),
        err
    );
    assert_eq!(
        trace.replay_sharded(&mut QuadTool::new(QuadOptions::default()), 2),
        err
    );
    let mut rec = TraceRecorder::with_chunk_events(8);
    common::rows::feed(&mut rec, &synthetic_info(), &events, 3);
    rec.on_event(&read_at(4)); // same chunk as the Fini
    let trace = rec.into_trace();
    assert_eq!(
        trace.replay(&mut QuadTool::new(QuadOptions::default())),
        err
    );
}
