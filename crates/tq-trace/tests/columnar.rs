//! TQTRACE3 property net: the columnar codec must be a *byte-exact*
//! inverse of the row encoding (same rows, same digest), the
//! streaming reader must reproduce in-memory replay bit-for-bit with only
//! one chunk decoded at a time, and corrupt or truncated v3 images must
//! come back as `Err`s, never panics. Mirrors `sharded_replay.rs`: seeded
//! random traces as the property net, wfs capture as the acceptance path.

use tq_gprof::{GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::{StreamingTrace, Trace, TraceError, TraceRecorder, DEFAULT_CHUNKS};
use tq_vm::{Event, ProgramInfo, RoutineMeta, Tool};

/// Same program shape as `sharded_replay.rs`: two main-image routines and
/// two library routines, so both stack-tracking variants get exercised.
fn synthetic_info() -> ProgramInfo {
    let mk = |id: u32, name: &str, main: bool, base: u64| RoutineMeta {
        id: RoutineId(id),
        name: name.into(),
        image: if main { "app" } else { "libc" }.into(),
        main_image: main,
        start: base,
        end: base + 0x100,
    };
    ProgramInfo {
        routines: vec![
            mk(0, "main", true, 0x10000),
            mk(1, "kernel_a", true, 0x11000),
            mk(2, "memcpy", false, 0x20000),
            mk(3, "malloc", false, 0x21000),
        ],
        stack_base: 0x3FFF_FF00,
        entry: 0x10000,
    }
}

/// Seeded-random but structurally plausible event stream: balanced
/// calls/returns around a shadow stack, heap- and stack-addressed
/// reads/writes, forward-only virtual clock.
fn random_trace(seed: u64, n_events: usize) -> Trace {
    let info = synthetic_info();
    let mut rng = Rng::new(seed);
    let mut rec = TraceRecorder::new();
    rec.on_attach(&info);

    let mut icount = 0u64;
    let mut stack: Vec<(RoutineId, u64)> = vec![(RoutineId(0), info.stack_base)];
    for _ in 0..n_events {
        icount += rng.u64_in(1, 9);
        let (rtn, sp) = *stack.last().unwrap();
        let ip = info.routines[rtn.idx()].start + 8 * rng.u64_in(0, 30);
        match rng.index(10) {
            0 | 1 if stack.len() < 12 => {
                let callee = RoutineId(rng.index(4) as u32);
                rec.on_event(&Event::Call {
                    ip,
                    callee,
                    icount,
                    rtn,
                });
                icount += 1;
                let new_sp = sp - rng.u64_in(16, 64);
                stack.push((callee, new_sp));
                rec.on_event(&Event::RoutineEnter {
                    rtn: callee,
                    sp: new_sp,
                    icount,
                });
            }
            2 if stack.len() > 1 => {
                stack.pop();
                let (back_rtn, _) = *stack.last().unwrap();
                rec.on_event(&Event::Ret {
                    ip,
                    return_to: info.routines[back_rtn.idx()].start + 16,
                    icount,
                    rtn,
                });
            }
            3 | 4 | 5 => {
                let ea = if rng.index(4) == 0 {
                    sp - rng.u64_in(0, 128)
                } else {
                    0x1000_0000 + rng.u64_in(0, 4096)
                };
                rec.on_event(&Event::MemRead {
                    ip,
                    ea,
                    size: 1 << rng.index(4),
                    sp,
                    is_prefetch: rng.index(8) == 0,
                    icount,
                    rtn,
                });
            }
            _ => {
                let ea = if rng.index(4) == 0 {
                    sp - rng.u64_in(0, 128)
                } else {
                    0x1000_0000 + rng.u64_in(0, 4096)
                };
                rec.on_event(&Event::MemWrite {
                    ip,
                    ea,
                    size: 1 << rng.index(4),
                    sp,
                    icount,
                    rtn,
                });
            }
        }
    }
    rec.on_fini(icount + 1);
    rec.into_trace()
}

/// A kernel-shaped trace: stride-64 array scans from a tight loop — the
/// access pattern the paper's workloads actually produce, and the one the
/// columnar deltas + byte-run compressor are built to win on.
fn strided_trace(n_iters: usize) -> Trace {
    let info = synthetic_info();
    let mut rec = TraceRecorder::new();
    rec.on_attach(&info);
    let rtn = RoutineId(1);
    let (src, dst) = (0x1000_0000u64, 0x2000_0000u64);
    let sp = info.stack_base - 64;
    let mut icount = 1u64;
    rec.on_event(&Event::RoutineEnter { rtn, sp, icount });
    for i in 0..n_iters as u64 {
        icount += 4;
        rec.on_event(&Event::MemRead {
            ip: 0x11008,
            ea: src + 64 * i,
            size: 8,
            sp,
            is_prefetch: false,
            icount,
            rtn,
        });
        icount += 2;
        rec.on_event(&Event::MemWrite {
            ip: 0x11010,
            ea: dst + 64 * i,
            size: 8,
            sp,
            icount,
            rtn,
        });
    }
    rec.on_fini(icount + 1);
    rec.into_trace()
}

fn save_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    bytes
}

#[test]
fn v3_save_load_roundtrips_bit_exactly() {
    for seed in 0..4u64 {
        let trace = random_trace(0x3C01 ^ seed, 1_200)
            .with_chunk_index(8)
            .expect("chunk index");
        let bytes = save_bytes(&trace);
        assert_eq!(&bytes[..8], b"TQTRACE3", "seed {seed}");
        let reloaded = Trace::load(&mut bytes.as_slice()).expect("reload");
        assert_eq!(trace, reloaded, "seed {seed}: v3 roundtrip not byte-exact");
        assert_eq!(trace.digest(), reloaded.digest(), "seed {seed}");
    }
}

#[test]
fn v3_wins_on_strided_captures() {
    // The verify.sh gate asserts ≤ 0.7× the row stream on the wfs smoke
    // capture; the synthetic kernel-shaped trace pins the same bound
    // in-tree.
    let trace = strided_trace(3_000)
        .with_chunk_index(8)
        .expect("chunk index");
    let v3 = save_bytes(&trace);
    assert_eq!(&v3[..8], b"TQTRACE3");
    assert!(
        (v3.len() as f64) <= 0.7 * (trace.events.len() as f64),
        "v3 {} bytes vs {} row-stream bytes — compression regressed",
        v3.len(),
        trace.events.len()
    );
    // And random traces — the codec's worst case — must still roundtrip
    // without ballooning past the row encoding by more than the per-chunk
    // framing overhead.
    let rnd = random_trace(0x5123, 2_000)
        .with_chunk_index(8)
        .expect("index");
    let rv3 = save_bytes(&rnd);
    assert!(
        rv3.len() <= rnd.events.len() + 64 * 8,
        "v3 {} bytes vs {} row-stream bytes on incompressible input",
        rv3.len(),
        rnd.events.len()
    );
}

/// Push bytes through every v3 decode surface. Any outcome but a panic is
/// acceptable: corrupt images may fail to parse, fail mid-replay, or — if
/// the flip landed in dead space — succeed benignly.
fn exercise_v3(bytes: &[u8]) {
    if let Ok(t) = Trace::load(&mut { bytes }) {
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
        let _ = t.replay(&mut tool);
    }
    if let Ok(s) = StreamingTrace::from_bytes(bytes.to_vec()) {
        for k in 0..s.n_chunks() {
            let _ = s.chunk_rows(k);
        }
        let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
        let _ = s.replay(&mut tool);
        let mut tool = QuadTool::new(QuadOptions::default());
        let _ = s.replay_sharded(&mut tool, 4);
    }
}

#[test]
fn truncated_v3_errors_instead_of_panicking() {
    let trace = random_trace(0x5EED3, 800)
        .with_chunk_index(4)
        .expect("chunk index");
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
    let trace = random_trace(0xD1CE3, 800)
        .with_chunk_index(4)
        .expect("chunk index");
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
    let trace = random_trace(0x57AE, 1_500)
        .with_chunk_index(8)
        .expect("chunk index");
    assert_streaming_matches(&trace, save_bytes(&trace), "v3");
}

#[test]
fn wfs_capture_streams_exactly() {
    // Acceptance path: a real application capture through the whole
    // pipeline — record, index, columnar-encode, stream back.
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("wfs runs");
    let trace = vm
        .detach_tool::<TraceRecorder>(h)
        .unwrap()
        .into_trace()
        .with_chunk_index(8)
        .expect("chunk index");
    let bytes = save_bytes(&trace);
    assert_eq!(&bytes[..8], b"TQTRACE3");
    assert_eq!(
        Trace::load(&mut bytes.as_slice()).expect("reload").digest(),
        trace.digest()
    );
    assert_streaming_matches(&trace, bytes, "wfs tiny v3");
}

#[test]
fn streaming_decodes_one_chunk_at_a_time() {
    // The bounded-memory contract: every lazy chunk read is strictly
    // smaller than the full row stream, and stitching all chunk reads
    // back together reproduces it exactly.
    let trace = random_trace(0xB0B0, 2_000)
        .with_chunk_index(8)
        .expect("chunk index");
    let bytes = save_bytes(&trace);
    let stream = StreamingTrace::from_bytes(bytes).expect("open streaming");
    assert_eq!(stream.n_chunks(), 8);
    let mut stitched = Vec::new();
    let mut largest = 0usize;
    for k in 0..stream.n_chunks() {
        let rows = stream.chunk_rows(k).expect("chunk decode");
        largest = largest.max(rows.len());
        stitched.extend_from_slice(&rows);
    }
    assert_eq!(stitched, trace.events, "stitched chunks != row stream");
    assert!(
        largest < trace.events.len(),
        "a single chunk read materialised the whole stream"
    );
    // The resident image is the *compressed* capture, smaller than the
    // decoded rows it stands in for.
    assert!(stream.resident_bytes() < trace.events.len() + 4096);
}

#[test]
fn indexless_traces_save_with_the_default_index() {
    let trace = random_trace(0xD0CC, 400);
    assert!(trace.chunks.is_none());
    let bytes = save_bytes(&trace);
    assert_eq!(&bytes[..8], b"TQTRACE3");
    let back = Trace::load(&mut bytes.as_slice()).expect("load");
    let indexed = trace
        .clone()
        .with_chunk_index(DEFAULT_CHUNKS)
        .expect("chunk index");
    assert_eq!(back, indexed);
    assert_eq!(back.digest(), trace.digest());
}

#[test]
fn legacy_magics_are_bad_headers() {
    // The row-stream TQTRACE1/TQTRACE2 layouts are retired: a file that
    // carries either magic is not a capture, whatever follows it.
    let v3 = save_bytes(&random_trace(0x01D, 200));
    for magic in [b"TQTRACE1", b"TQTRACE2"] {
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
fn non_canonical_rows_fail_to_save_and_leave_no_file() {
    // A RoutineEnter whose kind varint is padded to two bytes (0x84 0x00
    // decodes as 4): it replays fine, but no columnar blob can reproduce
    // those exact row bytes, so `save` must refuse rather than write a
    // file that loads back different.
    let mut trace = random_trace(0xC0DE, 50);
    let mut events = vec![0x84, 0x00, 0x01, 0x00, 0x00];
    events.extend_from_slice(&trace.events);
    trace.events = events;
    trace.n_events += 1;
    let mut sink = Vec::new();
    let err = trace.save(&mut sink).expect_err("non-canonical rows");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(sink.is_empty(), "nothing written before the check fails");

    let dir = std::env::temp_dir().join(format!("tq-trace-noncanon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.capture");
    assert!(trace.save_to_path(&path).is_err());
    assert!(!path.exists(), "no target on a failed save");
    assert!(
        !path.with_extension("tmp").exists(),
        "no temp file on a failed save"
    );
    std::fs::remove_dir_all(&dir).ok();
}
