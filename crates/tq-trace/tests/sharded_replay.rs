//! Sharded-replay determinism: for every tool, splitting a trace into
//! chunks, replaying them in parallel and merging the partial states must
//! reproduce the sequential profile *bit-exactly* — on seeded random
//! traces (the property net) and on full application captures (the
//! acceptance path). Plus the panic-proofing property: corrupt or
//! truncated streams are `Err`s, never panics.

use tq_gprof::{GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{LibPolicy, TquadOptions, TquadTool};
use tq_trace::{Trace, TraceRecorder};
use tq_vm::{Event, ProgramInfo, RoutineMeta, Tool};

/// A program shape for the random traces: two main-image routines and two
/// library routines, so both stack-tracking variants get exercised.
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

/// Mostly 1–8 B accesses; one in eight is a long access (up to three
/// pages) that spans bitmap words and pages, so QUAD's runs and orphan runs
/// cross shard boundaries too.
fn access_size(rng: &mut Rng) -> u32 {
    if rng.index(8) == 0 {
        rng.u64_in(9, 3 * 4096) as u32
    } else {
        1 << rng.index(4)
    }
}

/// Feed a seeded-random but structurally plausible event stream through
/// the recorder, closing a chunk every `chunk` records: calls and returns
/// stay balanced around a real shadow stack, reads/writes hit a mix of
/// heap and stack addresses, and the virtual clock only moves forward.
fn random_trace(seed: u64, n_events: usize, chunk: u64) -> Trace {
    let info = synthetic_info();
    let mut rng = Rng::new(seed);
    let mut rec = TraceRecorder::with_chunk_events(chunk);
    rec.on_attach(&info);

    let mut icount = 0u64;
    // (routine, sp) call stack; main is always at the bottom.
    let mut stack: Vec<(RoutineId, u64)> = vec![(RoutineId(0), info.stack_base)];
    for _ in 0..n_events {
        icount += rng.u64_in(1, 9);
        let (rtn, sp) = *stack.last().unwrap();
        match rng.index(10) {
            // Call + enter a random routine (bounded depth).
            0 | 1 if stack.len() < 12 => {
                let callee = RoutineId(rng.index(4) as u32);
                rec.on_event(&Event::Call { icount, rtn });
                icount += 1;
                let new_sp = sp - rng.u64_in(16, 64);
                stack.push((callee, new_sp));
                rec.on_event(&Event::RoutineEnter {
                    rtn: callee,
                    sp: new_sp,
                    icount,
                });
            }
            // Return to the caller (never pop main).
            2 if stack.len() > 1 => {
                stack.pop();
                rec.on_event(&Event::Ret { icount, rtn });
            }
            // Reads, occasionally prefetches, on heap or stack addresses.
            3 | 4 | 5 => {
                let ea = if rng.index(4) == 0 {
                    sp - rng.u64_in(0, 128)
                } else {
                    0x1000_0000 + rng.u64_in(0, 3 * 4096)
                };
                rec.on_event(&Event::MemRead {
                    ea,
                    size: access_size(&mut rng),
                    sp,
                    is_prefetch: rng.index(8) == 0,
                    icount,
                    rtn,
                });
            }
            // Writes.
            _ => {
                let ea = if rng.index(4) == 0 {
                    sp - rng.u64_in(0, 128)
                } else {
                    0x1000_0000 + rng.u64_in(0, 3 * 4096)
                };
                rec.on_event(&Event::MemWrite {
                    ea,
                    size: access_size(&mut rng),
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

/// Assert all three tools produce identical profiles sharded vs
/// sequential, across lib/stack policy variants and several shard counts.
fn assert_all_tools_shard_exactly(trace: &Trace, shard_counts: &[usize], what: &str) {
    for lib_policy in [
        LibPolicy::AttributeToCaller,
        LibPolicy::Track,
        LibPolicy::Drop,
    ] {
        let opts = TquadOptions::default()
            .with_interval(777)
            .with_lib_policy(lib_policy);
        let mut seq = TquadTool::new(opts);
        trace.replay(&mut seq).expect("sequential replay");
        let seq = seq.into_profile();
        for &jobs in shard_counts {
            let mut sharded = TquadTool::new(opts);
            trace
                .replay_sharded(&mut sharded, jobs)
                .expect("sharded replay");
            assert_eq!(
                seq,
                sharded.into_profile(),
                "{what}: tquad {lib_policy:?} diverged at {jobs} shards"
            );
        }

        for include_stack in [true, false] {
            let qopts = QuadOptions {
                include_stack,
                lib_policy,
            };
            let mut seq = QuadTool::new(qopts);
            trace.replay(&mut seq).expect("sequential replay");
            let seq = seq.into_profile();
            for &jobs in shard_counts {
                let mut sharded = QuadTool::new(qopts);
                trace
                    .replay_sharded(&mut sharded, jobs)
                    .expect("sharded replay");
                assert_eq!(
                    seq,
                    sharded.into_profile(),
                    "{what}: quad {lib_policy:?}/stack={include_stack} \
                     diverged at {jobs} shards"
                );
            }
        }
    }

    for track_libs in [false, true] {
        let gopts = GprofOptions {
            sample_interval: 500,
            track_libs,
            ..Default::default()
        };
        let mut seq = GprofTool::new(gopts);
        trace.replay(&mut seq).expect("sequential replay");
        let seq = seq.into_profile();
        for &jobs in shard_counts {
            let mut sharded = GprofTool::new(gopts);
            trace
                .replay_sharded(&mut sharded, jobs)
                .expect("sharded replay");
            assert_eq!(
                seq,
                sharded.into_profile(),
                "{what}: gprof track_libs={track_libs} diverged at {jobs} shards"
            );
        }
    }
}

#[test]
fn random_traces_shard_exactly() {
    for seed in 0..6u64 {
        let trace = random_trace(0xC0FFEE ^ seed, 1_500, 200);
        assert!(
            trace.chunks.len() >= 7,
            "seed {seed}: too few chunks to shard"
        );
        assert_all_tools_shard_exactly(&trace, &[2, 3, 4, 7], &format!("seed {seed}"));
    }
}

#[test]
fn coarsened_embedded_index_shards_exactly() {
    // A fine index built at capture time serves any smaller job count by
    // grouping adjacent chunks — same determinism contract.
    let trace = random_trace(0xBEEF, 2_000, 100);
    assert!(trace.chunks.len() >= 16);
    assert_all_tools_shard_exactly(&trace, &[2, 5, 16], "coarsened index");
}

#[test]
fn split_merge_roundtrips_through_save_load() {
    // The sharded contract survives serialisation: a capture file loaded
    // back shards exactly like the in-memory trace it was saved from.
    let trace = random_trace(0xABCD, 1_000, 150);
    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    let reloaded = Trace::load(&mut bytes.as_slice()).expect("reload");
    assert_eq!(trace, reloaded);
    assert_all_tools_shard_exactly(&reloaded, &[4, 8], "reloaded");
}

#[test]
fn wfs_capture_shards_exactly() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("wfs runs");
    let trace = vm.detach_tool::<TraceRecorder>(h).unwrap().into_trace();
    assert_all_tools_shard_exactly(&trace, &[4], "wfs tiny");
}

#[test]
fn imgproc_capture_shards_exactly() {
    let app = tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny());
    let mut vm = app.make_vm();
    let h = vm.attach_tool(Box::new(TraceRecorder::new()));
    vm.run(None).expect("imgproc runs");
    let trace = vm.detach_tool::<TraceRecorder>(h).unwrap().into_trace();
    assert_all_tools_shard_exactly(&trace, &[4], "imgproc tiny");
}

#[test]
fn truncated_streams_error_instead_of_panicking() {
    let trace = random_trace(0x5EED, 800, 250);
    let mut bytes = Vec::new();
    trace.save(&mut bytes).expect("save");
    let mut rng = Rng::new(0x7E57);
    // Every short prefix either fails to load or, if the header happens to
    // parse, fails (or succeeds benignly) downstream — but never panics.
    for _ in 0..200 {
        let cut = rng.index(bytes.len());
        exercise_loaded(&bytes[..cut]);
    }
    // Deterministic sweep over the fragile region right after the header.
    for cut in 0..64.min(bytes.len()) {
        exercise_loaded(&bytes[..cut]);
    }
}

#[test]
fn corrupted_streams_error_instead_of_panicking() {
    let trace = random_trace(0xD1CE, 800, 250);
    let mut pristine = Vec::new();
    trace.save(&mut pristine).expect("save");
    let mut rng = Rng::new(0xF00D);
    for _ in 0..200 {
        let mut bytes = pristine.clone();
        // Flip one to four random bytes anywhere in the file.
        for _ in 0..=rng.index(4) {
            let at = rng.index(bytes.len());
            bytes[at] ^= rng.next_u64() as u8 | 1;
        }
        exercise_loaded(&bytes);
    }
}

/// Load and, when that succeeds, push the bytes through every decode
/// surface. Any outcome but a panic is acceptable.
fn exercise_loaded(bytes: &[u8]) {
    let Ok(t) = Trace::load(&mut { bytes }) else {
        return;
    };
    let mut tool = TquadTool::new(TquadOptions::default().with_interval(777));
    let _ = t.replay(&mut tool);
    let mut tool = QuadTool::new(QuadOptions::default());
    let _ = t.replay_sharded(&mut tool, 4);
}
