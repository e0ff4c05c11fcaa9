//! The chunk index: where each chunk's column blob lies in the blob store,
//! plus the [`ShardContext`] snapshot (column seeds, virtual clock, last
//! routine and both call-stack variants) needed to replay that chunk as if
//! the whole prefix had been replayed first.
//!
//! The [`crate::TraceRecorder`] builds the index while it records: it
//! closes a chunk every fixed number of events and keeps the snapshot
//! registers and both frame stacks current as it goes. Sharded replay (see
//! [`crate::stream`]) hands each worker a contiguous run of chunks and folds
//! the partial states back together **in chunk order**, which is what lets
//! order-dependent state (QUAD's last-writer shadow memory) resolve
//! cross-shard references exactly. Determinism is the contract: sharded
//! output must be byte-identical to sequential output.

use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::{Trace, TraceError};
use tq_isa::RoutineId;
use tq_vm::ShardContext;

/// The chunk count perfbench passes to [`Trace::with_chunk_index`], which
/// ignores it: the recorder chunks by event count
/// ([`crate::CHUNK_EVENTS`]). It stays because the benchmark harness
/// (`perfbench/`) names it and is frozen: workspace changes may not edit
/// it.
pub const DEFAULT_CHUNKS: usize = 64;

/// One chunk: its blob's byte range in the blob store plus the snapshot
/// needed to resume decoding (and tool analysis) at its first event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk's blob in `Trace::events`.
    pub start: u64,
    /// Byte offset one past the chunk's blob.
    pub end: u64,
    /// Resume snapshot at the chunk's first event (its `start_event` field
    /// is the 0-based index of that event).
    pub ctx: ShardContext,
}

impl Trace {
    /// The trace, unchanged: the recorder already indexed it. Kept only
    /// because the benchmark harness (`perfbench/`) calls
    /// `with_chunk_index(DEFAULT_CHUNKS)` and is frozen: workspace changes
    /// may not edit it.
    pub fn with_chunk_index(self, _n_chunks: usize) -> Result<Trace, TraceError> {
        Ok(self)
    }
}

/// Serialise a chunk index (the section after the `TQTRACE5` header).
pub(crate) fn write_index(buf: &mut Vec<u8>, chunks: &[ChunkMeta]) {
    write_u64(buf, chunks.len() as u64);
    for c in chunks {
        write_u64(buf, c.start);
        write_u64(buf, c.end);
        write_u64(buf, c.ctx.start_event);
        write_u64(buf, c.ctx.icount);
        write_u64(buf, c.ctx.ea);
        write_u64(buf, c.ctx.sp);
        write_u64(buf, c.ctx.last_rtn.0 as u64);
        for frames in [&c.ctx.frames_all, &c.ctx.frames_main] {
            write_u64(buf, frames.len() as u64);
            for (rtn, sp) in frames {
                write_u64(buf, rtn.0 as u64);
                write_i64(buf, *sp as i64);
            }
        }
    }
}

/// Check a chunk index against the blob store it claims to describe: at
/// least one chunk, blobs contiguous from byte 0 to exactly `blob_len`, and
/// every snapshot routine id in the routine table, so sharded replay can
/// seed tool call stacks from the snapshots without re-checking. A corrupt
/// index is a `Malformed` error, never a later panic.
pub(crate) fn validate_index(
    chunks: &[ChunkMeta],
    n_rtns: u32,
    blob_len: u64,
) -> Result<(), TraceError> {
    let bad = || TraceError::Malformed("corrupt chunk index");
    let rtn_ok = |r: RoutineId| r != RoutineId::INVALID && r.0 < n_rtns;
    let mut at = 0;
    for c in chunks {
        if c.start != at || c.end < c.start {
            return Err(bad());
        }
        at = c.end;
        if c.ctx.last_rtn != RoutineId::INVALID && !rtn_ok(c.ctx.last_rtn) {
            return Err(bad());
        }
        for frames in [&c.ctx.frames_all, &c.ctx.frames_main] {
            if !frames.iter().all(|&(r, _)| rtn_ok(r)) {
                return Err(bad());
            }
        }
    }
    if chunks.is_empty() || at != blob_len {
        return Err(bad());
    }
    Ok(())
}

/// Deserialise a chunk index written by [`write_index`].
pub(crate) fn read_index(bytes: &[u8], pos: &mut usize) -> Result<Vec<ChunkMeta>, TraceError> {
    macro_rules! ru {
        () => {
            read_u64(bytes, pos).ok_or(TraceError::Malformed("truncated chunk index"))?
        };
    }
    let n = ru!();
    if n > 1 << 20 {
        return Err(TraceError::Malformed("implausible chunk count"));
    }
    let mut chunks = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let start = ru!();
        let end = ru!();
        let mut ctx = ShardContext {
            start_event: ru!(),
            icount: ru!(),
            ea: ru!(),
            sp: ru!(),
            last_rtn: RoutineId(ru!() as u32),
            ..ShardContext::default()
        };
        for which in 0..2 {
            let len = ru!();
            if len > 1 << 20 {
                return Err(TraceError::Malformed("implausible stack depth"));
            }
            let mut frames = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let rtn = RoutineId(ru!() as u32);
                let sp = read_i64(bytes, pos)
                    .ok_or(TraceError::Malformed("truncated chunk index"))?
                    as u64;
                frames.push((rtn, sp));
            }
            if which == 0 {
                ctx.frames_all = frames;
            } else {
                ctx.frames_main = frames;
            }
        }
        chunks.push(ChunkMeta { start, end, ctx });
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CHUNK_EVENTS;
    use tq_vm::{standard_mask, Event, HookMask, InsContext, ProgramInfo, RoutineMeta, Tool};

    fn two_rtn_info() -> ProgramInfo {
        ProgramInfo {
            routines: vec![
                RoutineMeta {
                    id: RoutineId(0),
                    name: "main".into(),
                    image: "app".into(),
                    main_image: true,
                    start: 0x10000,
                    end: 0x10100,
                },
                RoutineMeta {
                    id: RoutineId(1),
                    name: "memcpy".into(),
                    image: "libc".into(),
                    main_image: false,
                    start: 0x20000,
                    end: 0x20100,
                },
            ],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    /// 31 records (30 events + Fini), chunked every `chunk_events`.
    fn sample_trace(chunk_events: u64) -> Trace {
        let mut rec = crate::TraceRecorder::with_chunk_events(chunk_events);
        rec.on_attach(&two_rtn_info());
        let mut ic = 0u64;
        for round in 0..5u64 {
            ic += 1;
            rec.on_event(&Event::RoutineEnter {
                rtn: RoutineId(0),
                sp: 0x3FFF_FF00 - round * 16,
                icount: ic,
            });
            ic += 1;
            rec.on_event(&Event::RoutineEnter {
                rtn: RoutineId(1),
                sp: 0x3FFF_FE00 - round * 16,
                icount: ic,
            });
            ic += 2;
            rec.on_event(&Event::MemWrite {
                ea: 0x1000_0000 + round * 8,
                size: 8,
                sp: 0x3FFF_FE00,
                icount: ic,
                rtn: RoutineId(1),
            });
            ic += 1;
            rec.on_event(&Event::Ret {
                icount: ic,
                rtn: RoutineId(1),
            });
            ic += 3;
            rec.on_event(&Event::MemRead {
                ea: 0x1000_0000 + round * 8,
                size: 8,
                sp: 0x3FFF_FF00,
                is_prefetch: false,
                icount: ic,
                rtn: RoutineId(0),
            });
            ic += 1;
            rec.on_event(&Event::Ret {
                icount: ic,
                rtn: RoutineId(0),
            });
        }
        rec.on_fini(ic + 2);
        rec.into_trace()
    }

    #[test]
    fn recorder_closes_a_chunk_every_n_events() {
        for n in [1u64, 2, 3, 4, 7, 30, 31, 100] {
            let trace = sample_trace(n);
            assert_eq!(trace.n_events, 31);
            let chunks = &trace.chunks;
            assert_eq!(chunks.len() as u64, 31u64.div_ceil(n), "{n}-event chunks");
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks[0].ctx, ShardContext::default());
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.ctx.start_event, i as u64 * n, "chunk {i} event index");
                if let Some(next) = chunks.get(i + 1) {
                    assert_eq!(c.end, next.start, "chunk {i} not contiguous");
                    assert!(next.ctx.icount >= c.ctx.icount, "chunk {i} clock");
                }
            }
            assert_eq!(chunks.last().unwrap().end, trace.events.len() as u64);
        }
    }

    #[test]
    fn chunk_snapshots_track_both_stack_variants() {
        let trace = sample_trace(4);
        // The main-image stack can never be deeper than the full stack, and
        // every main frame is a main-image routine.
        for c in &trace.chunks {
            assert!(c.ctx.frames_main.len() <= c.ctx.frames_all.len());
            for (rtn, _) in &c.ctx.frames_main {
                assert!(trace.info.routines[rtn.idx()].main_image);
            }
        }
        // Chunk 2 starts at event 8, just after round 1's two entries:
        // main and memcpy are open, but only main is a main-image frame.
        let mid = &trace.chunks[2].ctx;
        assert_eq!(mid.start_event, 8);
        assert_eq!(
            mid.frames_all,
            [(RoutineId(0), 0x3FFF_FEF0), (RoutineId(1), 0x3FFF_FDF0)]
        );
        assert_eq!(mid.frames_main, [(RoutineId(0), 0x3FFF_FEF0)]);
        assert_eq!(mid.last_rtn, RoutineId(1));
        assert_eq!(mid.frames(true), &mid.frames_all[..]);
        assert_eq!(mid.frames(false), &mid.frames_main[..]);
    }

    /// Collects replayed records for comparison.
    #[derive(Default)]
    struct Collector {
        events: Vec<String>,
    }
    impl Tool for Collector {
        fn name(&self) -> &str {
            "collector"
        }
        fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
            standard_mask(ins)
        }
        fn on_event(&mut self, ev: &Event) {
            self.events.push(format!("{ev:?}"));
        }
        fn on_fini(&mut self, icount: u64) {
            self.events.push(format!("fini {icount}"));
        }
    }

    #[test]
    fn chunk_by_chunk_replay_reproduces_sequential_events() {
        let mut seq = Collector::default();
        sample_trace(CHUNK_EVENTS).replay(&mut seq).unwrap();
        for n in [2u64, 3, 5, 11] {
            let trace = sample_trace(n);
            let driver = trace.driver().unwrap();
            let mut got = Collector::default();
            for k in 0..trace.chunks.len() {
                let mut part = Collector::default();
                driver.run(k..k + 1, &mut part).unwrap();
                got.events.extend(part.events);
            }
            assert_eq!(
                got.events, seq.events,
                "{n}-event chunks changed the stream"
            );
        }
    }

    #[test]
    fn cut_or_corrupt_blob_stores_error_instead_of_panicking() {
        let trace = sample_trace(4);
        // A store cut at any length no longer matches its index.
        for cut in 0..trace.events.len() {
            let mut t = trace.clone();
            t.events.truncate(cut);
            assert!(t.replay(&mut Collector::default()).is_err(), "cut {cut}");
        }
        // Every single-byte corruption is an `Err` or a benign replay.
        for at in 0..trace.events.len() {
            for flip in [0x01u8, 0x40, 0x80, 0xFF] {
                let mut t = trace.clone();
                t.events[at] ^= flip;
                let _ = t.replay(&mut Collector::default());
            }
        }
    }

    #[test]
    fn index_roundtrips_through_save_load() {
        let trace = sample_trace(4);
        let mut bytes = Vec::new();
        trace.save(&mut bytes).unwrap();
        assert_eq!(&bytes[..8], crate::MAGIC);
        let back = Trace::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, trace);
        // The index is derived metadata: digests match any other chunking.
        assert_eq!(back.digest(), sample_trace(CHUNK_EVENTS).digest());
    }
}
