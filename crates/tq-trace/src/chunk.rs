//! Chunked, seekable replay: split the event stream into resumable shards
//! and fan them out over scoped threads.
//!
//! A [`ChunkMeta`] records where a shard's events start/end in the byte
//! stream plus the [`ShardContext`] snapshot (delta-decoder registers,
//! virtual clock, and both call-stack variants) needed to replay that span
//! as if the whole prefix had been replayed first. [`Trace::chunk_index`]
//! builds the index with one sequential decode pass;
//! [`Trace::replay_sharded`] then drives one [`MergeTool`] worker per chunk
//! run (through the replay driver in [`crate::stream`]) and folds the
//! partial states back together **in chunk order**, which is
//! what lets order-dependent state (QUAD's last-writer shadow memory)
//! resolve cross-shard references exactly. Determinism is the contract:
//! sharded output must be byte-identical to sequential output.

use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::{
    DeltaState, Trace, TraceError, K_CALL, K_FINI, K_MEM_READ, K_MEM_WRITE, K_RET, K_RTN_ENTER,
};
use tq_isa::RoutineId;
use tq_vm::{MergeTool, ShardContext};

/// Index width capture paths should embed by default: fine enough that
/// [`Trace::replay_sharded`] can coarsen it to any realistic job count
/// without rescanning, coarse enough that the index stays tiny next to
/// the event stream.
pub const DEFAULT_CHUNKS: usize = 64;

/// Event index at which chunk `k` of `n_chunks` begins:
/// `k * total / n_chunks`, computed in u128 so the product cannot wrap for
/// any u64 event count. The pre-fix u64 `wrapping_mul` silently misplaced
/// shard boundaries once `k * total` passed 2^64 — the regime the paper's
/// full-scale runs (billions of events) head towards — instead of erroring.
#[inline]
fn chunk_start_event(k: usize, total: u64, n_chunks: usize) -> u64 {
    ((k as u128 * total as u128) / n_chunks as u128) as u64
}

/// One shard of the event stream: a byte range plus the snapshot needed to
/// resume decoding (and tool analysis) at its first event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk's first event in `Trace::events`.
    pub start: u64,
    /// Byte offset one past the chunk's last event.
    pub end: u64,
    /// Resume snapshot at `start` (its `start_event` field is the 0-based
    /// index of the chunk's first event).
    pub ctx: ShardContext,
}

impl Trace {
    /// Build a chunk index with `n_chunks` near-equal shards (by event
    /// count) in one sequential decode pass. Chunk `k` starts at event
    /// `k * n_events / n_chunks`, so chunks are non-empty whenever
    /// `n_chunks <= n_events`; requesting more chunks than events yields
    /// trailing empty chunks, which replay as no-ops.
    ///
    /// Corrupt streams (truncated varints, unknown kinds) return `Err`;
    /// routine ids outside the routine table are treated as non-main-image
    /// rather than panicking. `n_chunks` is clamped to the same 2^20
    /// ceiling the loader accepts, so a wild request cannot blow up the
    /// index allocation.
    pub fn chunk_index(&self, n_chunks: usize) -> Result<Vec<ChunkMeta>, TraceError> {
        let _span = tq_obs::span("decode", "replay");
        let n_chunks = n_chunks.clamp(1, 1 << 20);
        let buf = &self.events;
        let mut pos = 0usize;
        let mut st = DeltaState::default();
        let mut last_rtn = RoutineId::INVALID;
        // Both stack variants, maintained with the tools' own update rules
        // (see `ShardContext`): every routine vs. main-image-only pushes,
        // pop-iff-top-matches on ret.
        let mut frames_all: Vec<(RoutineId, u64)> = Vec::new();
        let mut frames_main: Vec<(RoutineId, u64)> = Vec::new();
        let mut starts: Vec<(u64, ShardContext)> = Vec::with_capacity(n_chunks);
        let mut ev_idx: u64 = 0;
        let total = self.n_events;
        let mut next_k = 0usize;

        macro_rules! ru {
            () => {
                read_u64(buf, &mut pos).ok_or(TraceError::Malformed("truncated varint"))?
            };
        }
        macro_rules! ri {
            () => {
                read_i64(buf, &mut pos).ok_or(TraceError::Malformed("truncated varint"))?
            };
        }
        macro_rules! snapshot {
            () => {
                ShardContext {
                    start_event: ev_idx,
                    icount: st.icount,
                    ip: st.ip,
                    ea: st.ea,
                    sp: st.sp,
                    last_rtn,
                    frames_all: frames_all.clone(),
                    frames_main: frames_main.clone(),
                }
            };
        }

        let end_pos = loop {
            while next_k < n_chunks && chunk_start_event(next_k, total, n_chunks) == ev_idx {
                starts.push((pos as u64, snapshot!()));
                next_k += 1;
            }
            if pos >= buf.len() {
                break pos;
            }
            let kind = ru!();
            st.icount = st.icount.wrapping_add(ru!());
            match kind {
                K_MEM_READ => {
                    st.ip = st.ip.wrapping_add_signed(ri!());
                    st.ea = st.ea.wrapping_add_signed(ri!());
                    let _size = ru!();
                    st.sp = st.sp.wrapping_add_signed(ri!());
                    let packed = ru!();
                    last_rtn = RoutineId((packed >> 1) as u32);
                }
                K_MEM_WRITE => {
                    st.ip = st.ip.wrapping_add_signed(ri!());
                    st.ea = st.ea.wrapping_add_signed(ri!());
                    let _size = ru!();
                    st.sp = st.sp.wrapping_add_signed(ri!());
                    last_rtn = RoutineId(ru!() as u32);
                }
                K_CALL => {
                    st.ip = st.ip.wrapping_add_signed(ri!());
                    let _callee = ru!();
                    last_rtn = RoutineId(ru!() as u32);
                }
                K_RET => {
                    st.ip = st.ip.wrapping_add_signed(ri!());
                    let _return_to = ri!();
                    let rtn = RoutineId(ru!() as u32);
                    last_rtn = rtn;
                    if frames_all.last().is_some_and(|f| f.0 == rtn) {
                        frames_all.pop();
                    }
                    if frames_main.last().is_some_and(|f| f.0 == rtn) {
                        frames_main.pop();
                    }
                }
                K_RTN_ENTER => {
                    let rtn = RoutineId(ru!() as u32);
                    st.sp = st.sp.wrapping_add_signed(ri!());
                    last_rtn = rtn;
                    frames_all.push((rtn, st.sp));
                    let main_image = self
                        .info
                        .routines
                        .get(rtn.idx())
                        .is_some_and(|r| r.main_image);
                    if main_image {
                        frames_main.push((rtn, st.sp));
                    }
                }
                K_FINI => {
                    // Logical end of stream: sequential replay stops here,
                    // so trailing bytes (if any) belong to no chunk.
                    ev_idx += 1;
                    break pos;
                }
                _ => return Err(TraceError::Malformed("unknown event kind")),
            }
            ev_idx += 1;
        };

        // Boundaries past the actual stream end (n_events overstated, or a
        // mid-stream Fini) become empty chunks at the final position.
        while next_k < n_chunks {
            starts.push((end_pos as u64, snapshot!()));
            next_k += 1;
        }

        let mut chunks = Vec::with_capacity(n_chunks);
        for (i, (start, ctx)) in starts.iter().enumerate() {
            let end = starts.get(i + 1).map_or(end_pos as u64, |(s, _)| *s);
            chunks.push(ChunkMeta {
                start: *start,
                end,
                ctx: ctx.clone(),
            });
        }
        Ok(chunks)
    }

    /// Attach a precomputed `n_chunks`-way index; the next `save` stores
    /// one columnar blob per chunk.
    pub fn with_chunk_index(mut self, n_chunks: usize) -> Result<Trace, TraceError> {
        self.chunks = Some(self.chunk_index(n_chunks)?);
        Ok(self)
    }

    /// Data-parallel replay: split the stream into `n_jobs` chunks, fork
    /// one worker per chunk via [`MergeTool::fork`], replay every chunk
    /// concurrently on scoped threads, then [`MergeTool::absorb`] the
    /// workers back into `tool` in chunk order. The result is
    /// byte-identical to [`Trace::replay`] for the same tool — that
    /// equivalence is enforced by the determinism tests and the
    /// `verify.sh` smoke check.
    ///
    /// An embedded index with at least `n_jobs` chunks is coarsened into
    /// shards for free (each shard takes a run of adjacent chunks), so a
    /// trace indexed once at capture time never pays the index scan again,
    /// for *any* job count up to the index width. Without a usable index
    /// the scan runs here — a sequential decode pass that caps the
    /// speedup, which is why capture paths index eagerly.
    ///
    /// `n_jobs <= 1` (or a trace with fewer events than jobs would leave
    /// non-trivial) degrades to plain sequential replay.
    pub fn replay_sharded(
        &self,
        tool: &mut dyn MergeTool,
        n_jobs: usize,
    ) -> Result<(), TraceError> {
        let shards = n_jobs.clamp(1, self.n_events.clamp(1, 1 << 16) as usize);
        let built;
        let chunks = match &self.chunks {
            _ if shards <= 1 => return self.replay(tool),
            Some(idx) if idx.len() >= shards => idx,
            _ => {
                built = self.chunk_index(shards)?;
                &built
            }
        };
        let driver = self.driver(chunks);
        driver.sharded(tool, shards)
    }
}

/// Serialise a chunk index (the section after the `TQTRACE3` header).
pub(crate) fn write_index(buf: &mut Vec<u8>, chunks: &[ChunkMeta]) {
    write_u64(buf, chunks.len() as u64);
    for c in chunks {
        write_u64(buf, c.start);
        write_u64(buf, c.end);
        write_u64(buf, c.ctx.start_event);
        write_u64(buf, c.ctx.icount);
        write_u64(buf, c.ctx.ip);
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

/// Sanity-check a deserialised chunk index against the trace it claims to
/// describe: byte ranges must lie inside the event stream and every
/// snapshot routine id must be in the routine table, so sharded replay can
/// seed tool call stacks from the snapshots without re-checking. A corrupt
/// index is a `Malformed` load error, never a later panic.
pub(crate) fn validate_index(
    chunks: &[ChunkMeta],
    n_rtns: u32,
    ev_len: u64,
) -> Result<(), TraceError> {
    let bad = || TraceError::Malformed("corrupt chunk index");
    let rtn_ok = |r: RoutineId| r != RoutineId::INVALID && r.0 < n_rtns;
    for c in chunks {
        if c.start > c.end || c.end > ev_len {
            return Err(bad());
        }
        if c.ctx.last_rtn != RoutineId::INVALID && !rtn_ok(c.ctx.last_rtn) {
            return Err(bad());
        }
        for frames in [&c.ctx.frames_all, &c.ctx.frames_main] {
            if !frames.iter().all(|&(r, _)| rtn_ok(r)) {
                return Err(bad());
            }
        }
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
            ip: ru!(),
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

    fn sample_trace() -> Trace {
        let mut rec = crate::TraceRecorder::new();
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
                ip: 0x20010,
                ea: 0x1000_0000 + round * 8,
                size: 8,
                sp: 0x3FFF_FE00,
                icount: ic,
                rtn: RoutineId(1),
            });
            ic += 1;
            rec.on_event(&Event::Ret {
                ip: 0x20020,
                return_to: 0x10040,
                icount: ic,
                rtn: RoutineId(1),
            });
            ic += 3;
            rec.on_event(&Event::MemRead {
                ip: 0x10048,
                ea: 0x1000_0000 + round * 8,
                size: 8,
                sp: 0x3FFF_FF00,
                is_prefetch: false,
                icount: ic,
                rtn: RoutineId(0),
            });
            ic += 1;
            rec.on_event(&Event::Ret {
                ip: 0x10050,
                return_to: 0x10000,
                icount: ic,
                rtn: RoutineId(0),
            });
        }
        rec.on_fini(ic + 2);
        rec.into_trace()
    }

    #[test]
    fn chunk_starts_land_on_event_boundaries() {
        let trace = sample_trace();
        for n in [1usize, 2, 3, 4, 7, 30, 100] {
            let chunks = trace.chunk_index(n).unwrap();
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks[0].ctx, ShardContext::default());
            let mut events = 0u64;
            for (i, c) in chunks.iter().enumerate() {
                assert!(c.start <= c.end, "chunk {i} inverted");
                assert_eq!(c.ctx.start_event, events, "chunk {i} event index");
                if let Some(next) = chunks.get(i + 1) {
                    assert_eq!(c.end, next.start, "chunk {i} not contiguous");
                    events = next.ctx.start_event;
                }
            }
            assert_eq!(chunks.last().unwrap().end, trace.events.len() as u64);
        }
    }

    #[test]
    fn chunk_snapshots_track_both_stack_variants() {
        let trace = sample_trace();
        // Chunk at an odd boundary so some snapshot lands mid-call.
        let chunks = trace.chunk_index(7).unwrap();
        let mid = &chunks[3].ctx;
        // The main-image stack can never be deeper than the full stack, and
        // every main frame is a main-image routine.
        for c in &chunks {
            assert!(c.ctx.frames_main.len() <= c.ctx.frames_all.len());
            for (rtn, _) in &c.ctx.frames_main {
                assert!(trace.info.routines[rtn.idx()].main_image);
            }
        }
        // frames(true) / frames(false) select the right variant.
        assert_eq!(mid.frames(true), &mid.frames_all[..]);
        assert_eq!(mid.frames(false), &mid.frames_main[..]);
    }

    #[test]
    fn span_replay_over_chunks_reproduces_sequential_events() {
        /// Collects replayed events for comparison.
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
        }

        let trace = sample_trace();
        let mut seq = Collector::default();
        trace.replay(&mut seq).unwrap();

        for n in [2usize, 3, 5, 11] {
            let chunks = trace.chunk_index(n).unwrap();
            let mut got = Vec::new();
            for c in &chunks {
                let mut part = Collector::default();
                let rows = &trace.events[c.start as usize..c.end as usize];
                crate::replay_rows(&trace.info, rows, &c.ctx, &mut part).unwrap();
                got.extend(part.events);
            }
            assert_eq!(got, seq.events, "{n}-way chunking changed the stream");
        }
    }

    #[test]
    fn chunk_index_errors_on_corrupt_streams_instead_of_panicking() {
        let trace = sample_trace();
        // Truncation at every prefix length must be Err or a clean index,
        // never a panic.
        for cut in 0..trace.events.len() {
            let mut t = trace.clone();
            t.events.truncate(cut);
            let _ = t.chunk_index(4);
        }
        // An unknown kind is a hard error.
        let mut t = trace.clone();
        t.events[0] = 0x3F; // kind 63
        assert!(t.chunk_index(2).is_err());
    }

    #[test]
    fn chunk_boundary_math_survives_u64_overflow() {
        // For total >= 2^63 the product k * total wraps u64 at k = 2. The
        // pre-fix `wrapping_mul` math placed chunk 2's boundary at event 1
        // instead of total / 2 — prove the old formula really diverged,
        // then that the u128 formula lands exactly.
        let total = (1u64 << 63) + 2;
        let wrapped = 2u64.wrapping_mul(total) / 4;
        assert_eq!(wrapped, 1, "the pre-fix math wrapped to a tiny boundary");
        assert_eq!(chunk_start_event(2, total, 4), total / 2);
        assert_eq!(chunk_start_event(0, total, 4), 0);
        assert_eq!(chunk_start_event(1, total, 4), total / 4);
        // Boundaries are monotonic non-decreasing across the whole range,
        // even at the absolute edge.
        let mut prev = 0u64;
        for k in 0..=64usize {
            let b = chunk_start_event(k, u64::MAX, 64);
            assert!(b >= prev, "boundary {k} went backwards");
            prev = b;
        }
        assert_eq!(chunk_start_event(64, u64::MAX, 64), u64::MAX);
    }

    #[test]
    fn overstated_event_count_at_overflow_edge_chunks_sanely() {
        // A corrupt header can claim u64::MAX events over a tiny stream.
        // Boundary math at the overflow edge must keep the index sane:
        // chunk 0 covers the decoded stream, unreachable boundaries become
        // trailing empty chunks, and span replay still reproduces the
        // sequential event sequence.
        let mut t = sample_trace();
        t.n_events = u64::MAX;
        let end = t.events.len() as u64;
        for n in [2usize, 3, 4, 7] {
            let chunks = t.chunk_index(n).unwrap();
            assert_eq!(chunks.len(), n);
            assert_eq!((chunks[0].start, chunks[0].end), (0, end));
            for (i, c) in chunks[1..].iter().enumerate() {
                assert_eq!(
                    (c.start, c.end),
                    (end, end),
                    "chunk {} should be a trailing empty",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn index_roundtrips_through_save_load() {
        let trace = sample_trace().with_chunk_index(4).unwrap();
        let mut bytes = Vec::new();
        trace.save(&mut bytes).unwrap();
        assert_eq!(&bytes[..8], b"TQTRACE3");
        let back = Trace::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, trace);
        // The index is derived metadata: digests match the plain trace.
        assert_eq!(back.digest(), sample_trace().digest());
    }
}
