//! # tq-trace — event-trace recording and offline replay
//!
//! Decouples *capture* from *analysis*, the standard profiler architecture
//! the paper's framework implies: the [`TraceRecorder`] tool runs under
//! the VM once, appending every memory/call/return/routine-entry event to
//! per-chunk column blobs; [`Trace::replay`] then feeds any
//! [`tq_vm::Tool`] offline, as many times as needed — e.g. the §V.B
//! slice-interval sweep becomes one capture plus N cheap replays instead
//! of N instrumented executions.
//!
//! The column blobs are the only event representation: the recorder
//! writes them, [`Trace::save`] copies them behind a header and the chunk
//! index, [`Trace::load`] and [`StreamingTrace`] read them back without
//! decoding, and one decoder turns them straight into events for every
//! replay. Replay is **exact** for event-driven tools (tQUAD, QUAD): the
//! replayed event sequence is bit-identical to the live one, which the
//! round-trip tests assert. Tick-driven tools (the sampling profiler) get
//! ticks synthesised from the recorded virtual clock; the tick's routine
//! is the most recent event's, an approximation documented on
//! [`Trace::replay`].

#![warn(missing_docs)]

pub mod chunk;
pub(crate) mod columnar;
pub mod digest;
pub mod stream;
pub mod varint;

/// Shared metric handles: registered once, updated lock-free afterwards.
pub(crate) mod obs {
    use std::sync::OnceLock;
    use tq_obs::Counter;

    pub fn replays() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tq_obs::counter("tq_trace_replays_total", "Sequential trace replays started")
        })
    }

    pub fn sharded_replays() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tq_obs::counter(
                "tq_trace_sharded_replays_total",
                "Sharded trace replays started (after degrading 1-job calls to sequential)",
            )
        })
    }

    pub fn streaming_replays() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tq_obs::counter(
                "tq_trace_streaming_replays_total",
                "Replays driven through the lazy chunk reader (StreamingTrace)",
            )
        })
    }

    pub fn replayed_chunks() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tq_obs::counter(
                "tq_trace_replayed_chunks_total",
                "Column chunks decoded by replays (in-memory and streaming)",
            )
        })
    }
}

use std::io::{Read, Write};
use std::path::Path;
use tq_isa::RoutineId;
use tq_vm::{
    standard_mask, Event, HookMask, InsContext, InstrInfo, ProgramInfo, RoutineMeta, ShardContext,
    Tool,
};
use varint::{read_u64, write_u64};

pub use chunk::{ChunkMeta, DEFAULT_CHUNKS};
pub use digest::{digest_program, Digest128};
pub use stream::StreamingTrace;

/// Magic of the one on-disk format, `TQTRACE5`: header, chunk index, the
/// blob store (one column blob per chunk, see [`columnar`]), then the
/// optional `TQIM` tail. Anything else — including the retired
/// `TQTRACE4`, `TQTRACE3` and v1/v2 layouts — fails to load with
/// [`TraceError::BadHeader`]. Exported so cache layers check the exact
/// magic rather than a prefix.
pub const MAGIC: &[u8; 8] = b"TQTRACE5";
/// Tag of the optional instrumentation-mode tail appended after a capture's
/// blob store: `TQIM`, a varint byte length, then [`InstrInfo::encode`]
/// bytes. Full-instrumentation captures omit the tail entirely.
const INSTR_MAGIC: &[u8; 4] = b"TQIM";

/// Events per chunk the recorder closes. A chunk is the smallest shard, so
/// a replay runs on at most one shard per chunk: the wfs tiny capture has
/// 10 chunks, img tiny 148 and wfs small 208, while a capture under
/// 2 × `CHUNK_EVENTS` records replays sequentially at any job count. Per
/// chunk framing stays a fraction of a percent of the blob store and one
/// chunk's decoded columns fit in cache.
pub const CHUNK_EVENTS: u64 = 1 << 14;

/// On-disk format selector for [`Trace::save_as`]: `TQTRACE5` is the only
/// format, and the variant keeps its older name. The enum and `save_as`
/// stay because the benchmark harness (`perfbench/`) calls
/// `save_as(&mut w, TraceFormat::V3)` and is frozen: workspace changes may
/// not edit it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// `TQTRACE5`: header + chunk index + blob store.
    V3,
}

/// A recorded trace: program facts, the chunk index and the blob store.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Routine table and stack base, as tools received them at attach time.
    pub info: ProgramInfo,
    /// The blob store: every chunk's column blob, back to back.
    pub events: Vec<u8>,
    /// Number of records, the end-of-run `Fini` record included.
    pub n_events: u64,
    /// Where each chunk's blob lies in `events`, with its resume snapshot.
    /// The recorder builds it as it records; replay checks it against
    /// `events` before decoding anything.
    pub chunks: Vec<ChunkMeta>,
    /// Instrumentation-mode metadata when the capture was recorded under a
    /// reduced mode (`--instr`): what was dropped, and where. Saved as a
    /// tagged tail section; `None` for full captures. Replay hands it to
    /// tools via [`Tool::on_instr`] right after attach.
    pub instr: Option<InstrInfo>,
}

/// The recording tool: subscribe to everything, append each event to the
/// open chunk's column builders, and close a chunk — blob plus resume
/// snapshot — every [`CHUNK_EVENTS`] records.
pub struct TraceRecorder {
    info: Option<ProgramInfo>,
    instr: Option<InstrInfo>,
    chunk_events: u64,
    writer: columnar::ChunkWriter,
    blobs: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    /// Snapshot at the open chunk's first record.
    open: ShardContext,
    /// Live registers: the snapshot the next chunk will start from.
    state: ShardContext,
}

impl TraceRecorder {
    /// New recorder closing a chunk every [`CHUNK_EVENTS`] records.
    pub fn new() -> Self {
        Self::with_chunk_events(CHUNK_EVENTS)
    }

    /// New recorder closing a chunk every `n` records (at least 1): the
    /// test hook for chunk boundaries, not a tunable — captures always use
    /// [`CHUNK_EVENTS`]. The chunking decides the shard boundaries a
    /// replay can use; it never changes the event sequence or
    /// [`Trace::digest`].
    #[doc(hidden)]
    pub fn with_chunk_events(n: u64) -> Self {
        let start = ShardContext::default();
        TraceRecorder {
            info: None,
            instr: None,
            chunk_events: n.max(1),
            writer: columnar::ChunkWriter::new(&start),
            blobs: Vec::new(),
            chunks: Vec::new(),
            open: start.clone(),
            state: start,
        }
    }

    /// Consume into the finished trace, closing the open chunk. Panics if
    /// the recorder was never attached to a VM.
    pub fn into_trace(mut self) -> Trace {
        if self.writer.records() > 0 || self.chunks.is_empty() {
            self.close_chunk();
        }
        Trace {
            info: self.info.expect("recorder was attached"),
            events: self.blobs,
            n_events: self.state.start_event,
            chunks: self.chunks,
            instr: self.instr,
        }
    }

    fn close_chunk(&mut self) {
        let start = self.blobs.len() as u64;
        self.writer.finish(&mut self.blobs, &self.state);
        self.chunks.push(ChunkMeta {
            start,
            end: self.blobs.len() as u64,
            ctx: std::mem::replace(&mut self.open, self.state.clone()),
        });
    }

    /// Count the record just appended and close the chunk when it is full.
    #[inline]
    fn advance(&mut self) {
        self.state.start_event += 1;
        if self.writer.records() >= self.chunk_events {
            self.close_chunk();
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Tool for TraceRecorder {
    fn name(&self) -> &str {
        "trace-recorder"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        self.info = Some(info.clone());
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }

    fn on_event(&mut self, ev: &Event) {
        if let Event::Tick { .. } = ev {
            return; // never subscribed
        }
        let s = &mut self.state;
        let icount = ev.icount();
        // A clock that runs backwards wraps here and is rejected on replay.
        self.writer.push(ev, icount.wrapping_sub(s.icount));
        s.icount = icount;
        // Keep the snapshot registers and both call-stack variants current
        // with the tools' own update rules (see `ShardContext`): every
        // routine vs. main-image-only pushes, pop-iff-top-matches on ret.
        match *ev {
            Event::MemRead { ea, sp, rtn, .. } | Event::MemWrite { ea, sp, rtn, .. } => {
                (s.ea, s.sp, s.last_rtn) = (ea, sp, rtn);
            }
            Event::Call { rtn, .. } => s.last_rtn = rtn,
            Event::Ret { rtn, .. } => {
                s.last_rtn = rtn;
                for frames in [&mut s.frames_all, &mut s.frames_main] {
                    if frames.last().is_some_and(|f| f.0 == rtn) {
                        frames.pop();
                    }
                }
            }
            Event::RoutineEnter { rtn, sp, .. } => {
                (s.sp, s.last_rtn) = (sp, rtn);
                s.frames_all.push((rtn, sp));
                let routines = self.info.as_ref().map_or(&[][..], |i| &i.routines);
                if routines.get(rtn.idx()).is_some_and(|r| r.main_image) {
                    s.frames_main.push((rtn, sp));
                }
            }
            Event::Tick { .. } => unreachable!("ticks return above"),
        }
        self.advance();
    }

    fn on_instr(&mut self, info: &InstrInfo) {
        // A gated run: carry the mode metadata into the capture so replay
        // knows exactly which memory events are missing.
        self.instr = Some(info.clone());
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.writer
            .push_fini(final_icount.wrapping_sub(self.state.icount));
        self.state.icount = final_icount;
        self.advance();
    }
}

/// Replay/serialisation error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream is truncated or malformed.
    Malformed(&'static str),
    /// Bad magic/version on load.
    BadHeader,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::BadHeader => write!(f, "not a TQTRACE5 file"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The capture header, parsed up to (but not including) the chunk index.
pub(crate) struct ParsedHeader {
    pub info: ProgramInfo,
    pub n_events: u64,
    /// Length of the blob store in bytes.
    pub blob_len: u64,
    /// Byte offset just past the header.
    pub pos: usize,
}

/// Parse the magic + routine table + counts.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<ParsedHeader, TraceError> {
    if bytes.get(..MAGIC.len()) != Some(MAGIC) {
        return Err(TraceError::BadHeader);
    }
    let mut pos = MAGIC.len();
    let bad = |_: ()| TraceError::Malformed("truncated header");
    let ru = |pos: &mut usize| read_u64(bytes, pos).ok_or(bad(()));
    let stack_base = ru(&mut pos)?;
    let entry = ru(&mut pos)?;
    let n_routines = ru(&mut pos)? as usize;
    let mut routines = Vec::with_capacity(n_routines.min(1 << 16));
    for i in 0..n_routines {
        let name_len = ru(&mut pos)? as usize;
        let name = String::from_utf8(bytes.get(pos..pos + name_len).ok_or(bad(()))?.to_vec())
            .map_err(|_| TraceError::Malformed("bad utf8"))?;
        pos += name_len;
        let img_len = ru(&mut pos)? as usize;
        let image = String::from_utf8(bytes.get(pos..pos + img_len).ok_or(bad(()))?.to_vec())
            .map_err(|_| TraceError::Malformed("bad utf8"))?;
        pos += img_len;
        let main_image = *bytes.get(pos).ok_or(bad(()))? != 0;
        pos += 1;
        let start = ru(&mut pos)?;
        let end = ru(&mut pos)?;
        routines.push(RoutineMeta {
            id: RoutineId(i as u32),
            name,
            image,
            main_image,
            start,
            end,
        });
    }
    let n_events = ru(&mut pos)?;
    let blob_len = ru(&mut pos)?;
    Ok(ParsedHeader {
        info: ProgramInfo {
            routines,
            stack_base,
            entry,
        },
        n_events,
        blob_len,
        pos,
    })
}

/// Parse the optional `TQIM` instrumentation tail at `pos`: end of input
/// is `Ok(None)`; anything else must be a well-formed tagged tail — the
/// writer clearly meant to record a mode and we must not silently
/// misreport a capture as full.
fn parse_instr_tail(bytes: &[u8], pos: &mut usize) -> Result<Option<InstrInfo>, TraceError> {
    if *pos == bytes.len() {
        return Ok(None);
    }
    if bytes.get(*pos..*pos + INSTR_MAGIC.len()) != Some(INSTR_MAGIC) {
        return Err(TraceError::Malformed("trailing bytes after capture"));
    }
    *pos += INSTR_MAGIC.len();
    let len = read_u64(bytes, pos).ok_or(TraceError::Malformed("truncated instr tail"))? as usize;
    let body = bytes
        .get(
            *pos..pos
                .checked_add(len)
                .ok_or(TraceError::Malformed("instr tail overflow"))?,
        )
        .ok_or(TraceError::Malformed("truncated instr tail"))?;
    *pos += len;
    InstrInfo::decode(body)
        .map(Some)
        .ok_or(TraceError::Malformed("malformed instr tail"))
}

impl Trace {
    /// Everything the `TQTRACE5` image holds before the blob store: header
    /// (magic, stack base, entry, routine table, record count, blob-store
    /// length) and chunk index. The index must cover the blob store
    /// contiguously from byte 0.
    fn encode_head(&self) -> Result<Vec<u8>, TraceError> {
        chunk::validate_index(
            &self.chunks,
            self.info.routines.len() as u32,
            self.events.len() as u64,
        )?;
        let mut out = Vec::with_capacity(4096 + 64 * self.chunks.len());
        out.extend_from_slice(MAGIC);
        write_u64(&mut out, self.info.stack_base);
        write_u64(&mut out, self.info.entry);
        write_u64(&mut out, self.info.routines.len() as u64);
        for r in &self.info.routines {
            write_u64(&mut out, r.name.len() as u64);
            out.extend_from_slice(r.name.as_bytes());
            write_u64(&mut out, r.image.len() as u64);
            out.extend_from_slice(r.image.as_bytes());
            out.push(r.main_image as u8);
            write_u64(&mut out, r.start);
            write_u64(&mut out, r.end);
        }
        write_u64(&mut out, self.n_events);
        write_u64(&mut out, self.events.len() as u64);
        chunk::write_index(&mut out, &self.chunks);
        Ok(out)
    }

    /// Serialise to a writer as `TQTRACE5`: header and chunk index, the
    /// blob store as is — nothing is re-encoded — then the `TQIM` tail when
    /// present. A trace whose chunk index does not describe its blob store
    /// (possible only for a hand-built one) fails with
    /// [`std::io::ErrorKind::InvalidData`] before anything is written.
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let head = self
            .encode_head()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(&head)?;
        w.write_all(&self.events)?;
        if let Some(info) = &self.instr {
            let body = info.encode();
            let mut tail = INSTR_MAGIC.to_vec();
            write_u64(&mut tail, body.len() as u64);
            tail.extend_from_slice(&body);
            w.write_all(&tail)?;
        }
        Ok(())
    }

    /// [`Trace::save`]. Kept only because the benchmark harness
    /// (`perfbench/`) calls `save_as(&mut w, TraceFormat::V3)` and is
    /// frozen: workspace changes may not edit it.
    pub fn save_as<W: Write>(&self, w: &mut W, _format: TraceFormat) -> std::io::Result<()> {
        self.save(w)
    }

    /// Deserialise a `TQTRACE5` image from a reader. The blob store is
    /// moved out of the image, not decoded, so the loaded trace equals the
    /// one saved. Any other magic, including the earlier `TQTRACE4`
    /// layout, is [`TraceError::BadHeader`].
    pub fn load<R: Read>(r: &mut R) -> Result<Trace, TraceError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)
            .map_err(|_| TraceError::Malformed("io error"))?;
        Ok(StreamingTrace::from_bytes(bytes)?.into_trace())
    }

    /// Average blob-store bytes per record.
    pub fn bytes_per_event(&self) -> f64 {
        self.events.len() as f64 / self.n_events.max(1) as f64
    }

    /// Content digest of the trace itself: the routine table, the record
    /// count, every decoded record's fields at fixed width, and the
    /// instrumentation-mode metadata when present. Two traces digest equal
    /// iff replay delivers the same event sequence *and* the same
    /// [`InstrInfo`] to any tool; the chunking and the blob bytes are
    /// deliberately excluded, so re-chunking a capture never invalidates
    /// cached results. A trace that fails to decode digests its decoded
    /// prefix plus the error.
    pub fn digest(&self) -> String {
        let mut d = Digest128::new();
        d.update_u64(self.info.stack_base);
        d.update_u64(self.info.entry);
        d.update_u64(self.info.routines.len() as u64);
        for r in &self.info.routines {
            d.update_str(&r.name);
            d.update_str(&r.image);
            d.update_u64(r.main_image as u64);
            d.update_u64(r.start);
            d.update_u64(r.end);
        }
        d.update_u64(self.n_events);
        let mut events = digest::EventDigest(d);
        let decoded = self
            .driver()
            .and_then(|replay| replay.run(0..self.chunks.len(), &mut events));
        let mut d = events.0;
        if let Err(e) = decoded {
            d.update_str(&e.to_string());
        }
        if let Some(info) = &self.instr {
            d.update_str("instr");
            d.update(&info.encode());
        }
        d.finish_hex()
    }

    /// Serialise to a file, written via a sibling temp file + rename so a
    /// crash mid-write never leaves a torn capture behind. On any error the
    /// temp file is removed and the target is left untouched.
    pub fn save_to_path(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        let saved = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                self.save(&mut f)?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Deserialise from a file.
    pub fn load_from_path(path: &Path) -> Result<Trace, TraceError> {
        let mut f = std::fs::File::open(path).map_err(|_| TraceError::Malformed("open failed"))?;
        Trace::load(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects replayed events for comparison.
    #[derive(Default)]
    struct Collector {
        events: Vec<String>,
        fini: Option<u64>,
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
            self.fini = Some(icount);
        }
    }

    fn dummy_info() -> ProgramInfo {
        ProgramInfo {
            routines: vec![RoutineMeta {
                id: RoutineId(0),
                name: "main".into(),
                image: "app".into(),
                main_image: true,
                start: 0x10000,
                end: 0x10100,
            }],
            stack_base: 0x3FFF_FF00,
            entry: 0x10000,
        }
    }

    #[test]
    fn record_replay_roundtrip_event_for_event() {
        let mut rec = TraceRecorder::new();
        rec.on_attach(&dummy_info());
        let evs = [
            Event::RoutineEnter {
                rtn: RoutineId(0),
                sp: 0x3FFF_FF00,
                icount: 1,
            },
            Event::MemWrite {
                ea: 0x1000_0000,
                size: 8,
                sp: 0x3FFF_FE00,
                icount: 2,
                rtn: RoutineId(0),
            },
            Event::MemRead {
                ea: 0x1000_0000,
                size: 4,
                sp: 0x3FFF_FE00,
                is_prefetch: false,
                icount: 3,
                rtn: RoutineId(0),
            },
            Event::MemRead {
                ea: 0x1000_0040,
                size: 8,
                sp: 0x3FFF_FE00,
                is_prefetch: true,
                icount: 4,
                rtn: RoutineId(0),
            },
            Event::Call {
                icount: 5,
                rtn: RoutineId(0),
            },
            Event::Ret {
                icount: 9,
                rtn: RoutineId(0),
            },
        ];
        let mut expected = Vec::new();
        for e in &evs {
            rec.on_event(e);
            expected.push(format!("{e:?}"));
        }
        rec.on_fini(12);
        let trace = rec.into_trace();

        let mut c = Collector::default();
        trace.replay(&mut c).unwrap();
        assert_eq!(c.events, expected);
        assert_eq!(c.fini, Some(12));
        assert!(
            trace.bytes_per_event() < 16.0,
            "{} B/event",
            trace.bytes_per_event()
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rec = TraceRecorder::new();
        rec.on_attach(&dummy_info());
        rec.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 100,
            icount: 1,
        });
        rec.on_fini(5);
        let trace = rec.into_trace().with_chunk_index(DEFAULT_CHUNKS).unwrap();

        let mut bytes = Vec::new();
        trace.save(&mut bytes).unwrap();
        let back = Trace::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn load_rejects_garbage() {
        assert_eq!(Trace::load(&mut &b"nope"[..]), Err(TraceError::BadHeader));
        let mut bytes = Vec::new();
        TraceRecorder::new()
            .into_trace_guarded(&dummy_info())
            .save(&mut bytes)
            .unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(Trace::load(&mut bytes.as_slice()).is_err());
    }

    impl TraceRecorder {
        /// Test helper: force-attach and convert.
        fn into_trace_guarded(mut self, info: &ProgramInfo) -> Trace {
            self.on_attach(info);
            self.on_fini(1);
            self.into_trace()
        }
    }

    #[test]
    fn digest_tracks_content() {
        let mut rec = TraceRecorder::new();
        rec.on_attach(&dummy_info());
        rec.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 100,
            icount: 1,
        });
        rec.on_fini(5);
        let t1 = rec.into_trace();
        assert_eq!(t1.digest(), t1.digest(), "digest is a pure function");

        let mut rec2 = TraceRecorder::new();
        rec2.on_attach(&dummy_info());
        rec2.on_event(&Event::RoutineEnter {
            rtn: RoutineId(0),
            sp: 100,
            icount: 2,
        });
        rec2.on_fini(5);
        assert_ne!(t1.digest(), rec2.into_trace().digest());
    }

    #[test]
    fn save_load_via_path() {
        let mut rec = TraceRecorder::new();
        rec.on_attach(&dummy_info());
        rec.on_fini(3);
        let trace = rec.into_trace().with_chunk_index(DEFAULT_CHUNKS).unwrap();
        let dir = std::env::temp_dir().join("tq-trace-path-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.capture");
        trace.save_to_path(&path).unwrap();
        let back = Trace::load_from_path(&path).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.digest(), trace.digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesised_ticks_fire_on_schedule() {
        struct Ticker {
            ticks: Vec<u64>,
        }
        impl Tool for Ticker {
            fn name(&self) -> &str {
                "ticker"
            }
            fn instrument_ins(&mut self, _: &InsContext<'_>) -> HookMask {
                0
            }
            fn tick_interval(&self) -> Option<u64> {
                Some(10)
            }
            fn on_event(&mut self, ev: &Event) {
                if let Event::Tick { icount, .. } = ev {
                    self.ticks.push(*icount);
                }
            }
        }
        let mut rec = TraceRecorder::new();
        rec.on_attach(&dummy_info());
        for i in [3u64, 12, 25, 47] {
            rec.on_event(&Event::RoutineEnter {
                rtn: RoutineId(0),
                sp: 0,
                icount: i,
            });
        }
        rec.on_fini(50);
        let trace = rec.into_trace();
        let mut t = Ticker { ticks: Vec::new() };
        trace.replay(&mut t).unwrap();
        assert_eq!(t.ticks, vec![10, 20, 30, 40, 50]);
    }
}
