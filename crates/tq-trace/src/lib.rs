//! # tq-trace — event-trace recording and offline replay
//!
//! Decouples *capture* from *analysis*, the standard profiler architecture
//! the paper's framework implies: the [`TraceRecorder`] tool runs under
//! the VM once, writing every memory/call/return/routine-entry event into
//! a compact delta+varint stream; [`Trace::replay`] then feeds any
//! [`tq_vm::Tool`] offline, as many times as needed — e.g. the §V.B
//! slice-interval sweep becomes one capture plus N cheap replays instead
//! of N instrumented executions.
//!
//! Replay is **exact** for event-driven tools (tQUAD, QUAD): the replayed
//! event sequence is bit-identical to the live one, which the round-trip
//! tests assert. Tick-driven tools (the sampling profiler) get ticks
//! synthesised from the recorded virtual clock; the tick's instruction
//! pointer is the most recent event's, an approximation documented on
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

    pub fn streamed_chunks() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tq_obs::counter(
                "tq_trace_streamed_chunks_total",
                "Columnar chunks decoded from capture images (streaming replays and loads)",
            )
        })
    }
}

use std::io::{Read, Write};
use std::path::Path;
use tq_isa::RoutineId;
use tq_vm::{
    hooks, standard_mask, Event, HookMask, InsContext, InstrInfo, ProgramInfo, RoutineMeta,
    ShardContext, Tool,
};
use varint::{read_i64, read_u64, write_i64, write_u64};

pub use chunk::{ChunkMeta, DEFAULT_CHUNKS};
pub use digest::{digest_program, Digest128};
pub use stream::StreamingTrace;

/// Magic of the one on-disk format, `TQTRACE3`: header, chunk index, one
/// columnar blob per chunk (see [`columnar`]), the raw bytes past the last
/// chunk, then the optional `TQIM` tail. Anything else — including the
/// retired v1/v2 row-stream layouts — fails to load with
/// [`TraceError::BadHeader`]. Exported so cache layers check the exact
/// magic rather than a prefix.
pub const MAGIC: &[u8; 8] = b"TQTRACE3";
/// Tag of the optional instrumentation-mode tail appended after a capture's
/// structured payload: `TQIM`, a varint byte length, then
/// [`InstrInfo::encode`] bytes. Full-instrumentation captures omit the tail
/// entirely.
const INSTR_MAGIC: &[u8; 4] = b"TQIM";

/// On-disk format selector for [`Trace::save_as`]: `TQTRACE3` is the only
/// format. The enum and `save_as` stay because the benchmark harness
/// (`perfbench/`) calls `save_as(&mut w, TraceFormat::V3)` and is frozen:
/// workspace changes may not edit it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Header + chunk index + per-chunk columnar blobs.
    V3,
}

const K_MEM_READ: u64 = 0;
const K_MEM_WRITE: u64 = 1;
const K_CALL: u64 = 2;
const K_RET: u64 = 3;
const K_RTN_ENTER: u64 = 4;
const K_FINI: u64 = 5;

/// Upper bound on a single access size the decoder will believe. Real
/// accesses are a handful of bytes (the VM records per-instruction loads
/// and stores); anything bigger is a corrupt varint, and rejecting it here
/// keeps downstream per-byte structures (shadow memory, UnMA bitmaps) from
/// chewing through gigabytes of garbage.
const MAX_ACCESS_BYTES: u64 = 1 << 16;

#[inline]
fn check_size(raw: u64) -> Result<u32, TraceError> {
    if raw > MAX_ACCESS_BYTES {
        return Err(TraceError::Malformed("implausible access size"));
    }
    Ok(raw as u32)
}

/// A recorded trace: program facts plus the encoded event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Routine table and stack base, as tools received them at attach time.
    pub info: ProgramInfo,
    /// Encoded events.
    pub events: Vec<u8>,
    /// Number of events recorded.
    pub n_events: u64,
    /// Precomputed chunk index for sharded replay and columnar storage.
    /// `None` until [`Trace::with_chunk_index`] runs; [`Trace::save`]
    /// builds a [`DEFAULT_CHUNKS`] index first when it is absent, and a
    /// loaded trace always has one. Replay semantics and
    /// [`Trace::digest`] are unaffected either way.
    pub chunks: Option<Vec<ChunkMeta>>,
    /// Instrumentation-mode metadata when the capture was recorded under a
    /// reduced mode (`--instr`): what was dropped, and where. Saved as a
    /// tagged tail section; `None` for full captures,
    /// whose on-disk bytes and [`Trace::digest`] are unchanged. Replay
    /// hands it to tools via [`Tool::on_instr`] right after attach.
    pub instr: Option<InstrInfo>,
}

/// Decoder state shared by writer and reader so deltas stay in sync.
#[derive(Default)]
struct DeltaState {
    icount: u64,
    ip: u64,
    ea: u64,
    sp: u64,
}

/// The recording tool: subscribe to everything, append deltas.
pub struct TraceRecorder {
    info: Option<ProgramInfo>,
    buf: Vec<u8>,
    state: DeltaState,
    n_events: u64,
    instr: Option<InstrInfo>,
}

impl TraceRecorder {
    /// New recorder.
    pub fn new() -> Self {
        TraceRecorder {
            info: None,
            buf: Vec::new(),
            state: DeltaState::default(),
            n_events: 0,
            instr: None,
        }
    }

    /// Consume into the finished trace. Panics if the recorder was never
    /// attached to a VM.
    pub fn into_trace(self) -> Trace {
        Trace {
            info: self.info.expect("recorder was attached"),
            events: self.buf,
            n_events: self.n_events,
            chunks: None,
            instr: self.instr,
        }
    }

    #[inline]
    fn head(&mut self, kind: u64, icount: u64) {
        write_u64(&mut self.buf, kind);
        write_u64(&mut self.buf, icount - self.state.icount);
        self.state.icount = icount;
        self.n_events += 1;
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
        match *ev {
            Event::MemRead {
                ip,
                ea,
                size,
                sp,
                is_prefetch,
                icount,
                rtn,
            } => {
                self.head(K_MEM_READ, icount);
                write_i64(&mut self.buf, ip as i64 - self.state.ip as i64);
                self.state.ip = ip;
                write_i64(&mut self.buf, ea as i64 - self.state.ea as i64);
                self.state.ea = ea;
                write_u64(&mut self.buf, size as u64);
                write_i64(&mut self.buf, sp as i64 - self.state.sp as i64);
                self.state.sp = sp;
                write_u64(&mut self.buf, ((rtn.0 as u64) << 1) | is_prefetch as u64);
            }
            Event::MemWrite {
                ip,
                ea,
                size,
                sp,
                icount,
                rtn,
            } => {
                self.head(K_MEM_WRITE, icount);
                write_i64(&mut self.buf, ip as i64 - self.state.ip as i64);
                self.state.ip = ip;
                write_i64(&mut self.buf, ea as i64 - self.state.ea as i64);
                self.state.ea = ea;
                write_u64(&mut self.buf, size as u64);
                write_i64(&mut self.buf, sp as i64 - self.state.sp as i64);
                self.state.sp = sp;
                write_u64(&mut self.buf, rtn.0 as u64);
            }
            Event::Call {
                ip,
                callee,
                icount,
                rtn,
            } => {
                self.head(K_CALL, icount);
                write_i64(&mut self.buf, ip as i64 - self.state.ip as i64);
                self.state.ip = ip;
                write_u64(&mut self.buf, callee.0 as u64);
                write_u64(&mut self.buf, rtn.0 as u64);
            }
            Event::Ret {
                ip,
                return_to,
                icount,
                rtn,
            } => {
                self.head(K_RET, icount);
                write_i64(&mut self.buf, ip as i64 - self.state.ip as i64);
                self.state.ip = ip;
                write_i64(&mut self.buf, return_to as i64 - self.state.ip as i64);
                write_u64(&mut self.buf, rtn.0 as u64);
            }
            Event::RoutineEnter { rtn, sp, icount } => {
                self.head(K_RTN_ENTER, icount);
                write_u64(&mut self.buf, rtn.0 as u64);
                write_i64(&mut self.buf, sp as i64 - self.state.sp as i64);
                self.state.sp = sp;
            }
            Event::Tick { .. } => {} // never subscribed
        }
    }

    fn on_instr(&mut self, info: &InstrInfo) {
        // A gated run: carry the mode metadata into the capture so replay
        // knows exactly which memory events are missing.
        self.instr = Some(info.clone());
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.head(K_FINI, final_icount);
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
            TraceError::BadHeader => write!(f, "not a TQTRACE3 file"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Where a replay of some row bytes stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReplayEnd {
    /// Virtual clock after the last decoded event (the starting clock if
    /// the rows were empty).
    pub last_icount: u64,
    /// Whether the rows ended on a `Fini` record (in which case the tool's
    /// `on_fini` has already been delivered).
    pub saw_fini: bool,
}

impl Trace {
    /// Replay the trace into `tool`: `on_attach`, every event in order,
    /// then `on_fini`. The tool's `instrument_ins` is never called —
    /// recording already applied the standard all-events instrumentation,
    /// so replay delivers a superset of what any instrumentation mask
    /// would have selected; event-driven tools behave identically.
    ///
    /// If the tool requests ticks, they are synthesised whenever the
    /// virtual clock passes a multiple of the interval; the tick's `ip`
    /// and `rtn` are those of the most recent event (live ticks carry the
    /// *current* instruction — exact for event-dense code, approximate
    /// across long event-free stretches).
    pub fn replay(&self, tool: &mut dyn Tool) -> Result<(), TraceError> {
        let whole = [ChunkMeta {
            start: 0,
            end: self.events.len() as u64,
            ctx: ShardContext::default(),
        }];
        let driver = self.driver(&whole);
        driver.sequential(tool)
    }
}

/// The capture header, parsed up to (but not including) the chunk index.
pub(crate) struct ParsedHeader {
    pub info: ProgramInfo,
    pub n_events: u64,
    /// Row event-stream length in bytes: the length the decoded chunks plus
    /// the raw tail must reassemble to.
    pub ev_len: usize,
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
    let ev_len = ru(&mut pos)? as usize;
    Ok(ParsedHeader {
        info: ProgramInfo {
            routines,
            stack_base,
            entry,
        },
        n_events,
        ev_len,
        pos,
    })
}

/// Replay one chunk's row bytes into `tool`, resuming the delta decoder (and
/// the tick schedule) from the snapshot in `ctx`. This is the replay
/// driver's building block (see [`stream`]): `on_attach` is *not* called
/// and no fallback `on_fini` is synthesised — the driver owns both (a
/// `Fini` record inside the rows still reaches the tool).
///
/// Decoding is panic-proof on corrupt input: truncated varints and unknown
/// event kinds return `Err`, delta accumulation wraps rather than
/// overflowing, and events are validated before they reach the tool —
/// routine ids must be in the routine table (or [`RoutineId::INVALID`]
/// where the live VM can produce it) and access sizes must be plausible,
/// so tools may index by routine id without re-checking, exactly as they
/// do against live VM events.
pub(crate) fn replay_rows(
    info: &ProgramInfo,
    buf: &[u8],
    ctx: &ShardContext,
    tool: &mut dyn Tool,
) -> Result<ReplayEnd, TraceError> {
    // Per-trace precomputed per-tool event mask (DESIGN.md §14): ask the
    // tool once which event kinds it ever acts on, and skip constructing
    // and delivering the rest. The delta decoders still advance over every
    // record, so the byte stream decodes identically; only the calls into
    // the tool disappear — which is why a narrowed mask cannot change any
    // tool's output.
    let mask = tool.event_mask();
    let mut tick = tool.tick_interval().unwrap_or(0);
    // First tick strictly after the prefix clock; at stream start
    // (icount 0) this is simply `tick`.
    let mut next_tick = if tick > 0 {
        (ctx.icount / tick)
            .checked_add(1)
            .and_then(|n| n.checked_mul(tick))
            .unwrap_or(u64::MAX)
    } else {
        u64::MAX
    };

    let mut pos = 0usize;
    let mut st = DeltaState {
        icount: ctx.icount,
        ip: ctx.ip,
        ea: ctx.ea,
        sp: ctx.sp,
    };
    let bad = TraceError::Malformed("unknown event kind");
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
    // Validate a routine id against the routine table; INVALID is
    // legal where the live VM can emit it (unresolved call targets,
    // code outside all symbols).
    let n_rtns = info.routines.len() as u32;
    macro_rules! rid {
        ($raw:expr) => {{
            let r = RoutineId($raw as u32);
            if r != RoutineId::INVALID && r.0 >= n_rtns {
                return Err(TraceError::Malformed("routine id out of range"));
            }
            r
        }};
    }

    let mut last_rtn = ctx.last_rtn;
    while pos < buf.len() {
        let kind = ru!();
        let icount = st.icount.wrapping_add(ru!());
        st.icount = icount;

        while tick != 0 && next_tick <= icount {
            if mask & hooks::TICK != 0 {
                tool.on_event(&Event::Tick {
                    icount: next_tick,
                    ip: st.ip,
                    rtn: last_rtn,
                });
            }
            match next_tick.checked_add(tick) {
                Some(n) => next_tick = n,
                None => tick = 0, // clock saturated; no further ticks
            }
        }

        match kind {
            K_MEM_READ => {
                st.ip = st.ip.wrapping_add_signed(ri!());
                st.ea = st.ea.wrapping_add_signed(ri!());
                let size = check_size(ru!())?;
                st.sp = st.sp.wrapping_add_signed(ri!());
                let packed = ru!();
                let rtn = rid!(packed >> 1);
                last_rtn = rtn;
                if mask & hooks::MEM_READ != 0 {
                    tool.on_event(&Event::MemRead {
                        ip: st.ip,
                        ea: st.ea,
                        size,
                        sp: st.sp,
                        is_prefetch: packed & 1 != 0,
                        icount,
                        rtn,
                    });
                }
            }
            K_MEM_WRITE => {
                st.ip = st.ip.wrapping_add_signed(ri!());
                st.ea = st.ea.wrapping_add_signed(ri!());
                let size = check_size(ru!())?;
                st.sp = st.sp.wrapping_add_signed(ri!());
                let rtn = rid!(ru!());
                last_rtn = rtn;
                if mask & hooks::MEM_WRITE != 0 {
                    tool.on_event(&Event::MemWrite {
                        ip: st.ip,
                        ea: st.ea,
                        size,
                        sp: st.sp,
                        icount,
                        rtn,
                    });
                }
            }
            K_CALL => {
                st.ip = st.ip.wrapping_add_signed(ri!());
                let callee = rid!(ru!());
                let rtn = rid!(ru!());
                last_rtn = rtn;
                if mask & hooks::CALL != 0 {
                    tool.on_event(&Event::Call {
                        ip: st.ip,
                        callee,
                        icount,
                        rtn,
                    });
                }
            }
            K_RET => {
                st.ip = st.ip.wrapping_add_signed(ri!());
                let return_to = st.ip.wrapping_add_signed(ri!());
                let rtn = rid!(ru!());
                last_rtn = rtn;
                if mask & hooks::RET != 0 {
                    tool.on_event(&Event::Ret {
                        ip: st.ip,
                        return_to,
                        icount,
                        rtn,
                    });
                }
            }
            K_RTN_ENTER => {
                let rtn = rid!(ru!());
                if rtn == RoutineId::INVALID {
                    // The VM only announces entries to known routines.
                    return Err(TraceError::Malformed("routine id out of range"));
                }
                st.sp = st.sp.wrapping_add_signed(ri!());
                last_rtn = rtn;
                if mask & hooks::RTN_ENTER != 0 {
                    tool.on_event(&Event::RoutineEnter {
                        rtn,
                        sp: st.sp,
                        icount,
                    });
                }
            }
            K_FINI => {
                tool.on_fini(icount);
                return Ok(ReplayEnd {
                    last_icount: icount,
                    saw_fini: true,
                });
            }
            _ => return Err(bad),
        }
    }
    Ok(ReplayEnd {
        last_icount: st.icount,
        saw_fini: false,
    })
}

/// Parse the optional `TQIM` instrumentation tail at `pos`. Absent tail
/// (end of input, or trailing bytes that do not start with the tag) is
/// `Ok(None)` — pre-section writers may leave arbitrary trailing garbage
/// that older loaders also ignored. A *tagged* tail that is truncated or
/// fails [`InstrInfo::decode`] is an error: the writer clearly meant to
/// record a mode and we must not silently misreport a capture as full.
fn parse_instr_tail(bytes: &[u8], pos: &mut usize) -> Result<Option<InstrInfo>, TraceError> {
    match bytes.get(*pos..*pos + INSTR_MAGIC.len()) {
        Some(tag) if tag == INSTR_MAGIC => {}
        _ => return Ok(None),
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
    /// Header bytes: magic, stack base, entry, routine table, event count,
    /// and the row event-stream length.
    fn encode_head(&self) -> Vec<u8> {
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        write_u64(&mut head, self.info.stack_base);
        write_u64(&mut head, self.info.entry);
        write_u64(&mut head, self.info.routines.len() as u64);
        for r in &self.info.routines {
            write_u64(&mut head, r.name.len() as u64);
            head.extend_from_slice(r.name.as_bytes());
            write_u64(&mut head, r.image.len() as u64);
            head.extend_from_slice(r.image.as_bytes());
            head.push(r.main_image as u8);
            write_u64(&mut head, r.start);
            write_u64(&mut head, r.end);
        }
        write_u64(&mut head, self.n_events);
        write_u64(&mut head, self.events.len() as u64);
        head
    }

    /// Encode the `TQTRACE3` byte image, `TQIM` tail included. An
    /// index-less trace is indexed with [`DEFAULT_CHUNKS`] first. The
    /// index must start at byte 0 and be contiguous (which `chunk_index`
    /// always produces); bytes past the last chunk — possible only after a
    /// mid-stream `Fini` — are stored raw so no data is lost. Every chunk
    /// must pass the exact-inversion check: a chunk whose rows are not
    /// canonically encoded (possible only in a hand-crafted stream) is an
    /// error, because a `TQTRACE3` file must load back bit-identical.
    fn encode(&self) -> Result<Vec<u8>, TraceError> {
        let built;
        let chunks = match self.chunks.as_deref() {
            Some(idx) if !idx.is_empty() => idx,
            _ => {
                built = self.chunk_index(DEFAULT_CHUNKS)?;
                &built
            }
        };
        let mut out = self.encode_head();
        chunk::write_index(&mut out, chunks);
        let mut at = 0u64;
        for c in chunks {
            if c.start != at || c.end < c.start || c.end > self.events.len() as u64 {
                return Err(TraceError::Malformed(
                    "chunk index not contiguous from byte 0",
                ));
            }
            at = c.end;
            let rows = &self.events[c.start as usize..c.end as usize];
            let blob = columnar::encode_chunk(rows, &c.ctx)?;
            if columnar::decode_chunk(&blob, &c.ctx, rows.len())? != rows {
                return Err(TraceError::Malformed(
                    "chunk rows are not canonically encoded",
                ));
            }
            write_u64(&mut out, blob.len() as u64);
            out.extend_from_slice(&blob);
        }
        let tail = &self.events[at as usize..];
        write_u64(&mut out, tail.len() as u64);
        out.extend_from_slice(tail);
        if let Some(info) = &self.instr {
            let body = info.encode();
            out.extend_from_slice(INSTR_MAGIC);
            write_u64(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        Ok(out)
    }

    /// Serialise to a writer as `TQTRACE3`, first building a
    /// [`DEFAULT_CHUNKS`] index if the trace has none. A trace that cannot
    /// be encoded exactly — a non-contiguous hand-crafted index, or rows
    /// that are not canonically encoded — fails with
    /// [`std::io::ErrorKind::InvalidData`] before anything is written.
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let bytes = self
            .encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(&bytes)
    }

    /// [`Trace::save`]. Kept only because the benchmark harness
    /// (`perfbench/`) calls `save_as(&mut w, TraceFormat::V3)` and is
    /// frozen: workspace changes may not edit it.
    pub fn save_as<W: Write>(&self, w: &mut W, _format: TraceFormat) -> std::io::Result<()> {
        self.save(w)
    }

    /// Deserialise a `TQTRACE3` image from a reader, decoding every chunk
    /// back into the canonical row stream: the loaded trace is
    /// byte-identical (same digest) to the one saved. Any other magic,
    /// including those of the retired v1/v2 layouts, is [`TraceError::BadHeader`].
    pub fn load<R: Read>(r: &mut R) -> Result<Trace, TraceError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)
            .map_err(|_| TraceError::Malformed("io error"))?;
        StreamingTrace::from_bytes(bytes)?.into_trace()
    }

    /// Average encoded bytes per event.
    pub fn bytes_per_event(&self) -> f64 {
        self.events.len() as f64 / self.n_events.max(1) as f64
    }

    /// Content digest of the trace itself (routine table + event stream +
    /// instrumentation-mode metadata when present). Two traces digest equal
    /// iff replay delivers the same event sequence *and* the same
    /// [`InstrInfo`] to any tool — the chunk index is derived metadata and
    /// deliberately excluded, so indexing a capture never invalidates
    /// cached results. Full captures (`instr: None`) digest exactly as they
    /// did before the section existed.
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
        d.update(&self.events);
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
                ip: 0x10008,
                ea: 0x1000_0000,
                size: 8,
                sp: 0x3FFF_FE00,
                icount: 2,
                rtn: RoutineId(0),
            },
            Event::MemRead {
                ip: 0x10010,
                ea: 0x1000_0000,
                size: 4,
                sp: 0x3FFF_FE00,
                is_prefetch: false,
                icount: 3,
                rtn: RoutineId(0),
            },
            Event::MemRead {
                ip: 0x10018,
                ea: 0x1000_0040,
                size: 8,
                sp: 0x3FFF_FE00,
                is_prefetch: true,
                icount: 4,
                rtn: RoutineId(0),
            },
            Event::Call {
                ip: 0x10020,
                callee: RoutineId(0),
                icount: 5,
                rtn: RoutineId(0),
            },
            Event::Ret {
                ip: 0x10028,
                return_to: 0x10028,
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
