//! The capture event representation: one column blob per chunk.
//!
//! A chunk's events are stored as *columns*: a kind column (one byte per
//! record), a Δ-icount column, and one column per (kind, field) pair, so
//! each column sees a single homogeneous stride (read EAs only ever follow
//! read EAs). Address-like columns hold zigzag-varint deltas against the
//! previous value *in the same column*, seeded from the chunk's
//! [`ShardContext`], which turns strided loops into constant byte runs; a
//! cheap byte-run RLE then folds those runs. Columns where RLE does not win
//! are stored raw.
//!
//! [`ChunkWriter`] appends events straight into the column builders while
//! the VM runs, and [`replay_chunk`] is the only reader: it decodes a blob
//! straight into [`Event`]s for a tool. There is no intermediate row
//! stream, so what replays is by construction what was recorded.
//!
//! Decoding is panic-proof: truncated varints, bad column lengths, corrupt
//! RLE, unknown kinds, out-of-table routine ids, implausible access sizes
//! and clocks that stand at 0 or wrap all return `Err`, never panic, and
//! every allocation is bounded by the blob's own size before it is trusted.

use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::TraceError;
use tq_isa::RoutineId;
use tq_vm::{hooks, Event, ShardContext, Tool};

const K_MEM_READ: u8 = 0;
const K_MEM_WRITE: u8 = 1;
const K_CALL: u8 = 2;
const K_RET: u8 = 3;
const K_RTN_ENTER: u8 = 4;
const K_FINI: u8 = 5;

// Column order inside a chunk blob. Grouping by (kind, field) keeps each
// column's stride uniform, which is where the delta+RLE win comes from.
const C_KIND: usize = 0; // one raw byte per record
const C_DIC: usize = 1; // Δ-icount against the previous record
const C_R_IP: usize = 2; // MemRead: ip, ea, size, sp, packed rtn/prefetch
const C_R_EA: usize = 3;
const C_R_SIZE: usize = 4;
const C_R_SP: usize = 5;
const C_R_PK: usize = 6;
const C_W_IP: usize = 7; // MemWrite: ip, ea, size, sp, rtn
const C_W_EA: usize = 8;
const C_W_SIZE: usize = 9;
const C_W_SP: usize = 10;
const C_W_RTN: usize = 11;
const C_C_IP: usize = 12; // Call: ip, callee, rtn
const C_C_CALLEE: usize = 13;
const C_C_RTN: usize = 14;
const C_T_IP: usize = 15; // Ret: ip, return_to, rtn
const C_T_RET: usize = 16;
const C_T_RTN: usize = 17;
const C_E_RTN: usize = 18; // RoutineEnter: rtn, sp
const C_E_SP: usize = 19;
const N_COLS: usize = 20;

/// Largest factor by which RLE can expand a stored column: a two-byte
/// repeat token stands for at most 130 bytes.
const MAX_RLE_EXPANSION: usize = 65;

/// Most bytes one record adds to one column: a full-width varint.
const MAX_VARINT_BYTES: u64 = 10;

/// Upper bound on a single access size the decoder will believe. Real
/// accesses are a handful of bytes (the VM records per-instruction loads
/// and stores); anything bigger is corrupt, and rejecting it here keeps
/// downstream per-byte structures (shadow memory, UnMA bitmaps) from
/// chewing through gigabytes of garbage.
const MAX_ACCESS_BYTES: u64 = 1 << 16;

/// Per-column previous absolute values for the address-like columns,
/// seeded from the chunk's resume snapshot.
struct ColPrev {
    r_ip: u64,
    r_ea: u64,
    r_sp: u64,
    w_ip: u64,
    w_ea: u64,
    w_sp: u64,
    c_ip: u64,
    t_ip: u64,
    t_ret: u64,
    e_sp: u64,
}

impl ColPrev {
    fn from_ctx(ctx: &ShardContext) -> ColPrev {
        ColPrev {
            r_ip: ctx.ip,
            r_ea: ctx.ea,
            r_sp: ctx.sp,
            w_ip: ctx.ip,
            w_ea: ctx.ea,
            w_sp: ctx.sp,
            c_ip: ctx.ip,
            t_ip: ctx.ip,
            t_ret: ctx.ip,
            e_sp: ctx.sp,
        }
    }
}

#[inline]
fn delta_to(col: &mut Vec<u8>, prev: &mut u64, abs: u64) {
    write_i64(col, (abs as i64).wrapping_sub(*prev as i64));
    *prev = abs;
}

/// Column builders for the chunk being recorded.
pub(crate) struct ChunkWriter {
    cols: [Vec<u8>; N_COLS],
    prev: ColPrev,
    records: u64,
}

impl ChunkWriter {
    /// An empty chunk whose in-column deltas start from `ctx`.
    pub(crate) fn new(ctx: &ShardContext) -> ChunkWriter {
        ChunkWriter {
            cols: Default::default(),
            prev: ColPrev::from_ctx(ctx),
            records: 0,
        }
    }

    /// Records appended since the chunk opened.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Append one event, `dic` instructions after the previous record.
    /// Ticks are never recorded.
    #[inline]
    pub(crate) fn push(&mut self, ev: &Event, dic: u64) {
        let (c, p) = (&mut self.cols, &mut self.prev);
        let kind = match *ev {
            Event::MemRead {
                ip,
                ea,
                size,
                sp,
                is_prefetch,
                rtn,
                ..
            } => {
                delta_to(&mut c[C_R_IP], &mut p.r_ip, ip);
                delta_to(&mut c[C_R_EA], &mut p.r_ea, ea);
                write_u64(&mut c[C_R_SIZE], size as u64);
                delta_to(&mut c[C_R_SP], &mut p.r_sp, sp);
                write_u64(&mut c[C_R_PK], ((rtn.0 as u64) << 1) | is_prefetch as u64);
                K_MEM_READ
            }
            Event::MemWrite {
                ip,
                ea,
                size,
                sp,
                rtn,
                ..
            } => {
                delta_to(&mut c[C_W_IP], &mut p.w_ip, ip);
                delta_to(&mut c[C_W_EA], &mut p.w_ea, ea);
                write_u64(&mut c[C_W_SIZE], size as u64);
                delta_to(&mut c[C_W_SP], &mut p.w_sp, sp);
                write_u64(&mut c[C_W_RTN], rtn.0 as u64);
                K_MEM_WRITE
            }
            Event::Call {
                ip, callee, rtn, ..
            } => {
                delta_to(&mut c[C_C_IP], &mut p.c_ip, ip);
                write_u64(&mut c[C_C_CALLEE], callee.0 as u64);
                write_u64(&mut c[C_C_RTN], rtn.0 as u64);
                K_CALL
            }
            Event::Ret {
                ip, return_to, rtn, ..
            } => {
                delta_to(&mut c[C_T_IP], &mut p.t_ip, ip);
                delta_to(&mut c[C_T_RET], &mut p.t_ret, return_to);
                write_u64(&mut c[C_T_RTN], rtn.0 as u64);
                K_RET
            }
            Event::RoutineEnter { rtn, sp, .. } => {
                write_u64(&mut c[C_E_RTN], rtn.0 as u64);
                delta_to(&mut c[C_E_SP], &mut p.e_sp, sp);
                K_RTN_ENTER
            }
            Event::Tick { .. } => return,
        };
        self.head(kind, dic);
    }

    /// Append the end-of-run record.
    pub(crate) fn push_fini(&mut self, dic: u64) {
        self.head(K_FINI, dic);
    }

    #[inline]
    fn head(&mut self, kind: u8, dic: u64) {
        self.cols[C_KIND].push(kind);
        write_u64(&mut self.cols[C_DIC], dic);
        self.records += 1;
    }

    /// Append the chunk's blob to `out` (record count, then each column:
    /// flag byte 0 = raw / 1 = RLE, uncompressed length, and for RLE the
    /// stored length, then the bytes) and open the next chunk at `next`.
    pub(crate) fn finish(&mut self, out: &mut Vec<u8>, next: &ShardContext) {
        write_u64(out, self.records);
        for col in &mut self.cols {
            write_column(out, col);
            col.clear();
        }
        self.prev = ColPrev::from_ctx(next);
        self.records = 0;
    }
}

/// Serialise one column, RLE-compressed only when that is strictly smaller.
fn write_column(out: &mut Vec<u8>, raw: &[u8]) {
    match rle_compress(raw) {
        Some(rle) => {
            out.push(1);
            write_u64(out, raw.len() as u64);
            write_u64(out, rle.len() as u64);
            out.extend_from_slice(&rle);
        }
        None => {
            out.push(0);
            write_u64(out, raw.len() as u64);
            out.extend_from_slice(raw);
        }
    }
}

/// Byte-run RLE. Token `c < 0x80`: a literal run of `c + 1` bytes follows.
/// Token `c >= 0x80`: the next byte repeats `(c & 0x7F) + 3` times (runs of
/// 1–2 stay literal — a repeat token would not be smaller). Returns `None`
/// unless the compressed form is strictly smaller than the input.
fn rle_compress(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 8);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + 2 < raw.len() {
        // A run of three starting at i or i + 1 needs raw[i + 1] ==
        // raw[i + 2], so a mismatch there skips both positions.
        if raw[i + 1] != raw[i + 2] {
            i += 2;
            continue;
        }
        let b = raw[i];
        if raw[i + 1] != b {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        while j < raw.len() && raw[j] == b && j - i < 0x7F + 3 {
            j += 1;
        }
        flush_literals(&mut out, &raw[lit_start..i]);
        out.push(0x80 | (j - i - 3) as u8);
        out.push(b);
        i = j;
        lit_start = i;
        if out.len() >= raw.len() {
            return None; // cannot win any more
        }
    }
    flush_literals(&mut out, &raw[lit_start..]);
    (out.len() < raw.len()).then_some(out)
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let n = lit.len().min(0x80);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lit[..n]);
        lit = &lit[n..];
    }
}

/// Invert [`rle_compress`] into `out` (cleared first). `None` on any
/// inconsistency: truncated runs or an output length other than exactly
/// `raw_len`.
fn rle_decompress(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    out.reserve(raw_len);
    let mut i = 0usize;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            out.extend_from_slice(src.get(i..i + n)?);
            i += n;
        } else {
            let n = (c & 0x7F) as usize + 3;
            let b = *src.get(i)?;
            i += 1;
            out.resize(out.len() + n, b);
        }
        if out.len() > raw_len {
            return None;
        }
    }
    (out.len() == raw_len).then_some(())
}

/// Decompression buffers for RLE columns, reused from chunk to chunk so a
/// run of chunks decodes without reallocating.
#[derive(Default)]
pub(crate) struct Scratch {
    cols: [Vec<u8>; N_COLS],
}

/// Where the replay of a chunk (or of a run of chunks) ended.
pub(crate) struct ReplayEnd {
    /// Virtual clock after the last record (the starting clock if there
    /// was none).
    pub last_icount: u64,
    /// Whether the replay ended on a `Fini` record, already delivered to
    /// the tool's `on_fini`.
    pub saw_fini: bool,
}

/// The record count a blob declares, read without decoding it.
pub(crate) fn records(blob: &[u8]) -> Result<u64, TraceError> {
    read_u64(blob, &mut 0).ok_or(TraceError::Malformed("truncated chunk blob"))
}

/// Split a blob into its record count and columns, decompressing the RLE
/// ones into `scratch`.
fn columns<'a>(
    blob: &'a [u8],
    scratch: &'a mut Scratch,
) -> Result<(usize, [&'a [u8]; N_COLS]), TraceError> {
    let trunc = TraceError::Malformed("truncated chunk blob");
    let mut pos = 0usize;
    let n = read_u64(blob, &mut pos).ok_or(trunc)?;
    // Raw columns are read in place: their byte range in the blob.
    let mut in_blob: [Option<std::ops::Range<usize>>; N_COLS] = Default::default();
    for (c, slot) in in_blob.iter_mut().enumerate() {
        let flag = *blob.get(pos).ok_or(trunc)?;
        pos += 1;
        let raw_len = read_u64(blob, &mut pos).ok_or(trunc)?;
        if raw_len > n.saturating_mul(MAX_VARINT_BYTES) {
            return Err(TraceError::Malformed("implausible column length"));
        }
        let stored_len = match flag {
            0 => raw_len,
            1 => read_u64(blob, &mut pos).ok_or(trunc)?,
            _ => return Err(TraceError::Malformed("unknown column flag")),
        };
        let end = usize::try_from(stored_len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= blob.len())
            .ok_or(trunc)?;
        let stored = pos..end;
        pos = end;
        if flag == 0 {
            *slot = Some(stored);
            continue;
        }
        if stored_len >= raw_len.max(1) {
            // RLE is only ever written when strictly smaller.
            return Err(TraceError::Malformed("rle column not smaller than raw"));
        }
        if raw_len > (stored.len() * MAX_RLE_EXPANSION) as u64 {
            return Err(TraceError::Malformed("implausible column length"));
        }
        rle_decompress(&blob[stored], raw_len as usize, &mut scratch.cols[c])
            .ok_or(TraceError::Malformed("corrupt rle column"))?;
    }
    if pos != blob.len() {
        return Err(TraceError::Malformed("trailing bytes in chunk blob"));
    }
    let cols: [&[u8]; N_COLS] = std::array::from_fn(|c| match &in_blob[c] {
        Some(r) => &blob[r.clone()],
        None => &scratch.cols[c][..],
    });
    if cols[C_KIND].len() as u64 != n {
        return Err(TraceError::Malformed("kind column length mismatch"));
    }
    Ok((n as usize, cols))
}

/// A cursor over one column's varints.
struct Col<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Col<'_> {
    #[inline(always)]
    fn u(&mut self) -> Result<u64, TraceError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => read_u64(self.buf, &mut self.pos).ok_or(TraceError::Malformed("truncated column")),
        }
    }

    /// The next absolute value of a delta column.
    #[inline(always)]
    fn d(&mut self, prev: &mut u64) -> Result<u64, TraceError> {
        let d =
            read_i64(self.buf, &mut self.pos).ok_or(TraceError::Malformed("truncated column"))?;
        *prev = prev.wrapping_add_signed(d);
        Ok(*prev)
    }
}

/// Replay one chunk blob into `tool`, resuming the in-column deltas, the
/// clock and the tick schedule from the chunk's snapshot `ctx`. The replay
/// driver (see [`crate::stream`]) owns `on_attach` and the fallback
/// `on_fini`; a `Fini` record inside the chunk reaches the tool here.
///
/// Events are validated before they reach the tool — routine ids must be
/// in the routine table (or [`RoutineId::INVALID`] where the live VM can
/// produce it), access sizes must be plausible, a `Fini` must be the last
/// record, and the clock must stay above 0 without wrapping — so tools may
/// index by routine id and slice by `icount - 1` without re-checking,
/// exactly as they do against live VM events.
pub(crate) fn replay_chunk(
    blob: &[u8],
    ctx: &ShardContext,
    n_rtns: u32,
    scratch: &mut Scratch,
    tool: &mut dyn Tool,
) -> Result<ReplayEnd, TraceError> {
    let (n, cols) = {
        let _span = tq_obs::span("decode", "replay");
        columns(blob, scratch)?
    };
    let kinds = cols[C_KIND];
    let mut c = cols.map(|buf| Col { buf, pos: 0 });

    // Per-trace precomputed per-tool event mask (DESIGN.md §14): ask the
    // tool once which event kinds it ever acts on, and skip constructing
    // and delivering the rest. The columns still advance over every
    // record, so the stream decodes identically; only the calls into the
    // tool disappear — which is why a narrowed mask cannot change any
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

    // Validate a routine id against the routine table; INVALID is legal
    // where the live VM can emit it (unresolved call targets, code outside
    // all symbols).
    let rid = |raw: u64| {
        let r = RoutineId(raw as u32);
        if raw > u32::MAX as u64 || (r != RoutineId::INVALID && r.0 >= n_rtns) {
            return Err(TraceError::Malformed("routine id out of range"));
        }
        Ok(r)
    };
    let check_size = |raw: u64| {
        if raw > MAX_ACCESS_BYTES {
            return Err(TraceError::Malformed("implausible access size"));
        }
        Ok(raw as u32)
    };

    let mut prev = ColPrev::from_ctx(ctx);
    let mut icount = ctx.icount;
    let mut ip = ctx.ip; // the most recent event's ip, for ticks
    let mut last_rtn = ctx.last_rtn;
    let mut saw_fini = false;
    for (i, &kind) in kinds.iter().enumerate() {
        icount = icount
            .checked_add(c[C_DIC].u()?)
            .ok_or(TraceError::Malformed("clock overflows"))?;
        if icount == 0 {
            return Err(TraceError::Malformed("record at icount 0"));
        }

        while tick != 0 && next_tick <= icount {
            if mask & hooks::TICK != 0 {
                tool.on_event(&Event::Tick {
                    icount: next_tick,
                    ip,
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
                ip = c[C_R_IP].d(&mut prev.r_ip)?;
                let ea = c[C_R_EA].d(&mut prev.r_ea)?;
                let size = check_size(c[C_R_SIZE].u()?)?;
                let sp = c[C_R_SP].d(&mut prev.r_sp)?;
                let packed = c[C_R_PK].u()?;
                last_rtn = rid(packed >> 1)?;
                if mask & hooks::MEM_READ != 0 {
                    tool.on_event(&Event::MemRead {
                        ip,
                        ea,
                        size,
                        sp,
                        is_prefetch: packed & 1 != 0,
                        icount,
                        rtn: last_rtn,
                    });
                }
            }
            K_MEM_WRITE => {
                ip = c[C_W_IP].d(&mut prev.w_ip)?;
                let ea = c[C_W_EA].d(&mut prev.w_ea)?;
                let size = check_size(c[C_W_SIZE].u()?)?;
                let sp = c[C_W_SP].d(&mut prev.w_sp)?;
                last_rtn = rid(c[C_W_RTN].u()?)?;
                if mask & hooks::MEM_WRITE != 0 {
                    tool.on_event(&Event::MemWrite {
                        ip,
                        ea,
                        size,
                        sp,
                        icount,
                        rtn: last_rtn,
                    });
                }
            }
            K_CALL => {
                ip = c[C_C_IP].d(&mut prev.c_ip)?;
                let callee = rid(c[C_C_CALLEE].u()?)?;
                last_rtn = rid(c[C_C_RTN].u()?)?;
                if mask & hooks::CALL != 0 {
                    tool.on_event(&Event::Call {
                        ip,
                        callee,
                        icount,
                        rtn: last_rtn,
                    });
                }
            }
            K_RET => {
                ip = c[C_T_IP].d(&mut prev.t_ip)?;
                let return_to = c[C_T_RET].d(&mut prev.t_ret)?;
                last_rtn = rid(c[C_T_RTN].u()?)?;
                if mask & hooks::RET != 0 {
                    tool.on_event(&Event::Ret {
                        ip,
                        return_to,
                        icount,
                        rtn: last_rtn,
                    });
                }
            }
            K_RTN_ENTER => {
                let rtn = rid(c[C_E_RTN].u()?)?;
                if rtn == RoutineId::INVALID {
                    // The VM only announces entries to known routines.
                    return Err(TraceError::Malformed("routine id out of range"));
                }
                let sp = c[C_E_SP].d(&mut prev.e_sp)?;
                last_rtn = rtn;
                if mask & hooks::RTN_ENTER != 0 {
                    tool.on_event(&Event::RoutineEnter { rtn, sp, icount });
                }
            }
            K_FINI => {
                if i + 1 != n {
                    return Err(TraceError::Malformed("records after Fini"));
                }
                saw_fini = true;
            }
            _ => return Err(TraceError::Malformed("unknown event kind")),
        }
    }
    if c.iter().skip(1).any(|col| col.pos != col.buf.len()) {
        return Err(TraceError::Malformed("column length mismatch"));
    }
    if saw_fini {
        tool.on_fini(icount);
    }
    Ok(ReplayEnd {
        last_icount: icount,
        saw_fini,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrips_and_only_claims_wins() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],
            vec![1, 2, 3, 4, 5],
            [vec![9u8; 200], vec![1, 2, 3], vec![9u8; 2]].concat(),
            (0..=255u8).cycle().take(700).collect(),
        ];
        let mut out = Vec::new();
        for raw in cases {
            match rle_compress(&raw) {
                Some(c) => {
                    assert!(c.len() < raw.len());
                    assert!(raw.len() <= c.len() * MAX_RLE_EXPANSION);
                    rle_decompress(&c, raw.len(), &mut out).unwrap();
                    assert_eq!(out, raw);
                }
                None => {} // incompressible: stored raw by write_column
            }
        }
        // A long constant run compresses massively.
        let c = rle_compress(&vec![0u8; 1000]).unwrap();
        assert!(c.len() <= 2 * (1000 / 130 + 1));
    }

    #[test]
    fn rle_matches_a_position_by_position_reference() {
        // The reference tries every position in turn: a run of three or
        // more becomes a repeat token (at most 130 long), anything else a
        // literal. The skip-ahead scan must emit exactly the same tokens.
        fn reference(raw: &[u8]) -> Option<Vec<u8>> {
            let (mut out, mut i, mut lit_start) = (Vec::new(), 0, 0);
            while i < raw.len() {
                let mut j = i + 1;
                while j < raw.len() && raw[j] == raw[i] && j - i < 130 {
                    j += 1;
                }
                if j - i >= 3 {
                    flush_literals(&mut out, &raw[lit_start..i]);
                    out.extend_from_slice(&[0x80 | (j - i - 3) as u8, raw[i]]);
                    lit_start = j;
                }
                i = j;
            }
            flush_literals(&mut out, &raw[lit_start..]);
            (out.len() < raw.len()).then_some(out)
        }
        let mut rng = tq_isa::prng::Rng::new(0x41E);
        for case in 0..400 {
            let mut raw = Vec::new();
            while raw.len() < 1 + case {
                let b = rng.index(3) as u8;
                raw.extend(
                    std::iter::repeat(b).take(1 + rng.index(if case % 2 == 0 { 4 } else { 200 })),
                );
            }
            assert_eq!(rle_compress(&raw), reference(&raw), "case {case}: {raw:?}");
        }
    }

    #[test]
    fn rle_decompress_rejects_corruption() {
        let mut out = Vec::new();
        let c = rle_compress(&vec![5u8; 100]).unwrap();
        assert_eq!(rle_decompress(&c, 99, &mut out), None, "wrong length");
        assert_eq!(rle_decompress(&c[..c.len() - 1], 100, &mut out), None);
        let mut lit = vec![0x7Fu8]; // promises 128 literal bytes, has none
        lit.push(1);
        assert_eq!(rle_decompress(&lit, 128, &mut out), None);
    }
}
