//! TQTRACE3 per-chunk columnar codec.
//!
//! The row encoding ([`crate::TraceRecorder`]) interleaves every event's
//! fields, so the delta streams mix instruction pointers with effective
//! addresses with stack pointers — good for one-pass appends, bad for
//! compression. This module re-shapes one chunk's row bytes into *columns*:
//! a global kind column, a global Δ-icount column, and one column per
//! (kind, field) pair, so each column sees a single homogeneous stride
//! (read EAs only ever follow read EAs). Address-like columns are re-deltaed
//! *within the column* (zigzag varint vs. the previous value in the same
//! column, seeded from the chunk's [`ShardContext`]), which turns strided
//! loops into constant byte runs; a cheap byte-run RLE then folds those
//! runs. Columns where RLE does not win are stored raw.
//!
//! The codec is **exactly invertible**: [`decode_chunk`] re-encodes the
//! original row bytes (the canonical varint writer is deterministic), so a
//! capture loads to a [`crate::Trace`] that is byte-identical — same
//! digest, same replay — to the one saved. `save` verifies that inversion
//! per chunk and fails if a chunk's rows are not canonically encoded
//! (possible only for hand-crafted streams).
//!
//! Decoding is panic-proof: truncated varints, bad column lengths, corrupt
//! RLE, and unknown kinds or flags all return `Err`, never panic, and every
//! allocation is bounded by the declared event count before it is trusted.

use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::{TraceError, K_CALL, K_FINI, K_MEM_READ, K_MEM_WRITE, K_RET, K_RTN_ENTER};
use std::borrow::Cow;
use tq_vm::ShardContext;

// Column order inside a chunk blob. Grouping by (kind, field) keeps each
// column's stride uniform, which is where the delta+RLE win comes from.
const C_KIND: usize = 0; // one raw byte per event
const C_DIC: usize = 1; // Δ-icount, same values the row encoding stores
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

/// Worst-case bytes one event can contribute to a single column (a 10-byte
/// varint plus slack); used to bound column allocations during decode.
const MAX_COL_BYTES_PER_EVENT: usize = 11;

/// Per-column previous absolute values for the address-like columns,
/// seeded from the chunk's resume snapshot so chunk 0 of a fresh trace
/// starts from the zero registers, exactly like the row decoder.
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

/// Shape one chunk's row bytes into a column blob. `ctx` is the chunk's
/// resume snapshot (the same one sharded replay uses), which seeds both the
/// row-delta decoder and the per-column previous values.
pub(crate) fn encode_chunk(rows: &[u8], ctx: &ShardContext) -> Result<Vec<u8>, TraceError> {
    let mut cols: Vec<Vec<u8>> = (0..N_COLS).map(|_| Vec::new()).collect();
    let mut ip = ctx.ip;
    let mut ea = ctx.ea;
    let mut sp = ctx.sp;
    let mut prev = ColPrev::from_ctx(ctx);
    let mut pos = 0usize;
    let mut n_ev: u64 = 0;
    macro_rules! ru {
        () => {
            read_u64(rows, &mut pos).ok_or(TraceError::Malformed("truncated varint"))?
        };
    }
    macro_rules! ri {
        () => {
            read_i64(rows, &mut pos).ok_or(TraceError::Malformed("truncated varint"))?
        };
    }
    while pos < rows.len() {
        let kind = ru!();
        let dic = ru!();
        if kind > K_FINI {
            return Err(TraceError::Malformed("unknown event kind"));
        }
        cols[C_KIND].push(kind as u8);
        write_u64(&mut cols[C_DIC], dic);
        match kind {
            K_MEM_READ => {
                ip = ip.wrapping_add_signed(ri!());
                ea = ea.wrapping_add_signed(ri!());
                let size = ru!();
                sp = sp.wrapping_add_signed(ri!());
                let pk = ru!();
                delta_to(&mut cols[C_R_IP], &mut prev.r_ip, ip);
                delta_to(&mut cols[C_R_EA], &mut prev.r_ea, ea);
                write_u64(&mut cols[C_R_SIZE], size);
                delta_to(&mut cols[C_R_SP], &mut prev.r_sp, sp);
                write_u64(&mut cols[C_R_PK], pk);
            }
            K_MEM_WRITE => {
                ip = ip.wrapping_add_signed(ri!());
                ea = ea.wrapping_add_signed(ri!());
                let size = ru!();
                sp = sp.wrapping_add_signed(ri!());
                let rtn = ru!();
                delta_to(&mut cols[C_W_IP], &mut prev.w_ip, ip);
                delta_to(&mut cols[C_W_EA], &mut prev.w_ea, ea);
                write_u64(&mut cols[C_W_SIZE], size);
                delta_to(&mut cols[C_W_SP], &mut prev.w_sp, sp);
                write_u64(&mut cols[C_W_RTN], rtn);
            }
            K_CALL => {
                ip = ip.wrapping_add_signed(ri!());
                let callee = ru!();
                let rtn = ru!();
                delta_to(&mut cols[C_C_IP], &mut prev.c_ip, ip);
                write_u64(&mut cols[C_C_CALLEE], callee);
                write_u64(&mut cols[C_C_RTN], rtn);
            }
            K_RET => {
                ip = ip.wrapping_add_signed(ri!());
                // The row stores return_to relative to the *updated* ip.
                let ret_to = ip.wrapping_add_signed(ri!());
                let rtn = ru!();
                delta_to(&mut cols[C_T_IP], &mut prev.t_ip, ip);
                delta_to(&mut cols[C_T_RET], &mut prev.t_ret, ret_to);
                write_u64(&mut cols[C_T_RTN], rtn);
            }
            K_RTN_ENTER => {
                let rtn = ru!();
                sp = sp.wrapping_add_signed(ri!());
                write_u64(&mut cols[C_E_RTN], rtn);
                delta_to(&mut cols[C_E_SP], &mut prev.e_sp, sp);
            }
            _ => {} // K_FINI: head only
        }
        n_ev += 1;
    }
    let mut blob = Vec::new();
    write_u64(&mut blob, n_ev);
    for col in &cols {
        write_column(&mut blob, col);
    }
    Ok(blob)
}

/// Invert [`encode_chunk`]: rebuild the chunk's row bytes from a column
/// blob. `max_rows_len` is the byte length the chunk index promises for
/// this chunk; it bounds every allocation before the blob is trusted.
pub(crate) fn decode_chunk(
    blob: &[u8],
    ctx: &ShardContext,
    max_rows_len: usize,
) -> Result<Vec<u8>, TraceError> {
    let trunc = TraceError::Malformed("truncated chunk blob");
    let mut pos = 0usize;
    let n_ev = read_u64(blob, &mut pos).ok_or(trunc)? as usize;
    // Every event costs at least two row bytes (kind + Δ-icount), so a
    // count that implies more rows than the index promised is corrupt.
    if n_ev > max_rows_len / 2 + 1 {
        return Err(TraceError::Malformed("implausible chunk event count"));
    }
    let col_cap = n_ev * MAX_COL_BYTES_PER_EVENT + 16;

    let mut cols: Vec<Cow<'_, [u8]>> = Vec::with_capacity(N_COLS);
    for _ in 0..N_COLS {
        let flag = *blob.get(pos).ok_or(trunc)?;
        pos += 1;
        let raw_len = read_u64(blob, &mut pos).ok_or(trunc)? as usize;
        if raw_len > col_cap {
            return Err(TraceError::Malformed("implausible column length"));
        }
        match flag {
            0 => {
                let s = blob.get(pos..pos + raw_len).ok_or(trunc)?;
                pos += raw_len;
                cols.push(Cow::Borrowed(s));
            }
            1 => {
                let stored_len = read_u64(blob, &mut pos).ok_or(trunc)? as usize;
                if stored_len >= raw_len.max(1) {
                    // RLE is only ever written when strictly smaller.
                    return Err(TraceError::Malformed("rle column not smaller than raw"));
                }
                let s = blob.get(pos..pos + stored_len).ok_or(trunc)?;
                pos += stored_len;
                let raw = rle_decompress(s, raw_len)
                    .ok_or(TraceError::Malformed("corrupt rle column"))?;
                cols.push(Cow::Owned(raw));
            }
            _ => return Err(TraceError::Malformed("unknown column flag")),
        }
    }
    if pos != blob.len() {
        return Err(TraceError::Malformed("trailing bytes in chunk blob"));
    }
    if cols[C_KIND].len() != n_ev {
        return Err(TraceError::Malformed("kind column length mismatch"));
    }

    let mut cur = [0usize; N_COLS];
    macro_rules! cu {
        ($c:expr) => {
            read_u64(&cols[$c], &mut cur[$c]).ok_or(TraceError::Malformed("truncated column"))?
        };
    }
    macro_rules! cd {
        ($c:expr, $prev:expr) => {{
            let d = read_i64(&cols[$c], &mut cur[$c])
                .ok_or(TraceError::Malformed("truncated column"))?;
            $prev = $prev.wrapping_add_signed(d);
            $prev
        }};
    }

    let mut out = Vec::with_capacity(max_rows_len);
    let mut ip = ctx.ip;
    let mut ea = ctx.ea;
    let mut sp = ctx.sp;
    let mut prev = ColPrev::from_ctx(ctx);
    for i in 0..n_ev {
        let kind = cols[C_KIND][i] as u64;
        let dic = cu!(C_DIC);
        write_u64(&mut out, kind);
        write_u64(&mut out, dic);
        match kind {
            K_MEM_READ => {
                let a_ip = cd!(C_R_IP, prev.r_ip);
                let a_ea = cd!(C_R_EA, prev.r_ea);
                let size = cu!(C_R_SIZE);
                let a_sp = cd!(C_R_SP, prev.r_sp);
                let pk = cu!(C_R_PK);
                write_i64(&mut out, (a_ip as i64).wrapping_sub(ip as i64));
                ip = a_ip;
                write_i64(&mut out, (a_ea as i64).wrapping_sub(ea as i64));
                ea = a_ea;
                write_u64(&mut out, size);
                write_i64(&mut out, (a_sp as i64).wrapping_sub(sp as i64));
                sp = a_sp;
                write_u64(&mut out, pk);
            }
            K_MEM_WRITE => {
                let a_ip = cd!(C_W_IP, prev.w_ip);
                let a_ea = cd!(C_W_EA, prev.w_ea);
                let size = cu!(C_W_SIZE);
                let a_sp = cd!(C_W_SP, prev.w_sp);
                let rtn = cu!(C_W_RTN);
                write_i64(&mut out, (a_ip as i64).wrapping_sub(ip as i64));
                ip = a_ip;
                write_i64(&mut out, (a_ea as i64).wrapping_sub(ea as i64));
                ea = a_ea;
                write_u64(&mut out, size);
                write_i64(&mut out, (a_sp as i64).wrapping_sub(sp as i64));
                sp = a_sp;
                write_u64(&mut out, rtn);
            }
            K_CALL => {
                let a_ip = cd!(C_C_IP, prev.c_ip);
                let callee = cu!(C_C_CALLEE);
                let rtn = cu!(C_C_RTN);
                write_i64(&mut out, (a_ip as i64).wrapping_sub(ip as i64));
                ip = a_ip;
                write_u64(&mut out, callee);
                write_u64(&mut out, rtn);
            }
            K_RET => {
                let a_ip = cd!(C_T_IP, prev.t_ip);
                let ret_to = cd!(C_T_RET, prev.t_ret);
                let rtn = cu!(C_T_RTN);
                write_i64(&mut out, (a_ip as i64).wrapping_sub(ip as i64));
                ip = a_ip;
                write_i64(&mut out, (ret_to as i64).wrapping_sub(ip as i64));
                write_u64(&mut out, rtn);
            }
            K_RTN_ENTER => {
                let rtn = cu!(C_E_RTN);
                let a_sp = cd!(C_E_SP, prev.e_sp);
                write_u64(&mut out, rtn);
                write_i64(&mut out, (a_sp as i64).wrapping_sub(sp as i64));
                sp = a_sp;
            }
            K_FINI => {}
            _ => return Err(TraceError::Malformed("unknown event kind")),
        }
    }
    for c in 0..N_COLS {
        if c != C_KIND && cur[c] != cols[c].len() {
            return Err(TraceError::Malformed("column length mismatch"));
        }
    }
    Ok(out)
}

/// Serialise one column: flag byte (0 = raw, 1 = RLE), uncompressed length,
/// then either the raw bytes or `stored_len` + compressed bytes. RLE is
/// used only when strictly smaller.
fn write_column(blob: &mut Vec<u8>, raw: &[u8]) {
    match rle_compress(raw) {
        Some(rle) => {
            blob.push(1);
            write_u64(blob, raw.len() as u64);
            write_u64(blob, rle.len() as u64);
            blob.extend_from_slice(&rle);
        }
        None => {
            blob.push(0);
            write_u64(blob, raw.len() as u64);
            blob.extend_from_slice(raw);
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
    while i < raw.len() {
        let b = raw[i];
        let mut j = i + 1;
        while j < raw.len() && raw[j] == b && j - i < 0x7F + 3 {
            j += 1;
        }
        let run = j - i;
        if run >= 3 {
            flush_literals(&mut out, &raw[lit_start..i]);
            out.push(0x80 | (run - 3) as u8);
            out.push(b);
            i = j;
            lit_start = i;
        } else {
            i = j;
        }
        if out.len() + (i - lit_start) >= raw.len() {
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

/// Invert [`rle_compress`]. `None` on any inconsistency: truncated runs or
/// an output length other than exactly `raw_len`.
fn rle_decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            let lit = src.get(i..i + n)?;
            out.extend_from_slice(lit);
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
    (out.len() == raw_len).then_some(out)
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
        for raw in cases {
            match rle_compress(&raw) {
                Some(c) => {
                    assert!(c.len() < raw.len());
                    assert_eq!(rle_decompress(&c, raw.len()).unwrap(), raw);
                }
                None => {} // incompressible: stored raw by write_column
            }
        }
        // A long constant run compresses massively.
        let c = rle_compress(&vec![0u8; 1000]).unwrap();
        assert!(c.len() <= 2 * (1000 / 130 + 1));
    }

    #[test]
    fn rle_decompress_rejects_corruption() {
        let c = rle_compress(&vec![5u8; 100]).unwrap();
        assert_eq!(rle_decompress(&c, 99), None, "wrong declared length");
        assert_eq!(rle_decompress(&c[..c.len() - 1], 100), None, "truncated");
        let mut lit = vec![0x7Fu8]; // promises 128 literal bytes, has none
        lit.push(1);
        assert_eq!(rle_decompress(&lit, 128), None);
    }
}
