//! Reference model of the event stream: the delta+varint *row* codec the
//! capture format used before events were recorded straight into columns.
//! Every event is one row — kind, Δ-icount, then its fields, addresses as
//! deltas against shared ea/sp registers — so the row stream is the plain,
//! obviously-correct serialisation the column path is checked against:
//! [`RowRecorder`] writes it from live or synthetic events, [`decode_rows`]
//! reads it back, and its length is the reference for the column format's
//! size gates.

use tq_isa::RoutineId;
use tq_vm::{standard_mask, Event, HookMask, InsContext, ProgramInfo, Tool};

const K_MEM_READ: u64 = 0;
const K_MEM_WRITE: u64 = 1;
const K_CALL: u64 = 2;
const K_RET: u64 = 3;
const K_RTN_ENTER: u64 = 4;
const K_FINI: u64 = 5;

fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn write_i64(buf: &mut Vec<u8>, v: i64) {
    write_u64(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut out = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(out);
        }
    }
    None
}

fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    let z = read_u64(buf, pos)?;
    Some(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Row-codec delta registers, shared by writer and reader.
#[derive(Default)]
struct Regs {
    icount: u64,
    ea: u64,
    sp: u64,
}

/// A recording tool that writes the row stream.
#[derive(Default)]
pub struct RowRecorder {
    /// The row stream.
    pub rows: Vec<u8>,
    /// Records written, `Fini` included.
    pub n_records: u64,
    regs: Regs,
}

impl RowRecorder {
    fn head(&mut self, kind: u64, icount: u64) {
        write_u64(&mut self.rows, kind);
        write_u64(&mut self.rows, icount.wrapping_sub(self.regs.icount));
        self.regs.icount = icount;
        self.n_records += 1;
    }

    fn delta(&mut self, abs: u64, reg: fn(&mut Regs) -> &mut u64) {
        let r = reg(&mut self.regs);
        write_i64(&mut self.rows, (abs as i64).wrapping_sub(*r as i64));
        *r = abs;
    }
}

impl Tool for RowRecorder {
    fn name(&self) -> &str {
        "row-recorder"
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                icount,
                rtn,
            } => {
                self.head(K_MEM_READ, icount);
                self.delta(ea, |r| &mut r.ea);
                write_u64(&mut self.rows, size as u64);
                self.delta(sp, |r| &mut r.sp);
                write_u64(&mut self.rows, ((rtn.0 as u64) << 1) | is_prefetch as u64);
            }
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
            } => {
                self.head(K_MEM_WRITE, icount);
                self.delta(ea, |r| &mut r.ea);
                write_u64(&mut self.rows, size as u64);
                self.delta(sp, |r| &mut r.sp);
                write_u64(&mut self.rows, rtn.0 as u64);
            }
            Event::Call { icount, rtn } => {
                self.head(K_CALL, icount);
                write_u64(&mut self.rows, rtn.0 as u64);
            }
            Event::Ret { icount, rtn } => {
                self.head(K_RET, icount);
                write_u64(&mut self.rows, rtn.0 as u64);
            }
            Event::RoutineEnter { rtn, sp, icount } => {
                self.head(K_RTN_ENTER, icount);
                write_u64(&mut self.rows, rtn.0 as u64);
                self.delta(sp, |r| &mut r.sp);
            }
            Event::Tick { .. } => {}
        }
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.head(K_FINI, final_icount);
    }
}

/// One decoded row.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// An instrumentation event.
    Event(Event),
    /// The end-of-run record and its final clock.
    Fini(u64),
}

/// Decode a whole row stream, stopping after a `Fini` row.
pub fn decode_rows(rows: &[u8]) -> Result<Vec<Record>, &'static str> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut r = Regs::default();
    let u = |pos: &mut usize| read_u64(rows, pos).ok_or("truncated row");
    let i = |pos: &mut usize| read_i64(rows, pos).ok_or("truncated row");
    let rid = |v: u64| RoutineId(v as u32);
    while pos < rows.len() {
        let kind = u(&mut pos)?;
        r.icount = r.icount.wrapping_add(u(&mut pos)?);
        let icount = r.icount;
        let ev = match kind {
            K_MEM_READ | K_MEM_WRITE => {
                r.ea = r.ea.wrapping_add_signed(i(&mut pos)?);
                let size = u(&mut pos)? as u32;
                r.sp = r.sp.wrapping_add_signed(i(&mut pos)?);
                let last = u(&mut pos)?;
                if kind == K_MEM_READ {
                    Event::MemRead {
                        ea: r.ea,
                        size,
                        sp: r.sp,
                        is_prefetch: last & 1 != 0,
                        icount,
                        rtn: rid(last >> 1),
                    }
                } else {
                    Event::MemWrite {
                        ea: r.ea,
                        size,
                        sp: r.sp,
                        icount,
                        rtn: rid(last),
                    }
                }
            }
            K_CALL => Event::Call {
                icount,
                rtn: rid(u(&mut pos)?),
            },
            K_RET => Event::Ret {
                icount,
                rtn: rid(u(&mut pos)?),
            },
            K_RTN_ENTER => {
                let rtn = rid(u(&mut pos)?);
                r.sp = r.sp.wrapping_add_signed(i(&mut pos)?);
                Event::RoutineEnter {
                    rtn,
                    sp: r.sp,
                    icount,
                }
            }
            K_FINI => {
                out.push(Record::Fini(icount));
                return Ok(out);
            }
            _ => return Err("unknown event kind"),
        };
        out.push(Record::Event(ev));
    }
    Ok(out)
}

/// Record `events` then a `Fini` at `fini` through `tool`, as a VM run
/// would deliver them.
pub fn feed(tool: &mut dyn Tool, info: &ProgramInfo, events: &[Event], fini: u64) {
    tool.on_attach(info);
    for ev in events {
        tool.on_event(ev);
    }
    tool.on_fini(fini);
}
