//! Content digests for capture addressing.
//!
//! `tq-profd` keys its capture cache by *what would run*: the program's
//! instruction encodings, entry point, data segments and input bytes. Two
//! independent FNV-1a lanes (different offset bases, both with the 64-bit
//! FNV prime) give a 128-bit digest — not cryptographic, but collision
//! odds are negligible for a cache keyed by a handful of distinct
//! workloads, and the implementation costs nothing (zero external crates).

use tq_isa::Program;
use tq_vm::{Event, HookMask, InsContext, Tool};

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const LANE_A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325; // standard FNV-1a basis
const LANE_B_OFFSET: u64 = 0x6C62_272E_07BB_0142; // FNV-0 of "chongo <Landon Curt Noll> /\\../\\"

/// Two-lane 128-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct Digest128 {
    a: u64,
    b: u64,
}

impl Digest128 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Digest128 {
            a: LANE_A_OFFSET,
            b: LANE_B_OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a u64 (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed string (prefix keeps `"ab","c"` distinct
    /// from `"a","bc"`).
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// Finish: 32 lowercase hex chars.
    pub fn finish_hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest a program: every image's name, base, instruction encodings,
/// routine table and initialised data, plus the entry point. Two programs
/// digest equal iff the VM would execute identical code over identical
/// initial state.
pub fn digest_program(d: &mut Digest128, program: &Program) {
    d.update_u64(program.entry);
    d.update_u64(program.images.len() as u64);
    for img in &program.images {
        d.update_str(&img.name);
        d.update_u64(img.base);
        d.update_u64(img.is_main as u64);
        d.update_u64(img.text.len() as u64);
        for &word in &img.text {
            d.update_u64(word);
        }
        d.update_u64(img.routines.len() as u64);
        for r in &img.routines {
            d.update_str(&r.name);
            d.update_u64(r.start);
            d.update_u64(r.end);
        }
        d.update_u64(img.data.len() as u64);
        for seg in &img.data {
            d.update_u64(seg.addr);
            d.update_u64(seg.bytes.len() as u64);
            d.update(&seg.bytes);
        }
    }
}

/// Hashes a replayed record sequence field by field at fixed width, so the
/// digest depends on the events alone — never on how they were chunked or
/// encoded. The `Fini` record is hashed under its own tag.
pub(crate) struct EventDigest(pub Digest128);

impl Tool for EventDigest {
    fn name(&self) -> &str {
        "event-digest"
    }

    fn instrument_ins(&mut self, _ins: &InsContext<'_>) -> HookMask {
        0
    }

    fn on_event(&mut self, ev: &Event) {
        let d = &mut self.0;
        match *ev {
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                icount,
                rtn,
            } => {
                let prefetch = is_prefetch as u64;
                for v in [0, ea, size as u64, sp, prefetch, icount, rtn.0 as u64] {
                    d.update_u64(v);
                }
            }
            Event::MemWrite {
                ea,
                size,
                sp,
                icount,
                rtn,
            } => {
                for v in [1, ea, size as u64, sp, icount, rtn.0 as u64] {
                    d.update_u64(v);
                }
            }
            Event::Call { icount, rtn } => {
                for v in [2, icount, rtn.0 as u64] {
                    d.update_u64(v);
                }
            }
            Event::Ret { icount, rtn } => {
                for v in [3, icount, rtn.0 as u64] {
                    d.update_u64(v);
                }
            }
            Event::RoutineEnter { rtn, sp, icount } => {
                for v in [4, rtn.0 as u64, sp, icount] {
                    d.update_u64(v);
                }
            }
            Event::Tick { .. } => {} // never requested
        }
    }

    fn on_fini(&mut self, final_icount: u64) {
        self.0.update_u64(5);
        self.0.update_u64(final_icount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_isa::{ImageBuilder, Inst, Reg};

    #[test]
    fn empty_digest_is_stable() {
        assert_eq!(Digest128::new().finish_hex(), Digest128::new().finish_hex());
        assert_eq!(Digest128::new().finish_hex().len(), 32);
    }

    #[test]
    fn lanes_differ_and_bytes_matter() {
        let mut a = Digest128::new();
        a.update(b"hello");
        let ha = a.finish_hex();
        let mut b = Digest128::new();
        b.update(b"hellp");
        assert_ne!(ha, b.finish_hex());
        assert_ne!(&ha[..16], &ha[16..], "lanes are independent");
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = Digest128::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = Digest128::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish_hex(), b.finish_hex());
    }

    #[test]
    fn program_digest_sees_code_changes() {
        let build = |imm: i32| {
            let mut b = ImageBuilder::new("main", 0x10000);
            b.routine("start", &[Inst::Li { rd: Reg(1), imm }, Inst::Halt]);
            let img = b.build();
            tq_isa::Program::new(img, 0x10000)
        };
        let digest = |p: &Program| {
            let mut d = Digest128::new();
            digest_program(&mut d, p);
            d.finish_hex()
        };
        assert_eq!(digest(&build(1)), digest(&build(1)));
        assert_ne!(digest(&build(1)), digest(&build(2)));
    }
}
