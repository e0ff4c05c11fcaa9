//! Byte-granular shadow memory tracking the *last writer* of every address.
//!
//! QUAD's producer→consumer semantics: when kernel `f` reads a byte that
//! kernel `g` most recently wrote, a binding `g → f` of one byte exists.
//! The shadow stores one writer tag per byte, in pages of the shared
//! page store (`SlabMap`), but answers reads a *run* at a time:
//! [`ShadowMemory::for_each_run`] visits the maximal stretches of equal
//! last writer, so the tool pays one binding update per run, not per byte.

use crate::pages::{new_page, SlabMap, PAGE_SHIFT, PAGE_SIZE};

/// Kernel tag stored per byte; 0 means "never written".
pub type WriterTag = u32;

/// The shadow memory.
#[derive(Default)]
pub struct ShadowMemory {
    pages: SlabMap<u64, Box<[WriterTag; PAGE_SIZE]>>,
}

impl ShadowMemory {
    /// Empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `writer` (a 1-based tag) wrote `[addr, addr+len)`.
    /// Ranges are clipped at the top of the address space rather than
    /// wrapping (only reachable via corrupt replayed traces).
    #[inline]
    pub fn write(&mut self, addr: u64, len: u32, writer: WriterTag) {
        debug_assert!(writer != 0, "writer tags are 1-based");
        let mut a = addr;
        let end = addr.saturating_add(len as u64);
        while a < end {
            let off = a as usize & (PAGE_SIZE - 1);
            let n = ((end - a) as usize).min(PAGE_SIZE - off);
            self.pages.get_or_insert_with(a >> PAGE_SHIFT, new_page)[off..off + n].fill(writer);
            a += n as u64;
        }
    }

    /// The last writer of the byte at `addr` (0 if never written).
    #[inline]
    pub fn writer_at(&self, addr: u64) -> WriterTag {
        let off = addr as usize & (PAGE_SIZE - 1);
        self.pages.get(addr >> PAGE_SHIFT).map_or(0, |p| p[off])
    }

    /// Visit `[addr, addr+len)` as runs `f(start, n, writer)`: in address
    /// order, each run the longest stretch of one last writer that stays
    /// inside one page (runs are split at page boundaries). Clipped at the
    /// top of the address space like [`ShadowMemory::write`].
    #[inline]
    pub fn for_each_run(&self, addr: u64, len: u32, mut f: impl FnMut(u64, u32, WriterTag)) {
        let mut a = addr;
        let end = addr.saturating_add(len as u64);
        while a < end {
            let off = a as usize & (PAGE_SIZE - 1);
            let n = ((end - a) as usize).min(PAGE_SIZE - off);
            match self.pages.get(a >> PAGE_SHIFT) {
                Some(p) => {
                    let mut rest = &p[off..off + n];
                    let mut start = a;
                    while let Some(&w) = rest.first() {
                        let run = rest.iter().position(|&x| x != w).unwrap_or(rest.len());
                        f(start, run as u32, w);
                        start += run as u64;
                        rest = &rest[run..];
                    }
                }
                None => f(a, n as u32, 0),
            }
            a += n as u64;
        }
    }

    /// Overlay a *newer* shadow onto this one: bytes the newer shadow saw
    /// written (nonzero tags) supersede, untouched bytes keep the older
    /// writer. Folding per-shard shadows in chunk order with this
    /// reproduces the sequential last-writer map exactly.
    pub fn overlay(&mut self, newer: &ShadowMemory) {
        for (page, src) in newer.pages.iter() {
            let dst = self.pages.get_or_insert_with(page, new_page);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                if s != 0 {
                    *d = s;
                }
            }
        }
    }

    /// Number of shadow pages materialised.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_query() {
        let mut s = ShadowMemory::new();
        s.write(0x100, 8, 3);
        assert_eq!(s.writer_at(0x100), 3);
        assert_eq!(s.writer_at(0x107), 3);
        assert_eq!(s.writer_at(0x108), 0);
        assert_eq!(s.writer_at(0xFF), 0);
    }

    #[test]
    fn overwrites_supersede() {
        let mut s = ShadowMemory::new();
        s.write(0x100, 8, 1);
        s.write(0x104, 8, 2);
        assert_eq!(s.writer_at(0x103), 1);
        assert_eq!(s.writer_at(0x104), 2);
        assert_eq!(s.writer_at(0x10B), 2);
    }

    #[test]
    fn cross_page_write() {
        let mut s = ShadowMemory::new();
        s.write(4096 - 2, 4, 7);
        assert_eq!(s.writer_at(4094), 7);
        assert_eq!(s.writer_at(4097), 7);
        assert_eq!(s.pages(), 2);
    }

    #[test]
    fn for_each_run_mixed() {
        let mut s = ShadowMemory::new();
        s.write(10, 2, 5);
        let mut seen = Vec::new();
        s.for_each_run(8, 6, |a, n, w| seen.push((a, n, w)));
        assert_eq!(seen, vec![(8, 2, 0), (10, 2, 5), (12, 2, 0)]);
    }

    #[test]
    fn runs_split_at_page_boundaries() {
        let mut s = ShadowMemory::new();
        s.write(4096 - 4, 8, 2);
        let mut seen = Vec::new();
        s.for_each_run(4096 - 6, 12, |a, n, w| seen.push((a, n, w)));
        assert_eq!(
            seen,
            vec![(4090, 2, 0), (4092, 4, 2), (4096, 4, 2), (4100, 2, 0)]
        );
    }

    #[test]
    fn overlay_keeps_older_writers_under_zero_bytes() {
        let mut old = ShadowMemory::new();
        old.write(0x100, 8, 1);
        let mut newer = ShadowMemory::new();
        newer.write(0x104, 8, 2); // overlaps the top half
        newer.write(0x9000, 4, 3); // fresh page
        old.overlay(&newer);
        assert_eq!(old.writer_at(0x100), 1, "untouched byte keeps old writer");
        assert_eq!(old.writer_at(0x104), 2);
        assert_eq!(old.writer_at(0x10B), 2);
        assert_eq!(old.writer_at(0x9000), 3);
        assert_eq!(old.writer_at(0x9004), 0);
    }

    #[test]
    fn unmapped_region_reports_zero() {
        let s = ShadowMemory::new();
        let mut seen = Vec::new();
        s.for_each_run(1 << 20, 16, |a, n, w| seen.push((a, n, w)));
        assert_eq!(seen, vec![(1 << 20, 16, 0)]);
    }
}
