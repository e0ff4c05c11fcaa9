//! Sparse paged memory.
//!
//! A flat 4 GiB simulated address space backed by lazily-allocated 4 KiB
//! pages behind a single-level page directory (a `Vec` of `Option<Box>`es —
//! one pointer per possible page, ~8 MiB of directory for the whole space,
//! O(1) translation). Fresh pages are zero-filled, which the kernel compiler
//! relies on for BSS-style globals.
//!
//! The hot paths (`read_u64`/`write_u64` and friends) take the in-page fast
//! path when the access does not straddle a page boundary and fall back to a
//! byte loop otherwise, so unaligned accesses are always legal — profilers
//! care about *addresses and sizes*, not alignment faults.

use crate::layout::ADDR_SPACE_END;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;
const PAGE_SHIFT: u32 = 12;
const NUM_PAGES: usize = (ADDR_SPACE_END >> PAGE_SHIFT) as usize;

/// Error for accesses outside the simulated address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfRange {
    /// Offending address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
}

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory access at {:#x} ({} bytes) outside the address space",
            self.addr, self.size
        )
    }
}

impl std::error::Error for OutOfRange {}

type Page = Box<[u8; PAGE_SIZE]>;

/// The simulated memory.
pub struct Memory {
    pages: Vec<Option<Page>>,
    /// Bytes of backing store actually allocated (for statistics).
    resident_pages: usize,
}

impl Memory {
    /// Fresh, all-zero memory.
    pub fn new() -> Self {
        let mut pages = Vec::new();
        pages.resize_with(NUM_PAGES, || None);
        Memory {
            pages,
            resident_pages: 0,
        }
    }

    /// Number of 4 KiB pages currently materialised.
    pub fn resident_pages(&self) -> usize {
        self.resident_pages
    }

    /// Whether `size` bytes starting at `addr` lie inside the address
    /// space. Host calls use it to reject a guest-supplied length before
    /// allocating a buffer for it.
    #[inline]
    pub fn check(&self, addr: u64, size: u64) -> Result<(), OutOfRange> {
        if addr
            .checked_add(size)
            .is_some_and(|end| end <= ADDR_SPACE_END)
        {
            Ok(())
        } else {
            Err(OutOfRange { addr, size })
        }
    }

    #[inline]
    fn page_mut(&mut self, page_idx: usize) -> &mut [u8; PAGE_SIZE] {
        let slot = &mut self.pages[page_idx];
        if slot.is_none() {
            *slot = Some(Box::new([0u8; PAGE_SIZE]));
            self.resident_pages += 1;
        }
        slot.as_mut().unwrap()
    }

    /// Read `buf.len()` bytes starting at `addr`. Unmapped pages read as
    /// zero without being materialised.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfRange> {
        self.check(addr, buf.len() as u64)?;
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let page_idx = (a >> PAGE_SHIFT) as usize;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            match &self.pages[page_idx] {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            a += n as u64;
            rest = &mut rest[n..];
        }
        Ok(())
    }

    /// Write `buf` starting at `addr`.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfRange> {
        self.check(addr, buf.len() as u64)?;
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let page_idx = (a >> PAGE_SHIFT) as usize;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(page_idx)[off..off + n].copy_from_slice(&rest[..n]);
            a += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Read an unsigned little-endian integer of `size` ∈ {1,2,4,8} bytes.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u32) -> Result<u64, OutOfRange> {
        self.check(addr, size as u64)?;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + size as usize <= PAGE_SIZE {
            // Fast path: within one page.
            let page_idx = (addr >> PAGE_SHIFT) as usize;
            let bytes: &[u8] = match &self.pages[page_idx] {
                Some(p) => &p[off..off + size as usize],
                None => return Ok(0),
            };
            Ok(match size {
                1 => bytes[0] as u64,
                2 => u16::from_le_bytes(bytes.try_into().unwrap()) as u64,
                4 => u32::from_le_bytes(bytes.try_into().unwrap()) as u64,
                8 => u64::from_le_bytes(bytes.try_into().unwrap()),
                _ => unreachable!("unsupported access size"),
            })
        } else {
            let mut buf = [0u8; 8];
            self.read(addr, &mut buf[..size as usize])?;
            Ok(u64::from_le_bytes(buf))
        }
    }

    /// Write the low `size` ∈ {1,2,4,8} bytes of `value`, little-endian.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, size: u32, value: u64) -> Result<(), OutOfRange> {
        self.check(addr, size as u64)?;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + size as usize <= PAGE_SIZE {
            let page_idx = (addr >> PAGE_SHIFT) as usize;
            let page = self.page_mut(page_idx);
            let le = value.to_le_bytes();
            page[off..off + size as usize].copy_from_slice(&le[..size as usize]);
            Ok(())
        } else {
            let le = value.to_le_bytes();
            self.write(addr, &le[..size as usize])
        }
    }

    /// Read an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> Result<f64, OutOfRange> {
        Ok(f64::from_bits(self.read_uint(addr, 8)?))
    }

    /// Write an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), OutOfRange> {
        self.write_uint(addr, 8, v.to_bits())
    }

    /// Read an `f32`, widened to `f64`.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> Result<f64, OutOfRange> {
        Ok(f32::from_bits(self.read_uint(addr, 4)? as u32) as f64)
    }

    /// Narrow `v` to `f32` and write it.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, v: f64) -> Result<(), OutOfRange> {
        self.write_uint(addr, 4, (v as f32).to_bits() as u64)
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = Memory::new();
        assert_eq!(m.read_uint(0x1234, 8).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0, "reads must not materialise pages");
    }

    #[test]
    fn read_your_writes_all_sizes() {
        let mut m = Memory::new();
        for (size, val) in [
            (1u32, 0xAB),
            (2, 0xBEEF),
            (4, 0xDEAD_BEEF),
            (8, 0x0123_4567_89AB_CDEF),
        ] {
            let addr = 0x10_0000 + size as u64 * 64;
            m.write_uint(addr, size, val).unwrap();
            assert_eq!(m.read_uint(addr, size).unwrap(), val);
        }
    }

    #[test]
    fn narrow_writes_truncate() {
        let mut m = Memory::new();
        m.write_uint(0x2000, 1, 0x1FF).unwrap();
        assert_eq!(m.read_uint(0x2000, 1).unwrap(), 0xFF);
        assert_eq!(m.read_uint(0x2001, 1).unwrap(), 0, "neighbour untouched");
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (PAGE_SIZE as u64) * 7 - 3; // straddles pages 6 and 7
        m.write_uint(addr, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_uint(addr, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_read_write_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write(0x5_0000 - 17, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(0x5_0000 - 17, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn floats_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x100, -1234.5e-6).unwrap();
        assert_eq!(m.read_f64(0x100).unwrap(), -1234.5e-6);
        m.write_f32(0x108, 0.5).unwrap();
        assert_eq!(m.read_f32(0x108).unwrap(), 0.5);
        // f32 narrowing loses precision but must be deterministic.
        m.write_f32(0x10C, 1.0 + 1e-12).unwrap();
        assert_eq!(m.read_f32(0x10C).unwrap(), 1.0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new();
        assert!(m.write_uint(ADDR_SPACE_END - 4, 8, 1).is_err());
        assert!(m.read_uint(u64::MAX - 2, 4).is_err());
        assert!(m.write_uint(ADDR_SPACE_END - 8, 8, 1).is_ok());
    }

    #[test]
    fn range_check_takes_full_u64_lengths() {
        let m = Memory::new();
        assert!(m.check(0, ADDR_SPACE_END).is_ok());
        assert!(m.check(0, ADDR_SPACE_END + 1).is_err());
        // A u32 cast would truncate these lengths to 0 and accept them.
        assert_eq!(
            m.check(0x1000, 1 << 32),
            Err(OutOfRange {
                addr: 0x1000,
                size: 1 << 32
            })
        );
        assert!(m.check(0, 1 << 33).is_err());
        assert!(m.check(1, u64::MAX).is_err());
    }
}
