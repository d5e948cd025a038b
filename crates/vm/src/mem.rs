//! Sparse byte-addressable memory with region permissions.
//!
//! One flat 64-bit space backs both the regular region and the safe
//! region; *who is allowed to touch what* is decided by the caller (the
//! machine) according to the isolation model — this module only provides
//! paging, endianness and write protection of code/rodata.
//!
//! Pages live in a [`CowPages`] table, which holds the copy-on-write
//! snapshot invariant behind [`Memory::capture_snapshot`] and
//! [`Memory::restore_snapshot`] (see `levee_rt::pages`). This module adds
//! the mapped and protected ranges and byte access.

use levee_rt::CowPages;

/// Page size of the backing store.
pub const PAGE_SIZE: u64 = 4096;

/// Why a raw memory access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Read of a page that was never written or reserved (wild pointer).
    Unmapped { addr: u64 },
    /// Write to write-protected memory (code, rodata).
    WriteProtected { addr: u64 },
}

/// One backing page.
type Page = [u8; PAGE_SIZE as usize];

/// Number of directly-indexed pages: the low 4 GB, where the whole
/// regular region (code, globals, heap, stacks) lives. The direct table
/// grows with the highest page touched, up to 8 MB per machine.
const DIRECT_PAGES: usize = ((1u64 << 32) / PAGE_SIZE) as usize;

/// Size-specialized little-endian store into a page.
#[inline(always)]
fn write_le(p: &mut Page, off: usize, val: u64, size: u64) {
    match size {
        8 => p[off..off + 8].copy_from_slice(&val.to_le_bytes()),
        4 => p[off..off + 4].copy_from_slice(&(val as u32).to_le_bytes()),
        2 => p[off..off + 2].copy_from_slice(&(val as u16).to_le_bytes()),
        _ => p[off] = val as u8,
    }
}

/// Mapped and write-protected address ranges.
type Ranges = (Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Sparse paged memory.
///
/// Page lookup is the hottest operation in the VM — every simulated
/// load/store performs one — so the low 4 GB (the regular region) is
/// indexed by the table's direct tier: one load, no hashing. High
/// addresses (the safe region) fall back to its hash tier; they are
/// touched far less often.
#[derive(Clone)]
pub struct Memory {
    pages: CowPages<Page>,
    /// Write-protected address ranges (code segment, read-only globals).
    protected: Vec<(u64, u64)>,
    /// Ranges that reads may touch without an explicit prior write
    /// (mapped-but-zero regions: stacks, bss). Reads elsewhere fault.
    mapped: Vec<(u64, u64)>,
    /// `protected` and `mapped` at capture time: runs can grow them
    /// (`malloc` maps a range per allocation).
    captured_ranges: Option<Box<Ranges>>,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Memory {
            pages: CowPages::new(DIRECT_PAGES),
            protected: Vec::new(),
            mapped: Vec::new(),
            captured_ranges: None,
        }
    }

    /// Marks `[start, start+len)` write-protected (returns nothing; the
    /// protection is enforced on every subsequent write).
    pub fn protect(&mut self, start: u64, len: u64) {
        self.protected.push((start, start.saturating_add(len)));
    }

    /// Maps `[start, start+len)` as readable zero-initialized memory.
    ///
    /// The range set stays sorted and coalesced: `malloc` maps a range
    /// per allocation, so lookups must not degrade to a linear scan
    /// over thousands of entries.
    pub fn map_zero(&mut self, start: u64, len: u64) {
        let end = start.saturating_add(len);
        let mut i = self.mapped.partition_point(|&(s, _)| s < start);
        self.mapped.insert(i, (start, end));
        if i > 0 && self.mapped[i - 1].1 >= self.mapped[i].0 {
            self.mapped[i - 1].1 = self.mapped[i - 1].1.max(self.mapped[i].1);
            self.mapped.remove(i);
            i -= 1;
        }
        while i + 1 < self.mapped.len() && self.mapped[i].1 >= self.mapped[i + 1].0 {
            self.mapped[i].1 = self.mapped[i].1.max(self.mapped[i + 1].1);
            self.mapped.remove(i + 1);
        }
    }

    fn is_protected(&self, addr: u64) -> bool {
        self.protected.iter().any(|(s, e)| (*s..*e).contains(&addr))
    }

    /// True if `addr` lies in a mapped-but-possibly-unmaterialized range
    /// (does not consult resident pages).
    fn in_mapped_ranges(&self, addr: u64) -> bool {
        let i = self.mapped.partition_point(|&(s, _)| s <= addr);
        i > 0 && addr < self.mapped[i - 1].1
    }

    /// True if the whole span `[start, end)` lies in one mapped range
    /// (ranges are coalesced, so one range suffices).
    fn span_mapped(&self, start: u64, end: u64) -> bool {
        let i = self.mapped.partition_point(|&(s, _)| s <= start);
        i > 0 && end <= self.mapped[i - 1].1
    }

    /// True if any protected range overlaps `[start, end)`.
    fn span_protected(&self, start: u64, end: u64) -> bool {
        self.protected.iter().any(|&(s, e)| start < e && s < end)
    }

    fn is_mapped(&self, addr: u64) -> bool {
        self.in_mapped_ranges(addr) || self.pages.get(addr / PAGE_SIZE).is_some()
    }

    /// Materializes (or returns) the page containing `page_idx`, ready
    /// for writing.
    fn ensure_page(&mut self, page_idx: u64) -> &mut Page {
        self.pages
            .get_or_insert_with(page_idx, || [0; PAGE_SIZE as usize])
            .0
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemError> {
        // Fast path: a resident page answers directly (a resident page
        // is mapped by definition).
        if let Some(p) = self.pages.get(addr / PAGE_SIZE) {
            return Ok(p[(addr % PAGE_SIZE) as usize]);
        }
        if self.in_mapped_ranges(addr) {
            Ok(0)
        } else {
            Err(MemError::Unmapped { addr })
        }
    }

    /// Writes one byte. Writes to pages that were never mapped or
    /// written fault, like a wild store would.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) -> Result<(), MemError> {
        if self.is_protected(addr) {
            return Err(MemError::WriteProtected { addr });
        }
        if !self.is_mapped(addr) {
            return Err(MemError::Unmapped { addr });
        }
        self.ensure_page(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = val;
        Ok(())
    }

    /// Writes one byte ignoring write protection — used only when the
    /// loader materializes the initial image.
    pub fn loader_write_u8(&mut self, addr: u64, val: u8) {
        self.ensure_page(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Reads a little-endian unsigned integer of `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> Result<u64, MemError> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = addr % PAGE_SIZE;
        // Fast path: the whole access lies within one resident page —
        // one lookup instead of one per byte. (A resident page is
        // mapped for its full extent, so no per-byte check is needed.)
        if off + size <= PAGE_SIZE {
            if let Some(p) = self.pages.get(addr / PAGE_SIZE) {
                let off = off as usize;
                // Size-specialized little-endian reads: the dynamic
                // byte loop defeats unrolling and this is the hottest
                // path in the VM.
                return Ok(match size {
                    8 => u64::from_le_bytes(p[off..off + 8].try_into().expect("len 8")),
                    4 => u32::from_le_bytes(p[off..off + 4].try_into().expect("len 4")) as u64,
                    2 => u16::from_le_bytes(p[off..off + 2].try_into().expect("len 2")) as u64,
                    _ => p[off] as u64,
                });
            }
            // Page not materialized: reads as zero iff the *whole*
            // access is mapped — an access straddling the end of a
            // mapped range must fault at the exact offending byte,
            // which the byte loop below reports.
            if self.span_mapped(addr, addr + size) {
                return Ok(0);
            }
        }
        let mut v: u64 = 0;
        for i in 0..size {
            v |= (self.read_u8(addr + i)? as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Writes a little-endian unsigned integer of `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, val: u64, size: u64) -> Result<(), MemError> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = addr % PAGE_SIZE;
        // Fast path only when the whole access is trivially clean: no
        // protected overlap, and either a resident page or a fully
        // mapped span. Anything else falls through to the per-byte
        // loop, which reports the exact faulting byte with the same
        // error the seed semantics produced.
        if off + size <= PAGE_SIZE && !self.span_protected(addr, addr + size) {
            if let Some(p) = self.pages.get_mut(addr / PAGE_SIZE) {
                write_le(p, off as usize, val, size);
                return Ok(());
            }
            if self.span_mapped(addr, addr + size) {
                let page = self.ensure_page(addr / PAGE_SIZE);
                write_le(page, off as usize, val, size);
                return Ok(());
            }
        }
        for i in 0..size {
            self.write_u8(addr + i, (val >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Loader variant of [`write_uint`](Self::write_uint).
    pub fn loader_write_uint(&mut self, addr: u64, val: u64, size: u64) {
        for i in 0..size {
            self.loader_write_u8(addr + i, (val >> (8 * i)) as u8);
        }
    }

    /// Checks every byte of `[start, start+len)` is readable, without
    /// materializing anything; reports the first unmapped byte.
    fn check_readable(&self, start: u64, len: u64) -> Result<(), MemError> {
        let mut off = 0u64;
        while off < len {
            let addr = start + off;
            let page_off = addr % PAGE_SIZE;
            let chunk = (PAGE_SIZE - page_off).min(len - off);
            if self.pages.get(addr / PAGE_SIZE).is_none() && !self.span_mapped(addr, addr + chunk) {
                // Mixed chunk: find the exact faulting byte.
                for i in 0..chunk {
                    if !self.in_mapped_ranges(addr + i) {
                        return Err(MemError::Unmapped { addr: addr + i });
                    }
                }
            }
            off += chunk;
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` with memmove semantics.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemError> {
        // Validate the source *before* allocating the gather buffer: a
        // corrupted (huge) length must fault at its first unmapped byte
        // rather than aborting the host with an oversized allocation.
        self.check_readable(src, len)?;
        // Gather-then-scatter gives memmove semantics for overlap; the
        // page-chunked loops avoid per-byte page lookups. The buffer is
        // bounded by the validated (hence actually mapped) span.
        let mut bytes = vec![0u8; len as usize];
        let mut off = 0u64;
        while off < len {
            let addr = src + off;
            let page_off = addr % PAGE_SIZE;
            let chunk = (PAGE_SIZE - page_off).min(len - off) as usize;
            let out = &mut bytes[off as usize..off as usize + chunk];
            if let Some(p) = self.pages.get(addr / PAGE_SIZE) {
                out.copy_from_slice(&p[page_off as usize..page_off as usize + chunk]);
            } else {
                out.fill(0); // validated mapped-but-unmaterialized
            }
            off += chunk as u64;
        }
        self.write_bytes_chunked(dst, &bytes)
    }

    /// Fills `[dst, dst+len)` with `byte` — page-chunked, allocation
    /// free (guest-controlled lengths must not size host allocations).
    pub fn fill(&mut self, dst: u64, byte: u8, len: u64) -> Result<(), MemError> {
        let mut off = 0u64;
        while off < len {
            let addr = dst + off;
            let page_off = (addr % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE - page_off as u64).min(len - off) as usize;
            if self.chunk_cleanly_writable(addr, chunk) {
                let page = self.ensure_page(addr / PAGE_SIZE);
                page[page_off..page_off + chunk].fill(byte);
            } else {
                // Per-byte semantics: the valid prefix is written, then
                // the first faulting byte reports its exact address.
                for i in 0..chunk as u64 {
                    self.write_u8(addr + i, byte)?;
                }
            }
            off += chunk as u64;
        }
        Ok(())
    }

    /// True when a page-local chunk can be written without per-byte
    /// checks: no protected overlap, and either fully inside a mapped
    /// range or on an already-resident page.
    fn chunk_cleanly_writable(&self, addr: u64, chunk: usize) -> bool {
        let chunk_end = addr + chunk as u64;
        !self.span_protected(addr, chunk_end)
            && (self.span_mapped(addr, chunk_end) || self.pages.get(addr / PAGE_SIZE).is_some())
    }

    /// Page-chunked write of a byte slice with the same fault semantics
    /// as per-byte [`write_u8`](Self::write_u8): the error reports the
    /// first faulting byte's address.
    fn write_bytes_chunked(&mut self, dst: u64, bytes: &[u8]) -> Result<(), MemError> {
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = dst + off as u64;
            let page_off = (addr % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - page_off).min(bytes.len() - off);
            if self.chunk_cleanly_writable(addr, chunk) {
                let page = self.ensure_page(addr / PAGE_SIZE);
                page[page_off..page_off + chunk].copy_from_slice(&bytes[off..off + chunk]);
            } else {
                for i in 0..chunk {
                    self.write_u8(addr + i as u64, bytes[off + i])?;
                }
            }
            off += chunk;
        }
        Ok(())
    }

    /// Reads a NUL-terminated string of at most `max` bytes.
    pub fn read_cstr(&self, addr: u64, max: u64) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr + i)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Captures the current image as the restore baseline and turns on
    /// dirty tracking.
    ///
    /// Cheap in memory: every resident page is shared with the
    /// baseline, not copied. The range sets (`protected`, `mapped`) are
    /// cloned since runs can grow them.
    ///
    /// Called by the machine once, right after `load()` — see
    /// `Machine::boot` in `levee-vm` — and recapturing simply replaces
    /// the baseline with the current image.
    pub fn capture_snapshot(&mut self) {
        self.pages.capture();
        self.captured_ranges = Some(Box::new((self.protected.clone(), self.mapped.clone())));
    }

    /// Reverts every page the last run dirtied back to the captured
    /// baseline, leaving the image bit-identical to the moment of
    /// [`capture_snapshot`](Self::capture_snapshot).
    ///
    /// Cost is proportional to what the run touched, not to the image.
    /// Returns `(pages_dirtied, bytes_restored)` where `bytes_restored`
    /// counts a page size per baseline page reverted (dropped run-only
    /// pages restore no bytes).
    ///
    /// # Panics
    ///
    /// Panics if no snapshot was captured — restoring without a
    /// baseline is a machine lifecycle bug, not a recoverable state.
    pub fn restore_snapshot(&mut self) -> (u64, u64) {
        let (pages_dirtied, reshared) = self.pages.restore();
        let (protected, mapped) = &**self.captured_ranges.as_ref().expect("captured");
        if self.protected != *protected {
            self.protected.clone_from(protected);
        }
        if self.mapped != *mapped {
            self.mapped.clone_from(mapped);
        }
        (pages_dirtied, reshared * PAGE_SIZE)
    }

    /// Number of pages held by the captured baseline (0 without one).
    pub fn snapshot_pages(&self) -> usize {
        self.pages.baseline_pages()
    }

    /// Bytes the snapshot holds *privately* — baseline pages no longer
    /// shared with the live image because the current run dirtied them.
    ///
    /// This is the snapshot's true incremental footprint: clean pages
    /// are physically shared and already counted by
    /// [`resident_bytes`](Self::resident_bytes), so
    /// `resident_bytes() + snapshot_private_bytes()` is the whole
    /// image's cost with no double counting.
    pub fn snapshot_private_bytes(&self) -> u64 {
        self.pages.private_pages() as u64 * PAGE_SIZE
    }

    /// Resident bytes (pages × page size) — the denominator of the
    /// memory-overhead experiments. Pages shared copy-on-write with a
    /// captured snapshot are counted once: the baseline aliases the
    /// same allocations, so residency here *is* the physical footprint
    /// of the live image.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.resident() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_roundtrip_little_endian() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 4096);
        m.write_uint(0x1000, 0x1122_3344_5566_7788, 8).unwrap();
        assert_eq!(m.read_uint(0x1000, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0x1000).unwrap(), 0x88); // little-endian
        assert_eq!(m.read_uint(0x1004, 4).unwrap(), 0x1122_3344);
    }

    #[test]
    fn unmapped_read_faults() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0xdead), Err(MemError::Unmapped { addr: 0xdead }));
    }

    #[test]
    fn mapped_zero_reads_as_zero() {
        let mut m = Memory::new();
        m.map_zero(0x8000, 4096);
        assert_eq!(m.read_uint(0x8000, 8).unwrap(), 0);
        assert!(m.read_u8(0x7fff).is_err());
    }

    #[test]
    fn word_read_straddling_mapped_range_end_faults() {
        let mut m = Memory::new();
        // A byte-granular range, like a small heap allocation's.
        m.map_zero(0x1000, 8);
        assert_eq!(m.read_uint(0x1000, 8).unwrap(), 0);
        // A read crossing the range's end on a non-resident page faults
        // at the first unmapped byte, exactly like the per-byte path.
        assert_eq!(
            m.read_uint(0x1004, 8),
            Err(MemError::Unmapped { addr: 0x1008 })
        );
        // A straddling *write* materializes the page byte by byte: once
        // the first in-range byte faults the page in, the rest of the
        // page counts as mapped (the per-byte semantics the VM has
        // always had), so the write — and subsequent reads through the
        // now-resident page — succeed.
        assert_eq!(m.write_uint(0x1004, 0xff, 8), Ok(()));
        assert_eq!(m.read_uint(0x1004, 8).unwrap(), 0xff);
    }

    #[test]
    fn huge_corrupted_lengths_trap_without_host_allocation() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 64);
        // An attacker-corrupted length must fault at the first
        // unwritable byte, not size a host allocation. (The first
        // in-range byte materializes the page and page residency counts
        // as mapped — per-byte seed semantics — so the fault lands at
        // the next page boundary.)
        assert_eq!(
            m.fill(0x1000, 0x41, 1 << 40),
            Err(MemError::Unmapped { addr: 0x2000 })
        );
        // The in-range prefix of the failed fill was written (the seed
        // wrote until the first fault too), materializing the page —
        // so the copy below faults at the page boundary.
        assert_eq!(m.read_u8(0x1000).unwrap(), 0x41);
        assert_eq!(
            m.copy(0x9_0000, 0x1000, u64::MAX / 2),
            Err(MemError::Unmapped { addr: 0x2000 })
        );
    }

    #[test]
    fn word_write_straddling_protection_boundary_faults() {
        let mut m = Memory::new();
        m.map_zero(0x2000, 64);
        m.protect(0x2008, 8);
        // First byte unprotected, later bytes protected: the write must
        // fault at the first protected byte.
        assert_eq!(
            m.write_uint(0x2004, 1, 8),
            Err(MemError::WriteProtected { addr: 0x2008 })
        );
    }

    #[test]
    fn write_protection_blocks_writes_but_not_loader() {
        let mut m = Memory::new();
        m.loader_write_uint(0x40_0000, 0xfeed, 8);
        m.protect(0x40_0000, 4096);
        assert_eq!(
            m.write_u8(0x40_0000, 1),
            Err(MemError::WriteProtected { addr: 0x40_0000 })
        );
        // Unmapped writes fault like wild stores.
        assert_eq!(
            m.write_u8(0x9999_0000, 1),
            Err(MemError::Unmapped { addr: 0x9999_0000 })
        );
        m.loader_write_u8(0x40_0000, 7); // loader bypasses protection
        assert_eq!(m.read_u8(0x40_0000).unwrap(), 7);
    }

    #[test]
    fn copy_handles_overlap() {
        let mut m = Memory::new();
        m.map_zero(0x100, 256);
        for i in 0..8u64 {
            m.write_u8(0x100 + i, i as u8).unwrap();
        }
        m.copy(0x102, 0x100, 8).unwrap(); // overlapping forward copy
        assert_eq!(m.read_u8(0x102).unwrap(), 0);
        assert_eq!(m.read_u8(0x109).unwrap(), 7);
        assert_eq!(m.read_u8(0x103).unwrap(), 1);
    }

    #[test]
    fn cstr_reading() {
        let mut m = Memory::new();
        m.map_zero(0x200, 256);
        for (i, b) in b"hello\0world".iter().enumerate() {
            m.write_u8(0x200 + i as u64, *b).unwrap();
        }
        assert_eq!(m.read_cstr(0x200, 64).unwrap(), b"hello");
        assert_eq!(m.read_cstr(0x206, 5).unwrap(), b"world");
    }

    #[test]
    fn fill_and_resident_accounting() {
        let mut m = Memory::new();
        m.map_zero(0x3000, 4096);
        m.fill(0x3000, 0xAB, 16).unwrap();
        assert_eq!(m.read_u8(0x300f).unwrap(), 0xAB);
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn snapshot_restore_reverts_only_dirtied_pages() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 3 * 4096);
        m.write_uint(0x1000, 0xAAAA, 8).unwrap(); // page 1: baseline data
        m.write_uint(0x2000, 0xBBBB, 8).unwrap(); // page 2: baseline data
        m.capture_snapshot();
        assert_eq!(m.snapshot_pages(), 2);

        // A clean run restores nothing.
        assert_eq!(m.restore_snapshot(), (0, 0));

        // Dirty one baseline page and materialize one run-only page.
        m.write_uint(0x1000, 0xDEAD, 8).unwrap();
        m.write_uint(0x3000, 0xC0DE, 8).unwrap();
        let (pages_dirtied, bytes_restored) = m.restore_snapshot();
        assert_eq!(pages_dirtied, 2);
        assert_eq!(bytes_restored, PAGE_SIZE); // only page 1 came from the baseline
        assert_eq!(m.read_uint(0x1000, 8).unwrap(), 0xAAAA);
        assert_eq!(m.read_uint(0x2000, 8).unwrap(), 0xBBBB);
        // The run-only page is gone; its mapped range reads as zero again.
        assert_eq!(m.read_uint(0x3000, 8).unwrap(), 0);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn snapshot_restore_reverts_run_mapped_ranges_and_protection() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 4096);
        m.write_u8(0x1000, 1).unwrap();
        m.capture_snapshot();

        // A run maps a fresh range (like malloc does) and writes it.
        m.map_zero(0x8000, 4096);
        m.write_u8(0x8000, 7).unwrap();
        assert_eq!(m.read_u8(0x8000).unwrap(), 7);
        m.restore_snapshot();
        // After restore the range is unmapped again: reads fault.
        assert_eq!(m.read_u8(0x8000), Err(MemError::Unmapped { addr: 0x8000 }));

        // Same for a high-tier (safe region) page.
        let high = 1u64 << 33;
        m.map_zero(high, 4096);
        m.write_u8(high, 9).unwrap();
        m.restore_snapshot();
        assert_eq!(m.read_u8(high), Err(MemError::Unmapped { addr: high }));
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn snapshot_restore_is_repeatable_and_bit_identical() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 8 * 4096);
        for p in 0..8u64 {
            m.write_uint(0x1000 + p * 4096, 0x100 + p, 8).unwrap();
        }
        m.capture_snapshot();
        for round in 0..3u64 {
            for p in 0..8u64 {
                m.write_uint(0x1000 + p * 4096, round.wrapping_mul(p), 8)
                    .unwrap();
            }
            let (pages_dirtied, bytes_restored) = m.restore_snapshot();
            assert_eq!(pages_dirtied, 8);
            assert_eq!(bytes_restored, 8 * PAGE_SIZE);
            for p in 0..8u64 {
                assert_eq!(m.read_uint(0x1000 + p * 4096, 8).unwrap(), 0x100 + p);
            }
        }
    }

    #[test]
    fn snapshot_shared_pages_are_counted_once() {
        let mut m = Memory::new();
        m.map_zero(0x1000, 2 * 4096);
        m.write_u8(0x1000, 1).unwrap();
        m.write_u8(0x2000, 2).unwrap();
        let before = m.resident_bytes();
        m.capture_snapshot();
        // Capture shares pages instead of copying: residency is
        // unchanged and the snapshot holds nothing private yet.
        assert_eq!(m.resident_bytes(), before);
        assert_eq!(m.snapshot_private_bytes(), 0);
        // Dirtying a page splits it: the baseline's pre-write copy is
        // now the snapshot's own.
        m.write_u8(0x1000, 0xFF).unwrap();
        assert_eq!(m.snapshot_private_bytes(), PAGE_SIZE);
        assert_eq!(m.resident_bytes(), before);
        // Restore re-shares it.
        m.restore_snapshot();
        assert_eq!(m.snapshot_private_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "no baseline captured")]
    fn restore_without_capture_is_a_lifecycle_bug() {
        let mut m = Memory::new();
        m.restore_snapshot();
    }
}
