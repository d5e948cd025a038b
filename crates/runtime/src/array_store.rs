//! The "simple array" safe-pointer-store organization.
//!
//! The slot for the pointer stored at regular address `A` lives at a
//! fixed linear offset `(A / 8) * SLOT_SIZE` from the store base —
//! exactly one memory access per operation. The organization relies on
//! sparse address-space support: only touched pages materialize. The
//! paper found this the fastest organization once backed by 2 MB
//! superpages (fewer page faults and less TLB pressure than 4 KB pages),
//! at the price of the highest memory overhead (105% for CPI on SPEC).
//!
//! Compact 16-byte slots double the slot density of every metadata page
//! (a 4 KB page covers 256 pointer slots instead of 128), which both
//! halves the simulated footprint of a dense working set and halves the
//! page-fault/TLB pressure the 4 KB configuration suffers from.
//!
//! The page size is the *simulated* grain: it decides page faults, the
//! memory footprint, the bytes a snapshot restore reports and the
//! simulated slot addresses the cache model sees. The *host* grain is a
//! chunk of 256 slots (one simulated 4 KB of slots), allocated on the
//! first write into it, so a simulated page is a directory of chunks.
//! A served request that faults in a 2 MB page and drops it at the
//! restore then costs the host the slots it writes, not a 3 MB vector,
//! and splitting a baseline page copies its directory and the chunks it
//! holds.
//!
//! Pages live in a [`CowPages`] table keyed by simulated page; its module
//! doc states the copy-on-write snapshot invariant. This module adds slot
//! indexing, the chunk directory and the live-slot count.

use crate::pages::CowPages;
use crate::store::{PtrStore, Slot, Touched, SLOT_SIZE};

/// Keys below this bound — the whole regular region, up to the stack
/// top and its slack page — index their pages through the table's
/// direct tier: safe-store operations run on every instrumented memory
/// access, so the lookup is hot.
const DIRECT_KEYS: u64 = 1 << 31;

/// Slots per host chunk: one simulated 4 KB of slots.
const CHUNK_SLOTS: usize = 256;

/// The host allocation grain of a page.
type Chunk = [Option<Slot>; CHUNK_SLOTS];

/// One simulated page: a directory of chunks, each allocated on the
/// first write into it. Chunk 0 sits in the page itself, so a page of
/// one chunk (4 KB) is one host allocation, as a flat page was.
#[derive(Clone)]
struct Page {
    first: Option<Box<Chunk>>,
    rest: Box<[Option<Box<Chunk>>]>,
}

impl Page {
    /// An empty page of `slots` slots.
    fn new(slots: u64) -> Self {
        Page {
            first: None,
            rest: vec![None; (slots as usize).div_ceil(CHUNK_SLOTS) - 1].into_boxed_slice(),
        }
    }

    /// The chunk holding slot `in_page`, if allocated.
    fn chunk(&self, in_page: usize) -> Option<&Chunk> {
        match (in_page / CHUNK_SLOTS).checked_sub(1) {
            None => self.first.as_deref(),
            Some(c) => self.rest[c].as_deref(),
        }
    }

    /// The directory entry of the chunk holding slot `in_page`.
    fn entry(&mut self, in_page: usize) -> &mut Option<Box<Chunk>> {
        match (in_page / CHUNK_SLOTS).checked_sub(1) {
            None => &mut self.first,
            Some(c) => &mut self.rest[c],
        }
    }
}

/// Sparse linear array of slots, with configurable page size.
///
/// Cloning (for [`PtrStore::boxed_clone`]) shares pages and the
/// baseline copy-on-write with the original; each clone keeps its own
/// dirty list.
#[derive(Clone)]
pub struct ArrayStore {
    base: u64,
    page_size: u64,
    slots_per_page: u64,
    pages: CowPages<Page>,
    live: usize,
    /// `live` at the last [`PtrStore::capture_snapshot`].
    captured_live: usize,
}

impl ArrayStore {
    /// Creates an array store based at simulated address `base` with the
    /// given page size in bytes (4 KB or 2 MB in the paper).
    ///
    /// `page_size` is the simulated grain: page faults, `memory_bytes`,
    /// the bytes a restore reports and the slot addresses the cache
    /// model sees follow it. The host allocates 256-slot chunks within a
    /// page as they are first written, so a 2 MB page costs the host
    /// the chunks a run writes, which keeps a served request's fault and
    /// restore of a superpage in proportion to its slots.
    pub fn new(base: u64, page_size: u64) -> Self {
        assert!(page_size >= SLOT_SIZE && page_size.is_multiple_of(SLOT_SIZE));
        let slots_per_page = page_size / SLOT_SIZE;
        // One metadata page covers slots_per_page 8-byte slots of the
        // regular address space.
        let direct_pages = DIRECT_KEYS / (slots_per_page * 8);
        ArrayStore {
            base,
            page_size,
            slots_per_page,
            pages: CowPages::new(direct_pages as usize),
            live: 0,
            captured_live: 0,
        }
    }

    fn slot_of(addr: u64) -> u64 {
        addr >> 3
    }

    /// Simulated safe-region address of the slot for `addr`.
    fn slot_addr(&self, addr: u64) -> u64 {
        self.base + Self::slot_of(addr) * SLOT_SIZE
    }

    /// The slot's page index and position in the page, recording the
    /// slot's simulated address in `t`.
    fn locate(&self, addr: u64, t: &mut Touched) -> (u64, usize) {
        t.push(self.slot_addr(addr));
        let slot = Self::slot_of(addr);
        (
            slot / self.slots_per_page,
            (slot % self.slots_per_page) as usize,
        )
    }

    fn set_slot(&mut self, addr: u64, value: Option<Slot>) -> Touched {
        let mut t = Touched::default();
        let (page_idx, in_page) = self.locate(addr, &mut t);
        if value.is_none() && self.pages.get(page_idx).is_none() {
            // Never fault a page in just to record an absence.
            return t;
        }
        let slots = self.slots_per_page;
        let (page, fault) = self.pages.get_or_insert_with(page_idx, || Page::new(slots));
        // The write path above has split and logged the page either
        // way; an absent chunk already reads empty, so clearing in it
        // allocates nothing.
        let old = match (page.entry(in_page), value) {
            (None, None) => None,
            (entry, value) => {
                let chunk = entry.get_or_insert_with(|| {
                    // Built on the heap: a 6 KB array would pass
                    // through the stack.
                    vec![None; CHUNK_SLOTS]
                        .into_boxed_slice()
                        .try_into()
                        .expect("a chunk-long vector")
                });
                std::mem::replace(&mut chunk[in_page % CHUNK_SLOTS], value)
            }
        };
        let delta = match (old, &value) {
            (None, Some(_)) => 1,
            (Some(_), None) => -1,
            _ => 0,
        };
        self.live = (self.live as isize + delta) as usize;
        t.page_fault = fault;
        t
    }
}

impl PtrStore for ArrayStore {
    fn boxed_clone(&self) -> Box<dyn PtrStore> {
        Box::new(self.clone())
    }

    fn set(&mut self, addr: u64, slot: Slot) -> Touched {
        self.set_slot(addr, Some(slot))
    }

    fn get(&mut self, addr: u64) -> (Option<Slot>, Touched) {
        let mut t = Touched::default();
        let (page_idx, in_page) = self.locate(addr, &mut t);
        let slot = self
            .pages
            .get(page_idx)
            .and_then(|p| p.chunk(in_page))
            .and_then(|c| c[in_page % CHUNK_SLOTS]);
        (slot, t)
    }

    fn clear(&mut self, addr: u64) -> Touched {
        self.set_slot(addr, None)
    }

    fn entry_count(&self) -> usize {
        self.live
    }

    fn memory_bytes(&self) -> u64 {
        self.pages.resident() as u64 * self.page_size
    }

    fn base(&self) -> u64 {
        self.base
    }

    fn capture_snapshot(&mut self) {
        self.pages.capture();
        self.captured_live = self.live;
    }

    fn restore_snapshot(&mut self) -> u64 {
        let (_, reshared) = self.pages.restore();
        self.live = self.captured_live;
        reshared * self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaId;

    const BASE: u64 = 0x7000_0000_0000;

    /// A distinct live-looking handle for tests (the store never
    /// resolves handles, it only moves them).
    fn meta(tag: u64) -> Slot {
        Slot::new(tag, MetaId::NONE)
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut s = ArrayStore::new(BASE, 4096);
        let e = meta(0x1000);
        let _ = s.set(0x5008, e);
        assert_eq!(s.get(0x5008).0, Some(e));
        assert_eq!(s.get(0x5010).0, None);
        assert_eq!(s.entry_count(), 1);
        let _ = s.clear(0x5008);
        assert_eq!(s.get(0x5008).0, None);
        assert_eq!(s.entry_count(), 0);
    }

    #[test]
    fn slot_addresses_are_linear_in_key() {
        let mut s = ArrayStore::new(BASE, 4096);
        let (_, t1) = s.get(0x1000);
        let (_, t2) = s.get(0x1008);
        let a1 = t1.iter().next().unwrap();
        let a2 = t2.iter().next().unwrap();
        assert_eq!(a2 - a1, SLOT_SIZE);
        assert_eq!(a1, BASE + (0x1000 >> 3) * SLOT_SIZE);
    }

    #[test]
    fn page_fault_on_first_touch_only() {
        let mut s = ArrayStore::new(BASE, 4096);
        let t = s.set(0x9000, meta(0x40));
        assert!(t.page_fault);
        let t = s.set(0x9008, meta(0x40));
        assert!(!t.page_fault);
    }

    #[test]
    fn superpages_fault_less() {
        let mut small = ArrayStore::new(BASE, 4096);
        let mut big = ArrayStore::new(BASE, 2 << 20);
        let mut faults_small = 0;
        let mut faults_big = 0;
        for i in 0..1024u64 {
            // Spread keys across 64 KB of key space.
            let addr = i * 64 * 8;
            if small.set(addr, meta(1)).page_fault {
                faults_small += 1;
            }
            if big.set(addr, meta(1)).page_fault {
                faults_big += 1;
            }
        }
        assert!(faults_big < faults_small);
    }

    #[test]
    fn memory_is_page_granular() {
        let mut s = ArrayStore::new(BASE, 4096);
        let _ = s.set(0x0, meta(1));
        assert_eq!(s.memory_bytes(), 4096);
        // Same page (slots_per_page = 256 → keys 0..2048 share a page).
        let _ = s.set(0x7f8, meta(1));
        assert_eq!(s.memory_bytes(), 4096);
        // Next page.
        let _ = s.set(0x800, meta(1));
        assert_eq!(s.memory_bytes(), 8192);
    }

    /// The compact-slot payoff for the 4 KB configuration: the same
    /// dense working set materializes half the pages the 32-byte
    /// inline-entry geometry needed (one page now covers 2048 bytes of
    /// key space instead of 1024).
    #[test]
    fn compact_slots_halve_dense_footprint() {
        let mut s = ArrayStore::new(BASE, 4096);
        // 2048 contiguous pointer slots = 16 KB of key space.
        for i in 0..2048u64 {
            let _ = s.set(i * 8, meta(i));
        }
        // 2048 slots * 16 B = 32 KB = 8 pages (the seed layout needed 16).
        assert_eq!(s.memory_bytes(), 8 * 4096);
        assert_eq!(s.memory_bytes() / s.entry_count() as u64, SLOT_SIZE);
    }

    #[test]
    fn clear_range_covers_partial_slots() {
        let mut s = ArrayStore::new(BASE, 4096);
        let _ = s.set(0x1000, meta(1));
        let _ = s.set(0x1008, meta(2));
        let _ = s.set(0x1010, meta(3));
        // A 1-byte write at 0x100c invalidates the slot at 0x1008 only.
        let _ = s.clear_range(0x100c, 1);
        assert!(s.get(0x1000).0.is_some());
        assert!(s.get(0x1008).0.is_none());
        assert!(s.get(0x1010).0.is_some());
    }

    #[test]
    fn copy_range_transfers_and_clears() {
        let mut s = ArrayStore::new(BASE, 4096);
        let _ = s.set(0x1000, meta(0xAA));
        let _ = s.set(0x1010, meta(0xBB));
        let _ = s.set(0x2008, meta(0xCC)); // stale slot in destination
        let (copied, _) = s.copy_range(0x2000, 0x1000, 24);
        assert_eq!(copied, 2);
        assert_eq!(s.get(0x2000).0, Some(meta(0xAA)));
        assert_eq!(s.get(0x2008).0, None); // cleared: src slot had none
        assert_eq!(s.get(0x2010).0, Some(meta(0xBB)));
    }

    #[test]
    fn snapshot_restore_reverts_only_dirtied_pages() {
        let mut s = ArrayStore::new(BASE, 4096);
        let _ = s.set(0x1000, meta(1)); // "loader" slot
        s.capture_snapshot();

        // A clean restore copies nothing back.
        assert_eq!(s.restore_snapshot(), 0);
        assert_eq!(s.get(0x1000).0, Some(meta(1)));

        // Dirty the baseline page and materialize a fresh one.
        let _ = s.set(0x1008, meta(2));
        let _ = s.clear(0x1000);
        let _ = s.set(0x80_0000, meta(3));
        assert_eq!(s.entry_count(), 2);

        // Exactly one page came back from the baseline (the fresh one
        // is dropped, not copied).
        assert_eq!(s.restore_snapshot(), 4096);
        assert_eq!(s.get(0x1000).0, Some(meta(1)));
        assert_eq!(s.get(0x1008).0, None);
        assert_eq!(s.get(0x80_0000).0, None);
        assert_eq!(s.entry_count(), 1);
        assert_eq!(s.memory_bytes(), 4096);
    }

    #[test]
    fn snapshot_restore_is_repeatable_and_observably_fresh() {
        // Restored state must be bit-identical to the captured one in
        // every observable, round after round.
        let mut s = ArrayStore::new(BASE, 2 << 20);
        let _ = s.set(0x2000, meta(7));
        s.capture_snapshot();
        let baseline_bytes = s.memory_bytes();
        for round in 0..3u64 {
            let _ = s.set(0x2000, meta(100 + round));
            let _ = s.set(0x9_0000, meta(round));
            assert!(s.restore_snapshot() > 0);
            assert_eq!(s.get(0x2000).0, Some(meta(7)));
            assert_eq!(s.get(0x9_0000).0, None);
            assert_eq!(s.entry_count(), 1);
            assert_eq!(s.memory_bytes(), baseline_bytes);
        }
    }

    /// A 2 MB superpage: 1 MiB of keys, 512 chunks of 2 KiB of keys.
    const SUPER: u64 = 2 << 20;
    /// Keys per host chunk.
    const CHUNK_KEYS: u64 = CHUNK_SLOTS as u64 * 8;

    /// Host chunks `s` holds across its resident pages.
    fn chunks(s: &ArrayStore, pages: impl IntoIterator<Item = u64>) -> usize {
        pages
            .into_iter()
            .filter_map(|p| s.pages.get(p))
            .map(|page| page.rest.iter().chain([&page.first]).flatten().count())
            .sum()
    }

    #[test]
    fn chunks_of_one_superpage_fault_once() {
        let mut s = ArrayStore::new(BASE, SUPER);
        let faults: Vec<bool> = [0, 5, 300]
            .iter()
            .map(|c| s.set(c * CHUNK_KEYS + 8, meta(*c)).page_fault)
            .collect();
        assert_eq!(faults, [true, false, false]);
        assert_eq!(s.memory_bytes(), SUPER);
        assert_eq!(chunks(&s, [0]), 3, "one host chunk per chunk written");
    }

    #[test]
    fn restore_reverts_chunks_and_drops_a_run_superpage() {
        let mut s = ArrayStore::new(BASE, SUPER);
        let _ = s.set(0x100, meta(1)); // "loader" slot, chunk 0
        s.capture_snapshot();
        let _ = s.set(0x108, meta(2)); // chunk 0 again
        let _ = s.set(7 * CHUNK_KEYS, meta(3)); // chunk 7
        assert!(s.set(1 << 20, meta(4)).page_fault, "a second superpage");
        assert_eq!((s.memory_bytes(), chunks(&s, [0, 1])), (2 * SUPER, 3));

        assert_eq!(s.restore_snapshot(), SUPER, "one baseline page back");
        assert_eq!(s.get(0x100).0, Some(meta(1)));
        assert_eq!(s.get(0x108).0, None);
        assert_eq!(s.get(7 * CHUNK_KEYS).0, None);
        assert_eq!(s.get(1 << 20).0, None);
        assert_eq!((s.memory_bytes(), s.entry_count()), (SUPER, 1));
        assert!(
            s.pages.get(1).is_none(),
            "the run page went with its chunks"
        );
        assert_eq!(chunks(&s, [0]), 1);
    }

    #[test]
    fn clearing_an_absent_slot_dirties_the_page_without_a_chunk() {
        let mut s = ArrayStore::new(BASE, SUPER);
        let _ = s.set(0x100, meta(1));
        s.capture_snapshot();
        let t = s.clear(9 * CHUNK_KEYS);
        assert!(!t.page_fault);
        assert_eq!(chunks(&s, [0]), 1, "no chunk for an absence");
        assert_eq!(s.entry_count(), 1);
        // The clear took the write path, so the page is restored.
        assert_eq!(s.restore_snapshot(), SUPER);
        assert_eq!(s.get(0x100).0, Some(meta(1)));
    }

    #[test]
    fn a_fork_writing_a_shared_chunk_leaves_the_original_alone() {
        let mut original = ArrayStore::new(BASE, SUPER);
        let _ = original.set(CHUNK_KEYS, meta(1));
        original.capture_snapshot();
        let mut fork = original.clone();
        let _ = fork.set(CHUNK_KEYS, meta(2));
        let _ = fork.set(CHUNK_KEYS + 8, meta(3));
        assert_eq!(original.get(CHUNK_KEYS).0, Some(meta(1)));
        assert_eq!(original.get(CHUNK_KEYS + 8).0, None);
        assert_eq!(fork.get(CHUNK_KEYS).0, Some(meta(2)));
        assert_eq!(original.restore_snapshot(), 0, "the original is clean");
    }

    #[test]
    #[should_panic(expected = "no baseline captured")]
    fn restore_without_capture_is_a_lifecycle_bug() {
        let mut s = ArrayStore::new(BASE, 4096);
        let _ = s.restore_snapshot();
    }
}
