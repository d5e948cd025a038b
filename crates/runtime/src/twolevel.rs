//! The two-level lookup-table safe-pointer-store organization.
//!
//! An MPX-style layout (§4, "Future MPX-based implementation"): a
//! directory indexed by the high bits of the pointer slot selects a leaf
//! table indexed by the low bits. Every operation costs two dependent
//! memory accesses — one directory probe, one leaf probe — which is why
//! the paper found it slower than the superpage-backed array.
//!
//! Leaves live in a [`CowPages`] table (hashed only: directory indices
//! are sparse); its module doc states the copy-on-write snapshot
//! invariant. This module adds the directory pages and the leaf
//! sequence numbers that place leaves in the simulated safe region.

use std::collections::HashSet;

use crate::pages::CowPages;
use crate::store::{PtrStore, Slot, Touched, SLOT_SIZE};

/// Number of entries per leaf table.
const LEAF_SLOTS: u64 = 512;
/// Simulated size of one leaf table in bytes. Compact 16-byte slots
/// halve it (8 KB instead of the 16 KB the inline-entry layout needed),
/// so a leaf's hot half fits in half as many cache lines.
const LEAF_BYTES: u64 = LEAF_SLOTS * SLOT_SIZE;
/// Simulated size of the (lazily materialized) directory in bytes per
/// resident directory page.
const DIR_PAGE_BYTES: u64 = 4096;

/// One leaf: its sequence number (which fixes its simulated address)
/// and its slots.
type Leaf = (u64, Vec<Option<Slot>>);

/// Two-level directory + leaf-table store.
///
/// Cloning (for [`PtrStore::boxed_clone`]) shares leaves copy-on-write
/// with the original; sequence numbers and dirty tracking stay per
/// clone, so simulated leaf addresses remain deterministic per machine.
#[derive(Clone)]
pub struct TwoLevelStore {
    base: u64,
    /// Directory index → leaf.
    leaves: CowPages<Leaf>,
    next_leaf_seq: u64,
    live: usize,
    /// Resident directory pages (for memory accounting).
    dir_pages: HashSet<u64>,
    /// Directory pages, next sequence number and live count at the
    /// last [`PtrStore::capture_snapshot`].
    captured: Option<Box<(HashSet<u64>, u64, usize)>>,
    /// Whether the directory itself grew since the capture — set when a
    /// probe (reads included) materializes a new directory page.
    dir_dirty: bool,
}

impl TwoLevelStore {
    /// Creates a two-level store based at simulated address `base`.
    pub fn new(base: u64) -> Self {
        TwoLevelStore {
            base,
            leaves: CowPages::new(0),
            next_leaf_seq: 0,
            live: 0,
            dir_pages: HashSet::new(),
            captured: None,
            dir_dirty: false,
        }
    }

    fn split(addr: u64) -> (u64, usize) {
        let slot = addr >> 3;
        (slot / LEAF_SLOTS, (slot % LEAF_SLOTS) as usize)
    }

    /// Simulated address of directory slot `dir_idx`.
    fn dir_addr(&self, dir_idx: u64) -> u64 {
        self.base + dir_idx * 8
    }

    /// Simulated address of slot `leaf_idx` in leaf number `seq`.
    fn leaf_addr(&self, seq: u64, leaf_idx: usize) -> u64 {
        // Leaves live above a 1 GB directory window.
        self.base + (1 << 30) + seq * LEAF_BYTES + leaf_idx as u64 * SLOT_SIZE
    }

    fn touch_dir(&mut self, dir_idx: u64, t: &mut Touched) {
        t.push(self.dir_addr(dir_idx));
        if self.dir_pages.insert(dir_idx * 8 / DIR_PAGE_BYTES) && self.captured.is_some() {
            // Even reads grow the directory (a probe materializes its
            // page), so the baseline divergence is flagged here, not
            // just on the leaf write paths.
            self.dir_dirty = true;
        }
    }
}

impl PtrStore for TwoLevelStore {
    fn boxed_clone(&self) -> Box<dyn PtrStore> {
        Box::new(self.clone())
    }

    fn set(&mut self, addr: u64, slot: Slot) -> Touched {
        let mut t = Touched::default();
        let (dir_idx, leaf_idx) = Self::split(addr);
        self.touch_dir(dir_idx, &mut t);
        let next_seq = &mut self.next_leaf_seq;
        let ((seq, leaf), fault) = self.leaves.get_or_insert_with(dir_idx, || {
            *next_seq += 1;
            (*next_seq - 1, vec![None; LEAF_SLOTS as usize])
        });
        if leaf[leaf_idx].is_none() {
            self.live += 1;
        }
        leaf[leaf_idx] = Some(slot);
        let seq = *seq;
        t.page_fault = fault;
        t.push(self.leaf_addr(seq, leaf_idx));
        t
    }

    fn get(&mut self, addr: u64) -> (Option<Slot>, Touched) {
        let mut t = Touched::default();
        let (dir_idx, leaf_idx) = Self::split(addr);
        self.touch_dir(dir_idx, &mut t);
        match self.leaves.get(dir_idx) {
            Some((seq, leaf)) => {
                t.push(self.leaf_addr(*seq, leaf_idx));
                (leaf[leaf_idx], t)
            }
            None => (None, t),
        }
    }

    fn clear(&mut self, addr: u64) -> Touched {
        let mut t = Touched::default();
        let (dir_idx, leaf_idx) = Self::split(addr);
        self.touch_dir(dir_idx, &mut t);
        if let Some(&(seq, ref leaf)) = self.leaves.get(dir_idx) {
            // Split the leaf only when there is something to remove: a
            // clear over an empty span (memset, stack reuse) must not
            // un-share clean baseline leaves.
            if leaf[leaf_idx].is_some() {
                self.leaves.get_mut(dir_idx).expect("resident").1[leaf_idx] = None;
                self.live -= 1;
            }
            t.push(self.leaf_addr(seq, leaf_idx));
        }
        t
    }

    fn entry_count(&self) -> usize {
        self.live
    }

    fn memory_bytes(&self) -> u64 {
        self.dir_pages.len() as u64 * DIR_PAGE_BYTES + self.leaves.resident() as u64 * LEAF_BYTES
    }

    fn base(&self) -> u64 {
        self.base
    }

    fn capture_snapshot(&mut self) {
        self.leaves.capture();
        self.captured = Some(Box::new((
            self.dir_pages.clone(),
            self.next_leaf_seq,
            self.live,
        )));
        self.dir_dirty = false;
    }

    fn restore_snapshot(&mut self) -> u64 {
        let (_, reshared) = self.leaves.restore();
        let (dir_pages, next_leaf_seq, live) = &**self.captured.as_ref().expect("captured");
        let mut bytes = reshared * LEAF_BYTES;
        if self.dir_dirty {
            self.dir_pages = dir_pages.clone();
            bytes += dir_pages.len() as u64 * DIR_PAGE_BYTES;
            self.dir_dirty = false;
        }
        // Rewinding the sequence counter keeps simulated leaf addresses
        // of post-restore allocations bit-identical to a fresh load.
        self.next_leaf_seq = *next_leaf_seq;
        self.live = *live;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaId;

    const BASE: u64 = 0x7100_0000_0000;

    fn slot(word: u64) -> Slot {
        Slot::new(word, MetaId::NONE)
    }

    #[test]
    fn roundtrip() {
        let mut s = TwoLevelStore::new(BASE);
        let e = slot(0x10);
        let _ = s.set(0x8000, e);
        assert_eq!(s.get(0x8000).0, Some(e));
        let _ = s.clear(0x8000);
        assert_eq!(s.get(0x8000).0, None);
        assert_eq!(s.entry_count(), 0);
    }

    #[test]
    fn every_op_touches_two_levels() {
        let mut s = TwoLevelStore::new(BASE);
        let t = s.set(0x4000, slot(1));
        assert_eq!(t.len(), 2); // directory + leaf
        let (_, t) = s.get(0x4000);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_of_absent_leaf_touches_directory_only() {
        let mut s = TwoLevelStore::new(BASE);
        let (e, t) = s.get(0xdead_0000);
        assert_eq!(e, None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn leaf_allocation_faults_once() {
        let mut s = TwoLevelStore::new(BASE);
        assert!(s.set(0x0, slot(1)).page_fault);
        assert!(!s.set(0x8, slot(1)).page_fault);
        // Different leaf (slot 512 → byte address 512*8).
        assert!(s.set(512 * 8, slot(1)).page_fault);
    }

    #[test]
    fn memory_counts_directory_and_leaves() {
        let mut s = TwoLevelStore::new(BASE);
        let _ = s.set(0x0, slot(1));
        assert_eq!(s.memory_bytes(), DIR_PAGE_BYTES + LEAF_BYTES);
        let _ = s.set(512 * 8, slot(1)); // second leaf, same dir page
        assert_eq!(s.memory_bytes(), DIR_PAGE_BYTES + 2 * LEAF_BYTES);
    }

    /// The compact-slot payoff: one leaf is 512 × 16 B = 8 KB, half the
    /// 16 KB the 32-byte inline-entry layout materialized per leaf.
    #[test]
    fn leaves_are_half_the_seed_size() {
        assert_eq!(LEAF_BYTES, 512 * SLOT_SIZE);
        assert_eq!(LEAF_BYTES, 8 << 10);
    }

    #[test]
    fn copy_range_moves_slots() {
        let mut s = TwoLevelStore::new(BASE);
        let _ = s.set(0x1000, slot(0xAA));
        let (copied, _) = s.copy_range(0x2000, 0x1000, 8);
        assert_eq!(copied, 1);
        assert_eq!(s.get(0x2000).0, Some(slot(0xAA)));
    }

    /// Leaf sequence numbers feed simulated leaf addresses, so restore
    /// must rewind the allocator: a leaf allocated after a restore must
    /// land at the same simulated address as after a fresh load.
    #[test]
    fn snapshot_restore_rewinds_leaf_sequencing() {
        let mut s = TwoLevelStore::new(BASE);
        let _ = s.set(0x1000, slot(1)); // loader leaf, seq 0
        s.capture_snapshot();
        assert_eq!(s.restore_snapshot(), 0, "clean restore copies nothing");

        // Run 1: dirty the loader leaf, allocate a run-only leaf
        // (0x4000 is 2048 slots in — a different directory entry).
        let _ = s.set(0x1008, slot(2));
        let run1 = s.set(0x4000, slot(3));
        let run1_leaf = run1.iter().nth(1).unwrap();
        assert!(s.restore_snapshot() > 0);
        assert_eq!(s.get(0x1000).0, Some(slot(1)));
        assert_eq!(s.get(0x1008).0, None);
        assert_eq!(s.get(0x4000).0, None);
        assert_eq!(s.entry_count(), 1);

        // Run 2: the same allocation sequence reproduces the same
        // simulated leaf address.
        let run2 = s.set(0x4000, slot(3));
        let run2_leaf = run2.iter().nth(1).unwrap();
        assert_eq!(run1_leaf, run2_leaf);
    }

    /// Reads materialize directory pages; a restore must revert that
    /// growth so `memory_bytes` matches a fresh load.
    #[test]
    fn snapshot_restore_reverts_read_grown_directory() {
        let mut s = TwoLevelStore::new(BASE);
        let _ = s.set(0x1000, slot(1));
        s.capture_snapshot();
        let baseline_bytes = s.memory_bytes();
        // A miss probe far away touches a fresh directory page.
        let (absent, _) = s.get(0x4000_0000);
        assert_eq!(absent, None);
        assert!(s.memory_bytes() > baseline_bytes);
        assert!(s.restore_snapshot() > 0);
        assert_eq!(s.memory_bytes(), baseline_bytes);
    }
}
