//! The safe-pointer-store interface and its access-trace machinery.
//!
//! §4 of the paper: "We implemented and benchmarked several versions of
//! the safe pointer store map in our runtime support library: a simple
//! array, a two-level lookup table, and a hashtable." All three live in
//! this crate behind the [`PtrStore`] trait. Every operation reports the
//! *simulated safe-region addresses it touched* so the VM's cache model
//! can reproduce the locality differences the paper observed (the sparse
//! array with superpages being fastest).
//!
//! Slots are **compact**: instead of a full 32-byte [`crate::entry::Entry`]
//! record per pointer, a slot is a [`Slot`] — the pointer word plus a
//! 4-byte [`MetaId`] handle into the [`crate::meta::MetaTable`] that owns
//! the based-on record. This halves simulated safe-region memory
//! ([`SLOT_SIZE`] = 16 vs the 32 bytes of the inline-entry layout) and
//! makes `copy_range` a plain handle move.

use crate::meta::MetaId;

/// Size of one safe-pointer-store slot in (simulated) bytes: the 8-byte
/// pointer word plus the 4-byte provenance handle, kept at a 16-byte
/// power-of-two so the array organizations can index with a shift.
/// Replaces the 32-byte inline-entry layout (`value + lower + upper +
/// id`) the seed stored per slot.
pub const SLOT_SIZE: u64 = 16;

/// One compact safe-pointer-store slot: the authoritative pointer word
/// plus the interned based-on handle.
///
/// The handle references the owning machine's
/// [`crate::meta::MetaTable`]; a slot whose `meta` is
/// [`MetaId::NONE`] is the paper's *invalid* metadata marker — the word
/// is authoritative (the safe region holds the value) but no bounds
/// record backs it, so it never authorizes any access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The pointer value itself (the safe region holds the
    /// authoritative copy; the regular-region location stays unused,
    /// per Fig. 2).
    pub word: u64,
    /// Handle to the interned based-on record, or [`MetaId::NONE`] for
    /// a sensitive-typed location holding a non-pointer value.
    pub meta: MetaId,
}

impl Slot {
    /// A slot carrying a word with live provenance.
    #[inline(always)]
    pub fn new(word: u64, meta: MetaId) -> Self {
        Slot { word, meta }
    }

    /// The *invalid*-metadata slot: word only, no based-on record.
    #[inline(always)]
    pub fn invalid(word: u64) -> Self {
        Slot {
            word,
            meta: MetaId::NONE,
        }
    }
}

/// Addresses touched by one store operation.
///
/// Point operations record at most 4 concrete addresses (e.g. a
/// two-level lookup touches a directory slot and a leaf entry); paths
/// that legitimately touch an unbounded number of addresses — range
/// operations, long hash probe chains — record the first 4 and count
/// the remainder in [`Touched::spill`], which the VM charges as
/// additional sequential accesses. Nothing is silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Touched {
    addrs: [u64; 4],
    n: u8,
    /// Touches beyond the recorded sample. The VM's cost model charges
    /// these as additional slot-sized sequential accesses following the
    /// last recorded address.
    pub spill: u32,
    /// Whether the operation faulted in a fresh page (first touch); the
    /// cost model charges a page-fault penalty, which is how the paper's
    /// "many page faults at startup / TLB pressure" observation for the
    /// 4 KB array shows up.
    pub page_fault: bool,
}

impl Touched {
    /// Records one touched address of a *point* operation.
    ///
    /// The capacity bounds the addresses one point operation may touch;
    /// an organization that exceeds it would under-report traffic to the
    /// cache model, so overflow here is a bug in the organization: it
    /// debug-asserts rather than dropping the touch. (In release builds
    /// the touch is still accounted, via [`Touched::spill`].) Paths that
    /// touch unboundedly many addresses by design must use
    /// [`Touched::push_sampled`] instead.
    pub fn push(&mut self, addr: u64) {
        debug_assert!(
            (self.n as usize) < self.addrs.len(),
            "Touched overflow: point store op touched more than {} addresses ({addr:#x}); \
             use push_sampled for range/probe paths",
            self.addrs.len(),
        );
        self.push_sampled(addr);
    }

    /// Records a touch from an unbounded path (range operation, probe
    /// chain): the first addresses are kept exactly, the rest are
    /// counted in [`Touched::spill`] so the cost model still charges
    /// them.
    pub fn push_sampled(&mut self, addr: u64) {
        if (self.n as usize) < self.addrs.len() {
            self.addrs[self.n as usize] = addr;
            self.n += 1;
        } else {
            self.spill += 1;
        }
    }

    /// Folds the touches of a sub-operation into this record (range
    /// operations are built from point operations).
    pub fn absorb(&mut self, sub: &Touched) {
        for a in sub.iter() {
            self.push_sampled(a);
        }
        self.spill += sub.spill;
        self.page_fault |= sub.page_fault;
    }

    /// The touched addresses.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.addrs[..self.n as usize].iter().copied()
    }

    /// Number of touched addresses.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when no address was touched.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Which safe-pointer-store organization to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Simple array over the sparse address space, 4 KB pages.
    Array4K,
    /// Simple array with 2 MB superpages — the paper's fastest choice.
    ArraySuperpage,
    /// Two-level lookup table (MPX-style directory + leaf tables).
    TwoLevel,
    /// Open-addressing hash table.
    Hash,
}

impl StoreKind {
    /// All organizations, for comparison benches (experiment E6).
    pub fn all() -> &'static [StoreKind] {
        &[
            StoreKind::Array4K,
            StoreKind::ArraySuperpage,
            StoreKind::TwoLevel,
            StoreKind::Hash,
        ]
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Array4K => "array-4K",
            StoreKind::ArraySuperpage => "array-2M",
            StoreKind::TwoLevel => "two-level",
            StoreKind::Hash => "hashtable",
        }
    }

    /// Instantiates the organization with its safe region based at
    /// `base` (a simulated address chosen by the isolation layer).
    pub fn instantiate(self, base: u64) -> Box<dyn PtrStore> {
        match self {
            StoreKind::Array4K => Box::new(crate::array_store::ArrayStore::new(base, 4 << 10)),
            StoreKind::ArraySuperpage => {
                Box::new(crate::array_store::ArrayStore::new(base, 2 << 20))
            }
            StoreKind::TwoLevel => Box::new(crate::twolevel::TwoLevelStore::new(base)),
            StoreKind::Hash => Box::new(crate::hash_store::HashStore::new(base)),
        }
    }
}

/// The safe pointer store: a map from the regular-region address of a
/// sensitive pointer to its compact [`Slot`].
///
/// Keys are pointer-aligned (8-byte) regular addresses. The store itself
/// lives at simulated safe-region addresses — the `Touched` values —
/// which by construction are never representable in regular memory
/// (§3.2.3's leak-proof indexing).
///
/// Every mutating/probing method returns [`Touched`], and dropping one
/// silently is unaccounted cache traffic in the VM's cost model — hence
/// the `#[must_use]` on every method that reports touches. Callers that
/// genuinely do not charge (the loader populating initializer slots
/// before execution starts) must opt out with an explicit `let _ =`.
///
/// Stores are plain owned data with no interior mutability or shared
/// handles: the `Send` supertrait lets a whole `Machine` migrate to a
/// worker thread, and [`PtrStore::boxed_clone`] forks the store for a
/// new machine. Cloned stores share baseline pages copy-on-write, but
/// each clone's dirty tracking is private (see [`crate::pages`]).
pub trait PtrStore: Send {
    /// Forks this store for a new machine: identical contents and
    /// geometry, baseline pages shared copy-on-write with the original.
    fn boxed_clone(&self) -> Box<dyn PtrStore>;

    /// Inserts or overwrites the slot for `addr`.
    #[must_use = "dropping a Touched loses safe-store cache traffic; charge it or bind `let _ =`"]
    fn set(&mut self, addr: u64, slot: Slot) -> Touched;

    /// Looks up the slot for `addr` (`None` is the paper's `none`
    /// marker: no sensitive value currently stored there).
    #[must_use = "dropping a Touched loses safe-store cache traffic; charge it or bind `let _ =`"]
    fn get(&mut self, addr: u64) -> (Option<Slot>, Touched);

    /// Removes the slot for `addr`, if any.
    #[must_use = "dropping a Touched loses safe-store cache traffic; charge it or bind `let _ =`"]
    fn clear(&mut self, addr: u64) -> Touched;

    /// Removes all slots with `addr ∈ [start, start+len)` — used when
    /// plain memory writes (memset, frees, unsafe-stack reuse) overwrite
    /// regions that used to hold sensitive pointers.
    #[must_use = "dropping a Touched loses safe-store cache traffic; charge it or bind `let _ =`"]
    fn clear_range(&mut self, start: u64, len: u64) -> Touched {
        let mut t = Touched::default();
        for a in aligned_slots(start, len) {
            t.absorb(&self.clear(a));
        }
        t
    }

    /// Copies slots for each pointer-aligned slot address from `src` to
    /// `dst` (the type-aware `cpi_memcpy` of §3.2.2) — with compact
    /// slots this is a plain `(word, handle)` move, no metadata
    /// materialization. Destination slots whose source has no slot are
    /// cleared. Returns the number of slots copied.
    #[must_use = "dropping a Touched loses safe-store cache traffic; charge it or bind `let _ =`"]
    fn copy_range(&mut self, dst: u64, src: u64, len: u64) -> (u64, Touched) {
        let mut t = Touched::default();
        // Gather first so overlapping ranges behave like memmove.
        let slots: Vec<(u64, Option<Slot>)> = aligned_slots(src, len)
            .map(|a| {
                let (s, sub) = self.get(a);
                t.absorb(&sub);
                (a - (src & !7), s)
            })
            .collect();
        let mut copied = 0;
        for (off, s) in slots {
            let target = (dst & !7) + off;
            let sub = match s {
                Some(slot) => {
                    copied += 1;
                    self.set(target, slot)
                }
                None => self.clear(target),
            };
            t.absorb(&sub);
        }
        (copied, t)
    }

    /// Number of live slots.
    fn entry_count(&self) -> usize;

    /// Simulated bytes of safe-region memory materialized by this store
    /// — the numerator of the paper's memory-overhead numbers (§5.2).
    fn memory_bytes(&self) -> u64;

    /// The store's base address in the simulated safe region.
    fn base(&self) -> u64;

    /// Captures the store's current contents as its immutable baseline:
    /// the per-structure half of the VM's post-`load()` memory-image
    /// snapshot (see `levee_vm`'s `Machine::reset`). At capture time a
    /// store holds only the loader's protected initializer slots, so
    /// the baseline is small; the handles inside it are minted *before*
    /// the owning `MetaTable`'s mark and therefore survive the
    /// snapshot rewind (`MetaTable::truncate_to`).
    fn capture_snapshot(&mut self);

    /// Rewinds the store to the captured baseline, returning the number
    /// of simulated safe-region bytes that had to be copied back (0
    /// when the last run never dirtied the structure). Restoring is
    /// bit-identical to a freshly loaded store in every observable:
    /// slot contents, entry count, memory footprint *and* geometry-
    /// derived simulated addresses (leaf sequence numbers, hash
    /// capacity, probe order).
    ///
    /// # Panics
    ///
    /// Panics when no baseline was captured — restoring without a
    /// snapshot is an owner lifecycle bug.
    fn restore_snapshot(&mut self) -> u64;
}

/// Shared helper: iterate the 8-aligned slots that overlap
/// `[start, start+len)`.
fn aligned_slots(start: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = start & !7;
    let end = start.saturating_add(len);
    (0..)
        .map(move |i| first + 8 * i)
        .take_while(move |a| *a < end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_capacity() {
        let mut t = Touched::default();
        for i in 0..4 {
            t.push(i);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(!t.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Touched overflow")]
    fn touched_overflow_is_a_bug() {
        let mut t = Touched::default();
        for i in 0..5 {
            t.push(i);
        }
    }

    /// In release builds (no debug assertions) overflow still caps
    /// rather than corrupting state.
    #[test]
    #[cfg(not(debug_assertions))]
    fn touched_overflow_caps_in_release() {
        let mut t = Touched::default();
        for i in 0..6 {
            t.push(i);
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn aligned_slot_iteration() {
        let slots: Vec<u64> = aligned_slots(0x1004, 8).collect();
        // Covers the slot containing 0x1004 and the one containing 0x100b.
        assert_eq!(slots, vec![0x1000, 0x1008]);
        let exact: Vec<u64> = aligned_slots(0x2000, 16).collect();
        assert_eq!(exact, vec![0x2000, 0x2008]);
        let empty: Vec<u64> = aligned_slots(0x2000, 0).collect();
        assert!(empty.is_empty());
    }

    /// The representation guarantee behind the slot compaction: a host
    /// `Slot` fits the simulated [`SLOT_SIZE`], so the simulated
    /// geometry (16 bytes per slot, half the 32-byte inline-entry
    /// layout) matches what the host actually moves.
    #[test]
    fn slot_is_compact() {
        assert!(std::mem::size_of::<Slot>() as u64 <= SLOT_SIZE);
        assert_eq!(SLOT_SIZE, 16);
        let s = Slot::invalid(0xdead);
        assert_eq!(s.word, 0xdead);
        assert!(s.meta.is_none());
    }

    #[test]
    fn store_kind_names_unique() {
        let mut names: Vec<_> = StoreKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StoreKind::all().len());
    }
}
