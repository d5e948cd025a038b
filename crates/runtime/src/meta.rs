//! Interned based-on metadata: the provenance arena behind compact
//! tagged values.
//!
//! The paper's safe-region design (§3.2) keeps pointer metadata out of
//! the regular data path; the interpreter mirrors that by keeping it out
//! of the *register* path. Instead of hauling a full 32-byte [`Entry`]
//! inside every runtime value, the VM stores each distinct based-on
//! record once in a [`MetaTable`] and carries a 4-byte [`MetaId`] handle
//! in the value — the same provenance-compression move LIPPEN and
//! PACTight make in hardware by folding metadata into the pointer word.
//!
//! Identical metadata is deduplicated: interning the same [`Entry`]
//! twice yields the same [`MetaId`], so derived pointers that stay based
//! on one object share one record. Handles are generation-checked — a
//! [`MetaTable::reset`] invalidates every outstanding [`MetaId`], and
//! resolving a stale handle is reported rather than silently yielding
//! unrelated metadata.
//!
//! Handles do not only ride in registers: every safe-pointer-store
//! organization ([`crate::store::PtrStore`]) holds them inside its
//! compact [`crate::store::Slot`]s, so the table and the store form one
//! lifecycle unit. The VM's loader reset bumps the table generation and
//! boots a fresh store, so no slot outlives its generation; its snapshot
//! reset rewinds both to the post-load image.

use std::collections::HashMap;

use crate::entry::Entry;
use crate::fasthash::FastHash;

/// Bits of a [`MetaId`] holding the arena index (biased by one so the
/// all-zero word stays free for [`MetaId::NONE`]).
const INDEX_BITS: u32 = 28;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// Maximum number of live entries one table generation can hold
/// (~268M).
///
/// The VM interns at most one record per executed instruction (plus a
/// handful at load time), and its default fuel limit is 200M
/// instructions, so a default-configured run cannot exhaust a
/// generation — even a pathological malloc/free loop (every allocation
/// has a fresh temporal id, hence fresh provenance) runs out of fuel
/// first. Runs configured with much larger fuel budgets share the fate
/// of any interning design: the arena grows with distinct provenance
/// and the capacity assert in [`MetaTable::intern`] is the bound.
pub const META_CAPACITY: usize = (INDEX_MASK - 1) as usize;

/// A compact, generation-checked handle to an interned [`Entry`].
///
/// The niche `MetaId::NONE` (the all-zero word) marks values with no
/// provenance — plain integers — so a runtime value is just
/// `(u64 word, MetaId)`: 16 bytes instead of the 48 the inline
/// `Option<Entry>` representation needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaId(u32);

impl MetaId {
    /// The "no metadata" niche: what integer values carry.
    pub const NONE: MetaId = MetaId(0);

    /// True if this handle names no metadata.
    #[inline(always)]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True if this handle names an interned entry.
    #[inline(always)]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The arena index this handle points at.
    #[inline(always)]
    fn index(self) -> usize {
        ((self.0 & INDEX_MASK) - 1) as usize
    }

    /// The table generation this handle was minted in.
    #[inline(always)]
    fn generation(self) -> u32 {
        self.0 >> INDEX_BITS
    }
}

impl Default for MetaId {
    fn default() -> Self {
        MetaId::NONE
    }
}

/// The provenance interner: an arena of [`Entry`] records with a dedup
/// index, handing out generation-checked [`MetaId`]s.
///
/// ## Example
///
/// ```
/// use levee_rt::{Entry, MetaTable};
///
/// let mut t = MetaTable::new();
/// let a = t.intern(Entry::data(0x1000, 0x1000, 0x1040, 7));
/// let b = t.intern(Entry::data(0x1000, 0x1000, 0x1040, 7));
/// assert_eq!(a, b); // identical metadata is stored once
/// assert_eq!(t.get(a), Some(Entry::data(0x1000, 0x1000, 0x1040, 7)));
/// t.reset();
/// assert_eq!(t.get(a), None); // stale handles are rejected
/// ```
/// Slots in the direct-mapped front-cache ahead of the dedup map.
const RECENT_SLOTS: usize = 16;

#[derive(Clone)]
pub struct MetaTable {
    entries: Vec<Entry>,
    dedup: HashMap<Entry, MetaId, FastHash>,
    generation: u32,
    /// Direct-mapped front-cache over the dedup map: hot loops cycle
    /// through a handful of provenances (a vtable or two, the current
    /// frame's allocas, a few heap objects), and re-interning those
    /// should not pay a full map probe. Empty slots carry
    /// [`MetaId::NONE`].
    recent: [(Entry, MetaId); RECENT_SLOTS],
}

impl MetaTable {
    /// An empty table at generation zero.
    pub fn new() -> Self {
        MetaTable {
            entries: Vec::new(),
            dedup: HashMap::default(),
            generation: 0,
            recent: [(Entry::invalid(0), MetaId::NONE); RECENT_SLOTS],
        }
    }

    /// The front-cache slot for one record.
    #[inline(always)]
    fn recent_slot(entry: &Entry) -> usize {
        ((entry.lower >> 3) ^ entry.upper ^ entry.id) as usize & (RECENT_SLOTS - 1)
    }

    /// Interns `entry`, returning the handle of its unique record.
    ///
    /// Interning the same entry again returns the same handle; the
    /// caller is expected to *normalize* fields that should not affect
    /// identity (the VM normalizes `value` to `lower` so every pointer
    /// based on one object shares one record regardless of its current
    /// word).
    ///
    /// # Panics
    ///
    /// Panics when a generation exceeds [`META_CAPACITY`] distinct
    /// entries.
    pub fn intern(&mut self, entry: Entry) -> MetaId {
        let slot = Self::recent_slot(&entry);
        let (ce, cid) = self.recent[slot];
        if cid.is_some() && ce == entry {
            return cid;
        }
        let id = match self.dedup.get(&entry) {
            Some(id) => *id,
            None => {
                let index = self.entries.len();
                assert!(index < META_CAPACITY, "MetaTable generation overflow");
                self.entries.push(entry);
                let id = MetaId((self.generation << INDEX_BITS) | (index as u32 + 1));
                self.dedup.insert(entry, id);
                id
            }
        };
        self.recent[slot] = (entry, id);
        id
    }

    /// Looks up a handle: `None` for [`MetaId::NONE`], for handles
    /// minted before the last [`MetaTable::reset`], and for handles
    /// dropped by a [`MetaTable::truncate_to`] rewind (same generation,
    /// index past the truncated extent).
    #[inline(always)]
    pub fn get(&self, id: MetaId) -> Option<Entry> {
        if id.is_none() || id.generation() != self.generation {
            return None;
        }
        self.entries.get(id.index()).copied()
    }

    /// Resolves a handle that is known to be live.
    ///
    /// # Panics
    ///
    /// Panics on [`MetaId::NONE`] and on stale handles — resolving
    /// metadata across a reset is a lifecycle bug, never a data-driven
    /// condition.
    #[inline]
    pub fn resolve(&self, id: MetaId) -> Entry {
        assert!(
            id.is_some() && id.generation() == self.generation && id.index() < self.entries.len(),
            "stale or empty MetaId {:?} (table generation {}, {} entries)",
            id,
            self.generation,
            self.entries.len()
        );
        self.entries[id.index()]
    }

    /// Number of distinct entries interned in the current generation.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current generation (bumped by every reset).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Drops every entry and invalidates all outstanding handles:
    /// subsequent [`MetaTable::get`] on an old handle returns `None`.
    ///
    /// Generations wrap after 16 resets; a handle held across exactly
    /// 16 resets would alias. The VM never resets a live machine's
    /// table, so in practice resets only occur between runs with no
    /// handles outstanding.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.dedup.clear();
        self.recent = [(Entry::invalid(0), MetaId::NONE); RECENT_SLOTS];
        self.generation = (self.generation + 1) & 0xf;
    }

    /// Records the table's current extent so a later
    /// [`MetaTable::truncate_to`] can rewind to it.
    ///
    /// This is the snapshot-restore half of the lifecycle: unlike
    /// [`MetaTable::reset`], rewinding does *not* bump the generation,
    /// so every handle minted **before** the mark (the loader's
    /// `func_meta` / `global_meta` handles and the baseline slots held
    /// by the safe-pointer store) stays valid across the rewind.
    pub fn mark(&self) -> MetaMark {
        MetaMark {
            len: self.entries.len(),
            recent: self.recent,
        }
    }

    /// Rewinds the arena to a previously taken [`MetaMark`]: every
    /// entry interned after the mark is dropped (and removed from the
    /// dedup index), the front-cache is restored to its state at the
    /// mark, and the generation is left untouched. Returns the number
    /// of entries dropped.
    ///
    /// Post-mark entries are necessarily distinct from pre-mark ones
    /// (interning dedups), so removing them from the index can never
    /// evict a surviving record.
    pub fn truncate_to(&mut self, mark: &MetaMark) -> u64 {
        debug_assert!(mark.len <= self.entries.len(), "mark is from this table");
        let dropped = (self.entries.len() - mark.len) as u64;
        for entry in self.entries.drain(mark.len..) {
            self.dedup.remove(&entry);
        }
        self.recent = mark.recent;
        dropped
    }
}

/// An opaque rewind point for [`MetaTable::truncate_to`]: the arena
/// length plus a copy of the front-cache at the moment of the mark.
/// Taken by the VM right after `load()` as part of its post-load
/// snapshot (see `levee_vm`'s `Machine::reset`).
#[derive(Debug, Clone)]
pub struct MetaMark {
    len: usize,
    recent: [(Entry, MetaId); RECENT_SLOTS],
}

impl Default for MetaTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_the_zero_word() {
        assert!(MetaId::NONE.is_none());
        assert!(!MetaId::NONE.is_some());
        assert_eq!(MetaId::default(), MetaId::NONE);
        assert_eq!(std::mem::size_of::<MetaId>(), 4);
    }

    #[test]
    fn intern_resolve_roundtrip() {
        let mut t = MetaTable::new();
        let e = Entry::data(0x10, 0x10, 0x50, 3);
        let id = t.intern(e);
        assert!(id.is_some());
        assert_eq!(t.get(id), Some(e));
        assert_eq!(t.resolve(id), e);
    }

    #[test]
    fn dedup_shares_records() {
        let mut t = MetaTable::new();
        let a = t.intern(Entry::code(0x40));
        let b = t.intern(Entry::data(0x10, 0x10, 0x50, 3));
        let c = t.intern(Entry::code(0x40));
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn front_cache_does_not_leak_across_reset() {
        let mut t = MetaTable::new();
        let e = Entry::code(0x40);
        let old = t.intern(e);
        t.reset();
        let new = t.intern(e);
        assert_ne!(old, new, "reset invalidates even front-cached entries");
        assert_eq!(t.get(new), Some(e));
        assert_eq!(t.get(old), None);
    }

    #[test]
    fn front_cache_collisions_stay_correct() {
        // Entries that share a front-cache slot must still dedup to
        // their own handles.
        let mut t = MetaTable::new();
        let a = Entry::data(0x1000, 0x1000, 0x1000, 0);
        let b = Entry::data(0x1000 + (16 << 3), 0x1000 + (16 << 3), 0x1000, 0);
        let ia = t.intern(a);
        let ib = t.intern(b);
        for _ in 0..4 {
            assert_eq!(t.intern(a), ia);
            assert_eq!(t.intern(b), ib);
        }
        assert_ne!(ia, ib);
    }

    #[test]
    fn get_rejects_stale_handles() {
        let mut t = MetaTable::new();
        let id = t.intern(Entry::code(0x40));
        t.reset();
        assert_eq!(t.get(id), None);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.generation(), 1);
    }

    #[test]
    #[should_panic(expected = "stale or empty MetaId")]
    fn resolve_panics_on_stale() {
        let mut t = MetaTable::new();
        let id = t.intern(Entry::code(0x40));
        t.reset();
        t.resolve(id);
    }

    #[test]
    #[should_panic(expected = "stale or empty MetaId")]
    fn resolve_panics_on_none() {
        let t = MetaTable::new();
        t.resolve(MetaId::NONE);
    }

    #[test]
    fn truncate_to_keeps_pre_mark_handles_valid() {
        let mut t = MetaTable::new();
        let loader = t.intern(Entry::code(0x40));
        let mark = t.mark();
        let run = t.intern(Entry::data(0x10, 0x10, 0x50, 3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.truncate_to(&mark), 1);
        // Pre-mark handles survive (generation untouched)…
        assert_eq!(t.get(loader), Some(Entry::code(0x40)));
        assert_eq!(t.generation(), 0);
        // …post-mark ones are gone, from the arena and the index.
        assert_eq!(t.get(run), None);
        assert_eq!(t.len(), 1);
        // Re-interning the dropped record mints a fresh (post-mark)
        // handle rather than resurrecting the dropped one.
        let again = t.intern(Entry::data(0x10, 0x10, 0x50, 3));
        assert_eq!(again, run, "same arena position, same generation");
        assert_eq!(t.get(again), Some(Entry::data(0x10, 0x10, 0x50, 3)));
    }

    #[test]
    fn truncate_to_restores_the_front_cache() {
        let mut t = MetaTable::new();
        let e_pre = Entry::code(0x40);
        let pre = t.intern(e_pre);
        let mark = t.mark();
        // Evict e_pre's front-cache slot with a colliding post-mark
        // entry, then rewind: the cache must serve the pre-mark
        // mapping again, not the dropped one.
        let e_post = Entry::code(0x40 ^ (16 << 3));
        t.intern(e_post);
        t.truncate_to(&mark);
        assert_eq!(t.intern(e_pre), pre);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn repeated_rewinds_are_idempotent() {
        let mut t = MetaTable::new();
        t.intern(Entry::code(1));
        let mark = t.mark();
        for round in 0..4 {
            t.intern(Entry::code(100 + round));
            t.intern(Entry::code(200 + round));
            assert_eq!(t.truncate_to(&mark), 2);
            assert_eq!(t.len(), 1);
        }
        assert_eq!(t.truncate_to(&mark), 0, "clean rewind drops nothing");
    }
}
