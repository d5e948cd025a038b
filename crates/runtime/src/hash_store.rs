//! The hash-table safe-pointer-store organization.
//!
//! Open addressing with linear probing and tombstone-free backward-shift
//! deletion. Memory-frugal (the paper measured 13.9% CPI memory overhead
//! for the hash table vs 105% for the array) but with the worst cache
//! behaviour: the hash scatters adjacent pointer slots across the table,
//! destroying the spatial locality the array organization preserves.

use crate::store::{PtrStore, Slot, Touched};

/// Simulated bytes per bucket: 8-byte key tag + 8-byte pointer word +
/// 4-byte provenance handle, tightly packed. Unlike the array
/// organizations — whose [`crate::store::SLOT_SIZE`] stays a 16-byte
/// power of two so slot addresses compute with a shift — hash buckets
/// are only ever reached through a probe, so nothing forces padding the
/// handle out to a full word; the simulated layout packs the triple
/// into 20 bytes (the seed's inline-entry bucket was 8 + 32 = 40).
const BUCKET_BYTES: u64 = 8 + 8 + 4;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Key (the regular-region slot address).
    key: u64,
    slot: Slot,
}

/// Open-addressing hash table keyed by pointer slot address.
///
/// Cloning (for [`PtrStore::boxed_clone`]) deep-copies the table —
/// it is small (geometry scalars plus resident buckets) and has no
/// page substructure worth sharing.
#[derive(Clone)]
pub struct HashStore {
    base: u64,
    buckets: Vec<Option<Bucket>>,
    mask: u64,
    live: usize,
    /// High-water mark of resident buckets, for memory accounting.
    max_capacity: usize,
    /// The captured post-load image ([`PtrStore::capture_snapshot`]): a
    /// clone of the whole (then tiny) store, so a restore also brings
    /// back the capacity and mask that probe addresses depend on.
    /// Growth rehashes every bucket, so the dirty granularity is the
    /// whole table.
    baseline: Option<Box<HashStore>>,
    /// Whether any mutation diverged the table from the baseline.
    dirty: bool,
}

impl HashStore {
    /// Creates a hash store based at simulated address `base`. Starts
    /// small and grows; memory accounting reflects the high-water mark.
    pub fn new(base: u64) -> Self {
        let cap = 64;
        HashStore {
            base,
            buckets: vec![None; cap],
            mask: cap as u64 - 1,
            live: 0,
            max_capacity: cap,
            baseline: None,
            dirty: false,
        }
    }

    /// Fibonacci hashing of the slot address.
    fn hash(&self, key: u64) -> u64 {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask
    }

    fn bucket_addr(&self, idx: u64) -> u64 {
        self.base + idx * BUCKET_BYTES
    }

    fn grow(&mut self) {
        let new_cap = self.buckets.len() * 2;
        self.max_capacity = self.max_capacity.max(new_cap);
        let old = std::mem::replace(&mut self.buckets, vec![None; new_cap]);
        self.mask = new_cap as u64 - 1;
        self.live = 0;
        for b in old.into_iter().flatten() {
            self.insert_no_trace(b.key, b.slot);
        }
    }

    fn insert_no_trace(&mut self, key: u64, slot: Slot) {
        let mut idx = self.hash(key);
        loop {
            match &mut self.buckets[idx as usize] {
                bucket @ None => {
                    *bucket = Some(Bucket { key, slot });
                    self.live += 1;
                    return;
                }
                Some(b) if b.key == key => {
                    b.slot = slot;
                    return;
                }
                Some(_) => idx = (idx + 1) & self.mask,
            }
        }
    }

    /// Probes for `key`; returns (bucket index if found, probe count).
    fn probe(&self, key: u64, t: &mut Touched) -> (Option<u64>, u32) {
        let mut idx = self.hash(key);
        let mut probes = 0;
        loop {
            probes += 1;
            // Probe chains are unbounded by design: sample + spill.
            t.push_sampled(self.bucket_addr(idx));
            match &self.buckets[idx as usize] {
                None => return (None, probes),
                Some(b) if b.key == key => return (Some(idx), probes),
                Some(_) => idx = (idx + 1) & self.mask,
            }
        }
    }

    /// Backward-shift deletion starting at a vacated index, preserving
    /// probe-sequence invariants without tombstones.
    fn backward_shift(&mut self, mut hole: u64) {
        let mut idx = (hole + 1) & self.mask;
        loop {
            match self.buckets[idx as usize] {
                None => return,
                Some(b) => {
                    let home = self.hash(b.key);
                    // Can `b` legally move into the hole? Yes iff the hole
                    // lies cyclically between its home and current position.
                    let between = if home <= idx {
                        home <= hole && hole < idx
                    } else {
                        home <= hole || hole < idx
                    };
                    if between {
                        self.buckets[hole as usize] = Some(b);
                        self.buckets[idx as usize] = None;
                        hole = idx;
                    }
                    idx = (idx + 1) & self.mask;
                }
            }
        }
    }
}

impl PtrStore for HashStore {
    fn boxed_clone(&self) -> Box<dyn PtrStore> {
        Box::new(self.clone())
    }

    fn set(&mut self, addr: u64, slot: Slot) -> Touched {
        if (self.live + 1) * 10 > self.buckets.len() * 7 {
            self.grow();
        }
        let key = addr & !7;
        let mut t = Touched::default();
        let (found, _) = self.probe(key, &mut t);
        self.dirty = true;
        match found {
            Some(idx) => {
                self.buckets[idx as usize].as_mut().expect("probed").slot = slot;
            }
            None => self.insert_no_trace(key, slot),
        }
        t
    }

    fn get(&mut self, addr: u64) -> (Option<Slot>, Touched) {
        let key = addr & !7;
        let mut t = Touched::default();
        let (found, _) = self.probe(key, &mut t);
        (
            found.map(|idx| self.buckets[idx as usize].expect("probed").slot),
            t,
        )
    }

    fn clear(&mut self, addr: u64) -> Touched {
        let key = addr & !7;
        let mut t = Touched::default();
        let (found, _) = self.probe(key, &mut t);
        if let Some(idx) = found {
            self.dirty = true;
            self.buckets[idx as usize] = None;
            self.live -= 1;
            self.backward_shift(idx);
        }
        t
    }

    fn entry_count(&self) -> usize {
        self.live
    }

    fn memory_bytes(&self) -> u64 {
        self.max_capacity as u64 * BUCKET_BYTES
    }

    fn base(&self) -> u64 {
        self.base
    }

    fn capture_snapshot(&mut self) {
        self.baseline = None;
        self.dirty = false;
        self.baseline = Some(Box::new(self.clone()));
    }

    fn restore_snapshot(&mut self) -> u64 {
        let baseline = self.baseline.take().expect("no baseline captured");
        let restored = if self.dirty {
            // The high-water mark comes back too: a restored store must
            // report the same memory_bytes as a freshly loaded one.
            *self = (*baseline).clone();
            self.memory_bytes()
        } else {
            0
        };
        self.baseline = Some(baseline);
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaId;

    const BASE: u64 = 0x7200_0000_0000;

    fn slot(word: u64) -> Slot {
        Slot::new(word, MetaId::NONE)
    }

    #[test]
    fn roundtrip() {
        let mut s = HashStore::new(BASE);
        let e = slot(1);
        let _ = s.set(0x1000, e);
        assert_eq!(s.get(0x1000).0, Some(e));
        assert_eq!(s.get(0x1008).0, None);
        let _ = s.clear(0x1000);
        assert_eq!(s.get(0x1000).0, None);
    }

    #[test]
    fn overwrite_does_not_duplicate() {
        let mut s = HashStore::new(BASE);
        let _ = s.set(0x10, slot(1));
        let _ = s.set(0x10, slot(2));
        assert_eq!(s.entry_count(), 1);
        assert_eq!(s.get(0x10).0, Some(slot(2)));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = HashStore::new(BASE);
        for i in 0..4096u64 {
            let _ = s.set(i * 8, slot(i));
        }
        assert_eq!(s.entry_count(), 4096);
        for i in 0..4096u64 {
            assert_eq!(s.get(i * 8).0, Some(slot(i)), "key {i}");
        }
    }

    #[test]
    fn deletion_preserves_probe_chains() {
        let mut s = HashStore::new(BASE);
        // Insert enough keys to force collisions, then delete half and
        // verify the rest are still findable.
        for i in 0..512u64 {
            let _ = s.set(i * 8, slot(i));
        }
        for i in (0..512u64).step_by(2) {
            let _ = s.clear(i * 8);
        }
        for i in 0..512u64 {
            let expect = if i % 2 == 0 { None } else { Some(slot(i)) };
            assert_eq!(s.get(i * 8).0, expect, "key {i}");
        }
    }

    #[test]
    fn memory_is_capacity_based_not_page_based() {
        let mut s = HashStore::new(BASE);
        let _ = s.set(0x0, slot(1));
        let _ = s.set(0xde_adbe_ef00, slot(2)); // far-apart keys, same table
        assert_eq!(s.memory_bytes(), 64 * BUCKET_BYTES);
        for i in 0..256u64 {
            let _ = s.set(i * 8, slot(i));
        }
        assert!(s.memory_bytes() >= 256 * BUCKET_BYTES); // grew
    }

    /// The compact-slot payoff: a packed bucket is 20 simulated bytes
    /// — exactly half the seed's 40-byte (key + inline entry) bucket.
    #[test]
    fn buckets_are_half_the_seed_size() {
        assert_eq!(BUCKET_BYTES, 20);
        assert_eq!(40 / BUCKET_BYTES, 2);
    }

    /// Snapshot restore must recover the pristine geometry — including
    /// the capacity/mask a run's growth changed, since probe addresses
    /// (the simulated touch trace) depend on it.
    #[test]
    fn snapshot_restore_recovers_geometry_and_contents() {
        let mut s = HashStore::new(BASE);
        let _ = s.set(0x1000, slot(7)); // "loader" slot
        s.capture_snapshot();
        assert_eq!(s.restore_snapshot(), 0, "clean restore copies nothing");
        assert_eq!(s.get(0x1000).0, Some(slot(7)));

        // Grow the table past the baseline geometry, then restore.
        for i in 0..4096u64 {
            let _ = s.set(0x10_0000 + i * 8, slot(i));
        }
        assert!(s.memory_bytes() > 64 * BUCKET_BYTES);
        assert_eq!(s.restore_snapshot(), 64 * BUCKET_BYTES);
        assert_eq!(s.entry_count(), 1);
        assert_eq!(s.get(0x1000).0, Some(slot(7)));
        assert_eq!(s.memory_bytes(), 64 * BUCKET_BYTES);

        // Probe addresses match a fresh store carrying the same slot.
        let mut fresh = HashStore::new(BASE);
        let _ = fresh.set(0x1000, slot(7));
        let (_, t_restored) = s.get(0x2000);
        let (_, t_fresh) = fresh.get(0x2000);
        assert_eq!(
            t_restored.iter().collect::<Vec<_>>(),
            t_fresh.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn unaligned_addresses_share_slot() {
        let mut s = HashStore::new(BASE);
        let _ = s.set(0x1000, slot(7));
        // Key normalization: 0x1003 falls in the 0x1000 slot.
        assert_eq!(s.get(0x1003).0, Some(slot(7)));
    }
}
