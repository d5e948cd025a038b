//! A simple heap allocator with allocation ids for temporal safety.
//!
//! Bump allocation with per-size-class free lists; every allocation gets
//! a fresh temporal id (CETS-style), and freeing retires the id, so the
//! machine can detect use-after-free on sensitive pointers when temporal
//! checking is enabled. Freeing an array and allocating a new one at the
//! same address creates a *different* target object, exactly as §3
//! defines object lifetimes.

use std::collections::HashMap;

use levee_rt::FastHash;

/// One live or retired allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Temporal id (unique per allocation event; never reused).
    pub id: u64,
    /// Liveness.
    pub live: bool,
}

/// Heap state.
#[derive(Clone)]
pub struct Heap {
    base: u64,
    limit: u64,
    brk: u64,
    next_id: u64,
    /// Free lists keyed by rounded size class.
    free: HashMap<u64, Vec<u64>, FastHash>,
    /// All allocations ever made, keyed by base address of the most
    /// recent allocation at that address.
    by_addr: HashMap<u64, Allocation, FastHash>,
    /// Retired ids (freed allocations), for temporal checks.
    dead_ids: std::collections::HashSet<u64>,
    /// Peak bytes in use.
    peak: u64,
    in_use: u64,
    /// Post-load baseline for snapshot resets: a clone of the whole
    /// allocator, see [`capture_snapshot`](Self::capture_snapshot).
    baseline: Option<Box<Heap>>,
    /// True once `malloc`/`free` ran after the last capture/restore.
    dirty: bool,
}

/// Heap errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// Allocation would exceed the heap limit.
    OutOfMemory,
    /// `free` of an address that is not a live allocation base.
    InvalidFree { addr: u64 },
}

fn size_class(size: u64) -> u64 {
    size.max(8).next_power_of_two()
}

impl Heap {
    /// Creates a heap spanning `[base, base+limit)`.
    pub fn new(base: u64, limit: u64) -> Self {
        Heap {
            base,
            limit,
            brk: base,
            next_id: 1,
            free: HashMap::default(),
            by_addr: HashMap::default(),
            dead_ids: std::collections::HashSet::new(),
            peak: 0,
            in_use: 0,
            baseline: None,
            dirty: false,
        }
    }

    /// Captures the complete allocator state as the restore baseline.
    ///
    /// Called once right after `load()`, when the heap holds only the
    /// loader's allocations (usually none), so the clone is tiny — and
    /// restores are cheaper still: a run that never touched the
    /// allocator restores nothing (see the `dirty` flag).
    pub fn capture_snapshot(&mut self) {
        self.baseline = None;
        self.dirty = false;
        self.baseline = Some(Box::new(self.clone()));
    }

    /// Reverts the allocator to the captured baseline; a run that never
    /// called `malloc`/`free` restores nothing. Rewinding `next_id`
    /// deliberately reissues the same temporal ids the previous run
    /// drew — that is what makes a restored machine's use-after-free
    /// verdicts bit-identical to a fresh boot's. Returns whether any
    /// state was copied back.
    ///
    /// # Panics
    ///
    /// Panics if [`capture_snapshot`](Self::capture_snapshot) never ran.
    pub fn restore_snapshot(&mut self) -> bool {
        let baseline = self.baseline.take().expect("no baseline captured");
        let restored = self.dirty;
        if restored {
            *self = (*baseline).clone();
        }
        self.baseline = Some(baseline);
        restored
    }

    /// Allocates `size` bytes (8-aligned); returns the allocation record.
    pub fn malloc(&mut self, size: u64) -> Result<Allocation, HeapError> {
        self.dirty = true;
        let class = size_class(size);
        let addr = match self.free.get_mut(&class).and_then(|v| v.pop()) {
            Some(addr) => addr,
            None => {
                let addr = self.brk;
                let new_brk = addr.checked_add(class).ok_or(HeapError::OutOfMemory)?;
                if new_brk > self.base + self.limit {
                    return Err(HeapError::OutOfMemory);
                }
                self.brk = new_brk;
                addr
            }
        };
        let alloc = Allocation {
            addr,
            size,
            id: self.next_id,
            live: true,
        };
        self.next_id += 1;
        self.by_addr.insert(addr, alloc);
        self.in_use += class;
        self.peak = self.peak.max(self.in_use);
        Ok(alloc)
    }

    /// Frees the allocation at `addr`, retiring its temporal id.
    /// `free(0)` (NULL) is a no-op, per C semantics.
    pub fn free(&mut self, addr: u64) -> Result<(), HeapError> {
        if addr == 0 {
            return Ok(());
        }
        match self.by_addr.get_mut(&addr) {
            Some(a) if a.live => {
                self.dirty = true;
                a.live = false;
                let (id, size) = (a.id, a.size);
                self.dead_ids.insert(id);
                let class = size_class(size);
                self.free.entry(class).or_default().push(addr);
                self.in_use -= class;
                Ok(())
            }
            _ => Err(HeapError::InvalidFree { addr }),
        }
    }

    /// True if temporal id `id` refers to a freed allocation.
    pub fn id_is_dead(&self, id: u64) -> bool {
        self.dead_ids.contains(&id)
    }

    /// The live allocation whose range contains `addr`, if any.
    pub fn containing(&self, addr: u64) -> Option<Allocation> {
        // Linear scan is fine at our simulation scales only for tests;
        // use the base-address map first for the common exact case.
        if let Some(a) = self.by_addr.get(&addr) {
            if a.live {
                return Some(*a);
            }
        }
        self.by_addr
            .values()
            .find(|a| a.live && addr >= a.addr && addr < a.addr + a.size)
            .copied()
    }

    /// Peak heap bytes in use (size-class rounded).
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Current heap break (high-water address).
    pub fn brk(&self) -> u64 {
        self.brk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_returns_disjoint_regions() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let a = h.malloc(100).unwrap();
        let b = h.malloc(100).unwrap();
        assert!(a.addr + 128 <= b.addr || b.addr + 128 <= a.addr);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn free_and_reuse_changes_id() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        assert!(h.id_is_dead(a.id));
        let b = h.malloc(64).unwrap();
        assert_eq!(b.addr, a.addr); // reused address
        assert_ne!(b.id, a.id); // … but a different object
        assert!(!h.id_is_dead(b.id));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let a = h.malloc(8).unwrap();
        h.free(a.addr).unwrap();
        assert_eq!(h.free(a.addr), Err(HeapError::InvalidFree { addr: a.addr }));
    }

    #[test]
    fn free_null_is_noop() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        assert_eq!(h.free(0), Ok(()));
    }

    #[test]
    fn out_of_memory() {
        let mut h = Heap::new(0x1000_0000, 1 << 10);
        assert!(h.malloc(512).is_ok());
        assert!(h.malloc(512).is_ok());
        assert_eq!(h.malloc(512), Err(HeapError::OutOfMemory));
    }

    #[test]
    fn containing_finds_interior_pointers() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let a = h.malloc(100).unwrap();
        let hit = h.containing(a.addr + 50).unwrap();
        assert_eq!(hit.id, a.id);
        assert!(h.containing(a.addr + 1000).is_none());
        h.free(a.addr).unwrap();
        assert!(h.containing(a.addr + 50).is_none());
    }

    #[test]
    fn snapshot_restore_reissues_identical_temporal_ids() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let loader = h.malloc(64).unwrap(); // a loader-time allocation
        h.capture_snapshot();
        assert!(!h.restore_snapshot()); // clean: nothing to copy back

        let a1 = h.malloc(100).unwrap();
        h.free(a1.addr).unwrap();
        let b1 = h.malloc(100).unwrap();
        assert!(h.restore_snapshot());

        // Replay the same allocation sequence: addresses, ids, and
        // dead-id verdicts must be bit-identical to the first run.
        let a2 = h.malloc(100).unwrap();
        assert_eq!(a2, a1);
        h.free(a2.addr).unwrap();
        let b2 = h.malloc(100).unwrap();
        assert_eq!(b2, b1);
        assert!(h.id_is_dead(a2.id));
        assert!(!h.id_is_dead(b2.id));
        assert_eq!(h.containing(loader.addr).unwrap().id, loader.id);
    }

    #[test]
    fn peak_accounting() {
        let mut h = Heap::new(0x1000_0000, 1 << 20);
        let a = h.malloc(1000).unwrap(); // class 1024
        h.malloc(1000).unwrap();
        h.free(a.addr).unwrap();
        assert_eq!(h.peak_bytes(), 2048);
    }
}
