//! The copy-on-write page table under the VM's regular memory and the
//! paged safe-pointer stores: memory's 4 KiB byte pages, the array
//! store's slot pages and the two-level store's leaves. It holds the
//! invariant every snapshot reset (`levee_vm`'s `Machine::reset`)
//! depends on:
//!
//! * [`CowPages::capture`] shares every resident page's `Arc` with the
//!   baseline, so a capture copies no bytes;
//! * the write path ([`CowPages::get_mut`],
//!   [`CowPages::get_or_insert_with`]) splits a page still shared with
//!   the baseline (`Arc::strong_count > 1`) before the caller writes and
//!   logs it dirty, and logs a page materialized after the capture, so
//!   the dirty list is what the last run changed;
//! * [`CowPages::restore`] walks only the dirty list: a baseline page is
//!   re-shared, a run-materialized page is dropped.
//!
//! Page indices below a per-caller span are indexed directly (one
//! bounds-checked load, no hashing: memory's page lookup is the VM's
//! hottest operation); the rest live in a hash map. The direct tier
//! grows by doubling to the highest index materialized, each time into
//! a zeroed allocation that only resident entries are moved into, so
//! the OS backs the rest lazily and a clone or capture costs at most
//! twice that index. A clone shares pages and the baseline and keeps
//! its own dirty list, so a forked machine recycles independently.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::fasthash::FastHash;

// Page indices are `u64` and index the direct tier as `usize`, which is
// lossless only on 64-bit hosts.
const _: () = assert!(usize::BITS >= 64);

/// A sparse table of copy-on-write pages keyed by page index, with a
/// captured baseline that [`CowPages::restore`] rewinds to.
#[derive(Clone)]
pub struct CowPages<P> {
    /// Pages below `span`, indexed directly; grown on demand.
    direct: Box<[Option<Arc<P>>]>,
    /// Number of page indices the direct tier may cover.
    span: usize,
    /// Pages at or above `span`.
    hashed: HashMap<u64, Arc<P>, FastHash>,
    /// Resident page count across both tiers.
    resident: usize,
    /// The captured image, shared by every clone of this table.
    baseline: Option<Arc<Baseline<P>>>,
    /// Page indices that diverged from the baseline since the last
    /// capture or restore.
    dirty: Vec<u64>,
}

/// Every page resident at capture time, plus the resident count.
struct Baseline<P> {
    pages: HashMap<u64, Arc<P>, FastHash>,
    resident: usize,
}

impl<P: Clone> CowPages<P> {
    /// An empty table whose direct tier covers page indices below
    /// `span` (0: every page is hashed).
    pub fn new(span: usize) -> Self {
        CowPages {
            direct: Box::default(),
            span,
            hashed: HashMap::default(),
            resident: 0,
            baseline: None,
            dirty: Vec::new(),
        }
    }

    /// The resident page `idx`, if materialized.
    #[inline(always)]
    pub fn get(&self, idx: u64) -> Option<&P> {
        match self.direct.get(idx as usize) {
            Some(page) => page.as_deref(),
            // The hashed tier holds no index below the span, so a miss
            // there also answers for direct indices not yet covered.
            None => self.hashed.get(&idx).map(|p| &**p),
        }
    }

    /// The resident page `idx` ready for writing: a page still shared
    /// with the baseline is logged dirty and split first.
    #[inline(always)]
    pub fn get_mut(&mut self, idx: u64) -> Option<&mut P> {
        let page = match self.direct.get_mut(idx as usize) {
            Some(page) => page.as_mut()?,
            None => self.hashed.get_mut(&idx)?,
        };
        if self.baseline.is_some() && Arc::strong_count(page) > 1 {
            self.dirty.push(idx);
        }
        Some(Arc::make_mut(page))
    }

    /// Page `idx` ready for writing, materialized from `fresh` if not
    /// resident; `true` when this call faulted it in. Like
    /// [`get_mut`](Self::get_mut), it splits a shared page; a page
    /// materialized while a baseline exists is logged dirty.
    #[inline]
    pub fn get_or_insert_with(&mut self, idx: u64, fresh: impl FnOnce() -> P) -> (&mut P, bool) {
        let i = idx as usize;
        let (page, fault) = if i < self.span {
            if i >= self.direct.len() {
                self.grow_direct(i);
            }
            match &mut self.direct[i] {
                Some(page) => (page, false),
                empty => (empty.insert(Arc::new(fresh())), true),
            }
        } else {
            match self.hashed.entry(idx) {
                Entry::Occupied(e) => (e.into_mut(), false),
                Entry::Vacant(e) => (e.insert(Arc::new(fresh())), true),
            }
        };
        if fault {
            self.resident += 1;
        }
        if self.baseline.is_some() && (fault || Arc::strong_count(page) > 1) {
            self.dirty.push(idx);
        }
        (Arc::make_mut(page), fault)
    }

    /// Grows the direct tier to cover index `i`: doubling, up to the
    /// span, into a zeroed allocation that only resident entries are
    /// moved into.
    #[cold]
    fn grow_direct(&mut self, i: usize) {
        let len = (i + 1).next_power_of_two().min(self.span);
        let mut grown = vec![None; len].into_boxed_slice();
        for (j, page) in std::mem::take(&mut self.direct)
            .into_vec()
            .into_iter()
            .enumerate()
        {
            if page.is_some() {
                grown[j] = page;
            }
        }
        self.direct = grown;
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Captures the resident pages as the baseline (replacing any
    /// earlier one) and starts dirty tracking. Costs one `Arc` clone
    /// per resident page; no page is copied.
    pub fn capture(&mut self) {
        let mut pages = HashMap::with_capacity_and_hasher(self.resident, FastHash::default());
        for (i, page) in self.direct.iter().enumerate() {
            if let Some(page) = page {
                pages.insert(i as u64, Arc::clone(page));
            }
        }
        pages.extend(self.hashed.iter().map(|(&i, p)| (i, Arc::clone(p))));
        self.baseline = Some(Arc::new(Baseline {
            pages,
            resident: self.resident,
        }));
        self.dirty.clear();
    }

    /// Rewinds every dirty page to the baseline: a baseline page is
    /// re-shared, a page materialized since the capture is dropped.
    /// Returns `(pages dirtied, pages re-shared)`; a clean table
    /// returns `(0, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if no baseline was captured: restoring without one is an
    /// owner lifecycle bug.
    pub fn restore(&mut self) -> (u64, u64) {
        let baseline = self.baseline.as_ref().expect("no baseline captured");
        let dirtied = self.dirty.len() as u64;
        let mut reshared = 0;
        for idx in self.dirty.drain(..) {
            let page = baseline.pages.get(&idx).cloned();
            reshared += u64::from(page.is_some());
            if let Some(slot) = self.direct.get_mut(idx as usize) {
                *slot = page;
            } else if let Some(page) = page {
                self.hashed.insert(idx, page);
            } else {
                self.hashed.remove(&idx);
            }
        }
        self.resident = baseline.resident;
        (dirtied, reshared)
    }

    /// Number of pages the baseline holds (0 before a capture).
    pub fn baseline_pages(&self) -> usize {
        self.baseline.as_ref().map_or(0, |b| b.pages.len())
    }

    /// Baseline pages no longer shared with a live table: the pre-write
    /// copies of the pages dirtied since the capture.
    pub fn private_pages(&self) -> usize {
        self.baseline.as_ref().map_or(0, |b| {
            b.pages
                .values()
                .filter(|p| Arc::strong_count(p) == 1)
                .count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct indices are below 4; 4 and up are hashed.
    const SPAN: usize = 4;
    /// One index in each tier.
    const TIERS: [u64; 2] = [1, 1 << 40];

    fn write(t: &mut CowPages<u64>, idx: u64, v: u64) -> bool {
        let (page, fault) = t.get_or_insert_with(idx, || 0);
        *page = v;
        fault
    }

    #[test]
    fn both_tiers_answer_lookups_the_same_way() {
        for idx in TIERS {
            let mut t = CowPages::new(SPAN);
            assert_eq!(t.get(idx), None);
            assert!(t.get_mut(idx).is_none());
            assert!(write(&mut t, idx, 7), "first touch faults");
            assert!(!write(&mut t, idx, 8), "second touch does not");
            assert_eq!(t.get(idx), Some(&8));
            *t.get_mut(idx).unwrap() = 9;
            assert_eq!(t.get(idx), Some(&9));
            assert_eq!(t.get(idx + 1), None);
            assert_eq!(t.resident(), 1);
        }
    }

    #[test]
    fn restore_reshares_baseline_pages_and_drops_run_pages() {
        let mut t = CowPages::new(SPAN);
        for idx in TIERS {
            write(&mut t, idx, 100 + idx);
        }
        t.capture();
        assert_eq!(t.baseline_pages(), 2);
        assert_eq!(t.get(TIERS[0]), Some(&101)); // reads do not dirty
        assert_eq!(t.restore(), (0, 0), "a clean restore");
        for idx in TIERS {
            write(&mut t, idx, 0); // dirty a baseline page
            write(&mut t, idx + 1, 5); // materialize a run page
        }
        assert_eq!(t.resident(), 4);
        assert_eq!(t.restore(), (4, 2));
        for idx in TIERS {
            assert_eq!(t.get(idx), Some(&(100 + idx)));
            assert_eq!(t.get(idx + 1), None);
        }
        assert_eq!(t.resident(), 2);
    }

    #[test]
    fn repeated_rounds_restore_identically() {
        let mut t = CowPages::new(SPAN);
        write(&mut t, 0, 1);
        write(&mut t, 2, 2);
        t.capture();
        for round in 0..3 {
            write(&mut t, 0, round);
            write(&mut t, 0, round + 1); // a second write is not logged again
            write(&mut t, 3, round);
            write(&mut t, 1 << 40, round);
            assert_eq!(t.restore(), (3, 1), "round {round}");
            assert_eq!((t.get(0), t.get(2), t.get(3)), (Some(&1), Some(&2), None));
            assert_eq!(t.resident(), 2);
        }
    }

    #[test]
    fn restoring_a_clone_leaves_the_original_alone() {
        let mut original = CowPages::new(SPAN);
        write(&mut original, 0, 1);
        original.capture();
        write(&mut original, 0, 2); // the original's dirty list: [0]
        let mut fork = original.clone();
        write(&mut fork, 1, 3);
        write(&mut fork, 1 << 40, 4);
        assert_eq!(fork.restore(), (3, 1));
        assert_eq!(fork.get(0), Some(&1));
        // The original still sees its own write and its own dirt.
        assert_eq!(original.get(0), Some(&2));
        assert_eq!(original.get(1), None);
        assert_eq!(original.restore(), (1, 1));
        assert_eq!(original.get(0), Some(&1));
    }

    #[test]
    fn private_count_follows_splits() {
        let mut t = CowPages::new(SPAN);
        for idx in TIERS {
            write(&mut t, idx, 1);
        }
        assert_eq!(t.private_pages(), 0, "no baseline yet");
        t.capture();
        assert_eq!(t.private_pages(), 0, "capture shares every page");
        write(&mut t, TIERS[0], 2);
        assert_eq!(
            t.private_pages(),
            1,
            "the split left the baseline copy private"
        );
        write(&mut t, TIERS[1], 2);
        assert_eq!(t.private_pages(), 2);
        t.restore();
        assert_eq!(t.private_pages(), 0, "restore re-shares");
    }

    #[test]
    #[should_panic(expected = "no baseline captured")]
    fn restore_without_capture_is_a_lifecycle_bug() {
        let mut t = CowPages::<u64>::new(SPAN);
        t.restore();
    }
}
