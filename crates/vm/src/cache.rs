//! A small L1-data-cache model.
//!
//! The paper's overheads are dominated by the *extra memory accesses*
//! instrumentation adds and by locality effects (the safe stack got
//! *faster* than baseline on namd because hot values became denser;
//! the hash-table store got slower because hashing scatters accesses).
//! A set-associative LRU cache turns those effects into cycles.

/// Set-associative LRU cache over 64-byte lines.
///
/// Tags live in one flat array (`sets × ways`, most-recent last within
/// each set) — the cache is consulted on every simulated memory access,
/// so the lookup must not chase per-set heap pointers.
#[derive(Clone)]
pub struct Cache {
    tags: Vec<u64>, // sets × ways, EMPTY_TAG = invalid
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
    /// When enabled, the address of every touch in access order. Every
    /// simulated memory touch — program loads/stores, frame slots,
    /// safe-store traffic charged via `Touched` — funnels through
    /// [`Cache::access`], so the trace is the machine's complete memory
    /// touch log. Differential tests diff it to prove two executions
    /// performed the *same accesses in the same order*, which is a
    /// strictly stronger claim than equal totals.
    trace: Option<Vec<u64>>,
}

/// Tag value marking an empty way (no valid line has this tag because
/// line numbers are addresses shifted right by 6).
const EMPTY_TAG: u64 = u64::MAX;

/// Default L1D geometry: 32 KB, 8-way, 64-byte lines → 64 sets.
pub const DEFAULT_SETS: usize = 64;
/// Default associativity.
pub const DEFAULT_WAYS: usize = 8;
/// Line size in bytes.
pub const LINE: u64 = 64;

impl Cache {
    /// Creates a cache with the given geometry.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two());
        Cache {
            tags: vec![EMPTY_TAG; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            hits: 0,
            misses: 0,
            trace: None,
        }
    }

    /// Default geometry.
    pub fn default_l1() -> Self {
        Cache::new(DEFAULT_SETS, DEFAULT_WAYS)
    }

    /// Starts recording the touch log (see [`Cache::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded touch log, if tracing was enabled.
    pub fn trace(&self) -> Option<&[u64]> {
        self.trace.as_deref()
    }

    /// Touches `addr`; returns true on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        if let Some(t) = &mut self.trace {
            t.push(addr);
        }
        let line = addr / LINE;
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        // Most-recently-used fast path: repeated accesses to one line
        // (loop-local traffic) skip the LRU reshuffle entirely.
        if tags[self.ways - 1] == line {
            self.hits += 1;
            return true;
        }
        if let Some(pos) = tags.iter().position(|t| *t == line) {
            // Move to most-recent (slot ways-1), shifting the rest down.
            tags.copy_within(pos + 1.., pos);
            tags[self.ways - 1] = line;
            self.hits += 1;
            true
        } else {
            // Evict the LRU way (slot 0; empty ways drain first because
            // they start at the front and shift down like real tags).
            tags.copy_within(1.., 0);
            tags[self.ways - 1] = line;
            self.misses += 1;
            false
        }
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears contents, counters, and any recorded touch log —
    /// tracing stays *enabled* so a machine recycled by snapshot
    /// restore (`Machine::reset` in `levee-vm`) keeps logging exactly
    /// like a freshly booted one with tracing turned on.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY_TAG);
        self.hits = 0;
        self.misses = 0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::default_l1();
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // same 64-byte line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.access(0);
        c.access(LINE);
        c.access(0); // refresh line 0
        c.access(2 * LINE); // evicts line 1 (LRU)
        assert!(c.access(0)); // still resident
        assert!(!c.access(LINE)); // was evicted
    }

    #[test]
    fn streaming_misses() {
        let mut c = Cache::default_l1();
        for i in 0..10_000u64 {
            c.access(i * LINE * (DEFAULT_SETS as u64)); // all map to set 0
        }
        assert_eq!(c.stats(), (0, 10_000));
    }

    #[test]
    fn dense_loop_hits() {
        let mut c = Cache::default_l1();
        // 1 KB working set fits easily: 16 cold line misses, then hits.
        for _ in 0..100 {
            for a in (0..1024u64).step_by(8) {
                c.access(a);
            }
        }
        assert_eq!(c.stats(), (100 * 128 - 16, 16));
    }

    #[test]
    fn reset_clears() {
        let mut c = Cache::default_l1();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), (0, 0));
        assert!(!c.access(0));
    }

    #[test]
    fn reset_empties_trace_but_keeps_it_enabled() {
        let mut c = Cache::default_l1();
        c.enable_trace();
        c.access(0x40);
        c.reset();
        assert_eq!(c.trace().unwrap(), &[]);
        c.access(0x80); // still recording after reset
        assert_eq!(c.trace().unwrap(), &[0x80]);
    }

    #[test]
    fn trace_records_tagged_touches_in_order() {
        let mut c = Cache::default_l1();
        c.access(0x10); // before enabling: not recorded
        c.enable_trace();
        c.access(0x1000);
        c.access(0x1000);
        c.access(0x2008);
        assert_eq!(c.trace().unwrap(), &[0x1000, 0x1000, 0x2008]);
        let untraced = Cache::default_l1();
        assert!(untraced.trace().is_none());
    }
}
