//! Execution statistics: the raw material of every table and figure.

/// Counters accumulated during one run.
///
/// These are the whole-run aggregates; the execution profiler
/// ([`crate::ProfileReport`], enabled via [`crate::VmConfig::profile`]
/// or `levee_core::session::SessionBuilder::profile` at the embedding
/// layer) decomposes [`cycles`](ExecStats::cycles) into per-opcode,
/// per-function and per-check-site attribution without perturbing any
/// counter here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total simulated cycles (the "time" axis of every overhead table).
    pub cycles: u64,
    /// Instructions executed.
    pub insts: u64,
    /// Plain memory operations executed (loads + stores).
    pub mem_ops: u64,
    /// Instrumented sensitive-pointer loads/stores executed.
    pub cpi_mem_ops: u64,
    /// Bounds / code-pointer checks executed.
    pub checks: u64,
    /// Code pointers sealed (`pac_sign` ops) under the PAC defense
    /// family; zero when [`crate::config::PacMode::Off`].
    pub pac_signs: u64,
    /// Sealed code pointers authenticated (`pac_auth` ops, including
    /// the fused `AuthCall` superinstruction and machine-level return /
    /// longjmp authentication).
    pub pac_auths: u64,
    /// L1 hits.
    pub cache_hits: u64,
    /// L1 misses.
    pub cache_misses: u64,
    /// Page faults charged (first touches of store pages).
    pub page_faults: u64,
    /// Calls executed.
    pub calls: u64,
    /// Calls that had to set up an unsafe stack frame.
    pub unsafe_frames: u64,
    /// safe-pointer-store entries at peak.
    pub store_entries_peak: u64,
    /// Safe-pointer-store resident bytes at end of run.
    pub store_bytes: u64,
    /// Regular-memory resident bytes at end of run.
    pub regular_bytes: u64,
    /// Peak heap bytes.
    pub heap_peak: u64,
    /// Bytes of attacker payload consumed.
    pub input_consumed: u64,
}

/// What the last `Machine::reset` cost, in host work — deliberately
/// *outside* [`ExecStats`]: reset cost is a property of machine
/// recycling, not of the simulated run, and folding it into the run
/// counters would break the bit-identical-replay invariant the
/// differential suites enforce.
///
/// Populated by `Machine::reset` (see `machine/mod.rs`) and surfaced
/// per run on `levee_core::session::RunReport` and in `--profile`
/// renderings. All-default (zero) until the first reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResetStats {
    /// True when the reset restored from the copy-on-write snapshot;
    /// false for a full loader re-boot
    /// ([`crate::config::ResetMode::Loader`] or no snapshot yet).
    pub used_snapshot: bool,
    /// Memory pages the previous run dirtied (reverted or unmapped).
    pub pages_dirtied: u64,
    /// Bytes copied back from the snapshot's memory image.
    pub bytes_restored: u64,
    /// Simulated safe-pointer-store bytes copied back.
    pub store_bytes_restored: u64,
    /// Provenance-table entries interned by the run and dropped by the
    /// rewind.
    pub meta_entries_dropped: u64,
}

impl ExecStats {
    /// Overhead of `self` relative to a baseline run, in percent
    /// (positive = slower). A degenerate baseline (zero cycles) yields
    /// `f64::NAN`, *not* `0.0` — a broken baseline must not read as "no
    /// overhead" in a results table (formatters render it as `n/a`; see
    /// `levee-core`'s `RunReport` and the bench table helpers).
    pub fn overhead_pct(&self, baseline: &ExecStats) -> f64 {
        if baseline.cycles == 0 {
            return f64::NAN;
        }
        (self.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0
    }

    /// Memory overhead relative to a baseline run, in percent, counting
    /// safe-region store bytes against the baseline's regular residency.
    /// `f64::NAN` on a degenerate (zero-residency) baseline, like
    /// [`ExecStats::overhead_pct`].
    pub fn memory_overhead_pct(&self, baseline: &ExecStats) -> f64 {
        if baseline.regular_bytes == 0 {
            return f64::NAN;
        }
        let extra = (self.regular_bytes + self.store_bytes) as f64 - baseline.regular_bytes as f64;
        extra / baseline.regular_bytes as f64 * 100.0
    }

    /// Safe-pointer-store memory as a fraction of the baseline's
    /// regular residency — the §5.2 memory-overhead metric (safe stacks
    /// replace regular stacks one-for-one and are excluded). `f64::NAN`
    /// on a degenerate baseline, like [`ExecStats::overhead_pct`].
    pub fn store_overhead_pct(&self, baseline: &ExecStats) -> f64 {
        if baseline.regular_bytes == 0 {
            return f64::NAN;
        }
        self.store_bytes as f64 / baseline.regular_bytes as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_computation() {
        let base = ExecStats {
            cycles: 1000,
            ..Default::default()
        };
        let run = ExecStats {
            cycles: 1084,
            ..Default::default()
        };
        assert!((run.overhead_pct(&base) - 8.4).abs() < 1e-9);
        // Negative overhead (safe stack speedups) is representable.
        let fast = ExecStats {
            cycles: 958,
            ..Default::default()
        };
        assert!(fast.overhead_pct(&base) < 0.0);
    }

    #[test]
    fn memory_overhead() {
        let base = ExecStats {
            regular_bytes: 1000,
            ..Default::default()
        };
        let run = ExecStats {
            regular_bytes: 1000,
            store_bytes: 139,
            ..Default::default()
        };
        assert!((run.memory_overhead_pct(&base) - 13.9).abs() < 1e-9);
    }

    #[test]
    fn degenerate_baselines_are_nan_not_zero() {
        let empty = ExecStats::default();
        let run = ExecStats {
            cycles: 1000,
            regular_bytes: 1000,
            store_bytes: 100,
            ..Default::default()
        };
        assert!(run.overhead_pct(&empty).is_nan());
        assert!(run.memory_overhead_pct(&empty).is_nan());
        assert!(run.store_overhead_pct(&empty).is_nan());
    }
}
