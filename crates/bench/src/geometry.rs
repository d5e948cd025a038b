//! Safe-pointer-store geometry measurements shared by the
//! `memory_overhead` experiment and its baseline collector.
//!
//! Both need the same deterministic number — simulated safe-region
//! bytes of a dense population — so the baseline gate re-measures
//! exactly what `memory_overhead` reports per entry.

use levee_rt::{MetaId, Slot};
use levee_vm::StoreKind;

/// Dense population size used by the experiment and the baseline:
/// contiguous pointer slots covering 4 MB of key space — wide enough
/// that even 2 MB superpage rounding cannot mask the slot-size ratio.
pub const DENSE_ENTRIES: u64 = 1 << 19;

/// The seed's inline-entry geometry, kept as the "before" reference:
/// 32 bytes per slot (`value + lower + upper + id`), and a 40-byte hash
/// bucket (8-byte key tag + the inline entry).
pub const SEED_SLOT: u64 = 32;
const SEED_HASH_BUCKET: u64 = 8 + SEED_SLOT;

/// Simulated safe-region bytes after populating `n` contiguous slots.
pub fn dense_bytes(kind: StoreKind, n: u64) -> u64 {
    let mut store = kind.instantiate(0x7000_0000_0000);
    for i in 0..n {
        // Handle liveness is irrelevant to geometry; NONE keeps the
        // bench free of a MetaTable without changing a single byte.
        let _ = store.set(i * 8, Slot::new(i, MetaId::NONE));
    }
    assert_eq!(store.entry_count() as u64, n);
    store.memory_bytes()
}

/// Measured bytes per live entry after populating `n` contiguous slots.
pub fn dense_bytes_per_entry(kind: StoreKind, n: u64) -> f64 {
    dense_bytes(kind, n) as f64 / n as f64
}

/// What the same dense population cost under the seed geometry,
/// computed from the organizations' (unchanged) layout rules with the
/// 32-byte slot plugged back in.
pub fn seed_bytes_per_entry(kind: StoreKind, n: u64) -> f64 {
    let bytes = match kind {
        StoreKind::Array4K | StoreKind::ArraySuperpage => {
            // Sparse linear array: pages materialize on touch; n
            // contiguous slots span n * SEED_SLOT metadata bytes.
            let page: u64 = if kind == StoreKind::Array4K {
                4 << 10
            } else {
                2 << 20
            };
            (n * SEED_SLOT).div_ceil(page) * page
        }
        StoreKind::TwoLevel => {
            // 512-slot leaves plus 4 KB directory pages (the directory
            // is slot-size independent: 8 bytes per leaf pointer).
            let leaves = n.div_ceil(512);
            let dir_pages = (leaves * 8).div_ceil(4096);
            leaves * 512 * SEED_SLOT + dir_pages * 4096
        }
        StoreKind::Hash => {
            // Replay the (slot-size independent) growth rule: start at
            // 64 buckets, double when the next insert would push the
            // load factor past 0.7.
            let mut cap = 64u64;
            for live in 0..n {
                if (live + 1) * 10 > cap * 7 {
                    cap *= 2;
                }
            }
            cap * SEED_HASH_BUCKET
        }
    };
    bytes as f64 / n as f64
}
