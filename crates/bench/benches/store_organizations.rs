//! Experiment E6 — §4: wall-clock comparison of the three safe-pointer-
//! store organizations (simple array with 4 KB pages vs 2 MB superpages,
//! two-level lookup table, hash table), on access patterns modelling a
//! CPI-instrumented program: clustered hot pointers (stack/heap
//! locality), a scan over a wide address range, `cpi_memcpy` slot
//! transfers, and the snapshot recycle a served request ends with.
//!
//! The paper found the superpage-backed simple array fastest; the hash
//! table is memory-frugal but scatters accesses.
//!
//! Each store is built and populated once, outside the timed loop, so
//! the first three cases time lookups and overwrites of resident slots,
//! not construction, table growth or teardown. `recycle` times the
//! serving path's store cost after a capture: a write into a baseline
//! page, a fresh page faulted in, and `restore_snapshot`.
//!
//! Run with: `cargo bench -p levee-bench --bench store_organizations`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use levee_rt::{Entry, MetaTable, PtrStore, Slot, StoreKind};

/// The simulated safe-region base every store is instantiated at.
const BASE: u64 = 0x7000_0000_0000;

/// A store holding one slot, with a live interned handle, at each of
/// `addrs`; the slots are kept for the overwrites.
struct Populated {
    store: Box<dyn PtrStore>,
    slots: Vec<(u64, Slot)>,
}

impl Populated {
    fn new(kind: StoreKind, addrs: impl Iterator<Item = u64>) -> Self {
        let mut meta = MetaTable::new();
        let mut store = kind.instantiate(BASE);
        let slots = addrs
            .map(|addr| {
                let slot = Slot::new(addr, meta.intern(Entry::data(addr, addr, addr + 64, 0)));
                let _ = store.set(addr, slot);
                (addr, slot)
            })
            .collect();
        Populated { store, slots }
    }

    /// `rounds` passes of a lookup then an overwrite of every slot.
    fn lookup_overwrite(&mut self, rounds: u32) -> u64 {
        let mut acc = 0u64;
        for _ in 0..rounds {
            for &(addr, slot) in &self.slots {
                let (s, _) = self.store.get(addr);
                acc = acc.wrapping_add(s.map_or(0, |s| s.word));
                let _ = self.store.set(addr, slot);
            }
        }
        acc
    }
}

/// Clustered working set: 512 hot pointer slots in a 32 KB window, like
/// the live sensitive pointers of a running program.
fn hot_set(kind: StoreKind) -> Populated {
    Populated::new(kind, (0..512u64).map(|i| 0x1000_0000 + i * 64))
}

/// Sparse sweep: 4096 pointers spread across a 64 MB range (the
/// data-structure build phase that faults the most pages in).
fn sparse_sweep(kind: StoreKind) -> Populated {
    Populated::new(kind, (0..4096u64).map(|i| 0x1000_0000 + i * 16384))
}

/// Source of the transfers: 256 contiguous slots.
const TRANSFER_SRC: u64 = 0x2000_0000;
/// Destinations of the transfers: 32 ranges 4 KB apart.
const TRANSFER_DST: u64 = 0x3000_0000;

/// memcpy-style slot transfer (the cpi_memcpy path): the source and
/// every destination range resident, so each transfer overwrites.
fn entry_transfer(kind: StoreKind) -> Populated {
    let mut p = Populated::new(kind, (0..256u64).map(|i| TRANSFER_SRC + i * 8));
    transfer(&mut *p.store);
    p
}

fn transfer(store: &mut dyn PtrStore) -> u64 {
    let mut copied = 0u64;
    for round in 0..32u64 {
        let (n, _) = store.copy_range(TRANSFER_DST + round * 4096, TRANSFER_SRC, 256 * 8);
        copied += n;
    }
    copied
}

/// A slot in a page the captured baseline holds.
const BASELINE_ADDR: u64 = 0x1000_0000;
/// A slot in a page outside the baseline, on every geometry.
const FRESH_ADDR: u64 = 0x3000_0000;
/// Recycles per timed iteration.
const RECYCLES: u32 = 16;

/// A store whose captured baseline holds one slot.
fn recycle_store(kind: StoreKind) -> Populated {
    let mut p = Populated::new(kind, std::iter::once(BASELINE_ADDR));
    p.store.capture_snapshot();
    p
}

/// The serving path's store cost: a request writes a slot in a
/// baseline page and faults a fresh page in, and the snapshot restore
/// rewinds both.
fn recycle(p: &mut Populated) -> u64 {
    let slot = p.slots[0].1;
    let mut restored = 0;
    for _ in 0..RECYCLES {
        let _ = p.store.set(BASELINE_ADDR + 8, slot);
        let _ = p.store.set(FRESH_ADDR, slot);
        restored += p.store.restore_snapshot();
    }
    restored
}

fn bench_stores(c: &mut Criterion) {
    let mut group = c.benchmark_group("safe_pointer_store");
    for kind in StoreKind::all() {
        group.bench_with_input(BenchmarkId::new("hot_set", kind.name()), kind, |b, kind| {
            let mut p = hot_set(*kind);
            b.iter(|| black_box(p.lookup_overwrite(64)))
        });
        group.bench_with_input(
            BenchmarkId::new("sparse_sweep", kind.name()),
            kind,
            |b, kind| {
                let mut p = sparse_sweep(*kind);
                b.iter(|| black_box(p.lookup_overwrite(8)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("entry_transfer", kind.name()),
            kind,
            |b, kind| {
                let mut p = entry_transfer(*kind);
                b.iter(|| black_box(transfer(&mut *p.store)))
            },
        );
        group.bench_with_input(BenchmarkId::new("recycle", kind.name()), kind, |b, kind| {
            let mut p = recycle_store(*kind);
            b.iter(|| black_box(recycle(&mut p)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stores);
criterion_main!(benches);
