//! Model-based property tests: every store organization must agree with
//! a reference `BTreeMap` model over arbitrary operation sequences.
//!
//! The model is deliberately tiny — an ordered map from 8-aligned slot
//! address to [`Slot`] plus the trait's range semantics spelled out in
//! straight-line code — so any divergence indicts the organization, not
//! the oracle. Slots carry real [`MetaId`] handles minted from a
//! [`MetaTable`] (not just `MetaId::NONE`): the organizations must move
//! handles around *opaquely*, and a handle surviving a
//! `set → copy_range → get` round trip must still resolve to the record
//! it was interned from.
//!
//! The lifecycle property adds the snapshot operations the VM's
//! per-request recycling runs (capture, restore, fork) over addresses
//! that straddle host-page boundaries of every organization.

use std::collections::BTreeMap;

use levee_rt::{Entry, MetaId, MetaTable, PtrStore, Slot, StoreKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set { addr: u64, word: u64, prov: u64 },
    Get { addr: u64 },
    Clear { addr: u64 },
    ClearRange { start: u64, len: u64 },
    CopyRange { dst: u64, src: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keep addresses in a small window so operations collide often.
    ops_over((0u64..64).prop_map(|s| 0x1_0000 + s * 8))
}

fn ops_over(addr: impl Strategy<Value = u64> + Clone + 'static) -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr.clone(), 1u64..100, 0u64..8).prop_map(|(addr, word, prov)| Op::Set {
            addr,
            word,
            prov
        }),
        addr.clone().prop_map(|addr| Op::Get { addr }),
        addr.clone().prop_map(|addr| Op::Clear { addr }),
        (addr.clone(), 0u64..128).prop_map(|(start, len)| Op::ClearRange { start, len }),
        (addr.clone(), addr, 0u64..96).prop_map(|(dst, src, len)| Op::CopyRange { dst, src, len }),
    ]
}

/// Reference semantics, mirroring the PtrStore contract over 8-aligned
/// slots with an ordered-map oracle.
#[derive(Default)]
struct Model {
    map: BTreeMap<u64, Slot>,
}

impl Model {
    fn slots(start: u64, len: u64) -> Vec<u64> {
        let first = start & !7;
        let end = start.saturating_add(len);
        let mut v = Vec::new();
        let mut a = first;
        while a < end {
            v.push(a);
            a += 8;
        }
        v
    }

    fn apply(&mut self, op: &Op, slot_of: impl Fn(u64, u64) -> Slot) {
        match op {
            Op::Set { addr, word, prov } => {
                self.map.insert(*addr, slot_of(*word, *prov));
            }
            Op::Get { .. } => {}
            Op::Clear { addr } => {
                self.map.remove(addr);
            }
            Op::ClearRange { start, len } => {
                for a in Self::slots(*start, *len) {
                    self.map.remove(&a);
                }
            }
            Op::CopyRange { dst, src, len } => {
                let pairs: Vec<(u64, Option<Slot>)> = Self::slots(*src, *len)
                    .into_iter()
                    .map(|a| (a - (src & !7), self.map.get(&a).copied()))
                    .collect();
                for (off, s) in pairs {
                    let target = (dst & !7) + off;
                    match s {
                        Some(s) => {
                            self.map.insert(target, s);
                        }
                        None => {
                            self.map.remove(&target);
                        }
                    }
                }
            }
        }
    }
}

/// A small palette of distinct interned provenance records; ops pick
/// handles from it so the stores shuttle several different live
/// handles (and `MetaId::NONE`) around at once.
fn mint_handles(meta: &mut MetaTable) -> Vec<MetaId> {
    let mut v = vec![MetaId::NONE];
    for i in 0..7u64 {
        let base = 0x4000 + i * 0x100;
        v.push(meta.intern(Entry::data(base, base, base + 0x80, i)));
    }
    v
}

/// Applies `op` to the store and the model, checking a `Get` against
/// the model and the live count after every op.
fn step(
    store: &mut dyn PtrStore,
    model: &mut Model,
    op: &Op,
    slot_of: impl Fn(u64, u64) -> Slot,
    what: &str,
) {
    match op {
        Op::Set { addr, word, prov } => {
            let _ = store.set(*addr, slot_of(*word, *prov));
        }
        Op::Get { addr } => {
            let got = store.get(*addr).0;
            let want = model.map.get(addr).copied();
            assert_eq!(got, want, "{what}: get({addr:#x}) diverged");
        }
        Op::Clear { addr } => {
            let _ = store.clear(*addr);
        }
        Op::ClearRange { start, len } => {
            let _ = store.clear_range(*start, *len);
        }
        Op::CopyRange { dst, src, len } => {
            let _ = store.copy_range(*dst, *src, *len);
        }
    }
    model.apply(op, slot_of);
    assert_eq!(
        store.entry_count(),
        model.map.len(),
        "{what}: live-count diverged after {op:?}"
    );
}

fn check_kind(kind: StoreKind, ops: &[Op]) {
    let mut meta = MetaTable::new();
    let handles = mint_handles(&mut meta);
    let slot_of = |word: u64, prov: u64| Slot::new(word, handles[prov as usize]);
    let mut store = kind.instantiate(0x7000_0000_0000);
    let mut model = Model::default();
    for (i, op) in ops.iter().enumerate() {
        step(
            &mut *store,
            &mut model,
            op,
            slot_of,
            &format!("{kind:?} op {i}"),
        );
    }
    // Full final sweep: words, handle identity, and handle liveness.
    for a in (0x1_0000u64..0x1_0000 + 64 * 8).step_by(8) {
        let got = store.get(a).0;
        assert_eq!(
            got,
            model.map.get(&a).copied(),
            "{kind:?} final sweep at {a:#x}"
        );
        if let Some(slot) = got {
            if slot.meta.is_some() {
                // Handles that came back out must still resolve.
                assert!(
                    meta.get(slot.meta).is_some(),
                    "{kind:?}: slot at {a:#x} holds a dangling handle"
                );
            }
        }
    }
}

/// Slot `s` of the 32 around a boundary near the `p`-th 1 MiB of keys:
/// for `b` = 0 the 1 MiB boundary itself, a page boundary of all four
/// organizations (a superpage covers 1 MiB of keys); for `b` = 1 the
/// boundary 2 KiB of keys into that superpage, between two of its
/// 256-slot host chunks.
fn wide_addr(p: u64, b: u64, s: u64) -> u64 {
    (p << 20) + b * 0x800 - 0x80 + s * 8
}

/// Every address the lifecycle ops may name.
fn wide_addrs() -> impl Iterator<Item = u64> {
    (1..4u64).flat_map(|p| (0..64u64).map(move |i| wide_addr(p, i / 32, i % 32)))
}

#[derive(Debug, Clone)]
enum LifeOp {
    Op(Op),
    Capture,
    Restore,
    Fork,
}

fn life_op_strategy() -> impl Strategy<Value = LifeOp> {
    let addr = (1..4u64, 0..2u64, 0..32u64).prop_map(|(p, b, s)| wide_addr(p, b, s));
    prop_oneof![
        8 => ops_over(addr).prop_map(LifeOp::Op),
        1 => Just(LifeOp::Capture),
        2 => Just(LifeOp::Restore),
        1 => Just(LifeOp::Fork),
    ]
}

/// What a restore must bring back: the slots, the live count and the
/// footprint.
struct Image {
    map: BTreeMap<u64, Slot>,
    entries: usize,
    bytes: u64,
}

impl Image {
    fn of(store: &dyn PtrStore, model: &Model) -> Image {
        Image {
            map: model.map.clone(),
            entries: store.entry_count(),
            bytes: store.memory_bytes(),
        }
    }

    /// Checks the counters first: probing slots may grow a two-level
    /// directory.
    fn check(&self, store: &mut dyn PtrStore, what: &str) {
        assert_eq!(
            (store.entry_count(), store.memory_bytes()),
            (self.entries, self.bytes),
            "{what}: entry count and footprint"
        );
        for a in wide_addrs().chain(self.map.keys().copied()) {
            let want = self.map.get(&a).copied();
            assert_eq!(store.get(a).0, want, "{what}: slot {a:#x}");
        }
    }
}

fn check_lifecycle(kind: StoreKind, ops: &[LifeOp]) {
    let mut meta = MetaTable::new();
    let handles = mint_handles(&mut meta);
    let slot_of = |word: u64, prov: u64| Slot::new(word, handles[prov as usize]);
    let mut store = kind.instantiate(0x7000_0000_0000);
    let mut model = Model::default();
    let mut captured: Option<Image> = None;
    // Each store a fork replaced, with what it held when forked.
    let mut originals: Vec<(Box<dyn PtrStore>, Image)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            LifeOp::Op(op) => step(
                &mut *store,
                &mut model,
                op,
                slot_of,
                &format!("{kind:?} op {i}"),
            ),
            LifeOp::Capture => {
                store.capture_snapshot();
                captured = Some(Image::of(&*store, &model));
            }
            LifeOp::Restore => {
                let Some(image) = &captured else { continue };
                let _ = store.restore_snapshot();
                assert_eq!(
                    store.restore_snapshot(),
                    0,
                    "{kind:?} op {i}: restore twice"
                );
                image.check(&mut *store, &format!("{kind:?} op {i}: restore"));
                model.map = image.map.clone();
            }
            LifeOp::Fork => {
                let fork = store.boxed_clone();
                let image = Image::of(&*store, &model);
                originals.push((std::mem::replace(&mut store, fork), image));
            }
        }
    }
    for (n, (mut original, image)) in originals.into_iter().enumerate() {
        image.check(&mut *original, &format!("{kind:?}: original of fork {n}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn array4k_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        check_kind(StoreKind::Array4K, &ops);
    }

    #[test]
    fn array_superpage_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        check_kind(StoreKind::ArraySuperpage, &ops);
    }

    #[test]
    fn twolevel_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        check_kind(StoreKind::TwoLevel, &ops);
    }

    #[test]
    fn hash_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        check_kind(StoreKind::Hash, &ops);
    }

    #[test]
    fn snapshot_lifecycle_matches_model(ops in proptest::collection::vec(life_op_strategy(), 1..80)) {
        for kind in StoreKind::all() {
            check_lifecycle(*kind, &ops);
        }
    }
}

#[test]
fn all_kinds_agree_on_a_fixed_trace() {
    let ops = vec![
        Op::Set {
            addr: 0x1_0000,
            word: 5,
            prov: 1,
        },
        Op::Set {
            addr: 0x1_0008,
            word: 6,
            prov: 2,
        },
        Op::CopyRange {
            dst: 0x1_0020,
            src: 0x1_0000,
            len: 16,
        },
        Op::ClearRange {
            start: 0x1_0004,
            len: 8,
        },
        Op::Get { addr: 0x1_0020 },
        Op::Get { addr: 0x1_0000 },
    ];
    for kind in StoreKind::all() {
        check_kind(*kind, &ops);
    }
}
