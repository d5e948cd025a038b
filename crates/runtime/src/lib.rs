//! # levee-rt — the Levee runtime support library
//!
//! The runtime half of the CPI/CPS enforcement mechanism (§4 of the
//! paper): the **safe pointer store**, which maps the regular-region
//! address of each sensitive pointer to a compact [`store::Slot`] — the
//! pointer word plus a 4-byte [`meta::MetaId`] handle to its interned
//! based-on metadata `(value, lower, upper, id)` — in the three
//! organizations the paper implemented and benchmarked:
//!
//! * [`array_store::ArrayStore`] — a linear array over the sparse
//!   address space (4 KB pages or 2 MB superpages; the latter was the
//!   paper's fastest configuration),
//! * [`twolevel::TwoLevelStore`] — an MPX-style directory + leaf tables,
//! * [`hash_store::HashStore`] — an open-addressing hash table (lowest
//!   memory overhead, worst locality).
//!
//! Every operation reports the simulated safe-region addresses it
//! touched ([`store::Touched`]) so the VM's cache model can account for
//! the locality differences between organizations, plus a page-fault
//! flag feeding the paper's superpage observation.
//!
//! The provenance interner behind those handles is [`meta::MetaTable`]:
//! based-on metadata is stored once per distinct record and referenced
//! by a generation-checked 4-byte [`meta::MetaId`] — from in-register
//! values and from store slots alike, so a store→load round trip (and
//! `copy_range`) moves 16-byte `(word, handle)` pairs with no metadata
//! materialization, and every organization simulates half the
//! safe-region bytes the 32-byte inline-entry layout needed.
//!
//! ## Example
//!
//! ```
//! use levee_rt::{Entry, MetaTable, PtrStore, Slot, StoreKind};
//!
//! let mut meta = MetaTable::new();
//! let mut store = StoreKind::ArraySuperpage.instantiate(0x7000_0000_0000);
//! // A function pointer stored at regular address 0x1000: the slot
//! // carries the word plus the interned provenance handle.
//! let prov = meta.intern(Entry::code(0x40_0000));
//! let t = store.set(0x1000, Slot::new(0x40_0000, prov));
//! assert_eq!(t.len(), 1); // one simulated safe-region touch
//! let (slot, _) = store.get(0x1000);
//! assert!(meta.resolve(slot.unwrap().meta).authorizes_code(0x40_0000));
//! // A stray memset over that location wipes the metadata.
//! let _ = store.clear_range(0x0ff8, 64);
//! assert_eq!(store.get(0x1000).0, None);
//! ```

pub mod array_store;
pub mod entry;
pub mod fasthash;
pub mod hash_store;
pub mod meta;
pub mod pages;
pub mod store;
pub mod twolevel;

pub use array_store::ArrayStore;
pub use entry::Entry;
pub use fasthash::{FastHash, FastHasher};
pub use hash_store::HashStore;
pub use meta::{MetaId, MetaMark, MetaTable, META_CAPACITY};
pub use pages::CowPages;
pub use store::{PtrStore, Slot, StoreKind, Touched, SLOT_SIZE};
pub use twolevel::TwoLevelStore;
