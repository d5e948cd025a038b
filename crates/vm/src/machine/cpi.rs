//! The handlers of the instrumentation ops (§3.2.2's runtime ops, plus
//! the PAC family's sign/auth). Like the core handlers in `ops.rs`,
//! each takes decoded operands from either engine's decoder.

use levee_ir::prelude::*;
use levee_rt::Slot;

use crate::probe::TouchKind;
use crate::trap::{CpiViolationKind, Trap};

use super::{CheckSite, Machine, V};

impl<'m> Machine<'m> {
    /// Maps a violation to the policy's trap flavour.
    pub(crate) fn violation(&self, policy: Policy, kind: CpiViolationKind, addr: u64) -> Trap {
        match policy {
            Policy::SoftBound => Trap::SoftBound { addr },
            _ => Trap::Cpi { kind, addr },
        }
    }

    /// `check`: the bounds (+ optional temporal) check of a sensitive
    /// dereference of `size` bytes through `v`. Bounds and temporal id
    /// come straight off the interned provenance record; the pointer
    /// word being checked is `v.raw`.
    #[inline(always)]
    pub(crate) fn op_check(
        &mut self,
        v: V,
        size: u64,
        policy: Policy,
        site: CheckSite,
    ) -> Result<(), Trap> {
        self.probe_check_attempt(site);
        self.charge_check();
        let failed = match self.meta.get(v.meta) {
            Some(prov) if !prov.allows_access(v.raw, size) => Some(CpiViolationKind::Bounds),
            Some(prov) if self.config.temporal && prov.id != 0 && self.heap.id_is_dead(prov.id) => {
                Some(CpiViolationKind::Temporal)
            }
            Some(_) => None,
            None => Some(CpiViolationKind::Bounds),
        };
        if let Some(kind) = failed {
            return Err(self.violation(policy, kind, v.raw));
        }
        self.probe_check_pass(site);
        Ok(())
    }

    /// `fn_check`: `v` must carry live code provenance for exactly its
    /// word (§3.3's exact-match rule for code pointers).
    #[inline(always)]
    pub(crate) fn op_fncheck(&mut self, v: V, policy: Policy, site: CheckSite) -> Result<(), Trap> {
        self.probe_check_attempt(site);
        self.charge_check();
        if !self
            .meta
            .get(v.meta)
            .is_some_and(|prov| prov.authorizes_code(v.raw))
        {
            return Err(self.violation(policy, CpiViolationKind::NotACodePointer, v.raw));
        }
        self.probe_check_pass(site);
        Ok(())
    }

    /// `cpi_ptr_store` / `cps_ptr_store`: writes a sensitive pointer to
    /// the safe pointer store, keyed by its regular-region address. The
    /// store's compact slot carries the word plus the value's interned
    /// provenance handle ([`Slot`]) — the handle moves as-is; no full
    /// `Entry` is materialized at this boundary.
    pub(crate) fn op_ptr_store(
        &mut self,
        policy: Policy,
        addr: u64,
        v: V,
        universal: bool,
    ) -> Result<(), Trap> {
        self.run.stats.cpi_mem_ops += 1;
        // Resolve the handle once to classify the value; the slot still
        // stores the handle, not the resolved record.
        let prov = self.meta.get(v.meta);
        let slot = match policy {
            // CPS keeps slots only for code pointers; storing a
            // non-code value through a CPS store keeps it regular.
            Policy::Cps => match prov {
                Some(p) if p.authorizes_code(v.raw) => Some(Slot::new(v.raw, v.meta)),
                _ => None,
            },
            _ => match prov {
                Some(p) if p.is_valid() => Some(Slot::new(v.raw, v.meta)),
                // No live provenance: the paper's *invalid* metadata —
                // a word-only slot that never authorizes any access.
                _ if !universal => Some(Slot::invalid(v.raw)),
                _ => None,
            },
        };
        match slot {
            Some(s) => {
                let t = self.store.set(addr, s);
                self.charge_store_touches(t, TouchKind::Write);
                self.run.stats.store_entries_peak = self
                    .run
                    .stats
                    .store_entries_peak
                    .max(self.store.entry_count() as u64);
                if self.config.debug_dual_store {
                    // Debug mode: also keep the regular copy in sync.
                    self.prog_write(addr, v.raw, 8, MemSpace::Regular)?;
                }
                Ok(())
            }
            None => {
                // Universal pointer holding a non-sensitive value (or a
                // CPS store of a non-code value): store the raw value in
                // the regular region, mark the safe store `none` (the
                // paper's dual-storage rule).
                let t = self.store.clear(addr);
                self.charge_store_touches(t, TouchKind::Write);
                self.prog_write(addr, v.raw, 8, MemSpace::Regular)
            }
        }
    }

    /// `cpi_ptr_load` / `cps_ptr_load`: reads a sensitive pointer and
    /// its metadata back from the safe pointer store. The slot's handle
    /// goes straight into the register value — no re-interning on the
    /// hot path.
    pub(crate) fn op_ptr_load(&mut self, policy: Policy, addr: u64) -> Result<V, Trap> {
        self.run.stats.cpi_mem_ops += 1;
        let (slot, t) = self.store.get(addr);
        self.charge_store_touches(t, TouchKind::Read);
        match slot {
            Some(s) => {
                if self.config.debug_dual_store {
                    let regular = self.prog_read(addr, 8, MemSpace::Regular)?;
                    self.charge_check();
                    if regular != s.word {
                        // Debug mode detects non-protected-pointer
                        // corruption attempts instead of silently
                        // ignoring them (§3.2.2).
                        return Err(self.violation(policy, CpiViolationKind::DebugMismatch, addr));
                    }
                }
                Ok(V {
                    raw: s.word,
                    meta: s.meta,
                })
            }
            // No sensitive value here: a universal pointer falls back to
            // the regular copy, and so does a sensitive-typed location
            // never stored through the safe store (e.g. a
            // zero-initialized global) — its value carries no metadata,
            // so any control use of it will trap.
            None => Ok(V::int(self.prog_read(addr, 8, MemSpace::Regular)?)),
        }
    }

    /// `safe_memcpy`: regular bytes move as usual, and the safe store
    /// transfers the compact slots word by word — plain (word, handle)
    /// moves, but still the path §5.2 attributes memcpy overhead to.
    pub(crate) fn op_safe_memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        self.bulk_copy(dst, src, len)?;
        let (copied, t) = self.store.copy_range(dst, src, len);
        self.charge_store_touches(t, TouchKind::Write);
        self.run.stats.cycles += (len / 8) * self.config.cost.store_op + copied;
        Ok(())
    }

    /// `safe_memset`: fills the regular bytes and clears the safe-store
    /// slots of the range.
    pub(crate) fn op_safe_memset(&mut self, dst: u64, byte: u8, len: u64) -> Result<(), Trap> {
        self.bulk_fill(dst, byte, len)?;
        let t = self.store.clear_range(dst, len);
        self.charge_store_touches(t, TouchKind::Write);
        self.run.stats.cycles += (len / 8) * self.config.cost.store_op;
        Ok(())
    }

    /// `pac_sign`: seals `v` under `ctx`. The sealed word keeps its
    /// provenance handle: sealing changes representation, not what the
    /// pointer is based on (and the handle never reaches regular memory).
    #[inline(always)]
    pub(crate) fn op_pac_sign(&mut self, v: V, ctx: u64) -> V {
        self.charge_pac_sign();
        V {
            raw: self.pac_seal(v.raw, ctx),
            meta: v.meta,
        }
    }

    /// `pac_auth`: authenticates `v` under `ctx` and strips the seal, or
    /// traps with [`Trap::Pac`].
    #[inline(always)]
    pub(crate) fn op_pac_auth(&mut self, v: V, ctx: u64) -> Result<V, Trap> {
        self.charge_pac_auth();
        Ok(V {
            raw: self.pac_auth_val(v.raw, ctx)?,
            meta: v.meta,
        })
    }

    /// Byte-bulk copy with amortized charging (used by memcpy-family).
    pub(crate) fn bulk_copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        self.isolation_check(src, MemSpace::Regular)?;
        self.isolation_check(dst, MemSpace::Regular)?;
        self.charge_bulk(len, dst, src);
        self.mem.copy(dst, src, len).map_err(Self::mem_trap)
    }

    /// Byte-bulk fill with amortized charging (memset).
    pub(crate) fn bulk_fill(&mut self, dst: u64, byte: u8, len: u64) -> Result<(), Trap> {
        self.isolation_check(dst, MemSpace::Regular)?;
        self.charge_bulk(len, dst, dst);
        self.mem.fill(dst, byte, len).map_err(Self::mem_trap)
    }

    /// Charges a bulk operation: one cache access per 64-byte line on
    /// both operands, one instruction per 8 bytes (vectorized copy).
    fn charge_bulk(&mut self, len: u64, a: u64, b: u64) {
        let lines = len / 64 + 1;
        for i in 0..lines {
            self.charge_mem(a + i * 64, true, TouchKind::Write, 8);
            if b != a {
                self.charge_mem(b + i * 64, true, TouchKind::Read, 8);
            }
        }
        self.run.stats.cycles += len / 8;
        self.run.stats.mem_ops += len / 8;
    }
}
