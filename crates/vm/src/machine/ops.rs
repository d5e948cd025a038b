//! The op handlers: the one copy of each IR operation's semantics.
//!
//! Both engines are decoders over these handlers. The step walker
//! (`exec.rs`) reads an IR instruction's operands, the bytecode loop
//! (`bytecode.rs`) reads them from the word stream, and each hands the
//! decoded values — `V`s, sizes, the [`MemSpace`], the [`Policy`], the
//! check site — to the handler, which performs the op's memory touches,
//! checks, cycle charges and probe hooks and returns the result (or the
//! trap). The decoders only write the result to its destination
//! register and move on. The CPI and PAC ops' handlers live in `cpi.rs`.
//!
//! Handlers charge `stats` directly. The bytecode loop keeps only the
//! per-instruction base charge in locals and publishes them before any
//! handler that observes counters (the probe hooks, frame push/pop).

use levee_ir::prelude::*;
use levee_rt::{Entry, MetaId};

use crate::trap::Trap;

use super::{Machine, V};

/// The target of a call op: direct, or an indirect call's raw target
/// word with the call site's expected signature and CFI annotation.
pub(crate) enum Callee<'s> {
    Direct(FuncId),
    Indirect {
        target: u64,
        sig: &'s FnSig,
        cfi: Option<CfiPolicy>,
    },
}

impl<'m> Machine<'m> {
    /// `alloca`: carves `size` bytes off the stack `stack` names and
    /// returns a pointer based on the new object.
    #[inline(always)]
    pub(crate) fn op_alloca(&mut self, size: u64, stack: StackKind) -> Result<V, Trap> {
        let aligned = crate::ctx_align(size.max(1), 8);
        let addr = match stack {
            StackKind::Conventional => {
                self.run.sp -= aligned;
                self.check_stack_space()?;
                self.run.sp
            }
            StackKind::Safe => {
                self.run.safe_sp -= aligned;
                self.run.safe_sp
            }
            StackKind::Unsafe => {
                self.run.unsafe_sp -= aligned;
                self.check_stack_space()?;
                self.run.unsafe_sp
            }
        };
        Ok(self.v_data(addr, addr, addr + size, 0))
    }

    /// `load`: a `size`-byte program read from `space`.
    #[inline(always)]
    pub(crate) fn op_load(&mut self, addr: u64, size: u64, space: MemSpace) -> Result<V, Trap> {
        self.run.stats.mem_ops += 1;
        let raw = self.prog_read(addr, size, space)?;
        // Safe-stack slots are trusted storage: provenance survives the
        // round-trip (like a register spill) as long as the reloaded
        // word matches what was spilled.
        let meta = if space == MemSpace::SafeStack {
            match self.run.safe_stack_meta.get(&addr) {
                Some(&(spilled, m)) if spilled == raw => m,
                _ => MetaId::NONE,
            }
        } else {
            MetaId::NONE
        };
        Ok(V { raw, meta })
    }

    /// `store`: a `size`-byte program write of `v` to `space`. A
    /// safe-stack store records (or forgets) the value's provenance
    /// before the access, so [`Machine::op_load`] can restore it.
    #[inline(always)]
    pub(crate) fn op_store(
        &mut self,
        addr: u64,
        v: V,
        size: u64,
        space: MemSpace,
    ) -> Result<(), Trap> {
        self.run.stats.mem_ops += 1;
        if space == MemSpace::SafeStack {
            if v.meta.is_some() {
                self.run.safe_stack_meta.insert(addr, (v.raw, v.meta));
            } else {
                self.run.safe_stack_meta.remove(&addr);
            }
        }
        self.prog_write(addr, v.raw, size, space)
    }

    /// `gep`: `base + index * elem_size + offset`. Derived pointers keep
    /// their provenance handle (based-on propagation, case iv): the raw
    /// word moves, the based-on object doesn't. Field selection narrows
    /// the bounds to the `elem_size`-byte sub-object (§3.2.2 /
    /// Appendix A), which is new provenance and interns a record.
    #[inline(always)]
    pub(crate) fn op_gep(
        &mut self,
        base: V,
        index: u64,
        elem_size: u64,
        offset: u64,
        field: bool,
    ) -> V {
        let raw = base
            .raw
            .wrapping_add(index.wrapping_mul(elem_size))
            .wrapping_add(offset);
        let meta = match self.meta.get(base.meta) {
            Some(prov) if field => {
                self.intern_prov(Entry::data(raw, raw, raw + elem_size, prov.id))
            }
            _ => base.meta,
        };
        V { raw, meta }
    }

    /// `global_addr`: the global's address with its pre-interned data
    /// provenance.
    #[inline(always)]
    pub(crate) fn op_global_addr(&self, global: usize) -> V {
        V {
            raw: self.image.global_addrs[global],
            meta: self.global_meta[global],
        }
    }

    /// `func_addr`: the function's entry with its pre-interned code
    /// provenance.
    #[inline(always)]
    pub(crate) fn op_func_addr(&self, func: usize) -> V {
        V {
            raw: self.image.func_addrs[func],
            meta: self.func_meta[func],
        }
    }

    /// `bin`: 64-bit two's-complement arithmetic. Multiply and divide
    /// carry cycle charges (and divide traps on zero); everything else
    /// is free beyond the base instruction charge.
    ///
    /// Pointer arithmetic done as integer math keeps the based-on
    /// metadata of its single pointer operand — the dataflow-cast
    /// relaxation of §3.2.1/§4: `Add`/`Sub` keep the provenance of a
    /// lone pointer left operand, `Add` also commutes, and everything
    /// else (two pointer operands included) strips it.
    #[inline(always)]
    pub(crate) fn op_bin(&mut self, op: BinOp, a: V, b: V) -> Result<V, Trap> {
        let (x, y) = (a.raw, b.raw);
        let raw = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            BinOp::Mul | BinOp::Div | BinOp::Rem => self.charged_bin(op, x, y)?,
        };
        let meta = match op {
            BinOp::Add | BinOp::Sub if a.meta.is_some() && b.meta.is_none() => a.meta,
            BinOp::Add if a.meta.is_none() && b.meta.is_some() => b.meta,
            _ => MetaId::NONE,
        };
        Ok(V { raw, meta })
    }

    /// The charged operators of [`Machine::op_bin`]. Kept out of line:
    /// inlined, they made the compiler split the bytecode loop's `Bin`
    /// arm per operator, and the arithmetic-heavy kernels ran ~15%
    /// slower (x86-64 Xeon guest).
    #[inline(never)]
    fn charged_bin(&mut self, op: BinOp, x: u64, y: u64) -> Result<u64, Trap> {
        if op == BinOp::Mul {
            self.run.stats.cycles += self.config.cost.mul;
            return Ok(x.wrapping_mul(y));
        }
        self.run.stats.cycles += self.config.cost.div;
        match (op, y) {
            (_, 0) => Err(Trap::DivByZero),
            (BinOp::Div, _) => Ok((x as i64).wrapping_div(y as i64) as u64),
            _ => Ok((x as i64).wrapping_rem(y as i64) as u64),
        }
    }

    /// The call tail shared by every call op (and the entry into
    /// `main`): resolves an indirect target (CFI check, goal semantics,
    /// arity), fills the callee's register file through `fill` — the
    /// decoder's argument reader, called with the caller's frame still
    /// on top — and pushes the callee's frame, returning to `ret_addr`.
    #[inline(always)]
    pub(crate) fn op_call(
        &mut self,
        callee: Callee<'_>,
        ret_addr: u64,
        dest: Option<ValueId>,
        nargs: usize,
        fill: impl FnOnce(&Self, &mut Vec<V>),
    ) -> Result<(), Trap> {
        let func = match callee {
            Callee::Direct(func) => func,
            Callee::Indirect { target, sig, cfi } => {
                self.resolve_indirect(target, sig, cfi, nargs)?
            }
        };
        let desc = self.image.frame_descs[func.0 as usize];
        let mut regs = self.take_vec();
        fill(self, &mut regs);
        debug_assert_eq!(regs.len(), desc.n_params as usize);
        regs.resize(desc.n_regs as usize, V::int(0));
        self.push_frame(func, desc, regs, dest, ret_addr)
    }
}

/// `cmp`: signed 64-bit comparison.
#[inline(always)]
pub(crate) fn cmp(op: CmpOp, a: u64, b: u64) -> bool {
    let (a, b) = (a as i64, b as i64);
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// `cast` to a `size`-byte type. Pointer casts (to/from `void*`
/// included) keep the based-on metadata; int→ptr keeps metadata only if
/// the dataflow carried some (otherwise "invalid"). Integer narrowing
/// truncates and strips it.
#[inline(always)]
pub(crate) fn cast(kind: CastKind, v: V, size: u64) -> V {
    match kind {
        CastKind::PtrToPtr | CastKind::PtrToInt | CastKind::IntToPtr => v,
        CastKind::IntToInt => V::int(match size {
            1 => v.raw as u8 as u64,
            2 => v.raw as u16 as u64,
            4 => v.raw as u32 as u64,
            _ => v.raw,
        }),
    }
}
