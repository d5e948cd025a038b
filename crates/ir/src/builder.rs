//! A convenience builder for constructing functions instruction by
//! instruction, used by the frontend lowering and by tests that
//! hand-assemble IR.

use crate::func::Function;
use crate::inst::{
    BinOp, BlockId, CastKind, CfiPolicy, CmpOp, FuncId, GlobalId, Inst, Intrinsic, MemSpace,
    Operand, StackKind, Terminator, ValueId,
};
use crate::types::{FnSig, StructId, Ty};

/// Builds one [`Function`], tracking a current insertion block.
pub struct FuncBuilder {
    func: Function,
    cur: BlockId,
    sealed: Vec<bool>,
}

impl FuncBuilder {
    /// Starts building a function with the given name and signature.
    /// The insertion point is the entry block.
    pub fn new(name: &str, sig: FnSig) -> Self {
        let func = Function::new(name, sig);
        FuncBuilder {
            func,
            cur: BlockId(0),
            sealed: vec![false],
        }
    }

    /// The parameter register for parameter `i`.
    pub fn param(&self, i: usize) -> ValueId {
        assert!(i < self.func.param_count(), "parameter index out of range");
        ValueId(i as u32)
    }

    /// Creates a new block (does not move the insertion point).
    pub fn new_block(&mut self) -> BlockId {
        self.sealed.push(false);
        self.func.new_block()
    }

    /// Moves the insertion point to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has already been sealed with a terminator.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(!self.sealed[b.0 as usize], "block {b:?} already sealed");
        self.cur = b;
    }

    /// True if the current block has been sealed with a terminator.
    pub fn current_sealed(&self) -> bool {
        self.sealed[self.cur.0 as usize]
    }

    fn push(&mut self, inst: Inst) {
        assert!(
            !self.sealed[self.cur.0 as usize],
            "appending to sealed block"
        );
        self.func.block_mut(self.cur).insts.push(inst);
    }

    fn fresh(&mut self, ty: Ty) -> ValueId {
        self.func.new_local(ty)
    }

    /// Appends a raw instruction — the escape hatch used by
    /// instrumentation passes and tests that assemble [`Inst::Cpi`] ops
    /// directly.
    pub fn func_mut_push(&mut self, inst: Inst) {
        self.push(inst);
    }

    /// Allocates a fresh virtual register without emitting anything
    /// (paired with [`func_mut_push`](Self::func_mut_push)).
    pub fn fresh_local(&mut self, ty: Ty) -> ValueId {
        self.fresh(ty)
    }

    /// `alloca ty[count]` on the conventional stack.
    pub fn alloca(&mut self, ty: Ty, count: u64) -> ValueId {
        let ptr_ty = match &ty {
            Ty::Array(elem, _) => (**elem).clone().ptr_to(),
            other => other.clone().ptr_to(),
        };
        let dest = self.fresh(ptr_ty);
        self.push(Inst::Alloca {
            dest,
            ty,
            count,
            stack: StackKind::Conventional,
        });
        dest
    }

    /// Typed load.
    pub fn load(&mut self, ptr: impl Into<Operand>, ty: Ty) -> ValueId {
        let dest = self.fresh(ty.clone());
        self.push(Inst::Load {
            dest,
            ptr: ptr.into(),
            ty,
            space: MemSpace::Regular,
        });
        dest
    }

    /// Typed store.
    pub fn store(&mut self, ptr: impl Into<Operand>, value: impl Into<Operand>, ty: Ty) {
        self.push(Inst::Store {
            ptr: ptr.into(),
            value: value.into(),
            ty,
            space: MemSpace::Regular,
        });
    }

    /// `dest = base + index * sizeof(elem) + offset`.
    pub fn gep(
        &mut self,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        elem: Ty,
        offset: u64,
    ) -> ValueId {
        let dest = self.fresh(elem.clone().ptr_to());
        self.push(Inst::Gep {
            dest,
            base: base.into(),
            index: index.into(),
            elem,
            offset,
            field_of: None,
        });
        dest
    }

    /// Field address: `&base->field`, recording the struct for analyses.
    pub fn gep_field(
        &mut self,
        base: impl Into<Operand>,
        sid: StructId,
        field_idx: u32,
        field_ty: Ty,
        offset: u64,
    ) -> ValueId {
        let dest = self.fresh(field_ty.clone().ptr_to());
        self.push(Inst::Gep {
            dest,
            base: base.into(),
            index: Operand::Const(0),
            elem: field_ty,
            offset,
            field_of: Some((sid, field_idx)),
        });
        dest
    }

    /// Address of a global.
    pub fn global_addr(&mut self, global: GlobalId, ty: Ty) -> ValueId {
        let dest = self.fresh(ty);
        self.push(Inst::GlobalAddr { dest, global });
        dest
    }

    /// Address of a function (takes a code pointer).
    pub fn func_addr(&mut self, func: FuncId, sig: FnSig) -> ValueId {
        let dest = self.fresh(Ty::fn_ptr(sig));
        self.push(Inst::FuncAddr { dest, func });
        dest
    }

    /// Integer binary operation; result type follows `ty`.
    pub fn bin(
        &mut self,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        ty: Ty,
    ) -> ValueId {
        let dest = self.fresh(ty);
        self.push(Inst::Bin {
            dest,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dest
    }

    /// Integer comparison producing an `i32` 0/1.
    pub fn cmp(&mut self, op: CmpOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> ValueId {
        let dest = self.fresh(Ty::I32);
        self.push(Inst::Cmp {
            dest,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dest
    }

    /// Cast to `to`.
    pub fn cast(&mut self, kind: CastKind, value: impl Into<Operand>, to: Ty) -> ValueId {
        let dest = self.fresh(to.clone());
        self.push(Inst::Cast {
            dest,
            kind,
            value: value.into(),
            to,
        });
        dest
    }

    /// Direct call.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>, ret: Ty) -> Option<ValueId> {
        let dest = if ret == Ty::Void {
            None
        } else {
            Some(self.fresh(ret))
        };
        self.push(Inst::Call { dest, func, args });
        dest
    }

    /// Indirect call through `callee`.
    pub fn call_indirect(
        &mut self,
        callee: impl Into<Operand>,
        sig: FnSig,
        args: Vec<Operand>,
    ) -> Option<ValueId> {
        let dest = if sig.ret == Ty::Void {
            None
        } else {
            Some(self.fresh(sig.ret.clone()))
        };
        self.push(Inst::CallIndirect {
            dest,
            callee: callee.into(),
            sig,
            args,
            cfi: None::<CfiPolicy>,
        });
        dest
    }

    /// Intrinsic call; `ret` of `Ty::Void` produces no destination.
    pub fn intrinsic(&mut self, which: Intrinsic, args: Vec<Operand>, ret: Ty) -> Option<ValueId> {
        let dest = if ret == Ty::Void {
            None
        } else {
            Some(self.fresh(ret))
        };
        self.push(Inst::IntrinsicCall { dest, which, args });
        dest
    }

    /// Seals the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.seal(Terminator::Br(target));
    }

    /// Seals the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.seal(Terminator::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    /// Seals the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.seal(Terminator::Ret(value));
    }

    /// Seals the current block with `Unreachable`.
    pub fn unreachable(&mut self) {
        self.seal(Terminator::Unreachable);
    }

    fn seal(&mut self, term: Terminator) {
        assert!(
            !self.sealed[self.cur.0 as usize],
            "terminating already-sealed block"
        );
        self.func.block_mut(self.cur).term = term;
        self.sealed[self.cur.0 as usize] = true;
    }

    /// Finishes the function. Unsealed blocks keep their `Unreachable`
    /// terminator (the verifier flags them if they are reachable).
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_branching_function() {
        // int max(int a, int b) { return a > b ? a : b; }
        let mut b = FuncBuilder::new("max", FnSig::new(vec![Ty::I32, Ty::I32], Ty::I32));
        let t = b.new_block();
        let e = b.new_block();
        let c = b.cmp(CmpOp::Gt, b.param(0), b.param(1));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(b.param(0).into()));
        b.switch_to(e);
        b.ret(Some(b.param(1).into()));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.inst_count(), 1);
        assert!(matches!(
            f.block(BlockId(0)).term,
            Terminator::CondBr { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn append_after_seal_panics() {
        let mut b = FuncBuilder::new("f", FnSig::new(vec![], Ty::Void));
        b.ret(None);
        b.alloca(Ty::I32, 1);
    }

    #[test]
    fn alloca_of_array_yields_element_pointer() {
        let mut b = FuncBuilder::new("f", FnSig::new(vec![], Ty::Void));
        let p = b.alloca(Ty::Array(Box::new(Ty::I8), 16), 1);
        let f0 = b.finish();
        assert!(f0.local_ty(p).is_char_ptr());
    }

    #[test]
    fn void_call_has_no_dest() {
        let mut b = FuncBuilder::new("f", FnSig::new(vec![], Ty::Void));
        let r = b.intrinsic(Intrinsic::Free, vec![Operand::Const(0)], Ty::Void);
        assert!(r.is_none());
    }
}
