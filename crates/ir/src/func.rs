//! Functions, basic blocks, and per-function protection flags.

use crate::inst::{BlockId, Inst, Terminator, ValueId};
use crate::types::{FnSig, Ty};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The block's terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// Creates an empty block terminated by `Unreachable`; the builder
    /// replaces the terminator when the block is sealed.
    pub fn new() -> Self {
        BasicBlock {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Stack-protection and control-flow-protection state of one function,
/// set by the instrumentation passes in `levee-core` / `levee-defenses`.
///
/// The defaults model a completely unprotected build: the return address
/// sits on the conventional stack in regular memory, adjacent to locals,
/// exactly where a contiguous overflow can reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Protection {
    /// StackGuard-style cookie between locals and the return address;
    /// checked on return. Probabilistic, bypassable by non-contiguous
    /// writes (Fig. 5 row "stack cookies").
    pub stack_cookie: bool,
    /// Shadow stack: the return address is duplicated outside attacker
    /// reach and compared on return.
    pub shadow_stack: bool,
    /// The paper's safe stack (§3.2.4): return address, spills and
    /// proven-safe objects live on a stack inside the safe region;
    /// remaining objects live on a separate unsafe stack.
    pub safestack: bool,
    /// Coarse CFI return check: returns must target a return site.
    pub ret_cfi: bool,
}

/// A function definition.
///
/// Virtual registers `0..sig.params.len()` hold the arguments on entry;
/// further registers are allocated by instructions. Execution starts at
/// block 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source-level name (`main` is the entry point of a module).
    pub name: String,
    /// Parameter and return types.
    pub sig: FnSig,
    /// Types of all virtual registers, including parameters.
    pub locals: Vec<Ty>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Protection flags set by instrumentation passes.
    pub protection: Protection,
    /// Whether this function's address is taken anywhere in the module
    /// (computed by `Module::compute_address_taken`); the target set of
    /// address-taken CFI policies and of CPS's "assigned code pointers"
    /// guarantee.
    pub address_taken: bool,
}

impl Function {
    /// Creates a function with the given name and signature; parameters
    /// become registers `0..params.len()`.
    pub fn new(name: &str, sig: FnSig) -> Self {
        let locals = sig.params.clone();
        Function {
            name: name.to_string(),
            sig,
            locals,
            blocks: vec![BasicBlock::new()],
            protection: Protection::default(),
            address_taken: false,
        }
    }

    /// Allocates a fresh virtual register of type `ty`.
    pub fn new_local(&mut self, ty: Ty) -> ValueId {
        let id = ValueId(self.locals.len() as u32);
        self.locals.push(ty);
        id
    }

    /// Appends a fresh empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new());
        id
    }

    /// Returns the block with the given id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Returns the block with the given id, mutably.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.0 as usize]
    }

    /// The type of a virtual register.
    pub fn local_ty(&self, v: ValueId) -> &Ty {
        &self.locals[v.0 as usize]
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.sig.params.len()
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterates over every instruction in the function.
    pub fn iter_insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }

    /// Iterates over the call-shaped instructions (direct, indirect and
    /// intrinsic calls) in layout order with their `(block, index)`
    /// position.
    ///
    /// Return-site numbering is defined by this order: the VM's loader
    /// assigns return-site addresses to call sites by walking this
    /// iterator, and the bytecode compiler assigns site indices the same
    /// way, so the two always agree on which call gets which site.
    pub fn iter_call_sites(&self) -> impl Iterator<Item = (BlockId, usize, &Inst)> {
        self.iter_blocks().flat_map(|(bid, b)| {
            b.insts
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.is_call_shaped())
                .map(move |(ip, inst)| (bid, ip, inst))
        })
    }

    /// Total number of instructions (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Operand};

    fn sample() -> Function {
        let mut f = Function::new("f", FnSig::new(vec![Ty::I32, Ty::I32], Ty::I32));
        let d = f.new_local(Ty::I32);
        f.block_mut(BlockId(0)).insts.push(Inst::Bin {
            dest: d,
            op: BinOp::Add,
            lhs: Operand::Value(ValueId(0)),
            rhs: Operand::Value(ValueId(1)),
        });
        f.block_mut(BlockId(0)).term = Terminator::Ret(Some(Operand::Value(d)));
        f
    }

    #[test]
    fn params_are_first_locals() {
        let f = sample();
        assert_eq!(f.param_count(), 2);
        assert_eq!(*f.local_ty(ValueId(0)), Ty::I32);
        assert_eq!(*f.local_ty(ValueId(2)), Ty::I32);
        assert_eq!(f.locals.len(), 3);
    }

    #[test]
    fn entry_block_is_zero() {
        let mut f = sample();
        let b1 = f.new_block();
        assert_eq!(b1, BlockId(1));
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.inst_count(), 1);
    }

    #[test]
    fn default_protection_is_unprotected() {
        let p = Protection::default();
        assert!(!p.stack_cookie && !p.shadow_stack && !p.safestack && !p.ret_cfi);
    }
}
