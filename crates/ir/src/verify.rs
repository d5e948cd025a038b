//! The IR verifier: structural and type sanity checks run after the
//! frontend and after every instrumentation pass.
//!
//! Catching malformed IR here (rather than as misbehaviour in the VM)
//! keeps the pass pipeline honest: every pass must leave the module in a
//! verifiable state, mirroring LLVM's `-verify` discipline.

use std::collections::HashSet;

use crate::func::Function;
use crate::inst::{BlockId, Inst, Operand, Terminator, ValueId};
use crate::module::Module;
use crate::types::Ty;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred, if any.
    pub func: Option<String>,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in @{}: {}", name, self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module. Returns all errors found (empty = valid).
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for (_, f) in m.iter_funcs() {
        verify_func(m, f, &mut errs);
    }
    if m.func_by_name("main").is_none() {
        errs.push(VerifyError {
            func: None,
            msg: "module has no @main entry point".into(),
        });
    }
    errs
}

/// Verifies a module and panics with a readable report on failure.
/// Intended for tests and pass pipelines.
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    if !errs.is_empty() {
        let report: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!("IR verification failed:\n  {}", report.join("\n  "));
    }
}

fn verify_func(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let mut err = |msg: String| {
        errs.push(VerifyError {
            func: Some(f.name.clone()),
            msg,
        })
    };

    if f.blocks.is_empty() {
        err("function has no blocks".into());
        return;
    }

    let nlocals = f.locals.len() as u32;
    let nblocks = f.blocks.len() as u32;

    // Every register must be defined before any use in a simple forward
    // walk of reachable blocks (parameters are pre-defined). This is a
    // conservative non-SSA check: a register defined on every path is
    // accepted because lowering only emits forward definitions.
    let mut defined: HashSet<ValueId> = (0..f.param_count() as u32).map(ValueId).collect();
    for (_, block) in f.iter_blocks() {
        for inst in &block.insts {
            if let Some(d) = inst.dest() {
                defined.insert(d);
            }
        }
    }

    for (bid, block) in f.iter_blocks() {
        // Terminator operands are checked exactly like instruction
        // operands: the engines read them the same way.
        let term_operand = match &block.term {
            Terminator::CondBr { cond, .. } => Some(*cond),
            Terminator::Ret(v) => *v,
            Terminator::Br(_) | Terminator::Unreachable => None,
        };
        let operands = block.insts.iter().flat_map(Inst::operands);
        for op in operands.chain(term_operand) {
            if let Operand::Value(v) = op {
                if v.0 >= nlocals {
                    err(format!("bb{}: operand %{} out of range", bid.0, v.0));
                } else if !defined.contains(&v) {
                    err(format!("bb{}: operand %{} never defined", bid.0, v.0));
                }
            }
        }
        for inst in &block.insts {
            if let Some(d) = inst.dest() {
                if d.0 >= nlocals {
                    err(format!("bb{}: dest %{} out of range", bid.0, d.0));
                }
            }
            verify_inst(m, f, bid, inst, &mut err);
        }
        match &block.term {
            Terminator::Br(t) => {
                if t.0 >= nblocks {
                    err(format!("bb{}: branch to missing bb{}", bid.0, t.0));
                }
            }
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                for t in [then_bb, else_bb] {
                    if t.0 >= nblocks {
                        err(format!("bb{}: branch to missing bb{}", bid.0, t.0));
                    }
                }
            }
            Terminator::Ret(v) => {
                let returns_value = v.is_some();
                let should = f.sig.ret != Ty::Void;
                if returns_value != should {
                    err(format!(
                        "bb{}: return value presence mismatches signature",
                        bid.0
                    ));
                }
            }
            Terminator::Unreachable => {}
        }
    }
}

fn verify_inst(m: &Module, f: &Function, bid: BlockId, inst: &Inst, err: &mut impl FnMut(String)) {
    // A register holds a value, and `void` has none: a void call
    // defines no register, so nothing may define a void-typed one.
    if let Some(d) = inst.dest() {
        if f.locals.get(d.0 as usize) == Some(&Ty::Void) {
            err(format!("bb{}: %{} is void-typed", bid.0, d.0));
        }
    }
    match inst {
        Inst::Load { ty, .. } | Inst::Store { ty, .. } if !ty.is_scalar() => {
            err(format!("bb{}: load/store of non-scalar type {ty}", bid.0));
        }
        Inst::Alloca { count, .. } if *count == 0 => {
            err(format!("bb{}: zero-sized alloca", bid.0));
        }
        Inst::Call { func, args, .. } => {
            if func.0 as usize >= m.funcs.len() {
                err(format!(
                    "bb{}: call to missing function id {}",
                    bid.0, func.0
                ));
                return;
            }
            let callee = m.func(*func);
            if callee.param_count() != args.len() {
                err(format!(
                    "bb{}: call to @{} passes {} args, expects {}",
                    bid.0,
                    callee.name,
                    args.len(),
                    callee.param_count()
                ));
            }
        }
        Inst::CallIndirect { sig, args, .. } if sig.params.len() != args.len() => {
            err(format!(
                "bb{}: indirect call passes {} args, signature expects {}",
                bid.0,
                args.len(),
                sig.params.len()
            ));
        }
        Inst::GlobalAddr { global, .. } if global.0 as usize >= m.globals.len() => {
            err(format!("bb{}: missing global id {}", bid.0, global.0));
        }
        Inst::FuncAddr { func, .. } if func.0 as usize >= m.funcs.len() => {
            err(format!("bb{}: missing function id {}", bid.0, func.0));
        }
        Inst::Gep { dest, .. } if !f.local_ty(*dest).is_pointer() => {
            err(format!("bb{}: gep result must be a pointer", bid.0));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::Function;
    use crate::inst::{BinOp, CastKind, MemSpace};
    use crate::types::FnSig;

    fn module_with_main() -> Module {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", FnSig::new(vec![], Ty::I32));
        b.ret(Some(Operand::Const(0)));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn valid_module_passes() {
        let m = module_with_main();
        assert!(verify_module(&m).is_empty());
        assert_valid(&m);
    }

    #[test]
    fn missing_main_is_flagged() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("not_main", FnSig::new(vec![], Ty::Void));
        b.ret(None);
        m.add_func(b.finish());
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("no @main")));
    }

    #[test]
    fn undefined_operand_is_flagged() {
        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::Void));
        let d = f.new_local(Ty::I32);
        f.blocks[0].insts.push(Inst::Bin {
            dest: d,
            op: BinOp::Add,
            lhs: Operand::Value(ValueId(99)),
            rhs: Operand::Const(1),
        });
        f.blocks[0].term = Terminator::Ret(None);
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("out of range")));
    }

    /// Terminator operands are range- and definedness-checked like
    /// instruction operands: a `main` returning a register it never
    /// defines must not reach the bytecode compiler.
    #[test]
    fn terminator_operands_are_checked() {
        let mut m = Module::new("t");
        let mut main = Function::new("main", FnSig::new(vec![], Ty::I32));
        main.blocks[0].term = Terminator::Ret(Some(Operand::Value(ValueId(7))));
        m.add_func(main);
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.msg.contains("operand %7 out of range")));

        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::Void));
        let c = f.new_local(Ty::I64);
        f.blocks[0].term = Terminator::CondBr {
            cond: Operand::Value(c),
            then_bb: BlockId(0),
            else_bb: BlockId(0),
        };
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.msg.contains("operand %0 never defined")));
    }

    #[test]
    fn branch_to_missing_block_is_flagged() {
        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::Void));
        f.blocks[0].term = Terminator::Br(BlockId(5));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("missing bb5")));
    }

    #[test]
    fn ret_mismatch_is_flagged() {
        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::I32));
        f.blocks[0].term = Terminator::Ret(None);
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("mismatches signature")));
    }

    #[test]
    fn non_scalar_load_is_flagged() {
        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::Void));
        let p = f.new_local(Ty::I64);
        let d = f.new_local(Ty::Array(Box::new(Ty::I8), 4));
        f.blocks[0].insts.push(Inst::Load {
            dest: d,
            ptr: Operand::Value(p),
            ty: Ty::Array(Box::new(Ty::I8), 4),
            space: MemSpace::Regular,
        });
        f.blocks[0].term = Terminator::Ret(None);
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("non-scalar")));
    }

    #[test]
    fn call_arity_mismatch_is_flagged() {
        let mut m = module_with_main();
        let callee = m.add_func({
            let mut b = FuncBuilder::new("callee", FnSig::new(vec![Ty::I32], Ty::Void));
            b.ret(None);
            b.finish()
        });
        let mut b = FuncBuilder::new("caller", FnSig::new(vec![], Ty::Void));
        b.call(callee, vec![], Ty::Void);
        b.ret(None);
        m.add_func(b.finish());
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("passes 0 args")));
    }

    /// `void` has no size, so a void-typed register would reach the
    /// engines' frame layout; the verifier rejects it instead.
    #[test]
    fn void_typed_result_is_flagged() {
        let mut m = module_with_main();
        let mut f = Function::new("bad", FnSig::new(vec![], Ty::Void));
        let d = f.new_local(Ty::Void);
        f.blocks[0].insts.push(Inst::Cast {
            dest: d,
            kind: CastKind::IntToInt,
            value: Operand::Const(1),
            to: Ty::Void,
        });
        f.blocks[0].term = Terminator::Ret(None);
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("%0 is void-typed")));
    }
}
