//! Scalar promotion (mem2reg-lite).
//!
//! Levee's analyses run on LLVM IR *after* mem2reg: scalar locals whose
//! address never escapes live in SSA registers, not memory. Our
//! frontend lowers clang -O0 style (every local gets a stack slot), so
//! without this pass the baseline would be inflated with loads/stores
//! no real compiler emits — diluting every instrumentation-overhead
//! measurement and polluting the MO fractions of Table 2.
//!
//! The transformation is sound in this non-SSA register IR because
//! registers are mutable cells: a promoted alloca simply becomes a
//! dedicated register, stores become register copies, loads become
//! copies out. Word-wide copies use `Add cell, 0`, which the VM's
//! based-on propagation rule treats as pointer arithmetic — so
//! provenance metadata survives promotion exactly like it survives in
//! real registers. Stores to narrow slots (`char`, `short`, `int`)
//! instead use a truncating `IntToInt` cast, reproducing the width
//! truncation the memory store performed.
//!
//! Promotion runs for *every* build configuration, including the
//! vanilla baseline, so comparisons stay fair.

use std::collections::{BTreeMap, HashMap, HashSet};

use levee_ir::prelude::*;

/// Promotes eligible scalar allocas in every function of `module`;
/// returns the number of allocas promoted.
pub fn promote_scalars(module: &mut Module) -> usize {
    let mut total = 0;
    for func in &mut module.funcs {
        total += promote_in_function(func);
    }
    total
}

fn promote_in_function(func: &mut Function) -> usize {
    // Candidates: single-element scalar allocas, in ascending slot order
    // so every build numbers the promoted cells alike.
    let mut candidates: BTreeMap<ValueId, Ty> = BTreeMap::new();
    for inst in func.iter_insts() {
        if let Inst::Alloca {
            dest, ty, count: 1, ..
        } = inst
        {
            if ty.is_scalar() {
                candidates.insert(*dest, ty.clone());
            }
        }
    }
    // Disqualify any candidate whose register is used as anything other
    // than the direct address of a load/store (escape analysis, same
    // shape as the safe-stack criterion but stricter).
    let mut escaped: HashSet<ValueId> = HashSet::new();
    for inst in func.iter_insts() {
        match inst {
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => {
                let _ = ptr; // address use is fine
            }
            Inst::Store { value, .. } => {
                if let Operand::Value(v) = value {
                    if candidates.contains_key(v) {
                        escaped.insert(*v);
                    }
                }
            }
            other => {
                for op in other.operands() {
                    if let Operand::Value(v) = op {
                        if candidates.contains_key(&v) {
                            escaped.insert(v);
                        }
                    }
                }
            }
        }
    }
    for (_, block) in func.iter_blocks() {
        if let Terminator::Ret(Some(Operand::Value(v))) = &block.term {
            escaped.insert(*v);
        }
    }
    for v in &escaped {
        candidates.remove(v);
    }
    if candidates.is_empty() {
        return 0;
    }

    // One mutable register cell per promoted slot.
    let cells: HashMap<ValueId, ValueId> = candidates
        .iter()
        .map(|(slot, ty)| (*slot, func.new_local(ty.clone())))
        .collect();

    for block in &mut func.blocks {
        let old = std::mem::take(&mut block.insts);
        let mut new = Vec::with_capacity(old.len());
        for inst in old {
            match inst {
                Inst::Alloca { dest, .. } if cells.contains_key(&dest) => {
                    // The slot no longer exists; drop the alloca.
                }
                Inst::Store {
                    ptr: Operand::Value(slot),
                    value,
                    ..
                } if cells.contains_key(&slot) => {
                    // A memory store truncates to the slot's width; the
                    // register cell must reproduce that, or `char c =
                    // 300` would keep all 64 bits after promotion. Only
                    // narrow integers need it — for word-wide scalars
                    // (longs, pointers) the copy is an `Add 0`, which
                    // the VM's based-on rule treats as pointer
                    // arithmetic, so provenance metadata survives.
                    let ty = &candidates[&slot];
                    if matches!(ty, Ty::I8 | Ty::I16 | Ty::I32) {
                        new.push(Inst::Cast {
                            dest: cells[&slot],
                            kind: CastKind::IntToInt,
                            value,
                            to: ty.clone(),
                        });
                    } else {
                        new.push(Inst::Bin {
                            dest: cells[&slot],
                            op: BinOp::Add,
                            lhs: value,
                            rhs: Operand::Const(0),
                        });
                    }
                }
                Inst::Load {
                    dest,
                    ptr: Operand::Value(slot),
                    ..
                } if cells.contains_key(&slot) => {
                    new.push(Inst::Bin {
                        dest,
                        op: BinOp::Add,
                        lhs: Operand::Value(cells[&slot]),
                        rhs: Operand::Const(0),
                    });
                }
                other => new.push(other),
            }
        }
        block.insts = new;
    }
    candidates.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use levee_minic::compile;

    fn mem_ops(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.iter_insts())
            .filter(|i| i.is_memory_op())
            .count()
    }

    #[test]
    fn promotes_loop_counters_away() {
        let src = r#"
            int main() {
                long acc = 0;
                long i;
                for (i = 0; i < 100; i = i + 1) { acc = acc + i; }
                print_int(acc);
                return 0;
            }
        "#;
        let mut m = compile(src, "t").unwrap();
        let before = mem_ops(&m);
        let promoted = promote_scalars(&mut m);
        levee_ir::verify::assert_valid(&m);
        assert!(promoted >= 2, "acc and i should promote");
        assert!(mem_ops(&m) < before);
        let mut session = crate::Session::builder().module(m).build().expect("builds");
        let out = session.run_ok(b"").expect("runs cleanly");
        assert_eq!(out.output, "4950");
    }

    #[test]
    fn address_taken_locals_are_not_promoted() {
        let src = r#"
            void bump(long* p) { *p = *p + 1; }
            int main() {
                long x = 41;
                bump(&x);
                print_int(x);
                return 0;
            }
        "#;
        let mut m = compile(src, "t").unwrap();
        promote_scalars(&mut m);
        // x's alloca must survive in main (its address escapes).
        let main = m.func(m.func_by_name("main").unwrap());
        assert!(main.iter_insts().any(|i| matches!(i, Inst::Alloca { .. })));
        let mut session = crate::Session::builder().module(m).build().expect("builds");
        assert_eq!(session.run(b"").output, "42");
    }

    #[test]
    fn pointer_provenance_survives_promotion() {
        // A function pointer stored in a promoted local must still pass
        // FnCheck under CPI (metadata rides in the register cell).
        let src = r#"
            void h(int x) { print_int(x); }
            int main() {
                void (*f)(int) = h;
                f(9);
                return 0;
            }
        "#;
        let mut session = crate::Session::builder()
            .source(src)
            .name("t")
            .protection(crate::BuildConfig::Cpi)
            .build()
            .unwrap();
        let out = session.run_ok(b"").expect("runs cleanly under CPI");
        assert_eq!(out.output, "9");
    }

    #[test]
    fn narrow_promoted_locals_still_truncate_at_stores() {
        // `char c = 300` must print 44 whether c lives in memory (store
        // truncates to the slot width) or in a promoted register cell
        // (the cast reproduces it). Caught by the Session port of the
        // end-to-end suite, which routed these programs through the
        // build pipeline for the first time.
        let src = r#"
            int main() {
                char c = 300;
                print_int(c);
                int i = 4294967298;
                print_int(i == 2);
                return 0;
            }
        "#;
        let mut m = compile(src, "t").unwrap();
        let promoted = promote_scalars(&mut m);
        levee_ir::verify::assert_valid(&m);
        assert!(promoted >= 2, "c and i should promote");
        let mut session = crate::Session::builder().module(m).build().expect("builds");
        let out = session.run_ok(b"").expect("runs");
        assert_eq!(out.output, "44\n1");
    }

    #[test]
    fn arrays_and_structs_stay_in_memory() {
        let src = r#"
            int main() {
                int a[4];
                a[0] = 5;
                print_int(a[0]);
                return 0;
            }
        "#;
        let mut m = compile(src, "t").unwrap();
        let promoted = promote_in_function(&mut m.funcs[0]);
        assert_eq!(promoted, 0);
    }
}
