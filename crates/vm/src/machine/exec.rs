//! The step walker: one IR instruction per step.
//!
//! A decoder over the op handlers (`ops.rs`, `cpi.rs`), like the
//! bytecode loop: it reads each instruction's operands off the IR,
//! calls the op's handler and writes the destination register. It is
//! kept as the reference engine — with the semantics shared, a
//! walker/bytecode divergence isolates a compile, fuse or decode bug.

use levee_bc::Op;
use levee_ir::prelude::*;

use crate::trap::{ExitStatus, Trap};

use super::ops::{cast, cmp, Callee};
use super::{CheckSite, Machine, V};

impl<'m> Machine<'m> {
    /// Executes one instruction or terminator. Returns `Some(exit)` when
    /// the program finished.
    pub(crate) fn step(&mut self) -> Result<Option<ExitStatus>, Trap> {
        // Profiler dispatch seam (mirrors the bytecode loop's): close
        // the previous op's cycle window, open this one's. Observation
        // only — no charge depends on it.
        if self.probe.is_some() {
            let (op, now) = (self.current_op_index(), self.run.stats.cycles);
            if let Some(p) = self.probe.as_deref_mut() {
                p.dispatch(op, now);
            }
        }
        self.run.stats.insts += 1;
        self.run.stats.cycles += self.config.cost.inst;
        if self.run.stats.insts > self.config.max_insts {
            return Err(Trap::OutOfFuel);
        }

        let module = self.image.module;
        let frame = self.frame();
        let func = module.func(frame.func);
        let block = func.block(frame.block);

        if frame.ip >= block.insts.len() {
            return self.exec_terminator(&block.term);
        }
        let inst = &block.insts[frame.ip];
        self.frame_mut().ip += 1;
        self.exec_inst(inst)?;
        Ok(None)
    }

    /// Maps the walker's in-flight instruction or terminator onto the
    /// shared opcode space (`levee_bc::Op`) so both engines report
    /// per-opcode attribution in the same vocabulary. The walker never
    /// executes fused superinstructions, so those slots stay zero.
    fn current_op_index(&self) -> usize {
        let frame = self.frame();
        let block = self.image.module.func(frame.func).block(frame.block);
        let op = if frame.ip >= block.insts.len() {
            match &block.term {
                Terminator::Br(_) => Op::Jump,
                Terminator::CondBr { .. } => Op::Branch,
                Terminator::Ret(_) => Op::Ret,
                Terminator::Unreachable => Op::Unreachable,
            }
        } else {
            match &block.insts[frame.ip] {
                Inst::Alloca { .. } => Op::Alloca,
                Inst::Load { .. } => Op::Load,
                Inst::Store { .. } => Op::Store,
                Inst::Gep { .. } => Op::Gep,
                Inst::GlobalAddr { .. } => Op::GlobalAddr,
                Inst::FuncAddr { .. } => Op::FuncAddr,
                Inst::Bin { .. } => Op::Bin,
                Inst::Cmp { .. } => Op::Cmp,
                Inst::Cast { .. } => Op::Cast,
                Inst::Call { .. } => Op::Call,
                Inst::CallIndirect { .. } => Op::CallIndirect,
                Inst::IntrinsicCall { .. } => Op::IntrinsicCall,
                Inst::Cpi(cpi) => match cpi {
                    CpiOp::PtrStore { .. } => Op::PtrStore,
                    CpiOp::PtrLoad { .. } => Op::PtrLoad,
                    CpiOp::Check { .. } => Op::Check,
                    CpiOp::FnCheck { .. } => Op::FnCheck,
                    CpiOp::SafeMemcpy { .. } => Op::SafeMemcpy,
                    CpiOp::SafeMemset { .. } => Op::SafeMemset,
                    CpiOp::PacSign { .. } => Op::PacSign,
                    CpiOp::PacAuth { .. } => Op::PacAuth,
                },
            }
        };
        op as usize
    }

    fn exec_terminator(&mut self, term: &Terminator) -> Result<Option<ExitStatus>, Trap> {
        let target = match term {
            Terminator::Br(b) => *b,
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                if self.eval(*cond).raw != 0 {
                    *then_bb
                } else {
                    *else_bb
                }
            }
            Terminator::Ret(v) => {
                let value = v.map(|op| self.eval(op));
                return self.do_return(value);
            }
            Terminator::Unreachable => return Err(Trap::Unreachable),
        };
        let f = self.frame_mut();
        f.block = target;
        f.ip = 0;
        Ok(None)
    }

    fn exec_inst(&mut self, inst: &Inst) -> Result<(), Trap> {
        let module = self.image.module;
        let types = &module.types;
        let (dest, v) = match inst {
            Inst::Alloca {
                dest,
                ty,
                count,
                stack,
            } => (*dest, self.op_alloca(types.size_of(ty) * count, *stack)?),
            Inst::Load {
                dest,
                ptr,
                ty,
                space,
            } => {
                let addr = self.eval(*ptr).raw;
                (*dest, self.op_load(addr, types.size_of(ty), *space)?)
            }
            Inst::Store {
                ptr,
                value,
                ty,
                space,
            } => {
                let (addr, v) = (self.eval(*ptr).raw, self.eval(*value));
                return self.op_store(addr, v, types.size_of(ty), *space);
            }
            Inst::Gep {
                dest,
                base,
                index,
                elem,
                offset,
                field_of,
            } => {
                let (b, i) = (self.eval(*base), self.eval(*index).raw);
                let elem_size = types.size_of(elem);
                (
                    *dest,
                    self.op_gep(b, i, elem_size, *offset, field_of.is_some()),
                )
            }
            Inst::GlobalAddr { dest, global } => (*dest, self.op_global_addr(global.0 as usize)),
            Inst::FuncAddr { dest, func } => (*dest, self.op_func_addr(func.0 as usize)),
            Inst::Bin { dest, op, lhs, rhs } => {
                let (a, b) = (self.eval(*lhs), self.eval(*rhs));
                (*dest, self.op_bin(*op, a, b)?)
            }
            Inst::Cmp { dest, op, lhs, rhs } => {
                let r = cmp(*op, self.eval(*lhs).raw, self.eval(*rhs).raw);
                (*dest, V::int(r as u64))
            }
            Inst::Cast {
                dest,
                kind,
                value,
                to,
            } => (*dest, cast(*kind, self.eval(*value), types.size_of(to))),
            Inst::Call { dest, func, args } => {
                let ret = self.call_ret_addr();
                return self.op_call(Callee::Direct(*func), ret, *dest, args.len(), |m, regs| {
                    regs.extend(args.iter().map(|a| m.eval(*a)))
                });
            }
            Inst::CallIndirect {
                dest,
                callee,
                sig,
                args,
                cfi,
            } => {
                let callee = Callee::Indirect {
                    target: self.eval(*callee).raw,
                    sig,
                    cfi: *cfi,
                };
                let ret = self.call_ret_addr();
                return self.op_call(callee, ret, *dest, args.len(), |m, regs| {
                    regs.extend(args.iter().map(|a| m.eval(*a)))
                });
            }
            Inst::IntrinsicCall { dest, which, args } => {
                let mut argv = self.take_vec();
                argv.extend(args.iter().map(|a| self.eval(*a)));
                return self.exec_intrinsic(*which, argv, *dest);
            }
            Inst::Cpi(op) => match op {
                CpiOp::PtrStore {
                    policy,
                    ptr,
                    value,
                    universal,
                } => {
                    let (addr, v) = (self.eval(*ptr).raw, self.eval(*value));
                    return self.op_ptr_store(*policy, addr, v, *universal);
                }
                CpiOp::PtrLoad {
                    policy, dest, ptr, ..
                } => (*dest, self.op_ptr_load(*policy, self.eval(*ptr).raw)?),
                CpiOp::Check { policy, ptr, size } => {
                    let site = self.check_site();
                    return self.op_check(self.eval(*ptr), *size, *policy, site);
                }
                CpiOp::FnCheck { policy, callee } => {
                    let site = self.check_site();
                    return self.op_fncheck(self.eval(*callee), *policy, site);
                }
                CpiOp::SafeMemcpy { dst, src, len, .. } => {
                    let (d, s, n) = (self.eval(*dst), self.eval(*src), self.eval(*len));
                    return self.op_safe_memcpy(d.raw, s.raw, n.raw);
                }
                CpiOp::SafeMemset { dst, byte, len, .. } => {
                    let (d, b, n) = (self.eval(*dst), self.eval(*byte), self.eval(*len));
                    return self.op_safe_memset(d.raw, b.raw as u8, n.raw);
                }
                CpiOp::PacSign { dest, value, ctx } => {
                    let (v, c) = (self.eval(*value), self.eval(*ctx).raw);
                    (*dest, self.op_pac_sign(v, c))
                }
                CpiOp::PacAuth { dest, value, ctx } => {
                    let (v, c) = (self.eval(*value), self.eval(*ctx).raw);
                    (*dest, self.op_pac_auth(v, c)?)
                }
            },
        };
        self.set_reg(dest, v);
        Ok(())
    }

    /// The return address of the in-flight call (`ip` has already
    /// advanced past it).
    fn call_ret_addr(&self) -> u64 {
        let f = self.frame();
        let site = self.image.site_of_call[&(f.func.0, f.block.0, f.ip - 1)];
        self.image.ret_site(f.func.0, site)
    }

    /// The in-flight check's site, in walker coordinates.
    fn check_site(&self) -> CheckSite {
        let f = self.frame();
        CheckSite::Ir(f.func.0, f.block.0, f.ip as u32 - 1)
    }
}
