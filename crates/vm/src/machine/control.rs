//! Control flow: calls, returns, indirect-transfer resolution, and the
//! setjmp/longjmp machinery.
//!
//! This is where attacks succeed or die. Every indirect transfer (return,
//! indirect call, longjmp) resolves its raw target address through
//! [`Machine::resolve_transfer`], which applies — in order — the NX
//! policy, the attack-goal check, and finally legitimacy.

use levee_bc::FrameDesc;
use levee_ir::prelude::*;

use crate::layout;
use crate::trap::{ExitStatus, Trap};

use super::ops::Callee;
use super::{Frame, Machine, SetjmpCtx, MAIN_RET_SENTINEL, V};

/// What a resolved indirect transfer may legitimately be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransferKind {
    /// An indirect call (target should be a function entry).
    Call,
    /// A return (target should be the pushed return site).
    Ret { expected: u64 },
    /// A longjmp (target should be a live setjmp token).
    Longjmp,
}

impl<'m> Machine<'m> {
    /// Pushes `main`'s frame, returning to the exit sentinel.
    pub(crate) fn enter_main(&mut self, main: FuncId) -> Result<(), Trap> {
        let desc = self.image.frame_descs[main.0 as usize];
        assert_eq!(desc.n_params, 0, "main takes no arguments");
        self.op_call(Callee::Direct(main), MAIN_RET_SENTINEL, None, 0, |_, _| {})
    }

    /// The descriptor-driven frame push shared by both engines: charges
    /// the call, runs the prologue the descriptor prescribes (return
    /// slot, cookie, shadow stack, unsafe-frame setup) and pushes the
    /// activation record. `regs` must already be the callee's complete
    /// register file (`desc.n_regs` entries, arguments in the leading
    /// slots).
    pub(crate) fn push_frame(
        &mut self,
        func: FuncId,
        desc: FrameDesc,
        regs: Vec<V>,
        caller_dest: Option<ValueId>,
        ret_addr: u64,
    ) -> Result<(), Trap> {
        debug_assert_eq!(regs.len(), desc.n_regs as usize);
        self.run.stats.calls += 1;
        self.run.stats.cycles += self.config.cost.call;
        if self.run.frames.len() > 4096 {
            return Err(Trap::StackOverflow);
        }

        let saved_sp = self.run.sp;
        let saved_unsafe_sp = self.run.unsafe_sp;
        let saved_safe_sp = self.run.safe_sp;

        // Push the return address. With the safe stack it lives in the
        // safe region; otherwise on the conventional stack in regular
        // memory, where overflows can reach it.
        let ret_slot = if desc.safestack {
            self.run.safe_sp -= 8;
            let slot = self.run.safe_sp;
            self.charge_mem(slot, false);
            self.mem
                .write_uint(slot, ret_addr, 8)
                .map_err(|_| Trap::StackOverflow)?;
            slot
        } else {
            self.run.sp -= 8;
            let slot = self.run.sp;
            self.check_stack_space()?;
            // Under PAC the prologue signs the return address before
            // spilling it (the `paciasp` idiom): the attackable stack
            // slot holds the sealed word, never the raw pointer. The
            // safe-stack branch above stays raw — its slot is already
            // unreachable by regular writes.
            let word = if self.pac_active() {
                self.charge_pac_sign();
                self.pac_seal(ret_addr, self.pac_ctx(slot))
            } else {
                ret_addr
            };
            self.charge_mem(slot, true);
            self.mem
                .write_uint(slot, word, 8)
                .map_err(|_| Trap::StackOverflow)?;
            slot
        };

        // Stack cookie sits between the return address and the locals.
        let cookie_slot = if desc.cookie {
            self.run.sp -= 8;
            let slot = self.run.sp;
            self.charge_mem(slot, true);
            self.mem
                .write_uint(slot, self.image.cookie, 8)
                .map_err(|_| Trap::StackOverflow)?;
            slot
        } else {
            0
        };

        if desc.shadow_stack {
            self.run.shadow_stack.push(ret_addr);
            self.run.stats.cycles += self.config.cost.mem_hit; // shadow push
        }

        // Functions that need an unsafe stack frame pay its setup cost.
        if desc.unsafe_frame {
            self.run.stats.cycles += self.config.cost.unsafe_frame;
            self.run.stats.unsafe_frames += 1;
        }

        self.run.frames.push(Frame {
            func,
            block: BlockId(0),
            ip: 0,
            regs,
            desc,
            ret_slot,
            expected_ret: ret_addr,
            cookie_slot,
            saved_sp,
            saved_unsafe_sp,
            saved_safe_sp,
            caller_dest,
        });
        // Profiler seam: the frame is live and all call-setup charges
        // have landed, so setup cost attributes to the caller.
        self.probe_enter(func.0);
        Ok(())
    }

    /// Executes a return: epilogue checks, then transfer resolution.
    /// The epilogue is driven entirely by the frame's descriptor — no
    /// IR lookups on the return path.
    pub(crate) fn do_return(&mut self, value: Option<V>) -> Result<Option<ExitStatus>, Trap> {
        self.run.stats.cycles += self.config.cost.ret;
        let frame = self.run.frames.last().expect("frame");
        let (desc, cookie_slot, slot, expected) = (
            frame.desc,
            frame.cookie_slot,
            frame.ret_slot,
            frame.expected_ret,
        );

        // 1. Cookie check (epilogue), on the conventional stack only.
        if cookie_slot != 0 {
            self.charge_check();
            self.charge_mem(cookie_slot, true);
            let got = self
                .mem
                .read_uint(cookie_slot, 8)
                .map_err(|_| Trap::Cookie)?;
            if got != self.image.cookie {
                return Err(Trap::Cookie);
            }
        }

        // 2. Load the return address from its memory slot. This is the
        // value an overflow may have corrupted (unless on safe stack).
        self.charge_mem(slot, !desc.safestack);
        let loaded = self
            .mem
            .read_uint(slot, 8)
            .map_err(|_| Trap::Unmapped { addr: slot })?;

        // 2½. PAC epilogue (`autiasp`): authenticate the reloaded word
        // before any use. A raw overwrite (classic hijack) or a sealed
        // word replayed from another slot under `-fpac-tight` fails
        // here with `Trap::Pac`.
        let loaded = if self.pac_active() && !desc.safestack {
            self.charge_pac_auth();
            self.pac_auth_val(loaded, self.pac_ctx(slot))?
        } else {
            loaded
        };

        // 3. Shadow-stack comparison.
        if desc.shadow_stack {
            self.charge_check();
            let top = self.run.shadow_stack.pop().unwrap_or(0);
            if top != loaded {
                return Err(Trap::ShadowStack {
                    expected: top,
                    got: loaded,
                });
            }
        }

        // 4. Coarse CFI return policy: target must be *some* return site.
        if desc.ret_cfi {
            self.charge_check();
            if loaded != MAIN_RET_SENTINEL && !self.image.ret_sites.contains_key(&loaded) {
                return Err(Trap::Cfi { addr: loaded });
            }
        }

        // 5. Resolve the transfer.
        if loaded == MAIN_RET_SENTINEL && expected == MAIN_RET_SENTINEL {
            // Clean exit from main.
            let code = value.map(|v| v.raw as i64).unwrap_or(0);
            self.pop_frame();
            return Ok(Some(ExitStatus::Exited(code)));
        }
        match self.resolve_transfer(loaded, TransferKind::Ret { expected })? {
            ResolvedTarget::ReturnTo => {
                let caller_dest = self.frame().caller_dest;
                self.pop_frame();
                if let (Some(dest), Some(v)) = (caller_dest, value) {
                    self.set_reg(dest, v);
                }
                Ok(None)
            }
            ResolvedTarget::Function(_) => unreachable!("rets never resolve to calls"),
        }
    }

    fn pop_frame(&mut self) {
        // Profiler seam: all return-sequence charges (cookie check,
        // return-slot load, CFI) have landed, so they attribute to the
        // exiting callee. Covers returns, longjmp unwinds and the clean
        // exit from `main` alike.
        self.probe_exit();
        let frame = self.run.frames.pop().expect("frame");
        self.recycle_vec(frame.regs);
        self.run.sp = frame.saved_sp;
        self.run.unsafe_sp = frame.saved_unsafe_sp;
        self.run.safe_sp = frame.saved_safe_sp;
        // Invalidate setjmp contexts belonging to the popped frame.
        if !self.run.setjmp_ctxs.is_empty() {
            let depth = self.run.frames.len();
            self.run
                .setjmp_ctxs
                .retain(|_, ctx| ctx.frame_depth <= depth);
        }
    }

    /// Returns a spent value vector (argument list, register file) to
    /// the pool for reuse by the next call.
    #[inline]
    pub(crate) fn recycle_vec(&mut self, mut v: Vec<V>) {
        if v.capacity() > 0 && self.reg_pool.len() < 64 {
            v.clear();
            self.reg_pool.push(v);
        }
    }

    /// Takes an empty value vector from the pool (or a fresh one) for
    /// building an argument list.
    #[inline]
    pub(crate) fn take_vec(&mut self) -> Vec<V> {
        self.reg_pool.pop().unwrap_or_default()
    }

    /// Resolves an indirect control transfer to `addr`.
    ///
    /// Order matters and mirrors real hardware + deployed defenses:
    /// 1. If the target is not executable (writable data) and NX is on →
    ///    [`Trap::Nx`]. With NX off, injected shellcode *runs* if it is
    ///    an attack goal.
    /// 2. If the target is a registered attack goal → the attacker wins:
    ///    [`Trap::Hijacked`].
    /// 3. Otherwise the target must be legitimate for the transfer kind,
    ///    or the program crashes.
    pub(crate) fn resolve_transfer(
        &mut self,
        addr: u64,
        kind: TransferKind,
    ) -> Result<ResolvedTarget, Trap> {
        let executable = self.layout.in_code(addr);
        if !executable {
            if self.config.nx {
                return Err(Trap::Nx { addr });
            }
            if let Some(goal) = self.goals.get(&addr) {
                return Err(Trap::Hijacked { goal: *goal, addr });
            }
            return Err(Trap::BadControl { addr });
        }
        if let Some(goal) = self.goals.get(&addr) {
            return Err(Trap::Hijacked { goal: *goal, addr });
        }
        match kind {
            TransferKind::Call => match self.image.entry_to_func.get(&addr) {
                Some(f) => Ok(ResolvedTarget::Function(*f)),
                None => Err(Trap::BadControl { addr }),
            },
            TransferKind::Ret { expected } => {
                if addr == expected {
                    Ok(ResolvedTarget::ReturnTo)
                } else {
                    // Divergent return to a non-goal address: the ROP
                    // chain fizzles — a crash, not a compromise.
                    Err(Trap::BadControl { addr })
                }
            }
            TransferKind::Longjmp => Err(Trap::BadControl { addr }),
        }
    }

    /// Resolves an indirect call target, including CFI and goal
    /// semantics, down to a callee the caller can push a frame for.
    /// Argument evaluation stays with the caller so the register file
    /// can be filled directly once the callee (and its frame
    /// descriptor) is known.
    pub(crate) fn resolve_indirect(
        &mut self,
        target: u64,
        sig: &FnSig,
        cfi: Option<CfiPolicy>,
        nargs: usize,
    ) -> Result<FuncId, Trap> {
        // CFI check first (it is inline in the code, before the call).
        if let Some(policy) = cfi {
            self.charge_check();
            if !self.cfi_allows(policy, target, sig) {
                return Err(Trap::Cfi { addr: target });
            }
        }
        match self.resolve_transfer(target, TransferKind::Call)? {
            ResolvedTarget::Function(f) => {
                // Signature mismatch at runtime is a crash in practice
                // (wrong arity smashes the register file); we surface it
                // as BadControl unless arities happen to agree.
                if self.image.frame_descs[f.0 as usize].n_params as usize != nargs {
                    return Err(Trap::BadControl { addr: target });
                }
                Ok(f)
            }
            ResolvedTarget::ReturnTo => unreachable!("calls never resolve to returns"),
        }
    }

    /// Does `policy` admit `target` for an indirect call of signature
    /// `sig`? (The static valid-target sets of §6's CFI row.)
    pub(crate) fn cfi_allows(&self, policy: CfiPolicy, target: u64, sig: &FnSig) -> bool {
        let Some(fid) = self.image.entry_to_func.get(&target) else {
            return false;
        };
        let f = self.image.module.func(*fid);
        match policy {
            CfiPolicy::AnyFunction => true,
            CfiPolicy::AddressTaken => f.address_taken,
            CfiPolicy::TypeSignature => {
                f.address_taken && self.image.sig_hashes[fid.0 as usize] == sig.type_hash()
            }
        }
    }

    // ---- setjmp / longjmp --------------------------------------------------

    /// `setjmp(buf)`: saves a context and writes the jmp_buf image.
    ///
    /// The buffer's first word is a code pointer (the setjmp token);
    /// under CPI/CPS instrumentation the runtime stores it through the
    /// safe pointer store (§4: jmp_buf is sensitive), otherwise it sits
    /// in regular memory where attacks can overwrite it.
    pub(crate) fn do_setjmp(&mut self, buf: V, dest: Option<ValueId>) -> Result<(), Trap> {
        let frame = self.run.frames.last().expect("frame");
        let token = {
            // A unique token per dynamic setjmp: a code-segment address
            // derived from the site, outside function entries.
            let base = self.image.func_addrs[frame.func.0 as usize];
            base + 0x800 + (self.run.setjmp_ctxs.len() as u64 % 64) * 8
        };
        let ctx = SetjmpCtx {
            frame_depth: self.run.frames.len(),
            block: frame.block,
            ip: frame.ip, // ip already advanced past the setjmp call
            dest,
            saved_sp: self.run.sp,
            saved_unsafe_sp: self.run.unsafe_sp,
            saved_safe_sp: self.run.safe_sp,
        };
        self.run.setjmp_ctxs.insert(token, ctx);
        // jmp_buf image: [token][sp][unsafe_sp] — 24 bytes.
        if self.config.protect_runtime_code_ptrs {
            // The slot carries the interned code provenance of the
            // token, like any other sensitive pointer.
            let meta = self.meta.intern(levee_rt::Entry::code(token));
            let t = self.store.set(buf.raw, levee_rt::Slot::new(token, meta));
            self.charge_store_touches(t);
        } else {
            // Under PAC the jmp_buf's code pointer is sealed in place,
            // bound to the buffer slot under `-fpac-tight` — jmp_buf
            // smashing then fails authentication in `do_longjmp`.
            let word = if self.pac_active() {
                self.charge_pac_sign();
                self.pac_seal(token, self.pac_ctx(buf.raw))
            } else {
                token
            };
            self.prog_write(buf.raw, word, 8, MemSpace::Regular)?;
        }
        self.prog_write(buf.raw + 8, self.run.sp, 8, MemSpace::Regular)?;
        self.prog_write(buf.raw + 16, self.run.unsafe_sp, 8, MemSpace::Regular)?;
        if let Some(d) = dest {
            self.set_reg(d, V::int(0));
        }
        Ok(())
    }

    /// `longjmp(buf, val)`: restores a saved context.
    pub(crate) fn do_longjmp(&mut self, buf: V, val: V) -> Result<(), Trap> {
        let token = if self.config.protect_runtime_code_ptrs {
            let (slot, t) = self.store.get(buf.raw);
            self.charge_store_touches(t);
            // The loaded slot must still carry live code provenance for
            // its word (the §3.3 exact-match rule, off the handle).
            let code = slot.and_then(|s| {
                self.meta
                    .get(s.meta)
                    .is_some_and(|p| p.authorizes_code(s.word))
                    .then_some(s.word)
            });
            match code {
                Some(token) => token,
                // No (or corrupted) safe-store slot: deterministic abort.
                None => {
                    return Err(Trap::Cpi {
                        kind: crate::trap::CpiViolationKind::NotACodePointer,
                        addr: buf.raw,
                    })
                }
            }
        } else {
            let word = self.prog_read(buf.raw, 8, MemSpace::Regular)?;
            if self.pac_active() {
                self.charge_pac_auth();
                self.pac_auth_val(word, self.pac_ctx(buf.raw))?
            } else {
                word
            }
        };
        let ctx = match self.run.setjmp_ctxs.get(&token) {
            Some(c) => *c,
            None => {
                // The token is attacker-controlled data here: resolve it
                // like any hijacked transfer.
                return match self.resolve_transfer(token, TransferKind::Longjmp) {
                    Ok(_) => unreachable!("longjmp targets never resolve"),
                    Err(t) => Err(t),
                };
            }
        };
        if ctx.frame_depth > self.run.frames.len() {
            return Err(Trap::BadControl { addr: token });
        }
        // Unwind.
        while self.run.frames.len() > ctx.frame_depth {
            self.pop_frame();
        }
        self.run.sp = ctx.saved_sp;
        self.run.unsafe_sp = ctx.saved_unsafe_sp;
        self.run.safe_sp = ctx.saved_safe_sp;
        let frame = self.run.frames.last_mut().expect("setjmp frame");
        frame.block = ctx.block;
        frame.ip = ctx.ip;
        if let Some(d) = ctx.dest {
            let v = if val.raw == 0 { 1 } else { val.raw };
            self.set_reg(d, V::int(v));
        }
        Ok(())
    }

    pub(crate) fn check_stack_space(&self) -> Result<(), Trap> {
        if self.run.sp < self.layout.stack_top - layout::STACK_LIMIT + 4096 {
            return Err(Trap::StackOverflow);
        }
        if self.run.unsafe_sp < self.layout.unsafe_stack_top - layout::UNSAFE_STACK_LIMIT + 4096 {
            return Err(Trap::StackOverflow);
        }
        Ok(())
    }
}

/// Outcome of [`Machine::resolve_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedTarget {
    /// A legitimate function to call.
    Function(FuncId),
    /// A legitimate return to the expected site.
    ReturnTo,
}
