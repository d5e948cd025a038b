//! The fast-dispatch engine: a decoder of `levee-bc` bytecode over the
//! op handlers.
//!
//! Each op's semantics — memory touches, checks, cycle charges, probe
//! hooks — live once, in the handlers of `ops.rs` and `cpi.rs`, which
//! the step walker (`exec.rs`) calls too. This loop only decodes words,
//! writes registers, moves `pc` and charges the per-instruction base
//! cost and fuel. Two runs of one module under the two engines therefore
//! produce identical traps, output and cycle counts. The walker
//! differential (`tests/engines.rs`, `tests/diff_fuzz.rs`) checks
//! compilation, fusion and decoding; the exact `bench_drift` baselines
//! pin the handlers' semantics. The speed comes from decoding: blocks
//! are flat, jumps are pre-resolved word offsets, operands are direct
//! register slots or constant-pool loads, and type sizes were computed
//! at compile time.
//!
//! A superinstruction (emitted by `levee_bc::fuse`) runs its two
//! constituents' handlers with `fuel_step!()` between them, standing in
//! for the second constituent's dispatch: instruction counts, cycle
//! totals, trap points (out-of-fuel between the halves included) and
//! touch sequences equal the unfused pair's.
//!
//! Three pieces of state are cached in locals across instructions and
//! synchronized at the points where other components can observe them:
//!
//! * `pc` mirrors `Frame::ip` (which, under this engine, holds the word
//!   offset into the function's code stream; `Frame::block` is unused).
//!   It is written back before calls (the resume point) and intrinsics
//!   (`setjmp` captures it, `longjmp` rewrites it).
//! * `regs` is the current frame's register file, *moved* out of the
//!   frame (a pointer-sized `Vec` move) so operand reads skip the
//!   frame-stack indirection, and moved back before any operation that
//!   can touch frames: calls, returns, intrinsics. If a trap ends the
//!   run mid-instruction the dead frame keeps its empty register file —
//!   nothing reads registers after a run ends.
//! * The instruction count and the per-instruction base cycle charge
//!   accumulate in locals and are published to `stats` before every
//!   handler that observes counters (probe hooks, frame push/pop) and
//!   at every exit. Handlers charge `stats` directly, so totals at
//!   every observation point equal the walker's.

use std::sync::Arc;

use levee_bc::{BcModule, Op, OPERAND_CONST_BIT};
use levee_ir::prelude::*;

use crate::trap::{ExitStatus, Trap};

use super::ops::{cast, cmp, Callee};
use super::{exit_status, CheckSite, Machine, V};

/// Reads an operand word: a register slot or a constant-pool index.
///
/// # Safety
///
/// `word` must come from a stream produced by `levee_bc::compile`, whose
/// validator guarantees register words index inside the function's
/// register file (`regs.len()` equals the IR local count by frame
/// construction) and constant words index inside the pool.
#[inline(always)]
unsafe fn ev(regs: &[V], consts: &[u64], word: u32) -> V {
    if word & OPERAND_CONST_BIT == 0 {
        debug_assert!((word as usize) < regs.len());
        *regs.get_unchecked(word as usize)
    } else {
        let idx = (word & !OPERAND_CONST_BIT) as usize;
        debug_assert!(idx < consts.len());
        V::int(*consts.get_unchecked(idx))
    }
}

/// Decodes a call's `dest+1` word.
#[inline(always)]
fn dest_reg(word: u32) -> Option<ValueId> {
    (word != 0).then(|| ValueId(word - 1))
}

impl<'m> Machine<'m> {
    /// Compiles the module to bytecode — applying the superinstruction
    /// fusion pass when `VmConfig::fusion` is on — ahead of the first
    /// run. Runs lazily otherwise; benches call this explicitly to keep
    /// one-time compilation out of timed regions. The bytecode lives in
    /// the shared image, so it is compiled once for this machine and
    /// every fork of it. A no-op under [`crate::Engine::Walk`].
    pub fn precompile(&mut self) {
        if self.config.engine == crate::Engine::Bytecode {
            self.image.compiled();
        }
    }

    /// Runs the bytecode engine to completion, compiling on first use.
    pub(crate) fn run_bytecode(&mut self) -> ExitStatus {
        // A handle of its own, so the code stream can be borrowed while
        // `&mut self` methods run.
        let image = Arc::clone(&self.image);
        self.dispatch_loop(&image.compiled().bc)
    }

    fn dispatch_loop(&mut self, bc: &BcModule) -> ExitStatus {
        let mut fidx = self.frame().func.0 as usize;
        let mut pc = self.frame().ip;
        let mut code: &[u32] = &bc.funcs[fidx].code;
        let mut consts: &[u64] = &bc.funcs[fidx].consts;
        let mut regs: Vec<V> = std::mem::take(&mut self.frame_mut().regs);
        let cost_inst = self.config.cost.inst;
        let max_insts = self.config.max_insts;
        let mut insts_l = self.run.stats.insts;
        let mut cycles_l: u64 = 0;

        // Re-caches function state after any control transfer that may
        // have switched frames (call, return, longjmp).
        macro_rules! reload {
            () => {{
                let frame = self.run.frames.last_mut().expect("active frame");
                fidx = frame.func.0 as usize;
                pc = frame.ip;
                regs = std::mem::take(&mut frame.regs);
                code = &bc.funcs[fidx].code;
                consts = &bc.funcs[fidx].consts;
            }};
        }
        // Moves the register file back into its frame before an
        // operation that may read or write frames.
        macro_rules! sync_frame {
            () => {{
                let frame = self.run.frames.last_mut().expect("active frame");
                frame.ip = pc;
                frame.regs = regs;
            }};
        }
        // Unchecked stream/register accessors. SAFETY: the stream was
        // produced and validated by `levee_bc::compile` (see its
        // `validate` pass): `pc` only ever holds instruction-boundary
        // offsets (entry 0, post-call resume points, validated branch
        // targets), every instruction fits the stream, register words
        // index inside the frame's register file and constant words
        // inside the pool. Debug builds keep the assertions.
        macro_rules! w {
            ($i:expr) => {{
                debug_assert!(pc + $i < code.len());
                unsafe { *code.get_unchecked(pc + $i) }
            }};
        }
        macro_rules! rd {
            ($word:expr) => {{
                let word = $word;
                unsafe { ev(&regs, consts, word) }
            }};
        }
        macro_rules! cst {
            ($word:expr) => {{
                let i = $word as usize;
                debug_assert!(i < consts.len());
                unsafe { *consts.get_unchecked(i) }
            }};
        }
        macro_rules! wr {
            ($dest:expr, $v:expr) => {{
                let (d, v) = ($dest as usize, $v);
                debug_assert!(d < regs.len());
                unsafe { *regs.get_unchecked_mut(d) = v };
            }};
        }
        // Publishes the locally-accumulated counters. (The reset is
        // dead when a flush directly precedes a return; the lint can't
        // see that only some expansions exit.)
        macro_rules! flush {
            () => {{
                self.run.stats.insts = insts_l;
                self.run.stats.cycles += cycles_l;
                #[allow(unused_assignments)]
                {
                    cycles_l = 0;
                }
            }};
        }
        // The per-instruction base charge + fuel check of `step()`.
        // Superinstruction arms invoke it once more between their two
        // constituents, so instruction counts, cycle totals and the
        // exact out-of-fuel cutoff point are identical to executing the
        // pair unfused (first constituent's effects land, second's
        // don't — just as the walker traps between two steps).
        macro_rules! fuel_step {
            () => {{
                insts_l += 1;
                cycles_l += cost_inst;
                if insts_l > max_insts {
                    flush!();
                    return ExitStatus::Trapped(Trap::OutOfFuel);
                }
            }};
        }
        // Unwraps a handler's result; a trap publishes the counters and
        // ends the run, exactly like `run_loop`.
        macro_rules! tri {
            ($e:expr) => {{
                match $e {
                    Ok(v) => v,
                    Err(trap) => {
                        flush!();
                        return exit_status(trap);
                    }
                }
            }};
        }
        // `tri!` for handlers that observe counters: publish first.
        macro_rules! bail {
            ($e:expr) => {{
                flush!();
                tri!($e)
            }};
        }
        // The tail of every call-shaped arm: `$n` is the offset of the
        // `nargs` word, the argument words follow it. Moves the register
        // file back into the caller's frame (whose resume point is past
        // the arguments), lets the call handler fill the callee's file
        // from those words and push its frame, then switches to it.
        macro_rules! call {
            ($callee:expr, dest: $d:expr, site: $s:expr, nargs: $n:expr) => {{
                let callee = $callee;
                let (dest, nargs) = (dest_reg(w!($d)), w!($n) as usize);
                let ret_addr = self.image.ret_site(fidx as u32, w!($s));
                let args = pc + $n + 1;
                pc = args + nargs;
                sync_frame!();
                bail!(self.op_call(callee, ret_addr, dest, nargs, |m, out| {
                    debug_assert!(pc <= code.len());
                    // SAFETY: the validated call instruction holds `nargs`
                    // operand words after its `nargs` word, and they index
                    // the caller's register file — still the top frame's,
                    // as the handler fills before pushing — or the pool.
                    let words = unsafe { code.get_unchecked(args..pc) };
                    let caller = &m.frame().regs;
                    out.extend(words.iter().map(|&w| unsafe { ev(caller, consts, w) }));
                }));
                reload!();
            }};
        }
        // An indirect callee: the raw target word plus the site's tabled
        // signature and CFI annotation.
        macro_rules! indirect {
            ($target:expr, $sig:expr) => {{
                let entry = &bc.sigs[$sig as usize];
                Callee::Indirect {
                    target: $target,
                    sig: &entry.sig,
                    cfi: entry.cfi,
                }
            }};
        }

        loop {
            let op = Op::from_u32(w!(0));
            // Profiler dispatch seam: close the previous op's cycle
            // window at the current total (flushed + local) and open
            // this one's. Observation only — decoding the opcode before
            // the fuel check is semantically inert (the word is
            // re-matched below either way).
            if self.probe.is_some() {
                let now = self.run.stats.cycles + cycles_l;
                if let Some(p) = self.probe.as_deref_mut() {
                    p.dispatch(op as usize, now);
                }
            }
            // Per-instruction base charge + fuel, as in `step()`.
            fuel_step!();

            match op {
                Op::Alloca => {
                    let v = tri!(self.op_alloca(cst!(w!(2)), levee_bc::decode_stack(w!(3))));
                    wr!(w!(1), v);
                    pc += 4;
                }
                Op::Load => {
                    let space = levee_bc::decode_space(w!(4));
                    let v = tri!(self.op_load(rd!(w!(2)).raw, w!(3) as u64, space));
                    wr!(w!(1), v);
                    pc += 5;
                }
                Op::Store => {
                    let space = levee_bc::decode_space(w!(4));
                    tri!(self.op_store(rd!(w!(1)).raw, rd!(w!(2)), w!(3) as u64, space));
                    pc += 5;
                }
                Op::Gep => {
                    let (b, i) = (rd!(w!(2)), rd!(w!(3)).raw);
                    let v = self.op_gep(b, i, cst!(w!(4)), cst!(w!(5)), w!(6) != 0);
                    wr!(w!(1), v);
                    pc += 7;
                }
                Op::GlobalAddr => {
                    wr!(w!(1), self.op_global_addr(w!(2) as usize));
                    pc += 3;
                }
                Op::FuncAddr => {
                    wr!(w!(1), self.op_func_addr(w!(2) as usize));
                    pc += 3;
                }
                Op::Bin => {
                    let op = levee_bc::decode_binop(w!(2));
                    let v = tri!(self.op_bin(op, rd!(w!(3)), rd!(w!(4))));
                    wr!(w!(1), v);
                    pc += 5;
                }
                Op::Cmp => {
                    let r = cmp(
                        levee_bc::decode_cmpop(w!(2)),
                        rd!(w!(3)).raw,
                        rd!(w!(4)).raw,
                    );
                    wr!(w!(1), V::int(r as u64));
                    pc += 5;
                }
                Op::Cast => {
                    let v = cast(levee_bc::decode_cast(w!(2)), rd!(w!(3)), w!(4) as u64);
                    wr!(w!(1), v);
                    pc += 5;
                }
                Op::Call => call!(Callee::Direct(FuncId(w!(2))), dest: 1, site: 3, nargs: 4),
                Op::CallIndirect => {
                    call!(indirect!(rd!(w!(2)).raw, w!(3)), dest: 1, site: 4, nargs: 5)
                }
                Op::IntrinsicCall => {
                    let dest = dest_reg(w!(1));
                    let which = levee_bc::decode_intrinsic(w!(2));
                    let nargs = w!(3) as usize;
                    let mut argv = self.take_vec();
                    argv.extend((0..nargs).map(|i| rd!(w!(4 + i))));
                    pc += 4 + nargs;
                    // Sync the resume point: setjmp captures it, longjmp
                    // rewrites it, and the intrinsic may write dest.
                    sync_frame!();
                    bail!(self.exec_intrinsic(which, argv, dest));
                    reload!();
                }
                Op::PtrStore => {
                    let policy = levee_bc::decode_policy(w!(1));
                    let (addr, v) = (rd!(w!(2)).raw, rd!(w!(3)));
                    bail!(self.op_ptr_store(policy, addr, v, w!(4) != 0));
                    pc += 5;
                }
                Op::PtrLoad => {
                    let policy = levee_bc::decode_policy(w!(1));
                    let v = bail!(self.op_ptr_load(policy, rd!(w!(3)).raw));
                    wr!(w!(2), v);
                    pc += 5;
                }
                Op::Check => {
                    let policy = levee_bc::decode_policy(w!(1));
                    let site = CheckSite::Bc(fidx as u32, pc as u32);
                    bail!(self.op_check(rd!(w!(2)), cst!(w!(3)), policy, site));
                    pc += 4;
                }
                Op::FnCheck => {
                    let policy = levee_bc::decode_policy(w!(1));
                    let site = CheckSite::Bc(fidx as u32, pc as u32);
                    bail!(self.op_fncheck(rd!(w!(2)), policy, site));
                    pc += 3;
                }
                Op::SafeMemcpy => {
                    let (d, s, n) = (rd!(w!(2)).raw, rd!(w!(3)).raw, rd!(w!(4)).raw);
                    bail!(self.op_safe_memcpy(d, s, n));
                    pc += 6;
                }
                Op::SafeMemset => {
                    let (d, b, n) = (rd!(w!(2)).raw, rd!(w!(3)).raw, rd!(w!(4)).raw);
                    bail!(self.op_safe_memset(d, b as u8, n));
                    pc += 5;
                }
                Op::PacSign => {
                    let v = self.op_pac_sign(rd!(w!(2)), rd!(w!(3)).raw);
                    wr!(w!(1), v);
                    pc += 4;
                }
                Op::PacAuth => {
                    let v = tri!(self.op_pac_auth(rd!(w!(2)), rd!(w!(3)).raw));
                    wr!(w!(1), v);
                    pc += 4;
                }
                Op::Jump => {
                    pc = w!(1) as usize;
                }
                Op::Branch => {
                    let c = rd!(w!(1)).raw;
                    pc = if c != 0 { w!(2) } else { w!(3) } as usize;
                }
                Op::Ret => {
                    let value = (w!(1) != 0).then(|| rd!(w!(2)));
                    flush!();
                    // The returning frame is popped by do_return with
                    // an empty (taken) register file; recycle the real
                    // buffer so the pool keeps serving future calls.
                    // The caller's file is intact inside its frame and
                    // re-taken below.
                    let spent = std::mem::take(&mut regs);
                    self.recycle_vec(spent);
                    if let Some(exit) = tri!(self.do_return(value)) {
                        return exit;
                    }
                    reload!();
                }
                Op::Unreachable => {
                    flush!();
                    return ExitStatus::Trapped(Trap::Unreachable);
                }
                // ---- superinstructions: constituent, fuel, constituent ----
                Op::CmpBr => {
                    let r = cmp(
                        levee_bc::decode_cmpop(w!(2)),
                        rd!(w!(3)).raw,
                        rd!(w!(4)).raw,
                    );
                    wr!(w!(1), V::int(r as u64));
                    fuel_step!();
                    pc = if r { w!(5) } else { w!(6) } as usize;
                }
                Op::GepLoad => {
                    let (b, i) = (rd!(w!(2)), rd!(w!(3)).raw);
                    let g = self.op_gep(b, i, cst!(w!(4)), cst!(w!(5)), w!(6) != 0);
                    wr!(w!(1), g);
                    fuel_step!();
                    let space = levee_bc::decode_space(w!(9));
                    let v = tri!(self.op_load(g.raw, w!(8) as u64, space));
                    wr!(w!(7), v);
                    pc += 10;
                }
                Op::GepStore => {
                    let (b, i) = (rd!(w!(2)), rd!(w!(3)).raw);
                    let g = self.op_gep(b, i, cst!(w!(4)), cst!(w!(5)), w!(6) != 0);
                    wr!(w!(1), g);
                    fuel_step!();
                    // Value read after the gep dest write, exactly like
                    // the unfused store (the value may *be* that register).
                    let space = levee_bc::decode_space(w!(9));
                    tri!(self.op_store(g.raw, rd!(w!(7)), w!(8) as u64, space));
                    pc += 10;
                }
                Op::CheckLoad => {
                    let (policy, p) = (levee_bc::decode_policy(w!(1)), rd!(w!(2)));
                    let site = CheckSite::Bc(fidx as u32, pc as u32);
                    bail!(self.op_check(p, cst!(w!(3)), policy, site));
                    fuel_step!();
                    let space = levee_bc::decode_space(w!(6));
                    let v = tri!(self.op_load(p.raw, w!(5) as u64, space));
                    wr!(w!(4), v);
                    pc += 7;
                }
                Op::CheckPtrLoad => {
                    let (policy, p) = (levee_bc::decode_policy(w!(1)), rd!(w!(2)));
                    let site = CheckSite::Bc(fidx as u32, pc as u32);
                    bail!(self.op_check(p, cst!(w!(3)), policy, site));
                    fuel_step!();
                    let v = bail!(self.op_ptr_load(policy, p.raw));
                    wr!(w!(4), v);
                    pc += 6;
                }
                Op::CheckedCall => {
                    let (policy, callee) = (levee_bc::decode_policy(w!(1)), rd!(w!(3)));
                    let site = CheckSite::Bc(fidx as u32, pc as u32);
                    bail!(self.op_fncheck(callee, policy, site));
                    fuel_step!();
                    call!(indirect!(callee.raw, w!(4)), dest: 2, site: 5, nargs: 6)
                }
                Op::AuthCall => {
                    // PacAuth constituent: authenticate the sealed
                    // callee and land the raw pointer in the auth dest
                    // register (the call's callee operand, per the
                    // fusion condition) — the software analogue of
                    // ARMv8.3's `blraa` — then call through it.
                    let callee = tri!(self.op_pac_auth(rd!(w!(2)), rd!(w!(3)).raw));
                    wr!(w!(1), callee);
                    fuel_step!();
                    call!(indirect!(callee.raw, w!(5)), dest: 4, site: 6, nargs: 7)
                }
            }
        }
    }
}
