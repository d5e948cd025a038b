//! `levee-probe` — the host-side execution profiler and structured
//! tracer behind [`crate::VmConfig::profile`].
//!
//! The paper's whole evaluation is *attribution*: which functions,
//! which check sites and which memory classes pay the protection
//! overhead (Tables 2–3, §5.2). This module turns a run's aggregate
//! [`crate::ExecStats`] into that shape:
//!
//! * **per-opcode** dispatch counts and cycle attribution (the six
//!   fused superinstructions included, so fusion coverage is
//!   measurable at runtime, not just in `levee_bc::FuseStats` plans),
//! * **per-function** inclusive/exclusive cycle + instruction + check
//!   attribution, driven off the `push_frame`/`pop_frame` seam shared
//!   by both engines,
//! * **per-CPI-check-site** hit/miss counters, keyed by the machine
//!   image's deterministic per-function numbering of the
//!   instrumentation's `Check`/`FnCheck` ops (identical between the
//!   step walker and the — possibly fused — bytecode stream, because
//!   compilation and fusion both preserve program order).
//!
//! The non-negotiable invariant: the profiler is *observation only*.
//! Every hook reads machine state (`stats`, frame identity) and writes
//! exclusively into the (crate-private) `Profiler`'s own buffers —
//! never into the cost
//! model, the cache, the store or the provenance table — so a run with
//! profiling on is bit-identical in simulated cycles, instructions,
//! traps and touch sequences to the same run with profiling off. The
//! `diff_fuzz` and `engines` differential suites enforce this
//! counter-for-counter.

use std::collections::HashMap;

use levee_bc::Op;
use levee_ir::prelude::*;

use crate::machine::{CheckSite, Image};
use crate::stats::ExecStats;

/// Number of bytecode opcodes (`levee_bc::Op` discriminants `0..31`).
pub const N_OPS: usize = 31;

/// Pseudo-opcode slot attributing the cycles charged before the first
/// dispatch (loading `main`'s frame: call cost, return-slot write…).
const STARTUP_SLOT: usize = N_OPS;

// ---------------------------------------------------------------------------
// The profiler
// ---------------------------------------------------------------------------

/// One live frame on the profiler's shadow stack.
#[derive(Debug, Clone, Copy)]
struct ProbeFrame {
    func: u32,
    entry_cycles: u64,
    entry_insts: u64,
    entry_checks: u64,
    /// Inclusive totals of direct callees, accumulated as they return
    /// (inclusive − children = exclusive).
    child_cycles: u64,
    child_insts: u64,
    child_checks: u64,
}

/// Per-function accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct FuncAcc {
    calls: u64,
    incl_cycles: u64,
    excl_cycles: u64,
    incl_insts: u64,
    excl_insts: u64,
    incl_checks: u64,
    excl_checks: u64,
    /// Live occurrences on the shadow stack (recursion guard: inclusive
    /// totals count only the outermost occurrence).
    active: u32,
}

/// The execution profiler: host-side observation state attached to a
/// machine when [`crate::VmConfig::profile`] is on.
///
/// All methods are cheap bookkeeping on the profiler's own buffers;
/// none touches the simulated cost model (see the module docs for the
/// neutrality argument).
#[derive(Debug, Clone)]
pub(crate) struct Profiler {
    op_counts: [u64; N_OPS + 1],
    op_cycles: [u64; N_OPS + 1],
    /// The op currently executing and the cycle count at its dispatch;
    /// closed (its cycle delta attributed) by the next dispatch.
    pending: Option<(usize, u64)>,
    funcs: Vec<FuncAcc>,
    stack: Vec<ProbeFrame>,
    /// `(func, site) → (attempts, passes)`.
    site_hits: HashMap<(u32, u32), (u64, u64)>,
}

impl Profiler {
    /// Builds a profiler for a module of `funcs` functions.
    pub(crate) fn new(funcs: usize) -> Self {
        Profiler {
            op_counts: [0; N_OPS + 1],
            op_cycles: [0; N_OPS + 1],
            pending: None,
            funcs: vec![FuncAcc::default(); funcs],
            stack: Vec::new(),
            site_hits: HashMap::new(),
        }
    }

    fn close_pending(&mut self, now: u64) {
        if let Some((op, start)) = self.pending.take() {
            self.op_cycles[op] += now.saturating_sub(start);
        }
    }

    /// Marks the start of a run: cycles charged before the first
    /// dispatch (entering `main`) accrue to the startup pseudo-op, so
    /// per-op cycle totals sum exactly to the run's final cycle count.
    pub(crate) fn begin_run(&mut self, now: u64) {
        self.op_counts[STARTUP_SLOT] += 1;
        self.pending = Some((STARTUP_SLOT, now));
    }

    /// One dispatch: closes the previous op's cycle window at `now` and
    /// opens this one's. `op` is the `levee_bc::Op` discriminant (the
    /// walker maps IR instructions onto the same space).
    #[inline]
    pub(crate) fn dispatch(&mut self, op: usize, now: u64) {
        self.close_pending(now);
        self.op_counts[op] += 1;
        self.pending = Some((op, now));
    }

    /// A frame was pushed for `func` (hooked at the end of
    /// `push_frame`, so call-setup cost stays with the caller).
    pub(crate) fn enter(&mut self, func: u32, cycles: u64, insts: u64, checks: u64) {
        self.funcs[func as usize].calls += 1;
        self.funcs[func as usize].active += 1;
        self.stack.push(ProbeFrame {
            func,
            entry_cycles: cycles,
            entry_insts: insts,
            entry_checks: checks,
            child_cycles: 0,
            child_insts: 0,
            child_checks: 0,
        });
    }

    /// A frame was popped (hooked in `pop_frame`, which covers returns,
    /// longjmp unwinds and the clean exit from `main`; return-sequence
    /// cost therefore stays with the callee).
    pub(crate) fn exit(&mut self, cycles: u64, insts: u64, checks: u64) {
        let Some(fr) = self.stack.pop() else {
            return;
        };
        let incl_c = cycles.saturating_sub(fr.entry_cycles);
        let incl_i = insts.saturating_sub(fr.entry_insts);
        let incl_k = checks.saturating_sub(fr.entry_checks);
        let acc = &mut self.funcs[fr.func as usize];
        if acc.active == 1 {
            // Outermost occurrence: recursion contributes inclusive
            // time exactly once.
            acc.incl_cycles += incl_c;
            acc.incl_insts += incl_i;
            acc.incl_checks += incl_k;
        }
        acc.active -= 1;
        acc.excl_cycles += incl_c.saturating_sub(fr.child_cycles);
        acc.excl_insts += incl_i.saturating_sub(fr.child_insts);
        acc.excl_checks += incl_k.saturating_sub(fr.child_checks);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += incl_c;
            parent.child_insts += incl_i;
            parent.child_checks += incl_k;
        }
    }

    /// Ends the run: closes the pending op at the final cycle count and
    /// force-exits frames that never returned (trap unwind), so every
    /// call has a matching return and attribution sums telescope.
    pub(crate) fn end_run(&mut self, cycles: u64, insts: u64, checks: u64) {
        self.close_pending(cycles);
        while !self.stack.is_empty() {
            self.exit(cycles, insts, checks);
        }
    }

    /// A CPI check at `site` was attempted (`passed` false: a check is
    /// counted when it starts) or passed; `image` numbers the site.
    pub(crate) fn check(&mut self, image: &Image, site: CheckSite, passed: bool) {
        let Some(site) = image.check_site(site) else {
            return;
        };
        let hits = self.site_hits.entry(site).or_default();
        if passed {
            hits.1 += 1;
        } else {
            hits.0 += 1;
        }
    }

    /// Snapshots the accumulated attribution into a serializable
    /// report, resolving function names through `module`.
    pub(crate) fn report(&self, module: &Module, stats: &ExecStats) -> ProfileReport {
        let mut ops: Vec<OpProfile> = (0..=N_OPS)
            .filter(|&i| self.op_counts[i] > 0 || self.op_cycles[i] > 0)
            .map(|i| OpProfile {
                name: if i == STARTUP_SLOT {
                    "(startup)".to_string()
                } else {
                    format!("{:?}", Op::from_u32(i as u32))
                },
                count: self.op_counts[i],
                cycles: self.op_cycles[i],
            })
            .collect();
        ops.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.name.cmp(&b.name)));

        let func_names: Vec<String> = module.iter_funcs().map(|(_, f)| f.name.clone()).collect();
        let mut funcs: Vec<FuncProfile> = self
            .funcs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.calls > 0)
            .map(|(i, a)| FuncProfile {
                name: func_names[i].clone(),
                calls: a.calls,
                incl_cycles: a.incl_cycles,
                excl_cycles: a.excl_cycles,
                incl_insts: a.incl_insts,
                excl_insts: a.excl_insts,
                incl_checks: a.incl_checks,
                excl_checks: a.excl_checks,
            })
            .collect();
        funcs.sort_by(|a, b| b.incl_cycles.cmp(&a.incl_cycles).then(a.name.cmp(&b.name)));

        let mut check_sites: Vec<CheckSiteProfile> = self
            .site_hits
            .iter()
            .map(|(&(func, site), &(attempts, passes))| CheckSiteProfile {
                func: func_names
                    .get(func as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("f{func}")),
                site,
                attempts,
                passes,
            })
            .collect();
        check_sites.sort_by(|a, b| {
            b.attempts
                .cmp(&a.attempts)
                .then(a.func.cmp(&b.func))
                .then(a.site.cmp(&b.site))
        });

        ProfileReport {
            total_cycles: stats.cycles,
            total_insts: stats.insts,
            ops,
            funcs,
            check_sites,
        }
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Per-opcode attribution row (see [`ProfileReport::ops`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Opcode name (`levee_bc::Op` debug name, or `"(startup)"` for the
    /// pre-dispatch prologue pseudo-row).
    pub name: String,
    /// Dispatch count.
    pub count: u64,
    /// Cycles attributed to this opcode's dispatch windows.
    pub cycles: u64,
}

/// Per-function attribution row (see [`ProfileReport::funcs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncProfile {
    /// Function name.
    pub name: String,
    /// Frames pushed for this function.
    pub calls: u64,
    /// Cycles inside this function including its callees (recursion
    /// counted once, at the outermost occurrence).
    pub incl_cycles: u64,
    /// Cycles inside this function excluding its callees.
    pub excl_cycles: u64,
    /// Instructions, inclusive.
    pub incl_insts: u64,
    /// Instructions, exclusive.
    pub excl_insts: u64,
    /// Checks executed, inclusive.
    pub incl_checks: u64,
    /// Checks executed, exclusive.
    pub excl_checks: u64,
}

/// Per-CPI-check-site hit/miss counters (see
/// [`ProfileReport::check_sites`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSiteProfile {
    /// Enclosing function.
    pub func: String,
    /// Site index within the function (program order).
    pub site: u32,
    /// Times the check was reached.
    pub attempts: u64,
    /// Times it passed.
    pub passes: u64,
}

impl CheckSiteProfile {
    /// Failed attempts (at most one per run: a failed check traps).
    pub fn misses(&self) -> u64 {
        self.attempts - self.passes
    }
}

/// The profiling result of one run: per-opcode, per-function and
/// per-check-site attribution.
///
/// Obtained from `Machine::profile_report` (or
/// `levee_core::session::RunReport::profile` at the embedding layer;
/// see also [`crate::ExecStats`] for the whole-run aggregates these
/// tables decompose). The invariant the differential suites pin down:
/// [`ProfileReport::op_cycle_total`] equals [`crate::ExecStats::cycles`]
/// exactly — attribution is a partition of the run, not a sample.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Final cycle count of the run (equals the sum over
    /// [`ProfileReport::ops`]).
    pub total_cycles: u64,
    /// Final instruction count of the run.
    pub total_insts: u64,
    /// Per-opcode rows, sorted by cycles descending.
    pub ops: Vec<OpProfile>,
    /// Per-function rows, sorted by inclusive cycles descending.
    pub funcs: Vec<FuncProfile>,
    /// Per-check-site rows, sorted by attempts descending.
    pub check_sites: Vec<CheckSiteProfile>,
}

impl ProfileReport {
    /// Sum of per-opcode cycle attribution — equals
    /// [`ProfileReport::total_cycles`] exactly (enforced by the
    /// `engine_compare --profile` gate).
    pub fn op_cycle_total(&self) -> u64 {
        self.ops.iter().map(|o| o.cycles).sum()
    }

    /// Dispatch count of the named opcode (0 when it never ran).
    pub fn op_count(&self, name: &str) -> u64 {
        self.ops
            .iter()
            .find(|o| o.name == name)
            .map_or(0, |o| o.count)
    }

    /// Renders the attribution tables as one JSON object (hand-rolled,
    /// like every serializer in this codebase).
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|o| {
                format!(
                    "{{\"op\": {}, \"count\": {}, \"cycles\": {}}}",
                    json_str(&o.name),
                    o.count,
                    o.cycles
                )
            })
            .collect();
        let funcs: Vec<String> = self
            .funcs
            .iter()
            .map(|f| {
                format!(
                    "{{\"func\": {}, \"calls\": {}, \"incl_cycles\": {}, \
                     \"excl_cycles\": {}, \"incl_insts\": {}, \"excl_insts\": {}, \
                     \"incl_checks\": {}, \"excl_checks\": {}}}",
                    json_str(&f.name),
                    f.calls,
                    f.incl_cycles,
                    f.excl_cycles,
                    f.incl_insts,
                    f.excl_insts,
                    f.incl_checks,
                    f.excl_checks
                )
            })
            .collect();
        let sites: Vec<String> = self
            .check_sites
            .iter()
            .map(|s| {
                format!(
                    "{{\"func\": {}, \"site\": {}, \"attempts\": {}, \"passes\": {}, \
                     \"misses\": {}}}",
                    json_str(&s.func),
                    s.site,
                    s.attempts,
                    s.passes,
                    s.misses()
                )
            })
            .collect();
        format!(
            "{{\"total_cycles\": {}, \"total_insts\": {}, \
             \"ops\": [{}], \"funcs\": [{}], \"check_sites\": [{}]}}",
            self.total_cycles,
            self.total_insts,
            ops.join(", "),
            funcs.join(", "),
            sites.join(", ")
        )
    }
}

/// Escapes `s` as a JSON string literal (quotes included) — the escaper
/// behind [`ProfileReport::to_json`] and levee-core's
/// `RunReport::to_json`, public so bench binaries embedding free-form
/// text (trap names, `Debug` renderings) in their `--json` rows stay
/// well-formed.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_attribution_telescopes_to_the_final_cycle_count() {
        let module = Module::new("t");
        let mut p = Profiler::new(module.funcs.len());
        p.begin_run(0);
        p.dispatch(Op::Load as usize, 10); // startup window: 10 cycles
        p.dispatch(Op::Store as usize, 25); // Load window: 15
        p.end_run(40, 3, 0); // Store window: 15
        let stats = ExecStats {
            cycles: 40,
            insts: 3,
            ..Default::default()
        };
        let report = p.report(&module, &stats);
        assert_eq!(report.op_cycle_total(), 40);
        assert_eq!(report.op_count("Load"), 1);
        assert_eq!(report.op_count("Store"), 1);
        assert_eq!(report.op_count("(startup)"), 1);
    }

    #[test]
    fn function_attribution_splits_inclusive_and_exclusive() {
        let mut module = Module::new("t");
        let f = |name: &str| {
            let mut b = FuncBuilder::new(name, FnSig::new(vec![], Ty::Void));
            b.ret(None);
            b.finish()
        };
        module.add_func(f("outer"));
        module.add_func(f("inner"));
        let mut p = Profiler::new(module.funcs.len());
        p.begin_run(0);
        p.enter(0, 10, 1, 0); // outer at cycle 10
        p.enter(1, 30, 3, 0); // inner at cycle 30
        p.exit(70, 7, 0); // inner: incl 40
        p.exit(100, 10, 0); // outer: incl 90, excl 50
        p.end_run(100, 10, 0);
        let stats = ExecStats {
            cycles: 100,
            ..Default::default()
        };
        let r = p.report(&module, &stats);
        let outer = r.funcs.iter().find(|f| f.name == "outer").unwrap();
        let inner = r.funcs.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.incl_cycles, 90);
        assert_eq!(outer.excl_cycles, 50);
        assert_eq!(inner.incl_cycles, 40);
        assert_eq!(inner.excl_cycles, 40);
        assert_eq!(outer.calls, 1);
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        let mut module = Module::new("t");
        let mut b = FuncBuilder::new("rec", FnSig::new(vec![], Ty::Void));
        b.ret(None);
        module.add_func(b.finish());
        let mut p = Profiler::new(module.funcs.len());
        p.begin_run(0);
        p.enter(0, 0, 0, 0);
        p.enter(0, 10, 0, 0); // recursive call
        p.exit(20, 0, 0); // inner: incl 10 (not added: still active below)
        p.exit(30, 0, 0); // outer: incl 30
        p.end_run(30, 0, 0);
        let stats = ExecStats::default();
        let r = p.report(&module, &stats);
        let rec = &r.funcs[0];
        assert_eq!(rec.calls, 2);
        assert_eq!(rec.incl_cycles, 30, "recursion counted once, outermost");
        assert_eq!(rec.excl_cycles, 30, "all cycles are exclusive to rec");
    }

    #[test]
    fn trap_unwind_closes_open_frames() {
        let mut module = Module::new("t");
        let mut b = FuncBuilder::new("main", FnSig::new(vec![], Ty::Void));
        b.ret(None);
        module.add_func(b.finish());
        let mut p = Profiler::new(module.funcs.len());
        p.begin_run(0);
        p.enter(0, 5, 1, 0);
        p.end_run(50, 9, 2);
        let stats = ExecStats {
            cycles: 50,
            ..Default::default()
        };
        let r = p.report(&module, &stats);
        assert_eq!(r.funcs[0].incl_cycles, 45);
        assert_eq!(r.funcs[0].incl_insts, 8);
    }

    #[test]
    fn report_json_is_balanced() {
        let module = Module::new("t");
        let mut p = Profiler::new(module.funcs.len());
        p.begin_run(0);
        p.dispatch(Op::Check as usize, 4);
        p.end_run(10, 2, 1);
        let stats = ExecStats {
            cycles: 10,
            insts: 2,
            ..Default::default()
        };
        let r = p.report(&module, &stats);
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"total_cycles\": 10"));
    }
}
