//! Rendering of [`ProfileReport`] attribution tables for the bench
//! binaries' `--profile` mode.
//!
//! Every binary shares one presentation: a per-opcode table (dispatch
//! counts and cycles, with each row's share of the run), a
//! top-functions table (inclusive/exclusive cycles off the call-frame
//! seam) and, when the build carries CPI instrumentation, the hottest
//! check sites. The renderer also re-asserts the profiler's core
//! invariant — per-op cycles are a *partition* of the run, summing
//! exactly to `ExecStats::cycles` — so a bin printing a profile can
//! never print one that doesn't add up.

use levee_core::{BuildConfig, RunReport, Session};
use levee_vm::{FuseStats, ProfileReport, StoreKind};

use crate::Table;

/// The superinstruction patterns: (the profiler's op name, pairs the
/// fusion planner fused).
pub(crate) fn fused_pairs(stats: &FuseStats) -> [(&'static str, u64); 7] {
    [
        ("CmpBr", stats.cmp_br),
        ("GepLoad", stats.gep_load),
        ("GepStore", stats.gep_store),
        ("CheckLoad", stats.check_load),
        ("CheckPtrLoad", stats.check_ptr_load),
        ("CheckedCall", stats.checked_call),
        ("AuthCall", stats.auth_call),
    ]
}

/// The profile of `run`, a profiled run of a fused program whose
/// planner reported `fuse`, after asserting the profiler's two
/// invariants:
///
/// * per-opcode cycles sum *exactly* to the run's cycles (attribution is
///   a partition, not a sample);
/// * a superinstruction pattern dispatches iff the planner fused it. On
///   the lineup kernels every fused pattern sits in the driver loop, so
///   planned implies executed; a dispatch without a plan would mean the
///   stream was rewritten behind the planner's back.
pub fn checked_profile<'r>(label: &str, run: &'r RunReport, fuse: &FuseStats) -> &'r ProfileReport {
    let report = run.profile.as_ref().expect("profiler on");
    assert_eq!(
        report.op_cycle_total(),
        run.exec.cycles,
        "{label}: per-op cycles must partition the run"
    );
    for (op, planned) in fused_pairs(fuse) {
        let dispatched = report.op_count(op);
        assert_eq!(
            planned > 0,
            dispatched > 0,
            "{label}: the fusion planner reports {planned} {op} pairs but \
             the profiler counted {dispatched} dispatches"
        );
    }
    report
}

/// Renders `report` as the standard attribution tables, limiting the
/// function and check-site tables to `top` rows. Panics if the per-op
/// attribution does not sum exactly to the run's cycle total — that
/// would mean the profiler missed or double-counted a dispatch window.
pub fn render_profile(report: &ProfileReport, top: usize) -> String {
    assert_eq!(
        report.op_cycle_total(),
        report.total_cycles,
        "per-op cycle attribution must partition the run"
    );
    let mut out = String::new();
    let share = |cycles: u64| {
        if report.total_cycles == 0 {
            "0.0%".to_string()
        } else {
            format!("{:.1}%", cycles as f64 * 100.0 / report.total_cycles as f64)
        }
    };

    let mut ops = Table::new(&["op", "count", "cycles", "share"]);
    for o in &report.ops {
        ops.row(vec![
            o.name.clone(),
            o.count.to_string(),
            o.cycles.to_string(),
            share(o.cycles),
        ]);
    }
    out.push_str(&format!(
        "per-opcode attribution ({} cycles, {} insts):\n",
        report.total_cycles, report.total_insts
    ));
    out.push_str(&ops.render());

    let mut funcs = Table::new(&[
        "function",
        "calls",
        "incl cycles",
        "excl cycles",
        "incl insts",
        "excl insts",
        "checks",
    ]);
    for f in report.funcs.iter().take(top) {
        funcs.row(vec![
            f.name.clone(),
            f.calls.to_string(),
            f.incl_cycles.to_string(),
            f.excl_cycles.to_string(),
            f.incl_insts.to_string(),
            f.excl_insts.to_string(),
            f.excl_checks.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\ntop functions by inclusive cycles (showing {} of {}):\n",
        report.funcs.len().min(top),
        report.funcs.len()
    ));
    out.push_str(&funcs.render());

    if !report.check_sites.is_empty() {
        let mut sites = Table::new(&["function", "site", "attempts", "passes", "misses"]);
        for s in report.check_sites.iter().take(top) {
            sites.row(vec![
                s.func.clone(),
                s.site.to_string(),
                s.attempts.to_string(),
                s.passes.to_string(),
                s.misses().to_string(),
            ]);
        }
        out.push_str(&format!(
            "\nhottest CPI check sites (showing {} of {}):\n",
            report.check_sites.len().min(top),
            report.check_sites.len()
        ));
        out.push_str(&sites.render());
    }
    // Machine-recycling cost (host-side; never part of the cycle
    // attribution above). Only shown when a reset actually served this
    // run — first runs of a session have nothing to report.
    let r = &report.reset;
    if r.used_snapshot {
        out.push_str(&format!(
            "\nsnapshot reset: {} pages dirtied, {} bytes restored, \
             {} store bytes restored, {} meta entries dropped\n",
            r.pages_dirtied, r.bytes_restored, r.store_bytes_restored, r.meta_entries_dropped
        ));
    }
    out
}

/// Prints the standard attribution block for one run, labelled.
pub fn print_profile(label: &str, report: &ProfileReport) {
    println!("\n-- profile: {label} --");
    print!("{}", render_profile(report, 10));
}

/// The shared `--profile` tail of the bench binaries: builds `src`
/// under `config`/`store` with the execution profiler on, runs it, and
/// prints the attribution tables. Each binary profiles a
/// *representative* run of its experiment rather than every cell — the
/// profiled twin is bit-identical in simulated counters (see
/// `levee_vm::VmConfig::profile`), so one attribution per experiment
/// answers "where do the cycles of this table go".
pub fn profile_run(label: &str, name: &str, src: &str, config: BuildConfig, store: StoreKind) {
    let mut session = Session::builder()
        .source(src)
        .name(name)
        .protection(config)
        .store(store)
        .profile(true)
        .build()
        .unwrap_or_else(|e| panic!("{name}: builds for profiling: {e}"));
    let run = session.run(b"");
    // A trapped run still profiles (the RIPE bins profile an attack a
    // CPI check stops — the check-site table shows the detection), so
    // surface the status instead of asserting success.
    let label = if run.success() {
        label.to_string()
    } else {
        format!("{label} ({:?})", run.status)
    };
    print_profile(&label, run.profile.as_ref().expect("profiler on"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use levee_core::{BuildConfig, Session};

    #[test]
    fn rendered_profile_carries_all_three_tables() {
        let mut s = Session::builder()
            .source(
                r#"
                void h(int x) { print_int(x); }
                void (*cb)(int);
                int main() { cb = h; cb(7); return 0; }
                "#,
            )
            .protection(BuildConfig::Cpi)
            .profile(true)
            .build()
            .expect("builds");
        let report = s.run(b"").profile.expect("profile on");
        let text = render_profile(&report, 10);
        assert!(text.contains("per-opcode attribution"));
        assert!(text.contains("top functions"));
        assert!(text.contains("check sites"), "CPI build has check sites");
        assert!(text.contains("main"));
    }
}
