//! Experiment E9 — Figure 5: the defense-mechanism comparison matrix.
//! For every implemented mechanism: does it stop all control-flow
//! hijacks (measured against the RIPE-like suite), and what does it
//! cost (measured on the SPEC-like suite)?
//!
//! The matrix is also the CPI-vs-PAC table: the PAC family rows show
//! plain `-fpac` stopping every classic hijack yet leaking the
//! substitution (seal-replay) attacks, and `-fpac-tight` closing them
//! by re-binding each seal to its slot — at the compatibility cost of
//! trapping on workloads that memcpy callback-carrying records (those
//! are excluded from its overhead average and counted in the JSON
//! row). The verdict counts and the PAC sign/auth counters are
//! recorded exactly in `crates/bench/baselines/defense_matrix.json`
//! (see `levee_bench::drift`).
//!
//! Usage: `cargo run -p levee-bench --bin defense_matrix [-- scale]
//! [--json] [--profile]` (`--json` emits one row per mechanism at a
//! quick scale; `--profile` prints execution attribution for the first
//! suite workload under CPI — the only mechanism that stops every
//! hijack.)

use levee_bench::profile::profile_run;
use levee_bench::{pct, print_json_rows, BenchArgs, Table};
use levee_core::{json_f64, BuildConfig, LeveeError, Session};
use levee_defenses::Deployment;
use levee_ripe::{all_attacks, evaluate, Profile};
use levee_vm::{StoreKind, VmConfig};
use levee_workloads::spec_suite;

/// Average overhead of a Deployment's passes over a few workloads —
/// each (baseline, deployed) pair served through `Session`s.
fn deployment_overhead(d: Deployment, scale: u64) -> Result<f64, LeveeError> {
    let mut total = 0.0;
    let mut n = 0.0;
    for w in spec_suite().iter().take(6) {
        let src = w.source(scale);
        let base_module = levee_minic::compile(&src, w.name).expect("compiles");
        let base = Session::builder()
            .module(base_module)
            .name(w.name)
            .vm_config(VmConfig::default())
            .build()?
            .run_ok(b"")?;

        let mut module = levee_minic::compile(&src, w.name).expect("compiles");
        d.apply(&mut module);
        let run = Session::builder()
            .module(module)
            .name(w.name)
            .vm_config(d.vm_config(VmConfig::default()))
            .build()?
            .run_ok(b"")?;
        total += run.overhead_pct(&base);
        n += 1.0;
    }
    Ok(total / n)
}

/// Average overhead of a Levee config over a few workloads, plus how
/// many of them the config refuses to run. Only PACTight may refuse:
/// its per-slot seal binding traps on workloads that memcpy
/// callback-carrying records, so those are skipped (and counted)
/// rather than averaged — any other build error propagates.
fn levee_overhead(c: BuildConfig, scale: u64) -> Result<(f64, usize), LeveeError> {
    let mut total = 0.0;
    let mut n = 0.0;
    let mut incompatible = 0;
    for w in spec_suite().iter().take(6) {
        match levee_workloads::overhead_row(w, scale, &[c], StoreKind::ArraySuperpage) {
            Ok(row) => {
                total += row.overhead(c).expect("measured");
                n += 1.0;
            }
            Err(_) if c == BuildConfig::PacTight => incompatible += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((total / n, incompatible))
}

fn main() -> Result<(), LeveeError> {
    let args = BenchArgs::parse();
    let scale = args.scale_or(2, 1);
    let attacks = all_attacks();
    if !args.json {
        println!(
            "Figure 5 — defense mechanisms vs {} hijack attempts + average overhead\n",
            attacks.len()
        );
    }
    let mut table = Table::new(&[
        "mechanism",
        "hijacks leaked",
        "detected",
        "stops all?",
        "avg overhead",
    ]);
    let mut json_rows = Vec::new();
    let mut record = |table: &mut Table,
                      name: String,
                      leaked: usize,
                      detected: usize,
                      overhead: f64,
                      incompatible: usize| {
        json_rows.push(format!(
            "{{\"mechanism\": \"{name}\", \"hijacks_leaked\": {leaked}, \
             \"detected\": {detected}, \"stops_all\": {}, \
             \"avg_overhead_pct\": {}, \"incompatible_workloads\": {incompatible}}}",
            leaked == 0,
            json_f64(overhead, 2)
        ));
        table.row(vec![
            name,
            leaked.to_string(),
            detected.to_string(),
            if leaked == 0 { "yes" } else { "NO" }.to_string(),
            if incompatible == 0 {
                pct(overhead)
            } else {
                format!("{} ({incompatible} trap)", pct(overhead))
            },
        ]);
    };

    for d in Deployment::all() {
        let tally = evaluate(&attacks, &Profile::Deployment(*d), 7);
        let overhead = deployment_overhead(*d, scale)?;
        record(
            &mut table,
            d.name().to_string(),
            tally.successes(),
            tally.detected,
            overhead,
            0,
        );
    }
    for c in [
        BuildConfig::SafeStack,
        BuildConfig::Cps,
        BuildConfig::Cpi,
        BuildConfig::Pac,
        BuildConfig::PacTight,
    ] {
        let tally = evaluate(&attacks, &Profile::Levee(c), 7);
        let (overhead, incompatible) = levee_overhead(c, scale)?;
        record(
            &mut table,
            c.name().to_string(),
            tally.successes(),
            tally.detected,
            overhead,
            incompatible,
        );
    }
    if args.json {
        print_json_rows("defense_matrix", &json_rows);
    } else {
        table.print();
        println!(
            "\nExpected shape (Fig. 5): only CPI stops all hijacks by construction;\n\
             CPS stops all observed ones at ~2% cost; baselines each leak a class.\n\
             PAC stops every classic hijack but leaks the substitution replays;\n\
             PACTight closes those too at the cost of trapping on workloads that\n\
             memcpy callback records."
        );
        if args.profile {
            let w = &spec_suite()[0];
            profile_run(
                &format!("defense_matrix: {}/CPI (scale {scale})", w.name),
                w.name,
                &w.source(scale),
                BuildConfig::Cpi,
                StoreKind::ArraySuperpage,
            );
        }
    }
    Ok(())
}
