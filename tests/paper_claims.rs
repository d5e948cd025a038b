//! The paper's headline claims, as assertions. Each test names the
//! claim it checks; the README's "Benchmarks" section lists the binaries
//! that print the measured numbers.

use levee::core::BuildConfig;
use levee::defenses::Deployment;
use levee::ripe::{all_attacks, evaluate, Profile};
use levee::vm::StoreKind;
use levee::workloads::{overhead_row, spec_suite, summarize};

/// "CPI … prevents all control-flow hijack attacks" + "they prevent
/// 100% of the attacks in the RIPE benchmark" — on a suite subset for
/// test-time budget; the full matrix runs in `levee-ripe`'s tests and
/// the `ripe_eval` binary.
#[test]
fn cpi_and_cps_prevent_every_ripe_attack() {
    let attacks: Vec<_> = all_attacks().into_iter().step_by(3).collect();
    for config in [BuildConfig::Cps, BuildConfig::Cpi] {
        let tally = evaluate(&attacks, &Profile::Levee(config), 0xABCD);
        assert_eq!(
            tally.successes(),
            0,
            "{} leaked {:?}",
            config.name(),
            tally.hijacked.iter().map(|a| a.id()).collect::<Vec<_>>()
        );
    }
}

/// "on vanilla Ubuntu 6.06 … 833–848 exploits succeed" — i.e. an
/// undefended system loses the large majority.
#[test]
fn legacy_loses_the_majority() {
    let attacks: Vec<_> = all_attacks().into_iter().step_by(3).collect();
    let tally = evaluate(&attacks, &Profile::Deployment(Deployment::Legacy), 0xABCD);
    assert!(
        tally.successes() * 2 > tally.total(),
        "{}/{}",
        tally.successes(),
        tally.total()
    );
}

/// Table 1's cost ladder on the SPEC-like suite: SafeStack ≈ 0,
/// CPS low, CPI moderate, with the C++ (vtable-heavy) benchmarks paying
/// more under CPI than the C ones.
#[test]
fn table1_cost_ladder() {
    let configs = [BuildConfig::SafeStack, BuildConfig::Cps, BuildConfig::Cpi];
    let rows: Vec<_> = spec_suite()
        .iter()
        .map(|w| overhead_row(w, 1, &configs, StoreKind::ArraySuperpage).expect("measures"))
        .collect();
    let (ss_avg, _, _) = summarize(&rows, BuildConfig::SafeStack, None);
    let (cps_avg, _, _) = summarize(&rows, BuildConfig::Cps, None);
    let (cpi_avg, _, cpi_max) = summarize(&rows, BuildConfig::Cpi, None);
    let (cpi_c_avg, _, _) = summarize(&rows, BuildConfig::Cpi, Some(false));
    let (cpi_cpp_avg, _, _) = summarize(&rows, BuildConfig::Cpi, Some(true));

    assert!(ss_avg.abs() < 1.5, "SafeStack avg ≈ 0%, got {ss_avg:.1}%");
    assert!(cps_avg < cpi_avg, "CPS ({cps_avg:.1}) < CPI ({cpi_avg:.1})");
    assert!(
        cpi_avg > 2.0 && cpi_avg < 25.0,
        "CPI average in the paper's regime, got {cpi_avg:.1}%"
    );
    assert!(
        cpi_cpp_avg > cpi_c_avg,
        "C++ pays more under CPI ({cpi_cpp_avg:.1}% vs {cpi_c_avg:.1}%)"
    );
    assert!(
        cpi_max > 15.0,
        "the vtable outlier exists, got {cpi_max:.1}%"
    );
}

/// "state-of-the-art memory safety implementations for C/C++ incur ≥2×
/// overhead" vs CPI's selectivity: SoftBound mode costs a multiple of
/// CPI on pointer-heavy code.
#[test]
fn softbound_costs_a_multiple_of_cpi() {
    let suite = spec_suite();
    let w = suite.iter().find(|w| w.name == "mcf").expect("exists");
    let row = overhead_row(
        w,
        2,
        &[BuildConfig::Cpi, BuildConfig::SoftBound],
        StoreKind::ArraySuperpage,
    )
    .expect("measures");
    let cpi = row.overhead(BuildConfig::Cpi).expect("measured");
    let sb = row.overhead(BuildConfig::SoftBound).expect("measured");
    assert!(
        sb > cpi.max(0.5) * 5.0,
        "SoftBound {sb:.1}% must dwarf CPI {cpi:.1}% on pointer-chasing code"
    );
}

/// Table 2's premise: "CPI requires much less instrumentation than full
/// memory safety, and CPS much less than CPI."
#[test]
fn table2_mo_ordering_over_the_suite() {
    let mut cps_total = 0.0;
    let mut cpi_total = 0.0;
    let mut sb_total = 0.0;
    for w in spec_suite() {
        let src = w.source(1);
        let cps = levee::core::build_source(&src, w.name, BuildConfig::Cps).expect("builds");
        let cpi = levee::core::build_source(&src, w.name, BuildConfig::Cpi).expect("builds");
        let sb = levee::core::build_source(&src, w.name, BuildConfig::SoftBound).expect("builds");
        assert!(
            cps.stats.mo_fraction() <= cpi.stats.mo_fraction() + 1e-9,
            "{}: MOCPS {:.3} > MOCPI {:.3}",
            w.name,
            cps.stats.mo_fraction(),
            cpi.stats.mo_fraction()
        );
        cps_total += cps.stats.mo_fraction();
        cpi_total += cpi.stats.mo_fraction();
        sb_total += sb.stats.mo_fraction();
    }
    assert!(cps_total < cpi_total && cpi_total < sb_total);
}

/// "less than 25% of functions need such additional stack frames" —
/// FNUStack stays a minority across the suite.
#[test]
fn fnustack_is_a_minority() {
    let mut unsafe_frames = 0u64;
    let mut funcs = 0u64;
    for w in spec_suite() {
        let built = levee::core::build_source(&w.source(1), w.name, BuildConfig::SafeStack)
            .expect("builds");
        unsafe_frames += built.stats.unsafe_frames;
        funcs += built.stats.funcs;
    }
    let fraction = unsafe_frames as f64 / funcs as f64;
    assert!(
        fraction < 0.45,
        "FNUStack should be a minority, got {:.0}%",
        fraction * 100.0
    );
}

/// The Appendix A model and the real pipeline agree on the CPI verdict
/// for the canonical forged-pointer program.
#[test]
fn formal_model_agrees_with_pipeline() {
    use levee::formal::{ATy, Cmd, Env, Lhs, Outcome, Rhs};
    use levee::vm::{ExitStatus, Trap};
    use levee::Session;
    use std::collections::BTreeMap;

    // Formal model: g = (f*)(int)1234; (*g)() → Abort.
    let mut env = Env::new(BTreeMap::new(), &[("g", ATy::fn_ptr())], &["f0"]);
    env.exec(&Cmd::Assign(
        Lhs::Var("g".into()),
        Rhs::Cast(ATy::fn_ptr(), Box::new(Rhs::Int(1234))),
    ));
    assert_eq!(
        env.exec(&Cmd::CallIndirect(Lhs::Var("g".into()))),
        Outcome::Abort
    );

    // Pipeline: the same program under CPI → CPI trap.
    let src = r#"
        int main() {
            void (*g)(int);
            g = (void (*)(int))1234;
            g(1);
            return 0;
        }
    "#;
    let mut session = Session::builder()
        .source(src)
        .name("forge")
        .protection(BuildConfig::Cpi)
        .build()
        .expect("builds");
    let out = session.run(b"");
    assert!(
        matches!(out.status, ExitStatus::Trapped(Trap::Cpi { .. })),
        "pipeline must also abort, got {:?}",
        out.status
    );
}
