//! Differential suite: the bytecode engine — with superinstruction
//! fusion on *and* off — must be observationally identical to the
//! step-walking reference engine: same output, same exit status, same
//! traps, same hijack verdicts, and the same simulated
//! cycle/instruction counts — across every workload kernel, every build
//! configuration, every store organization and isolation model, and the
//! whole RIPE attack matrix.

use levee_core::{build_source, BuildConfig, RunReport, Session};
use levee_ripe::{all_attacks, run_attack_with, Profile};
use levee_vm::{Engine, ExitStatus, Isolation, ResetMode, StoreKind, Trap, VmConfig};
use levee_workloads::kernels;

const ALL_CONFIGS: &[BuildConfig] = &[
    BuildConfig::Vanilla,
    BuildConfig::SafeStack,
    BuildConfig::Cps,
    BuildConfig::Cpi,
    BuildConfig::SoftBound,
    BuildConfig::Pac,
    BuildConfig::PacTight,
];

/// The three execution configurations every differential case runs:
/// the reference walker, the bytecode tier unfused, and the bytecode
/// tier with superinstruction fusion.
fn lineup(base: VmConfig) -> [(VmConfig, &'static str); 3] {
    [
        (base.with_engine(Engine::Walk), "walk"),
        (
            base.with_engine(Engine::Bytecode).with_fusion(false),
            "bytecode/unfused",
        ),
        (
            base.with_engine(Engine::Bytecode).with_fusion(true),
            "bytecode/fused",
        ),
    ]
}

/// Asserts every observable of two runs agrees.
fn assert_same(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.status, b.status, "{ctx}: exit status diverged");
    assert_eq!(a.output, b.output, "{ctx}: output diverged");
    assert_eq!(a.exec.cycles, b.exec.cycles, "{ctx}: cycles diverged");
    assert_eq!(
        a.exec.insts, b.exec.insts,
        "{ctx}: instruction counts diverged"
    );
    assert_eq!(
        a.exec.mem_ops, b.exec.mem_ops,
        "{ctx}: mem-op counts diverged"
    );
    assert_eq!(
        a.exec.cpi_mem_ops, b.exec.cpi_mem_ops,
        "{ctx}: instrumented-op counts diverged"
    );
    assert_eq!(a.exec.checks, b.exec.checks, "{ctx}: check counts diverged");
    assert_eq!(
        (a.exec.pac_signs, a.exec.pac_auths),
        (b.exec.pac_signs, b.exec.pac_auths),
        "{ctx}: PAC sign/auth counts diverged"
    );
    assert_eq!(
        (a.exec.cache_hits, a.exec.cache_misses),
        (b.exec.cache_hits, b.exec.cache_misses),
        "{ctx}: cache behaviour diverged"
    );
    assert_eq!(a.exec.calls, b.exec.calls, "{ctx}: call counts diverged");
}

/// Runs `src` built under `config` with the walker and the bytecode
/// engine (fused and unfused) and asserts every observable of the three
/// runs agrees. One session serves all three configurations — the
/// module is compiled once and the resident machine is rebuilt per
/// engine via `Session::reconfigure`. Every configuration also runs a
/// profile-on twin: the profiler is host-side observation only, so all
/// simulated counters must be bit-identical with it on, its per-op
/// cycle attribution must telescope to exactly the run's cycle total,
/// and the three twins must report the same check-site table (one
/// numbering across the walker and the unfused and fused bytecode).
/// Returns the (identical) report.
fn differential(src: &str, config: BuildConfig, base: VmConfig, what: &str) -> RunReport {
    let mut session = Session::builder()
        .source(src)
        .name("diff")
        .protection(config)
        .vm_config(base)
        .build()
        .unwrap_or_else(|e| panic!("{what}: failed to build under {}: {e}", config.name()));
    let derived = session.vm_config();
    let mut runs = Vec::new();
    let mut sites = Vec::new();
    for (cfg, name) in lineup(derived) {
        session.reconfigure(|c| *c = cfg);
        let plain = session.run(b"");
        session.reconfigure(|c| {
            *c = cfg;
            c.profile = true;
        });
        let profiled = session.run(b"");
        let ctx = format!("{what} under {} [{name} profile-on]", config.name());
        assert_same(&plain, &profiled, &ctx);
        let report = profiled
            .profile
            .as_ref()
            .expect("profiled run must carry a report");
        assert_eq!(
            report.op_cycle_total(),
            profiled.exec.cycles,
            "{ctx}: per-op cycle attribution must telescope to the run total"
        );
        assert_eq!(
            report.total_insts, profiled.exec.insts,
            "{ctx}: instruction attribution must match the run total"
        );
        sites.push(report.check_sites.clone());
        runs.push((plain, name));
    }
    for ((run, name), table) in runs[1..].iter().zip(&sites[1..]) {
        let ctx = format!("{what} under {} [{name}]", config.name());
        assert_same(&runs[0].0, run, &ctx);
        assert_eq!(
            &sites[0], table,
            "{ctx}: check-site table diverged from {}",
            runs[0].1
        );
    }
    runs.swap_remove(0).0
}

#[test]
fn every_kernel_agrees_across_engines_and_build_configs() {
    let kerns: &[(&str, &str)] = &[
        (kernels::DISPATCH, "dispatch_kernel"),
        (kernels::VCALL, "vcall_kernel"),
        (kernels::NUMERIC, "numeric_kernel"),
        (kernels::BIGSTACK, "bigstack_kernel"),
        (kernels::STRINGS, "string_kernel"),
        (kernels::GRAPH, "graph_kernel"),
        (kernels::CBSTRUCT, "cbstruct_kernel"),
        (kernels::HEAPCHURN, "heap_kernel"),
        (kernels::BULKCOPY, "bulkcopy_kernel"),
        (kernels::CALLTREE, "calltree_kernel"),
        (kernels::PTRDENSE, "ptrdense_kernel"),
    ];
    for (src, entry) in kerns {
        let program = kernels::assemble(&[src], &[(entry, 150)]);
        for config in ALL_CONFIGS {
            let out = differential(&program, *config, VmConfig::default(), entry);
            // Per-location sealing (`-fpac-tight`) deliberately rejects
            // sealed words that *move between slots*: the cbstruct
            // kernel memcpys callback records, so its first indirect
            // call through the copied record dies as a PAC
            // authentication failure — the PACTight-family
            // compatibility cost, faithfully modeled (and still
            // bit-identical across engines, which is what this suite
            // pins). Every other kernel must run cleanly everywhere.
            if *config == BuildConfig::PacTight && *entry == "cbstruct_kernel" {
                assert!(
                    matches!(out.status, ExitStatus::Trapped(Trap::Pac { .. })),
                    "{entry} under PACTight must die authenticating the \
                     memcpy'd callback, got {:?}",
                    out.status
                );
                continue;
            }
            assert_eq!(
                out.status,
                ExitStatus::Exited(0),
                "{entry} must run cleanly under {}",
                config.name()
            );
        }
    }
}

#[test]
fn store_organizations_and_isolation_models_agree() {
    let program = kernels::assemble(
        &[kernels::VCALL, kernels::HEAPCHURN],
        &[("vcall_kernel", 100), ("heap_kernel", 100)],
    );
    for store in StoreKind::all() {
        let base = VmConfig {
            store_kind: *store,
            ..VmConfig::default()
        };
        differential(&program, BuildConfig::Cpi, base, store.name());
    }
    for isolation in [
        Isolation::None,
        Isolation::Segmentation,
        Isolation::InfoHiding,
        Isolation::Sfi,
    ] {
        let base = VmConfig {
            isolation,
            ..VmConfig::default()
        };
        differential(&program, BuildConfig::Cpi, base, "isolation");
    }
}

#[test]
fn traps_agree_across_engines() {
    // Each program ends in a distinctive trap; both engines must agree
    // on the exact trap value.
    let cases: &[(&str, &str)] = &[
        (
            "div by zero",
            r#"
            int main() {
                long a = 7; long b = 0;
                print_int((int)(a / b));
                return 0;
            }
            "#,
        ),
        (
            "out-of-bounds dereference under instrumentation",
            r#"
            void (*cb)(int);
            void h(int x) { print_int(x); }
            int main() {
                cb = h;
                long i;
                long* p = (long*)malloc(16);
                for (i = 0; i < 64; i = i + 1) { p[i] = i; }
                cb(1);
                return 0;
            }
            "#,
        ),
        (
            "stack smash into return address",
            r#"
            int main() {
                char buf[8];
                read_input(buf, -1);
                return 0;
            }
            "#,
        ),
        (
            "abort",
            r#"
            int main() { abort(); return 0; }
            "#,
        ),
        (
            "setjmp/longjmp round trip",
            r#"
            long jb[4];
            int main() {
                long r = setjmp((void*)jb);
                print_int((int)r);
                if (r == 0) { longjmp((void*)jb, 7); }
                return (int)r;
            }
            "#,
        ),
    ];
    for (what, src) in cases {
        for config in ALL_CONFIGS {
            differential(src, *config, VmConfig::default(), what);
        }
    }
}

#[test]
fn fuel_exhaustion_agrees_across_engines() {
    let src = r#"
        int main() {
            long i = 0;
            while (1) { i = i + 1; }
            return 0;
        }
    "#;
    let base = VmConfig {
        max_insts: 10_000,
        ..VmConfig::default()
    };
    let out = differential(src, BuildConfig::Vanilla, base, "fuel");
    assert_eq!(out.status, ExitStatus::Trapped(Trap::OutOfFuel));
}

/// The §5.1 claim, replayed per engine *and* per fusion setting: every
/// attack verdict — hijack, detection, crash, survival — must be
/// identical under the walker and the bytecode tier with fusion on and
/// off, for every profile of the paper lineup.
#[test]
fn ripe_attack_matrix_verdicts_agree_across_engines() {
    let attacks = all_attacks();
    for profile in Profile::paper_lineup() {
        for (i, attack) in attacks.iter().enumerate() {
            let seed = 0xD1FF ^ (i as u64).wrapping_mul(0x9E37_79B9);
            // The fused bytecode tier also runs with the profiler on:
            // profiling must never change an attack's verdict.
            let profiled_cfg = VmConfig::default()
                .with_engine(Engine::Bytecode)
                .with_fusion(true)
                .with_profile(true);
            // The harness chains a dry run and the exploit run through
            // one machine with a reset between them, so the default
            // lineup already exercises snapshot-reset recycling. A
            // loader-reset twin pins the other recycling path to the
            // same verdict.
            let loader_cfg = VmConfig::default()
                .with_engine(Engine::Bytecode)
                .with_fusion(true)
                .with_reset_mode(ResetMode::Loader);
            let mut verdicts = lineup(VmConfig::default())
                .into_iter()
                .chain([
                    (profiled_cfg, "bytecode/fused profile-on"),
                    (loader_cfg, "bytecode/fused loader-reset"),
                ])
                .map(|(cfg, name)| (run_attack_with(attack, &profile, seed, cfg), name));
            let (walk, _) = verdicts.next().expect("walk verdict");
            for (verdict, name) in verdicts {
                assert_eq!(
                    walk,
                    verdict,
                    "attack #{i} {attack:?} against {} diverged under {name}",
                    profile.name()
                );
            }
        }
    }
}

/// Every superinstruction's charged cycles (and instruction count, and
/// every other counter) must equal the sum of its constituents'. Each
/// snippet is chosen so the fused stream provably contains the targeted
/// superinstruction — asserted via `levee_bc` directly — and then run
/// fused, unfused and walked: all three must agree on all counters.
#[test]
fn superinstruction_cycles_equal_constituent_sums() {
    use levee_bc::Op;

    // (superinstruction, build config whose instrumentation produces
    // it, source whose hot path contains the pair).
    let cases: &[(Op, BuildConfig, &str)] = &[
        (
            Op::CmpBr,
            BuildConfig::Vanilla,
            r#"
            int main() {
                long i; long acc = 0;
                for (i = 0; i < 50; i = i + 1) { acc = acc + i; }
                print_int(acc);
                return 0;
            }
            "#,
        ),
        (
            Op::GepLoad,
            BuildConfig::Vanilla,
            r#"
            long a[16];
            int main() {
                long i; long acc = 0;
                for (i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
                for (i = 0; i < 16; i = i + 1) { acc = acc + a[i]; }
                print_int(acc);
                return 0;
            }
            "#,
        ),
        // Assignment lowers the address before the value, so only
        // stores of ready operands (constants, registers) leave the
        // gep/store pair adjacent.
        (
            Op::GepStore,
            BuildConfig::Vanilla,
            r#"
            long a[16];
            int main() {
                long i;
                for (i = 0; i < 16; i = i + 1) { a[i] = 7; }
                print_int(a[7]);
                return 0;
            }
            "#,
        ),
        // SoftBound checks every dereference while protecting only
        // pointer values, so integer loads become check + plain load.
        (
            Op::CheckLoad,
            BuildConfig::SoftBound,
            r#"
            long a[16];
            int main() {
                long i; long acc = 0;
                for (i = 0; i < 16; i = i + 1) { a[i] = 7; }
                for (i = 0; i < 16; i = i + 1) { acc = acc + a[i]; }
                print_int(acc);
                return 0;
            }
            "#,
        ),
        (
            Op::CheckPtrLoad,
            BuildConfig::Cpi,
            r#"
            struct vt { long (*get)(long); };
            long id(long x) { return x + 1; }
            struct vt the_vt = {id};
            struct vt* vp;
            int main() {
                vp = &the_vt;
                print_int((int)vp->get(41));
                return 0;
            }
            "#,
        ),
        (
            Op::CheckedCall,
            BuildConfig::Cpi,
            r#"
            long id(long x) { return x + 1; }
            long (*fp)(long);
            int main() {
                fp = id;
                print_int((int)fp(41));
                return 0;
            }
            "#,
        ),
    ];
    for (op, config, src) in cases {
        let built = build_source(src, "fusepair", *config).expect("snippet builds");
        let mut bc = levee_bc::compile(&built.module);
        let stats = levee_bc::fuse(&mut bc);
        let count = match op {
            Op::CmpBr => stats.cmp_br,
            Op::GepLoad => stats.gep_load,
            Op::GepStore => stats.gep_store,
            Op::CheckLoad => stats.check_load,
            Op::CheckPtrLoad => stats.check_ptr_load,
            Op::CheckedCall => stats.checked_call,
            _ => unreachable!(),
        };
        assert!(
            count > 0,
            "{op:?}: snippet must produce the superinstruction"
        );
        differential(src, *config, VmConfig::default(), &format!("{op:?} parity"));
    }
}

/// The fused engine must perform the *same memory touches in the same
/// order* as the unfused pair — not merely the same totals. The touch
/// log covers every simulated access: program loads/stores, frame
/// slots, and the safe-store traffic recorded through `Touched`. The
/// log records the address of each access, and the diff runs on that
/// sequence. Each configuration also logs with the profiler on — the
/// touch sequence must not move by a single entry.
#[test]
fn fused_memory_ops_touch_the_same_sequence() {
    let program = kernels::assemble(
        &[kernels::VCALL, kernels::NUMERIC],
        &[("vcall_kernel", 60), ("numeric_kernel", 200)],
    );
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        let mut session = Session::builder()
            .source(&program)
            .name("trace")
            .protection(config)
            .build()
            .expect("kernels build");
        let base = session.vm_config();
        let mut logs: Vec<(Vec<u64>, String)> = Vec::new();
        for (cfg, name) in lineup(base) {
            for profile in [false, true] {
                // reconfigure rebuilds the machine, so tracing re-arms
                // per engine configuration.
                session.reconfigure(|c| {
                    *c = cfg;
                    c.profile = profile;
                });
                session.machine_mut().enable_mem_trace();
                let out = session.run(b"");
                assert_eq!(out.status, ExitStatus::Exited(0), "{name} must succeed");
                let tag = if profile { " profile-on" } else { "" };
                logs.push((
                    session.machine().mem_trace().to_vec(),
                    format!("{name}{tag}"),
                ));
            }
        }
        assert!(!logs[0].0.is_empty(), "trace must record touches");
        for (log, name) in &logs[1..] {
            if log != &logs[0].0 {
                let (walk, _) = &logs[0];
                let at = walk
                    .iter()
                    .zip(log.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(walk.len().min(log.len()));
                panic!(
                    "{name} touch log diverged from walk under {} at index {at}: \
                     walk len {}, {name} len {} (walk[{at}..]={:?}, {name}[{at}..]={:?})",
                    config.name(),
                    walk.len(),
                    log.len(),
                    &walk[at..(at + 4).min(walk.len())],
                    &log[at..(at + 4).min(log.len())],
                );
            }
        }
    }
}
