//! Cross-crate integration: source → protection passes → VM, across
//! every configuration, with differential output checks — driven
//! through `levee::Session`, the embedding front door.

use levee::core::build_source;
use levee::ir::printer::print_module;
use levee::vm::{ExitStatus, Isolation, StoreKind, VmConfig};
use levee::workloads::web_stack;
use levee::{BuildConfig, Session};

/// A program touching every subsystem: structs, vtables, dispatch
/// tables, heap, strings, setjmp, recursion.
const KITCHEN_SINK: &str = r#"
    struct shape;
    struct vt { long (*area)(struct shape*); };
    struct shape { struct vt* v; long w; long h; };
    long rect_area(struct shape* s) { return s->w * s->h; }
    struct vt rect = {rect_area};

    long twice(long x) { return x * 2; }
    long thrice(long x) { return x * 3; }
    long (*muls[2])(long) = {twice, thrice};

    long jb[3];

    long fact(long n) {
        if (n < 2) return 1;
        return n * fact(n - 1);
    }

    int main() {
        struct shape s;
        s.v = &rect;
        s.w = 6; s.h = 7;
        print_int(s.v->area(&s));

        long i;
        long acc = 0;
        for (i = 0; i < 8; i = i + 1) { acc = acc + muls[i & 1](i); }
        print_int(acc);

        long* heap = (long*)malloc(64);
        heap[3] = fact(6);
        print_int(heap[3]);
        free((void*)heap);

        char buf[32];
        strcpy(buf, "pipe");
        strcat(buf, "line");
        print_str(buf);

        int r = setjmp(jb);
        if (r == 0) { longjmp(jb, 9); }
        print_int(r);
        return 0;
    }
"#;

const EXPECTED: &str = "42\n72\n720\npipeline\n9";

fn sink_session(config: BuildConfig) -> Session {
    Session::builder()
        .source(KITCHEN_SINK)
        .name("sink")
        .protection(config)
        .vm_config(VmConfig::default())
        .build()
        .expect("builds")
}

#[test]
fn kitchen_sink_runs_identically_under_every_config() {
    for config in BuildConfig::all() {
        let out = sink_session(*config)
            .run_ok(b"")
            .unwrap_or_else(|e| panic!("{}: {e}", config.name()));
        assert_eq!(out.output, EXPECTED, "{} diverged", config.name());
    }
}

#[test]
fn kitchen_sink_runs_under_every_store_and_isolation() {
    // One session; every (store, isolation) pair is a reconfigure of
    // the same built module.
    let mut session = sink_session(BuildConfig::Cpi);
    for store in StoreKind::all() {
        for iso in [
            Isolation::Segmentation,
            Isolation::InfoHiding,
            Isolation::Sfi,
        ] {
            session.reconfigure(|cfg| {
                cfg.store_kind = *store;
                cfg.isolation = iso;
            });
            let out = session
                .run_ok(b"")
                .unwrap_or_else(|e| panic!("store {store:?} isolation {iso:?}: {e}"));
            assert_eq!(out.output, EXPECTED);
        }
    }
}

#[test]
fn overhead_ordering_holds_on_the_kitchen_sink() {
    let mut cycles = Vec::new();
    for config in BuildConfig::all() {
        let out = sink_session(*config).run(b"");
        cycles.push((*config, out.exec.cycles));
    }
    let get = |c: BuildConfig| cycles.iter().find(|(k, _)| *k == c).expect("ran").1;
    // The paper's cost ladder: safestack ≈ vanilla ≤ CPS ≤ CPI ≤ SoftBound.
    assert!(get(BuildConfig::Cps) <= get(BuildConfig::Cpi));
    assert!(get(BuildConfig::Cpi) <= get(BuildConfig::SoftBound));
    let ss = get(BuildConfig::SafeStack) as f64;
    let vanilla = get(BuildConfig::Vanilla) as f64;
    assert!((ss / vanilla - 1.0).abs() < 0.05, "safestack ≈ vanilla");
}

#[test]
fn instrumentation_statistics_are_reported() {
    let cpi = build_source(KITCHEN_SINK, "sink", BuildConfig::Cpi).expect("builds");
    assert!(cpi.stats.funcs >= 5);
    assert!(cpi.stats.fn_checks >= 2, "vtable + dispatch calls");
    assert!(cpi.stats.protected_ops > 0);
    assert!(cpi.stats.mo_fraction() > 0.0 && cpi.stats.mo_fraction() < 1.0);
    assert!(cpi.stats.fnustack() > 0.0 && cpi.stats.fnustack() <= 1.0);
}

#[test]
fn debug_mode_detects_regular_copy_divergence() {
    // §3.2.2 debug mode: sensitive pointers stored in both regions and
    // compared on load → corruption is *detected* instead of silently
    // ignored.
    let src = r#"
        void h(int x) { print_int(x); }
        char buf[64];
        void (*cb)(int);
        int main() {
            cb = h;
            read_input(buf, -1);
            cb(5);
            return 0;
        }
    "#;
    let mut session = Session::builder()
        .source(src)
        .name("dbg")
        .protection(BuildConfig::Cpi)
        .vm_config(VmConfig::default())
        .configure(|cfg| cfg.debug_dual_store = true)
        .build()
        .expect("builds");
    let mut payload = vec![b'A'; 64];
    payload.extend_from_slice(&0xdead_beefu64.to_le_bytes());
    let out = session.run(&payload);
    assert!(
        matches!(
            out.status,
            ExitStatus::Trapped(levee::vm::Trap::Cpi {
                kind: levee::vm::CpiViolationKind::DebugMismatch,
                ..
            })
        ),
        "debug mode must flag the mismatch, got {:?}",
        out.status
    );

    // Default mode: silent prevention (the call still goes to h) — the
    // same session, reconfigured out of debug mode.
    session.reconfigure(|cfg| cfg.debug_dual_store = false);
    let out = session.run(&payload);
    assert_eq!(out.status, ExitStatus::Exited(0));
    assert_eq!(out.output, "5");
}

#[test]
fn isolation_ablation_cpi_depends_on_isolation() {
    // With isolation off, the attacker can reach the safe region —
    // the guarantee evaporates (§3.2.3 made falsifiable).
    let src = r#"int main() { print_int(1); return 0; }"#;
    let mut session = Session::builder()
        .source(src)
        .name("abl")
        .protection(BuildConfig::Cpi)
        .vm_config(VmConfig::default())
        .configure(|cfg| cfg.isolation = Isolation::None)
        .build()
        .expect("builds");
    let safe_stack_slot = session.machine().layout().safe_stack_top() - 8;
    assert!(
        session
            .machine_mut()
            .attacker_write(safe_stack_slot, &[0xff; 8])
            .is_ok(),
        "without isolation the safe region is just memory"
    );
    for iso in [
        Isolation::Segmentation,
        Isolation::Sfi,
        Isolation::InfoHiding,
    ] {
        session.reconfigure(|cfg| cfg.isolation = iso);
        let slot = session.machine().layout().safe_stack_top() - 8;
        let write = session.machine_mut().attacker_write(slot, &[0xff; 8]);
        assert!(write.is_err(), "{iso:?}");
    }
}

/// A build is a pure function of its source and configuration: every
/// rebuild of each web-stack page prints the same module under every
/// protection (promoted register cells included).
#[test]
fn rebuilds_print_the_same_module() {
    for page in web_stack() {
        let src = page.source(1);
        for config in BuildConfig::all() {
            let print = || {
                let built = build_source(&src, page.name, *config).expect("page builds");
                print_module(&built.module)
            };
            assert_eq!(
                print(),
                print(),
                "{} under {}: a rebuild printed a different module",
                page.name,
                config.name()
            );
        }
    }
}
