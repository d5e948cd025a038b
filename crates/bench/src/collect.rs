//! The collectors behind `crates/bench/baselines/`: one function per
//! recorded file, each re-running the deterministic half of its
//! experiment and returning the rows [`crate::drift`] records and diffs.

use levee_core::{BuildConfig, Session, SessionBuilder, SessionPool};
use levee_ripe::{all_attacks, evaluate, Profile};
use levee_vm::{Engine, StoreKind, VmConfig};
use levee_workloads::{spec_suite, web_stack};

use crate::drift::Row;
use crate::geometry::{dense_bytes, DENSE_ENTRIES};
use crate::kernels::{KernelSpec, KERNELS};
use crate::profile::{checked_profile, fused_pairs};

/// Seed of the recorded RIPE verdicts: `defense_matrix`'s own.
const RIPE_SEED: u64 = 7;

/// Functions per kernel in `profile_attribution.json`, by inclusive
/// cycles.
const TOP_FUNCS: usize = 5;

fn kernel_session(config: BuildConfig, spec: &KernelSpec) -> SessionBuilder {
    Session::builder()
        .source(&spec.program())
        .name(spec.name)
        .protection(config)
        .vm_config(VmConfig::default())
}

/// `engine_compare.json`: instructions and cycles of every (build,
/// kernel) cell of the engine-comparison lineup. The engine does not
/// matter (the differential suites pin counters as engine- and
/// fusion-independent), so the default bytecode tier serves.
pub fn engine_compare() -> Vec<Row> {
    let mut rows = Vec::new();
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        for spec in KERNELS {
            let label = format!("{}/{}", config.name(), spec.name);
            let mut session = kernel_session(config, spec)
                .build()
                .unwrap_or_else(|e| panic!("{label}: kernel builds: {e}"));
            let run = session.run(b"");
            assert!(run.success(), "{label}: kernel exits cleanly");
            rows.push(
                Row::default()
                    .name("build", config.name())
                    .name("kernel", spec.name)
                    .count("insts", run.exec.insts)
                    .count("cycles", run.exec.cycles),
            );
        }
    }
    rows
}

/// `profile_attribution.json`: the same lineup on fused bytecode with
/// the profiler on. Per cell: the run's totals, each superinstruction
/// pattern's planned pairs and dispatches (so "fusion still fires" is
/// pinned exactly), every opcode's dispatches and cycles, and the top
/// functions. [`checked_profile`] asserts the profiler's invariants.
pub fn profile_attribution() -> Vec<Row> {
    let mut rows = Vec::new();
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        for spec in KERNELS {
            let label = format!("{}/{}", config.name(), spec.name);
            let mut session = kernel_session(config, spec)
                .engine(Engine::Bytecode)
                .fusion(true)
                .profile(true)
                .build()
                .unwrap_or_else(|e| panic!("{label}: kernel builds: {e}"));
            session.precompile();
            let fuse = session
                .machine()
                .fuse_stats()
                .expect("bytecode tier compiled");
            let run = session.run(b"");
            assert!(run.success(), "{label}: kernel exits cleanly");
            let report = checked_profile(&label, &run, &fuse);
            let cell = || {
                Row::default()
                    .name("build", config.name())
                    .name("kernel", spec.name)
            };
            rows.push(
                cell()
                    .count("cycles", report.total_cycles)
                    .count("insts", report.total_insts),
            );
            for (op, planned) in fused_pairs(&fuse) {
                rows.push(
                    cell()
                        .name("fused", op)
                        .count("planned", planned)
                        .count("dispatches", report.op_count(op)),
                );
            }
            for o in &report.ops {
                rows.push(
                    cell()
                        .name("op", &o.name)
                        .count("count", o.count)
                        .count("cycles", o.cycles),
                );
            }
            for f in report.funcs.iter().take(TOP_FUNCS) {
                rows.push(
                    cell()
                        .name("func", &f.name)
                        .count("calls", f.calls)
                        .count("incl_cycles", f.incl_cycles)
                        .count("excl_cycles", f.excl_cycles),
                );
            }
        }
    }
    rows
}

/// `memory_overhead.json`: simulated safe-region bytes of every store
/// organization holding the dense population of [`DENSE_ENTRIES`]
/// contiguous slots.
pub fn memory_overhead() -> Vec<Row> {
    StoreKind::all()
        .iter()
        .map(|kind| {
            Row::default()
                .name("org", kind.name())
                .count("entries", DENSE_ENTRIES)
                .count("bytes", dense_bytes(*kind, DENSE_ENTRIES))
        })
        .collect()
}

/// `defense_matrix.json`, the CPI-vs-PAC table: RIPE hijacked/detected
/// tallies of every Levee mechanism, and the counters of every lineup
/// kernel under both PAC modes.
pub fn defense_matrix() -> Vec<Row> {
    let attacks = all_attacks();
    let mut rows: Vec<Row> = [
        BuildConfig::SafeStack,
        BuildConfig::Cps,
        BuildConfig::Cpi,
        BuildConfig::Pac,
        BuildConfig::PacTight,
    ]
    .iter()
    .map(|c| {
        let tally = evaluate(&attacks, &Profile::Levee(*c), RIPE_SEED);
        Row::default()
            .name("mechanism", c.name())
            .count("hijacked", tally.successes() as u64)
            .count("detected", tally.detected as u64)
    })
    .collect();
    for config in [BuildConfig::Pac, BuildConfig::PacTight] {
        for spec in KERNELS {
            rows.push(counters(config, "kernel", spec.name, &spec.program()));
        }
    }
    rows
}

/// `spec_overhead.json`: the counters of every SPEC-like workload at
/// scale 1 under vanilla, CPI, PAC and PACTight.
pub fn spec_overhead() -> Vec<Row> {
    let mut rows = Vec::new();
    for w in spec_suite() {
        let src = w.source(1);
        for config in [
            BuildConfig::Vanilla,
            BuildConfig::Cpi,
            BuildConfig::Pac,
            BuildConfig::PacTight,
        ] {
            rows.push(counters(config, "workload", w.name, &src));
        }
    }
    rows
}

/// One run's counters, PAC sign/auth and the trap verdict included. The
/// run may trap: a PACTight-incompatible cell (memcpy'd sealed
/// callbacks) dies at a deterministic point, and its counters and
/// verdict are recorded like any other.
fn counters(config: BuildConfig, field: &str, name: &str, src: &str) -> Row {
    let mut session = Session::builder()
        .source(src)
        .name(name)
        .protection(config)
        .store(StoreKind::ArraySuperpage)
        .build()
        .unwrap_or_else(|e| panic!("{name}/{}: builds: {e}", config.name()));
    let run = session.run(b"");
    Row::default()
        .name("build", config.name())
        .name(field, name)
        .count("insts", run.exec.insts)
        .count("cycles", run.exec.cycles)
        .count("pac_signs", run.exec.pac_signs)
        .count("pac_auths", run.exec.pac_auths)
        .count("trapped", u64::from(!run.success()))
}

/// `webserver_throughput.json`: the per-request counters of every
/// web-stack page under every store organization, each (CPI build)
/// served as `webserver_throughput` serves it through a 2-worker
/// [`SessionPool`]: instructions, cycles and the whole snapshot-reset
/// cost. Every pooled request must be bit-identical, reset cost
/// included, so a worker whose forked machine diverged from its sibling
/// fails here.
pub fn webserver_throughput() -> Vec<Row> {
    let mut rows = Vec::new();
    for w in web_stack() {
        for &store in StoreKind::all() {
            let prototype = Session::builder()
                .source(&w.source(1))
                .name(w.name)
                .protection(BuildConfig::Cpi)
                .store(store)
                .build()
                .unwrap_or_else(|e| panic!("{}: page builds: {e}", w.name));
            let reports =
                SessionPool::with_prototype(prototype, 2).run_batch(std::iter::repeat_n(b"", 4));
            let first = &reports[0];
            assert!(
                first.reset.used_snapshot,
                "{}: requests recycle through the snapshot",
                w.name
            );
            for r in &reports[1..] {
                assert_eq!(
                    (r.output.as_str(), r.exec, r.reset),
                    (first.output.as_str(), first.exec, first.reset),
                    "{} on {}: pooled requests must be bit-identical across workers",
                    w.name,
                    store.name()
                );
            }
            rows.push(
                Row::default()
                    .name("page", w.name)
                    .name("store", store.name())
                    .count("insts", first.exec.insts)
                    .count("cycles", first.exec.cycles)
                    .count("pages_dirtied", first.reset.pages_dirtied)
                    .count("bytes_restored", first.reset.bytes_restored)
                    .count("store_bytes_restored", first.reset.store_bytes_restored)
                    .count("meta_entries_dropped", first.reset.meta_entries_dropped),
            );
        }
    }
    rows
}
