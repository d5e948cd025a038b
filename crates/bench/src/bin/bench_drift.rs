//! Bench drift gate — compares a fresh deterministic measurement
//! against the recorded baselines in `crates/bench/baselines/` and
//! exits non-zero on regression.
//!
//! What is gated (all *simulated*, hence deterministic, counters):
//!
//! * `engine_compare.json` — instruction and cycle counts of every
//!   (build, kernel) cell, re-run fresh at the recorded iteration
//!   counts. More than `--threshold` percent growth (default 5%)
//!   fails.
//! * `memory_overhead.json` — safe-region bytes per live entry per
//!   store organization, re-measured on the same dense population.
//!
//! * `defense_matrix.json` — the CPI-vs-PAC verdict table: RIPE
//!   hijacked/detected counts per Levee mechanism at the recorded
//!   seed (**exact**, not thresholded — verdicts are discrete), plus
//!   PAC sign/auth/instruction/cycle counters of every kernel under
//!   `-fpac` and `-fpac-tight`, trap verdicts included (the
//!   PACTight-incompatible cbstruct cell is pinned as trapping).
//! * `spec_overhead.json` — the drift-gated CPI-vs-PAC cost table:
//!   per-benchmark counters (cycles, instructions, PAC signs/auths)
//!   of the SPEC-like suite at scale 1 under vanilla / CPI / PAC /
//!   PACTight.
//! * `webserver_throughput.json` — the deterministic per-request
//!   snapshot-reset cost of each web-stack page (`pages_dirtied`,
//!   `bytes_restored`): growth means the copy-on-write restore got
//!   genuinely more expensive. Also the `pool_pages` rows: per-request
//!   instruction and cycle counts of each page served through a
//!   2-worker `SessionPool`, which must match serial serving exactly.
//!   Wall-clock columns in the baselines are machine-dependent and
//!   never gated; the throughput numbers themselves only get a shape
//!   check.
//!
//! Every gate is *two-sided*: unexplained shrink fails just like
//! growth, because on deterministic counters a drop means the fresh
//! run stopped counting something (see `drift.rs`).
//!
//! Usage: `cargo run --release -p levee-bench --bin bench_drift
//! [-- --threshold N] [--warn-only] [--record-pac]`.
//! `LEVEE_DRIFT_THRESHOLD` and `LEVEE_DRIFT_WARN_ONLY=1` override from
//! the environment. CI runs this *enforcing*: a deliberate cost-model
//! change lands together with its baseline refresh, and the env
//! overrides are the escape hatch for the rare change whose refresh
//! must follow separately. `--record-pac` re-measures and rewrites the
//! two PAC-era baselines (`defense_matrix.json`, `spec_overhead.json`)
//! in place instead of gating — the supported way to refresh them
//! after an intentional PAC cost-model or verdict change.

use std::path::PathBuf;

use levee_bench::drift::{
    check_counter_rows, check_engine_compare, check_memory_overhead, check_ripe_verdicts,
    check_webserver_pool, check_webserver_reset, CounterRow, DriftReport, FreshCounters,
    DEFAULT_THRESHOLD_PCT,
};
use levee_bench::geometry::{dense_bytes_per_entry, DENSE_ENTRIES};
use levee_bench::json::Json;
use levee_bench::kernels::KERNELS;
use levee_core::{BuildConfig, Session, SessionPool};
use levee_ripe::{all_attacks, evaluate, Profile};
use levee_vm::{StoreKind, VmConfig};
use levee_workloads::{spec_suite, web_stack};

fn baseline(name: &str) -> Result<Json, String> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "baselines", name]
        .iter()
        .collect();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Re-runs every (build, kernel) cell of the engine-comparison lineup
/// once and collects its deterministic counters. The engine does not
/// matter — the differential suites pin cycle counts as engine- and
/// fusion-independent — so the default bytecode tier serves.
fn fresh_engine_counters() -> Vec<FreshCounters> {
    let mut out = Vec::new();
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        for spec in KERNELS {
            let mut session = Session::builder()
                .source(&spec.program())
                .name(spec.name)
                .protection(config)
                .vm_config(VmConfig::default())
                .build()
                .unwrap_or_else(|e| panic!("{}: kernel builds: {e}", spec.name));
            let run = session.run(b"");
            assert!(
                run.success(),
                "{}/{}: kernel must exit cleanly, got {:?}",
                config.name(),
                spec.name,
                run.status
            );
            out.push(FreshCounters {
                build: config.name().to_string(),
                kernel: spec.name.to_string(),
                insts: run.exec.insts,
                cycles: run.exec.cycles,
            });
        }
    }
    out
}

/// Shape-only check of the wall-clock baseline: it must parse and
/// carry its page rows (throughput itself is machine-dependent).
fn check_webserver_shape(baseline: &Json) -> DriftReport {
    let mut report = DriftReport::default();
    match baseline.get("pages").and_then(Json::as_arr) {
        Some(pages) if !pages.is_empty() => {
            for p in pages {
                if p.get("page").and_then(Json::as_str).is_none()
                    || p.get("resident_rps").and_then(Json::as_f64).is_none()
                {
                    report
                        .errors
                        .push("webserver_throughput baseline: malformed page row".into());
                }
            }
        }
        _ => report
            .errors
            .push("webserver_throughput baseline: no pages array".into()),
    }
    report
}

/// Measures the deterministic per-request snapshot-reset cost of every
/// web-stack page: one resident session, two requests, the second
/// request's [`levee_vm::ResetStats`] — `(page, pages dirtied, bytes
/// restored)`. Mirrors `webserver_throughput`'s serving setup (CPI
/// build, superpage store, snapshot resets are the default).
fn fresh_reset_costs() -> Vec<(String, u64, u64)> {
    web_stack()
        .iter()
        .map(|w| {
            let mut session = Session::builder()
                .source(&w.source(1))
                .name(w.name)
                .protection(BuildConfig::Cpi)
                .store(StoreKind::ArraySuperpage)
                .build()
                .unwrap_or_else(|e| panic!("{}: page builds: {e}", w.name));
            let reports = session.run_batch([b"".as_slice(), b"".as_slice()]);
            let reset = reports[1].reset;
            assert!(
                reset.used_snapshot,
                "{}: second request must recycle via the snapshot path",
                w.name
            );
            (
                w.name.to_string(),
                reset.pages_dirtied,
                reset.bytes_restored,
            )
        })
        .collect()
}

/// Measures the deterministic per-request execution counters of every
/// web-stack page served through a 2-worker [`SessionPool`] —
/// `(page, insts, cycles)` — gated against the baseline's `pool_pages`
/// rows. Requests within the batch are also asserted bit-identical to
/// each other, so a worker whose forked machine diverged from its
/// siblings fails here even before the counter comparison.
fn fresh_pool_counters() -> Vec<(String, u64, u64)> {
    web_stack()
        .iter()
        .map(|w| {
            let prototype = Session::builder()
                .source(&w.source(1))
                .name(w.name)
                .protection(BuildConfig::Cpi)
                .store(StoreKind::ArraySuperpage)
                .build()
                .unwrap_or_else(|e| panic!("{}: page builds: {e}", w.name));
            let mut pool = SessionPool::with_prototype(prototype, 2);
            let reports = pool.run_batch(std::iter::repeat_n(b"", 4));
            let first = &reports[0];
            for r in &reports[1..] {
                assert_eq!(
                    (r.output.as_str(), r.exec),
                    (first.output.as_str(), first.exec),
                    "{}: pooled requests must be bit-identical across workers",
                    w.name
                );
            }
            (w.name.to_string(), first.exec.insts, first.exec.cycles)
        })
        .collect()
}

/// Runs `src` under `config` and collects its [`CounterRow`] —
/// *without* asserting a clean exit: PACTight-incompatible cells trap
/// at a deterministic point and their counters (and the trap verdict
/// itself) are gated like any other.
fn counter_row(id: String, name: &str, src: &str, config: BuildConfig) -> CounterRow {
    let mut session = Session::builder()
        .source(src)
        .name(name)
        .protection(config)
        .store(StoreKind::ArraySuperpage)
        .build()
        .unwrap_or_else(|e| panic!("{id}: workload builds: {e}"));
    let run = session.run(b"");
    CounterRow {
        id,
        insts: run.exec.insts,
        cycles: run.exec.cycles,
        pac_signs: run.exec.pac_signs,
        pac_auths: run.exec.pac_auths,
        trapped: !run.success(),
    }
}

/// Re-runs every kernel of the engine-comparison lineup under both PAC
/// modes — the `pac_rows` half of `defense_matrix.json`.
fn fresh_pac_kernel_counters() -> Vec<CounterRow> {
    let mut out = Vec::new();
    for config in [BuildConfig::Pac, BuildConfig::PacTight] {
        for spec in KERNELS {
            out.push(counter_row(
                format!("{}/{}", config.name(), spec.name),
                spec.name,
                &spec.program(),
                config,
            ));
        }
    }
    out
}

/// Re-measures the CPI-vs-PAC spec table at scale 1: every SPEC-like
/// workload under vanilla / CPI / PAC / PACTight.
fn fresh_spec_counters() -> Vec<CounterRow> {
    let mut out = Vec::new();
    for w in spec_suite() {
        let src = w.source(1);
        for config in [
            BuildConfig::Vanilla,
            BuildConfig::Cpi,
            BuildConfig::Pac,
            BuildConfig::PacTight,
        ] {
            out.push(counter_row(
                format!("{}/{}", w.name, config.name()),
                w.name,
                &src,
                config,
            ));
        }
    }
    out
}

/// Seed of the recorded RIPE verdict rows — `defense_matrix`'s own.
const RIPE_SEED: u64 = 7;

/// Re-runs the RIPE matrix for every Levee mechanism at the recorded
/// seed: `(mechanism, hijacked, detected)`.
fn fresh_ripe_verdicts() -> Vec<(String, usize, usize)> {
    let attacks = all_attacks();
    [
        BuildConfig::SafeStack,
        BuildConfig::Cps,
        BuildConfig::Cpi,
        BuildConfig::Pac,
        BuildConfig::PacTight,
    ]
    .iter()
    .map(|c| {
        let tally = evaluate(&attacks, &Profile::Levee(*c), RIPE_SEED);
        (c.name().to_string(), tally.successes(), tally.detected)
    })
    .collect()
}

fn render_counter_rows(rows: &[CounterRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"insts\": {}, \"cycles\": {}, \
                 \"pac_signs\": {}, \"pac_auths\": {}, \"trapped\": {}}}",
                r.id, r.insts, r.cycles, r.pac_signs, r.pac_auths, r.trapped
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Rewrites the two PAC-era baselines from fresh measurements.
fn record_pac_baselines(
    verdicts: &[(String, usize, usize)],
    pac_rows: &[CounterRow],
    spec_rows: &[CounterRow],
) {
    let dir: PathBuf = [env!("CARGO_MANIFEST_DIR"), "baselines"].iter().collect();
    let verdict_rows = verdicts
        .iter()
        .map(|(m, h, d)| {
            format!("    {{\"mechanism\": \"{m}\", \"hijacked\": {h}, \"detected\": {d}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let defense = format!(
        "{{\n  \"seed\": {RIPE_SEED},\n  \"verdicts\": [\n{}\n  ],\n  \"rows\": [\n{}\n  ]\n}}\n",
        verdict_rows,
        render_counter_rows(pac_rows)
    );
    let spec = format!(
        "{{\n  \"scale\": 1,\n  \"rows\": [\n{}\n  ]\n}}\n",
        render_counter_rows(spec_rows)
    );
    for (name, text) in [
        ("defense_matrix.json", defense),
        ("spec_overhead.json", spec),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        println!("recorded {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = std::env::var("LEVEE_DRIFT_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD_PCT);
    let mut warn_only = std::env::var("LEVEE_DRIFT_WARN_ONLY").is_ok_and(|v| v == "1");
    let mut record_pac = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--threshold needs a number"));
            }
            "--warn-only" => warn_only = true,
            "--record-pac" => record_pac = true,
            other => panic!(
                "unknown argument {other:?} (want --threshold N | --warn-only | --record-pac)"
            ),
        }
        i += 1;
    }

    if record_pac {
        println!("re-measuring the PAC kernel lineup (both PAC modes)...");
        let pac_rows = fresh_pac_kernel_counters();
        println!("re-measuring the CPI-vs-PAC spec table (scale 1)...");
        let spec_rows = fresh_spec_counters();
        println!("re-running the RIPE matrix for every Levee mechanism (seed {RIPE_SEED})...");
        let verdicts = fresh_ripe_verdicts();
        record_pac_baselines(&verdicts, &pac_rows, &spec_rows);
        return;
    }

    let mut combined = DriftReport::default();
    let mut absorb = |what: &str, r: Result<DriftReport, String>| match r {
        Ok(mut rep) => {
            combined.cases.append(&mut rep.cases);
            combined.errors.append(&mut rep.errors);
        }
        Err(e) => combined.errors.push(format!("{what}: {e}")),
    };

    println!("re-running the engine-comparison lineup (deterministic counters)...");
    let fresh = fresh_engine_counters();
    absorb(
        "engine_compare",
        baseline("engine_compare.json").map(|b| check_engine_compare(&b, &fresh)),
    );

    println!("re-measuring store geometry ({DENSE_ENTRIES} dense entries)...");
    let geometry: Vec<(String, f64)> = StoreKind::all()
        .iter()
        .map(|k| {
            (
                k.name().to_string(),
                dense_bytes_per_entry(*k, DENSE_ENTRIES),
            )
        })
        .collect();
    absorb(
        "memory_overhead",
        baseline("memory_overhead.json").map(|b| check_memory_overhead(&b, &geometry)),
    );
    println!("re-measuring the PAC kernel lineup (both PAC modes)...");
    let pac_rows = fresh_pac_kernel_counters();
    println!("re-measuring the CPI-vs-PAC spec table (scale 1)...");
    let spec_rows = fresh_spec_counters();
    println!("re-running the RIPE matrix for every Levee mechanism (seed {RIPE_SEED})...");
    let verdicts = fresh_ripe_verdicts();
    absorb(
        "defense_matrix",
        baseline("defense_matrix.json").map(|b| {
            let mut rep = check_ripe_verdicts(&b, &verdicts);
            let mut counters = check_counter_rows("defense_matrix", &b, &pac_rows);
            rep.cases.append(&mut counters.cases);
            rep.errors.append(&mut counters.errors);
            rep
        }),
    );
    absorb(
        "spec_overhead",
        baseline("spec_overhead.json").map(|b| check_counter_rows("spec_overhead", &b, &spec_rows)),
    );
    println!("re-measuring per-request snapshot-reset costs (web stack)...");
    let reset_costs = fresh_reset_costs();
    println!("re-serving the web stack through a 2-worker pool (deterministic counters)...");
    let pool_counters = fresh_pool_counters();
    absorb(
        "webserver_throughput",
        baseline("webserver_throughput.json").map(|b| {
            let mut rep = check_webserver_shape(&b);
            for mut part in [
                check_webserver_reset(&b, &reset_costs),
                check_webserver_pool(&b, &pool_counters),
            ] {
                rep.cases.append(&mut part.cases);
                rep.errors.append(&mut part.errors);
            }
            rep
        }),
    );

    println!();
    print!("{}", combined.render(threshold));
    if combined.ok(threshold) {
        println!("drift gate: PASS");
    } else if warn_only {
        println!("drift gate: FAIL (warn-only mode, not failing the build)");
    } else {
        println!("drift gate: FAIL");
        std::process::exit(1);
    }
}
