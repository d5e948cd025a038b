//! The benchmark's own checks: emitted metric names and units, seeded
//! inputs, and that a wrong reference shows up as failed ops.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the lineup runs full-size kernels, which are slow unoptimized).

use levee_bench::json::Json;
use levee_core::BuildConfig;
use levee_perfbench::inputs::web_schedule;
use levee_perfbench::layers::Counts;
use levee_perfbench::serve_web;
use levee_perfbench::trace::Tracer;
use levee_perfbench::{lineup, run, Outcome, Params, Workload};

/// A run at a tiny size: no timed seconds, one set-up, and a prefix of
/// two requests to each page.
fn tiny(seed: u64, trace: bool) -> Params {
    let mut params = Params::new(seed, 0.0, trace);
    params.setup_reps = 1;
    params.prefix = 6;
    params
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(workload, &tiny(3, trace));
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(
                &emitted(&outcome),
                want,
                "{} trace={trace}",
                workload.name()
            );
            assert!(
                outcome.correct(),
                "{} trace={trace}: {outcome:?}",
                workload.name()
            );
            let json = outcome.to_json();
            assert!(Json::parse(&json).is_ok(), "result line is JSON: {json}");
        }
    }
}

#[test]
fn benchmark_json_names_every_workload() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
}

#[test]
fn a_seed_names_the_same_requests() {
    let schedule = web_schedule(5, 600);
    assert_eq!(schedule, web_schedule(5, 600));
    assert_eq!(schedule[..99], web_schedule(5, 99)[..], "a prefix");
    assert_ne!(schedule, web_schedule(6, 600));
    for block in schedule.chunks(3) {
        let mut pages = block.to_vec();
        pages.sort_unstable();
        assert_eq!(pages, [0, 1, 2], "each block serves every page once");
    }
}

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let first = run(workload, &tiny(11, false));
        let second = run(workload, &tiny(11, false));
        for name in ["sim_cycles_per_op", "overhead_pct"] {
            assert_eq!(
                first.value(name),
                second.value(name),
                "{}: {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn a_doctored_reference_counts_as_failed_ops() {
    // Every page's recorded cycle count off by one.
    let outcome = serve_web::run_with(&tiny(3, false), BuildConfig::Cpi, |reference| {
        reference.exec.cycles += 1
    });
    assert_eq!(outcome.failed, outcome.attempted, "{outcome:?}");
    assert!(!outcome.correct());
    let error_rate = 1.0 - outcome.value("success_rate").expect("success_rate");
    assert_eq!(error_rate, 1.0);

    let mut doc = lineup::BASELINE.to_string();
    // One recorded lineup cycle count off by one.
    let at = doc.find("\"cycles\": ").expect("a cycles field") + "\"cycles\": ".len();
    let digits = doc[at..].find(',').expect("number ends");
    let cycles: u64 = doc[at..at + digits].parse().expect("a count");
    doc.replace_range(at..at + digits, &(cycles + 1).to_string());
    let failed = lineup::probe(&mut Tracer::new(), &mut Counts::new(), &doc);
    assert_eq!(failed, 1);
}
