//! The levee benchmark: end-to-end host time of serving the Table-4
//! web pages, and a traced run that splits the pipeline's host time by
//! layer.
//!
//! `README.md` next to this crate says why each workload exists, which
//! layer should move which metric, and how to run the benchmark and open
//! its trace. In short, both workloads are closed-loop requests to the
//! three Table-4 pages, each a run plus a copy-on-write snapshot recycle
//! of the page's resident session ([`serve_web`]): `serve_web` serves
//! pages built under CPI, `serve_cps` the same pages under CPS.
//!
//! Untraced runs report [`END_TO_END`]; traced runs report
//! [`per_layer_names`].

pub mod host;
pub mod inputs;
pub mod layers;
pub mod lineup;
pub mod serve_web;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use levee_bench::kernels::KERNELS;
use levee_core::BuildConfig;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "share"),
    ("sim_cycles_per_op", "cycles"),
    ("overhead_pct", "%"),
];

/// The per-layer metrics every traced run prints, with units: the fixed
/// layer rows plus one `vm.ns_per_inst.<kernel>` row per kernel of the
/// [`lineup`].
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    const FIXED: &[(&str, &str)] = &[
        ("minic.lex_us", "us"),
        ("minic.parse_us", "us"),
        ("minic.lower_us", "us"),
        ("minic.verify_us", "us"),
        ("minic.tokens", "count"),
        ("core.promote_us", "us"),
        ("core.safestack_us", "us"),
        ("core.instrument_us", "us"),
        ("core.pac_us", "us"),
        ("core.verify_us", "us"),
        ("core.instrumented_mem_ops", "count"),
        ("core.session_build_us", "us"),
        ("bc.precompile_us", "us"),
        ("bc.fused_pairs", "count"),
        ("vm.boot_us", "us"),
        ("vm.boot_loader_us", "us"),
        ("vm.snapshot_pages", "pages"),
        ("vm.run_us", "us"),
        ("vm.ns_per_inst", "ns"),
        ("vm.insts", "count"),
        ("vm.cache_hit_ratio", "ratio"),
        ("rt.page_faults", "count"),
        ("rt.store_bytes", "bytes"),
        ("rt.slot_utilization", "ratio"),
        ("rt.cpi_mem_ops", "count"),
        ("vm.reset_us", "us"),
        ("vm.pages_dirtied", "pages"),
        ("vm.bytes_restored", "bytes"),
        ("vm.store_bytes_restored", "bytes"),
        ("trace.overhead_pct", "%"),
        ("trace.uncovered_pct", "%"),
    ];
    let mut names: Vec<(String, &'static str)> =
        FIXED.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for k in KERNELS {
        names.push((format!("vm.ns_per_inst.{}", k.name), "ns"));
    }
    names
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWeb,
    ServeCps,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeWeb, Workload::ServeCps];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWeb => "serve_web",
            Workload::ServeCps => "serve_cps",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is sized. [`Params::new`] gives the sizes the benchmark
/// command uses; tests shrink them.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Layer-by-layer traced run instead of the one-shot path.
    pub trace: bool,
    /// Ops the timed phase always completes, however long they take.
    /// The deterministic metrics (`sim_cycles_per_op`, `overhead_pct`
    /// and the per-layer counts) are computed over exactly these first
    /// ops, so they repeat for a given seed.
    pub prefix: usize,
    /// Set-up repetitions, at least one; `setup_s` is their median
    /// (see [`SetupTimes`]).
    pub setup_reps: usize,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl Params {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            prefix: 480,
            setup_reps: 9,
            trace_out: None,
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` — exactly [`END_TO_END`] for an untraced
    /// run, exactly [`per_layer_names`] for a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Orders `values` by the metric list the run must print. Panics if
    /// a workload forgot a metric or emitted one that is not listed: the
    /// list is the benchmark's contract.
    pub(crate) fn new(
        attempted: u64,
        failed: u64,
        mut values: BTreeMap<String, f64>,
        traced: bool,
    ) -> Outcome {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let metrics = names
            .into_iter()
            .map(|(name, unit)| {
                let value = values
                    .remove(&name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, value, unit)
            })
            .collect();
        assert!(values.is_empty(), "unlisted metrics: {values:?}");
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` with every value and unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    levee_core::json_str(name),
                    json_number(*value),
                    levee_core::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits (JSON has no NaN or infinity).
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

/// Runs one workload.
pub fn run(workload: Workload, params: &Params) -> Outcome {
    match workload {
        Workload::ServeWeb => serve_web::run(params, BuildConfig::Cpi),
        Workload::ServeCps => serve_web::run(params, BuildConfig::Cps),
    }
}

/// Ops per `ops_per_s` slice.
const SLICE: usize = 128;

/// The share of slices that run slower than the one `ops_per_s`
/// reports: the rate the fastest tenth of slices sustained. The host's
/// speed changes for seconds at a time, independently of the program,
/// and the fastest slices of a run vary about half as much from run to
/// run as its median slice does.
const OPS_PER_S_QUANTILE: f64 = 0.9;

/// The timed phase: op latencies, plus throughput per slice of
/// [`SLICE`] consecutive ops.
pub(crate) struct Phase {
    start: Instant,
    length: Duration,
    prefix: usize,
    slice_start: Instant,
    in_slice: usize,
    latencies_ns: Vec<u64>,
    slice_rates: Vec<f64>,
}

impl Phase {
    pub(crate) fn start(params: &Params) -> Phase {
        let now = Instant::now();
        Phase {
            start: now,
            length: Duration::from_secs_f64(params.seconds),
            prefix: params.prefix,
            slice_start: now,
            in_slice: 0,
            latencies_ns: Vec::new(),
            slice_rates: Vec::new(),
        }
    }

    /// Whether to start another op: until the prefix is done and the
    /// phase's time is up.
    pub(crate) fn more(&self) -> bool {
        self.latencies_ns.len() < self.prefix || self.start.elapsed() < self.length
    }

    pub(crate) fn done(&self) -> usize {
        self.latencies_ns.len()
    }

    pub(crate) fn record(&mut self, latency: Duration) {
        self.latencies_ns.push(latency.as_nanos() as u64);
        self.in_slice += 1;
        if self.in_slice == SLICE {
            let now = Instant::now();
            let secs = (now - self.slice_start).as_secs_f64();
            self.slice_rates.push(SLICE as f64 / secs);
            self.slice_start = now;
            self.in_slice = 0;
        }
    }

    /// The end-to-end timing metrics of the phase.
    pub(crate) fn timing_metrics(&self, out: &mut BTreeMap<String, f64>) {
        let us: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        out.insert("latency_p50_us".into(), stats::quantile(&us, 0.5));
        out.insert("latency_p90_us".into(), stats::quantile(&us, 0.9));
        // A run shorter than one slice still reports its one rate.
        let rates = if self.slice_rates.is_empty() {
            let secs = self.start.elapsed().as_secs_f64();
            vec![self.latencies_ns.len() as f64 / secs]
        } else {
            self.slice_rates.clone()
        };
        out.insert(
            "ops_per_s".into(),
            stats::quantile(&rates, OPS_PER_S_QUANTILE),
        );
    }
}

/// Pause between two set-up repetitions (see [`SetupTimes`]).
const SETUP_GAP: Duration = Duration::from_secs(1);

/// Durations of the set-up repetitions; `setup_s` is their median. A
/// workload runs half of them before its timed phase and half after it,
/// [`SETUP_GAP`] apart. Set-up is mostly boot, the work the host's speed
/// changes move most, and those changes last for seconds: a median over
/// repetitions spread across the run moves less between runs than one
/// over the fraction of a second that back-to-back repetitions take.
#[derive(Default)]
pub(crate) struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` `reps` times and returns the last repetition's result.
    /// Earlier results are dropped before the pause that precedes the next
    /// repetition, so they never overlap in memory.
    pub(crate) fn run<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> Option<T> {
        let mut last = None;
        for rep in 0..reps {
            drop(last.take());
            if rep > 0 {
                std::thread::sleep(SETUP_GAP);
            }
            let t0 = Instant::now();
            let value = setup();
            self.0.push(t0.elapsed().as_secs_f64());
            last = Some(value);
        }
        last
    }

    pub(crate) fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Simulated cycles of the prefix ops, which the deterministic
/// end-to-end metrics are computed from.
#[derive(Default)]
pub(crate) struct SimCycles {
    per_op: Vec<u64>,
    vanilla: u64,
}

impl SimCycles {
    /// A protected op's cycles and those of its vanilla twin.
    pub(crate) fn add_op(&mut self, cycles: u64, vanilla: u64) {
        self.per_op.push(cycles);
        self.vanilla += vanilla;
    }
}

/// The end-to-end metrics of an untraced run.
pub(crate) fn end_to_end(
    phase: &Phase,
    setup: &SetupTimes,
    attempted: u64,
    failed: u64,
    sim: &SimCycles,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    out.insert("setup_s".into(), setup.median());
    phase.timing_metrics(&mut out);
    out.insert("peak_rss_mb".into(), host::peak_rss_mb());
    out.insert("success_rate".into(), 1.0 - stats::ratio(failed, attempted));
    out.insert("sim_cycles_per_op".into(), stats::mean(&sim.per_op));
    let protected: u64 = sim.per_op.iter().sum();
    let overhead = if sim.vanilla == 0 {
        0.0
    } else {
        (protected as f64 / sim.vanilla as f64 - 1.0) * 100.0
    };
    out.insert("overhead_pct".into(), overhead);
    out
}

/// The per-layer metrics of a traced run; writes the trace out if asked.
pub(crate) fn per_layer(
    params: &Params,
    tr: &trace::Tracer,
    counts: &layers::Counts,
    untraced_op_us: &[f64],
) -> BTreeMap<String, f64> {
    if let Some(path) = &params.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create the trace directory");
        }
        std::fs::write(path, tr.chrome_trace_json()).expect("write the trace file");
    }
    counts.metrics(tr, untraced_op_us)
}
