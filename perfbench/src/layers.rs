//! The traced path: the pipeline called one layer at a time through its
//! public functions, a span around each call, and the per-layer metrics
//! computed from those spans and from the counters the layers report.

use std::collections::{BTreeMap, HashMap};

use levee_bench::kernels::KERNELS;
use levee_core::sensitivity::Mode;
use levee_core::{build_source, instrument, pac, promote, safestack};
use levee_core::{BuildConfig, BuildStats, Built, Session};
use levee_ir::printer::print_module;
use levee_ir::verify::verify_module;
use levee_ir::Module;
use levee_minic::{lexer, lower, parser};
use levee_vm::{ExecStats, Machine, ResetMode, ResetStats, VmConfig};

use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;

/// A module built one layer at a time.
pub struct Layered {
    pub built: Built,
    pub tokens: u64,
}

fn verify(tr: &mut Tracer, span: &'static str, op: u64, module: &Module) -> Result<(), String> {
    match tr.span(span, op, || verify_module(module)).first() {
        Some(e) => Err(format!("{span}: {e}")),
        None => Ok(()),
    }
}

/// Frontend and protection passes, one span per call: lex, parse,
/// lower, verify, then `build_module`'s passes in its order, then
/// verify. [`matches_reference`] checks the result against
/// `build_module` itself.
pub fn build(
    tr: &mut Tracer,
    op: u64,
    src: &str,
    name: &str,
    config: BuildConfig,
) -> Result<Layered, String> {
    let toks = tr
        .span("minic.lex", op, || lexer::lex(src))
        .map_err(|e| e.to_string())?;
    let tokens = toks.len() as u64;
    let prog = tr
        .span("minic.parse", op, || parser::parse(toks))
        .map_err(|e| e.to_string())?;
    let mut module = tr
        .span("minic.lower", op, || lower::lower(&prog, name))
        .map_err(|e| e.to_string())?;
    verify(tr, "minic.verify", op, &module)?;

    let mut stats = BuildStats {
        funcs: module.funcs.len() as u64,
        ..Default::default()
    };
    tr.span("core.promote", op, || promote::promote_scalars(&mut module));
    if !matches!(
        config,
        BuildConfig::Vanilla | BuildConfig::Pac | BuildConfig::PacTight
    ) {
        stats.unsafe_frames =
            tr.span("core.safestack", op, || safestack::apply(&mut module)) as u64;
    }
    let mode = match config {
        BuildConfig::Cps => Some(Mode::Cps),
        BuildConfig::Cpi => Some(Mode::Cpi),
        BuildConfig::SoftBound => Some(Mode::SoftBound),
        _ => None,
    };
    if let Some(mode) = mode {
        let per_func = tr.span("core.instrument", op, || {
            instrument::apply(&mut module, mode)
        });
        stats.absorb(per_func);
    } else if matches!(config, BuildConfig::Pac | BuildConfig::PacTight) {
        let tight = config == BuildConfig::PacTight;
        let p = tr.span("core.pac", op, || pac::apply(&mut module, tight));
        stats.instrumented_mem_ops += p.signs + p.auths;
        stats.protected_ops += p.signs + p.auths;
    }
    tr.span("core.address_taken", op, || module.compute_address_taken());
    verify(tr, "core.verify", op, &module)?;
    Ok(Layered {
        built: Built {
            module,
            config,
            stats,
        },
        tokens,
    })
}

/// Whether the layered build prints the same module, with the same
/// instrumentation count, as `build_source`.
pub fn matches_reference(src: &str, name: &str, layered: &Layered) -> bool {
    match build_source(src, name, layered.built.config) {
        Ok(reference) => {
            reference.stats.instrumented_mem_ops == layered.built.stats.instrumented_mem_ops
                && canonical_print(&reference.module) == canonical_print(&layered.built.module)
        }
        Err(_) => false,
    }
}

/// The printed module with each function's registers renumbered in
/// order of first appearance. `promote_scalars` numbers the registers it
/// creates in hash-map order, so two builds of one program print the
/// same code under different register numbers.
fn canonical_print(module: &Module) -> String {
    let text = print_module(module);
    let mut out = String::with_capacity(text.len());
    let mut numbers: HashMap<&str, usize> = HashMap::new();
    for line in text.lines() {
        if line.starts_with("define") {
            numbers.clear();
        }
        let mut rest = line;
        while let Some(at) = rest.find('%') {
            out.push_str(&rest[..=at]);
            rest = &rest[at + 1..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if digits > 0 {
                let next = numbers.len();
                let n = *numbers.entry(&rest[..digits]).or_insert(next);
                out.push_str(&n.to_string());
                rest = &rest[digits..];
            }
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// The traced set-up of a serving workload, whose builds happen only in
/// set-up. First a cold start one layer at a time under a `cold` span:
/// [`build`], `Machine::new`, `Machine::precompile` and the first run.
/// After it, what a cold start does not pay: a boot in the loader reset
/// mode, `SessionBuilder::build` of the same program, and a build under
/// PAC, the one pass the serving configurations never run. The layered
/// run must equal the built session's first run (status, output,
/// `ExecStats`), and both layered builds must match `build_module`.
/// Returns the layered build's counts, or why it failed.
pub fn setup_sweep(
    tr: &mut Tracer,
    op: u64,
    src: &str,
    name: &str,
    config: BuildConfig,
    base: VmConfig,
) -> Result<BuildCounts, String> {
    let root = tr.enter("setup", op);
    let result = (|| {
        let cold = tr.enter("cold", op);
        let layered = match build(tr, op, src, name, config) {
            Ok(layered) => layered,
            Err(e) => {
                tr.exit(cold);
                return Err(e);
            }
        };
        let cfg = layered.built.vm_config(base);
        let mut machine = tr.span("vm.boot", op, || Machine::new(&layered.built.module, cfg));
        tr.span("bc.precompile", op, || machine.precompile());
        let out = tr.span("vm.first_run", op, || machine.run(b""));
        tr.exit(cold);
        let counts = BuildCounts::of(&layered, &machine);
        drop(machine);

        let loader = cfg.with_reset_mode(ResetMode::Loader);
        drop(tr.span("vm.boot_loader", op, || {
            Machine::new(&layered.built.module, loader)
        }));
        let mut session = tr
            .span("core.session_build", op, || {
                Session::builder()
                    .source(src)
                    .name(name)
                    .protection(config)
                    .vm_config(base)
                    .build()
            })
            .map_err(|e| e.to_string())?;
        let report = session.run(b"");
        if !(report.success()
            && report.status == out.status
            && report.output == out.output
            && report.exec == out.stats)
        {
            return Err(format!(
                "{name}: layered run differs from the session's run"
            ));
        }

        let pac = build(tr, op, src, name, BuildConfig::Pac)?;
        if !matches_reference(src, name, &layered) || !matches_reference(src, name, &pac) {
            return Err(format!("{name}: layered build differs from build_module"));
        }
        Ok(counts)
    })();
    tr.exit(root);
    result
}

/// The deterministic counts of one build.
#[derive(Debug, Clone, Copy)]
pub struct BuildCounts {
    tokens: u64,
    instrumented_mem_ops: u64,
    fused_pairs: u64,
    snapshot_pages: u64,
}

impl BuildCounts {
    /// Counts of `layered`, booted and precompiled into `machine`.
    pub fn of(layered: &Layered, machine: &Machine<'_>) -> BuildCounts {
        BuildCounts {
            tokens: layered.tokens,
            instrumented_mem_ops: layered.built.stats.instrumented_mem_ops,
            fused_pairs: machine.fuse_stats().map_or(0, |f| f.total()),
            snapshot_pages: machine.snapshot_pages() as u64,
        }
    }
}

/// Per-layer counts: builds and prefix ops add their deterministic
/// counters; every traced run adds its time per simulated instruction.
#[derive(Default)]
pub struct Counts {
    builds: Vec<BuildCounts>,
    runs: Vec<ExecStats>,
    resets: Vec<ResetStats>,
    run_ns: u64,
    run_insts: u64,
    kernel_ns: Vec<u64>,
    kernel_insts: Vec<u64>,
}

impl Counts {
    pub fn new() -> Counts {
        Counts {
            kernel_ns: vec![0; KERNELS.len()],
            kernel_insts: vec![0; KERNELS.len()],
            ..Default::default()
        }
    }

    pub fn add_build(&mut self, build: BuildCounts) {
        self.builds.push(build);
    }

    /// A prefix op's run and recycle counters.
    pub fn add_op(&mut self, exec: &ExecStats, reset: &ResetStats) {
        self.runs.push(*exec);
        self.resets.push(*reset);
    }

    /// Host time of one traced run of a workload op.
    pub fn add_run_time(&mut self, ns: u64, insts: u64) {
        self.run_ns += ns;
        self.run_insts += insts;
    }

    /// Host time of one run of a single lineup kernel.
    pub fn add_kernel_time(&mut self, kernel: usize, ns: u64, insts: u64) {
        self.kernel_ns[kernel] += ns;
        self.kernel_insts[kernel] += insts;
    }

    /// Every per-layer metric: medians of span self times, means of the
    /// counts, the trace's own overhead against the untraced op
    /// latencies measured alongside it, and the share of the set-up's
    /// traced cold starts that no layer span covers.
    pub fn metrics(&self, tr: &Tracer, untraced_op_us: &[f64]) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for span in [
            "minic.lex",
            "minic.parse",
            "minic.lower",
            "minic.verify",
            "core.promote",
            "core.safestack",
            "core.instrument",
            "core.pac",
            "core.verify",
            "core.session_build",
            "bc.precompile",
            "vm.boot",
            "vm.boot_loader",
            "vm.run",
            "vm.reset",
        ] {
            out.insert(format!("{span}_us"), median(&tr.self_times_us(span)));
        }
        let b = &self.builds;
        let field = |f: fn(&BuildCounts) -> u64| mean(&b.iter().map(f).collect::<Vec<_>>());
        out.insert("minic.tokens".into(), field(|c| c.tokens));
        out.insert(
            "core.instrumented_mem_ops".into(),
            field(|c| c.instrumented_mem_ops),
        );
        out.insert("bc.fused_pairs".into(), field(|c| c.fused_pairs));
        out.insert("vm.snapshot_pages".into(), field(|c| c.snapshot_pages));

        let run = |f: fn(&ExecStats) -> u64| mean(&self.runs.iter().map(f).collect::<Vec<_>>());
        out.insert("vm.insts".into(), run(|e| e.insts));
        let hits: u64 = self.runs.iter().map(|e| e.cache_hits).sum();
        let misses: u64 = self.runs.iter().map(|e| e.cache_misses).sum();
        out.insert("vm.cache_hit_ratio".into(), ratio(hits, hits + misses));
        out.insert("rt.page_faults".into(), run(|e| e.page_faults));
        out.insert("rt.store_bytes".into(), run(|e| e.store_bytes));
        out.insert("rt.cpi_mem_ops".into(), run(|e| e.cpi_mem_ops));
        let slot_bytes: u64 = self
            .runs
            .iter()
            .map(|e| e.store_entries_peak * levee_rt::SLOT_SIZE)
            .sum();
        let store_bytes: u64 = self.runs.iter().map(|e| e.store_bytes).sum();
        out.insert("rt.slot_utilization".into(), ratio(slot_bytes, store_bytes));

        let reset =
            |f: fn(&ResetStats) -> u64| mean(&self.resets.iter().map(f).collect::<Vec<_>>());
        out.insert("vm.pages_dirtied".into(), reset(|r| r.pages_dirtied));
        out.insert("vm.bytes_restored".into(), reset(|r| r.bytes_restored));
        out.insert(
            "vm.store_bytes_restored".into(),
            reset(|r| r.store_bytes_restored),
        );

        out.insert("vm.ns_per_inst".into(), ratio(self.run_ns, self.run_insts));
        for (k, spec) in KERNELS.iter().enumerate() {
            out.insert(
                format!("vm.ns_per_inst.{}", spec.name),
                ratio(self.kernel_ns[k], self.kernel_insts[k]),
            );
        }
        let traced = median(&tr.durations_us("op"));
        let untraced = median(untraced_op_us);
        out.insert(
            "trace.overhead_pct".into(),
            if untraced > 0.0 {
                (traced / untraced - 1.0) * 100.0
            } else {
                0.0
            },
        );
        out.insert("trace.uncovered_pct".into(), tr.uncovered_pct("cold"));
        out
    }
}
