//! The two serving workloads: a closed loop with one client and no
//! think time. Each request is a seeded draw among the three Table-4
//! pages (static, wsgi, dynamic), served by `Session::run_recycled` (run,
//! then the copy-on-write snapshot restore) on that page's resident
//! session with the default `array-2M` safe store. `serve_web` builds the
//! pages under CPI and `serve_cps` under CPS, the paper's two protection
//! levels of its web-stack table.
//!
//! Requests are short (8–16k simulated instructions), so per-request
//! fixed costs dominate: under either protection, each wsgi and dynamic
//! request materializes a 2 MiB safe-store superpage and the restore
//! drops it. Compile and boot happen only in set-up.

use std::time::{Duration, Instant};

use levee_core::{BuildConfig, RunReport, Session, DEFAULT_SEED};
use levee_vm::VmConfig;
use levee_workloads::web_stack;

use crate::inputs::web_schedule;
use crate::layers::{self, Counts};
use crate::trace::Tracer;
use crate::{end_to_end, lineup, per_layer, Outcome, Params, Phase, SetupTimes, SimCycles};

/// Length of the seeded request order (a multiple of the three pages);
/// request `i` serves page `schedule[i % SCHEDULE]`.
const SCHEDULE: usize = 4095;

/// One page, resident and ready to serve.
pub struct Page {
    serving: Session,
    /// A fresh session's first `run_recycled`: every request must
    /// reproduce its output, `ExecStats` and `ResetStats`.
    reference: RunReport,
    /// Simulated cycles of the page's vanilla twin.
    vanilla_cycles: u64,
}

/// Builds and precompiles the page's serving session under `config` and
/// takes its references; `None` if any of that fails or the protected
/// and vanilla outputs differ.
fn page(source: &str, name: &str, config: BuildConfig) -> Option<Page> {
    let build = |config| {
        Session::builder()
            .source(source)
            .name(name)
            .protection(config)
            .build()
            .ok()
    };
    let mut serving = build(config)?;
    serving.precompile();
    let reference = build(config)?.run_recycled(b"");
    let vanilla = build(BuildConfig::Vanilla)?.run_recycled(b"");
    (reference.success() && vanilla.success() && vanilla.output == reference.output).then_some(
        Page {
            serving,
            reference,
            vanilla_cycles: vanilla.exec.cycles,
        },
    )
}

/// Runs the workload with the pages built under `config`.
pub fn run(params: &Params, config: BuildConfig) -> Outcome {
    run_with(params, config, |_| {})
}

/// Runs the workload after `tamper` has edited each page's reference
/// (the benchmark's tests use it to show that a wrong reference counts
/// as failed requests).
pub fn run_with(params: &Params, config: BuildConfig, tamper: impl Fn(&mut RunReport)) -> Outcome {
    let sources: Vec<(String, &'static str)> =
        web_stack().iter().map(|w| (w.source(1), w.name)).collect();
    let build_pages = || {
        sources
            .iter()
            .map(|(src, name)| page(src, name, config))
            .collect::<Vec<_>>()
    };
    let mut setup = SetupTimes::default();
    let before = params.setup_reps.div_ceil(2);
    let mut pages = setup
        .run(before, &build_pages)
        .expect("at least one set-up repetition");
    for page in pages.iter_mut().flatten() {
        tamper(&mut page.reference);
    }

    let mut tr = Tracer::new();
    let mut counts = Counts::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    if params.trace {
        let base = VmConfig::default().with_seed(DEFAULT_SEED);
        for _ in 0..params.setup_reps {
            for (i, (src, name)) in sources.iter().enumerate() {
                attempted += 1;
                match layers::setup_sweep(&mut tr, i as u64, src, name, config, base) {
                    Ok(build) => counts.add_build(build),
                    Err(e) => {
                        eprintln!("levee-perfbench: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }

    let schedule = web_schedule(params.seed, SCHEDULE);
    let mut phase = Phase::start(params);
    let mut sim = SimCycles::default();
    let mut untraced_us = Vec::new();
    while phase.more() {
        let op = phase.done();
        attempted += 1;
        let Some(page) = pages[schedule[op % SCHEDULE]].as_mut() else {
            failed += 1;
            phase.record(Duration::ZERO);
            continue;
        };
        let (latency, report, agrees) = if params.trace {
            paired_op(
                &mut tr,
                &mut counts,
                &mut page.serving,
                op,
                params.prefix,
                &mut untraced_us,
            )
        } else {
            let t0 = Instant::now();
            let report = page.serving.run_recycled(b"");
            (t0.elapsed(), report, true)
        };
        phase.record(latency);
        let want = &page.reference;
        let ok = agrees
            && report.success()
            && report.output == want.output
            && report.exec == want.exec
            && report.reset == want.reset;
        if !ok {
            failed += 1;
        }
        if op < params.prefix {
            sim.add_op(report.exec.cycles, page.vanilla_cycles);
        }
    }

    // The other half of the set-up repetitions, with the serving pages
    // dropped first so that they add nothing to peak memory.
    drop(pages);
    setup.run(params.setup_reps - before, &build_pages);

    let metrics = if params.trace {
        attempted += lineup::PROGRAMS as u64;
        failed += lineup::probe(&mut tr, &mut counts, lineup::BASELINE);
        per_layer(params, &tr, &counts, &untraced_us)
    } else {
        end_to_end(&phase, &setup, attempted, failed, &sim)
    };
    Outcome::new(attempted, failed, metrics, params.trace)
}

/// One traced request and its untraced twin, in an order that alternates
/// with `op` so that neither always runs second. The untraced
/// `run_recycled`'s latency goes to `untraced_us`; the traced request is
/// `Session::run` then `Session::reset` under an `op` span. Prefix ops
/// add their run and recycle counters to `counts`. Returns the traced
/// latency, the traced report (its `reset` the traced recycle's cost)
/// and whether status, output, `ExecStats` and `ResetStats` equal the
/// twin's.
fn paired_op(
    tr: &mut Tracer,
    counts: &mut Counts,
    session: &mut Session,
    op: usize,
    prefix: usize,
    untraced_us: &mut Vec<f64>,
) -> (Duration, RunReport, bool) {
    let mut untraced = |session: &mut Session| {
        let t0 = Instant::now();
        let report = session.run_recycled(b"");
        untraced_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report
    };
    let first = op.is_multiple_of(2).then(|| untraced(session));
    let id = op as u64;
    let span = tr.enter("op", id);
    let run = tr.enter("vm.run", id);
    let mut report = session.run(b"");
    let run_ns = tr.exit(run).as_nanos() as u64;
    tr.span("vm.reset", id, || session.reset());
    let latency = tr.exit(span);
    report.reset = session.last_reset_stats();
    let twin = first.unwrap_or_else(|| untraced(session));
    counts.add_run_time(run_ns, report.exec.insts);
    if op < prefix {
        counts.add_op(&report.exec, &report.reset);
    }
    let agrees = report.status == twin.status
        && report.output == twin.output
        && report.exec == twin.exec
        && report.reset == twin.reset;
    (latency, report, agrees)
}
