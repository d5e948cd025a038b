//! The `engine_compare` kernel lineup: every kernel at its recorded
//! iteration count, under vanilla and CPI. A traced run executes each
//! program once for the `vm.ns_per_inst.<kernel>` rows — the bytecode
//! dispatch loop on ops of millions of simulated instructions, and
//! resident safe-store lookups in the CPI half.

use levee_bench::json::Json;
use levee_bench::kernels::KERNELS;
use levee_core::{BuildConfig, LeveeError, Session};
use levee_vm::VmConfig;

use crate::layers::Counts;
use crate::trace::Tracer;

/// Programs of the lineup: every kernel under vanilla and CPI.
pub const PROGRAMS: usize = KERNELS.len() * 2;

/// The recorded simulated counters every run must reproduce.
pub const BASELINE: &str = include_str!("../../crates/bench/baselines/engine_compare.json");

/// One program of the lineup.
pub struct Program {
    /// Index into [`KERNELS`].
    pub kernel: usize,
    pub config: BuildConfig,
    pub source: String,
}

impl Program {
    pub fn name(&self) -> &'static str {
        KERNELS[self.kernel].name
    }

    /// A session configured as `engine_compare` configures it, so its
    /// counters are comparable with the recorded baseline.
    pub fn session(&self) -> Result<Session, LeveeError> {
        Session::builder()
            .source(&self.source)
            .name(self.name())
            .protection(self.config)
            .vm_config(VmConfig::default())
            .build()
    }
}

/// The lineup, kernel-major: program `2k` is kernel `k` vanilla, `2k+1`
/// the same kernel under CPI.
pub fn programs() -> Vec<Program> {
    let mut programs = Vec::with_capacity(PROGRAMS);
    for (kernel, spec) in KERNELS.iter().enumerate() {
        for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
            programs.push(Program {
                kernel,
                config,
                source: spec.program(),
            });
        }
    }
    programs
}

/// Each program's recorded `(insts, cycles)` from `baseline`, an
/// `engine_compare.json` document.
pub fn expected_counters(baseline: &str) -> Result<Vec<(u64, u64)>, String> {
    let doc = Json::parse(baseline).map_err(|e| e.to_string())?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("baseline has no rows")?;
    programs()
        .iter()
        .map(|p| {
            let row = rows
                .iter()
                .find(|r| {
                    r.get("build").and_then(Json::as_str) == Some(p.config.name())
                        && r.get("kernel").and_then(Json::as_str) == Some(p.name())
                })
                .ok_or_else(|| format!("no baseline row for {} {}", p.config.name(), p.name()))?;
            let field = |key: &str| {
                row.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("baseline row {} has no {key}", p.name()))
            };
            Ok((field("insts")?, field("cycles")?))
        })
        .collect()
}

/// Runs each program once on its own precompiled session, timing the
/// run into `counts`' per-kernel rows. A run fails unless it exits
/// cleanly with the instruction and cycle counts `baseline` records for
/// it and the same output as the other build of its kernel. Returns the
/// number of runs that failed.
pub fn probe(tr: &mut Tracer, counts: &mut Counts, baseline: &str) -> u64 {
    let expected = expected_counters(baseline).expect("a baseline row for every program");
    let mut outputs: Vec<Option<String>> = vec![None; KERNELS.len()];
    let mut failed = 0;
    for (i, program) in programs().iter().enumerate() {
        let Ok(mut session) = program.session() else {
            failed += 1;
            continue;
        };
        session.precompile();
        let span = tr.enter("probe.vm.run", 1_000_000 + i as u64);
        let report = session.run(b"");
        let ns = tr.exit(span).as_nanos() as u64;
        counts.add_kernel_time(program.kernel, ns, report.exec.insts);
        let output = outputs[program.kernel].get_or_insert_with(|| report.output.clone());
        let ok = report.success()
            && (report.exec.insts, report.exec.cycles) == expected[i]
            && *output == report.output;
        if !ok {
            failed += 1;
        }
    }
    failed
}
