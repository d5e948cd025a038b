//! Engine comparison — the bytecode tier (fused and unfused) vs the
//! step-walking reference.
//!
//! Runs every `levee-workloads` kernel under three execution
//! configurations — the walker, the bytecode engine with
//! superinstruction fusion off, and with fusion on — and both a vanilla
//! and a CPI build, asserting **identical simulated cycle counts,
//! instruction counts and output** (the cost model is engine and
//! fusion independent), and reporting wall-clock speedups. Each
//! measurement is the minimum of several repetitions, which rejects
//! scheduler noise.
//!
//! The walk→bytecode speedup is bounded by how much of a kernel's
//! wall-clock goes to interpreter dispatch rather than to the
//! simulation work all engines share (cache model, memory image, frame
//! setup, intrinsic bodies); fusion then removes a further slice of
//! the remaining dispatch — one fetch/decode per fused pair — so its
//! win concentrates in tight-loop kernels (`dispatch`, `numeric`,
//! `vcall`) where compare+branch and gep+load pairs dominate.
//!
//! The only wall-clock gate is the bytecode tier's ≥1.4× aggregate
//! over the walker. Fusion's win (a few percent) is printed, not gated:
//! min-of-`REPS` wall-clock on a shared host swings more than that.
//! Whether fusion still fires is pinned exactly instead, by the planned
//! and dispatched superinstruction counts in
//! `crates/bench/baselines/profile_attribution.json`; the lineup's
//! instruction and cycle counts are recorded in `engine_compare.json`
//! next to it (see `levee_bench::drift`).
//!
//! Run with: `cargo run --release -p levee-bench --bin engine_compare`
//! (`--json` emits a machine-readable report; `--profile` additionally
//! runs each kernel with the execution profiler on, prints
//! per-opcode/per-function attribution, and gates the profiler's
//! invariants: attribution partitions the cycle count exactly, and
//! superinstruction dispatch counts are consistent with the fusion
//! planner).

use std::time::Instant;

use levee_bench::kernels::{KernelSpec, FUSION_KERNELS, KERNELS};
use levee_bench::profile::{checked_profile, print_profile};
use levee_bench::{BenchArgs, Table};
use levee_core::{BuildConfig, Session};
use levee_vm::{Engine, VmConfig};

/// Repetitions per (kernel, configuration); the minimum is reported.
const REPS: usize = 5;

/// Best-of-`REPS` wall-clock for one configuration; checks the run
/// every time. The session's resident machine serves every rep —
/// `Session::reset` re-arms it outside the timed window (bit-identical
/// to a fresh machine), and compile/fuse happens once via
/// `Session::precompile`.
fn measure(
    session: &mut Session,
    base: VmConfig,
    engine: Engine,
    fusion: bool,
) -> (f64, u64, u64, String) {
    session.reconfigure(|cfg| *cfg = base.with_engine(engine).with_fusion(fusion));
    session.precompile(); // one-time compile/fuse stays out of the timing
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    let mut insts = 0;
    let mut output = String::new();
    for _ in 0..REPS {
        session.reset();
        let t0 = Instant::now();
        let out = session.run(b"");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            out.success(),
            "kernel must exit cleanly under {engine:?}/fusion={fusion}, got {:?}",
            out.status
        );
        best = best.min(dt);
        cycles = out.exec.cycles;
        insts = out.exec.insts;
        output = out.output;
    }
    (best, cycles, insts, output)
}

/// The `--profile` pass for one kernel: re-runs it (fused bytecode,
/// profiler on, outside any timed window), prints the attribution
/// tables, and gates the profiler's invariants against the counters the
/// timed passes just measured.
fn profile_pass(
    session: &mut Session,
    base: VmConfig,
    spec: &KernelSpec,
    config: BuildConfig,
    timed_cycles: u64,
    timed_insts: u64,
) {
    session.reconfigure(|cfg| {
        *cfg = base
            .with_engine(Engine::Bytecode)
            .with_fusion(true)
            .with_profile(true)
    });
    session.precompile();
    let fuse = session
        .machine()
        .fuse_stats()
        .expect("bytecode tier compiled");
    let run = session.run(b"");
    let label = format!("{}/{}", config.name(), spec.name);
    assert!(run.success(), "{label}: profiled run must exit cleanly");
    // Cycle-neutrality: the profiled run reproduces the timed passes'
    // counters.
    assert_eq!(
        (run.exec.cycles, run.exec.insts),
        (timed_cycles, timed_insts),
        "{label}: profiler must be cycle-neutral"
    );
    print_profile(&label, checked_profile(&label, &run, &fuse));
}

fn main() {
    let args = BenchArgs::parse();
    let json = args.json;
    let mut totals = [0.0f64; 3]; // walk, bytecode unfused, bytecode fused
    let mut fusion_kernel_totals = [0.0f64; 2]; // unfused, fused on FUSION_KERNELS
    let mut json_rows = Vec::new();
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        if !json {
            println!("== build: {} ==", config.name());
        }
        let mut table = Table::new(&[
            "kernel",
            "insts",
            "cycles",
            "walk ms",
            "unfused ms",
            "fused ms",
            "bc speedup",
            "fusion speedup",
        ]);
        for spec in KERNELS {
            // One session per (kernel, build config): compiled once,
            // reconfigured per engine, machine reused across reps.
            let mut session = Session::builder()
                .source(&spec.program())
                .name(spec.name)
                .protection(config)
                .vm_config(VmConfig::default())
                .build()
                .unwrap_or_else(|e| panic!("kernel builds: {e}"));
            let base = session.vm_config();
            let (walk_ms, walk_cycles, walk_insts, walk_out) =
                measure(&mut session, base, Engine::Walk, false);
            let (unfused_ms, unfused_cycles, unfused_insts, unfused_out) =
                measure(&mut session, base, Engine::Bytecode, false);
            let (fused_ms, fused_cycles, fused_insts, fused_out) =
                measure(&mut session, base, Engine::Bytecode, true);
            assert_eq!(
                (walk_cycles, walk_cycles),
                (unfused_cycles, fused_cycles),
                "{}: cycle counts diverge",
                spec.name
            );
            assert_eq!(
                (walk_insts, walk_insts),
                (unfused_insts, fused_insts),
                "{}: instruction counts diverge",
                spec.name
            );
            assert_eq!(walk_out, unfused_out, "{}: output diverges", spec.name);
            assert_eq!(walk_out, fused_out, "{}: output diverges", spec.name);
            totals[0] += walk_ms;
            totals[1] += unfused_ms;
            totals[2] += fused_ms;
            if FUSION_KERNELS.contains(&spec.name) {
                fusion_kernel_totals[0] += unfused_ms;
                fusion_kernel_totals[1] += fused_ms;
            }
            table.row(vec![
                spec.name.into(),
                walk_insts.to_string(),
                walk_cycles.to_string(),
                format!("{walk_ms:.2}"),
                format!("{unfused_ms:.2}"),
                format!("{fused_ms:.2}"),
                format!("{:.2}x", walk_ms / fused_ms),
                format!("{:.2}x", unfused_ms / fused_ms),
            ]);
            json_rows.push(format!(
                "    {{\"build\": \"{}\", \"kernel\": \"{}\", \"insts\": {}, \"cycles\": {}, \
                 \"walk_ms\": {:.3}, \"unfused_ms\": {:.3}, \"fused_ms\": {:.3}}}",
                config.name(),
                spec.name,
                walk_insts,
                walk_cycles,
                walk_ms,
                unfused_ms,
                fused_ms,
            ));
            if args.profile {
                profile_pass(&mut session, base, spec, config, walk_cycles, walk_insts);
            }
        }
        if !json {
            table.print();
            println!();
        }
    }
    let bc_speedup = totals[0] / totals[2];
    let fusion_speedup = totals[1] / totals[2];
    let fusion_hot_speedup = fusion_kernel_totals[0] / fusion_kernel_totals[1];
    if json {
        println!("{{");
        println!("  \"reps\": {REPS},");
        println!("  \"rows\": [");
        println!("{}", json_rows.join(",\n"));
        println!("  ],");
        println!("  \"aggregate\": {{");
        println!("    \"walk_ms\": {:.3},", totals[0]);
        println!("    \"unfused_ms\": {:.3},", totals[1]);
        println!("    \"fused_ms\": {:.3},", totals[2]);
        println!("    \"bc_speedup\": {bc_speedup:.3},");
        println!("    \"fusion_speedup\": {fusion_speedup:.3},");
        println!("    \"fusion_hot_kernel_speedup\": {fusion_hot_speedup:.3}");
        println!("  }}");
        println!("}}");
    } else {
        println!(
            "aggregate: walk {:.1} ms, bytecode unfused {:.1} ms, fused {:.1} ms — \
             {bc_speedup:.2}x over walk, fusion {fusion_speedup:.2}x over unfused \
             ({fusion_hot_speedup:.2}x on {FUSION_KERNELS:?}) at identical cycle counts",
            totals[0], totals[1], totals[2]
        );
    }
    assert!(
        bc_speedup >= 1.4,
        "bytecode engine regressed: expected >=1.4x aggregate over walk, got {bc_speedup:.2}x"
    );
}
