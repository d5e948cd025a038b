//! Randomized differential testing of the execution tiers.
//!
//! A property-based generator produces random (but always valid,
//! always terminating) mini-C programs — straight-line arithmetic,
//! nested branches, bounded loops, gep/load/store traffic against
//! global arrays, stack scalars and heap blocks, direct calls, and
//! indirect calls through a mutable function-pointer table — builds
//! each under a randomly drawn protection configuration, and runs it
//! under all four (engine × fusion) configurations:
//!
//! * walker, fusion off          (the reference semantics)
//! * walker, fusion on           (fusion must be a no-op here)
//! * bytecode, fusion off        (the PR-1 differential claim)
//! * bytecode, fusion on         (the superinstruction tier)
//! * bytecode, fusion on, profiler on  (profiling is host-side
//!   observation: every counter must be bit-identical with it on)
//! * bytecode, fusion on, snapshot-recycled  (run → copy-on-write
//!   snapshot reset → run → reset again on one machine: recycling must
//!   replay bit-identically against a fresh boot, and both resets must
//!   report the same cost)
//!
//! …and the whole lineup repeats for every safe-pointer-store
//! organization (`DIFF_FUZZ_STORES` selects a subset by name, e.g.
//! `DIFF_FUZZ_STORES=array-2M,hashtable`; default all four). Random
//! cases draw their build configuration from the full seven-config
//! roster — vanilla, safestack, CPS, CPI, SoftBound, PAC, PACTight —
//! or the `DIFF_FUZZ_CONFIGS` subset (e.g.
//! `DIFF_FUZZ_CONFIGS=PAC,PACTight`). Every
//! observable — output, exit status/trap, simulated cycle, instruction,
//! memory-op, check, cache and call counters — must be bit-identical
//! across the four engine configurations *within* each store kind.
//! Across store kinds only locality-dependent counters (cycles, cache,
//! page faults) may differ: status, output and the architectural
//! counters (instructions, memory ops, CPI ops, checks, calls) must
//! agree store-for-store too, which pins the compact-slot store
//! geometry as cost-model-only. Programs are free to trap (wild
//! indexes, division, clobbered function-pointer tables, fuel
//! exhaustion): a trap is just another observable that must agree.
//!
//! Cases come from the vendored deterministic proptest harness, so a
//! CI failure always reproduces locally; the panic message carries the
//! full generated source. A fixed seed corpus pins down regressions
//! that random search once found or that were hand-written against the
//! fusion tier (fuel cutoffs *between* the two halves of a fused pair,
//! traps out of each superinstruction, setjmp/longjmp across fused
//! code).

use levee_core::{build_source, BuildConfig};
use levee_vm::{Engine, Machine, RunOutcome, StoreKind, VmConfig};
use proptest::prelude::*;

// ---- deterministic program generator -----------------------------------

/// SplitMix64 — the generator's private stream, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Emits one random program. All control flow is structurally bounded
/// (loops count up to a constant < 10, no recursion), so every program
/// terminates; memory accesses are *mostly* masked into bounds, with a
/// deliberate sprinkling of wild indexes so trap paths get fuzzed too.
struct Gen {
    rng: Rng,
    src: String,
    /// Scalars in scope (loop counters enter and leave).
    vars: Vec<String>,
    /// Loop nesting depth (bounds loop-var names and nesting).
    loops: usize,
    /// Statements left to emit (shared budget across nesting).
    budget: usize,
    /// Emitting a helper body (no calls — keeps the call graph acyclic).
    in_helper: bool,
}

impl Gen {
    fn program(seed: u64) -> String {
        let mut g = Gen {
            rng: Rng(seed),
            src: String::new(),
            vars: Vec::new(),
            loops: 0,
            budget: 0,
            in_helper: false,
        };
        g.emit_program();
        g.src
    }

    fn emit_program(&mut self) {
        self.src.push_str(
            "long g0[16];\nlong g1[16];\nlong gs0;\nlong gs1;\n\
             long* hp;\n",
        );
        for f in 0..4 {
            self.src
                .push_str(&format!("long f{f}(long a, long b) {{\n"));
            self.vars = vec!["a".into(), "b".into(), "t".into()];
            self.src
                .push_str("    long t = 0;\n    long i0 = 0;\n    long i1 = 0;\n");
            self.in_helper = true;
            self.budget = 3 + self.rng.below(6) as usize;
            let stmts = self.budget;
            self.block(stmts, 1);
            self.in_helper = false;
            let ret = self.expr(2);
            self.src.push_str(&format!("    return {ret};\n}}\n"));
        }
        self.src.push_str(
            "long (*ftab[4])(long, long) = {f0, f1, f2, f3};\n\
             int main() {\n",
        );
        self.vars = (0..4).map(|i| format!("v{i}")).collect();
        for i in 0..4 {
            let c = self.rng.below(1000) as i64 - 500;
            self.src.push_str(&format!("    long v{i} = {c};\n"));
        }
        self.src
            .push_str("    long i0 = 0;\n    long i1 = 0;\n    hp = (long*)malloc(128);\n");
        self.budget = 8 + self.rng.below(18) as usize;
        let stmts = self.budget;
        self.block(stmts, 1);
        let (a, b) = (self.expr(2), self.expr(2));
        self.src.push_str(&format!(
            "    print_int((int)((v0 ^ v1 ^ v2 ^ v3 ^ gs0 ^ gs1 ^ g0[3] ^ g1[11] \
             ^ hp[5] ^ ({a}) ^ ({b})) & 65535));\n    return 0;\n}}\n",
        ));
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..=depth {
            self.src.push_str("    ");
        }
    }

    /// Emits up to `n` statements at the given indent depth.
    fn block(&mut self, n: usize, depth: usize) {
        for _ in 0..n {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.stmt(depth);
        }
    }

    fn stmt(&mut self, depth: usize) {
        let roll = self.rng.below(if self.in_helper { 70 } else { 100 });
        match roll {
            // Scalar assignment.
            0..=19 => {
                let v = self.var();
                let e = self.expr(3);
                self.indent(depth);
                self.src.push_str(&format!("{v} = {e};\n"));
            }
            // Array / heap stores, mostly masked, occasionally wild.
            20..=37 => {
                let slot = self.slot();
                let e = self.expr(3);
                self.indent(depth);
                self.src.push_str(&format!("{slot} = {e};\n"));
            }
            // Scalar global store.
            38..=44 => {
                let g = if self.rng.chance(50) { "gs0" } else { "gs1" };
                let e = self.expr(3);
                self.indent(depth);
                self.src.push_str(&format!("{g} = {e};\n"));
            }
            // if / if-else.
            45..=54 => {
                let (a, b) = (self.expr(2), self.expr(2));
                let rel = ["<", "<=", ">", ">=", "==", "!="][self.rng.below(6) as usize];
                self.indent(depth);
                self.src.push_str(&format!("if (({a}) {rel} ({b})) {{\n"));
                let n = 1 + self.rng.below(3) as usize;
                self.block(n, depth + 1);
                if self.rng.chance(50) {
                    self.indent(depth);
                    self.src.push_str("} else {\n");
                    let n = 1 + self.rng.below(2) as usize;
                    self.block(n, depth + 1);
                }
                self.indent(depth);
                self.src.push_str("}\n");
            }
            // Bounded counting loop (nesting capped at 2).
            55..=64 => {
                if self.loops >= 2 {
                    let v = self.var();
                    let e = self.expr(2);
                    self.indent(depth);
                    self.src.push_str(&format!("{v} = {e};\n"));
                    return;
                }
                let i = format!("i{}", self.loops);
                let trips = 2 + self.rng.below(7);
                self.indent(depth);
                self.src
                    .push_str(&format!("for ({i} = 0; {i} < {trips}; {i} = {i} + 1) {{\n"));
                self.loops += 1;
                self.vars.push(i.clone());
                let n = 1 + self.rng.below(4) as usize;
                self.block(n, depth + 1);
                self.vars.pop();
                self.loops -= 1;
                self.indent(depth);
                self.src.push_str("}\n");
            }
            // print (observable mid-run, so partial output before a
            // trap is part of the differential).
            65..=69 => {
                let e = self.expr(2);
                self.indent(depth);
                self.src
                    .push_str(&format!("print_int((int)(({e}) & 4095));\n"));
            }
            // Direct call (main only).
            70..=81 => {
                let v = self.var();
                let f = self.rng.below(4);
                let (a, b) = (self.expr(2), self.expr(2));
                self.indent(depth);
                self.src.push_str(&format!("{v} = f{f}({a}, {b});\n"));
            }
            // Indirect call through the table (main only).
            82..=93 => {
                let v = self.var();
                let idx = self.expr(2);
                let (a, b) = (self.expr(2), self.expr(2));
                self.indent(depth);
                self.src
                    .push_str(&format!("{v} = ftab[({idx}) & 3]({a}, {b});\n"));
            }
            // Retarget a table slot — a sensitive pointer store under
            // CPS/CPI (main only).
            _ => {
                let idx = self.rng.below(4);
                let f = self.rng.below(4);
                self.indent(depth);
                self.src.push_str(&format!("ftab[{idx}] = f{f};\n"));
            }
        }
    }

    /// A (possibly wild) memory slot usable as an lvalue or an rvalue.
    fn slot(&mut self) -> String {
        let idx = self.expr(1);
        match self.rng.below(100) {
            0..=39 => format!("g{}[({idx}) & 15]", self.rng.below(2)),
            40..=69 => format!("hp[({idx}) & 15]"),
            // Wild: a constant offset past the end — lands in a
            // neighboring object or unmapped memory, deterministically.
            70..=79 => format!("g0[{}]", 16 + self.rng.below(6)),
            80..=89 => format!("hp[({idx}) & 31]"),
            _ => format!("g1[({idx}) & 15]"),
        }
    }

    fn var(&mut self) -> String {
        self.vars[self.rng.below(self.vars.len() as u64) as usize].clone()
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.chance(35) {
            return self.leaf();
        }
        let a = self.expr(depth - 1);
        let b = self.expr(depth - 1);
        match self.rng.below(100) {
            0..=17 => format!("({a} + {b})"),
            18..=33 => format!("({a} - {b})"),
            34..=45 => format!("({a} * {b})"),
            46..=55 => format!("({a} & {b})"),
            56..=65 => format!("({a} | {b})"),
            66..=75 => format!("({a} ^ {b})"),
            76..=83 => format!("({a} << ({b} & 7))"),
            84..=91 => format!("({a} >> ({b} & 7))"),
            // Mostly-safe division; the rare raw divisor fuzzes the
            // DivByZero trap path.
            92..=96 => format!("({a} / (({b} & 7) + 1))"),
            97..=98 => format!("({a} % (({b} & 7) + 1))"),
            _ => format!("({a} / ({b} & 3))"),
        }
    }

    fn leaf(&mut self) -> String {
        match self.rng.below(100) {
            0..=34 => self.var(),
            35..=54 => format!("{}", self.rng.below(64) as i64 - 16),
            55..=69 => {
                let idx = self.var();
                format!("g{}[({idx}) & 15]", self.rng.below(2))
            }
            70..=79 => {
                let idx = self.var();
                format!("hp[({idx}) & 15]")
            }
            80..=89 => if self.rng.chance(50) { "gs0" } else { "gs1" }.into(),
            _ => format!("{}", self.rng.below(10_000)),
        }
    }
}

// ---- the differential harness ------------------------------------------

const ALL_CONFIGS: &[BuildConfig] = &[
    BuildConfig::Vanilla,
    BuildConfig::SafeStack,
    BuildConfig::Cps,
    BuildConfig::Cpi,
    BuildConfig::SoftBound,
    BuildConfig::Pac,
    BuildConfig::PacTight,
];

/// Build configurations to fuzz: `DIFF_FUZZ_CONFIGS` is a
/// comma-separated list of configuration names (`vanilla`, `safestack`,
/// `CPS`, `CPI`, `SoftBound`, `PAC`, `PACTight`) or `all`; unset
/// defaults to all seven.
fn fuzz_configs() -> Vec<BuildConfig> {
    match std::env::var("DIFF_FUZZ_CONFIGS") {
        Err(_) => ALL_CONFIGS.to_vec(),
        Ok(s) if s == "all" || s.is_empty() => ALL_CONFIGS.to_vec(),
        Ok(s) => s
            .split(',')
            .map(|name| {
                *ALL_CONFIGS
                    .iter()
                    .find(|c| c.name() == name.trim())
                    .unwrap_or_else(|| {
                        panic!(
                            "DIFF_FUZZ_CONFIGS: unknown configuration {name:?} (want one of \
                             vanilla, safestack, CPS, CPI, SoftBound, PAC, PACTight)"
                        )
                    })
            })
            .collect(),
    }
}

/// The (engine × fusion × profiler) configurations under test.
const LINEUP: [(Engine, bool, bool, &str); 5] = [
    (Engine::Walk, false, false, "walk/unfused"),
    (Engine::Walk, true, false, "walk/fused"),
    (Engine::Bytecode, false, false, "bytecode/unfused"),
    (Engine::Bytecode, true, false, "bytecode/fused"),
    (Engine::Bytecode, true, true, "bytecode/fused profile-on"),
];

/// Store organizations to fuzz: `DIFF_FUZZ_STORES` is a comma-separated
/// list of organization names (`array-4K`, `array-2M`, `two-level`,
/// `hashtable`) or `all`; unset defaults to all four.
fn fuzz_stores() -> Vec<StoreKind> {
    match std::env::var("DIFF_FUZZ_STORES") {
        Err(_) => StoreKind::all().to_vec(),
        Ok(s) if s == "all" || s.is_empty() => StoreKind::all().to_vec(),
        Ok(s) => s
            .split(',')
            .map(|name| {
                *StoreKind::all()
                    .iter()
                    .find(|k| k.name() == name.trim())
                    .unwrap_or_else(|| {
                        panic!("DIFF_FUZZ_STORES: unknown organization {name:?} (want one of array-4K, array-2M, two-level, hashtable)")
                    })
            })
            .collect(),
    }
}

/// Builds `src` under `config` and runs it under the full engine ×
/// fusion lineup for every selected store organization, asserting all
/// observables are bit-identical within each organization — and that
/// status, output and the architectural counters also agree *across*
/// organizations (only cycles/cache/page-fault counters may depend on
/// store geometry). `fuel` bounds the run (small values probe the
/// out-of-fuel cutoff, including between the halves of a fused pair).
fn differential(src: &str, config: BuildConfig, fuel: u64, what: &str) {
    let built = build_source(src, "fuzz", config).unwrap_or_else(|e| {
        panic!(
            "{what}: generated program failed to build under {}: {e}\n--- source ---\n{src}",
            config.name()
        )
    });
    let mut base = built.vm_config(VmConfig::default());
    base.max_insts = fuel;
    let mut across: Option<(RunOutcome, StoreKind)> = None;
    for store in fuzz_stores() {
        base.store_kind = store;
        let runs: Vec<(RunOutcome, &str)> = LINEUP
            .iter()
            .map(|&(engine, fusion, profile, name)| {
                let cfg = base
                    .with_engine(engine)
                    .with_fusion(fusion)
                    .with_profile(profile);
                let mut vm = Machine::new(&built.module, cfg);
                (vm.run(b""), name)
            })
            .collect();
        let (reference, ref_name) = &runs[0];
        for (run, name) in &runs[1..] {
            let agree = run.status == reference.status
                && run.output == reference.output
                && run.stats.cycles == reference.stats.cycles
                && run.stats.insts == reference.stats.insts
                && run.stats.mem_ops == reference.stats.mem_ops
                && run.stats.cpi_mem_ops == reference.stats.cpi_mem_ops
                && run.stats.checks == reference.stats.checks
                && run.stats.cache_hits == reference.stats.cache_hits
                && run.stats.cache_misses == reference.stats.cache_misses
                && run.stats.pac_signs == reference.stats.pac_signs
                && run.stats.pac_auths == reference.stats.pac_auths
                && run.stats.calls == reference.stats.calls;
            assert!(
                agree,
                "{what} under {} store {} fuel {fuel}: {name} diverged from {ref_name}\n\
                 {ref_name}: {:?} cycles {} insts {} out {:?}\n\
                 {name}: {:?} cycles {} insts {} out {:?}\n--- source ---\n{src}",
                config.name(),
                store.name(),
                reference.status,
                reference.stats.cycles,
                reference.stats.insts,
                reference.output,
                run.status,
                run.stats.cycles,
                run.stats.insts,
                run.output,
            );
        }
        // Snapshot-recycled twin: run the fused bytecode configuration
        // twice through one machine with a copy-on-write snapshot reset
        // between the runs. The recycled second run must be
        // bit-identical to a fresh machine's — the reset restores the
        // post-load memory image, safe-pointer store, heap clock and
        // provenance arena exactly (see `levee_vm::mem::Memory`).
        {
            let cfg = base.with_engine(Engine::Bytecode).with_fusion(true);
            let mut vm = Machine::new(&built.module, cfg);
            vm.run(b"");
            vm.reset();
            assert!(
                vm.last_reset_stats().used_snapshot,
                "{what}: default reset must take the snapshot path"
            );
            let recycled = vm.run(b"");
            // A second recycle must cost exactly what the first did: a
            // restore that failed to re-share a page would leave it
            // private and change `pages_dirtied` here.
            let first_reset = vm.last_reset_stats();
            vm.reset();
            assert_eq!(
                vm.last_reset_stats(),
                first_reset,
                "{what} under {} store {} fuel {fuel}: the second recycle cost differently\n\
                 --- source ---\n{src}",
                config.name(),
                store.name(),
            );
            let agree = recycled.status == reference.status
                && recycled.output == reference.output
                && recycled.stats.cycles == reference.stats.cycles
                && recycled.stats.insts == reference.stats.insts
                && recycled.stats.mem_ops == reference.stats.mem_ops
                && recycled.stats.cpi_mem_ops == reference.stats.cpi_mem_ops
                && recycled.stats.checks == reference.stats.checks
                && recycled.stats.cache_hits == reference.stats.cache_hits
                && recycled.stats.cache_misses == reference.stats.cache_misses
                && recycled.stats.pac_signs == reference.stats.pac_signs
                && recycled.stats.pac_auths == reference.stats.pac_auths
                && recycled.stats.calls == reference.stats.calls;
            assert!(
                agree,
                "{what} under {} store {} fuel {fuel}: snapshot-recycled run diverged from fresh\n\
                 fresh: {:?} cycles {} insts {} out {:?}\n\
                 recycled: {:?} cycles {} insts {} out {:?}\n--- source ---\n{src}",
                config.name(),
                store.name(),
                reference.status,
                reference.stats.cycles,
                reference.stats.insts,
                reference.output,
                recycled.status,
                recycled.stats.cycles,
                recycled.stats.insts,
                recycled.output,
            );
        }
        // Store geometry must be cost-model-only: semantics and
        // architectural counters agree with the first organization run.
        if let Some((first, first_kind)) = &across {
            let agree = reference.status == first.status
                && reference.output == first.output
                && reference.stats.insts == first.stats.insts
                && reference.stats.mem_ops == first.stats.mem_ops
                && reference.stats.cpi_mem_ops == first.stats.cpi_mem_ops
                && reference.stats.checks == first.stats.checks
                && reference.stats.pac_signs == first.stats.pac_signs
                && reference.stats.pac_auths == first.stats.pac_auths
                && reference.stats.calls == first.stats.calls;
            assert!(
                agree,
                "{what} under {} fuel {fuel}: store {} diverged architecturally from {}\n\
                 {}: {:?} insts {} out {:?}\n{}: {:?} insts {} out {:?}\n--- source ---\n{src}",
                config.name(),
                store.name(),
                first_kind.name(),
                first_kind.name(),
                first.status,
                first.stats.insts,
                first.output,
                store.name(),
                reference.status,
                reference.stats.insts,
                reference.output,
            );
        } else {
            across = Some((reference.clone(), store));
        }
    }
}

/// Default proptest case count. The store matrix multiplied the work
/// per case by four, so debug builds (the local `cargo test` loop)
/// default to a quarter of the release count — total differential work
/// stays what it was before the matrix — while release runs (CI's
/// `diff-fuzz` job) take the full 1000 cases × 4 organizations.
/// `DIFF_FUZZ_CASES` overrides either.
const DEFAULT_CASES: u32 = if cfg!(debug_assertions) { 250 } else { 1000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("DIFF_FUZZ_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_CASES)
    ))]

    /// The headline property: 1000 random programs (release default;
    /// override with `DIFF_FUZZ_CASES`), each run under all four
    /// engine × fusion configurations on every selected store
    /// organization, must be observably identical — output, traps, and
    /// every simulated counter.
    #[test]
    fn random_programs_agree_across_engines_and_fusion(
        seed in proptest::arbitrary::any::<u64>(),
        // 420 = lcm(1..=7): uniform over any `DIFF_FUZZ_CONFIGS` subset.
        cfg in 0usize..420,
        fuel_roll in 0u64..100,
        tiny_fuel in 300u64..4000,
    ) {
        let src = Gen::program(seed);
        // One build config per case (all seven covered many times over
        // the run, or the `DIFF_FUZZ_CONFIGS` subset); ~1 case in 8
        // runs on a tiny fuel budget so the OutOfFuel cutoff lands at
        // arbitrary points, fused pairs included.
        let configs = fuzz_configs();
        let fuel = if fuel_roll < 12 { tiny_fuel } else { 2_000_000 };
        differential(&src, configs[cfg % configs.len()], fuel, "random program");
    }
}

// ---- seed corpus -------------------------------------------------------

/// Hand-written regressions: each exercises a path where the fusion
/// tier could plausibly diverge, under every build config and the full
/// lineup.
#[test]
fn corpus_regressions() {
    let corpus: &[(&str, &str)] = &[
        (
            "trap out of a fused gep+load (wild index walk)",
            r#"
            long a[16];
            int main() {
                long i; long acc = 0;
                for (i = 0; i < 2000; i = i + 1) {
                    acc = acc + a[i * 37];
                }
                print_int((int)acc);
                return 0;
            }
            "#,
        ),
        (
            "trap out of a fused gep+store",
            r#"
            long a[16];
            int main() {
                long i;
                for (i = 0; i < 3000; i = i + 1) { a[i * 53] = i; }
                print_int((int)a[1]);
                return 0;
            }
            "#,
        ),
        (
            "indirect call through a clobbered table entry",
            r#"
            long f0(long x) { return x + 1; }
            long (*tab[2])(long) = {f0, f0};
            long junk[1];
            int main() {
                long i; long acc = 0;
                for (i = 0; i < 8; i = i + 1) {
                    if (i == 5) { junk[1] = 12345; }
                    acc = acc + tab[i & 1](i);
                }
                print_int((int)acc);
                return 0;
            }
            "#,
        ),
        (
            "division trap after partial output",
            r#"
            int main() {
                long i;
                for (i = 4; i >= 0; i = i - 1) {
                    print_int((int)(100 / i));
                }
                return 0;
            }
            "#,
        ),
        (
            "setjmp/longjmp across fused loops",
            r#"
            long jb[4];
            long a[8];
            int main() {
                long i; long acc = 0;
                long r = setjmp((void*)jb);
                for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + r + 1; acc = acc + a[i]; }
                print_int((int)acc);
                if (r < 3) { longjmp((void*)jb, r + 1); }
                return (int)r;
            }
            "#,
        ),
        (
            "safe memcpy surrounded by fusible pairs",
            r#"
            struct cb { void (*f)(int); long pad[3]; };
            void h(int x) { print_int(x); }
            int main() {
                struct cb a;
                struct cb b;
                long i;
                a.f = h;
                for (i = 0; i < 3; i = i + 1) { a.pad[i] = i * 7; }
                memcpy((void*)&b, (void*)&a, sizeof(struct cb));
                long acc = 0;
                for (i = 0; i < 3; i = i + 1) { acc = acc + b.pad[i]; }
                b.f((int)acc);
                return 0;
            }
            "#,
        ),
    ];
    for (what, src) in corpus {
        for config in ALL_CONFIGS {
            differential(src, *config, 2_000_000, what);
        }
    }
}

/// Scans a window of fuel limits over a tight fused loop so the cutoff
/// lands on *every* position relative to the fused cmp+branch pair —
/// including exactly between its two constituents. Instruction counts,
/// cycles and the trap itself must stay identical.
#[test]
fn fuel_cutoff_lands_identically_at_every_offset() {
    let src = r#"
        long a[8];
        int main() {
            long i; long acc = 0;
            for (i = 0; i < 1000; i = i + 1) { a[i & 7] = acc; acc = acc + a[(i + 1) & 7]; }
            print_int((int)acc);
            return 0;
        }
    "#;
    for config in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        for fuel in 40..140 {
            differential(src, config, fuel, "fuel scan");
        }
    }
}
