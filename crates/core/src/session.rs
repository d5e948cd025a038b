//! `Session` — the embedding front door: build a protected program once,
//! keep a resident machine, run it many times.
//!
//! The paper pitches CPI as a *drop-in* pipeline: "one just needs to
//! pass additional flags to the compiler" (§4). This module is that
//! pitch as an API. A [`Session`] owns the whole source → [`Built`]
//! module → [`VmConfig`] derivation → resident [`Machine`] chain that
//! every consumer used to re-wire by hand, and serves repeated runs
//! from the same machine via [`Machine::reset`] — proven bit-identical
//! to a fresh build by the `session` proptest suite.
//!
//! ```
//! use levee_core::{BuildConfig, Session};
//!
//! let mut session = Session::builder()
//!     .source("int main() { print_int(42); return 0; }")
//!     .protection(BuildConfig::Cpi)
//!     .build()
//!     .expect("valid mini-C");
//! let report = session.run(b"");
//! assert!(report.status.is_success());
//! assert_eq!(report.output, "42");
//! ```
//!
//! Configuration knobs mirror the driver's compiler flags
//! ([`BuildConfig`], see `driver.rs`) on the build side and the VM's
//! [`VmConfig`] (see `levee_vm::config`) on the execution side; the
//! session derives the latter from the former exactly as
//! [`Built::vm_config`] does, so CPI/CPS builds automatically protect
//! runtime-created code pointers.

use std::fmt;
use std::sync::Arc;

use levee_ir::verify::{verify_module, VerifyError};
use levee_ir::Module;
use levee_minic::CompileError;
use levee_vm::{
    json_str, Engine, ExecStats, ExitStatus, Machine, ProfileReport, ResetStats, StoreKind,
    VmConfig,
};

use crate::driver::{build_source, BuildConfig, Built};
use crate::stats::BuildStats;

/// The default deterministic seed of every session (layout
/// randomization, stack cookies, safe-region base). Historically the
/// workloads harness hard-coded this value; it is now the documented
/// API-wide default, overridden with [`SessionBuilder::seed`] or
/// wholesale via [`SessionBuilder::vm_config`].
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// Everything that can go wrong while building or running a session.
///
/// The embedding API never panics on malformed input: compile errors,
/// malformed hand-built modules, builder misuse and required-success
/// runs that trapped all surface here.
#[derive(Debug)]
pub enum LeveeError {
    /// The mini-C source failed to compile.
    Compile {
        /// The program name given to the builder.
        name: String,
        /// The frontend's error.
        error: CompileError,
    },
    /// A module given to [`SessionBuilder::module`] failed IR
    /// verification.
    Verify {
        /// The program name given to the builder.
        name: String,
        /// Every verification failure.
        errors: Vec<VerifyError>,
    },
    /// The builder was finished without a program (neither
    /// [`SessionBuilder::source`] nor [`SessionBuilder::module`]).
    NoProgram,
    /// A run that was required to exit cleanly (via
    /// [`Session::run_ok`]) trapped or exited nonzero.
    Run {
        /// The program name.
        name: String,
        /// How the run actually ended.
        status: ExitStatus,
        /// The output produced up to that point.
        output: String,
    },
}

impl fmt::Display for LeveeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeveeError::Compile { name, error } => {
                write!(f, "{name}: compile error: {error}")
            }
            LeveeError::Verify { name, errors } => {
                write!(f, "{name}: IR verification failed")?;
                for e in errors {
                    write!(f, "; {e}")?;
                }
                Ok(())
            }
            LeveeError::NoProgram => {
                write!(
                    f,
                    "session builder needs a program: call .source() or .module()"
                )
            }
            LeveeError::Run {
                name,
                status,
                output,
            } => {
                write!(f, "{name}: run did not exit cleanly: {status:?}")?;
                if !output.is_empty() {
                    write!(f, " (output: {output:?})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LeveeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeveeError::Compile { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The unified result of one [`Session::run`]: exit status, program
/// output, runtime statistics and the build statistics of the module
/// that produced them, plus the configuration axes every report table
/// keys on — one serializable struct where consumers used to pass
/// `(ExitStatus, String, ExecStats, BuildStats)` tuples around.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program name (from [`SessionBuilder::name`]).
    pub name: String,
    /// Protection configuration the module was built with.
    pub config: BuildConfig,
    /// Execution engine that served the run.
    pub engine: Engine,
    /// Safe-pointer-store organization.
    pub store: StoreKind,
    /// Whether superinstruction fusion was enabled.
    pub fusion: bool,
    /// The deterministic seed the run used.
    pub seed: u64,
    /// How the run ended.
    pub status: ExitStatus,
    /// Everything the program printed.
    pub output: String,
    /// Runtime counters (cycles are the "time" axis of every table).
    pub exec: ExecStats,
    /// Compile-time statistics (Table 2's FNUStack / MO data), shared
    /// with the session and every report it serves.
    pub build: Arc<BuildStats>,
    /// Execution profile of the run — per-opcode, per-function and
    /// per-check-site attribution (see [`ProfileReport`]). `None`
    /// unless the session was built with [`SessionBuilder::profile`]
    /// or `Machine::enable_profile` was called through
    /// [`Session::machine_mut`]. Profiling is a host-side observation:
    /// the run's simulated cycles, instruction counts, traps and touch
    /// sequences are bit-identical with the profiler on or off.
    pub profile: Option<ProfileReport>,
    /// What recycling the resident machine cost
    /// ([`Machine::last_reset_stats`]). For [`Session::run`] this is
    /// the lazy pre-run re-arm — pages dirtied by the *previous* run,
    /// all-zero for a session's first run. For [`Session::run_batch`]
    /// and [`crate::pool::SessionPool`] the machine is recycled
    /// eagerly after each run instead, so this is the post-run recycle
    /// cost of *this* request — a pure per-request value, independent
    /// of scheduling, which is what makes pool reports bit-identical
    /// to serial ones. `used_snapshot == false` whenever the loader
    /// path served the reset. Kept outside [`ExecStats`] so recycled
    /// runs stay bit-identical to fresh ones in every simulated
    /// counter.
    pub reset: ResetStats,
}

impl RunReport {
    /// True for a clean `exit(0)`.
    pub fn success(&self) -> bool {
        self.status.is_success()
    }

    /// Runtime overhead relative to `baseline`, in percent (simulated
    /// cycles — the "time" axis of every overhead table).
    pub fn overhead_pct(&self, baseline: &RunReport) -> f64 {
        self.exec.overhead_pct(&baseline.exec)
    }

    /// Memory overhead relative to `baseline`, in percent.
    pub fn memory_overhead_pct(&self, baseline: &RunReport) -> f64 {
        self.exec.memory_overhead_pct(&baseline.exec)
    }

    /// Safe-pointer-store memory as % of baseline residency (§5.2).
    pub fn store_overhead_pct(&self, baseline: &RunReport) -> f64 {
        self.exec.store_overhead_pct(&baseline.exec)
    }

    /// Renders the report as one JSON object — the shared machine-
    /// readable row every bench binary's `--json` mode emits.
    pub fn to_json(&self) -> String {
        let status = match &self.status {
            ExitStatus::Exited(c) => format!("{{\"exited\": {c}}}"),
            ExitStatus::Trapped(t) => format!("{{\"trapped\": {}}}", json_str(&format!("{t:?}"))),
        };
        let mut out = format!(
            "{{\"name\": {}, \"config\": {}, \"engine\": {}, \"store\": {}, \
             \"fusion\": {}, \"seed\": {}, \"status\": {status}, \"output\": {}, \
             \"cycles\": {}, \"insts\": {}, \"mem_ops\": {}, \"cpi_mem_ops\": {}, \
             \"checks\": {}, \"calls\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"pac_signs\": {}, \"pac_auths\": {}, \
             \"store_bytes\": {}, \"regular_bytes\": {}, \"build\": {{\
             \"funcs\": {}, \"unsafe_frames\": {}, \"mem_ops\": {}, \
             \"instrumented_mem_ops\": {}, \"checks\": {}, \"fn_checks\": {}, \
             \"fnustack\": {}, \"mo_fraction\": {}}}}}",
            json_str(&self.name),
            json_str(self.config.name()),
            json_str(self.engine.name()),
            json_str(self.store.name()),
            self.fusion,
            self.seed,
            json_str(&self.output),
            self.exec.cycles,
            self.exec.insts,
            self.exec.mem_ops,
            self.exec.cpi_mem_ops,
            self.exec.checks,
            self.exec.calls,
            self.exec.cache_hits,
            self.exec.cache_misses,
            self.exec.pac_signs,
            self.exec.pac_auths,
            self.exec.store_bytes,
            self.exec.regular_bytes,
            self.build.funcs,
            self.build.unsafe_frames,
            self.build.mem_ops,
            self.build.instrumented_mem_ops,
            self.build.checks,
            self.build.fn_checks,
            json_f64(self.build.fnustack(), 4),
            json_f64(self.build.mo_fraction(), 4),
        );
        // Splice the reset-cost object in before the closing brace so
        // the row stays one JSON object (the drift gate keys on these
        // counters in the webserver baseline).
        out.truncate(out.len() - 1);
        out.push_str(&format!(
            ", \"reset\": {{\"used_snapshot\": {}, \"pages_dirtied\": {}, \
             \"bytes_restored\": {}, \"store_bytes_restored\": {}, \
             \"meta_entries_dropped\": {}}}}}",
            self.reset.used_snapshot,
            self.reset.pages_dirtied,
            self.reset.bytes_restored,
            self.reset.store_bytes_restored,
            self.reset.meta_entries_dropped,
        ));
        if let Some(profile) = &self.profile {
            // Same splice for the profile object.
            out.truncate(out.len() - 1);
            out.push_str(", \"profile\": ");
            out.push_str(&profile.to_json());
            out.push('}');
        }
        out
    }
}

/// Formats a float as a JSON value with `decimals` fixed decimals,
/// mapping non-finite values to `null`: `NaN` (zero-baseline overhead
/// percentages, 0-function builds) and `±inf` (zero-elapsed rates)
/// would otherwise be emitted as the bare tokens `NaN`/`inf`, which
/// are not valid JSON. Public for the same reason as [`json_str`]:
/// bench binaries embedding computed floats in their `--json` rows
/// must stay well-formed on degenerate inputs.
pub fn json_f64(x: f64, decimals: usize) -> String {
    if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// A deferred configuration adjustment (see [`SessionBuilder::configure`]).
type ConfigTweak = Box<dyn FnOnce(&mut VmConfig)>;

/// Fluent constructor for [`Session`]; obtained from
/// [`Session::builder`].
///
/// The VM configuration starts from [`VmConfig::default`] with the
/// documented [`DEFAULT_SEED`]; individual knobs ([`store`], [`engine`],
/// [`fusion`], [`seed`], [`fuel`]) override single fields, while
/// [`vm_config`] replaces the whole base — *including the seed* — for
/// callers that already carry a configuration.
///
/// [`store`]: SessionBuilder::store
/// [`engine`]: SessionBuilder::engine
/// [`fusion`]: SessionBuilder::fusion
/// [`seed`]: SessionBuilder::seed
/// [`fuel`]: SessionBuilder::fuel
/// [`vm_config`]: SessionBuilder::vm_config
pub struct SessionBuilder {
    name: String,
    source: Option<String>,
    module: Option<Module>,
    protection: BuildConfig,
    vm: VmConfig,
    tweak: Option<ConfigTweak>,
}

impl SessionBuilder {
    fn new() -> Self {
        SessionBuilder {
            name: "program".to_string(),
            source: None,
            module: None,
            protection: BuildConfig::Vanilla,
            vm: VmConfig::default().with_seed(DEFAULT_SEED),
            tweak: None,
        }
    }

    /// Mini-C source to compile and protect. The usual entry point.
    pub fn source(mut self, src: &str) -> Self {
        self.source = Some(src.to_string());
        self
    }

    /// Program name used in reports and error messages.
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// A pre-lowered (and possibly externally instrumented) module,
    /// taken verbatim: the driver's protection passes do **not** run
    /// and the VM configuration is used exactly as given rather than
    /// derived — this is the escape hatch for baseline-defense
    /// deployments (`levee_defenses::Deployment::apply`) and hand-built
    /// IR. The module is still verified: [`SessionBuilder::build`]
    /// returns [`LeveeError::Verify`] for one that is malformed. Takes
    /// precedence over [`SessionBuilder::source`].
    pub fn module(mut self, module: Module) -> Self {
        self.module = Some(module);
        self
    }

    /// Protection configuration (the compiler flag: `-fcpi`, `-fcps`,
    /// `-fstack-protector-safe`, `-fsoftbound` or none). Defaults to
    /// [`BuildConfig::Vanilla`] — like the real compiler, protection is
    /// opt-in.
    pub fn protection(mut self, config: BuildConfig) -> Self {
        self.protection = config;
        self
    }

    /// Safe-pointer-store organization.
    pub fn store(mut self, store: StoreKind) -> Self {
        self.vm.store_kind = store;
        self
    }

    /// Execution engine (bytecode tier by default).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.vm.engine = engine;
        self
    }

    /// Superinstruction fusion in the bytecode tier (default on).
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.vm.fusion = fusion;
        self
    }

    /// Deterministic seed (layout randomization, cookies, safe-region
    /// base). Defaults to [`DEFAULT_SEED`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.vm.seed = seed;
        self
    }

    /// Fuel: maximum instructions before `Trap::OutOfFuel`.
    pub fn fuel(mut self, max_insts: u64) -> Self {
        self.vm.max_insts = max_insts;
        self
    }

    /// Execution profiling (default off). When on, every
    /// [`RunReport`] carries a [`ProfileReport`] with per-opcode,
    /// per-function and per-check-site attribution. Profiling never
    /// perturbs the simulation: cycles, instruction counts, traps and
    /// touch sequences are bit-identical with the profiler on or off.
    pub fn profile(mut self, profile: bool) -> Self {
        self.vm.profile = profile;
        self
    }

    /// Replaces the whole base [`VmConfig`] (seed included). For
    /// source-built sessions the build still derives its
    /// runtime-protection settings over this base, exactly as
    /// [`Built::vm_config`] does; for [`SessionBuilder::module`]
    /// sessions it is used verbatim.
    pub fn vm_config(mut self, config: VmConfig) -> Self {
        self.vm = config;
        self
    }

    /// Arbitrary last-word adjustment of the final [`VmConfig`],
    /// applied *after* the build derivation — for knobs without a
    /// dedicated builder method (isolation model, hardware model,
    /// ASLR). Calling it repeatedly composes: every registered closure
    /// runs, in registration order.
    pub fn configure(mut self, f: impl FnOnce(&mut VmConfig) + 'static) -> Self {
        self.tweak = Some(match self.tweak.take() {
            Some(prev) => Box::new(move |cfg| {
                prev(cfg);
                f(cfg);
            }),
            None => Box::new(f),
        });
        self
    }

    /// Compiles, protects and loads the program into a resident
    /// machine. Malformed source returns [`LeveeError::Compile`], a
    /// malformed verbatim module [`LeveeError::Verify`], and a builder
    /// without a program [`LeveeError::NoProgram`].
    pub fn build(self) -> Result<Session, LeveeError> {
        let (built, mut cfg) = match (self.module, self.source) {
            (Some(module), _) => {
                // Verbatim module: no passes, no config derivation, but
                // the VM and the bytecode compiler trust only verified IR.
                let errors = verify_module(&module);
                if !errors.is_empty() {
                    return Err(LeveeError::Verify {
                        name: self.name,
                        errors,
                    });
                }
                let built = Built {
                    module,
                    config: self.protection,
                    stats: BuildStats::default(),
                };
                (built, self.vm)
            }
            (None, Some(src)) => {
                let built = build_source(&src, &self.name, self.protection).map_err(|error| {
                    LeveeError::Compile {
                        name: self.name.clone(),
                        error,
                    }
                })?;
                let cfg = built.vm_config(self.vm);
                (built, cfg)
            }
            (None, None) => return Err(LeveeError::NoProgram),
        };
        if let Some(tweak) = self.tweak {
            tweak(&mut cfg);
        }
        Ok(Session::from_parts(self.name, built, cfg))
    }
}

/// A built program with a resident machine: the system's front door for
/// "run a protected program".
///
/// The session owns one loaded [`Machine`], whose load image owns the
/// built module, plus the build's protection level and statistics.
/// Every [`run`] serves a fresh program execution from that resident
/// machine — the first run uses it as loaded, later runs re-arm it
/// with [`Machine::reset`], which is bit-identical to a fresh machine
/// (store and provenance-table lifetimes stay coherent across the
/// reset; the compiled bytecode and attack goals survive). That makes
/// [`run_batch`] the cheap way to serve many inputs: one compile, one
/// module load, N executions.
///
/// The machine borrows nothing, so [`Session::machine_mut`] hands it
/// out for attack goals, attacker writes, the memory touch log and the
/// profiler.
///
/// [`run`]: Session::run
/// [`run_batch`]: Session::run_batch
pub struct Session {
    machine: Machine<'static>,
    protection: BuildConfig,
    stats: Arc<BuildStats>,
    name: String,
    ran: bool,
}

/// Sessions migrate whole into `SessionPool` worker threads; pin the
/// `Send` guarantee at compile time (it follows from
/// `Machine<'static>: Send`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    /// Starts a fluent builder.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Boots the machine on `built`'s module, moved into the load image.
    fn from_parts(name: String, built: Built, cfg: VmConfig) -> Session {
        let Built {
            module,
            config,
            stats,
        } = built;
        Session {
            machine: Machine::from_shared(Arc::new(module), cfg),
            protection: config,
            stats: Arc::new(stats),
            name,
            ran: false,
        }
    }

    /// Forks this session for another worker with [`Machine::fork`]:
    /// the load image (module and bytecode included), the build
    /// statistics and the copy-on-write snapshot pages are shared, all
    /// mutable state is private. The bytecode is compiled once for the
    /// session and all its forks: forking before the first compile is
    /// fine, since whichever of them compiles first does it for all.
    /// The fork is fully independent: it can run on another thread and
    /// never observes the original's writes.
    pub fn fork(&self) -> Session {
        Session {
            machine: self.machine.fork(),
            protection: self.protection,
            stats: Arc::clone(&self.stats),
            name: self.name.clone(),
            ran: self.ran,
        }
    }

    /// Runs the program to completion on the attacker-controlled input
    /// `payload`, serving the run from the resident machine (re-armed
    /// with [`Machine::reset`] on every run after the first).
    pub fn run(&mut self, input: &[u8]) -> RunReport {
        if self.ran {
            self.machine.reset();
        }
        self.ran = true;
        let reset = self.machine.last_reset_stats();
        let out = self.machine.run(input);
        let cfg = self.machine.config();
        RunReport {
            name: self.name.clone(),
            config: self.protection,
            engine: cfg.engine,
            store: cfg.store_kind,
            fusion: cfg.fusion,
            seed: cfg.seed,
            status: out.status,
            output: out.output,
            exec: out.stats,
            build: Arc::clone(&self.stats),
            profile: self.machine.profile_report(),
            reset,
        }
    }

    /// Like [`Session::run`], but requires a clean `exit(0)`: anything
    /// else becomes [`LeveeError::Run`] instead of a report the caller
    /// must remember to check.
    pub fn run_ok(&mut self, input: &[u8]) -> Result<RunReport, LeveeError> {
        let report = self.run(input);
        if report.success() {
            Ok(report)
        } else {
            Err(LeveeError::Run {
                name: report.name,
                status: report.status,
                output: report.output,
            })
        }
    }

    /// Runs every input through the resident machine — one compile, one
    /// module load, N executions, each bit-identical to a fresh
    /// session's run (the reuse claim the `session` proptest pins
    /// down).
    ///
    /// After each item the machine is recycled by [`Machine::reset`],
    /// which by default restores from the copy-on-write post-load
    /// snapshot captured at build time (`levee_vm::ResetMode::Snapshot`;
    /// the dirty-page tracking lives in `levee_vm::mem::Memory`): each
    /// recycle copies back only the pages, store entries and heap state
    /// the request dirtied — the fork-per-request serving model,
    /// without the fork. Each item's [`RunReport::reset`] reports its
    /// *own* recycle cost (see [`Session::run_recycled`]), so batch
    /// reports are a pure function of the request — bit-identical
    /// whether the batch is served serially or sharded across a
    /// [`crate::pool::SessionPool`].
    pub fn run_batch<I, B>(&mut self, inputs: I) -> Vec<RunReport>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        inputs
            .into_iter()
            .map(|input| self.run_recycled(input.as_ref()))
            .collect()
    }

    /// Runs one input and eagerly recycles the machine, stamping the
    /// report's [`RunReport::reset`] with the recycle cost of *this*
    /// request (rather than [`Session::run`]'s lazy pre-run re-arm,
    /// whose cost reflects the previous request). This is the serving
    /// step `run_batch` and the pool share: because every request is
    /// served from a pristine machine and reports its own dirt, the
    /// report is independent of what ran before it or on which worker.
    pub fn run_recycled(&mut self, input: &[u8]) -> RunReport {
        let mut report = self.run(input);
        self.machine.reset();
        self.ran = false;
        report.reset = self.machine.last_reset_stats();
        report
    }

    /// Rebuilds the resident machine under an adjusted copy of its
    /// configuration, on the same module allocation. The next
    /// [`Session::run`] starts from the freshly-loaded state; attack
    /// goals and the memory-trace setting do **not** carry over (they
    /// belong to the torn-down machine), while everything in the
    /// [`VmConfig`] — profiling included — does.
    pub fn reconfigure(&mut self, f: impl FnOnce(&mut VmConfig)) {
        let mut cfg = *self.machine.config();
        f(&mut cfg);
        self.machine = Machine::from_shared(Arc::clone(self.machine.module()), cfg);
        self.ran = false;
    }

    /// Re-arms the resident machine to its freshly-loaded state without
    /// running — for callers that time [`Session::run`] and want the
    /// reset cost outside the measured window.
    pub fn reset(&mut self) {
        self.machine.reset();
        self.ran = false;
    }

    /// Compiles (and fuses, if enabled) the bytecode ahead of the first
    /// run, so one-time compilation stays out of timed windows. The
    /// compile is shared with every fork of this session.
    pub fn precompile(&mut self) {
        self.machine.precompile();
    }

    // ---- introspection ---------------------------------------------------

    /// The resident machine, for read-only introspection: addresses
    /// (`func_entry`, `global_addr`, `intrinsic_entry`,
    /// `ret_site_addrs`), the module, the configuration, the layout,
    /// attacker probes, the memory touch log, fusion and snapshot
    /// statistics.
    pub fn machine(&self) -> &Machine<'static> {
        &self.machine
    }

    /// The resident machine, mutably: attack goals (`add_goal`, which
    /// survive between-run resets but not [`Session::reconfigure`]),
    /// attacker writes, the memory touch log (`enable_mem_trace`, which
    /// survives resets; enable it again after a reconfigure) and the
    /// profiler (`enable_profile`, which rides in the configuration and
    /// so survives both). Runs and resets go through the session, which
    /// tracks whether the machine needs re-arming.
    pub fn machine_mut(&mut self) -> &mut Machine<'static> {
        &mut self.machine
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compile-time statistics of the build.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The machine's effective configuration.
    pub fn vm_config(&self) -> VmConfig {
        *self.machine.config()
    }

    /// What the most recent between-run [`Machine::reset`] cost
    /// (all-zero before the first reset). The same value rides on
    /// [`RunReport::reset`].
    pub fn last_reset_stats(&self) -> ResetStats {
        self.machine.last_reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        void handler(int x) { print_int(x); }
        void (*h)(int);
        int main() {
            h = handler;
            char buf[16];
            long n = read_input(buf, 15);
            h((int)n);
            return 0;
        }
    "#;

    #[test]
    fn builder_without_program_errors() {
        match Session::builder().build() {
            Err(LeveeError::NoProgram) => {}
            other => panic!("expected NoProgram, got {other:?}", other = other.err()),
        }
    }

    /// A hand-built module whose `main` returns a register it never
    /// defines fails at build time with a typed error instead of
    /// panicking in the bytecode compiler on the first run.
    #[test]
    fn malformed_verbatim_module_is_a_typed_error_not_a_panic() {
        use levee_ir::prelude::*;
        let mut module = Module::new("hand");
        let mut main = Function::new("main", FnSig::new(vec![], Ty::I32));
        main.blocks[0].term = Terminator::Ret(Some(Operand::Value(ValueId(7))));
        module.add_func(main);
        match Session::builder().module(module).name("hand").build() {
            Err(LeveeError::Verify { name, errors }) => {
                assert_eq!(name, "hand");
                assert!(errors.iter().any(|e| e.msg.contains("%7 out of range")));
            }
            other => panic!("expected Verify, got {other:?}", other = other.err()),
        }
    }

    /// A cast to `void` defines a register of a type with no size; the
    /// verifier rejects the module instead of an engine panicking on
    /// its frame layout.
    #[test]
    fn verbatim_cast_to_void_is_a_typed_error() {
        use levee_ir::prelude::*;
        let mut module = Module::new("hand");
        let mut b = FuncBuilder::new("main", FnSig::new(vec![], Ty::I32));
        b.cast(CastKind::IntToInt, Operand::Const(1), Ty::Void);
        b.ret(Some(Operand::Const(0)));
        module.add_func(b.finish());
        match Session::builder().module(module).name("hand").build() {
            Err(LeveeError::Verify { errors, .. }) => {
                assert!(errors.iter().any(|e| e.msg.contains("void-typed")));
            }
            other => panic!("expected Verify, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn malformed_source_is_a_typed_error_not_a_panic() {
        let err = Session::builder()
            .source("int main() { return undefined; }")
            .name("broken")
            .build()
            .err()
            .expect("must not compile");
        match &err {
            LeveeError::Compile { name, .. } => assert_eq!(name, "broken"),
            other => panic!("expected Compile, got {other:?}"),
        }
        // Display is usable in a bench binary's error path.
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn run_reports_carry_the_whole_configuration() {
        let mut s = Session::builder()
            .source(SRC)
            .name("demo")
            .protection(BuildConfig::Cpi)
            .store(StoreKind::Hash)
            .engine(Engine::Bytecode)
            .fusion(true)
            .seed(7)
            .build()
            .expect("builds");
        let r = s.run(b"xx");
        assert!(r.success());
        assert_eq!(r.output, "2");
        assert_eq!(r.name, "demo");
        assert_eq!(r.config, BuildConfig::Cpi);
        assert_eq!(r.store, StoreKind::Hash);
        assert_eq!(r.engine, Engine::Bytecode);
        assert!(r.fusion);
        assert_eq!(r.seed, 7);
        assert!(
            r.build.instrumented_mem_ops > 0,
            "CPI build is instrumented"
        );
        assert!(r.exec.insts > 0);
    }

    #[test]
    fn default_seed_is_documented_and_applied() {
        let s = Session::builder().source(SRC).build().expect("builds");
        assert_eq!(s.vm_config().seed, DEFAULT_SEED);
        let s = Session::builder()
            .source(SRC)
            .vm_config(VmConfig::default())
            .build()
            .expect("builds");
        assert_eq!(s.vm_config().seed, 0, "vm_config replaces the seed too");
    }

    #[test]
    fn batch_runs_are_bit_identical_to_fresh_sessions() {
        let inputs: [&[u8]; 4] = [b"", b"a", b"hello", b"0123456789abcd"];
        let mut resident = Session::builder()
            .source(SRC)
            .protection(BuildConfig::Cpi)
            .build()
            .expect("builds");
        let batch = resident.run_batch(inputs);
        for (input, batched) in inputs.iter().zip(&batch) {
            let fresh = Session::builder()
                .source(SRC)
                .protection(BuildConfig::Cpi)
                .build()
                .expect("builds")
                .run(input);
            assert_eq!(batched.status, fresh.status);
            assert_eq!(batched.output, fresh.output);
            assert_eq!(batched.exec.cycles, fresh.exec.cycles);
            assert_eq!(batched.exec.insts, fresh.exec.insts);
            assert_eq!(batched.exec.checks, fresh.exec.checks);
        }
    }

    #[test]
    fn reconfigure_switches_engines_on_the_same_build() {
        let mut s = Session::builder()
            .source(SRC)
            .protection(BuildConfig::Cpi)
            .build()
            .expect("builds");
        let bc = s.run(b"ab");
        s.reconfigure(|cfg| cfg.engine = Engine::Walk);
        let walk = s.run(b"ab");
        assert_eq!(walk.engine, Engine::Walk);
        assert_eq!(bc.output, walk.output);
        assert_eq!(bc.exec.cycles, walk.exec.cycles);
    }

    #[test]
    fn configure_composes_in_registration_order() {
        use levee_vm::Isolation;
        let s = Session::builder()
            .source(SRC)
            .configure(|cfg| {
                cfg.isolation = Isolation::Sfi;
                cfg.aslr = true;
            })
            .configure(|cfg| cfg.aslr = false)
            .build()
            .expect("builds");
        let cfg = s.vm_config();
        assert_eq!(cfg.isolation, Isolation::Sfi, "first tweak survives");
        assert!(!cfg.aslr, "later tweak wins on the contested field");
    }

    #[test]
    fn run_ok_surfaces_traps_as_errors() {
        let mut s = Session::builder()
            .source("int main() { long a = 1; long b = 0; print_int((int)(a / b)); return 0; }")
            .name("divzero")
            .build()
            .expect("builds");
        match s.run_ok(b"") {
            Err(LeveeError::Run { name, status, .. }) => {
                assert_eq!(name, "divzero");
                assert!(matches!(status, ExitStatus::Trapped(_)));
            }
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn report_json_is_well_formed_enough_to_round_trip_keys() {
        let mut s = Session::builder()
            .source(SRC)
            .name("json \"quoted\"\nname")
            .protection(BuildConfig::Cps)
            .build()
            .expect("builds");
        let j = s.run(b"x").to_json();
        for key in [
            "\"name\"",
            "\"config\"",
            "\"engine\"",
            "\"store\"",
            "\"fusion\"",
            "\"seed\"",
            "\"status\"",
            "\"output\"",
            "\"cycles\"",
            "\"insts\"",
            "\"checks\"",
            "\"pac_signs\"",
            "\"pac_auths\"",
            "\"build\"",
            "\"fnustack\"",
            "\"mo_fraction\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.contains("json \\\"quoted\\\"\\nname"), "escaping: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    /// A session keeps serving after being moved, boxed and unboxed.
    #[test]
    fn moved_sessions_keep_serving() {
        let s = Session::builder().source(SRC).build().expect("builds");
        let mut boxed = Box::new(s);
        let first = boxed.run(b"ab");
        assert!(first.success());
        let mut unboxed = *boxed;
        let second = unboxed.run(b"ab");
        assert_eq!(first.output, second.output);
        assert_eq!(first.exec, second.exec);
    }

    /// Forks serve on worker threads (`Session: Send`), bit-identical
    /// to the original and to each other, and tear down cleanly while
    /// the original lives on.
    #[test]
    fn forked_sessions_serve_on_worker_threads() {
        let mut s = Session::builder()
            .source(SRC)
            .protection(BuildConfig::Cpi)
            .build()
            .expect("builds");
        s.precompile();
        let forks: Vec<Session> = (0..2).map(|_| s.fork()).collect();
        let serial = s.run(b"xyz");
        for fork in forks {
            let mut fork = fork;
            let report = std::thread::spawn(move || fork.run(b"xyz"))
                .join()
                .expect("worker panicked");
            assert_eq!(report.output, serial.output);
            assert_eq!(report.status, serial.status);
            assert_eq!(report.exec, serial.exec);
        }
        // The original still serves after every fork is gone.
        assert_eq!(s.run(b"xyz").exec, serial.exec);
    }

    /// A fork taken before the first compile shares it: the original
    /// and the fork race to compile on two threads, and both serve the
    /// same report from the same fusion plan.
    #[test]
    fn forks_share_the_first_compile_across_threads() {
        let original = Session::builder()
            .source(SRC)
            .protection(BuildConfig::Cpi)
            .build()
            .expect("builds");
        let fork = original.fork();
        assert_eq!(
            original.machine().fuse_stats(),
            None,
            "nothing compiled yet"
        );
        let start = Arc::new(std::sync::Barrier::new(2));
        let serve = |mut session: Session| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let report = session.run(b"xyz");
                (report, session)
            })
        };
        let (a, b) = (serve(original), serve(fork));
        let (a, original) = a.join().expect("original panicked");
        let (b, fork) = b.join().expect("fork panicked");
        assert_eq!(a.status, b.status);
        assert_eq!(a.output, b.output);
        assert_eq!(a.exec, b.exec);
        let fused = original.machine().fuse_stats();
        assert!(fused.is_some());
        assert_eq!(fused, fork.machine().fuse_stats());
    }

    /// Non-finite floats must surface as JSON `null`, not as the bare
    /// tokens `NaN`/`inf` — the contract every bench binary's `--json`
    /// row relies on for computed rates and overhead percentages.
    #[test]
    fn json_f64_maps_non_finite_to_null() {
        assert_eq!(json_f64(f64::NAN, 4), "null");
        assert_eq!(json_f64(f64::INFINITY, 1), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY, 2), "null");
        assert_eq!(json_f64(1.25, 1), "1.2");
        assert_eq!(json_f64(0.0, 4), "0.0000");
    }

    /// Two sessions swap machines and one is dropped: the machine it
    /// handed over owns its module, so the survivor serves the other
    /// program unchanged (the Miri CI job runs this test).
    #[test]
    fn swapped_machines_outlive_their_sessions() {
        const OTHER: &str = "int main() { print_int(7); return 0; }";
        let mut a = Session::builder().source(SRC).build().expect("builds");
        let mut b = Session::builder().source(OTHER).build().expect("builds");
        let a_report = a.run(b"ab");
        std::mem::swap(a.machine_mut(), b.machine_mut());
        drop(a);
        b.reset(); // the machine arrives with `a`'s run in it
        let swapped = b.run(b"ab");
        assert_eq!(swapped.output, a_report.output);
        assert_eq!(swapped.exec, a_report.exec);
    }

    /// The build moves the module into the machine's image; forks and
    /// reconfigured machines run that same allocation.
    #[test]
    fn forks_and_reconfigures_reuse_the_built_module() {
        let mut s = Session::builder().source(SRC).build().expect("builds");
        let module = Arc::clone(s.machine().module());
        let fork = s.fork();
        assert!(Arc::ptr_eq(&module, fork.machine().module()), "fork");
        assert!(Arc::ptr_eq(&s.stats, &fork.stats), "fork stats");
        s.reconfigure(|cfg| cfg.engine = Engine::Walk);
        assert!(Arc::ptr_eq(&module, s.machine().module()), "reconfigure");
        let report = s.run(b"ab");
        assert!(Arc::ptr_eq(&s.stats, &report.build), "report stats");
    }

    /// Profiling turned on through the machine rides in its
    /// configuration, so a reconfigured machine keeps profiling.
    #[test]
    fn profiling_survives_reconfigure() {
        let mut s = Session::builder().source(SRC).build().expect("builds");
        s.machine_mut().enable_profile();
        assert!(s.run(b"ab").profile.is_some());
        s.reconfigure(|cfg| cfg.fusion = false);
        assert!(s.vm_config().profile);
        assert!(s.run(b"ab").profile.is_some());
    }

    #[test]
    fn goals_survive_reset_between_runs() {
        use levee_vm::{GoalKind, Trap};
        // Overflowable global buffer sitting right below a function
        // pointer — the quickstart's vulnerable server in miniature.
        let mut s = Session::builder()
            .source(
                r#"
                void handle(int code) { print_str("ok"); }
                char reqbuf[64];
                void (*cb)(int);
                int main() {
                    cb = handle;
                    read_input(reqbuf, -1);
                    cb(200);
                    return 0;
                }
            "#,
            )
            .build()
            .expect("builds");
        let system = s.machine().intrinsic_entry(levee_ir::Intrinsic::System);
        s.machine_mut().add_goal(system, GoalKind::Ret2Libc);
        // First run: benign input, no hijack.
        assert!(s.run(b"hi").success());
        // Second run (machine reset in between): overflow into the
        // function pointer redirects dispatch to system().
        let mut payload = vec![b'A'; 64];
        payload.extend_from_slice(&system.to_le_bytes());
        let out = s.run(&payload);
        assert!(
            matches!(out.status, ExitStatus::Trapped(Trap::Hijacked { .. })),
            "vanilla build must be hijackable after a reset too, got {:?}",
            out.status
        );
    }
}
