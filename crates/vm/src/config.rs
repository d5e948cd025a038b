//! VM configuration: isolation model, runtime defenses and knobs.

use levee_rt::StoreKind;

use crate::cost::CostModel;

/// How the safe region is isolated from regular memory (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// No isolation — an ablation showing that CPI's guarantees
    /// *depend* on isolation: regular writes may touch the safe region.
    None,
    /// x86-32-style segment limits: regular accesses to the safe region
    /// trap deterministically, at zero per-access cost.
    Segmentation,
    /// x86-64-style information hiding: the safe-region base is
    /// randomized; regular accesses only reach it by guessing the base,
    /// and wrong guesses crash (unmapped).
    InfoHiding,
    /// Software fault isolation: every regular memory access is masked
    /// (one extra ALU op), making safe-region access impossible.
    Sfi,
}

/// Which execution engine runs the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference engine: walks CFG instructions one step at a time.
    /// Kept for differential testing against the bytecode tier.
    Walk,
    /// The compiled-bytecode tier: the module is compiled once to a
    /// linear bytecode (`levee-bc`) and executed by a fast dispatch
    /// loop. Observable semantics and cost accounting are identical to
    /// [`Engine::Walk`]; only wall-clock time differs.
    #[default]
    Bytecode,
}

impl Engine {
    /// Both engines, for differential suites and benches.
    pub fn all() -> &'static [Engine] {
        &[Engine::Walk, Engine::Bytecode]
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Walk => "walk",
            Engine::Bytecode => "bytecode",
        }
    }
}

/// How `Machine::reset` re-arms a machine between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Restore from the copy-on-write memory-image snapshot captured
    /// right after `load()`: only pages and store entries the last run
    /// dirtied are copied back. Observable semantics are bit-identical
    /// to [`ResetMode::Loader`] (the differential suites enforce it);
    /// only host wall-clock differs.
    #[default]
    Snapshot,
    /// Re-run the loader from the module image (the pre-snapshot
    /// behavior). Kept as the reference for differential testing and
    /// as the fallback when no snapshot exists.
    Loader,
}

impl ResetMode {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ResetMode::Snapshot => "snapshot",
            ResetMode::Loader => "loader",
        }
    }
}

/// Pointer-authentication mode for the `-fpac` defense family.
///
/// Under PAC, sensitive code pointers are sealed *in place*: a MAC tag
/// over the pointer's low 48 bits (and a binding context) is packed
/// into the spare high bits of the 64-bit word at memory-write
/// boundaries, and authenticated (tag recomputed and compared, then
/// stripped) at memory-read boundaries. Registers always hold raw
/// pointers. A mismatch raises [`crate::Trap::Pac`]. Contrast with
/// CPI/CPS, which *segregate* sensitive pointers into the safe store
/// instead of sealing them in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacMode {
    /// No pointer authentication (all non-PAC configurations).
    #[default]
    Off,
    /// `-fpac`: tags bind to the pointer value only (context 0). A
    /// sealed word copied between slots still authenticates —
    /// vulnerable to substitution attacks.
    Plain,
    /// `-fpac-tight`: PACTight-style per-context binding — the tag also
    /// covers the address of the memory slot holding the pointer, so a
    /// sealed word replayed at a different slot fails authentication.
    Tight,
}

impl PacMode {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PacMode::Off => "off",
            PacMode::Plain => "pac",
            PacMode::Tight => "pac-tight",
        }
    }
}

/// Hardware model for metadata operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareModel {
    /// Software-only Levee (the paper's evaluated prototype).
    Software,
    /// MPX-like hardware assist (§4 "Future MPX-based implementation"):
    /// cheaper checks and metadata bookkeeping, two-level table.
    Mpx,
}

/// Full VM configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Safe-region isolation mechanism.
    pub isolation: Isolation,
    /// Safe-pointer-store organization.
    pub store_kind: StoreKind,
    /// DEP/NX: writable memory is never executable.
    pub nx: bool,
    /// ASLR for the regular region (heap/stack/global bases).
    pub aslr: bool,
    /// Enforce temporal id checks on sensitive-pointer dereferences
    /// (the paper's design supports it; its prototype is spatial-only,
    /// so this defaults to off).
    pub temporal: bool,
    /// Debug mode (§3.2.2): sensitive pointers are stored in *both*
    /// regions and compared on load.
    pub debug_dual_store: bool,
    /// Protect `setjmp` buffers and other runtime-created code pointers
    /// through the safe store (on when the module is CPI/CPS
    /// instrumented; the driver sets this).
    pub protect_runtime_code_ptrs: bool,
    /// Pointer-authentication mode (the `-fpac` / `-fpac-tight`
    /// defense family). Orthogonal to CPI instrumentation; the driver
    /// sets it for PAC builds. The per-machine MAC key is derived from
    /// [`seed`](VmConfig::seed).
    pub pac: PacMode,
    /// MAC tag width in bits for PAC sealing, clamped to `1..=16` (the
    /// pointer's spare high bits). Narrower tags model weaker keys:
    /// forgery-by-guess succeeds with probability `2^-tag_bits`.
    pub pac_tag_bits: u8,
    /// Deterministic seed (layout randomization, cookies).
    pub seed: u64,
    /// Fuel: maximum instructions before `Trap::OutOfFuel`.
    pub max_insts: u64,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Hardware model for metadata ops.
    pub hardware: HardwareModel,
    /// Execution engine (bytecode tier by default; the step walker is
    /// the reference for differential testing).
    pub engine: Engine,
    /// Superinstruction fusion in the bytecode tier (`levee_bc::fuse`):
    /// adjacent pairs like compare+branch, gep+load and check+use
    /// collapse into one dispatch. Observable semantics and cycle
    /// accounting are identical either way (the `diff_fuzz` suite
    /// cross-checks engine × fusion); the knob exists for differential
    /// testing and overhead attribution. Ignored by [`Engine::Walk`].
    pub fusion: bool,
    /// Attach the execution profiler ([`crate::probe`]): per-opcode,
    /// per-function and per-check-site attribution plus a trace-event
    /// ring. Host-side observation only — a profiled run is
    /// bit-identical in simulated cycles, insts, traps and touch
    /// sequences to an unprofiled one (the differential suites enforce
    /// this).
    pub profile: bool,
    /// How [`Machine::reset`](crate::Machine::reset) re-arms the
    /// machine between runs: copy-on-write snapshot restore (default)
    /// or a full loader re-boot. Bit-identical observable behavior
    /// either way.
    pub reset_mode: ResetMode,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            isolation: Isolation::InfoHiding,
            store_kind: StoreKind::ArraySuperpage,
            nx: true,
            aslr: false,
            temporal: false,
            debug_dual_store: false,
            protect_runtime_code_ptrs: false,
            pac: PacMode::default(),
            pac_tag_bits: 16,
            seed: 0,
            max_insts: 200_000_000,
            cost: CostModel::default(),
            hardware: HardwareModel::Software,
            engine: Engine::default(),
            fusion: true,
            profile: false,
            reset_mode: ResetMode::default(),
        }
    }
}

impl VmConfig {
    /// A configuration modelling a completely undefended legacy system
    /// (pre-DEP, pre-ASLR): the "vanilla Ubuntu 6.06" row of §5.1.
    pub fn legacy_unprotected() -> Self {
        VmConfig {
            nx: false,
            aslr: false,
            ..Default::default()
        }
    }

    /// Returns self with the given seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns self with the given execution engine (builder style).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Returns self with superinstruction fusion on or off (builder
    /// style).
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Returns self with the execution profiler on or off (builder
    /// style).
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Returns self with the given reset mode (builder style).
    pub fn with_reset_mode(mut self, reset_mode: ResetMode) -> Self {
        self.reset_mode = reset_mode;
        self
    }

    /// Returns self with the given PAC tag width (builder style),
    /// clamped to `1..=16`.
    pub fn with_pac_tag_bits(mut self, bits: u8) -> Self {
        self.pac_tag_bits = bits.clamp(1, 16);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let legacy = VmConfig::legacy_unprotected();
        assert!(!legacy.nx && !legacy.aslr);
        let seeded = VmConfig::default().with_seed(42);
        assert_eq!(seeded.seed, 42);
    }

    #[test]
    fn bytecode_engine_is_the_default() {
        assert_eq!(VmConfig::default().engine, Engine::Bytecode);
        let walk = VmConfig::default().with_engine(Engine::Walk);
        assert_eq!(walk.engine, Engine::Walk);
        assert_eq!(Engine::all().len(), 2);
        assert_ne!(Engine::Walk.name(), Engine::Bytecode.name());
    }

    #[test]
    fn fusion_defaults_on_and_toggles() {
        assert!(VmConfig::default().fusion);
        assert!(!VmConfig::default().with_fusion(false).fusion);
    }

    #[test]
    fn profile_defaults_off_and_toggles() {
        assert!(!VmConfig::default().profile);
        assert!(VmConfig::default().with_profile(true).profile);
    }

    #[test]
    fn pac_defaults_off_and_tag_bits_clamp() {
        let d = VmConfig::default();
        assert_eq!(d.pac, PacMode::Off);
        assert_eq!(d.pac_tag_bits, 16);
        assert_eq!(VmConfig::default().with_pac_tag_bits(0).pac_tag_bits, 1);
        assert_eq!(VmConfig::default().with_pac_tag_bits(8).pac_tag_bits, 8);
        assert_eq!(VmConfig::default().with_pac_tag_bits(64).pac_tag_bits, 16);
        assert_ne!(PacMode::Plain.name(), PacMode::Tight.name());
    }

    #[test]
    fn snapshot_reset_is_the_default() {
        assert_eq!(VmConfig::default().reset_mode, ResetMode::Snapshot);
        let loader = VmConfig::default().with_reset_mode(ResetMode::Loader);
        assert_eq!(loader.reset_mode, ResetMode::Loader);
        assert_ne!(ResetMode::Snapshot.name(), ResetMode::Loader.name());
    }
}
