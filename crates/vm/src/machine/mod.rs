//! The machine: an IR interpreter over the split memory model.
//!
//! The machine executes a (possibly instrumented) [`Module`] with:
//!
//! * an explicit in-memory image of stack frames — return addresses and
//!   stack objects live at real simulated addresses, so buffer overflows
//!   corrupt them exactly as on x86-64,
//! * the safe region (safe stacks + safe pointer store) reachable only
//!   through instrumented operations, enforced per the configured
//!   isolation model (§3.2.3),
//! * a deterministic cycle/cache cost model producing the overhead
//!   numbers for the evaluation harness,
//! * attack goals: addresses that terminate the run with
//!   [`Trap::Hijacked`] when control reaches them.

mod attacker;
mod bytecode;
mod control;
mod cpi;
mod exec;
mod intrinsics;
mod ops;

use std::collections::HashMap;

use levee_bc::FrameDesc;
use levee_ir::prelude::*;
use levee_rt::{Entry, FastHash, MetaId, MetaMark, MetaTable, PtrStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::Cache;
use crate::config::{Engine, Isolation, PacMode, ResetMode, VmConfig};
use crate::heap::Heap;
use crate::layout::{self, Layout};
use crate::mem::{MemError, Memory};
use crate::probe::{touch_addrs, CheckSite, ProfileReport, Profiler, TouchKind, TouchRecord};
use crate::stats::{ExecStats, ResetStats};
use crate::trap::{ExitStatus, GoalKind, Trap};

pub use attacker::{AttackerError, GuessOutcome};

/// A runtime value: a 64-bit word plus an interned based-on handle.
///
/// Metadata rides along in virtual registers (the analogue of
/// SoftBound's shadow registers); whether it is ever *stored*, *loaded*
/// or *checked* is decided entirely by the instrumentation in the code.
///
/// The metadata itself lives once in the machine's [`MetaTable`] —
/// mirroring the paper's safe-region split, where pointer metadata never
/// travels through the regular data path — so a value is 16 bytes
/// instead of the 48 an inline `Option<Entry>` needed, and register
/// files, argument lists and frame copies move 3× less memory.
///
/// Invariant: whenever `meta` is live, the interned record describes the
/// object this word is *based on*; its `value` field is normalized away
/// (the current pointer word is `raw`). The handle travels end-to-end:
/// the safe pointer store's compact slots (`levee_rt::Slot`) carry the
/// same `(word, MetaId)` pair, so `ptr_store`/`ptr_load` move handles
/// with no `Entry` materialization or re-interning on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V {
    /// The raw word.
    pub raw: u64,
    /// Handle to the based-on metadata, or [`MetaId::NONE`] for plain
    /// integers.
    pub meta: MetaId,
}

impl V {
    /// An integer value with no provenance.
    #[inline(always)]
    pub fn int(raw: u64) -> Self {
        V {
            raw,
            meta: MetaId::NONE,
        }
    }
}

/// Marker value used as the return address of `main`.
pub(crate) const MAIN_RET_SENTINEL: u64 = 0x0000_dead_0000;

/// The final status of a run a trap ended: `exit()` is a clean exit.
pub(crate) fn exit_status(trap: Trap) -> ExitStatus {
    match trap {
        Trap::ProgramExit(code) => ExitStatus::Exited(code),
        trap => ExitStatus::Trapped(trap),
    }
}

/// The address bits of a PAC-sealed word: every simulated address fits
/// in 48 bits (see [`crate::layout`]), leaving the high 16 for the MAC
/// tag — the x86-64 canonical-address gap ARM PAC also exploits.
pub const PAC_PTR_MASK: u64 = (1 << 48) - 1;

/// One round of splitmix64 — the keyed mixer behind the modeled MAC.
/// Not cryptographic (neither is QARMA at 16 bits); what matters for
/// the evaluation is that tags are key- and context-dependent and that
/// guessing succeeds with probability `2^-tag_bits`.
#[inline]
pub(crate) fn pac_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One activation record. The *memory image* of the return address (and
/// cookie) is what attacks corrupt; the Rust-side fields carry
/// bookkeeping the hardware would keep in registers.
///
/// Frames are pushed from a precomputed [`FrameDesc`] (register-file
/// size, cookie/return-slot layout, epilogue checks), which the frame
/// carries so the return path never re-derives protection state from
/// the IR.
pub(crate) struct Frame {
    pub func: FuncId,
    pub block: BlockId,
    pub ip: usize,
    pub regs: Vec<V>,
    /// The callee's precomputed frame descriptor.
    pub desc: FrameDesc,
    /// Address of the return-address slot in (regular or safe) memory;
    /// `desc.safestack` says which stack it lives on.
    pub ret_slot: u64,
    /// The value pushed at call time (for divergence detection only —
    /// the *loaded* value is what gets used).
    pub expected_ret: u64,
    /// Address of the stack cookie slot (0 when the function has none —
    /// stack slots are never at address zero).
    pub cookie_slot: u64,
    pub saved_sp: u64,
    pub saved_unsafe_sp: u64,
    pub saved_safe_sp: u64,
    /// Register in the *caller* receiving the return value.
    pub caller_dest: Option<ValueId>,
}

/// A live `setjmp` context.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetjmpCtx {
    pub frame_depth: usize,
    pub block: BlockId,
    pub ip: usize,
    pub dest: Option<ValueId>,
    pub saved_sp: u64,
    pub saved_unsafe_sp: u64,
    pub saved_safe_sp: u64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// How the run ended.
    pub status: ExitStatus,
    /// Cycle/cache/instrumentation counters.
    pub stats: ExecStats,
    /// Program output (`print_int` / `print_str`), newline-joined.
    pub output: String,
}

impl RunOutcome {
    /// Exit code if the run exited cleanly.
    pub fn exit_code(&self) -> Option<i64> {
        match self.status {
            ExitStatus::Exited(c) => Some(c),
            _ => None,
        }
    }
}

/// The virtual machine.
pub struct Machine<'m> {
    pub(crate) module: &'m Module,
    pub(crate) config: VmConfig,
    pub(crate) layout: Layout,
    pub(crate) mem: Memory,
    pub(crate) cache: Cache,
    pub(crate) heap: Heap,
    pub(crate) store: Box<dyn PtrStore>,
    pub(crate) stats: ExecStats,
    pub(crate) frames: Vec<Frame>,
    pub(crate) sp: u64,
    pub(crate) unsafe_sp: u64,
    pub(crate) safe_sp: u64,
    pub(crate) shadow_stack: Vec<u64>,
    pub(crate) cookie: u64,
    pub(crate) output: Vec<String>,
    pub(crate) input: Vec<u8>,
    pub(crate) input_pos: usize,
    pub(crate) rng_state: u64,
    /// FuncId → code entry address.
    pub(crate) func_addrs: Vec<u64>,
    /// Entry address → FuncId.
    pub(crate) entry_to_func: HashMap<u64, FuncId, FastHash>,
    /// Return-site address → (callee-side resume is Rust state; the map
    /// is used to validate loaded return addresses).
    pub(crate) ret_sites: HashMap<u64, FuncId, FastHash>,
    /// (FuncId, BlockId, ip) → index of that call site in its function
    /// (the walker's route to [`Machine::ret_site`]).
    pub(crate) site_of_call: HashMap<(u32, u32, usize), u32, FastHash>,
    /// GlobalId → data address.
    pub(crate) global_addrs: Vec<u64>,
    /// Global sizes (for bounds metadata).
    pub(crate) global_sizes: Vec<u64>,
    /// Intrinsic → pseudo entry address (ret2libc targets).
    pub(crate) intrinsic_addrs: HashMap<Intrinsic, u64>,
    /// Attack goals: reaching one of these addresses by an indirect
    /// transfer ends the run with `Trap::Hijacked`.
    pub(crate) goals: HashMap<u64, GoalKind, FastHash>,
    /// Live setjmp contexts keyed by token address.
    pub(crate) setjmp_ctxs: HashMap<u64, SetjmpCtx, FastHash>,
    /// Per-machine MAC key for the PAC defense family, derived
    /// deterministically from the session seed at boot. Config-immutable
    /// (needs no snapshot field); forks inherit it, so a fork
    /// authenticates pointers the original sealed.
    pub(crate) pac_key: u64,
    /// Provenance of values stored (spilled) to the safe stack, keyed by
    /// slot address: the word that was stored plus its metadata handle.
    /// The safe stack is trusted storage inside the safe region (like
    /// spilled registers), so metadata survives a round-trip through it
    /// as long as the reloaded word still matches.
    pub(crate) safe_stack_meta: HashMap<u64, (u64, MetaId), FastHash>,
    /// Count of SFI-masked accesses (for amortized charging).
    pub(crate) sfi_masked: u64,
    /// Functions whose signature-hash matches at least one other —
    /// cached per-callsite CFI target sets are derived lazily.
    pub(crate) sig_hashes: Vec<u64>,
    /// The provenance interner: every based-on record lives here once,
    /// referenced by the [`MetaId`] handles inside values.
    pub(crate) meta: MetaTable,
    /// Per-function frame descriptors (shared by both engines).
    pub(crate) frame_descs: Vec<FrameDesc>,
    /// Pre-interned code provenance per function (FuncAddr results).
    pub(crate) func_meta: Vec<MetaId>,
    /// Pre-interned data provenance per global (GlobalAddr results).
    pub(crate) global_meta: Vec<MetaId>,
    /// The module compiled to bytecode, populated on first use by the
    /// bytecode engine.
    pub(crate) bc: Option<levee_bc::BcModule>,
    /// Fusion plan counts recorded when the bytecode was compiled
    /// (`Some` once compiled; all-zero when fusion was off). Survives
    /// reset along with the bytecode itself.
    pub(crate) fuse_stats: Option<levee_bc::FuseStats>,
    /// The execution profiler ([`crate::probe`]), attached when
    /// [`VmConfig::profile`] is set. Host-side observation only: no
    /// probe method touches the simulated cost model.
    pub(crate) probe: Option<Box<Profiler>>,
    /// Recycled register files: calls are frequent enough that
    /// allocating a fresh `Vec<V>` per frame shows up in profiles.
    pub(crate) reg_pool: Vec<Vec<V>>,
    /// Machine-level scalars of the post-load snapshot (the bulky state
    /// — memory pages, store slots, heap maps — is held copy-on-write
    /// *inside* [`Memory`], the store and [`Heap`]). `Some` whenever
    /// [`VmConfig::reset_mode`] is [`ResetMode::Snapshot`]; captured at
    /// the end of [`Machine::boot`].
    snapshot: Option<Snapshot>,
    /// What the most recent [`Machine::reset`] cost; all-zero before
    /// the first reset.
    last_reset: ResetStats,
}

/// A `Machine` migrates whole into worker threads (levee-core's
/// `SessionPool`); pin the `Send` guarantee at compile time so a
/// non-`Send` field (e.g. a store without the `Send` supertrait)
/// cannot regress it silently.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine<'static>>();
};

/// Machine-level state of the post-`load()` image that is not already
/// held by a component baseline: the provenance-table high-water
/// [`MetaMark`] plus the post-load RNG scalars. Everything else a
/// restore re-establishes is either component-owned
/// ([`Memory::capture_snapshot`], `PtrStore::capture_snapshot`,
/// [`Heap::capture_snapshot`]) or recomputed from `config`/`layout`.
#[derive(Clone)]
struct Snapshot {
    /// Rewind point for the provenance interner: entries minted by a
    /// run are dropped, loader-minted handles (`func_meta`,
    /// `global_meta`) stay valid — no generation bump, unlike the
    /// loader reset path.
    meta: MetaMark,
    /// Post-load deterministic RNG state (the run's `rand` intrinsic
    /// advances it).
    rng_state: u64,
    /// The stack cookie drawn at boot (config-deterministic; kept here
    /// so a restore never has to replay the boot RNG sequence).
    cookie: u64,
}

impl<'m> Machine<'m> {
    /// Loads `module` into a fresh machine with the given config.
    pub fn new(module: &'m Module, config: VmConfig) -> Self {
        Self::boot(module, config, MetaTable::new())
    }

    /// Shared constructor behind [`Machine::new`] and [`Machine::reset`]:
    /// builds a freshly-loaded machine around an existing provenance
    /// table (reset passes the old table with its generation already
    /// bumped, so handles minted before the reset stay invalid).
    fn boot(module: &'m Module, config: VmConfig, meta: MetaTable) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5afe_5afe);
        let layout = if config.aslr || config.isolation == Isolation::InfoHiding {
            Layout::randomized(&mut rng, config.aslr)
        } else {
            Layout::fixed()
        };
        let mut m = Machine {
            module,
            config,
            layout,
            mem: Memory::new(),
            cache: Cache::default_l1(),
            heap: Heap::new(layout.heap_base, layout::HEAP_LIMIT),
            store: config.store_kind.instantiate(layout.ptr_store_base()),
            stats: ExecStats::default(),
            frames: Vec::new(),
            sp: layout.stack_top,
            unsafe_sp: layout.unsafe_stack_top,
            safe_sp: layout.safe_stack_top(),
            shadow_stack: Vec::new(),
            cookie: rng.gen::<u64>() | 1,
            output: Vec::new(),
            input: Vec::new(),
            input_pos: 0,
            rng_state: config
                .seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1),
            func_addrs: Vec::new(),
            entry_to_func: HashMap::default(),
            ret_sites: HashMap::default(),
            site_of_call: HashMap::default(),
            global_addrs: Vec::new(),
            global_sizes: Vec::new(),
            intrinsic_addrs: HashMap::new(),
            goals: HashMap::default(),
            setjmp_ctxs: HashMap::default(),
            // Salted splitmix of the seed, NOT a draw from the boot RNG:
            // deriving the key out-of-band keeps every existing RNG
            // stream (layout, cookie, `rand`) bit-identical whether or
            // not PAC is configured.
            pac_key: pac_mix(config.seed ^ 0x5EA1_C0DE_5EA1_C0DE),
            safe_stack_meta: HashMap::default(),
            sfi_masked: 0,
            sig_hashes: Vec::new(),
            meta,
            frame_descs: Vec::new(),
            func_meta: Vec::new(),
            global_meta: Vec::new(),
            bc: None,
            fuse_stats: None,
            probe: config.profile.then(|| Box::new(Profiler::new(module))),
            reg_pool: Vec::new(),
            snapshot: None,
            last_reset: ResetStats::default(),
        };
        m.load();
        // Capture the complete post-load image as the reset baseline:
        // memory pages and store slots are shared copy-on-write, the
        // (tiny) heap maps are cloned, and the provenance table records
        // its high-water mark. From here on, `reset` restores in time
        // proportional to what a run dirtied instead of re-running the
        // loader.
        if config.reset_mode == ResetMode::Snapshot {
            m.mem.capture_snapshot();
            m.heap.capture_snapshot();
            m.store.capture_snapshot();
            m.snapshot = Some(Snapshot {
                meta: m.meta.mark(),
                rng_state: m.rng_state,
                cookie: m.cookie,
            });
        }
        m
    }

    /// Forks this machine into an independent twin for another worker.
    ///
    /// The fork shares the copy-on-write substrate with the original:
    /// memory pages, safe-store pages and their captured baselines stay
    /// `Arc`-shared until either machine writes to them, so N resident
    /// workers cost one boot image plus their private dirt. Everything
    /// mutable — stats, dirty lists, the provenance table, RNG state,
    /// the cache model — is cloned, never shared, so the fork's clean-
    /// page invariant (`Arc::strong_count > 1` ⟺ shared with *its own*
    /// baseline) holds no matter how many machines hold the same pages.
    ///
    /// Compiled bytecode and the fusion plan are carried over, so forks
    /// of a precompiled machine never recompile. The profiler is not
    /// forked (profiling is per-machine observation): when
    /// [`VmConfig::profile`] is set the fork starts a fresh probe.
    ///
    /// # Panics
    ///
    /// Panics when called mid-run (live frames): forking an executing
    /// machine is an owner lifecycle bug.
    pub fn fork(&self) -> Machine<'m> {
        assert!(
            self.frames.is_empty(),
            "cannot fork a machine mid-run; fork between runs"
        );
        Machine {
            module: self.module,
            config: self.config,
            layout: self.layout,
            mem: self.mem.clone(),
            cache: self.cache.clone(),
            heap: self.heap.clone(),
            store: self.store.boxed_clone(),
            stats: self.stats,
            frames: Vec::new(),
            sp: self.sp,
            unsafe_sp: self.unsafe_sp,
            safe_sp: self.safe_sp,
            shadow_stack: self.shadow_stack.clone(),
            cookie: self.cookie,
            output: self.output.clone(),
            input: self.input.clone(),
            input_pos: self.input_pos,
            rng_state: self.rng_state,
            func_addrs: self.func_addrs.clone(),
            entry_to_func: self.entry_to_func.clone(),
            ret_sites: self.ret_sites.clone(),
            site_of_call: self.site_of_call.clone(),
            global_addrs: self.global_addrs.clone(),
            global_sizes: self.global_sizes.clone(),
            intrinsic_addrs: self.intrinsic_addrs.clone(),
            goals: self.goals.clone(),
            setjmp_ctxs: self.setjmp_ctxs.clone(),
            pac_key: self.pac_key,
            safe_stack_meta: self.safe_stack_meta.clone(),
            sfi_masked: self.sfi_masked,
            sig_hashes: self.sig_hashes.clone(),
            meta: self.meta.clone(),
            frame_descs: self.frame_descs.clone(),
            func_meta: self.func_meta.clone(),
            global_meta: self.global_meta.clone(),
            bc: self.bc.clone(),
            fuse_stats: self.fuse_stats,
            probe: self
                .config
                .profile
                .then(|| Box::new(Profiler::new(self.module))),
            reg_pool: Vec::new(),
            snapshot: self.snapshot.clone(),
            last_reset: ResetStats::default(),
        }
    }

    /// The layout of this execution (fixed or randomized).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The entry address of a function, by name.
    pub fn func_entry(&self, name: &str) -> Option<u64> {
        self.module
            .func_by_name(name)
            .map(|f| self.func_addrs[f.0 as usize])
    }

    /// The data address of a global, by name.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        self.module
            .global_by_name(name)
            .map(|g| self.global_addrs[g.0 as usize])
    }

    /// The pseudo entry address of a libc intrinsic (`system`, …) — the
    /// classic return-to-libc target.
    pub fn intrinsic_entry(&self, which: Intrinsic) -> u64 {
        self.intrinsic_addrs[&which]
    }

    /// Registers an attack goal: control reaching `addr` via any
    /// indirect transfer ends the run as a successful hijack.
    pub fn add_goal(&mut self, addr: u64, kind: GoalKind) {
        self.goals.insert(addr, kind);
    }

    /// All valid return-site addresses — the target set a coarse CFI
    /// return policy admits (used by CFI-bypass experiments).
    pub fn ret_site_addrs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ret_sites.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Starts recording the memory touch log: every simulated memory
    /// access (program loads/stores, frame slots, safe-store traffic —
    /// everything the cache model sees) in execution order. Differential
    /// suites diff the logs of two configurations to prove they perform
    /// identical access *sequences*, not merely identical totals.
    pub fn enable_mem_trace(&mut self) {
        self.cache.enable_trace();
    }

    /// The recorded memory touch log — tagged [`TouchRecord`]s (empty
    /// unless [`Machine::enable_mem_trace`] was called before running).
    pub fn mem_trace(&self) -> &[TouchRecord] {
        self.cache.trace().unwrap_or(&[])
    }

    /// The address projection of the touch log — the shape the
    /// touch-log *sequence* diff tests compare (see
    /// [`crate::probe::touch_addrs`]).
    pub fn mem_trace_addrs(&self) -> Vec<u64> {
        touch_addrs(self.mem_trace())
    }

    /// Attaches the execution profiler for subsequent runs (equivalent
    /// to constructing with [`VmConfig::profile`] set; the knob rides
    /// in the config, so it survives [`Machine::reset`]).
    pub fn enable_profile(&mut self) {
        self.config.profile = true;
        if self.probe.is_none() {
            self.probe = Some(Box::new(Profiler::new(self.module)));
        }
    }

    /// The profiling report of the last run (`None` unless profiling
    /// was enabled before it). The report carries
    /// [`Machine::last_reset_stats`] in [`ProfileReport::reset`] so
    /// `--profile` renderings can show what recycling the machine for
    /// this run cost.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.probe.as_ref().map(|p| {
            let mut report = p.report(self.module, &self.stats);
            report.reset = self.last_reset;
            report
        })
    }

    /// Superinstruction fusion plan counts, recorded when the module
    /// was compiled to bytecode (`None` until then; all-zero when
    /// fusion is off).
    pub fn fuse_stats(&self) -> Option<levee_bc::FuseStats> {
        self.fuse_stats
    }

    /// Resets the machine to its freshly-loaded state so [`Machine::run`]
    /// can be called again. Attack goals, the compiled bytecode and the
    /// mem-trace setting survive (they depend only on the module and
    /// config, which do not change); everything a run can move —
    /// frames, stacks, the memory image, heap, store, cache, stats,
    /// output — is re-armed. However the reset is performed, the result
    /// replays bit-identically to a fresh [`Machine::new`] in every
    /// simulated counter (the differential suites and the session
    /// proptest in `levee-core` enforce this).
    ///
    /// Two mechanisms, selected by [`VmConfig::reset_mode`]:
    ///
    /// * [`ResetMode::Snapshot`] (the default): restore from the
    ///   copy-on-write post-load image captured at boot, copying back
    ///   only what the last run dirtied (`restore_from_snapshot`). This
    ///   is what makes per-request machine recycling
    ///   (`levee_core::session::Session::run_batch`) nearly free.
    /// * [`ResetMode::Loader`], or any boot that captured no snapshot:
    ///   tear down and re-run the loader from the module image.
    ///
    /// [`Machine::last_reset_stats`] reports what the reset cost.
    ///
    /// The safe pointer store and the provenance table form one
    /// lifecycle unit — store slots hold generation-checked [`MetaId`]s
    /// into the table — and both reset paths keep them coherent. The
    /// loader path discards the store wholesale while the table
    /// survives with its generation bumped, so any handle a caller kept
    /// across the reset (in a [`V`]) resolves to `None` (trapping as
    /// metadata-less) instead of silently aliasing a record of the new
    /// generation. The snapshot path rewinds the table to its post-load
    /// mark instead: loader-minted handles (the ones store slots can
    /// hold at the restore point) stay valid, while run-minted handles
    /// point past the arena and likewise resolve to `None`.
    pub fn reset(&mut self) {
        if self.config.reset_mode == ResetMode::Snapshot && self.snapshot.is_some() {
            self.restore_from_snapshot();
            return;
        }
        // Bump the generation before the rebuild: `boot` re-interns the
        // loader's handles into the surviving table, so they (and
        // nothing minted earlier) are the only live handles afterwards.
        self.meta.reset();
        // Survivors: the bumped table (generation sequence continues),
        // the compiled bytecode (depends only on the module), attack
        // goals (layout is config-deterministic) and the trace setting.
        let meta = std::mem::take(&mut self.meta);
        let bc = self.bc.take();
        let fuse_stats = self.fuse_stats.take();
        let goals = std::mem::take(&mut self.goals);
        let tracing = self.cache.trace().is_some();
        *self = Self::boot(self.module, self.config, meta);
        self.bc = bc;
        self.fuse_stats = fuse_stats;
        self.goals = goals;
        if tracing {
            self.cache.enable_trace();
        }
        self.last_reset = ResetStats::default();
    }

    /// The snapshot arm of [`Machine::reset`]: reverts exactly what the
    /// last run dirtied and re-establishes the handful of scalars a
    /// fresh boot would compute, without touching the loader.
    ///
    /// The heavy state restores itself component by component —
    /// [`Memory::restore_snapshot`] re-shares dirty pages,
    /// `PtrStore::restore_snapshot` reverts dirty store structure,
    /// [`Heap::restore_snapshot`] copies the allocator maps back only
    /// if the run allocated, and [`MetaTable::truncate_to`] drops
    /// run-interned provenance. Everything else (stacks, cache, stats,
    /// output, setjmp contexts) is cleared or recomputed here exactly
    /// as [`Machine::boot`] would have produced it.
    fn restore_from_snapshot(&mut self) {
        let snap = self.snapshot.take().expect("snapshot present");
        let (pages_dirtied, bytes_restored) = self.mem.restore_snapshot();
        let store_bytes_restored = self.store.restore_snapshot();
        self.heap.restore_snapshot();
        let meta_entries_dropped = self.meta.truncate_to(&snap.meta);
        // Cache reset empties the touch log but keeps tracing enabled,
        // matching the loader path's re-enable.
        self.cache.reset();
        self.stats = ExecStats::default();
        // Frames left by a trapped run recycle through the same pool as
        // completed calls — `recycle_vec` clears them, upholding
        // `take_vec`'s invariant that pooled vectors are empty.
        let leftovers: Vec<_> = self.frames.drain(..).map(|f| f.regs).collect();
        for regs in leftovers {
            self.recycle_vec(regs);
        }
        self.shadow_stack.clear();
        self.sp = self.layout.stack_top;
        self.unsafe_sp = self.layout.unsafe_stack_top;
        self.safe_sp = self.layout.safe_stack_top();
        self.cookie = snap.cookie;
        self.output.clear();
        self.input.clear();
        self.input_pos = 0;
        self.rng_state = snap.rng_state;
        self.setjmp_ctxs.clear();
        self.safe_stack_meta.clear();
        self.sfi_masked = 0;
        // A fresh profiler, like a fresh boot's (profiling may also
        // have been enabled after boot via `enable_profile`).
        if self.config.profile {
            self.probe = Some(Box::new(Profiler::new(self.module)));
        }
        self.last_reset = ResetStats {
            used_snapshot: true,
            pages_dirtied,
            bytes_restored,
            store_bytes_restored,
            meta_entries_dropped,
        };
        self.snapshot = Some(snap);
    }

    /// What the most recent [`Machine::reset`] cost (all-zero before
    /// the first reset). Reset cost lives outside [`ExecStats`] so the
    /// simulated counters of a recycled run stay bit-identical to a
    /// fresh machine's.
    pub fn last_reset_stats(&self) -> ResetStats {
        self.last_reset
    }

    /// Pages held by the post-load snapshot (0 when booted with
    /// [`ResetMode::Loader`]).
    pub fn snapshot_pages(&self) -> usize {
        self.mem.snapshot_pages()
    }

    /// Bytes the snapshot holds privately — pre-write copies of pages
    /// the current run has dirtied. Clean pages are shared with the
    /// live image and counted once, by the regular residency; see
    /// [`Memory::snapshot_private_bytes`].
    pub fn snapshot_private_bytes(&self) -> u64 {
        self.mem.snapshot_private_bytes()
    }

    fn load(&mut self) {
        // Code layout: program functions low, the libc (intrinsic) block
        // high — and only the libc block moves under ASLR (non-PIE).
        let libc_base = layout::CODE_BASE + layout::LIBC_CODE_OFFSET + self.layout.libc_shift;
        for (i, intr) in Intrinsic::all().iter().enumerate() {
            let addr = libc_base + 64 + i as u64 * 16;
            self.intrinsic_addrs.insert(*intr, addr);
        }
        let func_area = layout::CODE_BASE + 0x10_000;
        for (fid, f) in self.module.iter_funcs() {
            let entry = func_area + fid.0 as u64 * layout::FUNC_STRIDE;
            self.func_addrs.push(entry);
            self.entry_to_func.insert(entry, fid);
            self.sig_hashes.push(f.sig.type_hash());
            self.frame_descs.push(FrameDesc::of(f));
            let code_meta = self.meta.intern(Entry::code(entry));
            self.func_meta.push(code_meta);
            // Assign return sites for every call-shaped instruction, in
            // `iter_call_sites` order — the same numbering the bytecode
            // compiler embeds as site indices.
            for (site, (bid, ip, _)) in f.iter_call_sites().enumerate() {
                let site = site as u32;
                self.site_of_call.insert((fid.0, bid.0, ip), site);
                self.ret_sites.insert(self.ret_site(fid.0, site), fid);
            }
        }
        // Code and rodata are write-protected (threat model §2).
        self.mem.protect(
            layout::CODE_BASE,
            func_area - layout::CODE_BASE + self.module.funcs.len() as u64 * layout::FUNC_STRIDE,
        );

        // Globals.
        let mut ro_cursor = self.layout.rodata_base;
        let mut rw_cursor = self.layout.data_base;
        for g in &self.module.globals {
            let size = self.module.types.size_of(&g.ty).max(1);
            let cursor = if g.read_only {
                &mut ro_cursor
            } else {
                &mut rw_cursor
            };
            let addr = crate::ctx_align(*cursor, 16);
            *cursor = addr + size;
            self.global_addrs.push(addr);
            self.global_sizes.push(size);
            let data_meta = self.meta.intern(Entry::data(addr, addr, addr + size, 0));
            self.global_meta.push(data_meta);
            // Materialize the initializer.
            let mut off = addr;
            for atom in &g.init {
                match atom {
                    InitAtom::Int { value, size } => {
                        self.mem.loader_write_uint(off, *value, *size);
                        off += size;
                    }
                    InitAtom::FuncPtr(fid) => {
                        let target = func_area + fid.0 as u64 * layout::FUNC_STRIDE;
                        // Under PAC the loader plays the linker's part:
                        // code pointers embedded in initializers are
                        // sealed in place, so instrumented loads of them
                        // authenticate. Loader traffic predates
                        // execution — no charge, no counter.
                        let word = if self.config.pac == PacMode::Off {
                            target
                        } else {
                            self.pac_seal(target, self.pac_ctx(off))
                        };
                        self.mem.loader_write_uint(off, word, 8);
                        off += 8;
                    }
                    InitAtom::GlobalPtr(_, _) => {
                        // Resolved in a second pass (forward references).
                        off += 8;
                    }
                    InitAtom::Bytes(b) => {
                        for (i, byte) in b.iter().enumerate() {
                            self.mem.loader_write_u8(off + i as u64, *byte);
                        }
                        off += b.len() as u64;
                    }
                    InitAtom::Zero(n) => {
                        for i in 0..*n {
                            self.mem.loader_write_u8(off + i, 0);
                        }
                        off += n;
                    }
                }
            }
            // Zero-fill the tail.
            while off < addr + size {
                self.mem.loader_write_u8(off, 0);
                off += 1;
            }
        }
        // Second pass: global-to-global pointers, and — when the build
        // protects code pointers — safe-store entries for every pointer
        // the compiler/linker embedded in initializers (§4 "Binary
        // level functionality": jump tables, dispatch tables, vtables).
        for (gid, g) in self.module.globals.iter().enumerate() {
            let mut off = self.global_addrs[gid];
            for atom in &g.init {
                match atom {
                    InitAtom::GlobalPtr(target, delta) => {
                        let target_addr = self.global_addrs[target.0 as usize] + delta;
                        self.mem.loader_write_uint(off, target_addr, 8);
                        if self.config.protect_runtime_code_ptrs {
                            // The pre-interned per-global handle is the
                            // based-on record of the initializer pointer.
                            let meta = self.global_meta[target.0 as usize];
                            // Loader traffic predates execution: not charged.
                            let _ = self.store.set(off, levee_rt::Slot::new(target_addr, meta));
                        }
                    }
                    InitAtom::FuncPtr(fid) if self.config.protect_runtime_code_ptrs => {
                        let entry = func_area + fid.0 as u64 * layout::FUNC_STRIDE;
                        let meta = self.func_meta[fid.0 as usize];
                        let _ = self.store.set(off, levee_rt::Slot::new(entry, meta));
                    }
                    _ => {}
                }
                off += atom.size();
            }
        }
        // Write-protect read-only globals (jump tables, vtables, GOT).
        let ro_len = ro_cursor - self.layout.rodata_base;
        if ro_len > 0 {
            self.mem.protect(self.layout.rodata_base, ro_len);
        }
        // Map the stacks as zero memory, with one slack page above each
        // top (environment/TCB scratch) so that small overflows running
        // off a stack corrupt adjacent data instead of faulting.
        self.mem.map_zero(
            self.layout.stack_top - layout::STACK_LIMIT,
            layout::STACK_LIMIT + 4096,
        );
        self.mem.map_zero(
            self.layout.unsafe_stack_top - layout::UNSAFE_STACK_LIMIT,
            layout::UNSAFE_STACK_LIMIT + 4096,
        );
        self.mem
            .map_zero(self.layout.safe_stack_top() - (4 << 20), 4 << 20);
        // Heap pages map on demand via malloc.
    }

    /// Runs `main` to completion with the given attacker-controlled
    /// input payload.
    pub fn run(&mut self, input: &[u8]) -> RunOutcome {
        self.input = input.to_vec();
        self.input_pos = 0;
        let main = match self.module.func_by_name("main") {
            Some(f) => f,
            None => {
                return RunOutcome {
                    status: ExitStatus::Trapped(Trap::BadControl { addr: 0 }),
                    stats: self.stats,
                    output: String::new(),
                }
            }
        };
        if let Some(p) = self.probe.as_deref_mut() {
            p.begin_run(self.stats.cycles);
        }
        let status = match self.enter_main(main) {
            Err(trap) => ExitStatus::Trapped(trap),
            Ok(()) => match self.config.engine {
                Engine::Walk => self.run_loop(),
                Engine::Bytecode => self.run_bytecode(),
            },
        };
        if let Some(p) = self.probe.as_deref_mut() {
            p.end_run(
                self.stats.cycles,
                self.stats.insts,
                self.stats.checks,
                matches!(status, ExitStatus::Trapped(_)),
            );
        }
        self.finalize_stats();
        RunOutcome {
            status,
            stats: self.stats,
            output: self.output.join("\n"),
        }
    }

    fn run_loop(&mut self) -> ExitStatus {
        loop {
            match self.step() {
                Ok(Some(exit)) => return exit,
                Ok(None) => {}
                Err(trap) => return exit_status(trap),
            }
        }
    }

    fn finalize_stats(&mut self) {
        let (h, miss) = self.cache.stats();
        self.stats.cache_hits = h;
        self.stats.cache_misses = miss;
        self.stats.store_bytes = self.store.memory_bytes();
        self.stats.store_entries_peak = self
            .stats
            .store_entries_peak
            .max(self.store.entry_count() as u64);
        self.stats.regular_bytes = self.mem.resident_bytes();
        self.stats.heap_peak = self.heap.peak_bytes();
        self.stats.input_consumed = self.input_pos as u64;
    }

    // ---- charging helpers -------------------------------------------------

    /// Charges one data-memory access at `addr` (cache + SFI mask).
    /// The SFI mask is a single ALU op that pipelines with the access;
    /// we amortize it as one cycle per three masked accesses.
    ///
    /// `kind`/`width` tag the touch-log record only — they never affect
    /// the charge.
    #[inline(always)]
    pub(crate) fn charge_mem(&mut self, addr: u64, regular: bool, kind: TouchKind, width: u8) {
        let cost = &self.config.cost;
        let mut cycles = cost.mem_hit;
        if !self.cache.access(addr, kind, width) {
            cycles += cost.mem_miss;
        }
        if regular && self.config.isolation == Isolation::Sfi {
            self.sfi_masked += 1;
            if self.sfi_masked.is_multiple_of(3) {
                cycles += cost.sfi_mask;
            }
        }
        self.stats.cycles += cycles;
    }

    /// Charges the safe-store traffic described by `touched`; `kind`
    /// tags the touch log (store writes vs lookups read the same slot
    /// addresses).
    pub(crate) fn charge_store_touches(&mut self, touched: levee_rt::Touched, kind: TouchKind) {
        const SLOT_W: u8 = levee_rt::SLOT_SIZE as u8;
        for addr in touched.iter() {
            self.charge_mem(addr, false, kind, SLOT_W);
        }
        // Touches beyond the recorded sample (range operations, probe
        // chains) are charged as sequential slot-sized accesses
        // following the last recorded address.
        if touched.spill > 0 {
            let base = touched.iter().last().unwrap_or_else(|| self.store.base());
            for i in 1..=touched.spill as u64 {
                self.charge_mem(base + i * levee_rt::SLOT_SIZE, false, kind, SLOT_W);
            }
        }
        if touched.page_fault {
            self.stats.cycles += self.config.cost.page_fault;
            self.stats.page_faults += 1;
            if self.probe.is_some() {
                let (cycles, addr) = (
                    self.stats.cycles,
                    touched.iter().last().unwrap_or_else(|| self.store.base()),
                );
                if let Some(p) = self.probe.as_deref_mut() {
                    p.page_fault(cycles, addr);
                }
            }
        }
        let op_cost = match self.config.hardware {
            crate::config::HardwareModel::Software => self.config.cost.store_op,
            crate::config::HardwareModel::Mpx => self.config.cost.mpx_store_op,
        };
        self.stats.cycles += op_cost;
    }

    // ---- pointer authentication (PAC) -------------------------------------
    //
    // The sealed representation lives only in (regular) memory:
    // registers always hold raw pointers, `pac_sign` runs at
    // memory-write boundaries and `pac_auth` at memory-read boundaries
    // (the `levee_core::pac` pass inserts them; `push_frame`/`do_return`
    // and the setjmp/longjmp paths do the same for machine-written code
    // pointers). See `levee_core::pac` for the pass, and
    // `levee_ripe::template` for the substitution/forgery attacks the
    // context binding does (and does not) stop.

    /// True when this machine seals code pointers.
    #[inline]
    pub(crate) fn pac_active(&self) -> bool {
        self.config.pac != PacMode::Off
    }

    /// The binding context for a code pointer held in slot `slot`:
    /// 0 under [`PacMode::Plain`] (value-only binding), the slot
    /// address under [`PacMode::Tight`] (PACTight-style per-location
    /// binding, which is what defeats substitution).
    #[inline]
    pub(crate) fn pac_ctx(&self, slot: u64) -> u64 {
        match self.config.pac {
            PacMode::Tight => slot,
            _ => 0,
        }
    }

    /// The MAC tag over `raw`'s address bits and `ctx`, `pac_tag_bits`
    /// wide.
    #[inline]
    pub(crate) fn pac_tag(&self, raw: u64, ctx: u64) -> u64 {
        let bits = u32::from(self.config.pac_tag_bits.clamp(1, 16));
        let mix =
            pac_mix((raw & PAC_PTR_MASK) ^ self.pac_key ^ ctx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mix >> (64 - bits)
    }

    /// Seals `raw` under `ctx`: packs the MAC tag into the word's spare
    /// high bits. No layout growth — the sealed pointer is still one
    /// 64-bit word.
    #[inline]
    pub(crate) fn pac_seal(&self, raw: u64, ctx: u64) -> u64 {
        let bits = u32::from(self.config.pac_tag_bits.clamp(1, 16));
        (raw & PAC_PTR_MASK) | (self.pac_tag(raw, ctx) << (64 - bits))
    }

    /// Authenticates a sealed word under `ctx`: recomputes the seal and
    /// compares the full word. Returns the stripped raw pointer, or
    /// [`Trap::Pac`] on tag mismatch (an unsealed or substituted word).
    #[inline]
    pub(crate) fn pac_auth_val(&self, sealed: u64, ctx: u64) -> Result<u64, Trap> {
        let raw = sealed & PAC_PTR_MASK;
        if self.pac_seal(raw, ctx) == sealed {
            Ok(raw)
        } else {
            Err(Trap::Pac { addr: raw })
        }
    }

    /// Charges one `pac_sign` (PACIA-analogue) op.
    #[inline]
    pub(crate) fn charge_pac_sign(&mut self) {
        self.stats.pac_signs += 1;
        self.stats.cycles += self.config.cost.pac_sign;
    }

    /// Charges one `pac_auth` (AUTIA-analogue) op.
    #[inline]
    pub(crate) fn charge_pac_auth(&mut self) {
        self.stats.pac_auths += 1;
        self.stats.cycles += self.config.cost.pac_auth;
    }

    #[inline]
    pub(crate) fn charge_check(&mut self) {
        self.stats.checks += 1;
        self.stats.cycles += match self.config.hardware {
            crate::config::HardwareModel::Software => self.config.cost.check,
            crate::config::HardwareModel::Mpx => self.config.cost.mpx_check,
        };
    }

    // ---- probe glue --------------------------------------------------------
    //
    // Thin forwarding wrappers around the optional profiler. All of them
    // are inert no-ops when profiling is off, and none touches the cost
    // model when it is on — the cycle/inst/check values they pass are
    // *read* from `stats` at call time.

    /// A frame was pushed for `func` (called at the end of `push_frame`,
    /// after all call-setup charges, so setup cost stays with the
    /// caller).
    #[inline]
    pub(crate) fn probe_enter(&mut self, func: u32) {
        if self.probe.is_some() {
            let (c, i, k) = (self.stats.cycles, self.stats.insts, self.stats.checks);
            if let Some(p) = self.probe.as_deref_mut() {
                p.enter(func, c, i, k);
            }
        }
    }

    /// A frame is being popped (called at the top of `pop_frame`, after
    /// the return-sequence charges, so return cost stays with the
    /// callee).
    #[inline]
    pub(crate) fn probe_exit(&mut self) {
        if self.probe.is_some() {
            let (c, i, k) = (self.stats.cycles, self.stats.insts, self.stats.checks);
            if let Some(p) = self.probe.as_deref_mut() {
                p.exit(c, i, k);
            }
        }
    }

    /// A CPI check at `site` is about to run.
    #[inline]
    pub(crate) fn probe_check_attempt(&mut self, site: CheckSite) {
        if self.probe.is_some() {
            let now = self.stats.cycles;
            if let Some(p) = self.probe.as_deref_mut() {
                p.check_attempt(site, now);
            }
        }
    }

    /// The CPI check at `site` passed.
    #[inline]
    pub(crate) fn probe_check_pass(&mut self, site: CheckSite) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.check_pass(site);
        }
    }

    /// A safe-pointer-store operation executed at `addr`.
    #[inline]
    pub(crate) fn probe_store_op(&mut self, addr: u64, is_load: bool) {
        if self.probe.is_some() {
            let now = self.stats.cycles;
            if let Some(p) = self.probe.as_deref_mut() {
                p.store_op(now, addr, is_load);
            }
        }
    }

    // ---- guarded program memory access ------------------------------------

    /// Converts a raw memory error into a trap.
    pub(crate) fn mem_trap(e: MemError) -> Trap {
        match e {
            MemError::Unmapped { addr } => Trap::Unmapped { addr },
            MemError::WriteProtected { addr } => Trap::WriteProtected { addr },
        }
    }

    /// Enforces the isolation invariant for an access from `space`.
    #[inline(always)]
    pub(crate) fn isolation_check(&self, addr: u64, space: MemSpace) -> Result<(), Trap> {
        if space == MemSpace::Regular && self.layout.in_safe_region(addr) {
            return match self.config.isolation {
                Isolation::None => Ok(()),
                Isolation::Segmentation | Isolation::Sfi => Err(Trap::SafeRegion { addr }),
                // Under information hiding a regular access to the safe
                // region means the program (or attacker) somehow forged
                // an address; it behaves like a wild access.
                Isolation::InfoHiding => Err(Trap::Unmapped { addr }),
            };
        }
        Ok(())
    }

    /// Program-level typed read.
    #[inline(always)]
    pub(crate) fn prog_read(&mut self, addr: u64, size: u64, space: MemSpace) -> Result<u64, Trap> {
        self.isolation_check(addr, space)?;
        self.charge_mem(
            addr,
            space == MemSpace::Regular,
            TouchKind::Read,
            size as u8,
        );
        self.mem.read_uint(addr, size).map_err(Self::mem_trap)
    }

    /// Program-level typed write.
    #[inline(always)]
    pub(crate) fn prog_write(
        &mut self,
        addr: u64,
        value: u64,
        size: u64,
        space: MemSpace,
    ) -> Result<(), Trap> {
        self.isolation_check(addr, space)?;
        self.charge_mem(
            addr,
            space == MemSpace::Regular,
            TouchKind::Write,
            size as u8,
        );
        self.mem
            .write_uint(addr, value, size)
            .map_err(Self::mem_trap)
    }

    // ---- register access ---------------------------------------------------

    #[inline]
    pub(crate) fn frame(&self) -> &Frame {
        self.frames.last().expect("no active frame")
    }

    #[inline]
    pub(crate) fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no active frame")
    }

    #[inline]
    pub(crate) fn eval(&self, op: Operand) -> V {
        match op {
            Operand::Const(c) => V::int(c as u64),
            Operand::Value(v) => self.frame().regs[v.0 as usize],
        }
    }

    #[inline]
    pub(crate) fn set_reg(&mut self, dest: ValueId, v: V) {
        self.frame_mut().regs[dest.0 as usize] = v;
    }

    // ---- provenance helpers ------------------------------------------------

    /// Interns the based-on part of `e`: its `value` field is normalized
    /// to `lower` so every pointer based on one object shares a record.
    #[inline]
    pub(crate) fn intern_prov(&mut self, e: Entry) -> MetaId {
        self.meta.intern(Entry {
            value: e.lower,
            ..e
        })
    }

    /// A pointer value based on the object `[lower, upper)`. (Code
    /// pointers never intern here: `FuncAddr` uses the pre-interned
    /// [`Machine::func_meta`] handles.)
    #[inline]
    pub(crate) fn v_data(&mut self, raw: u64, lower: u64, upper: u64, id: u64) -> V {
        V {
            raw,
            meta: self.meta.intern(Entry::data(lower, lower, upper, id)),
        }
    }

    /// Deterministic LCG for the `rand` intrinsic.
    pub(crate) fn next_rand(&mut self) -> u64 {
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng_state >> 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The representation guarantee behind the V shrink: a runtime value
    /// is at most 16 bytes (raw word + interned metadata handle), down
    /// from the 48 bytes of the inline `Option<Entry>` layout, so every
    /// register file, argument list and frame copy moves ≤⅓ the memory.
    #[test]
    fn value_is_compact() {
        assert!(std::mem::size_of::<V>() <= 16);
        assert_eq!(std::mem::size_of::<MetaId>(), 4);
    }
}
