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
//!
//! A [`Machine`] has three parts, each with one owner:
//!
//! * the load image (`image.rs`): the module, held by `Arc`, and what
//!   the loader derives from it and the configuration — function,
//!   return-site, intrinsic and global addresses, frame descriptors,
//!   signature hashes, the check-site numbering, the cookie, the PAC
//!   key and the lazily compiled bytecode. It never changes after boot,
//!   so forks, snapshot restores and loader resets share it behind an
//!   `Arc`, and a machine borrows nothing: `Machine<'static>` is an
//!   owned value that can move between threads and owners;
//! * the copy-on-write components — [`Memory`], [`Heap`], the safe
//!   pointer store, the provenance [`MetaTable`] and the [`Cache`] —
//!   each with its own capture and restore;
//! * the run state: everything a run moves, re-armed in place by one
//!   function at boot and at every snapshot restore, and cloned whole
//!   by [`Machine::fork`].
//!
//! The configuration, the layout (a copy of the image's: the isolation
//! check reads it on every access), the loader-minted provenance
//! handles, the attack goals, the profiler and the register-file pool
//! are the machine's own.

mod attacker;
mod bytecode;
mod control;
mod cpi;
mod exec;
mod image;
mod intrinsics;
mod ops;

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use levee_bc::FrameDesc;
use levee_ir::prelude::*;
use levee_rt::{Entry, FastHash, MetaId, MetaMark, MetaTable, PtrStore};

use crate::cache::Cache;
use crate::config::{Engine, Isolation, PacMode, ResetMode, VmConfig};
use crate::heap::Heap;
use crate::layout::{self, Layout};
use crate::mem::{MemError, Memory};
use crate::probe::{ProfileReport, Profiler};
use crate::stats::{ExecStats, ResetStats};
use crate::trap::{ExitStatus, GoalKind, Trap};

pub use attacker::{AttackerError, GuessOutcome};
pub(crate) use image::{CheckSite, Image};

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
#[derive(Clone)]
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

/// The virtual machine: a load image, copy-on-write components and a
/// run state (see the module docs).
pub struct Machine<'m> {
    pub(crate) image: Arc<Image>,
    pub(crate) config: VmConfig,
    pub(crate) layout: Layout,
    pub(crate) mem: Memory,
    pub(crate) cache: Cache,
    pub(crate) heap: Heap,
    pub(crate) store: Box<dyn PtrStore>,
    /// The provenance interner: every based-on record lives here once,
    /// referenced by the [`MetaId`] handles inside values.
    pub(crate) meta: MetaTable,
    /// Pre-interned code provenance per function (FuncAddr results).
    /// Minted in this machine's table, so not part of the image: the
    /// loader reset re-interns them under a bumped generation.
    pub(crate) func_meta: Vec<MetaId>,
    /// Pre-interned data provenance per global (GlobalAddr results).
    pub(crate) global_meta: Vec<MetaId>,
    pub(crate) run: RunState,
    /// Attack goals: reaching one of these addresses by an indirect
    /// transfer ends the run with `Trap::Hijacked`.
    pub(crate) goals: HashMap<u64, GoalKind, FastHash>,
    /// The execution profiler ([`crate::probe`]), attached when
    /// [`VmConfig::profile`] is set. Host-side observation only: no
    /// probe method touches the simulated cost model.
    pub(crate) probe: Option<Box<Profiler>>,
    /// Recycled register files: calls are frequent enough that
    /// allocating a fresh `Vec<V>` per frame shows up in profiles.
    pub(crate) reg_pool: Vec<Vec<V>>,
    /// The provenance table's post-load mark: `Some` whenever
    /// [`VmConfig::reset_mode`] is [`ResetMode::Snapshot`], taken at the
    /// end of [`Machine::boot`]. The rest of the post-load snapshot is
    /// held copy-on-write inside [`Memory`], the store and [`Heap`].
    /// Restoring it drops the entries a run minted while loader-minted
    /// handles (`func_meta`, `global_meta`) stay valid — no generation
    /// bump, unlike the loader reset.
    snapshot: Option<MetaMark>,
    /// What the most recent [`Machine::reset`] cost; all-zero before
    /// the first reset.
    last_reset: ResetStats,
    /// The only use of `'m`. A machine owns its module through the
    /// image, so the lifetime constrains nothing; it stays because the
    /// benchmark package (`perfbench/`) names `Machine<'_>`, and goes
    /// with the next change to the benchmark.
    _module: PhantomData<&'m Module>,
}

/// Everything a run moves. [`RunState::rearm`] puts it back to its
/// post-load value; [`Machine::fork`] clones it whole.
#[derive(Clone, Default)]
pub(crate) struct RunState {
    pub stats: ExecStats,
    pub frames: Vec<Frame>,
    pub sp: u64,
    pub unsafe_sp: u64,
    pub safe_sp: u64,
    pub shadow_stack: Vec<u64>,
    pub output: Vec<String>,
    pub input: Vec<u8>,
    pub input_pos: usize,
    /// State of the deterministic `rand` intrinsic.
    pub rng_state: u64,
    /// Live setjmp contexts keyed by token address.
    pub setjmp_ctxs: HashMap<u64, SetjmpCtx, FastHash>,
    /// Provenance of values stored (spilled) to the safe stack, keyed by
    /// slot address: the word that was stored plus its metadata handle.
    /// The safe stack is trusted storage inside the safe region (like
    /// spilled registers), so metadata survives a round-trip through it
    /// as long as the reloaded word still matches.
    pub safe_stack_meta: HashMap<u64, (u64, MetaId), FastHash>,
    /// Count of SFI-masked accesses (for amortized charging).
    pub sfi_masked: u64,
}

impl RunState {
    /// Re-arms the state to its post-load value in place: containers are
    /// cleared, never replaced, so a snapshot restore allocates nothing.
    /// The caller has already drained `frames` (their register files go
    /// back to the machine's pool).
    fn rearm(&mut self, layout: &Layout, seed: u64) {
        debug_assert!(self.frames.is_empty());
        self.stats = ExecStats::default();
        self.sp = layout.stack_top;
        self.unsafe_sp = layout.unsafe_stack_top;
        self.safe_sp = layout.safe_stack_top();
        self.shadow_stack.clear();
        self.output.clear();
        self.input.clear();
        self.input_pos = 0;
        self.rng_state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.setjmp_ctxs.clear();
        self.safe_stack_meta.clear();
        self.sfi_masked = 0;
    }
}

/// A `Machine` migrates whole into worker threads (levee-core's
/// `SessionPool`); pin the `Send` guarantee at compile time so a
/// non-`Send` field (e.g. a store without the `Send` supertrait)
/// cannot regress it silently. Forks on other threads share one
/// [`Image`], so it must be `Sync` too.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Machine<'static>>();
    assert_sync::<Image>();
};

impl<'m> Machine<'m> {
    /// Loads a copy of `module` into a fresh machine with the given
    /// config: the image owns its module, so this clones it. Callers
    /// that already hold the module in an `Arc` boot with
    /// [`Machine::from_shared`], which does not.
    pub fn new(module: &'m Module, config: VmConfig) -> Self {
        Self::from_shared(Arc::new(module.clone()), config)
    }

    /// Loads `module` into a fresh machine with the given config. The
    /// machine shares the module with every other holder of the `Arc`.
    pub fn from_shared(module: Arc<Module>, config: VmConfig) -> Self {
        Self::boot(
            Arc::new(Image::new(module, &config)),
            config,
            MetaTable::new(),
        )
    }

    /// Shared constructor behind [`Machine::from_shared`] and
    /// [`Machine::reset`]: loads `image` into a fresh machine around an
    /// existing provenance table (reset passes the old table with its
    /// generation already bumped, so handles minted before the reset
    /// stay invalid).
    fn boot(image: Arc<Image>, config: VmConfig, meta: MetaTable) -> Self {
        let layout = image.layout;
        let mut m = Machine {
            image,
            config,
            layout,
            mem: Memory::new(),
            cache: Cache::default_l1(),
            heap: Heap::new(layout.heap_base, layout::HEAP_LIMIT),
            store: config.store_kind.instantiate(layout.ptr_store_base()),
            meta,
            func_meta: Vec::new(),
            global_meta: Vec::new(),
            run: RunState::default(),
            goals: HashMap::default(),
            probe: None,
            reg_pool: Vec::new(),
            snapshot: None,
            last_reset: ResetStats::default(),
            _module: PhantomData,
        };
        m.rearm();
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
            m.snapshot = Some(m.meta.mark());
        }
        m
    }

    /// Re-arms the run state and the profiler — the part of boot that a
    /// snapshot restore repeats. Frames left by a trapped run recycle
    /// through the same pool as completed calls.
    fn rearm(&mut self) {
        while let Some(frame) = self.run.frames.pop() {
            self.recycle_vec(frame.regs);
        }
        self.run.rearm(&self.layout, self.config.seed);
        self.probe = self.new_probe();
    }

    /// A fresh profiler when [`VmConfig::profile`] is set.
    fn new_probe(&self) -> Option<Box<Profiler>> {
        self.config
            .profile
            .then(|| Box::new(Profiler::new(self.image.module.funcs.len())))
    }

    /// Forks this machine into an independent twin for another worker.
    ///
    /// The fork shares the load image with the original — the loader's
    /// tables and the bytecode, compiled at most once for every machine
    /// that shares it: a fork of a machine that has not compiled yet
    /// uses whichever of them compiles first. It also shares the
    /// copy-on-write substrate: memory pages, safe-store pages and their
    /// captured baselines stay `Arc`-shared until either machine writes
    /// to them, so N resident workers cost one boot image plus their
    /// private dirt. Everything mutable — the run state, dirty lists,
    /// the provenance table, the cache model — is cloned, never shared,
    /// so the fork's clean-page invariant (`Arc::strong_count > 1` ⟺
    /// shared with *its own* baseline) holds no matter how many
    /// machines hold the same pages.
    ///
    /// The profiler is not forked (profiling is per-machine
    /// observation): when [`VmConfig::profile`] is set the fork starts
    /// a fresh probe.
    ///
    /// # Panics
    ///
    /// Panics when called mid-run (live frames): forking an executing
    /// machine is an owner lifecycle bug.
    pub fn fork(&self) -> Machine<'m> {
        assert!(
            self.run.frames.is_empty(),
            "cannot fork a machine mid-run; fork between runs"
        );
        Machine {
            image: Arc::clone(&self.image),
            config: self.config,
            layout: self.layout,
            mem: self.mem.clone(),
            cache: self.cache.clone(),
            heap: self.heap.clone(),
            store: self.store.boxed_clone(),
            meta: self.meta.clone(),
            func_meta: self.func_meta.clone(),
            global_meta: self.global_meta.clone(),
            run: self.run.clone(),
            goals: self.goals.clone(),
            probe: self.new_probe(),
            reg_pool: Vec::new(),
            snapshot: self.snapshot.clone(),
            last_reset: ResetStats::default(),
            _module: PhantomData,
        }
    }

    /// The module this machine runs, shared with its forks and with
    /// every machine booted from the same `Arc`.
    pub fn module(&self) -> &Arc<Module> {
        &self.image.module
    }

    /// The configuration this machine was booted with (and
    /// [`Machine::enable_profile`] may have adjusted).
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The layout of this execution (fixed or randomized).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The entry address of a function, by name.
    pub fn func_entry(&self, name: &str) -> Option<u64> {
        self.image
            .module
            .func_by_name(name)
            .map(|f| self.image.func_addrs[f.0 as usize])
    }

    /// The data address of a global, by name.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        self.image
            .module
            .global_by_name(name)
            .map(|g| self.image.global_addrs[g.0 as usize])
    }

    /// The pseudo entry address of a libc intrinsic (`system`, …) — the
    /// classic return-to-libc target.
    pub fn intrinsic_entry(&self, which: Intrinsic) -> u64 {
        self.image.intrinsic_addrs[&which]
    }

    /// Registers an attack goal: control reaching `addr` via any
    /// indirect transfer ends the run as a successful hijack.
    pub fn add_goal(&mut self, addr: u64, kind: GoalKind) {
        self.goals.insert(addr, kind);
    }

    /// All valid return-site addresses — the target set a coarse CFI
    /// return policy admits (used by CFI-bypass experiments).
    pub fn ret_site_addrs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.image.ret_sites.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.run.stats
    }

    /// Starts recording the memory touch log: the address of every
    /// simulated memory access (program loads/stores, frame slots,
    /// safe-store traffic — everything the cache model sees) in
    /// execution order. Differential suites diff the logs of two
    /// configurations to prove they perform identical access
    /// *sequences*, not merely identical totals.
    pub fn enable_mem_trace(&mut self) {
        self.cache.enable_trace();
    }

    /// The recorded memory touch log, one address per access (empty
    /// unless [`Machine::enable_mem_trace`] was called before running).
    pub fn mem_trace(&self) -> &[u64] {
        self.cache.trace().unwrap_or(&[])
    }

    /// Attaches the execution profiler for subsequent runs (equivalent
    /// to constructing with [`VmConfig::profile`] set; the knob rides
    /// in the config, so it survives [`Machine::reset`]).
    pub fn enable_profile(&mut self) {
        self.config.profile = true;
        if self.probe.is_none() {
            self.probe = self.new_probe();
        }
    }

    /// The profiling report of the last run (`None` unless profiling
    /// was enabled before it).
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.probe
            .as_ref()
            .map(|p| p.report(&self.image.module, &self.run.stats))
    }

    /// Superinstruction fusion plan counts, recorded when the module
    /// was compiled to bytecode (`None` until then; all-zero when
    /// fusion is off). The compile is shared with every fork, so this
    /// is `Some` as soon as this machine or any machine sharing its
    /// image has compiled.
    pub fn fuse_stats(&self) -> Option<levee_bc::FuseStats> {
        self.image.fuse_stats()
    }

    /// Resets the machine to its freshly-loaded state so [`Machine::run`]
    /// can be called again. Attack goals, the image (compiled bytecode
    /// included) and the mem-trace setting survive (they depend only on
    /// the module and config, which do not change); everything a run can
    /// move — frames, stacks, the memory image, heap, store, cache,
    /// stats, output — is re-armed. However the reset is performed, the
    /// result replays bit-identically to a fresh [`Machine::new`] in
    /// every simulated counter (the differential suites and the session
    /// proptest in `levee-core` enforce this).
    ///
    /// Two mechanisms, selected by [`VmConfig::reset_mode`]:
    ///
    /// * [`ResetMode::Snapshot`] (the default): restore from the
    ///   copy-on-write post-load image captured at boot, copying back
    ///   only what the last run dirtied (`restore_from_snapshot`). This
    ///   is what makes per-request machine recycling
    ///   (`levee_core::session::Session::run_batch`) nearly free.
    /// * [`ResetMode::Loader`]: tear down memory, heap and store and
    ///   re-run the loader over the shared image.
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
        if self.snapshot.is_some() {
            self.restore_from_snapshot();
            return;
        }
        // Bump the generation before the rebuild: `boot` re-interns the
        // loader's handles into the surviving table, so they (and
        // nothing minted earlier) are the only live handles afterwards.
        self.meta.reset();
        // Survivors: the bumped table (generation sequence continues),
        // the image, attack goals (layout is config-deterministic) and
        // the trace setting.
        let meta = std::mem::take(&mut self.meta);
        let goals = std::mem::take(&mut self.goals);
        let tracing = self.cache.trace().is_some();
        *self = Self::boot(Arc::clone(&self.image), self.config, meta);
        self.goals = goals;
        if tracing {
            self.cache.enable_trace();
        }
    }

    /// The snapshot arm of [`Machine::reset`]: reverts exactly what the
    /// last run dirtied and re-arms the run state, without touching the
    /// loader.
    ///
    /// The heavy state restores itself component by component —
    /// [`Memory::restore_snapshot`] re-shares dirty pages,
    /// `PtrStore::restore_snapshot` reverts dirty store structure,
    /// [`Heap::restore_snapshot`] copies the allocator maps back only
    /// if the run allocated, [`MetaTable::truncate_to`] drops
    /// run-interned provenance and [`Cache::reset`] empties the cache
    /// model. The run state is re-armed by the same function boot uses.
    fn restore_from_snapshot(&mut self) {
        let (pages_dirtied, bytes_restored) = self.mem.restore_snapshot();
        let store_bytes_restored = self.store.restore_snapshot();
        self.heap.restore_snapshot();
        let mark = self.snapshot.as_ref().expect("snapshot present");
        let meta_entries_dropped = self.meta.truncate_to(mark);
        // Cache reset empties the touch log but keeps tracing enabled,
        // matching the loader path's re-enable.
        self.cache.reset();
        self.rearm();
        self.last_reset = ResetStats {
            used_snapshot: true,
            pages_dirtied,
            bytes_restored,
            store_bytes_restored,
            meta_entries_dropped,
        };
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

    /// The loader: writes the image into memory and the safe store and
    /// interns the code and data provenance handles.
    fn load(&mut self) {
        let image = Arc::clone(&self.image);
        let module = &image.module;
        let func_area = Image::func_area();
        for entry in &image.func_addrs {
            self.func_meta.push(self.meta.intern(Entry::code(*entry)));
        }
        // Code and rodata are write-protected (threat model §2).
        self.mem.protect(
            layout::CODE_BASE,
            func_area - layout::CODE_BASE + module.funcs.len() as u64 * layout::FUNC_STRIDE,
        );

        // Globals.
        for (g, (&addr, &size)) in module
            .globals
            .iter()
            .zip(image.global_addrs.iter().zip(&image.global_sizes))
        {
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
                        let target = Image::entry(*fid);
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
        for (g, &addr) in module.globals.iter().zip(&image.global_addrs) {
            let mut off = addr;
            for atom in &g.init {
                match atom {
                    InitAtom::GlobalPtr(target, delta) => {
                        let target_addr = image.global_addrs[target.0 as usize] + delta;
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
                        let entry = Image::entry(*fid);
                        let meta = self.func_meta[fid.0 as usize];
                        let _ = self.store.set(off, levee_rt::Slot::new(entry, meta));
                    }
                    _ => {}
                }
                off += atom.size();
            }
        }
        // Write-protect read-only globals (jump tables, vtables, GOT).
        if image.rodata_len > 0 {
            self.mem.protect(self.layout.rodata_base, image.rodata_len);
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
        self.run.input = input.to_vec();
        self.run.input_pos = 0;
        let main = match self.image.module.func_by_name("main") {
            Some(f) => f,
            None => {
                return RunOutcome {
                    status: ExitStatus::Trapped(Trap::BadControl { addr: 0 }),
                    stats: self.run.stats,
                    output: String::new(),
                }
            }
        };
        if let Some(p) = self.probe.as_deref_mut() {
            p.begin_run(self.run.stats.cycles);
        }
        let status = match self.enter_main(main) {
            Err(trap) => ExitStatus::Trapped(trap),
            Ok(()) => match self.config.engine {
                Engine::Walk => self.run_loop(),
                Engine::Bytecode => self.run_bytecode(),
            },
        };
        if let Some(p) = self.probe.as_deref_mut() {
            let stats = &self.run.stats;
            p.end_run(stats.cycles, stats.insts, stats.checks);
        }
        self.finalize_stats();
        RunOutcome {
            status,
            stats: self.run.stats,
            output: self.run.output.join("\n"),
        }
    }

    fn run_loop(&mut self) -> ExitStatus {
        // One module handle per run, so each step borrows the IR while
        // `&mut self` methods run.
        let image = Arc::clone(&self.image);
        loop {
            match self.step(&image.module) {
                Ok(Some(exit)) => return exit,
                Ok(None) => {}
                Err(trap) => return exit_status(trap),
            }
        }
    }

    fn finalize_stats(&mut self) {
        let (h, miss) = self.cache.stats();
        self.run.stats.cache_hits = h;
        self.run.stats.cache_misses = miss;
        self.run.stats.store_bytes = self.store.memory_bytes();
        self.run.stats.store_entries_peak = self
            .run
            .stats
            .store_entries_peak
            .max(self.store.entry_count() as u64);
        self.run.stats.regular_bytes = self.mem.resident_bytes();
        self.run.stats.heap_peak = self.heap.peak_bytes();
        self.run.stats.input_consumed = self.run.input_pos as u64;
    }

    // ---- charging helpers -------------------------------------------------

    /// Charges one data-memory access at `addr` (cache + SFI mask).
    /// The SFI mask is a single ALU op that pipelines with the access;
    /// we amortize it as one cycle per three masked accesses.
    #[inline(always)]
    pub(crate) fn charge_mem(&mut self, addr: u64, regular: bool) {
        let cost = &self.config.cost;
        let mut cycles = cost.mem_hit;
        if !self.cache.access(addr) {
            cycles += cost.mem_miss;
        }
        if regular && self.config.isolation == Isolation::Sfi {
            self.run.sfi_masked += 1;
            if self.run.sfi_masked.is_multiple_of(3) {
                cycles += cost.sfi_mask;
            }
        }
        self.run.stats.cycles += cycles;
    }

    /// Charges the safe-store traffic described by `touched`.
    pub(crate) fn charge_store_touches(&mut self, touched: levee_rt::Touched) {
        for addr in touched.iter() {
            self.charge_mem(addr, false);
        }
        // Touches beyond the recorded sample (range operations, probe
        // chains) are charged as sequential slot-sized accesses
        // following the last recorded address.
        if touched.spill > 0 {
            let base = touched.iter().last().unwrap_or_else(|| self.store.base());
            for i in 1..=touched.spill as u64 {
                self.charge_mem(base + i * levee_rt::SLOT_SIZE, false);
            }
        }
        if touched.page_fault {
            self.run.stats.cycles += self.config.cost.page_fault;
            self.run.stats.page_faults += 1;
        }
        let op_cost = match self.config.hardware {
            crate::config::HardwareModel::Software => self.config.cost.store_op,
            crate::config::HardwareModel::Mpx => self.config.cost.mpx_store_op,
        };
        self.run.stats.cycles += op_cost;
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
        let mix = pac_mix(
            (raw & PAC_PTR_MASK) ^ self.image.pac_key ^ ctx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
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
        self.run.stats.pac_signs += 1;
        self.run.stats.cycles += self.config.cost.pac_sign;
    }

    /// Charges one `pac_auth` (AUTIA-analogue) op.
    #[inline]
    pub(crate) fn charge_pac_auth(&mut self) {
        self.run.stats.pac_auths += 1;
        self.run.stats.cycles += self.config.cost.pac_auth;
    }

    #[inline]
    pub(crate) fn charge_check(&mut self) {
        self.run.stats.checks += 1;
        self.run.stats.cycles += match self.config.hardware {
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
        if let Some(p) = self.probe.as_deref_mut() {
            let s = &self.run.stats;
            p.enter(func, s.cycles, s.insts, s.checks);
        }
    }

    /// A frame is being popped (called at the top of `pop_frame`, after
    /// the return-sequence charges, so return cost stays with the
    /// callee).
    #[inline]
    pub(crate) fn probe_exit(&mut self) {
        if let Some(p) = self.probe.as_deref_mut() {
            let s = &self.run.stats;
            p.exit(s.cycles, s.insts, s.checks);
        }
    }

    /// A CPI check at `site` is about to run.
    #[inline]
    pub(crate) fn probe_check_attempt(&mut self, site: CheckSite) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.check(&self.image, site, false);
        }
    }

    /// The CPI check at `site` passed.
    #[inline]
    pub(crate) fn probe_check_pass(&mut self, site: CheckSite) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.check(&self.image, site, true);
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
        self.charge_mem(addr, space == MemSpace::Regular);
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
        self.charge_mem(addr, space == MemSpace::Regular);
        self.mem
            .write_uint(addr, value, size)
            .map_err(Self::mem_trap)
    }

    // ---- register access ---------------------------------------------------

    #[inline]
    pub(crate) fn frame(&self) -> &Frame {
        self.run.frames.last().expect("no active frame")
    }

    #[inline]
    pub(crate) fn frame_mut(&mut self) -> &mut Frame {
        self.run.frames.last_mut().expect("no active frame")
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
        self.run.rng_state = self
            .run
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.run.rng_state >> 16
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

    /// Forks and both reset modes keep the image they started with; only
    /// a boot builds one, and a boot from a shared module keeps sharing
    /// it.
    #[test]
    fn forks_and_resets_share_the_image() {
        let mut module = Module::new("t");
        let mut b = FuncBuilder::new("main", FnSig::new(vec![], Ty::I32));
        b.ret(Some(Operand::Const(0)));
        module.add_func(b.finish());
        let module = Arc::new(module);
        for mode in [ResetMode::Snapshot, ResetMode::Loader] {
            let config = VmConfig::default().with_reset_mode(mode);
            let mut m = Machine::from_shared(Arc::clone(&module), config);
            let image = Arc::clone(&m.image);
            assert!(Arc::ptr_eq(&image, &m.fork().image), "{mode:?}: fork");
            m.run(b"");
            m.reset();
            assert_eq!(
                m.last_reset_stats().used_snapshot,
                mode == ResetMode::Snapshot
            );
            assert!(Arc::ptr_eq(&image, &m.image), "{mode:?}: reset");
            let fresh = Machine::from_shared(Arc::clone(&module), config);
            assert!(!Arc::ptr_eq(&image, &fresh.image), "{mode:?}: boot");
            assert!(Arc::ptr_eq(&module, fresh.module()), "{mode:?}: module");
        }
    }
}
