//! The load image: the module and everything the loader derives from
//! it and a configuration that no run can change.
//!
//! In the paper's threat model (§2) code and read-only data are
//! immutable, and the loader write-protects them. The image holds the
//! module behind an `Arc` (machines booted from one module under other
//! configurations share it) and the tables that describe its layout —
//! where each function and global lives, which addresses are return
//! sites, each function's frame descriptor, the check-site numbering
//! and the compiled bytecode. They are built once per boot (the
//! bytecode on the first run, the check-site numbering on the first
//! profiled one) and shared, behind an `Arc`, by every fork, snapshot
//! restore and loader reset of that machine, so a machine borrows
//! nothing.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use levee_bc::{op_len, BcModule, FrameDesc, FuseStats, Op};
use levee_ir::prelude::*;
use levee_rt::FastHash;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Isolation, VmConfig};
use crate::layout::{self, Layout};

use super::pac_mix;

/// Where a CPI check executes, in the coordinates of the engine running
/// it; [`Image::check_site`] maps both onto one per-function numbering.
#[derive(Clone, Copy)]
pub(crate) enum CheckSite {
    /// The step walker's `(func, block, ip)`.
    Ir(u32, u32, u32),
    /// The bytecode engine's `(func, pc)` of a check-shaped opcode.
    Bc(u32, u32),
}

/// The module compiled to bytecode, with what the compile derived.
pub(crate) struct Compiled {
    /// The (possibly fused) bytecode.
    pub bc: BcModule,
    /// Fusion plan counts (all-zero when fusion is off).
    pub fuse_stats: FuseStats,
    /// Per function, `pc → check-site index` of each check-shaped
    /// opcode, built on first read (only the profiler reads it): the
    /// same numbering as the walker's map (see [`Image::check_site`]),
    /// because compilation flattens blocks in order and fusion replaces
    /// adjacent pairs in place.
    check_sites: OnceLock<Vec<HashMap<u32, u32, FastHash>>>,
}

impl Compiled {
    /// The per-function `pc → check-site index` maps.
    fn check_sites(&self) -> &[HashMap<u32, u32, FastHash>] {
        self.check_sites.get_or_init(|| {
            self.bc
                .funcs
                .iter()
                .map(|f| {
                    let mut sites = HashMap::default();
                    let mut pc = 0;
                    while pc < f.code.len() {
                        if matches!(
                            Op::from_u32(f.code[pc]),
                            Op::Check
                                | Op::FnCheck
                                | Op::CheckLoad
                                | Op::CheckPtrLoad
                                | Op::CheckedCall
                        ) {
                            sites.insert(pc as u32, sites.len() as u32);
                        }
                        pc += op_len(&f.code, pc);
                    }
                    sites
                })
                .collect()
        })
    }
}

/// The immutable half of a machine (see the module docs).
pub(crate) struct Image {
    pub module: Arc<Module>,
    /// The layout the tables below were computed against (fixed, or
    /// drawn from the seed).
    pub layout: Layout,
    /// The stack cookie, drawn from the seed at boot.
    pub cookie: u64,
    /// The MAC key of the PAC defense family. A salted splitmix of the
    /// seed, not a draw from the boot RNG, so the layout and cookie
    /// streams are identical whether or not PAC is configured.
    pub pac_key: u64,
    /// FuncId → code entry address.
    pub func_addrs: Vec<u64>,
    /// Entry address → FuncId.
    pub entry_to_func: HashMap<u64, FuncId, FastHash>,
    /// Return-site address → calling function: the valid targets of a
    /// return.
    pub ret_sites: HashMap<u64, FuncId, FastHash>,
    /// (FuncId, BlockId, ip) → index of that call site in its function
    /// (the walker's route to [`Image::ret_site`]).
    pub site_of_call: HashMap<(u32, u32, usize), u32, FastHash>,
    /// GlobalId → data address.
    pub global_addrs: Vec<u64>,
    /// GlobalId → size in bytes (at least 1).
    pub global_sizes: Vec<u64>,
    /// Bytes of read-only globals from `layout.rodata_base`.
    pub rodata_len: u64,
    /// Intrinsic → pseudo entry address (ret2libc targets).
    pub intrinsic_addrs: HashMap<Intrinsic, u64>,
    /// Per-function signature hashes (type-signature CFI).
    pub sig_hashes: Vec<u64>,
    /// Per-function frame descriptors (shared by both engines).
    pub frame_descs: Vec<FrameDesc>,
    /// `(func, block, ip) → site index` of every CPI `Check`/`FnCheck`,
    /// numbered per function in program order, built on first read
    /// (only the profiler reads it).
    check_sites: OnceLock<HashMap<(u32, u32, u32), u32, FastHash>>,
    fusion: bool,
    compiled: OnceLock<Compiled>,
}

impl Image {
    /// Lays `module` out under `config`: draws the layout and cookie
    /// from the seed and places every function, return site, intrinsic
    /// and global.
    pub fn new(module: Arc<Module>, config: &VmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5afe_5afe);
        let layout = if config.aslr || config.isolation == Isolation::InfoHiding {
            Layout::randomized(&mut rng, config.aslr)
        } else {
            Layout::fixed()
        };
        let mut image = Image {
            layout,
            cookie: rng.gen::<u64>() | 1,
            pac_key: pac_mix(config.seed ^ 0x5EA1_C0DE_5EA1_C0DE),
            func_addrs: Vec::with_capacity(module.funcs.len()),
            entry_to_func: HashMap::default(),
            ret_sites: HashMap::default(),
            site_of_call: HashMap::default(),
            global_addrs: Vec::with_capacity(module.globals.len()),
            global_sizes: Vec::with_capacity(module.globals.len()),
            rodata_len: 0,
            intrinsic_addrs: HashMap::new(),
            sig_hashes: Vec::with_capacity(module.funcs.len()),
            frame_descs: Vec::with_capacity(module.funcs.len()),
            check_sites: OnceLock::new(),
            fusion: config.fusion,
            compiled: OnceLock::new(),
            module,
        };
        // Code layout: program functions low, the libc (intrinsic) block
        // high — and only the libc block moves under ASLR (non-PIE).
        let libc_base = layout::CODE_BASE + layout::LIBC_CODE_OFFSET + layout.libc_shift;
        for (i, intr) in Intrinsic::all().iter().enumerate() {
            image
                .intrinsic_addrs
                .insert(*intr, libc_base + 64 + i as u64 * 16);
        }
        for (fid, f) in image.module.iter_funcs() {
            let entry = Self::entry(fid);
            image.func_addrs.push(entry);
            image.entry_to_func.insert(entry, fid);
            image.sig_hashes.push(f.sig.type_hash());
            image.frame_descs.push(FrameDesc::of(f));
            // Return sites for every call-shaped instruction, in
            // `iter_call_sites` order — the same numbering the bytecode
            // compiler embeds as site indices.
            for (site, (bid, ip, _)) in f.iter_call_sites().enumerate() {
                let site = site as u32;
                image.site_of_call.insert((fid.0, bid.0, ip), site);
                image.ret_sites.insert(image.ret_site(fid.0, site), fid);
            }
        }
        let mut ro_cursor = layout.rodata_base;
        let mut rw_cursor = layout.data_base;
        for g in &image.module.globals {
            let size = image.module.types.size_of(&g.ty).max(1);
            let cursor = if g.read_only {
                &mut ro_cursor
            } else {
                &mut rw_cursor
            };
            let addr = crate::ctx_align(*cursor, 16);
            *cursor = addr + size;
            image.global_addrs.push(addr);
            image.global_sizes.push(size);
        }
        image.rodata_len = ro_cursor - layout.rodata_base;
        image
    }

    /// The code entry address of function `fid`.
    pub fn entry(fid: FuncId) -> u64 {
        Self::func_area() + fid.0 as u64 * layout::FUNC_STRIDE
    }

    /// Start of the program-function area of the code segment.
    pub fn func_area() -> u64 {
        layout::CODE_BASE + 0x10_000
    }

    /// The return address of call site `site` in function `caller`: the
    /// sites sit 16 bytes apart after the entry, numbered in
    /// `Function::iter_call_sites` order (the numbering the bytecode
    /// compiler embeds).
    #[inline]
    pub fn ret_site(&self, caller: u32, site: u32) -> u64 {
        self.func_addrs[caller as usize] + 16 * (site as u64 + 1)
    }

    /// The module compiled to bytecode, fused when the configuration
    /// asks for it. The first caller compiles; every machine sharing
    /// this image — forks on other threads included — then uses that
    /// one compile.
    pub fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| {
            let mut bc = levee_bc::compile(&self.module);
            let fuse_stats = if self.fusion {
                levee_bc::fuse(&mut bc)
            } else {
                FuseStats::default()
            };
            Compiled {
                bc,
                fuse_stats,
                check_sites: OnceLock::new(),
            }
        })
    }

    /// Fusion plan counts, once some machine sharing this image has
    /// compiled it.
    pub fn fuse_stats(&self) -> Option<FuseStats> {
        self.compiled.get().map(|c| c.fuse_stats)
    }

    /// The `(func, block, ip) → site index` map.
    fn check_sites(&self) -> &HashMap<(u32, u32, u32), u32, FastHash> {
        self.check_sites.get_or_init(|| {
            let mut sites = HashMap::default();
            for (fid, f) in self.module.iter_funcs() {
                let mut next = 0;
                for (bid, block) in f.iter_blocks() {
                    for (ip, inst) in block.insts.iter().enumerate() {
                        if let Inst::Cpi(CpiOp::Check { .. } | CpiOp::FnCheck { .. }) = inst {
                            sites.insert((fid.0, bid.0, ip as u32), next);
                            next += 1;
                        }
                    }
                }
            }
            sites
        })
    }

    /// Resolves an engine-side check coordinate to `(func, site index)`.
    pub fn check_site(&self, site: CheckSite) -> Option<(u32, u32)> {
        match site {
            CheckSite::Ir(func, block, ip) => self
                .check_sites()
                .get(&(func, block, ip))
                .map(|&i| (func, i)),
            CheckSite::Bc(func, pc) => self
                .compiled
                .get()?
                .check_sites()
                .get(func as usize)?
                .get(&pc)
                .map(|&i| (func, i)),
        }
    }
}
