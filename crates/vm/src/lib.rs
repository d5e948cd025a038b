//! # levee-vm — the execution substrate
//!
//! A deterministic virtual machine for [`levee_ir`] modules, standing in
//! for the x86-64 testbed of the CPI paper (OSDI 2014). It provides:
//!
//! * a split memory model: the regular region (code, globals, heap,
//!   stacks) and the **safe region** (safe stacks + safe pointer store),
//!   with the isolation models of §3.2.3 ([`config::Isolation`]:
//!   segmentation, information hiding, SFI, or none),
//! * an explicit in-memory stack image — return addresses are real
//!   words at real addresses that buffer overflows can reach,
//! * a cycle + L1-cache cost model ([`cost::CostModel`], [`cache`])
//!   making instrumentation overheads measurable and reproducible,
//! * the attacker API of the paper's threat model (§2): arbitrary
//!   regular-memory reads/writes, address-guessing probes,
//! * attack goals: addresses whose reachability by an indirect control
//!   transfer terminates the run as a successful hijack
//!   ([`trap::Trap::Hijacked`]).
//!
//! ## Example: running a module
//!
//! ```
//! use levee_ir::prelude::*;
//! use levee_vm::{Machine, VmConfig};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", FnSig::new(vec![], Ty::I32));
//! b.intrinsic(Intrinsic::PrintInt, vec![Operand::Const(42)], Ty::Void);
//! b.ret(Some(0.into()));
//! m.add_func(b.finish());
//!
//! let mut vm = Machine::new(&m, VmConfig::default());
//! let out = vm.run(b"");
//! assert!(out.status.is_success());
//! assert_eq!(out.output, "42");
//! ```

pub mod cache;
pub mod config;
pub mod cost;
pub mod heap;
pub mod layout;
pub mod machine;
pub mod mem;
pub mod probe;
pub mod stats;
pub mod trap;

pub use config::{Engine, HardwareModel, Isolation, PacMode, ResetMode, VmConfig};
pub use levee_bc::FuseStats;
pub use levee_rt::StoreKind;
pub use machine::{AttackerError, GuessOutcome, Machine, RunOutcome, PAC_PTR_MASK, V};
pub use probe::{
    touch_addrs, CheckSiteProfile, FuncProfile, OpProfile, ProfileReport, TouchKind, TouchRecord,
};
pub use stats::{ExecStats, ResetStats};
pub use trap::{CpiViolationKind, ExitStatus, GoalKind, Trap};

/// Rounds `x` up to a multiple of `align`.
pub(crate) fn ctx_align(x: u64, align: u64) -> u64 {
    x.div_ceil(align) * align
}
