//! # levee — a reproduction of "Code-Pointer Integrity" (OSDI 2014)
//!
//! A from-scratch Rust implementation of Kuznetsov et al.'s CPI/CPS/
//! SafeStack system, complete with the compiler and machine substrate
//! needed to run and attack protected programs:
//!
//! | crate | role |
//! |---|---|
//! | [`minic`] | mini-C frontend (lexer → parser → IR lowering) |
//! | [`ir`] | typed IR shared by all passes |
//! | [`bc`] | bytecode tier: IR → compact linear bytecode for the fast engine |
//! | [`core`] | **the paper's contribution**: sensitivity analysis, safe stack, CPI/CPS/SoftBound instrumentation, the Levee driver |
//! | [`rt`] | safe pointer store organizations (array / two-level / hash) |
//! | [`vm`] | execution substrate: split memory, isolation models, cycle+cache cost model, attacker API |
//! | [`defenses`] | baselines: DEP, ASLR, stack cookies, shadow stack, CFI |
//! | [`ripe`] | RIPE-like attack benchmark (§5.1) |
//! | [`workloads`] | SPEC-like / Phoronix-like / web-stack workloads (§5.2–5.3) |
//! | [`formal`] | Appendix A operational semantics, executable |
//!
//! ## Quickstart
//!
//! [`Session`] is the front door: compile once, keep a resident
//! machine, run as often as you like (the machine is re-armed with
//! `Machine::reset` between runs — bit-identical to a fresh build, at
//! none of the per-run build cost):
//!
//! ```
//! use levee::{BuildConfig, Session};
//!
//! let src = r#"
//!     void greet(int x) { print_int(x); }
//!     void (*cb)(int);
//!     int main() { cb = greet; cb(42); return 0; }
//! "#;
//! let mut session = Session::builder()
//!     .source(src)
//!     .protection(BuildConfig::Cpi)
//!     .build()
//!     .expect("valid mini-C");
//! let report = session.run(b"");
//! assert!(report.success());
//! assert_eq!(report.output, "42");
//! ```
//!
//! For multi-worker serving, [`SessionPool`] compiles once and shards
//! request batches across N resident machines forked from one shared
//! copy-on-write boot snapshot — bit-identical to serial serving.
//!
//! See `examples/` for attack/defense walkthroughs and the README's
//! "Benchmarks" section for the experiment index.

pub use levee_core::{
    json_f64, json_str, BuildConfig, LeveeError, RunReport, Session, SessionBuilder, SessionPool,
};

pub use levee_bc as bc;
pub use levee_core as core;
pub use levee_defenses as defenses;
pub use levee_formal as formal;
pub use levee_ir as ir;
pub use levee_minic as minic;
pub use levee_ripe as ripe;
pub use levee_rt as rt;
pub use levee_vm as vm;
pub use levee_workloads as workloads;
