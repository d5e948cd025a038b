//! # levee-core — Code-Pointer Integrity, Code-Pointer Separation and
//! the Safe Stack
//!
//! The paper's contribution (Kuznetsov et al., *Code-Pointer Integrity*,
//! OSDI 2014), as compiler passes over [`levee_ir`]:
//!
//! * [`sensitivity`] — the static analysis of §3.2.1: the type-based
//!   criterion of Fig. 7, the `char*` string heuristic, and the
//!   cast dataflow refinement;
//! * [`safestack`] — the safe-stack analysis and transformation of
//!   §3.2.4 (return addresses and proven-safe objects to the safe
//!   stack, the rest to a separate unsafe stack);
//! * [`instrument`] — the instrumentation pass of §3.2.2 (safe-store
//!   redirection, bounds checks, indirect-call checks, safe
//!   memcpy/memset variants);
//! * [`driver`] — the `-fcpi` / `-fcps` / `-fstack-protector-safe`
//!   entry points and build statistics (Table 2's FNUStack / MO);
//! * [`session`] — the embedding front door: [`Session`] builds a
//!   protected program once, keeps a resident machine, and serves
//!   repeated runs from it;
//! * [`pool`] — [`SessionPool`]: the multi-worker counterpart, fanning
//!   batches across N resident machines forked from one shared build
//!   and copy-on-write boot snapshot, bit-identical to serial serving.
//!
//! ## Example: build once, run many times
//!
//! ```
//! use levee_core::{BuildConfig, Session};
//!
//! let src = r#"
//!     void greet(int x) { print_int(x); }
//!     void (*cb)(int);
//!     int main() { cb = greet; cb(42); return 0; }
//! "#;
//! let mut session = Session::builder()
//!     .source(src)
//!     .name("demo")
//!     .protection(BuildConfig::Cpi)
//!     .build()
//!     .expect("valid mini-C");
//! for report in session.run_batch([b"", b""]) {
//!     assert!(report.success());
//!     assert_eq!(report.output, "42");
//! }
//! ```

pub mod driver;
pub mod instrument;
pub mod pac;
pub mod pool;
pub mod promote;
pub mod safestack;
pub mod sensitivity;
pub mod session;
pub mod stats;

pub use driver::{build_module, build_source, BuildConfig, Built};
pub use pool::SessionPool;
pub use sensitivity::{FnFlow, Mode, Sensitivity};
pub use session::{
    json_f64, json_str, LeveeError, RunReport, Session, SessionBuilder, DEFAULT_SEED,
};
pub use stats::{BuildStats, FuncInstrStats};
