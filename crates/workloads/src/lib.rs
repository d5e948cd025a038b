//! # levee-workloads — SPEC-like, Phoronix-like and web-stack workloads
//!
//! The evaluation substrate for the CPI paper's Tables 1–4 and
//! Figures 3–4: mini-C programs whose *pointer-behaviour profile* mirrors
//! each benchmark the paper ran (we cannot run SPEC CPU2006 or FreeBSD's
//! package set inside a simulator, but the overheads the paper reports
//! are driven by the fraction of memory operations touching sensitive
//! pointers, which these profiles reproduce — the README's "Benchmarks"
//! section lists the binaries that measure them).
//!
//! * [`spec::spec_suite`] — 19 programs mirroring the C/C++ SPEC
//!   CPU2006 benchmarks (Fig. 3, Tables 1–3);
//! * [`system::phoronix_suite`] — the FreeBSD "server" suite (Fig. 4);
//! * [`system::web_stack`] — static/wsgi/dynamic pages (Table 4);
//! * [`runner`] — the measurement harness (build under a config, run on
//!   the cycle model, differential output checks).

pub mod kernels;
pub mod runner;
pub mod spec;
pub mod system;

pub use runner::{
    measure, measure_source, measure_source_seeded, overhead_row, summarize, Measurement,
    OverheadRow,
};
pub use spec::{spec_suite, Workload};
pub use system::{phoronix_suite, web_stack};
