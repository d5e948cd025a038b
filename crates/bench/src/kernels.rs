//! The shared kernel lineup of the engine-comparison experiments.
//!
//! One place owns the (kernel, entry, iteration-count) table so the
//! `engine_compare` binary and the baseline collectors measure *the
//! same* workloads: the gate re-runs exactly the kernels whose counters
//! `crates/bench/baselines/engine_compare.json` and
//! `profile_attribution.json` record.

use levee_workloads::kernels;

/// One kernel of the engine-comparison lineup.
pub struct KernelSpec {
    /// Short name (the baseline's `kernel` key).
    pub name: &'static str,
    /// Mini-C source fragment (see `levee_workloads::kernels`).
    pub source: &'static str,
    /// Entry function driven by `kernels::assemble`.
    pub entry: &'static str,
    /// Iteration count — part of the workload's identity: the recorded
    /// baseline counters are only comparable at the same count.
    pub iters: u64,
}

impl KernelSpec {
    /// The assembled mini-C program for this kernel.
    pub fn program(&self) -> String {
        kernels::assemble(&[self.source], &[(self.entry, self.iters)])
    }
}

/// The kernels whose fused-over-unfused wall-clock ratio
/// `engine_compare` prints (tight loops of fusible pairs).
pub const FUSION_KERNELS: &[&str] = &["dispatch", "numeric", "vcall"];

/// The engine-comparison lineup, in baseline row order.
pub const KERNELS: &[KernelSpec] = &[
    KernelSpec {
        name: "dispatch",
        source: kernels::DISPATCH,
        entry: "dispatch_kernel",
        iters: 20_000,
    },
    KernelSpec {
        name: "vcall",
        source: kernels::VCALL,
        entry: "vcall_kernel",
        iters: 20_000,
    },
    KernelSpec {
        name: "numeric",
        source: kernels::NUMERIC,
        entry: "numeric_kernel",
        iters: 100_000,
    },
    KernelSpec {
        name: "bigstack",
        source: kernels::BIGSTACK,
        entry: "bigstack_kernel",
        iters: 400,
    },
    KernelSpec {
        name: "strings",
        source: kernels::STRINGS,
        entry: "string_kernel",
        iters: 2_000,
    },
    KernelSpec {
        name: "graph",
        source: kernels::GRAPH,
        entry: "graph_kernel",
        iters: 100_000,
    },
    KernelSpec {
        name: "cbstruct",
        source: kernels::CBSTRUCT,
        entry: "cbstruct_kernel",
        iters: 10_000,
    },
    KernelSpec {
        name: "heapchurn",
        source: kernels::HEAPCHURN,
        entry: "heap_kernel",
        iters: 20_000,
    },
    KernelSpec {
        name: "bulkcopy",
        source: kernels::BULKCOPY,
        entry: "bulkcopy_kernel",
        iters: 4_000,
    },
    KernelSpec {
        name: "calltree",
        source: kernels::CALLTREE,
        entry: "calltree_kernel",
        iters: 40_000,
    },
    KernelSpec {
        name: "ptrdense",
        source: kernels::PTRDENSE,
        entry: "ptrdense_kernel",
        iters: 40_000,
    },
];
