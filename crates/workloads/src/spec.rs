//! The SPEC-CPU2006-like workload suite: 19 mini-C programs mirroring
//! the pointer-behaviour profile of each C/C++ benchmark the paper
//! evaluates (Fig. 3 / Tables 1–2).
//!
//! We obviously cannot run SPEC itself in this substrate; what the
//! paper's overheads are *made of* is the fraction of memory operations
//! that touch sensitive pointers, and that is what each profile mix
//! reproduces: the perlbench workload dispatches through function
//! pointers, the omnetpp/xalancbmk workloads are dominated by virtual
//! calls, milc/lbm are numeric, and so on (the README's "Benchmarks"
//! section lists the binaries that run this suite).

use crate::kernels::*;

/// One SPEC-like workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// SPEC benchmark number + name (e.g. "400.perlbench").
    pub spec_id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// Whether the original is a C++ benchmark (for Table 1's C vs
    /// C/C++ averages).
    pub cpp: bool,
    /// Which kernels the program uses, with per-scale iteration weights.
    pub(crate) mix: &'static [(&'static str, &'static str, u64)],
}

impl Workload {
    /// Generates the workload's source at the given scale (iterations
    /// multiplier; tests use small scales, benches larger ones).
    pub fn source(&self, scale: u64) -> String {
        let mut kernels: Vec<&str> = Vec::new();
        let mut calls: Vec<(&str, u64)> = Vec::new();
        for (kernel_src, kernel_fn, weight) in self.mix {
            if !kernels.contains(kernel_src) {
                kernels.push(kernel_src);
            }
            calls.push((kernel_fn, weight * scale));
        }
        assemble(&kernels, &calls)
    }
}

macro_rules! mix {
    ($(($k:ident, $f:literal, $w:literal)),* $(,)?) => {
        &[$(($k, $f, $w)),*]
    };
}

/// The 19 C/C++ SPEC CPU2006 workload profiles.
pub fn spec_suite() -> Vec<Workload> {
    vec![
        Workload {
            spec_id: "400.perlbench",
            name: "perlbench",
            cpp: false,
            // The opcode-dispatch interpreter plus callback-carrying
            // structs (Perl's internal function-pointer tables).
            mix: mix![
                (DISPATCH, "dispatch_kernel", 60),
                (CBSTRUCT, "cbstruct_kernel", 12),
                (STRINGS, "string_kernel", 6),
                (NUMERIC, "numeric_kernel", 30),
            ],
        },
        Workload {
            spec_id: "401.bzip2",
            name: "bzip2",
            cpp: false,
            mix: mix![
                (BULKCOPY, "bulkcopy_kernel", 12),
                (NUMERIC, "numeric_kernel", 120),
                (BIGSTACK, "bigstack_kernel", 2),
            ],
        },
        Workload {
            spec_id: "403.gcc",
            name: "gcc",
            cpp: false,
            // "it embeds function pointers in some of its data
            // structures and then uses pointers to these structures
            // frequently" (§5.2).
            mix: mix![
                (CBSTRUCT, "cbstruct_kernel", 10),
                (GRAPH, "graph_kernel", 80),
                (NUMERIC, "numeric_kernel", 70),
                (HEAPCHURN, "heap_kernel", 6),
            ],
        },
        Workload {
            spec_id: "429.mcf",
            name: "mcf",
            cpp: false,
            mix: mix![
                (GRAPH, "graph_kernel", 120),
                (NUMERIC, "numeric_kernel", 60)
            ],
        },
        Workload {
            spec_id: "433.milc",
            name: "milc",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 160),
                (BIGSTACK, "bigstack_kernel", 2)
            ],
        },
        Workload {
            spec_id: "444.namd",
            name: "namd",
            cpp: true,
            // Numeric C++ with big hot stack arrays: the benchmark where
            // the safe stack *improved* performance by 4.2%.
            mix: mix![
                (BIGSTACK, "bigstack_kernel", 14),
                (NUMERIC, "numeric_kernel", 60),
                (VCALL, "vcall_kernel", 2),
            ],
        },
        Workload {
            spec_id: "445.gobmk",
            name: "gobmk",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 140),
                (BIGSTACK, "bigstack_kernel", 4),
                (DISPATCH, "dispatch_kernel", 1),
            ],
        },
        Workload {
            spec_id: "447.dealII",
            name: "dealII",
            cpp: true,
            mix: mix![
                (VCALL, "vcall_kernel", 60),
                (NUMERIC, "numeric_kernel", 60),
                (HEAPCHURN, "heap_kernel", 6),
            ],
        },
        Workload {
            spec_id: "450.soplex",
            name: "soplex",
            cpp: true,
            mix: mix![
                (VCALL, "vcall_kernel", 12),
                (NUMERIC, "numeric_kernel", 110),
                (GRAPH, "graph_kernel", 20),
            ],
        },
        Workload {
            spec_id: "453.povray",
            name: "povray",
            cpp: true,
            mix: mix![
                (VCALL, "vcall_kernel", 24),
                (NUMERIC, "numeric_kernel", 80),
                (BIGSTACK, "bigstack_kernel", 6),
                (STRINGS, "string_kernel", 4),
            ],
        },
        Workload {
            spec_id: "456.hmmer",
            name: "hmmer",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 130),
                (BULKCOPY, "bulkcopy_kernel", 4),
                (HEAPCHURN, "heap_kernel", 4),
            ],
        },
        Workload {
            spec_id: "458.sjeng",
            name: "sjeng",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 150),
                (BIGSTACK, "bigstack_kernel", 4),
            ],
        },
        Workload {
            spec_id: "462.libquantum",
            name: "libquantum",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 130),
                (HEAPCHURN, "heap_kernel", 8),
            ],
        },
        Workload {
            spec_id: "464.h264ref",
            name: "h264ref",
            cpp: false,
            mix: mix![
                (BULKCOPY, "bulkcopy_kernel", 16),
                (NUMERIC, "numeric_kernel", 100),
                (CBSTRUCT, "cbstruct_kernel", 3),
            ],
        },
        Workload {
            spec_id: "470.lbm",
            name: "lbm",
            cpp: false,
            mix: mix![(NUMERIC, "numeric_kernel", 170)],
        },
        Workload {
            spec_id: "471.omnetpp",
            name: "omnetpp",
            cpp: true,
            // Discrete-event simulation: virtual dispatch everywhere —
            // the paper's worst case for CPI (36.6% of memory ops).
            mix: mix![
                (VCALL, "vcall_kernel", 130),
                (HEAPCHURN, "heap_kernel", 10),
                (NUMERIC, "numeric_kernel", 10),
            ],
        },
        Workload {
            spec_id: "473.astar",
            name: "astar",
            cpp: true,
            mix: mix![
                (GRAPH, "graph_kernel", 80),
                (NUMERIC, "numeric_kernel", 70),
                (VCALL, "vcall_kernel", 6),
            ],
        },
        Workload {
            spec_id: "482.sphinx3",
            name: "sphinx3",
            cpp: false,
            mix: mix![
                (NUMERIC, "numeric_kernel", 110),
                (VCALL, "vcall_kernel", 4),
                (STRINGS, "string_kernel", 6),
            ],
        },
        Workload {
            spec_id: "483.xalancbmk",
            name: "xalancbmk",
            cpp: true,
            // DOM tree walking: virtual calls plus pointer-heavy nodes.
            mix: mix![
                (VCALL, "vcall_kernel", 110),
                (GRAPH, "graph_kernel", 20),
                (STRINGS, "string_kernel", 8),
                (HEAPCHURN, "heap_kernel", 6),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nineteen_benchmarks() {
        let suite = spec_suite();
        assert_eq!(suite.len(), 19);
        let c_count = suite.iter().filter(|w| !w.cpp).count();
        assert_eq!(c_count, 12, "12 C benchmarks"); // paper: C vs C++ split
                                                    // Names unique.
        let mut names: Vec<_> = suite.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn every_workload_compiles_and_runs() {
        for w in spec_suite() {
            let mut session = levee_core::Session::builder()
                .source(&w.source(1))
                .name(w.name)
                .build()
                .unwrap_or_else(|e| panic!("{} fails to build: {e}", w.name));
            session
                .run_ok(b"")
                .unwrap_or_else(|e| panic!("{} must run cleanly: {e}", w.name));
        }
    }

    #[test]
    fn workload_output_is_scale_dependent_but_deterministic() {
        let w = &spec_suite()[0];
        let run = |scale| {
            let mut session = levee_core::Session::builder()
                .source(&w.source(scale))
                .name(w.name)
                .build()
                .expect("builds");
            session.run(b"").output
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(1), run(3));
    }
}
