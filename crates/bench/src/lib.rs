//! # levee-bench — the evaluation harness
//!
//! One binary per table/figure of the paper (the README's "Benchmarks"
//! section shows how to run them):
//!
//! | binary | artifact |
//! |---|---|
//! | `ripe_eval` | §5.1 RIPE table |
//! | `spec_overhead` | Table 1 + Fig. 3 |
//! | `compilation_stats` | Table 2 |
//! | `softbound_compare` | Table 3 |
//! | `memory_overhead` | §5.2 memory numbers |
//! | `phoronix` | Fig. 4 |
//! | `webserver_throughput` | Table 4 |
//! | `defense_matrix` | Fig. 5 |
//! | `isolation` | §3.2.3 isolation costs + guessing |
//! | `cfi_bypass` | §3.3 Perl-opcode CFI vs CPS |
//! | `mpx_ablation` | §4 MPX discussion |
//!
//! plus the criterion bench `store_organizations` (§4's array /
//! two-level / hashtable comparison).
//!
//! The deterministic counters of these experiments (simulated cycles
//! and instructions, RIPE verdicts, PAC sign/auth counts, store bytes,
//! reset costs, profiler attribution) are recorded as exact rows in
//! `crates/bench/baselines/`, re-measured by one collector per file
//! and diffed exactly by [`drift`]: the `baselines` integration test
//! runs that gate in Tier-1, and `bench_drift --record` rewrites the
//! files.

mod collect;
pub mod drift;
pub mod geometry;
pub mod json;
pub mod kernels;
pub mod profile;

/// Formats a percentage with sign, one decimal. `NaN` — the overhead
/// helpers' "degenerate baseline" signal (see
/// `levee_vm::ExecStats::overhead_pct`) — renders as `n/a`, so a broken
/// baseline is visible in a table instead of reading as `+NaN%` noise
/// or, worse, zero overhead.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{x:+.1}%")
    }
}

/// Shared command-line convention of every bench binary:
/// `[-- [scale] [--json] [--profile]]`. `--json` selects the
/// machine-readable report *and* the binary's quick profile (a small
/// default scale), so CI's `bench-smoke` job can run every bench
/// binary on every push; an explicit scale always wins. `--profile`
/// turns on the VM's execution profiler and makes the binary print
/// per-opcode/per-function attribution tables for its runs (simulated
/// counters are bit-identical with the profiler on — see
/// `levee_vm::VmConfig::profile`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchArgs {
    /// Emit machine-readable JSON (rows read off `levee::RunReport`).
    pub json: bool,
    /// Profile the runs and print attribution tables.
    pub profile: bool,
    /// Explicit scale/size argument, if one was given.
    pub scale: Option<u64>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let mut args = BenchArgs::default();
        for a in std::env::args().skip(1) {
            if a == "--json" {
                args.json = true;
            } else if a == "--profile" {
                args.profile = true;
            } else if let Ok(n) = a.parse() {
                args.scale = Some(n);
            }
        }
        args
    }

    /// The effective scale: explicit wins, then the quick default under
    /// `--json`, then the interactive default.
    pub fn scale_or(&self, interactive: u64, quick: u64) -> u64 {
        self.scale
            .unwrap_or(if self.json { quick } else { interactive })
    }
}

/// Renders `rows` of pre-serialized JSON objects as one top-level
/// object: `{"<bin>": [row, row, …]}` — the uniform shape of every
/// bench binary's `--json` output. (Split from [`print_json_rows`] so
/// tests can round-trip the exact bytes the binaries emit.)
pub fn render_json_rows(bin: &str, rows: &[String]) -> String {
    let mut out = format!("{{\"{bin}\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("  {row}{comma}\n"));
    }
    out.push_str("]}\n");
    out
}

/// Prints [`render_json_rows`] to stdout.
pub fn print_json_rows(bin: &str, rows: &[String]) {
    print!("{}", render_json_rows(bin, rows));
}

/// A fixed-width text table, printed in the paper's style.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "CPS", "CPI"]);
        t.row(vec!["perlbench".into(), "+3.1%".into(), "+12.0%".into()]);
        t.row(vec!["lbm".into(), "+0.1%".into(), "+0.2%".into()]);
        let r = t.render();
        assert!(r.contains("perlbench"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(8.4), "+8.4%");
        assert_eq!(pct(-0.4), "-0.4%");
    }

    #[test]
    fn pct_renders_degenerate_baselines_as_na() {
        assert_eq!(pct(f64::NAN), "n/a");
        let run = levee_vm::ExecStats {
            cycles: 100,
            ..Default::default()
        };
        assert_eq!(
            pct(run.overhead_pct(&levee_vm::ExecStats::default())),
            "n/a"
        );
    }
}
