//! The baseline gate in release: re-collects every file in
//! `crates/bench/baselines/` and diffs it exactly against the recorded
//! rows, the same check the `baselines` integration test runs in
//! Tier-1 (see `levee_bench::drift`). Prints every difference and exits
//! 1 if there is any.
//!
//! Usage: `cargo run --release -p levee-bench --bin bench_drift
//! [-- --record]`. `--record` rewrites every file from the same
//! collectors instead: a deliberate change to a simulated counter lands
//! together with its re-recorded files.

use levee_bench::drift::{baseline_dir, check, record};

fn main() {
    let dir = baseline_dir();
    match std::env::args().nth(1).as_deref() {
        None => match check(&dir) {
            Ok(compared) => println!("{compared} recorded counters match exactly: PASS"),
            Err(failures) => {
                for f in &failures {
                    println!("{f}");
                }
                println!("{} difference(s): FAIL", failures.len());
                std::process::exit(1);
            }
        },
        Some("--record") => {
            record(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
            println!("recorded {}", dir.display());
        }
        Some(other) => {
            eprintln!("unknown argument {other:?} (usage: bench_drift [--record])");
            std::process::exit(2);
        }
    }
}
