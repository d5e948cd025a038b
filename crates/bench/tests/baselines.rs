//! The baseline gate in Tier-1: every deterministic counter recorded in
//! `crates/bench/baselines/` must be reproduced exactly by a fresh run.
//! A deliberate change re-records the files with `cargo run --release
//! -p levee-bench --bin bench_drift -- --record`.

use levee_bench::drift::{baseline_dir, check};

#[test]
fn fresh_counters_match_the_recorded_baselines() {
    if let Err(failures) = check(&baseline_dir()) {
        panic!(
            "{} difference(s) from crates/bench/baselines/:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }
}
