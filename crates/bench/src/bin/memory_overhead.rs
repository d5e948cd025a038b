//! Experiment E5 — §5.2's memory-overhead paragraph: safe-region memory
//! cost per configuration and store organization.
//!
//! Paper (SPEC medians): SafeStack 0.1%; CPS 2.1% (hash) / 5.6%
//! (array); CPI 13.9% (hash) / 105% (array). We report the 4 KB-page
//! array (simulated programs are far smaller than SPEC, so superpage
//! rounding would swamp the signal; the array ≫ hash ordering is the
//! reproduced claim).
//!
//! The second section measures **simulated safe-region bytes per live
//! entry** for every organization on a dense population, against the
//! seed's inline-entry geometry: compact 16-byte `(word, MetaId)` slots
//! (`levee_rt::SLOT_SIZE`) halve the per-slot footprint the seed's
//! 32-byte `Entry` records needed, and the bench asserts the shrink is
//! ≥ 1.8× for *every* organization.
//!
//! The compact geometry is pinned exactly: each organization's bytes
//! for the dense population are recorded as integers in
//! `crates/bench/baselines/memory_overhead.json` (see
//! `levee_bench::drift`).
//!
//! Usage: `cargo run -p levee-bench --bin memory_overhead [-- scale]
//! [--json] [--profile]` (`--json` emits the machine-readable
//! bytes-per-entry report; `--profile` prints execution attribution
//! for a representative CPI run against the hashtable organization).

use levee_bench::geometry::{
    dense_bytes_per_entry, seed_bytes_per_entry, DENSE_ENTRIES, SEED_SLOT,
};
use levee_bench::profile::profile_run;
use levee_bench::{pct, BenchArgs, Table};
use levee_core::{BuildConfig, Session};
use levee_rt::SLOT_SIZE;
use levee_vm::StoreKind;
use levee_workloads::{measure, spec_suite, web_stack};

struct Shrink {
    org: &'static str,
    seed: f64,
    compact: f64,
    shrink: f64,
}

struct SnapshotFootprint {
    page: &'static str,
    snapshot_pages: usize,
    snapshot_bytes: u64,
    private_after_run: u64,
    private_after_reset: u64,
}

/// The copy-on-write snapshot's residency cost per web-stack page: the
/// post-load image is `Arc`-shared with live memory, so its *extra*
/// cost is only the pages a run dirtied (each split into a private
/// copy). After `reset` re-shares them, the snapshot is free again —
/// asserted, because a leak here would grow every resident session by
/// its full image size.
fn measure_snapshot_footprint() -> Vec<SnapshotFootprint> {
    web_stack()
        .iter()
        .map(|w| {
            let mut session = Session::builder()
                .source(&w.source(1))
                .name(w.name)
                .protection(BuildConfig::Cpi)
                .store(StoreKind::ArraySuperpage)
                .build()
                .unwrap_or_else(|e| panic!("{}: page builds: {e}", w.name));
            let snapshot_pages = session.machine().snapshot_pages();
            assert!(snapshot_pages > 0, "{}: boot captures a snapshot", w.name);
            assert_eq!(
                session.machine().snapshot_private_bytes(),
                0,
                "{}: the fresh snapshot is fully shared with live memory",
                w.name
            );
            session.run(b"");
            let private_after_run = session.machine().snapshot_private_bytes();
            session.reset();
            let private_after_reset = session.machine().snapshot_private_bytes();
            assert_eq!(
                private_after_reset, 0,
                "{}: reset must re-share every dirtied page",
                w.name
            );
            SnapshotFootprint {
                page: w.name,
                snapshot_pages,
                snapshot_bytes: snapshot_pages as u64 * levee_vm::mem::PAGE_SIZE,
                private_after_run,
                private_after_reset,
            }
        })
        .collect()
}

fn measure_shrinks() -> Vec<Shrink> {
    StoreKind::all()
        .iter()
        .map(|kind| {
            let seed = seed_bytes_per_entry(*kind, DENSE_ENTRIES);
            let compact = dense_bytes_per_entry(*kind, DENSE_ENTRIES);
            let shrink = seed / compact;
            assert!(
                shrink >= 1.8,
                "{}: compact slots must shrink safe-region bytes/entry ≥1.8× \
                 (seed {seed:.1} B, compact {compact:.1} B, {shrink:.2}x)",
                kind.name()
            );
            Shrink {
                org: kind.name(),
                seed,
                compact,
                shrink,
            }
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse();
    let json = args.json;
    let shrinks = measure_shrinks();
    let footprints = measure_snapshot_footprint();

    if json {
        let mut rows = String::new();
        for s in &shrinks {
            rows.push_str(&format!(
                "    {{\"org\": \"{}\", \"seed_bytes_per_entry\": {:.2}, \
                 \"compact_bytes_per_entry\": {:.2}, \"shrink\": {:.2}}},\n",
                s.org, s.seed, s.compact, s.shrink
            ));
        }
        rows.pop();
        rows.pop(); // trailing ",\n"
        let mut snaps = String::new();
        for f in &footprints {
            snaps.push_str(&format!(
                "    {{\"page\": \"{}\", \"snapshot_pages\": {}, \"snapshot_bytes\": {}, \
                 \"private_after_run\": {}, \"private_after_reset\": {}}},\n",
                f.page,
                f.snapshot_pages,
                f.snapshot_bytes,
                f.private_after_run,
                f.private_after_reset
            ));
        }
        snaps.pop();
        snaps.pop();
        println!(
            "{{\n  \"slot_size\": {SLOT_SIZE},\n  \"seed_slot_size\": {SEED_SLOT},\n  \
             \"dense_entries\": {DENSE_ENTRIES},\n  \"orgs\": [\n{rows}\n  ],\n  \
             \"snapshot_footprint\": [\n{snaps}\n  ]\n}}"
        );
        return;
    }

    let scale: u64 = args.scale.unwrap_or(4);
    println!("§5.2 memory overhead — safe-region bytes vs baseline residency (scale {scale})\n");
    let mut table = Table::new(&["config", "store", "median mem overhead", "max"]);
    for config in [BuildConfig::SafeStack, BuildConfig::Cps, BuildConfig::Cpi] {
        for store in [StoreKind::Hash, StoreKind::Array4K] {
            let mut overheads: Vec<f64> = Vec::new();
            for w in spec_suite() {
                let base = measure(&w, scale, BuildConfig::Vanilla, store)
                    .unwrap_or_else(|e| panic!("{e}"));
                let m = measure(&w, scale, config, store).unwrap_or_else(|e| panic!("{e}"));
                overheads.push(m.store_overhead_pct(&base));
            }
            // total_cmp: a NaN overhead (degenerate baseline) sorts
            // last and shows up as "n/a" instead of aborting the table.
            overheads.sort_by(|a, b| a.total_cmp(b));
            let median = overheads[overheads.len() / 2];
            let max = *overheads.last().expect("non-empty");
            table.row(vec![
                config.name().to_string(),
                store.name().to_string(),
                pct(median),
                pct(max),
            ]);
        }
    }
    table.print();
    println!("\nExpected shape: array ≫ hash; CPI ≫ CPS ≫ SafeStack ≈ 0.");

    println!(
        "\nbytes per live entry, dense population of {DENSE_ENTRIES} slots (seed vs compact):\n"
    );
    let mut t2 = Table::new(&["store", "seed B/entry", "compact B/entry", "shrink"]);
    for s in &shrinks {
        t2.row(vec![
            s.org.to_string(),
            format!("{:.1}", s.seed),
            format!("{:.1}", s.compact),
            format!("{:.2}x", s.shrink),
        ]);
    }
    t2.print();
    println!("\nEvery organization must shrink ≥1.8x (asserted above).");

    println!(
        "\ncopy-on-write snapshot footprint (CPI web stack): the post-load image is\n\
         Arc-shared with live memory, so its extra residency is only the pages a run\n\
         dirtied; reset re-shares them (asserted to return to 0):\n"
    );
    let mut t3 = Table::new(&[
        "page",
        "snapshot pages",
        "image bytes",
        "private after run",
        "after reset",
    ]);
    for f in &footprints {
        t3.row(vec![
            f.page.to_string(),
            f.snapshot_pages.to_string(),
            f.snapshot_bytes.to_string(),
            f.private_after_run.to_string(),
            f.private_after_reset.to_string(),
        ]);
    }
    t3.print();
    if args.profile {
        let w = &spec_suite()[0];
        profile_run(
            &format!(
                "memory_overhead: {}/CPI on hashtable (scale {scale})",
                w.name
            ),
            w.name,
            &w.source(scale),
            BuildConfig::Cpi,
            StoreKind::Hash,
        );
    }
}
