//! Experiment E10 — §3.2.3: the cost of safe-region isolation
//! mechanisms, and the crash-proneness of guessing attacks against
//! information hiding.
//!
//! Paper: SFI adds <5%; under information hiding "most failed guessing
//! attempts would crash the program".
//!
//! Usage: `cargo run -p levee-bench --bin isolation [-- scale] [--json]
//! [--profile]` (`--json` runs the quick profile and emits
//! per-isolation rows; `--profile` prints execution attribution for
//! the first suite workload under CPI.)

use levee_bench::profile::profile_run;
use levee_bench::{pct, print_json_rows, BenchArgs, Table};
use levee_core::{json_f64, BuildConfig, LeveeError, Session};
use levee_vm::{GuessOutcome, Isolation, StoreKind};
use levee_workloads::spec_suite;

fn main() -> Result<(), LeveeError> {
    let args = BenchArgs::parse();
    let scale = args.scale_or(4, 1);

    if !args.json {
        println!("§3.2.3 — isolation mechanism cost under CPI (scale {scale})\n");
    }
    let mut table = Table::new(&["isolation", "avg CPI overhead"]);
    let mut json_rows = Vec::new();
    for iso in [
        Isolation::Segmentation,
        Isolation::InfoHiding,
        Isolation::Sfi,
    ] {
        let mut total = 0.0;
        let mut n = 0.0;
        for w in spec_suite().iter().take(8) {
            let src = w.source(scale);
            let base_run = Session::builder()
                .source(&src)
                .name(w.name)
                .protection(BuildConfig::Vanilla)
                .configure(|cfg| cfg.isolation = Isolation::Segmentation) // plain baseline
                .build()?
                .run_ok(b"")?;

            let run = Session::builder()
                .source(&src)
                .name(w.name)
                .protection(BuildConfig::Cpi)
                .store(StoreKind::ArraySuperpage)
                .configure(move |cfg| cfg.isolation = iso)
                .build()?
                .run_ok(b"")?;
            total += run.overhead_pct(&base_run);
            n += 1.0;
        }
        json_rows.push(format!(
            "{{\"isolation\": \"{iso:?}\", \"avg_cpi_overhead_pct\": {}}}",
            json_f64(total / n, 2)
        ));
        table.row(vec![format!("{iso:?}"), pct(total / n)]);
    }
    if !args.json {
        table.print();
        println!("\nExpected: SFI ≈ segmentation + a few % (one mask per memory access).\n");
    }

    // Guessing attack against information hiding.
    let src = spec_suite()[0].source(1);
    let session = Session::builder()
        .source(&src)
        .name("victim")
        .protection(BuildConfig::Cpi)
        .seed(0xFEE1)
        .configure(|cfg| cfg.isolation = Isolation::InfoHiding)
        .build()?;
    let (mut hits, mut crashes, mut misses) = (0u64, 0u64, 0u64);
    let probes = 2048u64;
    for i in 0..probes {
        let guess =
            levee_vm::layout::SAFE_REGION_MIN + i * (levee_vm::layout::SAFE_REGION_WINDOW / probes);
        match session.machine().attacker_guess(guess) {
            GuessOutcome::Hit => hits += 1,
            GuessOutcome::Crash => crashes += 1,
            GuessOutcome::Miss => misses += 1,
        }
    }
    if args.json {
        json_rows.push(format!(
            "{{\"guessing\": {{\"probes\": {probes}, \"hits\": {hits}, \"crashes\": {crashes}, \
             \"misses\": {misses}, \"guess_space\": {}}}}}",
            session.machine().guess_space()
        ));
        print_json_rows("isolation", &json_rows);
        return Ok(());
    }
    println!(
        "Guessing the hidden safe region: {probes} probes → {hits} hits, \
         {crashes} crashes, {misses} silent misses"
    );
    println!(
        "Guess space: {} equally likely bases → every probe is ~{:.2}% likely to hit,\n\
         and every miss crashes the process (detectable crash storm).",
        session.machine().guess_space(),
        100.0 / session.machine().guess_space() as f64
    );
    if args.profile {
        let w = &spec_suite()[0];
        profile_run(
            &format!("isolation: {}/CPI (scale {scale})", w.name),
            w.name,
            &w.source(scale),
            BuildConfig::Cpi,
            StoreKind::ArraySuperpage,
        );
    }
    Ok(())
}
