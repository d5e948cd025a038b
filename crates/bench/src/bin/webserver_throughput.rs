//! Experiment E8 — Table 4: web-server stack throughput under
//! SafeStack / CPS / CPI (the Apache + mod_wsgi + Django model).
//!
//! Paper: static 1.7/8.9/16.9%; wsgi 1.0/4.0/15.3%; dynamic
//! 1.4/15.9/138.8% — the dynamic (interpreter) path is where CPI
//! explodes.
//!
//! The second section is the embedding-API scale win: a server does
//! not rebuild its program per request. One resident `levee::Session`
//! serves every request via `Session::run_batch` — one compile, one
//! module load, then `Machine::reset` per request (bit-identical to a
//! fresh build, proven by the session proptest suite) — and is
//! compared against the old one-session-per-request wiring, in both
//! reset modes: the PR 5 loader reset (full re-load per request) and
//! the copy-on-write snapshot reset (restore only what the request
//! dirtied — the fork-per-request model). The measured requests/sec
//! improvements are asserted and printed. The deterministic
//! per-request reset cost (pages dirtied, bytes restored) is recorded
//! exactly in `crates/bench/baselines/webserver_throughput.json`.
//!
//! The third section is the multi-worker scale-out: a `SessionPool`
//! compiles the page once, forks N resident machines from the shared
//! copy-on-write boot snapshot, and shards the request batch across
//! them. Every pooled request is asserted bit-identical to serial
//! snapshot-reset serving, and on a ≥4-core host the 4-worker
//! aggregate req/s is gated ≥2.5× the 1-worker rate. The pooled
//! per-request instruction and cycle counts are recorded exactly in the
//! same baseline file.
//!
//! Usage: `cargo run --release -p levee-bench --bin webserver_throughput
//! [-- requests] [--json] [--profile]` (`--profile` prints execution
//! attribution for the dynamic page under CPI — the Table 4 blow-up
//! row).

use std::time::Instant;

use levee_bench::profile::profile_run;
use levee_bench::{pct, print_json_rows, BenchArgs, Table};
use levee_core::{json_f64, json_str, BuildConfig, LeveeError, RunReport, Session, SessionPool};
use levee_vm::{ResetMode, StoreKind};
use levee_workloads::{measure, web_stack, Workload};

/// Requests served per throughput measurement (wall-clock section).
const SERVED_REQUESTS: usize = 64;

/// Aggregated over the three page types, the loader-reset resident
/// session must serve requests at least this much faster than
/// fresh-session-per-request. What reuse saves is the fixed
/// per-request setup — source build, instrumentation, bytecode
/// compile+fuse — measured ≈1.1–1.3× per page in release. Per-page
/// wall-clock is scheduler-noisy, so the gate is on the aggregate,
/// which is stable; a real reuse regression (resident no faster than
/// rebuild) still fails it.
const MIN_REUSE_SPEEDUP: f64 = 1.08;

/// The gate used in `--json` (CI `bench-smoke`) mode: shared runners
/// are far noisier than a quiet box, so CI only fails when reuse shows
/// *no* win at all — an actual regression — while the interactive gate
/// keeps the measured margin.
const MIN_REUSE_SPEEDUP_CI: f64 = 1.0;

/// The ISSUE-7 gate: with copy-on-write snapshot resets (restore only
/// the pages/store slots/heap state the request dirtied instead of
/// re-running the loader), the resident session must serve the
/// aggregate web stack ≥2× faster than rebuild-per-request — better
/// than double PR 5's ≈1.27× loader-reset aggregate.
const MIN_SNAPSHOT_SPEEDUP: f64 = 2.0;

/// CI twin of the snapshot gate (noisy shared runners): the snapshot
/// path must still clearly beat the loader-reset resident path, not
/// merely match rebuild-per-request.
const MIN_SNAPSHOT_SPEEDUP_CI: f64 = 1.3;

/// The ISSUE-8 multi-worker gate: on a host with ≥4 cores, the
/// 4-worker `SessionPool` must serve the aggregate web stack at ≥2.5×
/// the 1-worker snapshot-reset request rate (near-linear scaling over
/// shared copy-on-write snapshots; the gap to 4.0× absorbs
/// cross-worker memory-bandwidth contention and sharding overhead).
const MIN_POOL_SCALING_4W: f64 = 2.5;

/// Fallback scaling gate for hosts without 4 real cores (CI shared
/// runners, small containers): wall-clock scaling is physically
/// impossible without cores, but sharding must never *collapse* —
/// N workers over one shared snapshot must stay within a small factor
/// of the 1-worker rate even when time-sliced onto one core.
const MIN_POOL_SCALING_FLOOR: f64 = 0.5;

struct Throughput {
    page: &'static str,
    fresh_rps: f64,
    resident_rps: f64,
    snapshot_rps: f64,
    speedup: f64,
    snapshot_speedup: f64,
    /// Deterministic per-request reset cost under snapshot resets:
    /// pages the request dirtied and bytes the restore copied back
    /// (identical for every recycled request of a page — asserted).
    pages_dirtied: u64,
    bytes_restored: u64,
}

/// Serves `n` requests by building a fresh session per request — the
/// pre-`Session` wiring every consumer hand-rolled.
fn serve_fresh(w: &Workload, n: usize) -> Result<(f64, Vec<RunReport>), LeveeError> {
    let src = w.source(1);
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        let mut session = Session::builder()
            .source(&src)
            .name(w.name)
            .protection(BuildConfig::Cpi)
            .store(StoreKind::ArraySuperpage)
            .build()?;
        reports.push(session.run_ok(b"")?);
    }
    Ok((t0.elapsed().as_secs_f64(), reports))
}

/// Serves `n` requests from one resident session (`run_batch` resets
/// the machine between requests; the module compiles and loads once).
/// `mode` picks the recycling path: `ResetMode::Loader` re-runs the
/// full loader per request (the PR 5 wiring); `ResetMode::Snapshot`
/// restores the post-load copy-on-write memory image, copying back
/// only what the request dirtied.
fn serve_resident(
    w: &Workload,
    n: usize,
    mode: ResetMode,
) -> Result<(f64, Vec<RunReport>), LeveeError> {
    let src = w.source(1);
    let t0 = Instant::now();
    let mut session = Session::builder()
        .source(&src)
        .name(w.name)
        .protection(BuildConfig::Cpi)
        .store(StoreKind::ArraySuperpage)
        .build()?;
    session.reconfigure(|c| c.reset_mode = mode);
    let reports = session.run_batch(std::iter::repeat_n(b"", n));
    Ok((t0.elapsed().as_secs_f64(), reports))
}

/// Repetitions per (page, serving mode); the minimum wall-clock is
/// used, which rejects scheduler noise (same policy as
/// `engine_compare`).
const REPS: usize = 3;

fn measure_reuse(
    n: usize,
    min_speedup: f64,
    min_snapshot_speedup: f64,
) -> Result<(Vec<Throughput>, f64, f64), LeveeError> {
    let mut rows = Vec::new();
    let mut total_fresh_s = 0.0;
    let mut total_resident_s = 0.0;
    let mut total_snapshot_s = 0.0;
    for w in web_stack() {
        let mut fresh_s = f64::INFINITY;
        let mut resident_s = f64::INFINITY;
        let mut snapshot_s = f64::INFINITY;
        let mut fresh_reports = Vec::new();
        let mut resident_reports = Vec::new();
        let mut snapshot_reports = Vec::new();
        for _ in 0..REPS {
            let (s, reports) = serve_fresh(&w, n)?;
            if s < fresh_s {
                fresh_s = s;
                fresh_reports = reports;
            }
            let (s, reports) = serve_resident(&w, n, ResetMode::Loader)?;
            if s < resident_s {
                resident_s = s;
                resident_reports = reports;
            }
            let (s, reports) = serve_resident(&w, n, ResetMode::Snapshot)?;
            if s < snapshot_s {
                snapshot_s = s;
                snapshot_reports = reports;
            }
        }
        // Reuse must be invisible to the served results: every resident
        // request — loader- or snapshot-recycled — is bit-identical to
        // a freshly built session's run in output and every simulated
        // counter.
        for (f, (r, s)) in fresh_reports
            .iter()
            .zip(resident_reports.iter().zip(&snapshot_reports))
        {
            for (twin, mode) in [(r, "loader reset"), (s, "snapshot reset")] {
                assert_eq!(
                    f.output, twin.output,
                    "{}: output diverged under reuse ({mode})",
                    w.name
                );
                assert_eq!(
                    f.exec, twin.exec,
                    "{}: simulated counters diverged under reuse ({mode})",
                    w.name
                );
            }
        }
        // The per-request reset cost is deterministic: every recycled
        // request of a page dirties the same pages.
        let reset = snapshot_reports.last().map(|r| r.reset).unwrap_or_default();
        for r in snapshot_reports.iter().skip(1) {
            assert!(
                r.reset.used_snapshot,
                "{}: recycled request must use the snapshot reset",
                w.name
            );
            assert_eq!(
                (r.reset.pages_dirtied, r.reset.bytes_restored),
                (reset.pages_dirtied, reset.bytes_restored),
                "{}: per-request reset cost must be deterministic",
                w.name
            );
        }
        let fresh_rps = n as f64 / fresh_s;
        let resident_rps = n as f64 / resident_s;
        let snapshot_rps = n as f64 / snapshot_s;
        rows.push(Throughput {
            page: w.name,
            fresh_rps,
            resident_rps,
            snapshot_rps,
            speedup: resident_rps / fresh_rps,
            snapshot_speedup: snapshot_rps / fresh_rps,
            pages_dirtied: reset.pages_dirtied,
            bytes_restored: reset.bytes_restored,
        });
        total_fresh_s += fresh_s;
        total_resident_s += resident_s;
        total_snapshot_s += snapshot_s;
    }
    let aggregate = total_fresh_s / total_resident_s;
    assert!(
        aggregate >= min_speedup,
        "resident sessions must serve the web stack ≥{min_speedup}x faster than \
         rebuild-per-request in aggregate, got {aggregate:.2}x \
         ({total_fresh_s:.3}s vs {total_resident_s:.3}s for {} pages × {n} requests)",
        rows.len()
    );
    let snapshot_aggregate = total_fresh_s / total_snapshot_s;
    assert!(
        snapshot_aggregate >= min_snapshot_speedup,
        "snapshot-reset sessions must serve the web stack ≥{min_snapshot_speedup}x faster \
         than rebuild-per-request in aggregate, got {snapshot_aggregate:.2}x \
         ({total_fresh_s:.3}s vs {total_snapshot_s:.3}s for {} pages × {n} requests)",
        rows.len()
    );
    Ok((rows, aggregate, snapshot_aggregate))
}

struct PoolThroughput {
    workers: usize,
    aggregate_rps: f64,
    /// Aggregate req/s relative to this run's 1-worker pool row (the
    /// 1-worker snapshot-reset number the ISSUE-8 gate is phrased
    /// against).
    scaling: f64,
}

/// Serves `n` requests of one page through an N-worker `SessionPool`.
/// Pool construction (one compile, one boot snapshot, N−1 forks) sits
/// outside the timed window — a server pays it once at startup, and
/// keeping it out of every row makes the scaling ratio a pure measure
/// of sharded serving.
fn serve_pool(w: &Workload, n: usize, workers: usize) -> Result<(f64, Vec<RunReport>), LeveeError> {
    let src = w.source(1);
    let prototype = Session::builder()
        .source(&src)
        .name(w.name)
        .protection(BuildConfig::Cpi)
        .store(StoreKind::ArraySuperpage)
        .build()?;
    let mut pool = SessionPool::with_prototype(prototype, workers);
    let t0 = Instant::now();
    let reports = pool.run_batch(std::iter::repeat_n(b"", n));
    Ok((t0.elapsed().as_secs_f64(), reports))
}

/// The deterministic `(page, insts, cycles)` counters of a pooled
/// request.
type PoolPageCounters = Vec<(String, u64, u64)>;

/// The multi-worker section: serves the web stack through a
/// `SessionPool` at each worker count in `worker_counts` (which must
/// start at 1 — the scaling base) and asserts every per-request report
/// — output, every simulated counter, and the per-request reset cost —
/// bit-identical to serial snapshot-reset `run_batch` serving,
/// regardless of how requests interleave across workers. Returns the
/// wall-clock rows plus the per-page counters of a pooled request
/// (`--json` prints them as `pool_page` rows).
fn measure_pool(
    n: usize,
    worker_counts: &[usize],
) -> Result<(Vec<PoolThroughput>, PoolPageCounters), LeveeError> {
    assert_eq!(worker_counts.first(), Some(&1), "scaling base is 1 worker");
    // Serial snapshot-reset reference: the bit-identity target.
    let mut serial: Vec<(&'static str, Vec<RunReport>)> = Vec::new();
    for w in web_stack() {
        let (_, reports) = serve_resident(&w, n, ResetMode::Snapshot)?;
        serial.push((w.name, reports));
    }
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let mut total_s = 0.0;
        for (w, (page, serial_reports)) in web_stack().iter().zip(&serial) {
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let (s, reports) = serve_pool(w, n, workers)?;
                assert_eq!(reports.len(), serial_reports.len());
                for (p, twin) in reports.iter().zip(serial_reports) {
                    assert_eq!(
                        p.output, twin.output,
                        "{page}: output diverged under {workers}-worker sharding"
                    );
                    assert_eq!(
                        p.exec, twin.exec,
                        "{page}: simulated counters diverged under {workers}-worker sharding"
                    );
                    assert_eq!(
                        p.reset, twin.reset,
                        "{page}: per-request reset cost diverged under {workers}-worker sharding"
                    );
                }
                best = best.min(s);
            }
            total_s += best;
        }
        rows.push(PoolThroughput {
            workers,
            aggregate_rps: (serial.len() * n) as f64 / total_s,
            scaling: 0.0,
        });
    }
    let base = rows[0].aggregate_rps;
    for r in &mut rows {
        r.scaling = r.aggregate_rps / base;
    }
    let pool_pages = serial
        .iter()
        .map(|(page, reports)| {
            let r = &reports[0];
            (page.to_string(), r.exec.insts, r.exec.cycles)
        })
        .collect();
    Ok((rows, pool_pages))
}

fn main() -> Result<(), LeveeError> {
    let args = BenchArgs::parse();
    let requests = args.scale_or(16, 4);
    let served = if args.json { 48 } else { SERVED_REQUESTS };

    // --- Table 4: simulated-cycle overheads per page type. ---
    let mut table = Table::new(&["page", "SafeStack", "CPS", "CPI", "baseline req/Mcycle"]);
    let mut json_rows = Vec::new();
    for w in web_stack() {
        let base = measure(
            &w,
            requests,
            BuildConfig::Vanilla,
            StoreKind::ArraySuperpage,
        )?;
        let mut cells = Vec::new();
        for c in [BuildConfig::SafeStack, BuildConfig::Cps, BuildConfig::Cpi] {
            let m = measure(&w, requests, c, StoreKind::ArraySuperpage)?;
            cells.push(pct(m.overhead_pct(&base)));
            json_rows.push(m.to_json());
        }
        let throughput = requests as f64 / (base.exec.cycles as f64 / 1.0e6);
        json_rows.push(base.to_json());
        table.row(vec![
            w.name.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            format!("{throughput:.1}"),
        ]);
    }

    // --- The reuse win: resident session vs rebuild-per-request. ---
    let (gate, snapshot_gate) = if args.json {
        (MIN_REUSE_SPEEDUP_CI, MIN_SNAPSHOT_SPEEDUP_CI)
    } else {
        (MIN_REUSE_SPEEDUP, MIN_SNAPSHOT_SPEEDUP)
    };
    let (reuse, aggregate, snapshot_aggregate) = measure_reuse(served, gate, snapshot_gate)?;

    // --- Multi-worker sharding over the shared CoW boot snapshot. ---
    // CI (`--json`) stays at 2 workers — shared runners rarely expose 4
    // quiet cores; interactive runs sweep 1/2/4. The near-linear 4-worker
    // gate only applies where 4 real cores exist; elsewhere the floor
    // gate still catches a sharding collapse.
    let pool_counts: &[usize] = if args.json { &[1, 2] } else { &[1, 2, 4] };
    let (pool_rows, pool_pages) = measure_pool(served, pool_counts)?;
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let four = pool_rows.iter().find(|r| r.workers == 4);
    if let (Some(four), true) = (four, host_cores >= 4) {
        assert!(
            four.scaling >= MIN_POOL_SCALING_4W,
            "4-worker pool must serve ≥{MIN_POOL_SCALING_4W}x the 1-worker snapshot-reset \
             aggregate rate on a {host_cores}-core host, got {:.2}x",
            four.scaling
        );
    } else if let Some(last) = pool_rows.last() {
        assert!(
            last.scaling >= MIN_POOL_SCALING_FLOOR,
            "{}-worker pool collapsed to {:.2}x the 1-worker aggregate rate \
             (floor {MIN_POOL_SCALING_FLOOR}x on a {host_cores}-core host)",
            last.workers,
            last.scaling
        );
    }

    if args.json {
        for t in &reuse {
            json_rows.push(format!(
                "{{\"page\": {}, \"served_requests\": {served}, \
                 \"fresh_rps\": {}, \"resident_rps\": {}, \"snapshot_rps\": {}, \
                 \"reuse_speedup\": {}, \"snapshot_speedup\": {}, \
                 \"pages_dirtied\": {}, \"bytes_restored\": {}}}",
                json_str(t.page),
                json_f64(t.fresh_rps, 1),
                json_f64(t.resident_rps, 1),
                json_f64(t.snapshot_rps, 1),
                json_f64(t.speedup, 2),
                json_f64(t.snapshot_speedup, 2),
                t.pages_dirtied,
                t.bytes_restored
            ));
        }
        json_rows.push(format!(
            "{{\"aggregate_reuse_speedup\": {}, \
             \"aggregate_snapshot_speedup\": {}}}",
            json_f64(aggregate, 2),
            json_f64(snapshot_aggregate, 2)
        ));
        for r in &pool_rows {
            json_rows.push(format!(
                "{{\"pool_workers\": {}, \"pool_aggregate_rps\": {}, \
                 \"pool_scaling_vs_1w\": {}}}",
                r.workers,
                json_f64(r.aggregate_rps, 1),
                json_f64(r.scaling, 2)
            ));
        }
        for (page, insts, cycles) in &pool_pages {
            json_rows.push(format!(
                "{{\"pool_page\": {}, \"insts\": {insts}, \"cycles\": {cycles}}}",
                json_str(page)
            ));
        }
        print_json_rows("webserver_throughput", &json_rows);
        return Ok(());
    }

    println!("Table 4 — web stack throughput ({requests} requests per run)\n");
    table.print();
    println!("\nExpected shape: dynamic-page CPI ≫ wsgi ≫ static (interpreter dispatch cost).");

    println!("\nResident-session reuse under CPI ({served} requests per page, wall-clock):\n");
    let mut t2 = Table::new(&[
        "page",
        "rebuild/req req/s",
        "loader-reset req/s",
        "snapshot req/s",
        "loader speedup",
        "snapshot speedup",
        "pages dirtied/req",
        "bytes restored/req",
    ]);
    for t in &reuse {
        t2.row(vec![
            t.page.to_string(),
            format!("{:.0}", t.fresh_rps),
            format!("{:.0}", t.resident_rps),
            format!("{:.0}", t.snapshot_rps),
            format!("{:.2}x", t.speedup),
            format!("{:.2}x", t.snapshot_speedup),
            t.pages_dirtied.to_string(),
            t.bytes_restored.to_string(),
        ]);
    }
    t2.print();
    println!(
        "\naggregate reuse speedup: {aggregate:.2}x (loader reset), {snapshot_aggregate:.2}x \
         (copy-on-write snapshot reset)\n\
         — one compile + one module load serve every request (Machine::reset between runs,\n\
         bit-identical to a fresh build); the snapshot reset restores only the pages the\n\
         request dirtied instead of re-running the loader (the fork-per-request model)."
    );

    println!(
        "\nSessionPool sharding over the shared CoW snapshot \
         ({served} requests per page, {host_cores} host cores):\n"
    );
    let mut t3 = Table::new(&["workers", "aggregate req/s", "scaling vs 1 worker"]);
    for r in &pool_rows {
        t3.row(vec![
            r.workers.to_string(),
            format!("{:.0}", r.aggregate_rps),
            format!("{:.2}x", r.scaling),
        ]);
    }
    t3.print();
    if host_cores >= 4 {
        println!(
            "\n— every pooled request is bit-identical to serial snapshot-reset serving\n\
             (output, simulated counters, per-request reset cost); the 4-worker row is\n\
             gated ≥{MIN_POOL_SCALING_4W}x the 1-worker rate."
        );
    } else {
        println!(
            "\n— every pooled request is bit-identical to serial snapshot-reset serving\n\
             (output, simulated counters, per-request reset cost). Only {host_cores} host\n\
             core(s): the near-linear ≥{MIN_POOL_SCALING_4W}x gate needs 4 real cores, so\n\
             this run applies the ≥{MIN_POOL_SCALING_FLOOR}x no-collapse floor instead."
        );
    }
    if args.profile {
        let stack = web_stack();
        let w = stack
            .iter()
            .find(|w| w.name == "dynamic-page")
            .expect("web stack has a dynamic page");
        profile_run(
            &format!("webserver_throughput: {}/CPI ({requests} requests)", w.name),
            w.name,
            &w.source(requests),
            BuildConfig::Cpi,
            StoreKind::ArraySuperpage,
        );
    }
    Ok(())
}
