//! Pool determinism property suite: `SessionPool::run_batch` over N
//! generated inputs must be **bit-identical** to serial
//! `Session::run_batch` — per request, in input order, for every
//! counter (status, output, instructions, cycles, checks) *and* the
//! per-request reset cost — at worker counts 1, 2 and 4, regardless of
//! how the OS interleaves the worker threads.
//!
//! This is the gate on the sharding design: because every request is
//! served from a pristine machine (eager post-run recycling) and the
//! workers are forked from one shared copy-on-write boot snapshot,
//! scheduling must be invisible in the reports. Programs and input
//! payloads are proptest-generated (same family as the session suite),
//! so the state each worker must isolate — heap churn, safe-store
//! entries, output buffers — varies case to case.

mod common;

use common::{assert_identical, program};
use levee_core::{BuildConfig, Session, SessionPool};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 24 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// SessionPool(workers ∈ {1, 2, 4}) ≡ serial run_batch, including
    /// reset stats, with reports in input order.
    #[test]
    fn pooled_batches_are_bit_identical_to_serial(
        iters in 1u64..40,
        stride in 1u64..7,
        mix in 0u64..3,
        inputs in proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
            1..9,
        ),
    ) {
        let src = program(iters, stride, mix);
        let serial_reports = Session::builder()
            .source(&src)
            .name("pool-serial")
            .protection(BuildConfig::Cpi)
            .build()
            .expect("template builds")
            .run_batch(inputs.iter());
        for workers in [1usize, 2, 4] {
            let prototype = Session::builder()
                .source(&src)
                .name("pool")
                .protection(BuildConfig::Cpi)
                .build()
                .expect("template builds");
            let mut pool = SessionPool::with_prototype(prototype, workers);
            let pooled = pool.run_batch(inputs.iter());
            prop_assert_eq!(pooled.len(), serial_reports.len());
            for (i, (p, s)) in pooled.iter().zip(&serial_reports).enumerate() {
                let ctx = format!("workers {workers} input #{i}");
                assert_identical(p, s, &ctx);
                // The recycle cost is part of the contract too: a pooled
                // request must dirty — and restore — exactly what the
                // same request dirties on a serial resident machine.
                assert_eq!(p.reset, s.reset, "{ctx}: per-request reset cost diverged");
            }
        }
    }

    /// A pool survives across batches: the same pool serving two
    /// batches back to back stays bit-identical to serial serving of
    /// the concatenation (workers recycle between batches, nothing
    /// leaks from one batch into the next).
    #[test]
    fn sequential_batches_reuse_workers_without_leaks(
        iters in 1u64..24,
        inputs in proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..16),
            2..7,
        ),
    ) {
        let src = program(iters, 3, 1);
        let serial_reports = Session::builder()
            .source(&src)
            .name("pool-serial")
            .protection(BuildConfig::Cpi)
            .build()
            .expect("template builds")
            .run_batch(inputs.iter().chain(inputs.iter()));
        let prototype = Session::builder()
            .source(&src)
            .name("pool")
            .protection(BuildConfig::Cpi)
            .build()
            .expect("template builds");
        let mut pool = SessionPool::with_prototype(prototype, 2);
        let first = pool.run_batch(inputs.iter());
        let second = pool.run_batch(inputs.iter());
        for (i, (p, s)) in first.iter().chain(&second).zip(&serial_reports).enumerate() {
            let ctx = format!("request #{i} of two pooled batches");
            assert_identical(p, s, &ctx);
            assert_eq!(p.reset, s.reset, "{ctx}: per-request reset cost diverged");
        }
    }
}

/// Sharding must be invisible to the PAC family too: pooled serving of
/// a PAC build — sign/auth counters, per-request reset costs and PAC
/// trap verdicts (an `X` input clobbers the sealed callback word and
/// dies authenticating) — is bit-identical to serial serving at every
/// worker count. The MAC key is seed-derived, so every forked worker
/// must seal to exactly the same words.
#[test]
fn pac_pools_are_bit_identical_to_serial() {
    use levee_vm::{ExitStatus, Trap};
    let src = r#"
        long acc;
        void op_add(int v) { acc = acc + v; }
        void (*cb)(int);
        char input[64];
        int main() {
            cb = op_add;
            long n = read_input(input, 63);
            if (n > 0) {
                if (input[0] == 88) {
                    long* p = (long*)&cb;
                    p[0] = p[0] ^ 255;
                }
            }
            cb(7);
            print_int(acc);
            return 0;
        }
    "#;
    let inputs: [&[u8]; 5] = [b"", b"X", b"ab", b"Xyz", b"tail"];
    for config in [BuildConfig::Pac, BuildConfig::PacTight] {
        let serial_reports = Session::builder()
            .source(src)
            .name("pac-pool-serial")
            .protection(config)
            .build()
            .expect("template builds")
            .run_batch(inputs)
            .into_iter()
            .collect::<Vec<_>>();
        // The mixed batch must really contain both verdicts.
        assert!(serial_reports
            .iter()
            .any(|r| matches!(r.status, ExitStatus::Trapped(Trap::Pac { .. }))));
        assert!(serial_reports
            .iter()
            .any(|r| r.success() && r.exec.pac_auths > 0));
        for workers in [1usize, 2, 4] {
            let prototype = Session::builder()
                .source(src)
                .name("pac-pool")
                .protection(config)
                .build()
                .expect("template builds");
            let mut pool = SessionPool::with_prototype(prototype, workers);
            let pooled = pool.run_batch(inputs);
            assert_eq!(pooled.len(), serial_reports.len());
            for (i, (p, s)) in pooled.iter().zip(&serial_reports).enumerate() {
                let ctx = format!("{} workers {workers} input #{i}", config.name());
                assert_identical(p, s, &ctx);
                assert_eq!(p.status, s.status, "{ctx}: verdict diverged");
                assert_eq!(p.reset, s.reset, "{ctx}: per-request reset cost diverged");
            }
        }
    }
}
