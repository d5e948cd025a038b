//! `SessionPool` — sharded multi-worker serving over one shared build
//! and copy-on-write boot snapshot.
//!
//! CPI's runtime cost is paid per-request, so the honest scaling story
//! for the paper's webserver claim (§5.3) is requests-per-second
//! across cores. Nothing in the simulation is shared between two
//! machines *except* the immutable program image, and PR 7's
//! copy-on-write snapshot pages are already the natural cross-machine
//! substrate: the pool compiles and protects the program **once**
//! (one `Arc`-shared [`crate::driver::Built`]), boots one prototype
//! machine, and forks it into N resident workers whose snapshot pages
//! stay `Arc`-shared until a request dirties them. Each worker
//! recycles per-request via `levee_vm::ResetMode::Snapshot`, paying
//! only for its own dirt — the fork-per-request serving model, without
//! the fork *or* the per-worker boot.
//!
//! Determinism is the point, not an accident: every request is served
//! from a pristine post-boot machine and stamped with its *own*
//! recycle cost ([`Session::run_recycled`]), so a request's
//! [`RunReport`] — status, output, every [`levee_vm::ExecStats`]
//! counter, reset stats — is a pure function of the request. Sharding
//! across 1, 2 or 4 workers, or serving serially with
//! [`Session::run_batch`], produces bit-identical reports in any
//! scheduling interleave (pinned by the `pool` proptest suite).
//!
//! ```
//! use levee_core::{BuildConfig, Session, SessionPool};
//!
//! let prototype = Session::builder()
//!     .source("int main() { char b[16]; print_int(read_input(b, 15)); return 0; }")
//!     .protection(BuildConfig::Cpi)
//!     .build()
//!     .expect("valid mini-C");
//! let mut pool = SessionPool::with_prototype(prototype, 2);
//! let reports = pool.run_batch([b"ab".as_slice(), b"cdef", b""]);
//! assert_eq!(reports.len(), 3);
//! assert_eq!(reports[1].output, "4");
//! ```

use std::sync::mpsc;
use std::thread::JoinHandle;

use levee_vm::ResetStats;

use crate::session::{RunReport, Session};

/// One unit of pool work: the request's position in its batch, the
/// input bytes, and the channel the worker answers on.
type Job = (usize, Vec<u8>, mpsc::Sender<(usize, RunReport)>);

/// One resident worker: a dedicated OS thread owning a forked
/// [`Session`], fed over a private channel (dropping the sender is the
/// shutdown signal).
struct Worker {
    tx: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of resident machines serving batches of requests in
/// parallel over one shared build — the multi-worker counterpart of
/// [`Session::run_batch`].
///
/// Requests are sharded deterministically (request `i` goes to worker
/// `i mod N`) and reports are reassembled in input order, so the
/// result vector is positionally identical to the serial one. See the
/// module docs for the memory model and the determinism contract.
pub struct SessionPool {
    workers: Vec<Worker>,
    name: String,
    /// Per-worker recycle cost of the last request each worker served
    /// (all-zero for a worker that has not served yet).
    last_reset: Vec<ResetStats>,
}

impl SessionPool {
    /// Builds a pool of `workers` resident machines around an
    /// already-built prototype session (configure the program and VM
    /// through [`Session::builder`]).
    ///
    /// The prototype is precompiled and forked `workers - 1` times —
    /// each fork holds a strong reference to the same `Arc`-shared
    /// build, shares the machine's load image (so all workers run the
    /// one bytecode compile; see [`Session::fork`]) and shares the boot
    /// snapshot's pages copy-on-write — and the prototype itself
    /// becomes worker 0. `workers` is clamped to at least 1.
    pub fn with_prototype(mut prototype: Session, workers: usize) -> SessionPool {
        let n = workers.max(1);
        prototype.precompile();
        let name = prototype.name().to_string();
        let mut sessions: Vec<Session> = (1..n).map(|_| prototype.fork()).collect();
        sessions.insert(0, prototype);
        let workers = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut session)| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("levee-worker-{i}"))
                    .spawn(move || {
                        while let Ok((idx, input, out)) = rx.recv() {
                            let report = session.run_recycled(&input);
                            // A dropped receiver means the batch was
                            // abandoned; keep serving later batches.
                            let _ = out.send((idx, report));
                        }
                    })
                    .expect("spawning a pool worker thread failed");
                Worker {
                    tx: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        SessionPool {
            workers,
            name,
            last_reset: vec![ResetStats::default(); n],
        }
    }

    /// Serves every input and returns the reports in input order —
    /// the parallel counterpart of [`Session::run_batch`], bit-
    /// identical to it report for report (status, output, every
    /// `ExecStats` counter, reset stats) at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died (a panic inside the VM — a bug,
    /// not a program trap: traps are ordinary [`RunReport`]s).
    pub fn run_batch<I, B>(&mut self, inputs: I) -> Vec<RunReport>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let n_workers = self.workers.len();
        let (results_tx, results_rx) = mpsc::channel();
        let mut n = 0usize;
        for (i, input) in inputs.into_iter().enumerate() {
            let tx = self.workers[i % n_workers]
                .tx
                .as_ref()
                .expect("pool workers are live until drop");
            tx.send((i, input.as_ref().to_vec(), results_tx.clone()))
                .expect("pool worker thread died");
            n = i + 1;
        }
        drop(results_tx);
        let mut out: Vec<Option<RunReport>> = vec![None; n];
        for _ in 0..n {
            let (i, report) = results_rx
                .recv()
                .expect("pool worker thread died mid-batch");
            // Per-sender channel order makes the final write for each
            // worker its last-served request.
            self.last_reset[i % n_workers] = report.reset;
            out[i] = Some(report);
        }
        out.into_iter()
            .map(|r| r.expect("every request is answered exactly once"))
            .collect()
    }

    /// Number of resident workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The program name (from the builder).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-worker recycle cost of the last request each worker served:
    /// `used_snapshot`, pages dirtied, bytes copied back. All-zero for
    /// workers that have not served a request yet.
    pub fn worker_reset_stats(&self) -> &[ResetStats] {
        &self.last_reset
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        // Closing each job channel ends that worker's receive loop;
        // joining bounds teardown and surfaces worker panics.
        for w in &mut self.workers {
            w.tx.take();
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BuildConfig;

    const SRC: &str = r#"
        void handler(int x) { print_int(x); }
        void (*h)(int);
        int main() {
            h = handler;
            char buf[16];
            long n = read_input(buf, 15);
            h((int)n);
            return 0;
        }
    "#;

    fn inputs() -> Vec<Vec<u8>> {
        (0..10u8).map(|i| vec![b'x'; i as usize]).collect()
    }

    fn session(protection: BuildConfig) -> Session {
        Session::builder()
            .source(SRC)
            .protection(protection)
            .build()
            .expect("builds")
    }

    /// The determinism contract in miniature (the `pool` proptest
    /// generalizes it): pool reports are bit-identical to serial
    /// `run_batch` reports at every worker count, reset stats
    /// included.
    #[test]
    fn pool_reports_match_serial_at_every_worker_count() {
        let serial = session(BuildConfig::Cpi).run_batch(inputs());
        for workers in [1, 2, 4] {
            let mut pool = SessionPool::with_prototype(session(BuildConfig::Cpi), workers);
            let pooled = pool.run_batch(inputs());
            assert_eq!(pooled.len(), serial.len());
            for (s, p) in serial.iter().zip(&pooled) {
                assert_eq!(s.status, p.status);
                assert_eq!(s.output, p.output);
                assert_eq!(s.exec, p.exec);
                assert_eq!(s.reset, p.reset);
            }
        }
    }

    #[test]
    fn sharding_is_round_robin_and_reports_keep_input_order() {
        let mut pool = SessionPool::with_prototype(session(BuildConfig::Vanilla), 3);
        assert_eq!(pool.workers(), 3);
        let reports = pool.run_batch(inputs());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, format!("{i}"), "report {i} out of order");
        }
        // Every worker served ≥ 3 of the 10 requests and recorded the
        // recycle cost of its last one.
        for stats in pool.worker_reset_stats() {
            assert!(stats.used_snapshot);
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut pool = SessionPool::with_prototype(session(BuildConfig::Vanilla), 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run_batch([b"ab"]).len(), 1);
    }

    /// Part of the Miri CI subset: the full pool lifecycle — fork,
    /// cross-thread serving, teardown — under the aliasing checker.
    #[test]
    fn empty_batches_and_sequential_batches_work() {
        let mut pool = SessionPool::with_prototype(session(BuildConfig::Vanilla), 2);
        assert!(pool.run_batch(Vec::<Vec<u8>>::new()).is_empty());
        let a = pool.run_batch([b"abc".as_slice()]);
        let b = pool.run_batch([b"abc".as_slice()]);
        assert_eq!(a[0].exec, b[0].exec, "pool reuse is bit-identical");
    }
}
