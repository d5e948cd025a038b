//! Quickstart: compile a vulnerable C program, exploit it, then rebuild
//! it with `-fcpi` and watch the same exploit die — all through
//! `levee::Session`, the embedding front door.
//!
//! Run with: `cargo run --example quickstart`

use levee::ir::Intrinsic;
use levee::vm::{ExitStatus, GoalKind, Trap};
use levee::{BuildConfig, Session};

/// A server-ish program with a classic bug: an unbounded read into a
/// global buffer sitting right below a function pointer.
const SRC: &str = r#"
    void handle_ok(int code) { print_str("served page"); }
    char reqbuf[64];
    void (*on_request)(int);

    int main() {
        on_request = handle_ok;
        read_input(reqbuf, -1);     /* the vulnerability */
        on_request(200);
        return 0;
    }
"#;

fn main() {
    // --- 1. The unprotected build falls to a ret2libc-style hijack. ---
    let mut vanilla = Session::builder()
        .source(SRC)
        .name("server")
        .build()
        .expect("compiles");
    let system = vanilla.machine().intrinsic_entry(Intrinsic::System);
    vanilla.machine_mut().add_goal(system, GoalKind::Ret2Libc);

    // 64 filler bytes reach the function-pointer slot; the payload
    // overwrites it with system()'s address.
    let mut payload = vec![b'A'; 64];
    payload.extend_from_slice(&system.to_le_bytes());

    let out = vanilla.run(&payload);
    println!("vanilla build:   {:?}", out.status);
    assert!(
        matches!(out.status, ExitStatus::Trapped(Trap::Hijacked { .. })),
        "the unprotected server must be hijackable"
    );

    // --- 2. Rebuild with -fcpi: same program, same payload. ---
    let config = BuildConfig::from_flag("-fcpi").expect("levee flag");
    let mut cpi = Session::builder()
        .source(SRC)
        .name("server")
        .protection(config)
        .build()
        .expect("compiles");
    let system = cpi.machine().intrinsic_entry(Intrinsic::System);
    cpi.machine_mut().add_goal(system, GoalKind::Ret2Libc);

    let out = cpi.run(&payload);
    println!(
        "CPI build:       {:?} (output: {:?})",
        out.status, out.output
    );
    assert_eq!(
        out.status,
        ExitStatus::Exited(0),
        "under CPI the authentic pointer lives in the safe store; the \
         corrupted regular copy is never used"
    );
    assert_eq!(out.output, "served page");

    // --- 3. The server keeps serving: the resident machine is reset
    // between runs, so one session handles request after request. ---
    let followups = cpi.run_batch([&payload[..], b"GET /", b"GET /again"]);
    assert!(followups.iter().all(|r| r.success()));
    println!(
        "served {} more requests from the resident session",
        followups.len()
    );

    // --- 4. What it cost. ---
    let stats = cpi.build_stats();
    println!(
        "instrumented {} of {} memory operations ({:.1}%)",
        stats.instrumented_mem_ops,
        stats.mem_ops,
        stats.mo_fraction() * 100.0
    );
    println!("quickstart: attack hijacked vanilla, silently defeated by CPI ✓");
}
