//! The Perl-opcode-dispatch story of §3.3 — run on the bytecode tier.
//!
//! Doubly apt: the *guest* program is a bytecode interpreter whose
//! handler table gets corrupted, and the *host* VM now executes it as
//! compiled bytecode too (`levee-bc` + the fast-dispatch engine), with
//! the original CFG step-walker kept as a differential reference.
//!
//! Two demonstrations:
//!
//! 1. **Security is engine-independent.** The corrupted-table attack is
//!    replayed under coarse CFI, CPS and CPI on *both* engines: the
//!    verdicts (and simulated cycle counts) are identical — the
//!    bytecode tier changes wall-clock time, never outcomes.
//! 2. **Dispatch is faster.** The same guest interpreter runs a hot
//!    opcode loop under both engines at identical cycle counts; the
//!    wall-clock difference is pure interpreter-overhead elimination.
//!
//! Each configuration is one `levee::Session`; the engine pivot is a
//! `Session::reconfigure` on the same built module.
//!
//! Run with: `cargo run --release --example opcode_dispatch`

use std::time::Instant;

use levee::defenses::Deployment;
use levee::vm::{Engine, ExitStatus, GoalKind, Trap, VmConfig};
use levee::{BuildConfig, Session};

/// A tiny bytecode VM: opcode handlers dispatched through a table.
/// `secret_admin` is a function that exists in the binary but is never
/// in the table (think: an unexported debug routine).
const SRC: &str = r#"
    long acc;
    void op_push(int v) { acc = acc * 10 + v; }
    void op_add(int v)  { acc = acc + v; }
    void op_neg(int v)  { acc = 0 - acc; }
    void secret_admin(int v) { print_str("ADMIN MODE"); }

    char program[64];
    void (*optable[3])(int) = {op_push, op_add, op_neg};

    int main() {
        acc = 0;
        long n = read_input(program, -1);   /* bytecode... and overflow */
        long i;
        for (i = 0; i < 4; i = i + 1) {
            long op = (long)program[i] & 3;
            if (op < 3) { optable[op]((int)program[i + 4] & 15); }
        }
        print_int(acc);
        return 0;
    }
"#;

/// A hot dispatch loop for the wall-clock comparison.
const HOT: &str = r#"
    long acc;
    void op_add(int v) { acc = acc + v; }
    void op_mul(int v) { acc = acc * 3 + v; }
    void op_xor(int v) { acc = acc ^ v; }
    void (*table[3])(int) = {op_add, op_mul, op_xor};
    int main() {
        acc = 1;
        long i;
        for (i = 0; i < 300000; i = i + 1) {
            table[i % 3]((int)(i & 15));
        }
        print_int(acc & 65535);
        return 0;
    }
"#;

/// One session per protection profile; built once, replayed per engine.
fn profile_session(name: &str) -> Session {
    match name {
        "no protection" => Session::builder()
            .source(SRC)
            .name("interp")
            .vm_config(VmConfig::default())
            .build()
            .expect("compiles"),
        "coarse CFI (any function)" => {
            let mut m = levee::minic::compile(SRC, "interp").unwrap();
            Deployment::CoarseCfi.apply(&mut m);
            Session::builder()
                .module(m)
                .name("interp")
                .vm_config(Deployment::CoarseCfi.vm_config(VmConfig::default()))
                .build()
                .expect("compiles")
        }
        "CPS" => Session::builder()
            .source(SRC)
            .name("interp")
            .protection(BuildConfig::Cps)
            .vm_config(VmConfig::default())
            .build()
            .expect("compiles"),
        _ => Session::builder()
            .source(SRC)
            .name("interp")
            .protection(BuildConfig::Cpi)
            .vm_config(VmConfig::default())
            .build()
            .expect("compiles"),
    }
}

fn verdict(session: &mut Session, engine: Engine, payload: &[u8]) -> (String, u64) {
    session.reconfigure(move |cfg| cfg.engine = engine);
    let admin = session
        .machine()
        .func_entry("secret_admin")
        .expect("exists");
    session.machine_mut().add_goal(admin, GoalKind::FuncReuse);
    let out = session.run(payload);
    let v = match &out.status {
        ExitStatus::Trapped(Trap::Hijacked { .. }) => "HIJACKED — attacker ran secret_admin".into(),
        ExitStatus::Trapped(t) => format!("stopped ({t:?})"),
        ExitStatus::Exited(_) => "survived — corrupted copy ignored".into(),
    };
    (v, out.exec.cycles)
}

fn main() {
    // Payload: 64 bytes of "bytecode" filler that overflows into
    // optable[0], redirecting it to secret_admin.
    let probe = Session::builder()
        .source(SRC)
        .name("probe")
        .vm_config(VmConfig::default())
        .build()
        .expect("compiles");
    let admin = probe.machine().func_entry("secret_admin").expect("exists");
    let mut payload = vec![0u8; 64];
    payload.extend_from_slice(&admin.to_le_bytes());

    println!("corrupting the guest interpreter's opcode table:\n");
    println!("{:<28} {:<44} {:<44}", "", "walk engine", "bytecode engine");

    for name in ["no protection", "coarse CFI (any function)", "CPS", "CPI"] {
        let mut session = profile_session(name);
        let (wv, wc) = verdict(&mut session, Engine::Walk, &payload);
        let (bv, bcles) = verdict(&mut session, Engine::Bytecode, &payload);
        assert_eq!(wv, bv, "engines must agree on the security verdict");
        assert_eq!(wc, bcles, "engines must agree on simulated cycles");
        println!("{name:<28} {wv:<44} {bv:<44}");
    }

    // The compiled form of the guest, for the curious.
    let built = levee::core::build_source(SRC, "interp", BuildConfig::Cpi).unwrap();
    let compiled = levee::bc::compile(&built.module);
    println!(
        "\nguest compiled to bytecode: {} functions, {} words of code, {} signature entries",
        compiled.funcs.len(),
        compiled.code_words(),
        compiled.sigs.len(),
    );

    // Wall-clock: same cycles, less time. One session, one build; the
    // engine flip is a reconfigure.
    println!("\nhot dispatch loop (300k table calls), identical simulated cycles:");
    let mut hot = Session::builder()
        .source(HOT)
        .name("hot")
        .protection(BuildConfig::Cpi)
        .vm_config(VmConfig::default())
        .build()
        .unwrap();
    let mut wall = [0.0f64; 2];
    let mut cycles = [0u64; 2];
    for (i, engine) in [Engine::Walk, Engine::Bytecode].iter().enumerate() {
        hot.reconfigure(|cfg| cfg.engine = *engine);
        hot.precompile();
        let t0 = Instant::now();
        let out = hot.run(b"");
        wall[i] = t0.elapsed().as_secs_f64() * 1e3;
        cycles[i] = out.exec.cycles;
        assert!(out.success());
        println!(
            "  {:<10} {:>8.1} ms   {} cycles",
            engine.name(),
            wall[i],
            cycles[i]
        );
    }
    assert_eq!(cycles[0], cycles[1]);
    println!("  speedup    {:>7.2}x", wall[0] / wall[1]);

    println!(
        "\n§3.3: \"a memory bug in a CFI-protected Perl interpreter may permit an\n\
         attacker to divert control flow and execute any Perl opcode, whereas in a\n\
         CPS-protected Perl interpreter the attacker could at most execute an\n\
         opcode that exists in the running Perl program.\""
    );
}
