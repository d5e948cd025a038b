//! Experiment E11 — §3.3's Perl-opcode discussion and the CFI-bypass
//! results [19, 15, 9]: static CFI admits redirecting an opcode
//! dispatch pointer to *any* valid-typed handler, while CPS only admits
//! code pointers the program actually assigned — and the corrupted
//! regular-memory copy is simply never used.
//!
//! Usage: `cargo run -p levee-bench --bin cfi_bypass [--json]
//! [--profile]` (`--profile` prints execution attribution for the
//! dispatch-table victim built under CPI.)

use levee_bench::profile::profile_run;
use levee_bench::{print_json_rows, BenchArgs, Table};
use levee_core::{json_str, BuildConfig};
use levee_defenses::Deployment;
use levee_ripe::{
    run_attack, AbuseFn, Attack, AttackResult, Location, Payload, Profile, Target, Technique,
};

fn main() {
    let args = BenchArgs::parse();
    if !args.json {
        println!("§3.3 / §5.2 — CFI bypass vs CPS/CPI\n");
    }
    // The attack: corrupt a global function pointer (a dispatch-table
    // slot) and redirect it to an existing function of the SAME type
    // signature that the program never assigned to it — precisely what
    // static CFI cannot distinguish.
    let attack = Attack {
        location: Location::Bss,
        target: Target::FuncPtr,
        technique: Technique::Direct,
        abuse: AbuseFn::ReadInput,
        payload: Payload::FuncReuse,
    };
    let mut table = Table::new(&["defense", "outcome", "verdict"]);
    let mut json_rows = Vec::new();
    for (name, profile) in [
        (
            "CFI coarse (any function)",
            Profile::Deployment(Deployment::CoarseCfi),
        ),
        ("CFI type-based", Profile::Deployment(Deployment::TypeCfi)),
        ("CPS", Profile::Levee(BuildConfig::Cps)),
        ("CPI", Profile::Levee(BuildConfig::Cpi)),
    ] {
        let result = run_attack(&attack, &profile, 99);
        let (outcome, verdict) = match &result {
            AttackResult::Hijacked => ("HIJACKED".to_string(), "bypassed"),
            AttackResult::Detected(by) => (format!("detected by {by}"), "stopped"),
            AttackResult::Crashed(why) => (format!("crashed ({why})"), "stopped"),
            AttackResult::Survived => ("program survived".to_string(), "stopped silently"),
        };
        json_rows.push(format!(
            "{{\"defense\": {}, \"outcome\": {}, \"verdict\": {}}}",
            json_str(name),
            json_str(&outcome),
            json_str(verdict)
        ));
        table.row(vec![name.to_string(), outcome, verdict.to_string()]);
    }

    // And a ROP-style bypass of the coarse return policy.
    let rop = Attack {
        location: Location::Stack,
        target: Target::RetAddr,
        technique: Technique::Direct,
        abuse: AbuseFn::Memcpy,
        payload: Payload::Rop,
    };
    let coarse = run_attack(&rop, &Profile::Deployment(Deployment::CoarseCfi), 99);
    let cpi = run_attack(&rop, &Profile::Levee(BuildConfig::Cpi), 99);

    if args.json {
        // AttackResult's payload variants carry free-form trap names —
        // escape the Debug renderings so the row stays valid JSON.
        json_rows.push(format!(
            "{{\"rop\": {{\"coarse_cfi\": {}, \"cpi\": {}}}}}",
            json_str(&format!("{coarse:?}")),
            json_str(&format!("{cpi:?}"))
        ));
        print_json_rows("cfi_bypass", &json_rows);
        return;
    }
    table.print();
    println!(
        "\nExpected: both CFI variants are bypassed (the target is a valid,\n\
         matching-signature function); CPS and CPI stop the attack because\n\
         the authentic pointer lives in the safe store."
    );
    println!(
        "\nReturn-to-gadget (valid return site): coarse CFI → {:?}; CPI safe stack → {:?}",
        coarse, cpi
    );
    if args.profile {
        profile_run(
            &format!("cfi_bypass: victim {} under CPI", attack.id()),
            "cfi-victim",
            &levee_ripe::generate(&attack),
            BuildConfig::Cpi,
            levee_vm::StoreKind::ArraySuperpage,
        );
    }
}
