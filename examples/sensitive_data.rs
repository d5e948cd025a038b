//! Protecting non-code-pointer data (§3.2.1 / §4 "Sensitive data
//! protection"): the FreeBSD `struct ucred` use-case. A privilege
//! record is reached through a pointer; an overflow redirects that
//! pointer at a forged record with uid 0.
//!
//! With the struct annotated `__sensitive`, pointers to it become
//! sensitive: they live in the safe pointer store and the forgery is
//! ignored. Without the annotation, even CPI lets the attack through —
//! CPI protects code pointers, and protecting *data* requires opting in.
//!
//! Run with: `cargo run --example sensitive_data`

use levee::{BuildConfig, Session};

fn program(annotated: bool) -> String {
    let kw = if annotated { "__sensitive " } else { "" };
    format!(
        r#"
        {kw}struct ucred {{ int uid; int gid; }};
        struct ucred root_cred;
        char reqbuf[64];
        struct ucred* active;

        int main() {{
            root_cred.uid = 1000;
            root_cred.gid = 1000;
            active = &root_cred;
            read_input(reqbuf, -1);    /* overflow reaches `active` */
            print_int(active->uid);    /* the privilege check */
            return 0;
        }}
    "#
    )
}

fn attack(annotated: bool, config: BuildConfig) -> String {
    let mut session = Session::builder()
        .source(&program(annotated))
        .name("ucred")
        .protection(config)
        .build()
        .expect("compiles");
    // Forge a ucred with uid 0 *inside the request buffer*, then point
    // `active` at it: 8 bytes of fake record, padding, then the forged
    // pointer value (reqbuf's own address, learned from the binary).
    let reqbuf = session.machine().global_addr("reqbuf").expect("global");
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_le_bytes()); // fake uid = 0 (root!)
    payload.extend_from_slice(&0u32.to_le_bytes()); // fake gid
    payload.extend(std::iter::repeat_n(b'A', 64 - 8));
    payload.extend_from_slice(&reqbuf.to_le_bytes()); // active → fake record
    let out = session.run(&payload);
    format!("{:?} → uid printed: {}", out.status, out.output)
}

fn main() {
    println!("privilege record attack (forge ucred, redirect the pointer):\n");
    println!(
        "vanilla, unannotated:        {}",
        attack(false, BuildConfig::Vanilla)
    );
    println!(
        "CPI, unannotated:            {}",
        attack(false, BuildConfig::Cpi)
    );
    println!(
        "CPI, __sensitive annotation: {}",
        attack(true, BuildConfig::Cpi)
    );
    println!(
        "\nExpected: the first two print uid 0 (privilege escalation); the\n\
         annotated build prints 1000 — `active` lives in the safe store, so\n\
         the overflow wrote only the unused regular copy. This is the paper's\n\
         \"process UIDs in a kernel\" extension of CPI beyond code pointers."
    );
}
