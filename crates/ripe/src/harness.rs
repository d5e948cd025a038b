//! The attack evaluation harness: recon → payload → exploit → verdict.
//!
//! The attacker model matches §2 and how RIPE operates: the attacker
//! studies a local copy of the binary (a *recon* run without ASLR) to
//! learn buffer distances and target addresses, then fires the payload
//! at the victim configuration. ASLR invalidates recon knowledge of
//! stack/heap/libc addresses (but not a non-PIE binary's own code or
//! globals); CPI/CPS/SafeStack change where the authoritative copies of
//! code pointers live; PAC (`levee_core::pac`) leaves them in place but
//! seals them under a per-victim MAC key, which is why the PAC-era
//! techniques ([`Technique::Substitute`]/[`Technique::Forge`]) build
//! their payloads from the victim dry run rather than from recon.

use levee_core::{BuildConfig, Session};
use levee_defenses::Deployment;
use levee_ir::Intrinsic;
use levee_vm::{ExitStatus, Trap, VmConfig, PAC_PTR_MASK};

use crate::attack::{Attack, Payload, Target, Technique};
use crate::template::{generate, SENTINEL};

/// A protection profile under evaluation: a deployed-defense baseline or
/// a Levee build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Baseline deployments (DEP/ASLR/cookies/CFI/…).
    Deployment(Deployment),
    /// Levee configurations (safe stack / CPS / CPI).
    Levee(BuildConfig),
}

impl Profile {
    /// The paper's §5.1 lineup (legacy, deployed, safe stack, CPS,
    /// CPI) extended with the pointer-authentication family
    /// (`levee_core::pac`) — the CPI-vs-PAC comparison every matrix
    /// report tabulates.
    pub fn paper_lineup() -> Vec<Profile> {
        vec![
            Profile::Deployment(Deployment::Legacy),
            Profile::Deployment(Deployment::Deployed),
            Profile::Levee(BuildConfig::SafeStack),
            Profile::Levee(BuildConfig::Cps),
            Profile::Levee(BuildConfig::Cpi),
            Profile::Levee(BuildConfig::Pac),
            Profile::Levee(BuildConfig::PacTight),
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> String {
        match self {
            Profile::Deployment(d) => d.name().to_string(),
            Profile::Levee(c) => c.name().to_string(),
        }
    }

    /// Does this profile insert stack cookies (affects frame distances
    /// the attacker must account for)?
    fn has_cookies(&self) -> bool {
        matches!(
            self,
            Profile::Deployment(Deployment::Cookies) | Profile::Deployment(Deployment::Deployed)
        )
    }

    /// Builds `src` under this profile into a [`Session`], layering the
    /// profile's settings over `base` (engine selection, cost model, …).
    /// One session serves the whole recon → dry-run → exploit pipeline,
    /// re-armed between phases.
    fn session(&self, src: &str, base: VmConfig) -> Session {
        match self {
            Profile::Deployment(d) => {
                let mut module = levee_minic::compile(src, "ripe").expect("template compiles");
                d.apply(&mut module);
                Session::builder()
                    .module(module)
                    .name("ripe")
                    .vm_config(d.vm_config(base))
                    .build()
                    .expect("deployment session builds")
            }
            Profile::Levee(c) => Session::builder()
                .source(src)
                .name("ripe")
                .protection(*c)
                .vm_config(base)
                .build()
                .expect("template compiles"),
        }
    }
}

/// What happened to one attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackResult {
    /// The attacker reached their goal: the defense FAILED.
    Hijacked,
    /// A defense mechanism detected and stopped the attack.
    Detected(String),
    /// The attack crashed the program without reaching the goal.
    Crashed(String),
    /// The program survived to the sentinel: silently prevented.
    Survived,
}

impl AttackResult {
    /// Did the defense hold?
    pub fn prevented(&self) -> bool {
        !matches!(self, AttackResult::Hijacked)
    }
}

/// Addresses learned by the attacker's recon run.
struct Recon {
    leak1: u64,
    leak2: Option<u64>,
    system: u64,
    rop_site: u64,
    evil: u64,
}

fn parse_leaks(output: &str) -> (u64, Option<u64>) {
    let mut ints = output.lines().filter_map(|l| l.parse::<i64>().ok());
    let leak1 = ints.next().unwrap_or(0) as u64;
    let leak2 = ints.next().filter(|v| *v != 7 && v.to_string() != SENTINEL);
    (leak1, leak2.map(|v| v as u64))
}

/// Every integer the program printed, in order — the substitution
/// templates leak three values (buffer, victim slot, donor word), one
/// more than [`parse_leaks`] models.
fn parse_ints(output: &str) -> Vec<i64> {
    output
        .lines()
        .filter_map(|l| l.parse::<i64>().ok())
        .collect()
}

/// A blind MAC-tag guess: splitmix over a salt that is deliberately
/// *not* the VM's key-derivation salt — the attacker does not know the
/// per-machine PAC key, only the tag width. Matches the real tag with
/// probability 2^-bits.
fn forge_guess(seed: u64, bits: u8) -> u64 {
    let mut x = seed ^ 0x0BAD_F00D_0DDB_1A5E;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x >> (64 - u32::from(bits.clamp(1, 16)))
}

fn goal_value(attack: &Attack, recon: &Recon) -> u64 {
    match attack.payload {
        Payload::Shellcode => recon.leak1,
        Payload::Ret2Libc => recon.system,
        Payload::Rop => recon.rop_site,
        Payload::FuncReuse => recon.evil,
    }
}

fn build_payload(attack: &Attack, recon: &Recon, cookie_gap: bool) -> Vec<u8> {
    let gap = if cookie_gap { 8 } else { 0 };
    let goal = goal_value(attack, recon);
    let mut p = Vec::new();
    match attack.technique {
        Technique::Direct => {
            let offset = match attack.target {
                Target::RetAddr => 64 + gap,
                _ => match recon.leak2 {
                    Some(l2) => (l2 - recon.leak1) as usize,
                    None => 64,
                },
            };
            p.extend(std::iter::repeat_n(b'A', offset));
            p.extend_from_slice(&goal.to_le_bytes());
        }
        Technique::Indirect => {
            // Stage 2 value first (the program reads it up front), then
            // the overflow that redirects the data pointer.
            p.extend_from_slice(&goal.to_le_bytes());
            let write_target = match attack.target {
                // The saved return address of vuln(): carrier struct is
                // 72 bytes, directly below the (optional) cookie.
                Target::RetAddr => recon.leak1 + 72 + gap as u64,
                // The function-pointer global, leaked directly.
                _ => recon.leak2.unwrap_or(recon.leak1 + 80),
            };
            p.extend(std::iter::repeat_n(b'A', 64));
            p.extend_from_slice(&write_target.to_le_bytes());
        }
        Technique::Substitute | Technique::Forge => {
            unreachable!("PAC-era payloads are built from the victim dry run")
        }
    }
    p
}

/// Runs one attack against one profile. `seed` feeds the victim's
/// randomization (ASLR layout, cookie values, safe-region base).
pub fn run_attack(attack: &Attack, profile: &Profile, seed: u64) -> AttackResult {
    run_attack_with(attack, profile, seed, VmConfig::default())
}

/// Like [`run_attack`], but layered over a caller-supplied base
/// [`VmConfig`] — the engines differential suite uses this to replay
/// the attack matrix under both execution engines.
pub fn run_attack_with(
    attack: &Attack,
    profile: &Profile,
    seed: u64,
    base: VmConfig,
) -> AttackResult {
    let src = generate(attack);
    let mut session = profile.session(&src, base);
    let victim_cfg = session.vm_config().with_seed(seed);

    // --- Recon: the attacker's own copy, without ASLR. ---
    session.reconfigure(|cfg| {
        cfg.aslr = false;
        cfg.seed = 0xA77AC4E4;
    });
    let recon_system = session.machine().intrinsic_entry(Intrinsic::System);
    let recon_rop = *session
        .machine()
        .ret_site_addrs()
        .last()
        .expect("templates contain calls");
    let recon_evil = session
        .machine()
        .func_entry("evil_cb")
        .expect("preamble function");
    let recon_out = session.run(b"");
    let (leak1, leak2) = parse_leaks(&recon_out.output);
    let recon = Recon {
        leak1,
        leak2,
        system: recon_system,
        rop_site: recon_rop,
        evil: recon_evil,
    };
    // --- Victim dry run: learn the *actual* goal addresses for this
    // seed (what the attacker hopes to reach; the VM needs them to
    // detect success). The same session pivots to the victim's
    // configuration; the built module never recompiles. ---
    session.reconfigure(|cfg| *cfg = victim_cfg);
    let dry_system = session.machine().intrinsic_entry(Intrinsic::System);
    let dry_rop = *session
        .machine()
        .ret_site_addrs()
        .last()
        .expect("calls exist");
    let dry_evil = session
        .machine()
        .func_entry("evil_cb")
        .expect("preamble function");
    let dry_out = session.run(b"");
    let (dry_leak1, _) = parse_leaks(&dry_out.output);

    // Classic payloads depend only on recon; the PAC-era techniques
    // write a word that is a function of the *victim's* seed (the MAC
    // key is derived from it), so they draw on the dry run too: the
    // substituted word is the donor slot's leaked in-memory word, the
    // forged word carries a blind tag guess over this victim's goal.
    let payload = match attack.technique {
        Technique::Substitute | Technique::Forge => {
            let offset = match recon.leak2 {
                Some(l2) => (l2 - recon.leak1) as usize,
                None => 64,
            };
            let word = match attack.technique {
                Technique::Substitute => {
                    parse_ints(&dry_out.output).get(2).copied().unwrap_or(0) as u64
                }
                _ => {
                    let bits = session.vm_config().pac_tag_bits.clamp(1, 16);
                    (dry_evil & PAC_PTR_MASK) | (forge_guess(seed, bits) << (64 - u32::from(bits)))
                }
            };
            let mut p = Vec::with_capacity(offset + 8);
            p.extend(std::iter::repeat_n(b'A', offset));
            p.extend_from_slice(&word.to_le_bytes());
            p
        }
        _ => build_payload(attack, &recon, profile.has_cookies()),
    };

    // --- The exploit: same configuration, so the resident machine is
    // simply re-armed (goals survive the between-run reset). ---
    session.add_goal(
        match attack.payload {
            Payload::Shellcode => dry_leak1,
            Payload::Ret2Libc => dry_system,
            Payload::Rop => dry_rop,
            Payload::FuncReuse => dry_evil,
        },
        attack.payload.goal_kind(),
    );
    let out = session.run(&payload);
    classify(out.status, &out.output)
}

fn classify(status: ExitStatus, output: &str) -> AttackResult {
    match status {
        ExitStatus::Trapped(Trap::Hijacked { .. }) => AttackResult::Hijacked,
        ExitStatus::Trapped(t) if t.is_detection() => AttackResult::Detected(trap_name(&t)),
        ExitStatus::Trapped(t) => AttackResult::Crashed(trap_name(&t)),
        ExitStatus::Exited(_) => {
            if output.ends_with(SENTINEL) {
                AttackResult::Survived
            } else {
                AttackResult::Crashed("early-exit".into())
            }
        }
    }
}

fn trap_name(t: &Trap) -> String {
    match t {
        Trap::Cpi { .. } => "CPI".into(),
        Trap::Pac { .. } => "PAC".into(),
        Trap::Cfi { .. } => "CFI".into(),
        Trap::Cookie => "cookie".into(),
        Trap::ShadowStack { .. } => "shadow-stack".into(),
        Trap::Nx { .. } => "DEP".into(),
        Trap::SafeRegion { .. } => "isolation".into(),
        Trap::SoftBound { .. } => "softbound".into(),
        Trap::Unmapped { .. } => "segfault".into(),
        Trap::BadControl { .. } => "wild-jump".into(),
        other => format!("{other:?}"),
    }
}

/// Aggregated results of a whole suite against one profile.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Attacks that reached their goal.
    pub hijacked: Vec<Attack>,
    /// Attacks stopped by an explicit detection.
    pub detected: usize,
    /// Attacks that crashed the victim without success.
    pub crashed: usize,
    /// Attacks silently neutralized (program survived).
    pub survived: usize,
}

impl Tally {
    /// Total attacks evaluated.
    pub fn total(&self) -> usize {
        self.hijacked.len() + self.detected + self.crashed + self.survived
    }

    /// Number of successful hijacks.
    pub fn successes(&self) -> usize {
        self.hijacked.len()
    }
}

/// Runs every attack in `attacks` against `profile`.
pub fn evaluate(attacks: &[Attack], profile: &Profile, seed: u64) -> Tally {
    let mut tally = Tally::default();
    for (i, attack) in attacks.iter().enumerate() {
        match run_attack(attack, profile, seed ^ (i as u64).wrapping_mul(0x9E37_79B9)) {
            AttackResult::Hijacked => tally.hijacked.push(*attack),
            AttackResult::Detected(_) => tally.detected += 1,
            AttackResult::Crashed(_) => tally.crashed += 1,
            AttackResult::Survived => tally.survived += 1,
        }
    }
    tally
}
