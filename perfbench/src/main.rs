//! `levee-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's provenance, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `out/trace-<workload>-<seed>.json` in this
//! package's directory.

use std::path::PathBuf;
use std::process::ExitCode;

use levee_perfbench::{host, run, Params, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("levee-perfbench: {e}");
            eprintln!(
                "usage: levee-perfbench --workload serve_web|serve_cps \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let mut params = Params::new(args.seed, args.seconds, args.trace);
    if args.trace {
        let file = format!("trace-{name}-{}.json", args.seed);
        params.trace_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(file),
        );
    }
    println!(
        "{}",
        host::provenance_json(name, args.seed, args.seconds, args.trace)
    );
    let outcome = run(args.workload, &params);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
