//! `cqs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run identity, the check summary, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when any correctness check failed, 2 on bad arguments.

use std::process::ExitCode;

use cqs_perfbench::report::{result_line, Checks};
use cqs_perfbench::{identity, run_workload, Workload};

struct Invocation {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Compile-time audit required by the workspace `sharding-send-sync`
/// lint, whose name-based call graph reaches this binary from the
/// `cqs-bench` sweep pool.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<X: Send>() {}
    assert_send::<Invocation>();
}

fn parse(argv: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Invocation {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cqs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        identity(args.workload, args.seed, args.seconds, args.trace)
    );
    let mut checks = Checks::default();
    let metrics = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut checks,
    );
    println!(
        "checks: {} attempted, {} failed, failed_frac {}",
        checks.attempted,
        checks.failed,
        checks.failed_frac()
    );
    for f in &checks.failures {
        println!("check failed: {f}");
    }
    println!("{}", result_line(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
