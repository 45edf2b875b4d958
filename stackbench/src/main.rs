//! End-to-end and per-layer benchmark of the websec serving stack.
//!
//! ```text
//! stackbench --workload <hot_reads|cold_large_revoke|gated_churn> --seed <n> --seconds <s> --trace <0|1>
//! stackbench --steadiness
//! stackbench --smoke
//! stackbench --self-test
//! ```
//!
//! A workload run drives `StackServer` only through its public API, checks
//! every output against a computation made apart from the serving path,
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). See
//! `README.md` next to this crate for the workloads and metrics.

#![forbid(unsafe_code)]

mod ledger;
mod phases;
mod selftest;
mod stats;
mod steady;
mod trace;
mod workloads;

use std::process::ExitCode;

use ledger::Ledger;
use phases::result_json;
use workloads::{Plant, Shape, Workload};

/// Parsed arguments of one workload run.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         stackbench --steadiness\n       \
         stackbench --smoke\n       stackbench --self-test",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Option<RunArgs> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    Some(RunArgs {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    workloads::install_abort_hook();
    match args.first().map(String::as_str) {
        Some("--steadiness") if args.len() == 1 => steady::main(),
        Some("--smoke") => smoke(),
        Some("--self-test") => selftest::main(),
        _ => match parse_run(&args) {
            Some(run) => run_workload(&run),
            None => usage(),
        },
    }
}

/// One benchmark run: measure, check, print the result line.
fn run_workload(run: &RunArgs) -> ExitCode {
    let shape = Shape::full(run.workload);
    let mut ledger = Ledger::default();
    let metrics = workloads::run(
        run.workload,
        &shape,
        run.seed,
        run.seconds,
        run.trace,
        Plant::None,
        &mut ledger,
    );
    ledger.report_failures();
    println!("{}", result_json(&metrics, &ledger));
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at small sizes, untraced and traced, with all checks:
/// a whole-benchmark check that finishes in seconds.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let shape = Shape::smoke(workload);
            let mut ledger = Ledger::default();
            let metrics = workloads::run(workload, &shape, 1, 0.5, trace, Plant::None, &mut ledger);
            ledger.report_failures();
            println!(
                "smoke {} trace={}: attempted {} failed {} correct {}",
                workload.name(),
                u8::from(trace),
                ledger.attempted,
                ledger.failed,
                ledger.correct()
            );
            println!("{}", result_json(&metrics, &ledger));
            ok &= ledger.correct() && ledger.attempted > 0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
