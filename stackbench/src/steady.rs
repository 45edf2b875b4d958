//! The steadiness command: runs every workload `BENCHMARK.json` lists ten
//! times with seeds 1..=10 and ten more times with seeds 11..=20, each run
//! in a fresh process, for `run_seconds` from `BENCHMARK.json`. For each
//! set it prints, per end-to-end metric, the median, quartiles, min/max
//! and relative spread ((q3 − q1) / median) next to the metric's bound;
//! then how far each median moved from the first set to the second. A
//! spread under a third of the bound is marked steady, and a median that
//! moved by less than the bound agrees.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use websec_scenarios::Json;

use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// Runs per set.
const RUNS: u64 = 10;

/// The first seed of each of the two sets.
const SETS: [u64; 2] = [1, 1 + RUNS];

/// What the steadiness command reads from `BENCHMARK.json`.
struct BenchmarkFile {
    seconds: f64,
    workloads: Vec<Workload>,
    /// Each end-to-end metric's bound.
    bounds: Vec<(String, f64)>,
}

fn benchmark_file() -> Option<BenchmarkFile> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let doc = Json::parse(&text).ok()?;
    let bounds = doc
        .get("end_to_end")?
        .as_array()?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let workloads = doc
        .get("workloads")?
        .as_array()?
        .iter()
        .map(|w| Workload::from_name(w.get("name")?.as_str()?))
        .collect::<Option<Vec<_>>>()?;
    Some(BenchmarkFile {
        seconds: doc.get("run_seconds")?.as_f64()?,
        workloads,
        bounds,
    })
}

/// One finished run: its result line, parsed.
struct RunOutcome {
    attempted: f64,
    failed: f64,
    correct: bool,
    metrics: Vec<(String, f64)>,
    wall_s: f64,
}

fn run_once(
    exe: &std::path::Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Option<RunOutcome> {
    let t = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = Json::parse(stdout.lines().last()?).ok()?;
    let metrics = line
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(RunOutcome {
        attempted: line.get("attempted")?.as_f64()?,
        failed: line.get("failed")?.as_f64()?,
        correct: line.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        metrics,
        wall_s,
    })
}

/// Each metric's values over a set's runs, in result-line order.
fn by_metric(outcomes: &[RunOutcome]) -> Vec<(String, Vec<f64>)> {
    let names = outcomes
        .first()
        .map(|o| o.metrics.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>())
        .unwrap_or_default();
    names
        .into_iter()
        .map(|name| {
            let values = outcomes
                .iter()
                .filter_map(|o| o.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name, values)
        })
        .collect()
}

fn bound_of(bounds: &[(String, f64)], name: &str) -> Option<f64> {
    bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
}

/// Prints one set's table.
fn print_set(
    workload: Workload,
    first_seed: u64,
    seconds: f64,
    outcomes: &[RunOutcome],
    bounds: &[(String, f64)],
) {
    println!(
        "\n{} — {} runs of {} s, seeds {}..={}, median wall time {:.1} s",
        workload.name(),
        outcomes.len(),
        seconds,
        first_seed,
        first_seed + RUNS - 1,
        median(&outcomes.iter().map(|o| o.wall_s).collect::<Vec<_>>())
    );
    let shares: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{}/{}", o.failed, o.attempted))
        .collect();
    println!("failed/attempted per run: {}", shares.join(" "));
    println!("| metric | median | q1 | q3 | min | max | spread | bound | steady |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (name, values) in by_metric(outcomes) {
        let mid = median(&values);
        let (q1, q3) = quartiles(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE);
        let bound = bound_of(bounds, &name);
        let steady = match bound {
            Some(b) if spread < b / 3.0 => "yes",
            Some(b) if spread <= b => "within bound",
            Some(_) => "NO",
            None => "-",
        };
        println!(
            "| {name} | {mid:.4} | {q1:.4} | {q3:.4} | {min:.4} | {max:.4} | {:.2}% | {} | {steady} |",
            100.0 * spread,
            bound.map_or("-".to_string(), |b| b.to_string())
        );
    }
}

/// Prints how far each median moved from the first set to the second.
fn print_shift(workload: Workload, sets: &[Vec<RunOutcome>], bounds: &[(String, f64)]) -> bool {
    let [first, second] = sets else {
        return false;
    };
    println!(
        "\n{} — median shift from seeds {}..={} to seeds {}..={}",
        workload.name(),
        SETS[0],
        SETS[0] + RUNS - 1,
        SETS[1],
        SETS[1] + RUNS - 1
    );
    println!("| metric | first median | second median | shift | bound | agrees |");
    println!("|---|---|---|---|---|---|");
    let mut agree = true;
    for ((name, a), (_, b)) in by_metric(first).iter().zip(by_metric(second)) {
        let (m1, m2) = (median(a), median(&b));
        let shift = (m2 - m1) / m1.abs().max(f64::MIN_POSITIVE);
        let bound = bound_of(bounds, name);
        let ok = bound.is_none_or(|b| shift.abs() <= b);
        agree &= ok;
        println!(
            "| {name} | {m1:.4} | {m2:.4} | {:+.2}% | {} | {} |",
            100.0 * shift,
            bound.map_or("-".to_string(), |b| b.to_string()),
            if ok { "yes" } else { "NO" }
        );
    }
    let share = |o: &RunOutcome| o.failed / o.attempted;
    let reference = first.first().map_or(f64::NAN, share);
    let same_share = first.iter().chain(second).all(|o| share(o) == reference);
    println!("failed share identical over both sets: {same_share}");
    agree && same_share
}

pub fn main() -> ExitCode {
    let Some(BenchmarkFile {
        seconds,
        workloads,
        bounds,
    }) = benchmark_file()
    else {
        eprintln!("--steadiness runs from the repository root: BENCHMARK.json not readable");
        return ExitCode::from(2);
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    for workload in workloads {
        let mut sets = Vec::new();
        for first_seed in SETS {
            let mut outcomes = Vec::new();
            for seed in first_seed..first_seed + RUNS {
                match run_once(&exe, workload, seed, seconds) {
                    Some(outcome) => outcomes.push(outcome),
                    None => {
                        eprintln!("{} seed {seed}: no result line", workload.name());
                        all_ok = false;
                    }
                }
            }
            all_ok &= outcomes.iter().all(|o| o.correct);
            print_set(workload, first_seed, seconds, &outcomes, &bounds);
            sets.push(outcomes);
        }
        all_ok &= print_shift(workload, &sets, &bounds);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
