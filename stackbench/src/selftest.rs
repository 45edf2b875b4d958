//! The planted-fault self-test: each check of the benchmark is shown to
//! fail when the fault it guards against is planted, and every workload
//! is shown to run clean without one. Runs at smoke sizes, one round per
//! case.

use std::process::ExitCode;
use std::time::Duration;

use crate::ledger::Ledger;
use crate::workloads::{self, Plant, Shape, Workload};

/// Each planted fault, the workload it is planted in, and the checks that
/// must catch it.
const CASES: &[(Plant, Workload, &[&str])] = &[
    (Plant::TamperView, Workload::HotReads, &["hot.view"]),
    (
        Plant::TamperView,
        Workload::ColdLargeRevoke,
        &["view.oracle"],
    ),
    (Plant::TamperView, Workload::GatedChurn, &["view.oracle"]),
    (Plant::DropAnswer, Workload::HotReads, &["hot.view"]),
    (Plant::DropAnswer, Workload::ColdLargeRevoke, &["read.ok"]),
    (
        Plant::EarlyRevocation,
        Workload::GatedChurn,
        &["update.before", "update.admitted"],
    ),
    (
        Plant::StaleExpectation,
        Workload::HotReads,
        &["update.no_stale"],
    ),
    (
        Plant::StaleExpectation,
        Workload::ColdLargeRevoke,
        &["update.no_stale"],
    ),
    (
        Plant::SkipRevocation,
        Workload::HotReads,
        &["update.admitted", "update.visible", "update.no_stale"],
    ),
    (
        Plant::SkipPublication,
        Workload::ColdLargeRevoke,
        &["update.compiles", "update.visible", "update.no_stale"],
    ),
    (
        Plant::SkipPublication,
        Workload::GatedChurn,
        &["update.compiles", "update.visible", "update.no_stale"],
    ),
    (
        Plant::AdmitRefused,
        Workload::HotReads,
        &["reject.refused", "update.compiles", "reject.unchanged"],
    ),
    (
        Plant::AdmitRefused,
        Workload::ColdLargeRevoke,
        &["reject.refused", "update.compiles", "reject.unchanged"],
    ),
    (
        Plant::AdmitRefused,
        Workload::GatedChurn,
        &["reject.refused", "update.compiles", "reject.unchanged"],
    ),
    (
        Plant::BrokenPlane,
        Workload::HotReads,
        &["run.verify_compiled"],
    ),
    (
        Plant::BrokenPlane,
        Workload::GatedChurn,
        &["run.verify_compiled"],
    ),
];

fn one_round(workload: Workload, plant: Plant) -> Ledger {
    let shape = Shape {
        setups: 1,
        max_rounds: 1,
        visible_timeout: Duration::from_millis(300),
        ..Shape::smoke(workload)
    };
    let mut ledger = Ledger::default();
    workloads::run(workload, &shape, 7, 0.1, false, plant, &mut ledger);
    ledger
}

pub fn main() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let ledger = one_round(workload, Plant::None);
        let clean = ledger.correct() && ledger.attempted > 0;
        ok &= clean;
        println!(
            "no plant     on {:<17}: {} operations, {} failed — {}",
            workload.name(),
            ledger.attempted,
            ledger.failed,
            if clean {
                "clean"
            } else {
                "UNEXPECTED FAILURES"
            }
        );
        if !clean {
            ledger.report_failures();
        }
    }
    for (plant, workload, checks) in CASES {
        let ledger = one_round(*workload, *plant);
        for check in *checks {
            let n = ledger.failures_of(check);
            ok &= n > 0;
            println!(
                "{:<16} on {:<17}: check {check:<20} failed {n} time(s) — {}",
                format!("{plant:?}"),
                workload.name(),
                if n > 0 { "caught" } else { "MISSED" }
            );
        }
    }
    if ok {
        println!("self-test passed: every planted fault was caught");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}
