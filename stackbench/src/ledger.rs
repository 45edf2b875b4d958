//! Operation accounting: every operation the benchmark attempts is counted,
//! and it fails only when one of its checks finds an outcome other than
//! the expected one (an expected WS102 or WS109 answer is a success).

use std::collections::BTreeMap;

/// How many failure notes are kept for the report (the counts are exact).
const MAX_NOTES: usize = 16;

/// Attempted and failed operations, plus per-check failure counts.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failed checks by check name.
    pub by_check: BTreeMap<&'static str, u64>,
    notes: Vec<String>,
}

/// One operation in progress: checks are recorded against it.
pub struct Op<'a> {
    ledger: &'a mut Ledger,
    failed: bool,
}

impl Ledger {
    /// Starts (and counts) one operation.
    pub fn op(&mut self) -> Op<'_> {
        self.attempted += 1;
        Op {
            ledger: self,
            failed: false,
        }
    }

    /// Records a single-check operation.
    pub fn single(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.op().check(check, ok, detail);
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Number of failures recorded by `check`.
    pub fn failures_of(&self, check: &str) -> u64 {
        self.by_check.get(check).copied().unwrap_or(0)
    }

    /// Prints the failure summary to standard error (nothing when clean).
    pub fn report_failures(&self) {
        if self.failed == 0 {
            return;
        }
        eprintln!("{} of {} operations failed", self.failed, self.attempted);
        for (check, n) in &self.by_check {
            eprintln!("  check {check}: {n} failure(s)");
        }
        for note in &self.notes {
            eprintln!("  {note}");
        }
    }
}

impl Op<'_> {
    /// Records one check of this operation.
    pub fn check(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            return;
        }
        *self.ledger.by_check.entry(check).or_insert(0) += 1;
        if self.ledger.notes.len() < MAX_NOTES {
            let note = format!("{check}: {}", detail());
            self.ledger.notes.push(note);
        }
        if !self.failed {
            self.failed = true;
            self.ledger.failed += 1;
        }
    }
}
