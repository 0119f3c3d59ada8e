//! The correctness gate: every run's sink tuples and contribution sets against
//! the reference, counted as operations attempted and failed.

use std::collections::HashMap;

use crate::inputs::{Digest, ExpectedOp, Row};
use crate::runs::RunOutcome;

/// Operations of one or more runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ops {
    /// Expected sink tuples plus, on GL runs, expected contribution sets.
    pub attempted: u64,
    /// Missing, extra or unequal ones.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

/// At most this many failure notes are kept.
const MAX_NOTES: usize = 8;

impl Ops {
    /// Adds another run's operations.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            self.note(note);
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    fn fail(&mut self, count: u64, note: String) {
        self.failed += count;
        self.note(note);
    }
}

/// How many operations a run against `expected` attempts.
pub fn attempted(expected: &[ExpectedOp], with_contributions: bool) -> u64 {
    expected.len() as u64 * if with_contributions { 2 } else { 1 }
}

/// A run that did not complete (engine error, panic, dropped frame, unsustainable
/// paced rate) fails every operation it attempted.
pub fn all_failed(expected: &[ExpectedOp], with_contributions: bool, why: String) -> Ops {
    let attempted = attempted(expected, with_contributions);
    Ops {
        attempted,
        failed: attempted,
        notes: vec![why],
    }
}

/// Compares a completed run with the reference. Sink tuples must arrive as the
/// reference lists them — same bytes, same canonical order; contribution sets are
/// matched to their sink tuple by its bytes.
pub fn check(
    label: &str,
    expected: &[ExpectedOp],
    outcome: &RunOutcome,
    with_contributions: bool,
) -> Ops {
    let mut ops = Ops {
        attempted: attempted(expected, with_contributions),
        ..Ops::default()
    };
    check_rows(label, expected, &outcome.rows, &mut ops);
    if with_contributions {
        match &outcome.contributions {
            Some(observed) => check_contributions(label, expected, observed, &mut ops),
            None => ops.fail(
                expected.len() as u64,
                format!("{label}: the run delivered no contribution sets"),
            ),
        }
    }
    ops.failed = ops.failed.min(ops.attempted);
    ops
}

fn check_rows(label: &str, expected: &[ExpectedOp], observed: &[Row], ops: &mut Ops) {
    if expected.iter().map(|op| &op.row).eq(observed.iter()) {
        return;
    }
    // Not identical: count what is missing and what is extra as multisets, and
    // if the multisets agree the order alone is wrong — one failure per tuple
    // out of place.
    let mut balance: HashMap<&Row, i64> = HashMap::new();
    for op in expected {
        *balance.entry(&op.row).or_default() += 1;
    }
    for row in observed {
        *balance.entry(row).or_default() -= 1;
    }
    let unmatched: u64 = balance.values().map(|b| b.unsigned_abs()).sum();
    if unmatched > 0 {
        let example = balance
            .iter()
            .find(|(_, b)| **b != 0)
            .map(|(row, b)| {
                let kind = if *b > 0 { "missing" } else { "unexpected" };
                format!("{kind} sink tuple {row:?}")
            })
            .unwrap_or_default();
        ops.fail(
            unmatched,
            format!(
                "{label}: {} sink tuples expected, {} observed, {unmatched} unmatched; {example}",
                expected.len(),
                observed.len()
            ),
        );
    } else {
        let displaced = expected
            .iter()
            .zip(observed)
            .filter(|(op, row)| op.row != **row)
            .count() as u64;
        ops.fail(
            displaced,
            format!("{label}: {displaced} sink tuples out of canonical order"),
        );
    }
}

fn check_contributions(
    label: &str,
    expected: &[ExpectedOp],
    observed: &[(Row, Digest)],
    ops: &mut Ops,
) {
    let mut by_row: HashMap<&Row, Vec<Digest>> = HashMap::new();
    for (row, digest) in observed {
        by_row.entry(row).or_default().push(*digest);
    }
    let mut missing = 0;
    let mut example = None;
    for op in expected {
        let digests = by_row.get_mut(&op.row);
        let matched = digests.and_then(|digests| {
            let at = digests.iter().position(|d| *d == op.contribution)?;
            Some(digests.swap_remove(at))
        });
        if matched.is_none() {
            missing += 1;
            example.get_or_insert_with(|| {
                let seen = by_row.get(&op.row).and_then(|d| d.first());
                format!(
                    "contribution set of {:?} is {seen:?}, expected {:?}",
                    op.row, op.contribution
                )
            });
        }
    }
    // A wrong set shows up twice — its expected digest unmatched and its observed
    // digest left over — and is one failure; a set for no sink tuple only as a
    // leftover, a set never delivered only as unmatched.
    let leftover: u64 = by_row.values().map(|d| d.len() as u64).sum();
    let failed = leftover.max(missing);
    if failed > 0 {
        let example = example.unwrap_or_else(|| "sets for no expected sink tuple".into());
        ops.fail(
            failed,
            format!("{label}: {failed} contribution sets wrong; {example}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::row;

    fn expected() -> Vec<ExpectedOp> {
        (0..3u32)
            .map(|k| ExpectedOp {
                row: row(60_000, &(k, 10i64)),
                contribution: Digest {
                    count: 2,
                    hash: u64::from(k),
                },
            })
            .collect()
    }

    fn outcome_of(expected: &[ExpectedOp]) -> RunOutcome {
        RunOutcome {
            rows: expected.iter().map(|op| op.row.clone()).collect(),
            contributions: Some(
                expected
                    .iter()
                    .map(|op| (op.row.clone(), op.contribution))
                    .collect(),
            ),
            ..RunOutcome::default()
        }
    }

    #[test]
    fn a_faithful_run_passes() {
        let expected = expected();
        let ops = check("t", &expected, &outcome_of(&expected), true);
        assert_eq!((ops.attempted, ops.failed), (6, 0), "{:?}", ops.notes);
        let np = check("t", &expected, &outcome_of(&expected), false);
        assert_eq!((np.attempted, np.failed), (3, 0));
    }

    #[test]
    fn missing_extra_unequal_and_reordered_tuples_fail() {
        let expected = expected();
        let mut missing = outcome_of(&expected);
        missing.rows.pop();
        assert_eq!(check("t", &expected, &missing, false).failed, 1);

        let mut extra = outcome_of(&expected);
        extra.rows.push(row(120_000, &(9u32, 1i64)));
        assert_eq!(check("t", &expected, &extra, false).failed, 1);

        let mut unequal = outcome_of(&expected);
        unequal.rows[1] = row(60_000, &(1u32, 11i64));
        // One expected tuple missing and one unexpected tuple present.
        assert_eq!(check("t", &expected, &unequal, false).failed, 2);

        let mut reordered = outcome_of(&expected);
        reordered.rows.swap(0, 2);
        assert_eq!(check("t", &expected, &reordered, false).failed, 2);
    }

    #[test]
    fn wrong_or_absent_contribution_sets_fail() {
        let expected = expected();
        let mut wrong = outcome_of(&expected);
        wrong.contributions.as_mut().unwrap()[0].1.count = 3;
        let ops = check("t", &expected, &wrong, true);
        assert_eq!(ops.failed, 1, "{:?}", ops.notes);

        let mut absent = outcome_of(&expected);
        absent.contributions = None;
        assert_eq!(check("t", &expected, &absent, true).failed, 3);

        let mut surplus = outcome_of(&expected);
        surplus
            .contributions
            .as_mut()
            .unwrap()
            .push((row(1, &"ghost"), Digest::default()));
        assert_eq!(check("t", &expected, &surplus, true).failed, 1);
    }

    #[test]
    fn an_aborted_run_fails_everything_it_attempted() {
        let ops = all_failed(&expected(), true, "operator `agg` panicked".into());
        assert_eq!((ops.attempted, ops.failed), (6, 6));
    }
}
