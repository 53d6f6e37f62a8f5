//! Known answers, derived from what the benchmark generated and never
//! from the program under test.

use crate::corpus::{interval, Fault, Invalid};
use crate::fleet::Member;
use spex_check::{Diagnostic, FileReport, Fix};
use spex_core::accuracy::{evaluate_accuracy, TruthConstraint};
use spex_core::constraint::Constraint;
use std::collections::HashMap;

/// The one finding a faulty file must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub param: String,
    pub code: &'static str,
    /// For an unknown key: the rename the checker must offer.
    pub rename_to: Option<String>,
}

/// The finding `fault` must produce under the parameter's current ground
/// truth, or `None` when the file must check clean.
pub fn expected(fault: &Fault, truth: &[TruthConstraint]) -> Option<Finding> {
    match fault {
        Fault::None => None,
        Fault::UnknownKey { key, near } => Some(Finding {
            param: key.clone(),
            code: "SPEX-R007",
            rename_to: near.clone(),
        }),
        Fault::Invalid { param, value, kind } => {
            let code = match kind {
                Invalid::AboveRange => {
                    let (_, hi) = interval(truth, param)?;
                    if value.parse::<i64>().ok()? <= hi {
                        return None;
                    }
                    "SPEX-R003"
                }
                Invalid::NotInEnum => "SPEX-R004",
                Invalid::NotInteger => "SPEX-R001",
                Invalid::MissingFile | Invalid::TakenPort => "SPEX-R002",
            };
            Some(Finding {
                param: param.clone(),
                code,
                rename_to: None,
            })
        }
    }
}

/// Whether a file's diagnostics are exactly the expected verdict.
pub fn verdict_matches(diags: &[Diagnostic], want: Option<&Finding>) -> bool {
    match (diags, want) {
        ([], None) => true,
        ([d], Some(w)) => {
            let rename = match &d.fix {
                Some(Fix::RenameKey { to, .. }) => Some(to),
                _ => None,
            };
            d.param == w.param
                && d.code.as_str() == w.code
                && (w.code != "SPEX-R007" || rename == w.rename_to.as_ref())
        }
        _ => false,
    }
}

/// Scores `reports` (in corpus order) against each file's expected
/// verdict; returns how many differ.
pub fn check_reports(reports: &[FileReport], want: &[Option<Finding>]) -> usize {
    assert_eq!(reports.len(), want.len(), "one report per file");
    reports
        .iter()
        .zip(want)
        .filter(|(r, w)| !verdict_matches(&r.diagnostics, w.as_ref()))
        .count()
}

/// Constraint-level score of an analysis: judged answers, and those that
/// are wrong (missed ground-truth constraints plus wrong inferred ones).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Score {
    pub judged: usize,
    pub wrong: usize,
}

impl Score {
    pub fn add(&mut self, other: Score) {
        self.judged += other.judged;
        self.wrong += other.wrong;
    }
}

/// An analysis's mismatches against its ground truth, by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatches {
    /// Ground-truth constraints the analysis did not infer.
    pub missed: usize,
    /// Inferred constraints the ground truth does not hold.
    pub wrong: usize,
}

impl Mismatches {
    pub fn of(inferred: &[Constraint], truth: &[TruthConstraint]) -> Mismatches {
        let acc = evaluate_accuracy(inferred, truth);
        Mismatches {
            missed: acc.missed.values().sum(),
            wrong: acc.by_category.values().map(|(inf, tp)| inf - tp).sum(),
        }
    }
}

/// Scores one system's inferred constraints against its ground truth.
pub fn score(inferred: &[Constraint], truth: &[TruthConstraint]) -> Score {
    let m = Mismatches::of(inferred, truth);
    Score {
        judged: truth.len() + m.wrong,
        wrong: m.missed + m.wrong,
    }
}

/// Scores a fleet database member by member (each member's parameters
/// carry its unique prefix).
pub fn score_fleet(db: &spex_check::ConstraintDb, members: &[Member]) -> Score {
    let mut by_member: HashMap<&str, Vec<Constraint>> = HashMap::new();
    for p in &db.params {
        let prefix = p.name.split('_').next().unwrap_or("");
        by_member
            .entry(prefix)
            .or_default()
            .extend(p.constraints.iter().cloned());
    }
    let mut total = Score::default();
    for m in members {
        let inferred = by_member.remove(m.prefix()).unwrap_or_default();
        total.add(score(&inferred, &m.gen.truth));
    }
    // Constraints on names no member declares are wrong answers too.
    let stray: usize = by_member.values().map(Vec::len).sum();
    total.add(Score {
        judged: stray,
        wrong: stray,
    });
    total
}
