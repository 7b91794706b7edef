//! Driver outputs.

use acq_engine::ExecStats;
use acq_query::{AcqQuery, PredFunction};

use crate::govern::Termination;
use crate::space::GridPoint;

/// One refined query recommended by ACQUIRE.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedQueryResult {
    /// Grid coordinates. Empty for results that do not sit on the grid:
    /// repartitioned (fractional) answers and the [`AcqOutcome::closest`]
    /// fallback.
    pub point: GridPoint,
    /// Predicate refinement vector `PScore(Q, Q')`, percent per flexible
    /// predicate (Eq. 2).
    pub pscores: Vec<f64>,
    /// Query refinement score `QScore(Q, Q')` under the configured norm
    /// (Eq. 3).
    pub qscore: f64,
    /// The refined query's actual aggregate value `A_actual`.
    pub aggregate: f64,
    /// Aggregate error `Err_A` against the constraint target (§2.5).
    pub error: f64,
    /// The refined query rendered in the paper's extended SQL.
    pub sql: String,
}

impl RefinedQueryResult {
    /// Human-readable per-predicate change description relative to the
    /// original query: one line per flexible predicate that actually moved
    /// ("part.p_retailprice: upper bound 1000 -> 1104.99 (+10%)").
    #[must_use]
    pub fn explain(&self, original: &AcqQuery) -> Vec<String> {
        let flex = original.flexible();
        let mut out = Vec::new();
        for (k, &i) in flex.iter().enumerate() {
            let Some(&score) = self.pscores.get(k) else {
                continue;
            };
            if score <= 0.0 {
                continue;
            }
            let p = &original.predicates[i];
            let refined = p.refined_interval(score);
            let line = match &p.func {
                PredFunction::Attr(c) => match p.refine {
                    acq_query::RefineSide::Upper => format!(
                        "{c}: upper bound {} -> {} (+{:.1}%)",
                        p.interval.hi(),
                        refined.hi(),
                        score
                    ),
                    acq_query::RefineSide::Lower => format!(
                        "{c}: lower bound {} -> {} (+{:.1}%)",
                        p.interval.lo(),
                        refined.lo(),
                        score
                    ),
                },
                PredFunction::JoinDelta { left, right } => format!(
                    "{left} = {right}: relaxed to a band of width {}",
                    refined.hi()
                ),
                PredFunction::Categorical { col, ontology, .. } => {
                    let height = ontology.height().max(1) as f64;
                    let levels = (score / (100.0 / height)).round() as u32;
                    format!("{col}: accepted categories rolled up {levels} level(s)")
                }
            };
            out.push(line);
        }
        out
    }
}

/// The outcome of an ACQUIRE search.
#[derive(Debug, Clone)]
pub struct AcqOutcome {
    /// The answer set `A`: every query in the minimal-refinement layer whose
    /// aggregate error is within `δ`, sorted by ascending QScore.
    pub queries: Vec<RefinedQueryResult>,
    /// Whether any query met the constraint within `δ`. When `false`,
    /// [`AcqOutcome::closest`] carries the query attaining the closest
    /// aggregate value (Algorithm 4's fallback).
    pub satisfied: bool,
    /// The query with the smallest aggregate error seen during the search.
    pub closest: Option<RefinedQueryResult>,
    /// The original (unrefined) query's aggregate value `A_actual`; `NaN`
    /// when the request never evaluated it (a contraction alone starts from
    /// `Q'_min`; one an `=` fell through to inherits the expansion's).
    pub original_aggregate: f64,
    /// Whether the §7.2 contraction search produced this outcome: `pscores`
    /// and `qscore` then measure how far each result *contracts* `Q`, not
    /// how far it expands it.
    pub contracted: bool,
    /// Grid queries investigated.
    pub explored: u64,
    /// Query-layers completed.
    pub layers: u64,
    /// Peak number of grid points whose `d + 1` sub-aggregates were
    /// retained simultaneously (§5.1.1's memory footprint; layered
    /// expanders evict all but the last two layers).
    pub peak_store: usize,
    /// Evaluation-layer work counters for the whole search.
    pub stats: ExecStats,
    /// How the search ended: ran to completion (satisfied or exhausted) or
    /// was interrupted by a budget, a cancellation, or an absorbed fault —
    /// in which case the outcome is the anytime answer accumulated up to
    /// the interrupt.
    pub termination: Termination,
}

impl AcqOutcome {
    /// The best (minimal-QScore) recommended query, if any.
    #[must_use]
    pub fn best(&self) -> Option<&RefinedQueryResult> {
        self.queries.first()
    }

    /// Minimum refinement score among the answers (`QScore_opt` up to the
    /// γ-proximity guarantee of Theorem 1).
    #[must_use]
    pub fn min_qscore(&self) -> Option<f64> {
        self.best().map(|r| r.qscore)
    }

    /// Whether the search was interrupted before running to completion
    /// (deadline, budget, cancellation, or absorbed fault). An interrupted
    /// outcome still carries everything found so far — answers, `closest`,
    /// and counters.
    #[must_use]
    pub fn is_interrupted(&self) -> bool {
        !self.termination.is_complete()
    }

    /// The best answer if any, otherwise the closest-so-far query: the
    /// anytime answer, well-defined whenever at least one grid query
    /// produced a defined aggregate.
    #[must_use]
    pub fn best_or_closest(&self) -> Option<&RefinedQueryResult> {
        self.best().or(self.closest.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_query::{AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide};

    #[test]
    fn explain_names_only_moved_predicates() {
        let q = AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 50.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(10.0, 90.0),
                RefineSide::Lower,
            ))
            .predicate(Predicate::equi_join(
                ColRef::new("t", "x"),
                ColRef::new("t", "y"),
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap();
        let r = RefinedQueryResult {
            point: vec![0, 1, 2],
            pscores: vec![0.0, 25.0, 3.0],
            qscore: 28.0,
            aggregate: 5.0,
            error: 0.0,
            sql: String::new(),
        };
        let lines = r.explain(&q);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("t.y: lower bound 10 -> -10 (+25.0%)"),
            "{lines:?}"
        );
        assert!(lines[1].contains("band of width 3"), "{lines:?}");
    }
}
