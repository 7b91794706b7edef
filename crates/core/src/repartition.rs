//! Cell repartitioning for overshooting queries (Algorithm 4, §6).
//!
//! When a grid query overshoots the expected aggregate by more than `δ`
//! while its contained neighbours undershoot, the constraint's crossing
//! point lies *inside* the query's cell. The driver then "repartitions the
//! cell corresponding to the given query and examines queries lying within
//! … for `b` iterations, where `b` is a tunable parameter."
//!
//! This implementation bisects the cell along the diagonal between the
//! cell's lower corner (contained, undershooting) and the grid point itself
//! (overshooting), executing each candidate as a full query against the
//! evaluation layer — the candidates are fractional and do not align with
//! the grid, so incremental computation does not apply to them.

use acq_engine::EngineResult;
use acq_query::AggErrorFn;

use crate::eval::EvaluationLayer;
use crate::space::RefinedSpace;

/// A fractional candidate found inside a repartitioned cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RepartitionHit {
    /// Refinement bounds (PScore percent per flexible predicate).
    pub bounds: Vec<f64>,
    /// The candidate's aggregate value.
    pub aggregate: f64,
    /// Its aggregate error.
    pub error: f64,
}

/// Bisects the cell of `point` for up to `depth` iterations, returning the
/// candidate with the smallest aggregate error (which the caller checks
/// against `δ`). Returns `None` when the cell is degenerate (the origin).
pub fn repartition<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    space: &RefinedSpace,
    point: &[u32],
    target: f64,
    error_fn: AggErrorFn,
    depth: u32,
) -> EngineResult<Option<RepartitionHit>> {
    if point.iter().all(|&u| u == 0) {
        return Ok(None);
    }
    let hi = space.bounds(point);
    let lo: Vec<f64> = point
        .iter()
        .map(|&u| {
            if u > 0 {
                f64::from(u - 1) * space.step()
            } else {
                0.0
            }
        })
        .collect();

    let mut t_lo = 0.0f64;
    let mut t_hi = 1.0f64;
    let mut best: Option<RepartitionHit> = None;
    for _ in 0..depth.max(1) {
        let t = 0.5 * (t_lo + t_hi);
        let bounds: Vec<f64> = lo.iter().zip(&hi).map(|(&a, &b)| a + t * (b - a)).collect();
        let state = eval.full_aggregate(&bounds)?;
        let Some(actual) = state.value() else {
            // Empty aggregate (MIN/MAX over no tuples): grow the candidate.
            t_lo = t;
            continue;
        };
        let error = error_fn.error(target, actual);
        if best.as_ref().is_none_or(|b| error < b.error) {
            best = Some(RepartitionHit {
                bounds: bounds.clone(),
                aggregate: actual,
                error,
            });
        }
        if actual > target {
            t_hi = t;
        } else {
            t_lo = t;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcquireConfig;
    use crate::eval::CachedScoreEvaluator;
    use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
    use acq_query::{
        AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
    };

    /// Dense data: 1000 rows with x = 0.1, 0.2, ... so a whole grid step of
    /// 5% (interval width 10 -> 0.5 units of x) admits ~5 new tuples and a
    /// fine target sits strictly inside one cell.
    fn setup() -> (Executor, AcqQuery) {
        let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)]).unwrap();
        for i in 0..1000 {
            b.push_row(vec![Value::Float(f64::from(i) * 0.1)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        let q = AcqQuery::builder()
            .table("t")
            .predicate(
                Predicate::select(
                    ColRef::new("t", "x"),
                    Interval::new(0.0, 10.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 99.9)),
            )
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 103.0))
            .build()
            .unwrap();
        (Executor::new(cat), q)
    }

    #[test]
    fn bisection_converges_into_the_cell() {
        let (mut exec, q) = setup();
        let cfg = AcquireConfig::default(); // step = gamma/d = 10%
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        // Grid point [1] = 10% refinement -> x <= 11 -> 111 tuples: overshoots
        // the 103 target; origin (101 tuples) undershoots beyond delta=0.01.
        let hit = repartition(&mut eval, &space, &[1], 103.0, AggErrorFn::Relative, 12)
            .unwrap()
            .unwrap();
        assert!(hit.error < 0.01, "error {}", hit.error);
        assert!(
            (hit.aggregate - 103.0).abs() <= 1.0,
            "agg {}",
            hit.aggregate
        );
        assert!(hit.bounds[0] > 0.0 && hit.bounds[0] < 10.0);
    }

    #[test]
    fn origin_cell_is_degenerate() {
        let (mut exec, q) = setup();
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let r = repartition(&mut eval, &space, &[0], 103.0, AggErrorFn::Relative, 4).unwrap();
        assert!(r.is_none());
    }
}
