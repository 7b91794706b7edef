//! Contracting queries with too many results (§7.2).
//!
//! *"This is achieved by constructing a query `Q'_min` with each predicate
//! of the original query `Q` set to its minimum value. Since `Q'_min` will
//! produce too few results, we can now construct a refined space bounded by
//! `Q` and `Q'_min`. ACQUIRE now traverses the refined space to find queries
//! that meet the cardinality constraint, this time minimizing refinement
//! with respect to `Q` instead of `Q'_min`."*
//!
//! Implementation: [`contraction_query`] rewrites every flexible predicate
//! to its `Q'_min` form — a zero-width interval anchored at the original
//! lower (resp. upper) bound, with the original Eq. (1) denominator kept via
//! `basis_override` and the expansion capped at the original width. The one
//! Algorithm 4 loop (the `driver` module) then searches *outward from
//! `Q'_min`* in its contracting direction: a point's refinement **with
//! respect to `Q`** is the remaining gap `span_i − s_i` per dimension.
//! Because more expansion from `Q'_min` means *less* change to `Q`, that
//! direction keeps collecting satisfying queries and stops only once a whole
//! layer provably overshoots (COUNT constraints, whose aggregates grow
//! monotonically with expansion) or the grid is exhausted.

use acq_engine::Executor;
use acq_obs::Obs;
use acq_query::{AcqQuery, AggErrorFn, CmpOp, Interval, RefineSide};

use crate::config::AcquireConfig;
use crate::driver::{search, Direction, Feed, Host};
use crate::error::CoreError;
use crate::eval::{prepare_layer, EvalLayerKind, EvaluationLayer};
use crate::govern::CancellationToken;
use crate::progress::ProgressSink;
use crate::result::AcqOutcome;

/// Builds `Q'_min`: every flexible predicate anchored at its minimum with
/// the original refinement scale; expansion by `span_i` percent restores the
/// original predicate exactly. Flexible predicates that cannot contract
/// (zero-width intervals such as equi-joins) are frozen.
pub fn contraction_query(query: &AcqQuery) -> Result<AcqQuery, CoreError> {
    let mut q = query.clone();
    for i in q.flexible() {
        let p = &mut q.predicates[i];
        let basis = p.width_basis();
        let span = p.interval.width() / basis * 100.0;
        if span <= 0.0 {
            // Nothing to contract (e.g. an equi-join): freeze it.
            p.refinable = false;
            continue;
        }
        p.interval = match p.refine {
            RefineSide::Upper => Interval::point(p.interval.lo()),
            RefineSide::Lower => Interval::point(p.interval.hi()),
        };
        p.basis_override = Some(basis);
        p.max_refinement = Some(match p.max_refinement {
            Some(cap) => cap.min(span),
            None => span,
        });
    }
    if q.dims() == 0 {
        return Err(CoreError::Config(
            "no predicate of the query can be contracted".to_string(),
        ));
    }
    // Contraction means the original overshoots; the sensible default error
    // only penalises remaining overshoot for <=/< constraints and stays
    // symmetric for =.
    q.error_fn = match q.constraint.op {
        CmpOp::Le | CmpOp::Lt => AggErrorFn::HingeRelativeAbove,
        _ => AggErrorFn::Relative,
    };
    Ok(q)
}

/// The per-dimension expansion spans of a contraction query (`span_i`,
/// percent): expanding dimension `i` by `span_i` restores the original
/// predicate.
fn spans(original: &AcqQuery, contraction: &AcqQuery) -> Vec<f64> {
    contraction
        .flexible()
        .iter()
        .map(|&i| {
            let p = &original.predicates[i];
            p.interval.width() / p.width_basis() * 100.0
        })
        .collect()
}

/// What a contraction search of `original` runs on: `Q'_min`, and the
/// direction that scores its space relative to `original`.
pub(crate) fn contraction(original: &AcqQuery) -> Result<(AcqQuery, Direction), CoreError> {
    let cq = contraction_query(original)?;
    let spans = spans(original, &cq);
    Ok((cq, Direction::Contract { spans }))
}

/// Runs the §7.2 contraction search against a caller-built evaluation layer
/// (which must have been constructed for [`contraction_query`]'s output) —
/// the contracting form of [`crate::acquire_progress`], with the same
/// cancellation, budget, fault, observability and progress behaviour.
///
/// Returns an [`AcqOutcome`] whose `pscores`/`qscore` measure refinement
/// **with respect to the original query** (the contraction amounts) and
/// whose SQL renders the contracted queries.
pub fn contract_with<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    original: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
    obs: &Obs,
    progress: Option<&ProgressSink>,
) -> Result<AcqOutcome, CoreError> {
    let (cq, dir) = contraction(original)?;
    Feed::run(progress, |feed| {
        search(eval, &cq, &dir, cfg, cancel, obs, feed)
    })
}

/// Convenience entry point mirroring [`crate::run_acquire`] for a caller
/// that wants the contraction search whatever the constraint's operator.
pub fn run_contraction(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
) -> Result<AcqOutcome, CoreError> {
    run_contraction_with(exec, query, cfg, kind, &CancellationToken::new())
}

/// [`run_contraction`] with an externally owned [`CancellationToken`].
pub fn run_contraction_with(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
    cancel: &CancellationToken,
) -> Result<AcqOutcome, CoreError> {
    let plan = contraction(query)?;
    let obs = Obs::disabled();
    run_contraction_in(exec, plan, cfg, kind, Host::new(cancel, &obs), None)
}

/// Builds the layer for a [`contraction`]'s `Q'_min` and searches it inside
/// a request's feed: what [`run_contraction_with`] and
/// [`crate::run_acquire_progress`] share.
pub(crate) fn run_contraction_in(
    exec: &mut Executor,
    (cq, dir): (AcqQuery, Direction),
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
    host: Host<'_>,
    feed: Option<&mut Feed<'_>>,
) -> Result<AcqOutcome, CoreError> {
    let (cq, mut eval) = prepare_layer(exec, &cq, cfg, kind, host.prepared, host.obs)?;
    search(&mut *eval, &cq, &dir, cfg, host.cancel, host.obs, feed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
    use acq_query::{AggConstraint, AggregateSpec, ColRef, Predicate};

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)]).unwrap();
        for i in 0..1000 {
            b.push_row(vec![Value::Float(f64::from(i) * 0.1)]); // x in [0, 99.9]
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        cat
    }

    fn overshooting_query(op: CmpOp, target: f64) -> AcqQuery {
        // x <= 80 admits 801 tuples; targets below that overshoot.
        AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 80.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), op, target))
            .build()
            .unwrap()
    }

    #[test]
    fn contraction_query_anchors_at_minimum() {
        let q = overshooting_query(CmpOp::Le, 400.0);
        let cq = contraction_query(&q).unwrap();
        let p = &cq.predicates[0];
        assert_eq!(p.interval, Interval::point(0.0));
        assert_eq!(p.basis_override, Some(80.0));
        assert_eq!(p.max_refinement, Some(100.0));
        // Expanding by the full span restores the original interval.
        assert_eq!(p.refined_interval(100.0), Interval::new(0.0, 80.0));
    }

    #[test]
    fn contraction_freezes_pointlike_predicates() {
        let mut q = overshooting_query(CmpOp::Le, 400.0);
        q.predicates.push(Predicate::equi_join(
            ColRef::new("t", "x"),
            ColRef::new("t", "x"),
        ));
        let cq = contraction_query(&q).unwrap();
        assert_eq!(cq.dims(), 1, "equi-join cannot contract");
    }

    #[test]
    fn contracts_to_le_target() {
        let mut exec = Executor::new(catalog());
        let q = overshooting_query(CmpOp::Le, 400.0);
        let out = run_contraction(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        let best = out.best().unwrap();
        assert!(
            best.aggregate <= 400.0 * 1.05,
            "aggregate {}",
            best.aggregate
        );
        // Minimal change to Q: the best answer admits close to 400 tuples,
        // not close to zero.
        assert!(best.aggregate >= 300.0, "aggregate {}", best.aggregate);
        // Contraction of [0,80] to [0,~40] is a ~50% refinement wrt Q.
        assert!(
            best.qscore >= 40.0 && best.qscore <= 60.0,
            "qscore {}",
            best.qscore
        );
    }

    #[test]
    fn contracts_to_eq_target_within_delta() {
        let mut exec = Executor::new(catalog());
        let q = overshooting_query(CmpOp::Eq, 300.0);
        let out = run_contraction(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        let best = out.best().unwrap();
        assert!(
            (best.aggregate - 300.0).abs() / 300.0 <= 0.05,
            "aggregate {}",
            best.aggregate
        );
    }

    #[test]
    fn contraction_sql_shows_contracted_interval() {
        let mut exec = Executor::new(catalog());
        let q = overshooting_query(CmpOp::Le, 400.0);
        let out = run_contraction(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        let best = out.best().unwrap();
        assert!(best.sql.contains("t.x"), "{}", best.sql);
        // The contracted bound is below the original 80.
        assert!(!best.sql.contains("<= 80)"), "{}", best.sql);
    }

    #[test]
    fn nothing_to_contract_errors() {
        let mut q = overshooting_query(CmpOp::Le, 400.0);
        q.predicates[0].interval = Interval::point(80.0);
        assert!(matches!(contraction_query(&q), Err(CoreError::Config(_))));
    }
}
