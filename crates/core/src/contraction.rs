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
//! `basis_override` and the expansion capped at the original width. The
//! standard Expand/Explore machinery then searches *outward from `Q'_min`*;
//! a point's refinement **with respect to `Q`** is the remaining gap
//! `span_i − s_i` per dimension. Because more expansion from `Q'_min` means
//! *less* change to `Q`, the driver keeps collecting satisfying queries and
//! stops only once a whole layer provably overshoots (COUNT constraints,
//! whose aggregates grow monotonically with expansion) or the grid is
//! exhausted.

use acq_engine::Executor;
use acq_query::{AcqQuery, AggErrorFn, AggFunc, CmpOp, Interval, RefineSide};

use crate::config::AcquireConfig;
use crate::driver::isolated;
use crate::error::CoreError;
use crate::eval::{prepare_layer, EvalLayerKind, EvaluationLayer};
use crate::expand::{BfsExpander, Expander, LinfExpander};
use crate::explore::Explorer;
use crate::govern::{CancellationToken, FaultPolicy, Governor, InterruptReason, Termination};
use crate::result::{AcqOutcome, RefinedQueryResult};
use crate::space::RefinedSpace;

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

/// Runs the §7.2 contraction search against a caller-built evaluation layer
/// (which must have been constructed for [`contraction_query`]'s output),
/// with an externally owned [`CancellationToken`]; budgets, cancellation,
/// and fault handling behave exactly as in [`crate::acquire_progress`].
///
/// Returns an [`AcqOutcome`] whose `pscores`/`qscore` measure refinement
/// **with respect to the original query** (the contraction amounts) and
/// whose SQL renders the contracted queries.
pub fn contract_with<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    original: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
) -> Result<AcqOutcome, CoreError> {
    cfg.validate()?;
    let cq = contraction_query(original)?;
    cq.validate_with_norm(&cfg.norm)?;
    let space = RefinedSpace::new(&cq, cfg)?;
    let span = spans(original, &cq);
    let mut expander: Box<dyn Expander> = if cfg.norm.is_linf() {
        Box::new(LinfExpander::new(&space))
    } else {
        Box::new(BfsExpander::new(&space))
    };
    let mut explorer = Explorer::new();
    let governor = Governor::new(cfg.budget.clone(), cancel.clone());

    let target = cq.constraint.target;
    let err_fn = cq.error_fn;
    // Early stop is sound only for aggregates that grow monotonically as the
    // query expands from Q'_min.
    let monotone = matches!(cq.constraint.spec.func, AggFunc::Count);
    let overshoot_cap = target * (1.0 + cfg.delta);

    let mut answers: Vec<RefinedQueryResult> = Vec::new();
    let mut closest: Option<RefinedQueryResult> = None;
    let mut explored = 0u64;
    let mut current_layer = 0u64;
    let mut layer_min_actual = f64::INFINITY;
    let mut interrupt: Option<InterruptReason> = None;

    let on_fault =
        |e: CoreError, interrupt: &mut Option<InterruptReason>| -> Result<(), CoreError> {
            match cfg.fault_policy {
                FaultPolicy::Propagate => Err(e),
                FaultPolicy::BestEffort => {
                    *interrupt = Some(InterruptReason::Fault(e.to_string()));
                    Ok(())
                }
            }
        };

    while let Some(point) = expander.next_query() {
        let layer = expander.layer_of(&point);
        if layer > cfg.max_layers {
            break;
        }
        if explored >= cfg.max_explored {
            interrupt = Some(InterruptReason::ExploredBudget);
            break;
        }
        if let Some(reason) = governor.check(explored, explorer.store().approx_bytes()) {
            interrupt = Some(reason);
            break;
        }
        if layer > current_layer {
            if monotone && layer_min_actual.is_finite() && layer_min_actual > overshoot_cap {
                // Every query from here on contains one that already
                // overshoots beyond delta: stop.
                break;
            }
            if let Some(min) = expander.evictable_below(layer) {
                explorer.evict_below(min);
            }
            current_layer = layer;
            layer_min_actual = f64::INFINITY;
        }
        let state = match isolated(|| explorer.compute_aggregate(eval, &space, &point, layer)) {
            Ok(state) => state,
            Err(e) => {
                on_fault(e, &mut interrupt)?;
                break;
            }
        };
        explored += 1;
        let Some(actual) = state.value() else {
            continue;
        };
        layer_min_actual = layer_min_actual.min(actual);
        let error = err_fn.error(target, actual);

        // Refinement with respect to Q: the *remaining* contraction.
        let s = space.pscores(&point);
        let contraction: Vec<f64> = s
            .iter()
            .zip(&span)
            .map(|(si, sp)| (sp - si).max(0.0))
            .collect();
        let qscore = cfg.norm.qscore(&contraction);
        let make = || RefinedQueryResult {
            point: point.clone(),
            pscores: contraction.clone(),
            qscore,
            aggregate: actual,
            error,
            sql: cq.refined_sql(&s),
        };
        if error <= cfg.delta {
            answers.push(make());
        } else {
            if closest.as_ref().is_none_or(|c| error < c.error) {
                closest = Some(make());
            }
            if actual > target {
                // The crossing lies inside this cell: repartition it, just
                // as the expansion driver does (§6).
                let hit = match isolated(|| {
                    crate::repartition::repartition(
                        eval,
                        &space,
                        &point,
                        target,
                        err_fn,
                        cfg.repartition_depth,
                    )
                }) {
                    Ok(hit) => hit,
                    Err(e) => {
                        on_fault(e, &mut interrupt)?;
                        break;
                    }
                };
                if let Some(hit) = hit {
                    let c: Vec<f64> = hit
                        .bounds
                        .iter()
                        .zip(&span)
                        .map(|(si, sp)| (sp - si).max(0.0))
                        .collect();
                    let r = RefinedQueryResult {
                        point: Vec::new(),
                        pscores: c.clone(),
                        qscore: cfg.norm.qscore(&c),
                        aggregate: hit.aggregate,
                        error: hit.error,
                        sql: cq.refined_sql(&hit.bounds),
                    };
                    if hit.error <= cfg.delta {
                        answers.push(r);
                    } else if closest.as_ref().is_none_or(|cl| r.error < cl.error) {
                        closest = Some(r);
                    }
                }
            }
        }
    }

    // Minimal change to Q first.
    answers.sort_by(|a, b| a.qscore.total_cmp(&b.qscore));
    let satisfied = !answers.is_empty();
    let termination = match interrupt {
        Some(reason) => governor.interrupted(reason, explored),
        None if satisfied => Termination::Satisfied,
        None => Termination::Exhausted,
    };
    Ok(AcqOutcome {
        satisfied,
        closest,
        original_aggregate: f64::NAN,
        explored,
        layers: current_layer,
        peak_store: explorer.store().peak_len(),
        stats: eval.stats(),
        termination,
        queries: answers,
    })
}

/// Convenience entry point mirroring [`crate::run_acquire`] for contraction.
pub fn run_contraction(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
) -> Result<AcqOutcome, CoreError> {
    run_contraction_with(exec, query, cfg, kind, &CancellationToken::new())
}

/// [`run_contraction`] with an externally owned [`CancellationToken`], so a
/// long-running host's shutdown interrupts contraction searches too.
pub fn run_contraction_with(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
    cancel: &CancellationToken,
) -> Result<AcqOutcome, CoreError> {
    // `contract_with` re-derives `Q'_min` from the original, so the original
    // needs its domains too (the seam's own fill then finds them set).
    let mut query = query.clone();
    exec.populate_domains(&mut query)?;
    let (_, mut eval) = prepare_layer(exec, &contraction_query(&query)?, cfg, kind)?;
    contract_with(&mut *eval, &query, cfg, cancel)
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
            EvalLayerKind::GridIndex,
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
