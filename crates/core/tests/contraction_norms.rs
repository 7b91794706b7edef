//! Contraction (§7.2) under non-default norms and aggregates.

use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate, RefineSide,
};
use acquire_core::{run_contraction, AcquireConfig, EvalLayerKind};

fn catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..50 {
        for j in 0..50 {
            b.push_row(vec![
                Value::Float(f64::from(i) * 2.0),
                Value::Float(f64::from(j) * 2.0),
            ]);
        }
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

fn overshooting(op: CmpOp, target: f64) -> AcqQuery {
    AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(0.0, 80.0),
            RefineSide::Upper,
        ))
        .predicate(Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(0.0, 80.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), op, target))
        .build()
        .unwrap()
}

#[test]
fn contraction_under_linf_balances_both_dimensions() {
    // 41x41 = 1681 tuples; budget 900 needs ~sqrt contraction on each axis
    // under L∞ (minimising the worst per-predicate change).
    let cfg = AcquireConfig::default().with_norm(Norm::LInf);
    let mut exec = Executor::new(catalog());
    let out = run_contraction(
        &mut exec,
        &overshooting(CmpOp::Le, 900.0),
        &cfg,
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    // The cached layer answers every grid cell from the prepared product's
    // cell table: one probe per cell query.
    let s = out.stats;
    assert_eq!(s.index_probes, s.cell_queries, "{s}");
    let best = out.best().unwrap();
    assert!(best.aggregate <= 900.0 * 1.05);
    let spread = (best.pscores[0] - best.pscores[1]).abs();
    assert!(
        spread <= cfg.gamma + 1e-9,
        "L∞ contraction should balance: {:?}",
        best.pscores
    );
}

#[test]
fn weighted_contraction_protects_the_heavy_dimension() {
    // x is 5x as expensive to change: the contraction should fall on y.
    let cfg = AcquireConfig::default().with_norm(Norm::WeightedLp {
        p: 1.0,
        weights: vec![5.0, 1.0],
    });
    let mut exec = Executor::new(catalog());
    let out = run_contraction(
        &mut exec,
        &overshooting(CmpOp::Le, 900.0),
        &cfg,
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    assert!(
        best.pscores[1] > best.pscores[0],
        "y should absorb the contraction: {:?}",
        best.pscores
    );
}

#[test]
fn sum_contraction_without_early_stop() {
    // SUM aggregates disable the monotone early stop; the search must still
    // terminate (grid exhaustion) and satisfy the budget.
    let mut q = overshooting(CmpOp::Le, 30_000.0);
    q.constraint = AggConstraint::new(
        AggregateSpec::sum(ColRef::new("t", "x")),
        CmpOp::Le,
        30_000.0,
    );
    let mut exec = Executor::new(catalog());
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
        best.aggregate <= 30_000.0 * 1.05,
        "aggregate {}",
        best.aggregate
    );
    // Minimal change: among all satisfying queries the best keeps the most.
    for r in &out.queries {
        assert!(best.qscore <= r.qscore + 1e-9);
    }
}

#[test]
fn lt_constraint_is_strict_about_direction() {
    let mut exec = Executor::new(catalog());
    let out = run_contraction(
        &mut exec,
        &overshooting(CmpOp::Lt, 500.0),
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    // HingeRelativeAbove: anything at or below the budget is error 0.
    assert!(out.best().unwrap().aggregate <= 500.0 * 1.05);
}
