//! Exact-Lp-order driver tests: with `exact_lp_order` the driver's answer
//! is optimal under the actual norm, never worse than Algorithm 1's
//! L1-layered approximation.

use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate, RefineSide,
};
use acquire_core::{run_acquire, AcquireConfig, EvalLayerKind};

/// Data engineered so the L2-cheapest refinement is diagonal while the
/// L1-layer traversal meets the target on an axis first: a dense block of
/// tuples sits just past both bounds on the diagonal.
fn catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    // 200 base tuples inside [0,10]x[0,10].
    for i in 0..200 {
        b.push_row(vec![
            Value::Float(f64::from(i % 14) * 0.7),
            Value::Float(f64::from(i / 14) * 0.7),
        ]);
    }
    // 300 tuples in the diagonal pocket (11..12, 11..12): reachable with a
    // small *balanced* refinement.
    for i in 0..300 {
        b.push_row(vec![
            Value::Float(11.0 + f64::from(i % 10) * 0.1),
            Value::Float(11.0 + f64::from(i / 10) * 0.03),
        ]);
    }
    // 300 tuples far along x only (x in 14..15, y tiny): reachable with a
    // large single-axis refinement.
    for i in 0..300 {
        b.push_row(vec![
            Value::Float(14.0 + f64::from(i % 10) * 0.1),
            Value::Float(f64::from(i / 10) * 0.3),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

fn query(target: f64) -> AcqQuery {
    AcqQuery::builder()
        .table("t")
        .predicate(
            Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 15.0)),
        )
        .predicate(
            Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 15.0)),
        )
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Ge,
            target,
        ))
        .build()
        .unwrap()
}

#[test]
fn exact_order_never_worse_under_l2() {
    let cfg_bfs = AcquireConfig::default().with_norm(Norm::Lp(2.0));
    let cfg_exact = AcquireConfig {
        exact_lp_order: true,
        ..AcquireConfig::default().with_norm(Norm::Lp(2.0))
    };

    let mut e1 = Executor::new(catalog());
    let bfs = run_acquire(&mut e1, &query(450.0), &cfg_bfs, EvalLayerKind::CachedScore).unwrap();
    let mut e2 = Executor::new(catalog());
    let exact = run_acquire(
        &mut e2,
        &query(450.0),
        &cfg_exact,
        EvalLayerKind::CachedScore,
    )
    .unwrap();

    assert!(bfs.satisfied && exact.satisfied);
    let (bq, eq) = (bfs.best().unwrap().qscore, exact.best().unwrap().qscore);
    assert!(
        eq <= bq + 1e-9,
        "exact order must not lose under its own norm: exact {eq} vs bfs {bq}"
    );
}

#[test]
fn exact_order_matches_bfs_under_l1() {
    // Under L1 the BFS layers ARE the qscore layers: both modes must agree.
    let cfg_bfs = AcquireConfig::default();
    let cfg_exact = AcquireConfig {
        exact_lp_order: true,
        ..AcquireConfig::default()
    };
    let mut e1 = Executor::new(catalog());
    let a = run_acquire(&mut e1, &query(450.0), &cfg_bfs, EvalLayerKind::CachedScore).unwrap();
    let mut e2 = Executor::new(catalog());
    let b = run_acquire(
        &mut e2,
        &query(450.0),
        &cfg_exact,
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert_eq!(a.satisfied, b.satisfied);
    assert!((a.best().unwrap().qscore - b.best().unwrap().qscore).abs() < 1e-9);
}

#[test]
fn exact_order_results_verify() {
    let cfg = AcquireConfig {
        exact_lp_order: true,
        ..AcquireConfig::default().with_norm(Norm::Lp(3.0))
    };
    let cat = catalog();
    let mut exec = Executor::new(cat.clone());
    let out = run_acquire(&mut exec, &query(450.0), &cfg, EvalLayerKind::CachedScore).unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    // Independent re-execution.
    let mut e2 = Executor::new(cat);
    let mut q = query(450.0);
    e2.populate_domains(&mut q).unwrap();
    let rq = e2.resolve(&q).unwrap();
    let rel = e2.base_relation(&rq, &best.pscores).unwrap();
    let n = e2
        .full_aggregate(&rq, &rel, &best.pscores)
        .unwrap()
        .value()
        .unwrap();
    assert_eq!(n, best.aggregate);
}
