//! §7.1 extension tests: refinement preferences via weighted norms and
//! per-predicate refinement caps, plus cross-norm driver behaviour.

use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate, RefineSide,
};
use acquire_core::{
    acquire, run_acquire, AcquireConfig, CachedScoreEvaluator, EvalLayerKind, RefinedSpace,
};

/// Two symmetric dimensions: both `x` and `y` are uniform on [0, 100] and
/// both predicates start at [0, 20], so refining either is equally
/// effective. Weights then decide which one moves.
fn symmetric_catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..100 {
        for j in 0..100 {
            b.push_row(vec![Value::Float(f64::from(i)), Value::Float(f64::from(j))]);
        }
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

fn symmetric_query(target: f64) -> AcqQuery {
    AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(0.0, 20.0),
            RefineSide::Upper,
        ))
        .predicate(Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(0.0, 20.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Ge,
            target,
        ))
        .build()
        .unwrap()
}

/// A weight steering refinement away from `x` makes the answer refine `y`
/// more than `x` — the §7.1 "preferences in refinement" behaviour.
#[test]
fn weighted_norm_steers_refinement() {
    // Original: 21x21 = 441 tuples; target 1300 needs roughly tripling.
    let cfg_weighted = AcquireConfig::default().with_norm(Norm::WeightedLp {
        p: 1.0,
        weights: vec![5.0, 1.0], // refining x is 5x as expensive
    });
    let mut exec = Executor::new(symmetric_catalog());
    let out = run_acquire(
        &mut exec,
        &symmetric_query(1300.0),
        &cfg_weighted,
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    assert!(
        best.pscores[1] > best.pscores[0],
        "y should absorb the refinement: {:?}",
        best.pscores
    );
}

/// With the plain L1 norm the same workload spreads refinement between the
/// symmetric dimensions (no dimension is special).
#[test]
fn unweighted_norm_is_symmetric_in_cost() {
    let mut exec = Executor::new(symmetric_catalog());
    let out = run_acquire(
        &mut exec,
        &symmetric_query(1300.0),
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    // The answer layer contains mirrored alternatives (a, b) and (b, a).
    let pairs: Vec<(u32, u32)> = out
        .queries
        .iter()
        .filter(|r| r.point.len() == 2)
        .map(|r| (r.point[0], r.point[1]))
        .collect();
    let mirrored = pairs
        .iter()
        .any(|&(a, b)| pairs.contains(&(b, a)) && a != b);
    assert!(
        mirrored || pairs.iter().any(|&(a, b)| a == b),
        "expected symmetric alternatives, got {pairs:?}"
    );
}

/// §7.1 "maximum refinement limits on predicates": a hard cap freezes the
/// dimension once reached, and the search routes around it.
#[test]
fn max_refinement_cap_is_respected() {
    let mut q = symmetric_query(1300.0);
    q.predicates[0] = q.predicates[0].clone().with_max_refinement(25.0);
    let mut exec = Executor::new(symmetric_catalog());
    let out = run_acquire(
        &mut exec,
        &q,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    for r in &out.queries {
        assert!(r.pscores[0] <= 25.0 + 1e-9, "cap violated: {:?}", r.pscores);
    }
}

/// The L∞ norm minimises the worst per-predicate refinement: on the
/// symmetric workload the best L∞ answer is (nearly) balanced.
#[test]
fn linf_prefers_balanced_refinement() {
    let cfg = AcquireConfig::default().with_norm(Norm::LInf);
    let mut exec = Executor::new(symmetric_catalog());
    let out = run_acquire(
        &mut exec,
        &symmetric_query(1300.0),
        &cfg,
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    let spread = (best.pscores[0] - best.pscores[1]).abs();
    assert!(
        spread <= cfg.gamma + 1e-9,
        "L∞ answers should be balanced, got {:?}",
        best.pscores
    );
}

/// The caller-supplied-evaluator entry point (`acquire`) matches
/// `run_acquire` given equivalent construction.
#[test]
fn direct_evaluator_entry_point_matches() {
    let query = symmetric_query(1300.0);
    let cfg = AcquireConfig::default();

    let mut exec1 = Executor::new(symmetric_catalog());
    let via_helper = run_acquire(&mut exec1, &query, &cfg, EvalLayerKind::CachedScore).unwrap();

    let mut exec2 = Executor::new(symmetric_catalog());
    let mut q2 = query.clone();
    exec2.populate_domains(&mut q2).unwrap();
    let space = RefinedSpace::new(&q2, &cfg).unwrap();
    let caps = space.caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec2, &q2, &caps).unwrap();
    let direct = acquire(&mut eval, &q2, &cfg).unwrap();

    assert_eq!(via_helper.satisfied, direct.satisfied);
    assert_eq!(via_helper.explored, direct.explored);
    assert_eq!(
        via_helper.best().map(|r| r.qscore),
        direct.best().map(|r| r.qscore)
    );
}
