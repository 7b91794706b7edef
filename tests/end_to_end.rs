//! End-to-end: SQL text → parse → bind → ACQUIRE → independently verify the
//! recommended refined query by re-executing it against the engine.

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::datagen::{tpch, users, GenConfig};
use acquire::engine::{Catalog, Executor};
use acquire::sql::compile;

/// Re-executes a refinement (given as flexible-predicate PScores) and
/// returns the aggregate, using a fresh executor so no state is shared with
/// the search.
fn independent_aggregate(
    catalog: &Catalog,
    query: &acquire::query::AcqQuery,
    pscores: &[f64],
) -> f64 {
    let mut exec = Executor::new(catalog.clone());
    let mut q = query.clone();
    exec.populate_domains(&mut q).unwrap();
    let rq = exec.resolve(&q).unwrap();
    let rel = exec.base_relation(&rq, pscores).unwrap();
    exec.full_aggregate(&rq, &rel, pscores)
        .unwrap()
        .value()
        .unwrap_or(f64::NAN)
}

#[test]
fn count_acq_from_sql_meets_target_and_verifies() {
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(20_000)).unwrap())
        .unwrap();
    let query = compile(
        "SELECT * FROM users CONSTRAINT COUNT(*) = 5K \
         WHERE 25 <= age <= 35 AND income <= 80000",
        &catalog,
    )
    .unwrap();

    let mut exec = Executor::new(catalog.clone());
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied, "target should be reachable");
    let best = out.best().unwrap();
    assert!(best.error <= 0.05);

    // The reported aggregate must match an independent re-execution.
    let mut q = query.clone();
    Executor::new(catalog.clone())
        .populate_domains(&mut q)
        .unwrap();
    let verified = independent_aggregate(&catalog, &q, &best.pscores);
    assert_eq!(
        verified, best.aggregate,
        "search result must reproduce independently"
    );
    assert!((verified - 5_000.0).abs() / 5_000.0 <= 0.05);
}

#[test]
fn q2_sum_acq_from_sql_with_joins() {
    let catalog = tpch::generate_q2(&GenConfig::uniform(20_000)).unwrap();
    let query = compile(
        "SELECT * FROM supplier, part, partsupp \
         CONSTRAINT SUM(ps_availqty) >= 50K \
         WHERE (s_suppkey = ps_suppkey) NOREFINE AND (p_partkey = ps_partkey) NOREFINE \
         AND (p_retailprice < 1000) AND (s_acctbal < 2000)",
        &catalog,
    )
    .unwrap();
    assert_eq!(query.structural_joins.len(), 2);
    assert_eq!(query.dims(), 2);

    let mut exec = Executor::new(catalog.clone());
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    let best = out.best().or(out.closest.as_ref()).unwrap().clone();
    // Hinge semantics: satisfied means >= 95% of the target.
    if out.satisfied {
        assert!(
            best.aggregate >= 50_000.0 * 0.95,
            "aggregate {}",
            best.aggregate
        );
    }
    // Verify independently.
    let mut q = query.clone();
    Executor::new(catalog.clone())
        .populate_domains(&mut q)
        .unwrap();
    let verified = independent_aggregate(&catalog, &q, &best.pscores);
    assert!((verified - best.aggregate).abs() < 1e-6);
}

#[test]
fn all_evaluation_layers_agree_end_to_end() {
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(10_000)).unwrap())
        .unwrap();
    let query = compile(
        "SELECT * FROM users CONSTRAINT COUNT(*) = 3K WHERE income <= 50000 AND age <= 30",
        &catalog,
    )
    .unwrap();
    let mut results = Vec::new();
    for kind in [EvalLayerKind::Scan, EvalLayerKind::CachedScore] {
        let mut exec = Executor::new(catalog.clone());
        let out = run_acquire(&mut exec, &query, &AcquireConfig::default(), kind).unwrap();
        let best = out.best().or(out.closest.as_ref()).unwrap().clone();
        results.push((out.satisfied, best.qscore, best.aggregate, out.explored));
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn refined_sql_recompiles_to_a_superset_query() {
    // ACQUIRE's output SQL is itself a valid ACQ statement: recompiling and
    // running it unrefined must reproduce the recommended aggregate
    // (closure of the dialect under refinement).
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(10_000)).unwrap())
        .unwrap();
    let query = compile(
        "SELECT * FROM users CONSTRAINT COUNT(*) = 4K WHERE income <= 60000",
        &catalog,
    )
    .unwrap();
    let mut exec = Executor::new(catalog.clone());
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    let best = out.best().expect("reachable");

    let recompiled = compile(&best.sql, &catalog).expect("output SQL is valid ACQ input");
    let mut exec2 = Executor::new(catalog.clone());
    let mut q2 = recompiled.clone();
    exec2.populate_domains(&mut q2).unwrap();
    let rq = exec2.resolve(&q2).unwrap();
    let zeros = vec![0.0; q2.dims()];
    let rel = exec2.base_relation(&rq, &zeros).unwrap();
    let n = exec2
        .full_aggregate(&rq, &rel, &zeros)
        .unwrap()
        .value()
        .unwrap();
    // Display rounding of bounds may admit a tuple more or less.
    assert!(
        (n - best.aggregate).abs() <= best.aggregate * 0.01 + 2.0,
        "recompiled {} vs recommended {}",
        n,
        best.aggregate
    );
}
