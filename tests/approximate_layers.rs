//! The §3 "estimation and/or sampling" evaluation-layer strategies,
//! exercised end-to-end: search over a sample (or a histogram estimate),
//! then verify the recommended refinement against the full, exact data.

use acquire::core::{
    acquire, run_acquire, AcquireConfig, EvalLayerKind, EvaluationLayer, HistogramEstimator,
    RefinedSpace,
};
use acquire::datagen::{tpch, GenConfig};
use acquire::engine::{sample_catalog_tables, scale_target_for_sample, Catalog, Executor};
use acquire::query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

fn lineitem_workload(rows: usize, target: f64) -> (Catalog, AcqQuery) {
    let catalog = tpch::generate_lineitem(&GenConfig::uniform(rows)).unwrap();
    let table = catalog.table("lineitem").unwrap();
    let mut b = AcqQuery::builder().table("lineitem");
    for col in ["l_quantity", "l_extendedprice"] {
        let domain = table.numeric_domain(col).unwrap();
        let bound = domain.lo() + 0.4 * domain.width();
        b = b.predicate(
            Predicate::select(
                ColRef::new("lineitem", col),
                Interval::new(domain.lo(), bound),
                RefineSide::Upper,
            )
            .with_domain(domain),
        );
    }
    let query = b
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Eq,
            target,
        ))
        .build()
        .unwrap();
    (catalog, query)
}

fn exact_count(catalog: &Catalog, query: &AcqQuery, pscores: &[f64]) -> f64 {
    let mut exec = Executor::new(catalog.clone());
    let mut q = query.clone();
    exec.populate_domains(&mut q).unwrap();
    let rq = exec.resolve(&q).unwrap();
    let rel = exec.base_relation(&rq, pscores).unwrap();
    exec.full_aggregate(&rq, &rel, pscores)
        .unwrap()
        .value()
        .unwrap()
}

/// Fig. 10a's "1K dataset to mimic a sample based approach", done properly:
/// search over a 10% Bernoulli sample with a scaled target; the refinement
/// found there lands within a few sampling-error percent on the full data.
#[test]
fn sampled_search_approximates_full_search() {
    let (catalog, query) = lineitem_workload(40_000, 20_000.0);

    let (sampled, rate) = sample_catalog_tables(&catalog, &["lineitem"], 0.1, 77).unwrap();
    let sampled_query = scale_target_for_sample(&query, rate);
    assert!(sampled_query.constraint.target < query.constraint.target);

    let mut exec = Executor::new(sampled);
    let out = run_acquire(
        &mut exec,
        &sampled_query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(
        out.satisfied,
        "sampled search should satisfy the scaled target"
    );
    let best = out.best().unwrap();

    // Apply the sample-derived refinement to the FULL data.
    let full_count = exact_count(&catalog, &query, &best.pscores);
    let rel_err = (full_count - 20_000.0).abs() / 20_000.0;
    assert!(
        rel_err < 0.15,
        "sample-derived refinement reaches {full_count} on full data (err {rel_err:.3})"
    );
}

/// The histogram estimator drives a search without touching tuples per
/// query; its recommendation verifies on exact data within the compounded
/// estimation tolerance.
#[test]
fn estimator_search_verifies_on_exact_data() {
    let (catalog, query) = lineitem_workload(30_000, 15_000.0);
    let cfg = AcquireConfig::default();
    let mut q = query.clone();
    Executor::new(catalog.clone())
        .populate_domains(&mut q)
        .unwrap();
    let space = RefinedSpace::new(&q, &cfg).unwrap();
    let caps = space.caps();

    let mut exec = Executor::new(catalog.clone());
    let mut est = HistogramEstimator::new(&mut exec, &q, &caps, space.step()).unwrap();
    let n = est.universe_size();
    let out = acquire(&mut est, &q, &cfg).unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();

    let full_count = exact_count(&catalog, &q, &best.pscores);
    let rel_err = (full_count - 15_000.0).abs() / 15_000.0;
    assert!(
        rel_err < 0.25,
        "estimator-derived refinement reaches {full_count} (err {rel_err:.3})"
    );
    // And the estimator never re-scanned tuples per query: total scans are
    // exactly one build pass over the base relation.
    assert!(
        est.stats().tuples_scanned <= 2 * n as u64 + 30_000,
        "estimator scans: {}",
        est.stats().tuples_scanned
    );
}

/// Sampling keeps dimension tables intact so FK joins still work.
#[test]
fn sampling_preserves_join_dimensions() {
    let catalog = tpch::generate_q2(&GenConfig::uniform(10_000)).unwrap();
    let (sampled, _) = sample_catalog_tables(&catalog, &["partsupp"], 0.2, 5).unwrap();
    assert_eq!(
        sampled.table("part").unwrap().num_rows(),
        catalog.table("part").unwrap().num_rows()
    );
    assert!(sampled.table("partsupp").unwrap().num_rows() < 3_000);

    // A join query over the sampled catalog still executes.
    let q = AcqQuery::builder()
        .table("supplier")
        .table("part")
        .table("partsupp")
        .join(
            ColRef::new("supplier", "s_suppkey"),
            ColRef::new("partsupp", "ps_suppkey"),
        )
        .join(
            ColRef::new("part", "p_partkey"),
            ColRef::new("partsupp", "ps_partkey"),
        )
        .predicate(Predicate::select(
            ColRef::new("part", "p_retailprice"),
            Interval::new(900.0, 1400.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 100.0))
        .build()
        .unwrap();
    let mut exec = Executor::new(sampled);
    let out = run_acquire(
        &mut exec,
        &q,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.original_aggregate > 0.0);
}
