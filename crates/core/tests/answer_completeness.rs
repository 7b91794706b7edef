//! Exhaustive oracle test: on a small grid, the driver's answer set must be
//! exactly the satisfying grid queries of the minimal refinement layer —
//! nothing missing, nothing extra, nothing from later layers.

use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};
use acquire_core::{run_acquire, AcquireConfig, EvalLayerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(seed: u64) -> (Catalog, AcqQuery) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for _ in 0..800 {
        b.push_row(vec![
            Value::Float(rng.gen_range(0.0..60.0)),
            Value::Float(rng.gen_range(0.0..60.0)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    let q = AcqQuery::builder()
        .table("t")
        .predicate(
            Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 20.0),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 60.0)),
        )
        .predicate(
            Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 20.0),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 60.0)),
        )
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 1.0))
        .build()
        .unwrap();
    (cat, q)
}

/// Brute-force oracle: evaluate every grid point with independent full
/// executions and derive the expected answer set.
fn oracle(catalog: &Catalog, query: &AcqQuery, cfg: &AcquireConfig) -> Vec<(Vec<u32>, f64)> {
    let d = query.dims();
    let step = cfg.gamma / d as f64;
    let mut exec = Executor::new(catalog.clone());
    let rq = exec.resolve(query).unwrap();
    let caps: Vec<f64> = query
        .flexible()
        .iter()
        .map(|&i| query.predicates[i].max_useful_score().unwrap())
        .collect();
    let rel = exec.base_relation(&rq, &caps).unwrap();
    let limits: Vec<u32> = caps.iter().map(|c| (c / step).ceil() as u32).collect();

    let mut satisfying: Vec<(u64, Vec<u32>, f64)> = Vec::new();
    for u0 in 0..=limits[0] {
        for u1 in 0..=limits[1] {
            let bounds = vec![f64::from(u0) * step, f64::from(u1) * step];
            let actual = exec
                .full_aggregate(&rq, &rel, &bounds)
                .unwrap()
                .value()
                .unwrap();
            let err = query.error_fn.error(query.constraint.target, actual);
            if err <= cfg.delta {
                satisfying.push((u64::from(u0) + u64::from(u1), vec![u0, u1], actual));
            }
        }
    }
    let Some(min_layer) = satisfying.iter().map(|(l, _, _)| *l).min() else {
        return Vec::new();
    };
    satisfying
        .into_iter()
        .filter(|(l, _, _)| *l == min_layer)
        .map(|(_, p, a)| (p, a))
        .collect()
}

#[test]
fn answer_set_equals_brute_force_oracle() {
    let cfg = AcquireConfig::default();
    for seed in [3u64, 17, 99] {
        let (catalog, mut query) = setup(seed);
        // Aim for ~3x the original count: reachable and multi-layer.
        let mut exec = Executor::new(catalog.clone());
        let rq = exec.resolve(&query).unwrap();
        let rel = exec.base_relation(&rq, &[0.0, 0.0]).unwrap();
        let actual = exec
            .full_aggregate(&rq, &rel, &[0.0, 0.0])
            .unwrap()
            .value()
            .unwrap();
        query.constraint.target = (actual * 3.0).max(8.0);

        let expected = oracle(&catalog, &query, &cfg);
        let mut exec = Executor::new(catalog.clone());
        let out = run_acquire(&mut exec, &query, &cfg, EvalLayerKind::CachedScore).unwrap();

        // Grid answers only (repartitioned fractional hits have empty
        // points and only appear when no grid answer exists in the layer).
        let mut got: Vec<(Vec<u32>, u64)> = out
            .queries
            .iter()
            .filter(|r| !r.point.is_empty())
            .map(|r| (r.point.clone(), r.aggregate as u64))
            .collect();
        got.sort();
        let mut want: Vec<(Vec<u32>, u64)> =
            expected.into_iter().map(|(p, a)| (p, a as u64)).collect();
        want.sort();
        assert_eq!(got, want, "seed {seed}: answer set must match the oracle");
        assert_eq!(out.satisfied, !got.is_empty());
    }
}
