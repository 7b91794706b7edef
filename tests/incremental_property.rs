//! Property tests of the paper's core invariants, across crates:
//!
//! * the incremental aggregate of any grid query equals naive full
//!   re-execution of the corresponding refined query (§5.1);
//! * Expand emits grid queries in non-decreasing QScore layers (Theorem 2)
//!   and containment order (Theorem 3);
//! * the recommended query of a full ACQUIRE run verifies independently.

use proptest::prelude::*;

use acquire::core::expand::{BfsExpander, Expander, LinfExpander};
use acquire::core::explore::Explorer;
use acquire::core::{
    run_acquire, AcquireConfig, CachedScoreEvaluator, EvalLayerKind, EvaluationLayer, RefinedSpace,
};
use acquire::engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acquire::query::{
    dominates, AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate,
    RefineSide,
};

/// Builds a random table `t` with `dims` float columns of values in
/// [0, 100] plus a payload column `v`.
fn build_catalog(dims: usize, cells: &[Vec<f64>], payload: &[f64]) -> Catalog {
    let mut fields: Vec<Field> = (0..dims)
        .map(|i| Field::new(format!("x{i}"), DataType::Float))
        .collect();
    fields.push(Field::new("v", DataType::Float));
    let mut b = TableBuilder::new("t", fields).unwrap();
    for (row, p) in cells.iter().zip(payload) {
        let mut vals: Vec<Value> = p_row(row);
        vals.push(Value::Float(*p));
        b.push_row(vals);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

fn p_row(row: &[f64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Float(v)).collect()
}

fn query_for(dims: usize, bounds: &[f64], agg: AggregateSpec, target: f64) -> AcqQuery {
    let mut b = AcqQuery::builder().table("t");
    for (i, &bound) in bounds.iter().enumerate().take(dims) {
        b = b.predicate(
            Predicate::select(
                ColRef::new("t", format!("x{i}")),
                Interval::new(0.0, bound.max(1.0)),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 100.0)),
        );
    }
    let op = if agg.func == acquire::query::AggFunc::Count {
        CmpOp::Eq
    } else {
        CmpOp::Ge
    };
    b.constraint(AggConstraint::new(agg, op, target))
        .build()
        .unwrap()
}

fn rows_strategy(dims: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let row = prop::collection::vec(0.0f64..100.0, dims);
    (
        prop::collection::vec(row, 30..200),
        prop::collection::vec(-50.0f64..50.0, 200),
    )
        .prop_map(|(rows, mut payload)| {
            payload.truncate(rows.len());
            while payload.len() < rows.len() {
                payload.push(1.0);
            }
            (rows, payload)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// §5.1: incremental aggregate computation == naive full execution, for
    /// every grid point in the first layers, for COUNT and SUM.
    #[test]
    fn incremental_equals_naive(
        (rows, payload) in rows_strategy(2),
        bound0 in 5.0f64..60.0,
        bound1 in 5.0f64..60.0,
        use_sum in any::<bool>(),
    ) {
        let dims = 2;
        let catalog = build_catalog(dims, &rows, &payload);
        let agg = if use_sum {
            AggregateSpec::sum(ColRef::new("t", "v"))
        } else {
            AggregateSpec::count()
        };
        let query = query_for(dims, &[bound0, bound1], agg, 10.0);
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&query, &cfg).unwrap();
        let caps = space.caps();
        let mut exec = Executor::new(catalog);
        let mut eval = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
        let mut expander = BfsExpander::new(&space);
        let mut explorer = Explorer::new(space.dims(), expander.emission());
        while let Some(p) = expander.next_query() {
            let layer = RefinedSpace::l1_layer(p);
            if layer > 8 { break; }
            explorer.begin_layer(layer);
            let inc = explorer.compute_aggregate(&mut eval, &space, p).unwrap().value();
            let naive = eval.full_aggregate(&space.bounds(p)).unwrap().value();
            match (inc, naive) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{p:?}: {a} vs {b}"),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Theorem 2 + Theorem 3 for both expanders on random limit shapes.
    #[test]
    fn expanders_are_ordered(
        limits in prop::collection::vec(0u32..6, 1..4),
        linf in any::<bool>(),
    ) {
        // Build a query whose per-dimension domains produce these limits.
        let dims = limits.len();
        let mut b = AcqQuery::builder().table("t");
        let cfg = AcquireConfig::default();
        let step = cfg.gamma / dims as f64;
        for (i, &l) in limits.iter().enumerate() {
            // interval [0, 10], max useful score = l * step  => domain hi.
            let hi = 10.0 + (f64::from(l) * step) / 100.0 * 10.0;
            b = b.predicate(
                Predicate::select(
                    ColRef::new("t", format!("x{i}")),
                    Interval::new(0.0, 10.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, hi)),
            );
        }
        let q = b
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap();
        let cfg = if linf { cfg.with_norm(Norm::LInf) } else { cfg };
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let mut points = Vec::new();
        if linf {
            let mut e = LinfExpander::new(&space);
            while let Some(p) = e.next_query() { points.push(p.to_vec()); }
        } else {
            let mut e = BfsExpander::new(&space);
            while let Some(p) = e.next_query() { points.push(p.to_vec()); }
        }
        // Exhaustive and unique.
        let expected: usize = space.limits().iter().map(|&l| l as usize + 1).product();
        prop_assert_eq!(points.len(), expected);
        let set: std::collections::HashSet<_> = points.iter().cloned().collect();
        prop_assert_eq!(set.len(), points.len());
        // Non-decreasing layers.
        let layer = |p: &[u32]| if linf {
            RefinedSpace::linf_layer(p)
        } else {
            RefinedSpace::l1_layer(p)
        };
        for w in points.windows(2) {
            prop_assert!(layer(&w[0]) <= layer(&w[1]));
        }
        // Containment order (Theorem 3): a point emitted later is never
        // contained in (component-wise <=) an earlier point.
        for (i, a) in points.iter().enumerate() {
            for b in points.iter().skip(i + 1) {
                let b_contained_in_a = b.iter().zip(a).all(|(x, y)| x <= y) && a != b;
                prop_assert!(!b_contained_in_a,
                    "{b:?} is contained in {a:?} but was emitted later");
            }
        }
        // Sanity for the f64 dominance helper too.
        prop_assert!(dominates(&[0.0, 1.0], &[0.0, 1.0]));
    }

    /// Full-run invariant: on random data the recommended refinement always
    /// verifies against an independent executor and respects delta.
    #[test]
    fn acquire_outcome_verifies(
        (rows, payload) in rows_strategy(2),
        ratio_pct in 15u32..90,
    ) {
        let catalog = build_catalog(2, &rows, &payload);
        let query = query_for(2, &[20.0, 20.0], AggregateSpec::count(), 1.0);
        // Compute A_actual, then target via the ratio.
        let mut exec = Executor::new(catalog.clone());
        let rq = exec.resolve(&query).unwrap();
        let rel = exec.base_relation(&rq, &[0.0, 0.0]).unwrap();
        let actual = exec.full_aggregate(&rq, &rel, &[0.0, 0.0]).unwrap().value().unwrap();
        prop_assume!(actual >= 1.0);
        let mut query = query;
        query.constraint.target = actual / (f64::from(ratio_pct) / 100.0);

        let mut exec = Executor::new(catalog.clone());
        let out = run_acquire(&mut exec, &query, &AcquireConfig::default(), EvalLayerKind::CachedScore)
            .unwrap();
        let best = out.best().or(out.closest.as_ref()).unwrap().clone();
        // Independent verification.
        let mut exec2 = Executor::new(catalog);
        let rq2 = exec2.resolve(&query).unwrap();
        let rel2 = exec2.base_relation(&rq2, &best.pscores).unwrap();
        let verified = exec2
            .full_aggregate(&rq2, &rel2, &best.pscores)
            .unwrap()
            .value()
            .unwrap();
        prop_assert!((verified - best.aggregate).abs() < 1e-9);
        if out.satisfied {
            prop_assert!(best.error <= 0.05 + 1e-12);
        }
    }
}
