//! Property tests for the engine substrate: joins against nested-loop
//! references, aggregate-state algebra, and cell-query partitioning.

use std::sync::Arc;

use proptest::prelude::*;

use acq_engine::{
    band_join, hash_equi_join, AggState, Catalog, CellRange, DataType, ExecStats, Executor, Field,
    Relation, Table, TableBuilder, Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

fn table_from(name: &str, vals: &[f64]) -> Arc<Table> {
    let mut b = TableBuilder::new(name, vec![Field::new("x", DataType::Float)]).unwrap();
    for &v in vals {
        b.push_row(vec![Value::Float(v)]);
    }
    Arc::new(b.finish().unwrap())
}

proptest! {
    // ---------------------------------------------------------------------
    // Joins vs nested-loop references
    // ---------------------------------------------------------------------

    #[test]
    fn band_join_equals_nested_loop(
        l in prop::collection::vec(-100.0f64..100.0, 0..60),
        r in prop::collection::vec(-100.0f64..100.0, 0..60),
        w in 0.0f64..50.0,
    ) {
        let lr = Relation::table(table_from("l", &l));
        let rr = Relation::table(table_from("r", &r));
        let mut stats = ExecStats::default();
        let j = band_join(&lr, (0, 0), (1.0, 0.0), &rr, (0, 0), (1.0, 0.0), w, &mut stats);
        let mut got: Vec<(u32, u32)> =
            (0..j.len()).map(|row| (j.base_row(row, 0), j.base_row(row, 1))).collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, &a) in l.iter().enumerate() {
            for (k, &b) in r.iter().enumerate() {
                if (a - b).abs() <= w {
                    expected.push((i as u32, k as u32));
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn hash_join_equals_nested_loop(
        l in prop::collection::vec(-5i64..5, 0..60),
        r in prop::collection::vec(-5i64..5, 0..60),
    ) {
        let lf: Vec<f64> = l.iter().map(|&v| v as f64).collect();
        let rf: Vec<f64> = r.iter().map(|&v| v as f64).collect();
        let lr = Relation::table(table_from("l", &lf));
        let rr = Relation::table(table_from("r", &rf));
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&lr, (0, 0), &rr, (0, 0), &mut stats);
        let mut got: Vec<(u32, u32)> =
            (0..j.len()).map(|row| (j.base_row(row, 0), j.base_row(row, 1))).collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, &a) in l.iter().enumerate() {
            for (k, &b) in r.iter().enumerate() {
                if a == b {
                    expected.push((i as u32, k as u32));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    // ---------------------------------------------------------------------
    // Aggregate-state algebra (the OSP "+")
    // ---------------------------------------------------------------------

    /// Splitting a value stream at any point and merging the two partial
    /// states equals folding the whole stream — for every aggregate kind.
    /// The empty state is the identity of that merge on either side.
    #[test]
    fn merge_equals_concatenated_fold(
        vals in prop::collection::vec(-100.0f64..100.0, 1..50),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(vals.len());
        let states: Vec<AggState> = vec![
            AggState::Count(0),
            AggState::Sum(0.0),
            AggState::Min(None),
            AggState::Max(None),
            AggState::Avg { sum: 0.0, count: 0 },
        ];
        for empty in states {
            let mut whole = empty.clone();
            for &v in &vals {
                whole.update(v);
            }
            let mut left = empty.clone();
            for &v in &vals[..cut] {
                left.update(v);
            }
            let mut right = empty.clone();
            for &v in &vals[cut..] {
                right.update(v);
            }
            left.merge(&right).unwrap();
            match (whole.value(), left.value()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
                (a, b) => prop_assert_eq!(a, b),
            }

            let bits = |s: &AggState| (s.value().map(f64::to_bits), s.count());
            let mut identity_right = whole.clone();
            identity_right.merge(&empty).unwrap();
            prop_assert_eq!(bits(&identity_right), bits(&whole), "x + 0: {:?}", empty);
            let mut identity_left = empty.clone();
            identity_left.merge(&whole).unwrap();
            prop_assert_eq!(bits(&identity_left), bits(&whole), "0 + x: {:?}", empty);
        }
    }

    // ---------------------------------------------------------------------
    // Cell queries partition the admissible tuples
    // ---------------------------------------------------------------------

    /// The cells of any grid step partition the tuple universe: summing the
    /// COUNT of every cell up to the domain cap equals the full aggregate.
    #[test]
    fn cells_partition_universe(
        vals in prop::collection::vec(0.0f64..100.0, 1..80),
        bound in 5.0f64..50.0,
        step in 2.0f64..40.0,
    ) {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)]).unwrap();
        for &v in &vals {
            b.push_row(vec![Value::Float(v)]);
        }
        cat.register(b.finish().unwrap()).unwrap();
        let q = AcqQuery::builder()
            .table("t")
            .predicate(
                Predicate::select(
                    ColRef::new("t", "x"),
                    Interval::new(0.0, bound),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 100.0)),
            )
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 1.0))
            .build()
            .unwrap();
        let mut exec = Executor::new(cat);
        let rq = exec.resolve(&q).unwrap();
        let rel = exec.base_relation(&rq, &[f64::INFINITY]).unwrap();
        // Enough buckets to cover scores up to the maximal possible score.
        let max_score = (100.0 - 0.0) / bound * 100.0;
        let buckets = (max_score / step).ceil() as u32 + 1;
        let mut total = 0.0;
        for k in 0..=buckets {
            let cell = if k == 0 {
                vec![CellRange::Zero]
            } else {
                vec![CellRange::Open {
                    lo: f64::from(k - 1) * step,
                    hi: f64::from(k) * step,
                }]
            };
            total += exec.cell_aggregate(&rq, &rel, &cell).unwrap().value().unwrap();
        }
        let full = exec
            .full_aggregate(&rq, &rel, &[f64::from(buckets) * step])
            .unwrap()
            .value()
            .unwrap();
        prop_assert_eq!(total, full);
        prop_assert_eq!(full, vals.len() as f64);
    }
}
