//! Property tests for the engine substrate: joins against nested-loop
//! references, base relations against a brute-force filter of the cross
//! product, aggregate-state algebra, and cell-query partitioning.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use acq_engine::{
    band_join, hash_equi_join, AggState, Catalog, CellRange, DataType, ExecStats, Executor, Field,
    Relation, Table, TableBuilder, Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, PredFunction, Predicate,
    RefineSide,
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
        let got: Vec<(u32, u32)> =
            (0..j.len()).map(|row| (j.base_row(row, 0), j.base_row(row, 1))).collect();
        // SUM bits depend on the order rows fold in, so the order is pinned
        // too: probe rows ascending, then build rows ascending. The smaller
        // side builds; on a tie the left does.
        let mut expected = Vec::new();
        if r.len() < l.len() {
            for (i, &a) in l.iter().enumerate() {
                for (k, &b) in r.iter().enumerate() {
                    if a == b {
                        expected.push((i as u32, k as u32));
                    }
                }
            }
        } else {
            for (k, &b) in r.iter().enumerate() {
                for (i, &a) in l.iter().enumerate() {
                    if a == b {
                        expected.push((i as u32, k as u32));
                    }
                }
            }
        }
        prop_assert_eq!(stats.rows_joined, expected.len() as u64);
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

/// A random base-relation case: 2–3 tables `t{i}(k, v, w)` of at most 40
/// rows, a flexible `v <= b` on every table and a NOREFINE `w <= x` on
/// some, NOREFINE `k` equi-joins along the chain (some left out, so some
/// tables meet only in a cross product, and a closing `t0.k = t2.k` now and
/// then), an optional refinable band join `t0.v ≈ t{n-1}.v`, and a random
/// cap per flexible predicate.
fn random_case(seed: u64) -> (Catalog, Vec<Vec<[f64; 3]>>, AcqQuery, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=3usize);
    let mut cat = Catalog::new();
    let mut data = Vec::with_capacity(n);
    for t in 0..n {
        let fields = vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("w", DataType::Float),
        ];
        let mut b = TableBuilder::new(format!("t{t}"), fields).unwrap();
        let rows: Vec<[f64; 3]> = (0..rng.gen_range(0..=40usize))
            .map(|_| {
                let k = rng.gen_range(0..4i64);
                let v = f64::from(rng.gen_range(0..40u32)) / 2.0;
                [k as f64, v, f64::from(rng.gen_range(0..10u32))]
            })
            .collect();
        for row in &rows {
            b.push_row(vec![
                Value::Int(row[0] as i64),
                Value::Float(row[1]),
                Value::Float(row[2]),
            ]);
        }
        cat.register(b.finish().unwrap()).unwrap();
        data.push(rows);
    }
    let col = |t: usize, c: &str| ColRef::new(format!("t{t}"), c);
    let mut q = AcqQuery::builder();
    for t in 0..n {
        q = q.table(format!("t{t}"));
    }
    for t in 1..n {
        if rng.gen_bool(0.8) {
            q = q.join(col(t - 1, "k"), col(t, "k"));
        }
    }
    if n == 3 && rng.gen_bool(0.3) {
        q = q.join(col(0, "k"), col(2, "k"));
    }
    for t in 0..n {
        let b = f64::from(rng.gen_range(0..15u32));
        q = q.predicate(Predicate::select(
            col(t, "v"),
            Interval::new(0.0, b),
            RefineSide::Upper,
        ));
        if rng.gen_bool(0.5) {
            let x = f64::from(rng.gen_range(0..10u32));
            let fixed = Predicate::select(col(t, "w"), Interval::new(0.0, x), RefineSide::Upper);
            q = q.predicate(fixed.no_refine());
        }
    }
    if rng.gen_bool(0.5) {
        q = q.predicate(Predicate::equi_join(col(0, "v"), col(n - 1, "v")));
    }
    let q = q
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 1.0))
        .build()
        .unwrap();
    let caps = (0..q.dims())
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.0..300.0)
            }
        })
        .collect();
    (cat, data, q, caps)
}

/// The base relation by definition: every combination of one row per table
/// that passes every predicate — NOREFINE ones outright, flexible ones
/// within their caps, band joins at their cap's width — as row-id tuples in
/// the query's table order.
fn brute_force(data: &[Vec<[f64; 3]>], q: &AcqQuery, caps: &[f64]) -> Vec<Vec<u32>> {
    let table = |c: &ColRef| -> usize { c.table.as_deref().unwrap()[1..].parse().unwrap() };
    let column =
        |c: &ColRef| -> usize { ["k", "v", "w"].iter().position(|&n| n == c.column).unwrap() };
    let mut caps = caps.iter();
    let cap_of: Vec<f64> = q
        .predicates
        .iter()
        .map(|p| {
            if p.refinable {
                *caps.next().unwrap()
            } else {
                0.0
            }
        })
        .collect();
    let mut out = Vec::new();
    let mut tuple = vec![0usize; data.len()];
    let total: usize = data.iter().map(Vec::len).product();
    for mut index in 0..total {
        for (t, rows) in data.iter().enumerate() {
            tuple[t] = index % rows.len();
            index /= rows.len();
        }
        let value = |c: &ColRef| data[table(c)][tuple[table(c)]][column(c)];
        let joined = q
            .structural_joins
            .iter()
            .all(|j| value(&j.left) == value(&j.right));
        let admitted = q
            .predicates
            .iter()
            .zip(&cap_of)
            .all(|(p, &cap)| match &p.func {
                PredFunction::Attr(c) => {
                    let s = p.score_value(value(c));
                    s.is_finite() && s <= cap
                }
                PredFunction::JoinDelta { left, right } => {
                    (value(&left.col) - value(&right.col)).abs() <= p.refined_interval(cap).hi()
                }
                PredFunction::Categorical { .. } => unreachable!("no categorical predicates"),
            });
        if joined && admitted {
            out.push(tuple.iter().map(|&r| r as u32).collect());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `base_relation` — level one then level two — selects exactly the
    /// cross product's combinations that pass every predicate within the
    /// caps, each once.
    #[test]
    fn base_relation_equals_a_brute_force_filter_of_the_cross_product(seed in any::<u64>()) {
        let (cat, data, q, caps) = random_case(seed);
        let mut exec = Executor::new(cat);
        let rq = exec.resolve(&q).unwrap();
        let rel = exec.base_relation(&rq, &caps).unwrap();
        let at: Vec<usize> = q
            .tables
            .iter()
            .map(|name| rel.tables().iter().position(|t| t.name() == name).unwrap())
            .collect();
        let mut got: Vec<Vec<u32>> = (0..rel.len())
            .map(|row| at.iter().map(|&p| rel.base_row(row, p)).collect())
            .collect();
        got.sort_unstable();
        let mut expected = brute_force(&data, &q, &caps);
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "{}", q.to_sql());

        // Where the caps keep every row — infinite caps always do here, as
        // every score is finite — the uncapped level one, the one a cache
        // shares, refines to the same rows in the same order.
        let rows = |r: &Relation| -> Vec<u32> {
            (0..r.len()).flat_map(|row| at.iter().map(move |&p| r.base_row(row, p))).collect()
        };
        let wide = vec![f64::INFINITY; caps.len()];
        let columns = exec.table_scores(&rq).unwrap();
        prop_assert!(columns.caps_keep_every_row(&rq, &wide));
        for caps in [caps, wide] {
            if columns.caps_keep_every_row(&rq, &caps) {
                let capped = exec.base_relation(&rq, &caps).unwrap();
                let structural = exec.structural(&rq, None).unwrap();
                let shared = exec.refine(&structural, &rq, &caps).unwrap();
                prop_assert_eq!(rows(&shared), rows(&capped));
            }
        }
    }
}
