//! Quickstart: the smallest possible ACQUIRE session.
//!
//! Builds a tiny table by hand, states a COUNT-constrained query through the
//! builder API, and lets ACQUIRE recommend refined queries.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acquire::query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

fn main() {
    // --- 1. A products table ------------------------------------------------
    let mut b = TableBuilder::new(
        "products",
        vec![
            Field::new("price", DataType::Float),
            Field::new("rating", DataType::Float),
        ],
    )
    .expect("schema");
    for i in 0..1_000 {
        b.push_row(vec![
            Value::Float(5.0 + f64::from(i) * 0.5), // prices 5 .. 504.5
            Value::Float(f64::from(i % 50) / 10.0), // ratings 0 .. 4.9
        ]);
    }
    let mut catalog = Catalog::new();
    catalog
        .register(b.finish().expect("table"))
        .expect("register");

    // --- 2. An Aggregation Constrained Query --------------------------------
    // "Products under $50 with rating at least 4.0" — but we need exactly 300
    // of them for the campaign, and the original query is far too strict.
    let query = AcqQuery::builder()
        .table("products")
        .predicate(Predicate::select(
            ColRef::new("products", "price"),
            Interval::new(5.0, 50.0),
            RefineSide::Upper, // the price cap may move up
        ))
        .predicate(Predicate::select(
            ColRef::new("products", "rating"),
            Interval::new(4.0, 4.9),
            RefineSide::Lower, // the rating floor may move down
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 300.0))
        .build()
        .expect("valid ACQ");

    println!("Input ACQ:\n  {}\n", query.to_sql());

    // --- 3. Refine ----------------------------------------------------------
    let mut exec = Executor::new(catalog);
    let outcome = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("acquire");

    println!(
        "original COUNT = {}, target = 300, satisfied = {}",
        outcome.original_aggregate, outcome.satisfied
    );
    println!(
        "explored {} grid queries in {} layers; evaluation-layer work: {}\n",
        outcome.explored, outcome.layers, outcome.stats
    );
    for (i, r) in outcome.queries.iter().take(5).enumerate() {
        println!(
            "#{i}: QScore {:.2}, COUNT {}, error {:.4}\n    {}",
            r.qscore, r.aggregate, r.error, r.sql
        );
    }
    assert!(outcome.satisfied, "this example's target is reachable");
}
