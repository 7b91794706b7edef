//! §7.3: refining categorical predicates through an ontology tree.
//!
//! The paper's Fig. 7 example: a query for restaurants serving Gyro can be
//! relaxed to "any Greek", then "any Mediterranean", by rolling the accepted
//! category up the taxonomy; each roll-up level is a fixed PScore step.
//!
//! ```text
//! cargo run --example categorical_ontology
//! ```

use std::sync::Arc;

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acquire::query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, OntologyTree, Predicate,
    RefineSide,
};

fn main() {
    // A restaurants table whose `cuisine` column carries taxonomy leaves.
    let ontology = Arc::new(OntologyTree::sample_cuisine());
    let cuisines = ["Gyro", "Falafel", "Shawarma", "Sushi", "PadThai"];
    let mut b = TableBuilder::new(
        "restaurants",
        vec![
            Field::new("cuisine", DataType::Str),
            Field::new("price", DataType::Float),
        ],
    )
    .expect("schema");
    for i in 0..500 {
        b.push_row(vec![
            Value::from(cuisines[i % cuisines.len()]),
            Value::Float(5.0 + (i % 40) as f64),
        ]);
    }
    let mut catalog = Catalog::new();
    catalog
        .register(b.finish().expect("table"))
        .expect("register");

    // "Places serving Gyro under $15" — but we want 250 options. Only 100
    // restaurants serve Gyro, so the cuisine must be rolled up (and/or the
    // price cap relaxed).
    let query = AcqQuery::builder()
        .table("restaurants")
        .predicate(Predicate::categorical(
            ColRef::new("restaurants", "cuisine"),
            Arc::clone(&ontology),
            vec!["Gyro".to_string()],
        ))
        .predicate(Predicate::select(
            ColRef::new("restaurants", "price"),
            Interval::new(5.0, 15.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 250.0))
        .build()
        .expect("valid ACQ");

    println!("Input ACQ:\n  {}\n", query.to_sql());
    println!(
        "Taxonomy distances from Gyro: Falafel = {} roll-ups, Sushi = {} roll-ups\n",
        ontology
            .rollup_distance(&["Gyro".to_string()], "Falafel")
            .unwrap(),
        ontology
            .rollup_distance(&["Gyro".to_string()], "Sushi")
            .unwrap(),
    );

    let mut exec = Executor::new(catalog);
    let outcome = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("acquire");

    println!(
        "original COUNT = {}, satisfied = {}",
        outcome.original_aggregate, outcome.satisfied
    );
    for (i, r) in outcome.queries.iter().take(4).enumerate() {
        println!(
            "  #{i}: {} restaurants (refinement {:.1})\n      {}",
            r.aggregate, r.qscore, r.sql
        );
    }
}
