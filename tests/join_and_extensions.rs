//! Integration tests for join refinement (§2.4), contraction (§7.2),
//! categorical ontologies (§7.3) and user-defined aggregates (§2.6),
//! exercised through the full stack.

use std::any::Any;
use std::sync::Arc;

use acquire::core::{run_acquire, run_contraction, AcquireConfig, EvalLayerKind};
use acquire::datagen::{synthetic, users, GenConfig};
use acquire::engine::{
    Catalog, DataType, EngineResult, Executor, Field, TableBuilder, UdaState, Value,
};
use acquire::query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, OntologyTree, Predicate,
    RefineSide,
};

/// §2.4: a refinable equi-join `left.j = right.j` is relaxed into the band
/// `|left.j - right.j| <= w` until the COUNT constraint is met, "the
/// algorithm applied unchanged for select as well as join queries".
#[test]
fn join_refinement_meets_count_target() {
    let catalog = synthetic::join_pair(&GenConfig::uniform(500), 500, 500).unwrap();
    // Exact matches on a continuous attribute are essentially absent, so the
    // join must widen.
    let query = AcqQuery::builder()
        .table("left")
        .table("right")
        .predicate(Predicate::equi_join(
            ColRef::new("left", "j"),
            ColRef::new("right", "j"),
        ))
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Ge,
            2_000.0,
        ))
        .build()
        .unwrap();

    let mut exec = Executor::new(catalog.clone());
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied, "band join should reach 2000 pairs");
    let best = out.best().unwrap();
    assert!(best.aggregate >= 2_000.0 * 0.95);
    assert!(
        best.pscores[0] > 0.0,
        "the join width must have been refined"
    );
    assert!(best.sql.contains("|left.j - right.j| <="), "{}", best.sql);

    // Independent verification with a nested-loop count.
    let w = best.pscores[0]; // denominator 100 => score == absolute width
    let lt = catalog.table("left").unwrap();
    let rt = catalog.table("right").unwrap();
    let mut expected = 0u64;
    for i in 0..lt.num_rows() {
        let a = lt.column_by_name("j").unwrap().get_f64(i).unwrap();
        for j in 0..rt.num_rows() {
            let b = rt.column_by_name("j").unwrap().get_f64(j).unwrap();
            if (a - b).abs() <= w {
                expected += 1;
            }
        }
    }
    assert_eq!(expected as f64, best.aggregate);
}

/// §7.2 end-to-end: an overshooting COUNT <= budget query is contracted,
/// and the contraction verifies independently.
#[test]
fn contraction_meets_budget_and_verifies() {
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(20_000)).unwrap())
        .unwrap();
    let table = catalog.table("users").unwrap();
    let income = table.numeric_domain("income").unwrap();
    let query = AcqQuery::builder()
        .table("users")
        .predicate(
            Predicate::select(
                ColRef::new("users", "income"),
                Interval::new(income.lo(), 200_000.0),
                RefineSide::Upper,
            )
            .with_domain(income),
        )
        .predicate(
            Predicate::select(
                ColRef::new("users", "age"),
                Interval::new(13.0, 70.0),
                RefineSide::Upper,
            )
            .with_domain(table.numeric_domain("age").unwrap()),
        )
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Le,
            2_000.0,
        ))
        .build()
        .unwrap();

    let mut exec = Executor::new(catalog.clone());
    let out = run_contraction(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    assert!(
        best.aggregate <= 2_000.0 * 1.05,
        "aggregate {}",
        best.aggregate
    );
    // Minimal change: the best contraction keeps a substantial audience.
    assert!(best.aggregate >= 1_000.0, "aggregate {}", best.aggregate);
    // And contraction pscores are measured w.r.t. Q (0 = unchanged).
    assert!(best.pscores.iter().all(|&c| c >= 0.0));
    assert!(best.pscores.iter().any(|&c| c > 0.0));
}

/// §7.3 end-to-end through SQL with a registered ontology.
#[test]
fn categorical_refinement_through_sql_binder() {
    let mut b = TableBuilder::new(
        "restaurants",
        vec![
            Field::new("cuisine", DataType::Str),
            Field::new("price", DataType::Float),
        ],
    )
    .unwrap();
    let cuisines = ["Gyro", "Falafel", "Shawarma", "Sushi", "PadThai"];
    for i in 0..300 {
        b.push_row(vec![
            Value::from(cuisines[i % cuisines.len()]),
            Value::Float((i % 30) as f64),
        ]);
    }
    let mut catalog = Catalog::new();
    catalog.register(b.finish().unwrap()).unwrap();

    let ast = acquire::sql::parse(
        "SELECT * FROM restaurants CONSTRAINT COUNT(*) >= 150 \
         WHERE cuisine IN ('Gyro') AND price <= 100",
    )
    .unwrap();
    let query = acquire::sql::Binder::new(&catalog)
        .with_ontology("cuisine", Arc::new(OntologyTree::sample_cuisine()))
        .bind(&ast)
        .unwrap();

    let mut exec = Executor::new(catalog);
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    assert!(out.satisfied);
    let best = out.best().unwrap();
    // Only 60 Gyro places exist; reaching 150 requires rolling up at least
    // to Mediterranean (which adds Falafel and Shawarma: 180 places).
    assert!(best.aggregate >= 150.0 * 0.95);
    assert!(best.sql.contains("rollup"), "{}", best.sql);
}

/// A user-defined aggregate (sum of squares) flows through registration,
/// OSP-based incremental computation, and the driver.
#[derive(Debug, Clone, Default)]
struct SumSq(f64);

impl UdaState for SumSq {
    fn update(&mut self, v: f64) {
        self.0 += v * v;
    }
    fn merge(&mut self, other: &dyn UdaState) -> EngineResult<()> {
        let o = other
            .as_any()
            .downcast_ref::<SumSq>()
            .expect("same UDA type");
        self.0 += o.0;
        Ok(())
    }
    fn value(&self) -> Option<f64> {
        Some(self.0)
    }
    fn clone_box(&self) -> Box<dyn UdaState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn user_defined_aggregate_end_to_end() {
    let catalog = synthetic::numeric_catalog(&GenConfig::uniform(2_000), 2).unwrap();
    let query = AcqQuery::builder()
        .table("t")
        .predicate(
            Predicate::select(
                ColRef::new("t", "x0"),
                Interval::new(0.0, 200.0),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 1000.0)),
        )
        .constraint(AggConstraint::new(
            AggregateSpec::uda("SUMSQ", ColRef::new("t", "x1")),
            CmpOp::Ge,
            2.0e8,
        ))
        .build()
        .unwrap();

    let mut exec = Executor::new(catalog);
    exec.uda_registry_mut()
        .register("SUMSQ", || Box::<SumSq>::default());
    let out = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    let best = out.best().or(out.closest.as_ref()).unwrap();
    assert!(best.aggregate > 0.0);
    if out.satisfied {
        assert!(best.aggregate >= 2.0e8 * 0.95);
    }
}

/// STDDEV is rejected everywhere with the §2.6 explanation.
#[test]
fn stddev_rejected_through_the_stack() {
    let catalog = synthetic::numeric_catalog(&GenConfig::uniform(100), 1).unwrap();
    let err = acquire::sql::compile(
        "SELECT * FROM t CONSTRAINT STDDEV(x0) = 5 WHERE x0 < 100",
        &catalog,
    )
    .unwrap_err();
    assert!(err.to_string().contains("optimal substructure"), "{err}");
}
