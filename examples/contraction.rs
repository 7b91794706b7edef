//! §7.2: contracting a query that returns too many results.
//!
//! The expansion driver handles undershooting queries; when the original
//! query *overshoots* (`COUNT <= N` budgets, dashboards with row limits),
//! ACQUIRE constructs `Q'_min` — each predicate at its minimum — and
//! searches the space between `Q'_min` and `Q`, minimising refinement with
//! respect to `Q`.
//!
//! ```text
//! cargo run --release --example contraction
//! ```

use acquire::core::{run_contraction, AcquireConfig, EvalLayerKind};
use acquire::datagen::{users, GenConfig};
use acquire::engine::{Catalog, Executor};
use acquire::query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

fn main() {
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(50_000)).expect("users"))
        .expect("register");
    let table = catalog.table("users").expect("table");

    // A broad mailing-list query — but the mail budget only covers 3,000
    // recipients, so the aggregate constraint is COUNT(*) <= 3000.
    let age_domain = table.numeric_domain("age").expect("numeric");
    let income_domain = table.numeric_domain("income").expect("numeric");
    let query = AcqQuery::builder()
        .table("users")
        .predicate(
            Predicate::select(
                ColRef::new("users", "age"),
                Interval::new(age_domain.lo(), 60.0),
                RefineSide::Upper,
            )
            .with_domain(age_domain),
        )
        .predicate(
            Predicate::select(
                ColRef::new("users", "income"),
                Interval::new(income_domain.lo(), 150_000.0),
                RefineSide::Upper,
            )
            .with_domain(income_domain),
        )
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Le,
            3_000.0,
        ))
        .build()
        .expect("valid ACQ");

    println!("Input ACQ (overshooting):\n  {}\n", query.to_sql());

    let mut exec = Executor::new(catalog);
    let outcome = run_contraction(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("contract");

    println!("satisfied = {}", outcome.satisfied);
    for (i, r) in outcome.queries.iter().take(5).enumerate() {
        println!(
            "  #{i}: audience {} (contraction wrt Q: {:.1})\n      {}",
            r.aggregate, r.qscore, r.sql
        );
    }
    let best = outcome
        .best()
        .expect("the budget is reachable by contraction");
    assert!(best.aggregate <= 3_000.0 * 1.05);
    println!(
        "\nBest contraction keeps {} of the original audience while meeting the budget.",
        best.aggregate
    );
}
