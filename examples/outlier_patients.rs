//! The §1 outlier-analysis scenario: AVG-constrained ACQs.
//!
//! "Select patients who had extremely high average cost": the analyst
//! constrains the AVG aggregate of the result set. AVG lacks its own
//! optimal substructure but decomposes into SUM and COUNT (§2.6), which is
//! exactly how the engine's mergeable states evaluate it.
//!
//! ```text
//! cargo run --release --example outlier_patients
//! ```

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::datagen::{patients, GenConfig};
use acquire::engine::{Catalog, Executor};
use acquire::query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};

fn main() {
    let mut catalog = Catalog::new();
    catalog
        .register(patients::patients(&GenConfig::uniform(50_000)).expect("patients"))
        .expect("register");
    let table = catalog.table("patients").expect("table");

    // Start from a cohort with low blood pressure and plenty of exercise —
    // cheap patients — and ask ACQUIRE to relax the cohort until its average
    // annual cost reaches $40K (hunting the expensive outliers).
    let bp_domain = table.numeric_domain("systolic_bp").expect("numeric");
    let ex_domain = table.numeric_domain("exercise_hours").expect("numeric");
    let query = AcqQuery::builder()
        .table("patients")
        .predicate(
            Predicate::select(
                ColRef::new("patients", "systolic_bp"),
                Interval::new(bp_domain.lo(), 120.0),
                RefineSide::Upper,
            )
            .with_domain(bp_domain),
        )
        .predicate(
            Predicate::select(
                ColRef::new("patients", "exercise_hours"),
                Interval::new(8.0, ex_domain.hi()),
                RefineSide::Lower,
            )
            .with_domain(ex_domain),
        )
        .constraint(AggConstraint::new(
            AggregateSpec::avg(ColRef::new("patients", "annual_cost")),
            CmpOp::Ge,
            40_000.0,
        ))
        .error_fn(AggErrorFn::HingeRelative)
        .build()
        .expect("valid AVG ACQ");

    println!("Input ACQ:\n  {}\n", query.to_sql());

    let mut exec = Executor::new(catalog);
    let outcome = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("acquire");

    println!(
        "Original cohort AVG(annual_cost) = {:.0}; target >= 40000; satisfied = {}",
        outcome.original_aggregate, outcome.satisfied
    );
    let best = outcome
        .best()
        .or(outcome.closest.as_ref())
        .expect("candidate");
    println!(
        "\nRecommended cohort (AVG = {:.0}, refinement {:.1}):\n  {}",
        best.aggregate, best.qscore, best.sql
    );
    println!(
        "\nSearch: {} grid queries; {}",
        outcome.explored, outcome.stats
    );
}
