//! Example 1 of the paper: HighStyle Designers' ad campaign.
//!
//! Campaign manager Alice targets users by demographics but must reach a
//! budgeted audience size. Fixed criteria (gender, city list) are NOREFINE;
//! the rest may be relaxed. The query is stated in the paper's SQL dialect
//! (`CONSTRAINT` + `NOREFINE`) and compiled through `acq-sql`.
//!
//! ```text
//! cargo run --release --example ad_campaign
//! ```

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::datagen::{users, GenConfig};
use acquire::engine::{Catalog, Executor};
use acquire::sql::compile;

fn main() {
    // The audience table (100K users; Example 1 reasons about 1M+ — use
    // `GenConfig::uniform(1_000_000)` for the full-size run).
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&GenConfig::uniform(100_000)).expect("users"))
        .expect("register");

    // Q1' from the paper, adapted to this table's demographics: the budget
    // buys 10K users. Location and gender stay fixed; age, income and
    // activity may be refined.
    let sql = "SELECT * FROM users \
               CONSTRAINT COUNT(*) = 10K \
               WHERE city IN ('Boston', 'New York', 'Seattle', 'Miami', 'Austin') NOREFINE \
               AND gender = 'Women' NOREFINE \
               AND 22 <= age <= 50 \
               AND income <= 150000 \
               AND daily_minutes <= 400";
    let query = compile(sql, &catalog).expect("compile ACQ");
    println!("Input ACQ:\n  {sql}\n");

    let mut exec = Executor::new(catalog);
    let outcome = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("acquire");

    println!(
        "Facebook-style estimate for the original query: {} users (target 10000)\n",
        outcome.original_aggregate
    );
    if outcome.satisfied {
        println!(
            "ACQUIRE recommends {} alternative refinements:",
            outcome.queries.len()
        );
        for (i, r) in outcome.queries.iter().take(5).enumerate() {
            println!(
                "  #{i}: audience {} (err {:.3}), refinement {:.1}\n      {}",
                r.aggregate, r.error, r.qscore, r.sql
            );
        }
    } else if let Some(closest) = &outcome.closest {
        println!(
            "No refinement reaches 10K within tolerance; closest audience: {}",
            closest.aggregate
        );
    }
    println!(
        "\nSearch cost: {} grid queries, {} evaluation-layer work",
        outcome.explored, outcome.stats
    );
}
