//! Example 2 of the paper: HybridCars' supply-chain order (query Q2').
//!
//! HybridCars needs 100,000 units of a part: the constraint is on
//! `SUM(ps_availqty)` over a three-way join `supplier ⋈ part ⋈ partsupp`.
//! Key joins and exact part-spec predicates are NOREFINE; price and account
//! -balance predicates may be refined.
//!
//! ```text
//! cargo run --release --example supply_chain
//! ```

use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
use acquire::datagen::{tpch, GenConfig};
use acquire::engine::Executor;
use acquire::sql::compile;

fn main() {
    // supplier / part / partsupp at 50K partsupp rows (the paper's Q2 is on
    // standard TPC-H; crank `rows` up for the full-size run).
    let catalog = tpch::generate_q2(&GenConfig::uniform(50_000)).expect("tpch q2 tables");

    // Q2' from the paper. `p_size`/`p_type` stay fixed; the generated part
    // table has sizes 1..=50, so size 10 with a modest retail-price cap
    // gives a selective starting query.
    let sql = "SELECT * FROM supplier, part, partsupp \
               CONSTRAINT SUM(ps_availqty) >= 0.1M \
               WHERE (s_suppkey = ps_suppkey) NOREFINE AND \
               (p_partkey = ps_partkey) NOREFINE AND \
               (p_retailprice < 1000) AND (s_acctbal < 2000) AND \
               (p_size = 10) NOREFINE";
    let query = compile(sql, &catalog).expect("compile Q2'");
    println!("Input ACQ (the paper's Q2'):\n  {sql}\n");

    let mut exec = Executor::new(catalog);
    let outcome = run_acquire(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .expect("acquire");

    println!(
        "Original query supplies {} units (need 100000); satisfied = {}\n",
        outcome.original_aggregate, outcome.satisfied
    );
    let best = outcome
        .best()
        .or(outcome.closest.as_ref())
        .expect("a candidate always exists");
    println!(
        "Recommended order query (refinement {:.1}, supplies {} units):\n  {}",
        best.qscore, best.aggregate, best.sql
    );
    println!(
        "\nSearch cost: {} grid queries across {} layers; {}",
        outcome.explored, outcome.layers, outcome.stats
    );
}
