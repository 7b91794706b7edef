//! The level-one base relation shared through a [`PreparedCache`], end to
//! end: `join_sum`-shaped requests over `supplier ⋈ part ⋈ partsupp` whose
//! flexible bounds never repeat miss every prepared layer, and still stand
//! on one shared join. Nothing an outcome carries — answers, the fields an
//! `outcome_key` hashes, `stats` — may tell a shared join from a fresh one,
//! and a retained join must not keep a replaced table alive.

use std::sync::Arc;

use acq_datagen::{tpch, GenConfig};
use acq_engine::{Catalog, Executor};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};
use acquire_core::{
    run_acquire_progress, AcqOutcome, AcquireConfig, CancellationToken, EvalLayerKind, Host, Obs,
    PreparedCache, PreparedCounters,
};

fn catalog() -> Catalog {
    tpch::generate_q2(&GenConfig::uniform(5_000).with_seed(7)).unwrap()
}

/// `p_retailprice <= price AND s_acctbal <= balance` over the NOREFINE key
/// joins, constrained to `SUM(ps_availqty) >= 3M`: the benchmark's
/// `join_sum` request at a twentieth of its rows.
fn query(cat: &Catalog, price: f64, balance: f64) -> AcqQuery {
    let upper = |table: &str, col: &str, bound: f64| {
        let domain = cat.table(table).unwrap().numeric_domain(col).unwrap();
        Predicate::select(
            ColRef::new(table, col),
            Interval::new(domain.lo().min(bound), bound),
            RefineSide::Upper,
        )
        .with_domain(domain)
    };
    AcqQuery::builder()
        .table("supplier")
        .table("part")
        .table("partsupp")
        .join(
            ColRef::new("supplier", "s_suppkey"),
            ColRef::new("partsupp", "ps_suppkey"),
        )
        .join(
            ColRef::new("part", "p_partkey"),
            ColRef::new("partsupp", "ps_partkey"),
        )
        .predicate(upper("part", "p_retailprice", price))
        .predicate(upper("supplier", "s_acctbal", balance))
        .constraint(AggConstraint::new(
            AggregateSpec::sum(ColRef::new("partsupp", "ps_availqty")),
            CmpOp::Ge,
            3_000_000.0,
        ))
        .build()
        .unwrap()
}

/// One request the way a host answers it.
fn request(cat: &Catalog, query: &AcqQuery, cache: Option<&PreparedCache>) -> AcqOutcome {
    let mut exec = Executor::new(cat.clone());
    let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
    let host = Host {
        prepared: cache,
        ..Host::new(&cancel, &obs)
    };
    let cfg = AcquireConfig::default();
    run_acquire_progress(&mut exec, query, &cfg, EvalLayerKind::CachedScore, host).unwrap()
}

/// Everything an outcome carries, bit for bit: `Debug` prints every float
/// as its shortest round-trip form.
fn carried(outcome: &AcqOutcome) -> String {
    format!("{outcome:?}")
}

#[test]
fn requests_that_miss_every_layer_share_one_join_and_answer_alike() {
    let cat = catalog();
    let cache = PreparedCache::default();
    let bounds = [
        (1_190.0, 1_980.0),
        (1_200.0, 2_000.0),
        (1_210.0, 2_020.0),
        (1_205.0, 1_990.0),
    ];
    let mut seen = Vec::new();
    for (i, &(price, balance)) in bounds.iter().enumerate() {
        let q = query(&cat, price, balance);
        let fresh = request(&cat, &q, None);
        assert!(fresh.satisfied, "request {i}: {fresh:?}");
        assert!(
            fresh.stats.rows_joined > 0,
            "request {i}: {:?}",
            fresh.stats
        );
        let shared = request(&cat, &q, Some(&cache));
        assert_eq!(carried(&shared), carried(&fresh), "request {i}");
        let c = cache.counters();
        seen.push((c.base_misses, c.base_hits));
        // No layer repeats, so none is retained: the one entry is the join,
        // retained at its second sight.
        assert_eq!((c.misses, c.hits), (i as u64 + 1, 0), "{c:?}");
        assert_eq!(c.entries, u64::from(i > 0), "{c:?}");
    }
    assert_eq!(seen, [(1, 0), (2, 0), (2, 1), (2, 2)]);
    // The answers differ between the requests: the bounds reached them.
    let answers: Vec<String> = bounds
        .iter()
        .map(|&(p, b)| carried(&request(&cat, &query(&cat, p, b), None)))
        .collect();
    assert!(answers.windows(2).all(|w| w[0] != w[1]));
}

#[test]
fn a_replaced_table_misses_the_join_and_is_not_kept_alive_by_it() {
    let mut cat = catalog();
    let cache = PreparedCache::default();
    for (price, balance) in [(1_190.0, 1_980.0), (1_200.0, 2_000.0)] {
        request(&cat, &query(&cat, price, balance), Some(&cache));
    }
    let before = cache.counters();
    assert_eq!((before.base_misses, before.entries), (2, 1), "{before:?}");

    let old = cat.table("part").unwrap();
    let weak = Arc::downgrade(&old);
    cat.replace((*old).clone());
    drop(old);
    let q = query(&cat, 1_210.0, 2_020.0);
    let shared = request(&cat, &q, Some(&cache));
    assert_eq!(carried(&shared), carried(&request(&cat, &q, None)));
    let after = cache.counters();
    assert_eq!(
        (after.base_misses, after.base_hits),
        (3, 0),
        "another table, another join: {after:?}"
    );
    // Fingerprints hash values only, so the new join's key is admitted at
    // once; beside it the old join is still retained, nothing evicted.
    assert_eq!(
        (after.entries, after.evictions),
        (2, 0),
        "the old join is still retained: {after:?}"
    );
    assert!(
        weak.upgrade().is_none(),
        "a retained join keeps row ids, never the replaced table"
    );
}

/// A contraction only tightens its bounds, so its caps stop at them and cut
/// the tables: such a request joins only the rows its caps keep, as a
/// cache-less run does, and never looks level one up.
#[test]
fn requests_whose_caps_cut_the_tables_join_only_what_they_keep() {
    let cat = catalog();
    let cache = PreparedCache::default();
    let expansion = request(&cat, &query(&cat, 1_200.0, 2_000.0), None);
    for (i, (price, balance)) in [(1_190.0, 1_980.0), (1_200.0, 2_000.0), (1_210.0, 2_020.0)]
        .into_iter()
        .enumerate()
    {
        let mut q = query(&cat, price, balance);
        q.constraint.op = CmpOp::Le;
        q.constraint.target = 1_000_000.0;
        let fresh = request(&cat, &q, None);
        assert!(fresh.contracted && fresh.satisfied, "{fresh:?}");
        assert!(
            fresh.stats.rows_joined < expansion.stats.rows_joined,
            "{:?} against {:?}",
            fresh.stats,
            expansion.stats
        );
        assert_eq!(carried(&request(&cat, &q, Some(&cache))), carried(&fresh));
        let c = cache.counters();
        assert_eq!((c.base_misses, c.base_hits), (0, 0), "{c:?}");
        assert_eq!((c.misses, c.hits), (i as u64 + 1, 0), "{c:?}");
    }
}

/// A request over one table has no join to share: it never looks level one
/// up, and retains what it did before there was a level one.
#[test]
fn single_table_requests_never_touch_level_one() {
    let cat = tpch::generate_lineitem(&GenConfig::uniform(2_000).with_seed(7)).unwrap();
    let domain = cat
        .table("lineitem")
        .unwrap()
        .numeric_domain("l_quantity")
        .unwrap();
    let q = AcqQuery::builder()
        .table("lineitem")
        .predicate(
            Predicate::select(
                ColRef::new("lineitem", "l_quantity"),
                Interval::new(domain.lo(), 20.0),
                RefineSide::Upper,
            )
            .with_domain(domain),
        )
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 900.0))
        .build()
        .unwrap();
    let cache = PreparedCache::default();
    for _ in 0..3 {
        request(&cat, &q, Some(&cache));
    }
    let c = cache.counters();
    assert_eq!(
        c,
        PreparedCounters {
            hits: 1,
            misses: 2,
            entries: 1,
            bytes: c.bytes,
            ..PreparedCounters::default()
        }
    );
}
