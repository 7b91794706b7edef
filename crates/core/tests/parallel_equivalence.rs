//! Parallel Explore determinism: for every thread count, `acquire` must
//! produce outcomes **bit-identical** to the serial driver — same answers,
//! same closest-so-far, same stats, same termination — including under
//! explored/memory budgets, deterministic fault injection, and mid-run
//! cancellation, in both directions of the search loop (expansion, and the
//! §7.2 contraction a `<=` query asks for) — and however the layer under the
//! search was come by: built fresh, or out of a [`PreparedCache`] in any of
//! its states ([`Prep`]).
//!
//! The comparison key serialises every observable field of [`AcqOutcome`]
//! with floats rendered as raw bit patterns, so even a sign-of-zero or
//! last-ulp divergence fails the tests. The only field deliberately
//! excluded is the wall-clock `elapsed` inside
//! [`Termination::Interrupted`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use acq_engine::{
    AggState, Catalog, CellRange, DataType, EngineResult, ExecStats, Executor, Field, SumSquares,
    TableBuilder, Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};
use acquire_core::govern::Termination;
use acquire_core::{
    acquire_progress, contract_with, contraction_query, run_acquire_progress, AcqOutcome,
    AcquireConfig, CachedScoreEvaluator, CancellationToken, CellCost, CoreError, EvalLayerKind,
    EvaluationLayer, ExecutionBudget, FaultInjectingLayer, FaultPolicy, FaultSchedule, Host, Obs,
    ParallelCells, Parallelism, PreparedCache, PreparedCounters, ProgressSink, RefinedQueryResult,
    RefinedSpace, ScanEvaluator, Session,
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// 3000 rows: x = 0.0, 0.1, …, 299.9 and y = i mod 150 — wide enough that
/// mid-search layers hold dozens of cells (the parallel path engages above
/// a 4-cell batch). Every call hands out the same table, the way a server's
/// requests all read its one catalog: a prepared layer is shared between
/// requests over the same *table*, not over equal ones.
fn catalog() -> Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(build_catalog).clone()
}

fn build_catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..3000 {
        b.push_row(vec![
            Value::Float(f64::from(i) * 0.1),
            Value::Float(f64::from(i % 150)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

/// An executor over [`catalog`] that knows the `SUMSQ` aggregate.
fn executor() -> Executor {
    let mut exec = Executor::new(catalog());
    exec.uda_registry_mut()
        .register("sumsq", || Box::<SumSquares>::default());
    exec
}

fn base_query(op: CmpOp, err: AggErrorFn, target: f64) -> AcqQuery {
    query_over(10.0, 30.0, op, err, target)
}

fn query_over(x_hi: f64, y_hi: f64, op: CmpOp, err: AggErrorFn, target: f64) -> AcqQuery {
    AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(0.0, x_hi),
            RefineSide::Upper,
        ))
        .predicate(Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(0.0, y_hi),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), op, target))
        .error_fn(err)
        .build()
        .unwrap()
}

/// `COUNT(*) >= target` with hinge error: overshoot satisfies, so the
/// repartitioning branch never runs.
fn ge_query(target: f64) -> AcqQuery {
    base_query(CmpOp::Ge, AggErrorFn::HingeRelative, target)
}

/// `COUNT(*) = target` with symmetric relative error: overshooting cells
/// exercise the Algorithm 4 repartitioning branch.
fn eq_query(target: f64) -> AcqQuery {
    base_query(CmpOp::Eq, AggErrorFn::Relative, target)
}

/// `COUNT(*) <= target` from an original admitting some 1 360 rows: the loop's
/// contracting direction, whose overshooting non-answers are repartitioned.
fn le_query(target: f64) -> AcqQuery {
    query_over(200.0, 100.0, CmpOp::Le, AggErrorFn::Relative, target)
}

/// `COUNT(*) = target` from that same overshooting original: an expansion
/// that cannot shrink the aggregate and ends unsatisfied, then the
/// contraction it falls through to — two searches, two prepared layers.
fn overshooting_eq_query(target: f64) -> AcqQuery {
    query_over(200.0, 100.0, CmpOp::Eq, AggErrorFn::Relative, target)
}

// ---------------------------------------------------------------------------
// Outcome fingerprinting (floats as raw bits)
// ---------------------------------------------------------------------------

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn result_key(r: &RefinedQueryResult) -> String {
    format!(
        "point={:?} pscores={:?} qscore={} aggregate={} error={} sql={}",
        r.point,
        r.pscores.iter().copied().map(bits).collect::<Vec<_>>(),
        bits(r.qscore),
        bits(r.aggregate),
        bits(r.error),
        r.sql,
    )
}

/// Every observable field of the outcome, minus wall-clock time.
fn fingerprint(out: &AcqOutcome) -> String {
    let termination = match &out.termination {
        Termination::Interrupted {
            reason, explored, ..
        } => format!("Interrupted(reason={reason:?}, explored={explored})"),
        t => format!("{t:?}"),
    };
    format!(
        "satisfied={} explored={} layers={} peak_store={} original={} stats={:?} \
         termination={termination} closest={:?} answers={:?}",
        out.satisfied,
        out.explored,
        out.layers,
        out.peak_store,
        bits(out.original_aggregate),
        out.stats,
        out.closest.as_ref().map(result_key),
        out.queries.iter().map(result_key).collect::<Vec<_>>(),
    )
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

use EvalLayerKind::{CachedScore as Cached, Scan};

fn contracts(query: &AcqQuery) -> bool {
    matches!(query.constraint.op, CmpOp::Le | CmpOp::Lt)
}

/// `query` with its domains filled in, and the query its layer is built
/// for: itself, or `Q'_min` when it contracts.
fn prepared(exec: &Executor, query: &AcqQuery) -> (AcqQuery, AcqQuery) {
    let mut query = query.clone();
    exec.populate_domains(&mut query).unwrap();
    let searched = if contracts(&query) {
        contraction_query(&query).unwrap()
    } else {
        query.clone()
    };
    (query, searched)
}

/// One search over a caller-built layer, in the direction the constraint
/// asks for.
fn search<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
    obs: &Obs,
    sink: Option<&ProgressSink>,
) -> Result<AcqOutcome, CoreError> {
    if contracts(query) {
        contract_with(eval, query, cfg, cancel, obs, sink)
    } else {
        acquire_progress(eval, query, cfg, cancel, obs, sink)
    }
}

fn run(kind: EvalLayerKind, query: &AcqQuery, cfg: &AcquireConfig) -> AcqOutcome {
    run_prepared(kind, query, cfg, Prep::Fresh)
}

// ---------------------------------------------------------------------------
// The prepared axis
// ---------------------------------------------------------------------------

/// Where the layers under a request come from: built fresh with no cache in
/// sight, or out of a [`PreparedCache`] that sees the request's predicate
/// set for the first time (builds, retains nothing), for the second time
/// (builds and retains), after that (a hit), or after other traffic pushed
/// it out of a cache with no room to spare (rebuilds). Nothing an outcome
/// carries — `stats` included — may tell these apart.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Prep {
    Fresh,
    FirstSight,
    SecondSight,
    Hit,
    Evicted,
}

const PREPS: [Prep; 5] = [
    Prep::Fresh,
    Prep::FirstSight,
    Prep::SecondSight,
    Prep::Hit,
    Prep::Evicted,
];

impl Prep {
    /// The cache a request for `query` goes through at this point of the
    /// axis. What brought the cache there are earlier prepares over the same
    /// predicates that differ in everything a prepared layer must not depend
    /// on: another target, and the defaults' `δ`, budget and thread
    /// count.
    fn cache(self, kind: EvalLayerKind, query: &AcqQuery) -> Option<PreparedCache> {
        let mut earlier = query.clone();
        earlier.constraint.target += 37.0;
        // Other predicates: `x`'s bound moves in.
        let mut other = earlier.clone();
        let x = other.predicates[0].interval;
        other.predicates[0].interval = Interval::new(x.lo(), x.hi() - 1.0);
        // Cut off before its first cell a request costs exactly its prepare
        // — and an `=` never falls through, so its `<=` twin prepares that
        // layer for it (a prepared layer does not know the operator).
        let cut = AcquireConfig {
            max_explored: 0,
            ..AcquireConfig::default()
        };
        let sight = |cache: &PreparedCache, query: &AcqQuery, times: usize| {
            let mut twin = query.clone();
            twin.constraint.op = CmpOp::Le;
            let falls_through = query.constraint.op == CmpOp::Eq;
            for _ in 0..times {
                request(kind, query, &cut, Some(cache)).unwrap();
                if falls_through {
                    request(kind, &twin, &cut, Some(cache)).unwrap();
                }
            }
        };
        let cache = PreparedCache::default();
        match self {
            Prep::Fresh => return None,
            Prep::FirstSight => {}
            Prep::SecondSight => sight(&cache, &earlier, 1),
            Prep::Hit => sight(&cache, &earlier, 2),
            Prep::Evicted => {
                // Room for what one such request prepares — or the other
                // predicates' request, if its layers are the larger — and not
                // a byte more.
                let prepares = |query: &AcqQuery| {
                    let cache = PreparedCache::default();
                    sight(&cache, query, 2);
                    cache.counters().bytes as usize
                };
                let cache = PreparedCache::new(prepares(&earlier).max(prepares(&other)));
                sight(&cache, &earlier, 2);
                sight(&cache, &other, 2);
                return Some(cache);
            }
        }
        Some(cache)
    }

    /// What the cache's counters must say the request did.
    fn check(self, before: PreparedCounters, after: PreparedCounters) {
        let ctx = format!("{self:?}: {before:?} -> {after:?}");
        match self {
            Prep::Fresh => unreachable!("no cache, no counters"),
            Prep::FirstSight => assert_eq!((after.hits, after.entries), (0, 0), "{ctx}"),
            Prep::SecondSight => {
                assert!(after.hits == 0 && after.entries > before.entries, "{ctx}");
            }
            Prep::Hit => {
                assert!(
                    after.hits > before.hits && after.misses == before.misses,
                    "{ctx}"
                );
            }
            Prep::Evicted => {
                assert!(before.evictions > 0, "{ctx}");
                assert!(
                    after.misses > before.misses && after.evictions > before.evictions,
                    "{ctx}"
                );
                assert_eq!(after.hits, before.hits, "{ctx}");
            }
        }
    }

    /// Runs `prepare` against this point's cache for `query` and checks the
    /// counters afterwards.
    fn with_cache<T>(
        self,
        kind: EvalLayerKind,
        query: &AcqQuery,
        prepare: impl FnOnce(Option<&PreparedCache>) -> T,
    ) -> T {
        let cache = self.cache(kind, query);
        let before = cache.as_ref().map(PreparedCache::counters);
        let out = prepare(cache.as_ref());
        if let (Some(cache), Some(before)) = (&cache, before) {
            self.check(before, cache.counters());
        }
        out
    }
}

/// One request the way a host answers it: [`run_acquire_progress`] builds
/// the layer(s) and picks the direction(s) of the search.
fn request(
    kind: EvalLayerKind,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cache: Option<&PreparedCache>,
) -> Result<AcqOutcome, CoreError> {
    let mut exec = executor();
    let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
    let host = Host {
        prepared: cache,
        ..Host::new(&cancel, &obs)
    };
    run_acquire_progress(&mut exec, query, cfg, kind, host)
}

fn run_prepared(
    kind: EvalLayerKind,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    prep: Prep,
) -> AcqOutcome {
    prep.with_cache(kind, query, |cache| request(kind, query, cfg, cache))
        .unwrap()
}

/// Thread counts under test: serial, every pool size 2–8, and `Auto`.
fn parallel_settings() -> Vec<Parallelism> {
    let mut settings: Vec<Parallelism> = (2..=8).map(Parallelism::Fixed).collect();
    settings.push(Parallelism::Auto);
    settings
}

// ---------------------------------------------------------------------------
// Plain equivalence
// ---------------------------------------------------------------------------

/// One row per code path of the loop: GE answers without repartitioning, EQ
/// repartitions overshooting cells, LE contracts.
fn query_rows() -> [(AcqQuery, f64); 3] {
    [
        (ge_query(800.0), 0.05),
        (eq_query(801.0), 0.001),
        (le_query(400.0), 0.05),
    ]
}

/// One row per way a request comes by its layers, all from the original
/// that admits some 1 360 rows: `>=` prepares `Q`'s layer, `<=` `Q'_min`'s,
/// and an `=` below what `Q` returns both, falling through from one search
/// to the other. The rows the [`Prep`] axis runs on.
fn prepared_rows() -> [AcqQuery; 3] {
    [
        query_over(200.0, 100.0, CmpOp::Ge, AggErrorFn::HingeRelative, 1_800.0),
        overshooting_eq_query(400.0),
        le_query(400.0),
    ]
}

#[test]
fn every_thread_count_matches_serial_bit_for_bit() {
    for (query, delta) in query_rows() {
        let serial_cfg = AcquireConfig::default().with_delta(delta);
        let baseline = fingerprint(&run(Cached, &query, &serial_cfg));
        for par in parallel_settings() {
            let cfg = serial_cfg.clone().with_parallelism(par);
            let got = fingerprint(&run(Cached, &query, &cfg));
            assert_eq!(got, baseline, "{par:?} diverged from serial");
        }
    }
    // And wherever the layers came from, on every thread count.
    for query in prepared_rows() {
        let baseline = fingerprint(&run(Cached, &query, &AcquireConfig::default()));
        for par in all_thread_settings() {
            let cfg = AcquireConfig::default().with_parallelism(par);
            for prep in PREPS {
                let got = fingerprint(&run_prepared(Cached, &query, &cfg, prep));
                assert_eq!(got, baseline, "{par:?}, {prep:?}");
            }
        }
    }
}

#[test]
fn budget_interrupts_are_identical_across_thread_counts() {
    // The deep `>=` search (some 14 000 cells) on fresh layers; the three
    // ways of coming by a layer at every point of the prepared axis.
    let deep = [(ge_query(800.0), &PREPS[..1])];
    let rows = deep
        .into_iter()
        .chain(prepared_rows().map(|q| (q, &PREPS[..])));
    for (query, preps) in rows {
        let full = run(Cached, &query, &AcquireConfig::default());
        assert!(full.explored > 8, "need a non-trivial search");

        // Explored budgets, including ones that land mid-layer.
        for k in [1, 2, 5, full.explored / 2] {
            let serial_cfg = AcquireConfig::default()
                .with_budget(ExecutionBudget::unlimited().with_max_explored(k));
            let baseline = fingerprint(&run(Cached, &query, &serial_cfg));
            assert!(baseline.contains("ExploredBudget"), "budget {k} must trip");
            for par in parallel_settings() {
                let cfg = serial_cfg.clone().with_parallelism(par);
                for &prep in preps {
                    let got = fingerprint(&run_prepared(Cached, &query, &cfg, prep));
                    assert_eq!(got, baseline, "budget {k}, {par:?}, {prep:?}");
                }
            }
        }

        // A zero deadline interrupts before any work on every path (non-zero
        // deadlines are wall-clock dependent, hence not deterministic).
        let serial_cfg = AcquireConfig::default()
            .with_budget(ExecutionBudget::unlimited().with_deadline(Duration::ZERO));
        let baseline = fingerprint(&run(Cached, &query, &serial_cfg));
        for par in parallel_settings() {
            let cfg = serial_cfg.clone().with_parallelism(par);
            for &prep in preps {
                let got = fingerprint(&run_prepared(Cached, &query, &cfg, prep));
                assert_eq!(got, baseline, "{par:?}, {prep:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The layer-construction seam
// ---------------------------------------------------------------------------

/// `Session::new` and a one-shot request build their layer in one place: a
/// session's first run is a one-shot run bit for bit (stats included) —
/// wherever the one-shot's layer came from — and a later run adds exactly
/// its own search on top: the prepared layer is never rebuilt.
#[test]
fn session_and_one_shot_runs_build_the_same_layer_once() {
    let (t1, t2) = (400.0, 800.0);
    for kind in [Scan, Cached] {
        // The scan layer models a backend that keeps nothing: never cached.
        let preps = match kind {
            Scan => &PREPS[..1],
            Cached => &PREPS[..],
        };
        for par in [Parallelism::Serial, Parallelism::Fixed(2)] {
            let cfg = AcquireConfig::default().with_parallelism(par);
            // A search cut off before its first cell costs exactly the prepare.
            let cut = AcquireConfig {
                max_explored: 0,
                ..cfg.clone()
            };
            for &prep in preps {
                let ctx = format!("{kind:?}, {par:?}, {prep:?}");
                let one_shot = |target: f64, cfg: &AcquireConfig| {
                    run_prepared(kind, &ge_query(target), cfg, prep)
                };
                let prepare = one_shot(t1, &cut).stats;
                assert_eq!(prepare.cell_queries, 0, "{ctx}");
                assert!(prepare.tuples_scanned > 0, "{ctx}: prepare scans the table");
                let (first, second) = (one_shot(t1, &cfg), one_shot(t2, &cfg));
                assert!(first.explored > 8 && second.explored > first.explored);

                let mut exec = Executor::new(catalog());
                let mut session = Session::new(&mut exec, &ge_query(t1), &cfg, kind).unwrap();
                assert_eq!(
                    fingerprint(&session.run(t1).unwrap()),
                    fingerprint(&first),
                    "{ctx}"
                );
                let again = session.run(t2).unwrap();
                assert_eq!(
                    outcome_fingerprint(&again),
                    outcome_fingerprint(&second),
                    "{ctx}"
                );
                // Session counters accumulate: one prepare plus both searches.
                let mut with_second_prepare = again.stats;
                with_second_prepare += prepare;
                let mut both_one_shots = first.stats;
                both_one_shots += second.stats;
                assert_eq!(with_second_prepare, both_one_shots, "{ctx}: re-scanned");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layers against each other
// ---------------------------------------------------------------------------

/// [`fingerprint`] minus `stats`: two layers count different work for one
/// search, while every answer-bearing field must stay bit-identical
/// between them.
fn outcome_fingerprint(out: &AcqOutcome) -> String {
    let termination = match &out.termination {
        Termination::Interrupted {
            reason, explored, ..
        } => format!("Interrupted(reason={reason:?}, explored={explored})"),
        t => format!("{t:?}"),
    };
    format!(
        "satisfied={} explored={} layers={} peak_store={} original={} \
         termination={termination} closest={:?} answers={:?}",
        out.satisfied,
        out.explored,
        out.layers,
        out.peak_store,
        bits(out.original_aggregate),
        out.closest.as_ref().map(result_key),
        out.queries.iter().map(result_key).collect::<Vec<_>>(),
    )
}

/// One search over the layer [`CachedScoreEvaluator::new`] builds, with
/// `sink` attached if given: a layer built without a grid, which folds its
/// cell table when the search names the grid.
fn run_stepless(query: &AcqQuery, cfg: &AcquireConfig, sink: Option<&ProgressSink>) -> AcqOutcome {
    let mut exec = executor();
    let (query, searched) = prepared(&exec, query);
    let caps = RefinedSpace::new(&searched, cfg).unwrap().caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    let cancel = CancellationToken::new();
    search(&mut eval, &query, cfg, &cancel, &Obs::disabled(), sink).unwrap()
}

/// `query` constrained on `SUMSQ(x)` instead: a user-defined aggregate, and
/// a float fold, whose bits depend on the order it meets the rows in.
fn sumsq(mut query: AcqQuery, target: f64) -> AcqQuery {
    query.constraint.spec = AggregateSpec::uda("SUMSQ", ColRef::new("t", "x"));
    query.constraint.target = target;
    query
}

/// A layer a caller built with [`CachedScoreEvaluator::new`] learns its
/// grid from the search and folds that grid's cells then; one
/// `run_acquire_progress` built through the seam had them folded in its
/// prepared product. Either way every cell is a lookup: the outcomes,
/// `stats` included, are the same on every thread count.
#[test]
fn caller_built_layers_answer_like_seam_built_ones() {
    for (query, delta) in query_rows() {
        let serial_cfg = AcquireConfig::default().with_delta(delta);
        let baseline = fingerprint(&run(Cached, &query, &serial_cfg));
        for par in all_thread_settings() {
            let cfg = serial_cfg.clone().with_parallelism(par);
            let got = fingerprint(&run_stepless(&query, &cfg, None));
            assert_eq!(got, baseline, "{par:?}");
        }
    }
}

/// A user-defined aggregate gets the cell table too: the prepared product
/// shared between executors folds none for it, and the layer folds one from
/// its own executor's registry when the search names the grid. Every cell
/// is then one probe that reads no tuple, so the only tuples an outcome
/// counts are the build's — on every thread count — and its answers are
/// the scan layer's.
#[test]
fn a_user_defined_aggregate_answers_every_cell_by_one_probe() {
    let query = sumsq(ge_query(0.0), 2_000.0);
    let cut = AcquireConfig {
        max_explored: 0,
        ..AcquireConfig::default()
    };
    let receipt = run(Cached, &query, &cut).stats;
    assert_eq!(receipt.cell_queries, 0);
    let scan = run(Scan, &query, &AcquireConfig::default());
    for par in all_thread_settings() {
        let out = run(
            Cached,
            &query,
            &AcquireConfig::default().with_parallelism(par),
        );
        let s = out.stats;
        assert!(out.explored > 8 && s.cell_queries > 8, "{par:?}: {s}");
        assert_eq!(s.index_probes, s.cell_queries, "{par:?}: {s}");
        assert_eq!(s.tuples_scanned, receipt.tuples_scanned, "{par:?}: {s}");
        assert_eq!(
            outcome_fingerprint(&out),
            outcome_fingerprint(&scan),
            "{par:?}"
        );
    }
}

/// 2 000 rows whose scores fall anywhere inside their grid cells, in no
/// order, over fractional values `v`: summed in any order but relation
/// order, a cell's rows come to other bits.
fn scattered_executor() -> Executor {
    let mut b = TableBuilder::new(
        "s",
        ["a", "b", "v"]
            .map(|name| Field::new(name, DataType::Float))
            .to_vec(),
    )
    .unwrap();
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut uniform = || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..2000 {
        let row = [
            10.0 + 5.0 * uniform(),
            10.0 + 5.0 * uniform(),
            1e3 * uniform(),
        ];
        b.push_row(row.map(Value::Float).to_vec());
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    let mut exec = Executor::new(cat);
    exec.uda_registry_mut()
        .register("sumsq", || Box::<SumSquares>::default());
    exec
}

/// Both layers fold a cell's rows in relation order, so float folds — a
/// `SUM`, an `AVG` and a user-defined `SUMSQ` over fractional values, each
/// with an `=` that repartitions overshooting cells — give
/// the same answers and closest query, bit for bit, whichever layer runs
/// the search.
#[test]
fn the_cached_layer_answers_float_folds_with_the_scan_layers_bits() {
    let v = || ColRef::new("s", "v");
    let rows = [
        (AggregateSpec::sum(v()), 300_000.0),
        (AggregateSpec::avg(v()), 520.0),
        (AggregateSpec::uda("SUMSQ", v()), 2e8),
    ];
    let upper = |name: &str| {
        let p = Predicate::select(
            ColRef::new("s", name),
            Interval::new(0.0, 10.0),
            RefineSide::Upper,
        );
        p.with_domain(Interval::new(0.0, 15.0))
    };
    for (spec, target) in rows {
        let query = AcqQuery::builder()
            .table("s")
            .predicate(upper("a"))
            .predicate(upper("b"))
            .constraint(AggConstraint::new(spec.clone(), CmpOp::Eq, target))
            .build()
            .unwrap();
        let run = |kind| {
            let mut exec = scattered_executor();
            let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
            let cfg = AcquireConfig::default().with_delta(0.001);
            run_acquire_progress(&mut exec, &query, &cfg, kind, Host::new(&cancel, &obs)).unwrap()
        };
        let (scan, cached) = (run(Scan), run(Cached));
        assert!(cached.explored > 8, "{spec:?}: {}", cached.explored);
        assert_eq!(
            outcome_fingerprint(&cached),
            outcome_fingerprint(&scan),
            "{spec:?}"
        );
    }
}

/// The scan layer's outcome, `stats` included, is the serial one on every
/// thread count: a user-defined float fold, once answering without
/// repartitioning and once repartitioning overshooting cells.
#[test]
fn scan_layer_is_bit_identical_across_thread_counts() {
    let rows = [
        (sumsq(ge_query(0.0), 2_000.0), 0.05),
        (sumsq(eq_query(0.0), 2_001.0), 0.001),
    ];
    for (query, delta) in rows {
        let serial_cfg = AcquireConfig::default().with_delta(delta);
        let serial = run(Scan, &query, &serial_cfg);
        assert!(
            serial.explored > 8,
            "need a non-trivial search: {}",
            serial.explored
        );
        let baseline = fingerprint(&serial);
        for par in parallel_settings() {
            let cfg = serial_cfg.clone().with_parallelism(par);
            assert_eq!(fingerprint(&run(Scan, &query, &cfg)), baseline, "{par:?}");
        }
    }
}

/// Interrupts and faults strike the scan layer's search at the same logical
/// cell on every thread count, so the outcome (or error), `stats`
/// included, is the serial one.
#[test]
fn scan_layer_matches_serial_under_budgets_and_faults() {
    let query = sumsq(ge_query(0.0), 2_000.0);
    let pools = [Parallelism::Fixed(4), Parallelism::Fixed(7)];

    // Explored budgets that land mid-layer.
    for k in [1, 5, 40] {
        let serial_cfg =
            AcquireConfig::default().with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        let baseline = fingerprint(&run(Scan, &query, &serial_cfg));
        for par in pools {
            let cfg = serial_cfg.clone().with_parallelism(par);
            assert_eq!(
                fingerprint(&run(Scan, &query, &cfg)),
                baseline,
                "budget {k}, {par:?}"
            );
        }
    }

    // Deterministic fault schedules: coordinate-keyed faults strike the
    // same cell under both policies.
    let key = |r: &Result<AcqOutcome, CoreError>| match r {
        Ok(out) => format!("Ok({})", fingerprint(out)),
        Err(e) => format!("Err({e:?})"),
    };
    for seed in [2, 5, 9] {
        let schedule = FaultSchedule::mixed(seed, 0.15, 0.1);
        for policy in [FaultPolicy::BestEffort, FaultPolicy::Propagate] {
            let serial_cfg = AcquireConfig::default();
            let baseline = key(&run_faulted(Scan, &query, &schedule, policy, &serial_cfg));
            for par in pools {
                let cfg = serial_cfg.clone().with_parallelism(par);
                assert_eq!(
                    key(&run_faulted(Scan, &query, &schedule, policy, &cfg)),
                    baseline,
                    "seed {seed}, {policy:?}, {par:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One search over a caller-built layer of `kind` behind the fault
/// injector.
fn run_faulted(
    kind: EvalLayerKind,
    query: &AcqQuery,
    schedule: &FaultSchedule,
    policy: FaultPolicy,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, CoreError> {
    let mut exec = executor();
    let (query, searched) = prepared(&exec, query);
    let cfg = cfg.clone().with_fault_policy(policy);
    let caps = RefinedSpace::new(&searched, &cfg).unwrap().caps();
    fn faulted<E: EvaluationLayer + Sync>(
        inner: E,
        schedule: &FaultSchedule,
        query: &AcqQuery,
        cfg: &AcquireConfig,
    ) -> Result<AcqOutcome, CoreError> {
        let mut eval = FaultInjectingLayer::new(inner, schedule.clone());
        let cancel = CancellationToken::new();
        search(&mut eval, query, cfg, &cancel, &Obs::disabled(), None)
    }
    match kind {
        Scan => {
            let inner = ScanEvaluator::new(&mut exec, &searched, &caps).unwrap();
            faulted(inner, schedule, &query, &cfg)
        }
        Cached => {
            let inner = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
            faulted(inner, schedule, &query, &cfg)
        }
    }
}

#[test]
fn injected_faults_strike_the_same_cell_on_every_thread_count() {
    for query in [ge_query(800.0), le_query(400.0)] {
        let mut faulted = 0;
        for seed in 0..12 {
            let schedule = FaultSchedule::mixed(seed, 0.15, 0.1);
            let run =
                |policy, cfg: &AcquireConfig| run_faulted(Cached, &query, &schedule, policy, cfg);

            // Best-effort: the fault is absorbed into the outcome, which must
            // be identical everywhere (coordinate-keyed schedules fire on the
            // same cell regardless of execution order).
            let serial = run(FaultPolicy::BestEffort, &AcquireConfig::default())
                .expect("best-effort absorbs faults");
            let baseline = fingerprint(&serial);
            if serial.termination.interrupt_reason().is_some() {
                faulted += 1;
            }
            for par in [Parallelism::Fixed(4), Parallelism::Fixed(7)] {
                let cfg = AcquireConfig::default().with_parallelism(par);
                let got = fingerprint(&run(FaultPolicy::BestEffort, &cfg).unwrap());
                assert_eq!(got, baseline, "seed {seed}, {par:?}");
            }

            // Propagate: success and failure must agree, and failures must be
            // the same typed error.
            let key = |r: Result<AcqOutcome, CoreError>| match r {
                Ok(out) => format!("Ok({})", fingerprint(&out)),
                Err(e) => format!("Err({e:?})"),
            };
            let baseline = key(run(FaultPolicy::Propagate, &AcquireConfig::default()));
            for par in [Parallelism::Fixed(4), Parallelism::Fixed(7)] {
                let cfg = AcquireConfig::default().with_parallelism(par);
                let got = key(run(FaultPolicy::Propagate, &cfg));
                assert_eq!(got, baseline, "seed {seed}, {par:?}");
            }
        }
        assert!(faulted > 0, "the schedules must actually fault");
    }
}

// ---------------------------------------------------------------------------
// Mid-run cancellation
// ---------------------------------------------------------------------------

/// Cancels a token after the `k`-th *committed* cell: in serial mode cells
/// commit inside [`EvaluationLayer::cell_aggregate`]; in parallel mode
/// prefetched cells commit through
/// [`EvaluationLayer::commit_cell_cost`]. Both sites observe the driver's
/// emission order, so the cancellation lands at the same logical instant
/// for every thread count. Speculative executions
/// ([`ParallelCells::cell_aggregate_shared`]) deliberately do not count.
struct CancelAfterCommits<E> {
    inner: E,
    commits: AtomicU64,
    after: u64,
    token: CancellationToken,
}

impl<E> CancelAfterCommits<E> {
    fn new(inner: E, after: u64, token: CancellationToken) -> Self {
        Self {
            inner,
            commits: AtomicU64::new(0),
            after,
            token,
        }
    }

    fn bump(&self) {
        if self.commits.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
            self.token.cancel();
        }
    }
}

impl<E: EvaluationLayer + Sync> EvaluationLayer for CancelAfterCommits<E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let out = self.inner.cell_aggregate(cell);
        self.bump();
        out
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.inner.full_aggregate(bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.inner.empty_state()
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        self.inner
            .parallel_cells()
            .map(|_| self as &dyn ParallelCells)
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        self.inner.commit_cell_cost(cost);
        self.bump();
    }
}

impl<E: EvaluationLayer + Sync> ParallelCells for CancelAfterCommits<E> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        self.inner
            .parallel_cells()
            .expect("handle exists whenever parallel_cells() returned Some")
            .cell_aggregate_shared(cell)
    }
}

fn run_cancelling(query: &AcqQuery, after: u64, cfg: &AcquireConfig, obs: &Obs) -> AcqOutcome {
    let mut exec = Executor::new(catalog());
    let (query, searched) = prepared(&exec, query);
    let caps = RefinedSpace::new(&searched, cfg).unwrap().caps();
    let token = CancellationToken::new();
    let inner = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    let mut eval = CancelAfterCommits::new(inner, after, token.clone());
    search(&mut eval, &query, cfg, &token, obs, None).unwrap()
}

#[test]
fn mid_run_cancellation_is_deterministic_across_thread_counts() {
    for query in [ge_query(800.0), le_query(400.0)] {
        let full = run(Cached, &query, &AcquireConfig::default());
        assert!(full.explored > 10, "need a non-trivial search");

        for k in [1, 3, full.explored / 2] {
            let run = |cfg: &AcquireConfig| run_cancelling(&query, k, cfg, &Obs::disabled());
            let baseline = fingerprint(&run(&AcquireConfig::default()));
            assert!(
                baseline.contains("Cancelled"),
                "cancellation after {k} commits must interrupt: {baseline}"
            );
            assert!(baseline.contains(&format!("explored={k} ")), "{baseline}");
            for par in parallel_settings() {
                let cfg = AcquireConfig::default().with_parallelism(par);
                assert_eq!(
                    fingerprint(&run(&cfg)),
                    baseline,
                    "cancel after {k}, {par:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// At-most-once across threads
// ---------------------------------------------------------------------------

/// Counts every execution attempt per cell coordinate, on both the serial
/// (`cell_aggregate`) and the shared (`cell_aggregate_shared`) paths.
struct CountingLayer<E> {
    inner: E,
    counts: Mutex<HashMap<String, u64>>,
    shared_calls: AtomicU64,
}

impl<E> CountingLayer<E> {
    fn new(inner: E) -> Self {
        Self {
            inner,
            counts: Mutex::new(HashMap::new()),
            shared_calls: AtomicU64::new(0),
        }
    }

    fn record(&self, cell: &[CellRange]) {
        *self
            .counts
            .lock()
            .unwrap()
            .entry(format!("{cell:?}"))
            .or_insert(0) += 1;
    }
}

impl<E: EvaluationLayer + Sync> EvaluationLayer for CountingLayer<E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        self.record(cell);
        self.inner.cell_aggregate(cell)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.inner.full_aggregate(bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.inner.empty_state()
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        self.inner
            .parallel_cells()
            .map(|_| self as &dyn ParallelCells)
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        self.inner.commit_cell_cost(cost);
    }
}

impl<E: EvaluationLayer + Sync> ParallelCells for CountingLayer<E> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        self.record(cell);
        self.shared_calls.fetch_add(1, Ordering::Relaxed);
        self.inner
            .parallel_cells()
            .expect("handle exists whenever parallel_cells() returned Some")
            .cell_aggregate_shared(cell)
    }
}

#[test]
fn no_cell_is_ever_executed_twice_under_parallelism() {
    // Faults, a mid-search budget, and 4 workers all at once: the
    // speculative pool must still never re-execute a coordinate serially
    // or vice versa.
    let scenarios: Vec<(FaultSchedule, Option<u64>)> = vec![
        (FaultSchedule::none(1), None),
        (FaultSchedule::none(1), Some(7)),
        (FaultSchedule::mixed(3, 0.1, 0.05), None),
        (FaultSchedule::mixed(5, 0.1, 0.05), Some(11)),
    ];
    let queries = [ge_query(800.0), le_query(400.0)];
    let scenarios = queries
        .iter()
        .flat_map(|query| scenarios.iter().map(move |(s, b)| (query, s.clone(), *b)));
    for (query, schedule, budget) in scenarios {
        let seed = schedule.seed;
        let faulty = schedule.error_rate > 0.0 || schedule.panic_rate > 0.0;
        let mut exec = Executor::new(catalog());
        let (query, searched) = prepared(&exec, query);
        let mut cfg = AcquireConfig::default()
            .with_parallelism(Parallelism::Fixed(4))
            .with_fault_policy(FaultPolicy::BestEffort);
        if let Some(k) = budget {
            cfg = cfg.with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        }
        let caps = RefinedSpace::new(&searched, &cfg).unwrap().caps();
        let inner = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
        let mut eval = CountingLayer::new(FaultInjectingLayer::new(inner, schedule));
        let cancel = CancellationToken::new();
        let out = search(&mut eval, &query, &cfg, &cancel, &Obs::disabled(), None).unwrap();
        assert!(out.explored > 0 || out.termination.interrupt_reason().is_some());
        if budget.is_none() && !faulty {
            // Tight budgets clamp batches below the parallel threshold, and
            // best-effort faults can end the run in the narrow early
            // layers; in the plain scenario the pool must really engage.
            assert!(
                eval.shared_calls.load(Ordering::Relaxed) > 0,
                "seed {seed}: the speculative pool must actually engage"
            );
        }
        let counts = eval.counts.lock().unwrap();
        assert!(!counts.is_empty(), "the search must attempt some cells");
        for (cell, n) in counts.iter() {
            assert_eq!(*n, 1, "cell {cell} attempted {n} times (seed {seed})");
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics ground truth
// ---------------------------------------------------------------------------

/// The deterministic instruments must agree with the outcome **exactly**:
/// the driver tallies each cell where `explored` advances in its serial
/// emission loop and commits the tally once per layer and on every exit,
/// so the cell-execution counter, the cells-per-layer histogram and one
/// latency observation per layer entered hold by construction — this test
/// pins that construction down for every thread count and under every
/// disruption the suite knows (faults, budgets, cancellation).
fn assert_metrics_ground_truth(obs: &Obs, out: &AcqOutcome, what: &str) {
    let snap = obs.snapshot().expect("enabled handle");
    assert_eq!(
        snap.counter("cells_executed"),
        Some(out.explored),
        "{what}: cells_executed != AcqOutcome.explored"
    );
    let per_layer = snap.histogram("batch_cells").expect("known instrument");
    let latency = snap
        .histogram("layer_latency_ns")
        .expect("known instrument");
    assert_eq!(
        per_layer.sum, out.explored,
        "{what}: cells committed per layer don't sum to cells executed"
    );
    assert_eq!(
        (latency.count, per_layer.count),
        (out.layers + 1, out.layers + 1),
        "{what}: not one observation per layer entered"
    );
    for hist in [per_layer, latency] {
        assert_eq!(
            hist.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            hist.count,
            "{what}: histogram buckets don't sum to its count"
        );
    }
    assert_eq!(
        snap.counter("at_most_once_violations"),
        Some(0),
        "{what}: a cell sub-query was executed twice"
    );
    // Speculative executions are bounded by commits + in-flight discards;
    // every one the pool recorded must be attributed to some worker.
    let speculative = snap.counter("cells_speculative").unwrap();
    let worker_cells: u64 = snap.workers.iter().map(|&(_, cells, _)| cells).sum();
    assert_eq!(
        worker_cells, speculative,
        "{what}: per-worker tallies don't account for every speculative execution"
    );
}

fn run_observed(
    kind: EvalLayerKind,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
    obs: &Obs,
) -> Result<AcqOutcome, CoreError> {
    let mut exec = Executor::new(catalog());
    run_acquire_progress(&mut exec, query, cfg, kind, Host::new(cancel, obs))
}

/// All thread counts under test for the metrics property: serial plus
/// every pool size 2–8.
fn all_thread_settings() -> Vec<Parallelism> {
    let mut settings = vec![Parallelism::Serial];
    settings.extend((2..=8).map(Parallelism::Fixed));
    settings
}

#[test]
fn metrics_match_ground_truth_for_every_thread_count() {
    for (query, delta) in query_rows() {
        for par in all_thread_settings() {
            let cfg = AcquireConfig::default()
                .with_delta(delta)
                .with_parallelism(par);
            let obs = Obs::enabled();
            let out = run_observed(Cached, &query, &cfg, &CancellationToken::new(), &obs).unwrap();
            assert!(out.explored > 0);
            assert_metrics_ground_truth(&obs, &out, &format!("{par:?}"));
        }
    }
}

#[test]
fn metrics_match_ground_truth_under_budgets_and_faults() {
    let query = ge_query(800.0);

    // Explored budgets that land mid-layer.
    for k in [1, 5, 40] {
        for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let cfg = AcquireConfig::default()
                .with_parallelism(par)
                .with_budget(ExecutionBudget::unlimited().with_max_explored(k));
            let obs = Obs::enabled();
            let out = run_observed(Cached, &query, &cfg, &CancellationToken::new(), &obs).unwrap();
            assert_metrics_ground_truth(&obs, &out, &format!("budget {k}, {par:?}"));
            let snap = obs.snapshot().unwrap();
            assert_eq!(
                snap.counter("interrupts"),
                Some(1),
                "budget {k} must trip exactly one interrupt"
            );
        }
    }

    // Deterministic fault injection, best-effort policy.
    for seed in [3, 5, 9] {
        let schedule = FaultSchedule::mixed(seed, 0.15, 0.1);
        for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let mut exec = Executor::new(catalog());
            let mut query = query.clone();
            exec.populate_domains(&mut query).unwrap();
            let cfg = AcquireConfig::default()
                .with_parallelism(par)
                .with_fault_policy(FaultPolicy::BestEffort);
            let space = RefinedSpace::new(&query, &cfg).unwrap();
            let caps = space.caps();
            let obs = Obs::enabled();
            let inner = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
            let mut eval =
                FaultInjectingLayer::with_observability(inner, schedule.clone(), obs.clone());
            let out = acquire_progress(
                &mut eval,
                &query,
                &cfg,
                &CancellationToken::new(),
                &obs,
                None,
            )
            .unwrap();
            assert_metrics_ground_truth(&obs, &out, &format!("faults seed {seed}, {par:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Progress streaming is observational only
// ---------------------------------------------------------------------------

/// Attaching a [`ProgressSink`] must not perturb the search: outcomes stay
/// bit-identical to the sink-less run on every thread count, and the event
/// stream itself is well-formed — `explored` strictly monotone, exactly one
/// terminal event, the terminal totals agreeing with the outcome.
#[test]
fn progress_sink_leaves_outcomes_bit_identical_across_thread_counts() {
    for (query, delta) in query_rows() {
        let serial_cfg = AcquireConfig::default().with_delta(delta);
        let baseline = fingerprint(&run_stepless(&query, &serial_cfg, None));
        let mut settings = vec![Parallelism::Serial];
        settings.extend(parallel_settings());
        for par in settings {
            let cfg = serial_cfg.clone().with_parallelism(par);
            let sink = ProgressSink::new(4096);
            let out = run_stepless(&query, &cfg, Some(&sink));
            assert_eq!(
                fingerprint(&out),
                baseline,
                "{par:?}: attaching the sink changed the outcome"
            );

            // The stream must be honest about what it observed.
            let (events, _, missed) = sink.drain_from(0);
            assert_eq!(missed, 0, "{par:?}: 4096 slots must not wrap here");
            assert_eq!(sink.dropped(), 0, "{par:?}: single reader never contends");
            assert!(!events.is_empty(), "{par:?}: no events emitted");
            assert!(
                events.windows(2).all(|w| w[0].explored < w[1].explored),
                "{par:?}: explored not strictly monotone"
            );
            let terminal_count = events.iter().filter(|e| e.terminal).count();
            assert_eq!(terminal_count, 1, "{par:?}: exactly one terminal event");
            let last = events.last().unwrap();
            assert!(last.terminal, "{par:?}: terminal event must come last");
            assert_eq!(last.explored, out.explored, "{par:?}");
            assert_eq!(last.layer, out.layers, "{par:?}");
            assert!(sink.is_terminated(), "{par:?}");
        }
    }
}

#[test]
fn metrics_match_ground_truth_under_mid_run_cancellation() {
    for k in [1, 3, 25] {
        for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let cfg = AcquireConfig::default().with_parallelism(par);
            let obs = Obs::enabled();
            let out = run_cancelling(&ge_query(800.0), k, &cfg, &obs);
            assert_eq!(out.explored, k, "cancel after {k} commits");
            assert_metrics_ground_truth(&obs, &out, &format!("cancel after {k}, {par:?}"));
        }
    }
}
