//! The observability layer must be a pure observer: enabling it may not
//! change a single bit of any outcome, a disabled handle must be close to
//! free, and the artifacts it emits (trace, JSON snapshot, Prometheus
//! exposition) must be well-formed — the snapshot is validated against the
//! same committed schema CI uses (`schemas/metrics.schema.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acq_engine::{
    AggState, Catalog, CellRange, DataType, EngineResult, ExecStats, Executor, Field, TableBuilder,
    Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};
use acquire_core::{
    acquire_progress, contract_with, contraction_query, AcqOutcome, AcquireConfig,
    CachedScoreEvaluator, CancellationToken, CellCost, CoreError, EvalLayerKind, EvaluationLayer,
    ExecutionBudget, FaultInjectingLayer, FaultPolicy, FaultSchedule, InterruptReason, Obs,
    ParallelCells, Parallelism, RefinedSpace, Session,
};

fn catalog() -> Catalog {
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

fn query(target: f64) -> AcqQuery {
    query_over(10.0, 30.0, CmpOp::Ge, target)
}

fn query_over(x_hi: f64, y_hi: f64, op: CmpOp, target: f64) -> AcqQuery {
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
        .error_fn(AggErrorFn::HingeRelative)
        .build()
        .unwrap()
}

fn run_with(obs: &Obs, cfg: &AcquireConfig) -> AcqOutcome {
    run_query(&query(800.0), obs, cfg)
}

/// Searches in the direction the constraint asks for: a `<=` query builds
/// its layer for `Q'_min` and contracts.
fn run_query(q: &AcqQuery, obs: &Obs, cfg: &AcquireConfig) -> AcqOutcome {
    let mut exec = Executor::new(catalog());
    let mut q = q.clone();
    exec.populate_domains(&mut q).unwrap();
    let contracts = q.constraint.op == CmpOp::Le;
    let searched = if contracts {
        contraction_query(&q).unwrap()
    } else {
        q.clone()
    };
    let caps = RefinedSpace::new(&searched, cfg).unwrap().caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    let cancel = CancellationToken::new();
    if contracts {
        contract_with(&mut eval, &q, cfg, &cancel, obs, None).unwrap()
    } else {
        acquire_progress(&mut eval, &q, cfg, &cancel, obs, None).unwrap()
    }
}

/// Every observable field, floats as raw bits.
fn fingerprint(out: &AcqOutcome) -> String {
    format!(
        "satisfied={} explored={} layers={} peak_store={} original={} stats={:?} \
         termination={:?} answers={:?}",
        out.satisfied,
        out.explored,
        out.layers,
        out.peak_store,
        out.original_aggregate.to_bits(),
        out.stats,
        out.termination,
        out.queries
            .iter()
            .map(|r| format!(
                "{:?}/{}/{}",
                r.point,
                r.aggregate.to_bits(),
                r.error.to_bits()
            ))
            .collect::<Vec<_>>(),
    )
}

// ---------------------------------------------------------------------------
// Observation must not perturb the system
// ---------------------------------------------------------------------------

#[test]
fn enabling_observability_never_changes_the_outcome() {
    // An expansion, and a §7.2 contraction from an overshooting original.
    for q in [query(800.0), query_over(200.0, 100.0, CmpOp::Le, 400.0)] {
        for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let cfg = AcquireConfig::default().with_parallelism(par);
            let baseline = fingerprint(&run_query(&q, &Obs::disabled(), &cfg));
            for (what, obs) in [
                ("counters", Obs::enabled()),
                ("tracing", Obs::with_trace(10_000)),
            ] {
                let got = fingerprint(&run_query(&q, &obs, &cfg));
                assert_eq!(got, baseline, "{what} observability perturbed {par:?}");
            }
        }
    }
}

/// A fault that ends a search under `FaultPolicy::Propagate` leaves the
/// instruments as they stood after the last committed cell: every cell
/// counted in its layer, one latency observation per layer entered, and
/// the store and budget gauges of a clean run cut off at the same cell.
#[test]
fn a_propagated_fault_leaves_the_per_cell_instruments_committed() {
    let mut q = query(800.0);
    let mut exec = Executor::new(catalog());
    exec.populate_domains(&mut q).unwrap();
    let cfg = AcquireConfig {
        max_explored: 10_000,
        ..AcquireConfig::default().with_fault_policy(FaultPolicy::Propagate)
    };
    let caps = RefinedSpace::new(&q, &cfg).unwrap().caps();
    let cancel = CancellationToken::new();
    let mut faulted = 0;
    for seed in 0..8 {
        let mut schedule = FaultSchedule::errors(seed, 0.05);
        schedule.skip_layers = 3;
        let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut eval = FaultInjectingLayer::new(inner, schedule);
        let obs = Obs::enabled();
        if acquire_progress(&mut eval, &q, &cfg, &cancel, &obs, None).is_ok() {
            continue;
        }
        faulted += 1;
        let snap = obs.snapshot().expect("enabled handle");
        let cells = snap.counter("cells_executed").unwrap();
        let per_layer = snap.histogram("batch_cells").expect("known instrument");
        let latency = snap
            .histogram("layer_latency_ns")
            .expect("known instrument");
        assert_eq!(
            per_layer.sum, cells,
            "seed {seed}: cells per layer don't sum to the cell count"
        );
        // The faulting cell's layer was entered: a clean run one cell longer
        // ends in it.
        let reach = AcquireConfig {
            max_explored: cells + 1,
            ..cfg.clone()
        };
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let entered = acquire_progress(&mut eval, &q, &reach, &cancel, &Obs::disabled(), None)
            .unwrap()
            .layers
            + 1;
        assert_eq!(
            (latency.count, per_layer.count),
            (entered, entered),
            "seed {seed}: one observation per layer entered"
        );
        assert!(cells > 0, "seed {seed}: the skipped layers commit cells");

        let clean = Obs::enabled();
        let cut = AcquireConfig {
            max_explored: cells,
            ..cfg.clone()
        };
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let out = acquire_progress(&mut eval, &q, &cut, &cancel, &clean, None).unwrap();
        assert_eq!(out.explored, cells, "seed {seed}");
        let want = clean.snapshot().expect("enabled handle");
        for gauge in ["store_len", "store_peak", "store_bytes"] {
            assert_eq!(snap.gauge(gauge), want.gauge(gauge), "seed {seed}: {gauge}");
        }
        assert_eq!(
            snap.gauge("budget_headroom"),
            Some(10_000 - cells),
            "seed {seed}"
        );
    }
    assert!(faulted > 0, "the schedules must actually fault");
}

/// Cancels its token once `after` cells have committed: serial cells when
/// they run, pooled ones when their cost is committed in emission order, so
/// the cancel lands on the same cell for every thread count.
struct CancelAfter<E> {
    inner: E,
    commits: AtomicU64,
    after: u64,
    token: CancellationToken,
}

impl<E> CancelAfter<E> {
    fn bump(&self) {
        if self.commits.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
            self.token.cancel();
        }
    }
}

impl<E: EvaluationLayer + Sync> EvaluationLayer for CancelAfter<E> {
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

impl<E: EvaluationLayer + Sync> ParallelCells for CancelAfter<E> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        match self.inner.parallel_cells() {
            Some(shared) => shared.cell_aggregate_shared(cell),
            None => unreachable!("parallel_cells() is None whenever the inner layer's is"),
        }
    }
}

/// The ways a search can end.
#[derive(Debug, Clone, Copy)]
enum Exit {
    Clean,
    ExploredBudget,
    MemoryBudget,
    Cancel,
    Deadline,
    Fault(FaultPolicy),
}

/// The explored-query budget of [`Exit::ExploredBudget`].
const EXPLORED_BUDGET: u64 = 40;

/// Runs `query(800.0)` on a fresh cached layer so that it ends the way
/// `exit` names, with faults from `seed`'s schedule.
fn run_to(exit: Exit, seed: u64, cfg: &AcquireConfig, obs: &Obs) -> Result<AcqOutcome, CoreError> {
    let mut q = query(800.0);
    let mut exec = Executor::new(catalog());
    exec.populate_domains(&mut q).unwrap();
    let caps = RefinedSpace::new(&q, cfg).unwrap().caps();
    let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
    let token = CancellationToken::new();
    let budget = ExecutionBudget::unlimited();
    let mut schedule = FaultSchedule::none(seed);
    let cfg = match exit {
        Exit::Clean | Exit::Cancel => cfg.clone(),
        Exit::ExploredBudget => cfg
            .clone()
            .with_budget(budget.with_max_explored(EXPLORED_BUDGET)),
        Exit::MemoryBudget => cfg.clone().with_budget(budget.with_max_store_bytes(6_000)),
        Exit::Deadline => {
            // One cell in fifty sleeps 2 ms: the deadline lands mid-search.
            schedule.latency_rate = 0.02;
            schedule.latency = Duration::from_millis(2);
            cfg.clone()
                .with_budget(budget.with_deadline(Duration::from_millis(10)))
        }
        Exit::Fault(policy) => {
            schedule.error_rate = 0.05;
            schedule.skip_layers = 3;
            cfg.clone().with_fault_policy(policy)
        }
    };
    let mut eval = CancelAfter {
        inner: FaultInjectingLayer::new(inner, schedule),
        commits: AtomicU64::new(0),
        after: if matches!(exit, Exit::Cancel) {
            25
        } else {
            u64::MAX
        },
        token: token.clone(),
    };
    acquire_progress(&mut eval, &q, &cfg, &token, obs, None)
}

/// At every exit — a clean end, each budget, a cancel, a deadline and a
/// fault under either policy, serial or pooled — the per-layer commits add
/// up to the cells the search committed: `cells_executed == explored`, the
/// cells per layer sum to it, there is one latency observation per layer
/// entered, and the store and headroom gauges read what a clean run cut at
/// the same cell leaves.
#[test]
fn every_exit_commits_the_tallies_of_every_layer_entered() {
    use Exit::{Cancel, Clean, Deadline, ExploredBudget, Fault, MemoryBudget};
    let exits = [
        Clean,
        ExploredBudget,
        MemoryBudget,
        Cancel,
        Deadline,
        Fault(FaultPolicy::Propagate),
        Fault(FaultPolicy::BestEffort),
    ];
    for threads in [1, 2] {
        let cfg = AcquireConfig::default().with_threads(threads);
        for exit in exits {
            // The first schedule that faults at all.
            let seed = (0..16)
                .find(|&seed| match exit {
                    Fault(_) => {
                        run_to(Fault(FaultPolicy::Propagate), seed, &cfg, &Obs::disabled()).is_err()
                    }
                    _ => true,
                })
                .expect("some schedule faults");
            let obs = Obs::enabled();
            let result = run_to(exit, seed, &cfg, &obs);
            let what = format!("{exit:?} at {threads} thread(s)");
            let snap = obs.snapshot().expect("enabled handle");
            let cells = snap.counter("cells_executed").unwrap();
            let clean_to = |max_explored: u64| {
                let cut = AcquireConfig {
                    max_explored,
                    ..cfg.clone()
                };
                let clean = Obs::enabled();
                let out = run_to(Clean, seed, &cut, &clean).unwrap();
                (out, clean.snapshot().expect("enabled handle"))
            };
            let entered = match &result {
                Ok(out) => {
                    assert_eq!(cells, out.explored, "{what}: cells_executed != explored");
                    let reason = out.termination.interrupt_reason();
                    match exit {
                        Clean => assert_eq!(reason, None, "{what}"),
                        ExploredBudget => {
                            assert_eq!(reason, Some(&InterruptReason::ExploredBudget), "{what}");
                        }
                        MemoryBudget => {
                            assert_eq!(reason, Some(&InterruptReason::MemoryBudget), "{what}");
                        }
                        Cancel => assert_eq!(reason, Some(&InterruptReason::Cancelled), "{what}"),
                        Deadline => {
                            assert_eq!(reason, Some(&InterruptReason::DeadlineExceeded), "{what}");
                        }
                        Fault(_) => assert!(
                            matches!(reason, Some(InterruptReason::Fault(_))),
                            "{what}: {reason:?}"
                        ),
                    }
                    out.layers + 1
                }
                // The faulting cell's layer was entered: a clean run one
                // cell longer ends in it.
                Err(_) => {
                    assert!(matches!(exit, Fault(FaultPolicy::Propagate)), "{what}");
                    clean_to(cells + 1).0.layers + 1
                }
            };
            let per_layer = snap.histogram("batch_cells").expect("known instrument");
            let latency = snap
                .histogram("layer_latency_ns")
                .expect("known instrument");
            assert_eq!(per_layer.sum, cells, "{what}: cells per layer != cells");
            assert_eq!(
                (latency.count, per_layer.count),
                (entered, entered),
                "{what}: one observation per layer entered"
            );
            let (_, want) = clean_to(cells);
            for gauge in ["store_len", "store_peak", "store_bytes"] {
                assert_eq!(snap.gauge(gauge), want.gauge(gauge), "{what}: {gauge}");
            }
            let limit = match exit {
                ExploredBudget => EXPLORED_BUDGET,
                _ => cfg.max_explored,
            };
            assert_eq!(
                snap.gauge("budget_headroom"),
                (cells > 0).then(|| limit - cells),
                "{what}: budget_headroom"
            );
        }
    }
}

/// Slow cells are checked against the deadline on every cell: with every
/// cell sleeping 2 ms, a 10 ms deadline has passed once five cells have
/// run, and the check before the sixth stops the search. A deadline clock
/// read on a fixed stride of cells would run on for dozens more.
#[test]
fn slow_cells_meet_the_deadline_on_the_next_cell() {
    let mut q = query(800.0);
    let mut exec = Executor::new(catalog());
    exec.populate_domains(&mut q).unwrap();
    let cfg = AcquireConfig::default()
        .with_budget(ExecutionBudget::unlimited().with_deadline(Duration::from_millis(10)));
    let caps = RefinedSpace::new(&q, &cfg).unwrap().caps();
    let schedule = FaultSchedule {
        latency_rate: 1.0,
        latency: Duration::from_millis(2),
        ..FaultSchedule::none(1)
    };
    let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
    let mut eval = FaultInjectingLayer::new(inner, schedule);
    let cancel = CancellationToken::new();
    let out = acquire_progress(&mut eval, &q, &cfg, &cancel, &Obs::disabled(), None).unwrap();
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::DeadlineExceeded)
    );
    assert!(out.explored <= 5, "explored {} slow cells", out.explored);
}

/// A deadline that has already passed stops the search before its first
/// grid query, whatever the read stride: the first check reads the clock.
#[test]
fn a_passed_deadline_stops_before_the_first_cell() {
    for threads in [1, 2] {
        let cfg = AcquireConfig::default()
            .with_threads(threads)
            .with_budget(ExecutionBudget::unlimited().with_deadline(Duration::ZERO));
        let obs = Obs::enabled();
        let out = run_with(&obs, &cfg);
        assert_eq!(out.explored, 0, "{threads} thread(s)");
        assert_eq!(
            out.termination.interrupt_reason(),
            Some(&InterruptReason::DeadlineExceeded)
        );
        let snap = obs.snapshot().expect("enabled handle");
        assert_eq!(snap.counter("cells_executed"), Some(0));
        assert_eq!(snap.histogram("layer_latency_ns").map(|h| h.count), Some(1));
        assert_eq!(snap.gauge("store_len"), None, "no cell, no store gauge");
    }
}

/// A disabled handle costs one null check per instrument, so a run with
/// observability off must stay within noise of one that never heard of it.
/// Each attempt measures min-of-5 interleaved runs with an absolute floor;
/// up to three attempts absorb transient contention from concurrently
/// running tests (a *systematic* overhead regression fails every attempt,
/// noise doesn't).
#[test]
fn disabled_observability_overhead_is_below_two_percent() {
    let cfg = AcquireConfig::default();
    // Warm-up: fault in lazily-initialised state on both paths.
    run_with(&Obs::disabled(), &cfg);

    let mut last = String::new();
    for _attempt in 0..3 {
        let mut plain = f64::INFINITY;
        let mut enabled = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            run_with(&Obs::disabled(), &cfg);
            plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

            let obs = Obs::enabled();
            let t = Instant::now();
            run_with(&obs, &cfg);
            enabled = enabled.min(t.elapsed().as_secs_f64() * 1e3);
        }
        // The counters-only path bounds the disabled path from above: if
        // even live atomics fit in 2% + floor, the null-check path
        // certainly does.
        let allowed = plain * 1.02 + 15.0;
        if enabled <= allowed {
            return;
        }
        last =
            format!("instrumented run {enabled:.1}ms exceeds {allowed:.1}ms (plain {plain:.1}ms)");
    }
    panic!("{last}");
}

// ---------------------------------------------------------------------------
// Emitted artifacts
// ---------------------------------------------------------------------------

#[test]
fn snapshot_json_validates_against_the_committed_schema() {
    let obs = Obs::enabled();
    let out = run_with(&obs, &AcquireConfig::default().with_threads(4));
    let snap = obs.snapshot().unwrap();
    assert_eq!(snap.counter("cells_executed"), Some(out.explored));

    let doc = acq_obs::json::parse(&snap.to_json()).expect("snapshot renders valid JSON");
    let schema_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/metrics.schema.json"
    );
    let schema_text = std::fs::read_to_string(schema_path).expect("committed schema exists");
    let schema = acq_obs::json::parse(&schema_text).expect("schema is valid JSON");
    let errors = acq_obs::schema::validate(&schema, &doc);
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

#[test]
fn trace_records_the_pipeline_phases() {
    let obs = Obs::with_trace(10_000);
    let out = run_with(&obs, &AcquireConfig::default().with_threads(4));
    assert!(out.explored > 0);
    let trace = obs.render_trace().expect("tracing handle");
    for needle in [
        "acquire: target",
        "expand layer 0",
        "explore: speculative pool (4 workers",
        "answer:",
        "done: satisfied",
    ] {
        assert!(trace.contains(needle), "missing {needle:?} in:\n{trace}");
    }
    // Spans carry durations, events don't.
    assert!(trace.contains("ms]"), "timestamps missing:\n{trace}");
}

#[test]
fn prometheus_exposition_covers_every_instrument_family() {
    let obs = Obs::enabled();
    run_with(&obs, &AcquireConfig::default().with_threads(4));
    let text = obs.snapshot().unwrap().to_prometheus();
    for needle in [
        "# TYPE acq_cells_executed_total counter",
        "acq_store_peak ",
        "acq_layer_latency_ns_bucket{le=\"+Inf\"}",
        "acq_exec_cell_queries_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The live-progress path — a `ProgressSink` fed at every layer boundary —
/// must stay within 2% of an identical sink-less run: that is the price a
/// served query pays while someone watches `/query/<id>/progress`. Same
/// retry discipline as the disabled-handle gate above: min-of-5 per
/// attempt, absolute floor, three attempts so only a systematic regression
/// fails.
#[test]
fn progress_sink_overhead_is_below_two_percent() {
    use acquire_core::{ProgressSink, DEFAULT_PROGRESS_CAPACITY};

    let cfg = AcquireConfig::default();
    run_with(&Obs::enabled(), &cfg); // warm-up

    let run_streamed = |sink: &ProgressSink| {
        let mut exec = Executor::new(catalog());
        let mut q = query(800.0);
        exec.populate_domains(&mut q).unwrap();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        acquire_progress(
            &mut eval,
            &q,
            &cfg,
            &CancellationToken::new(),
            &Obs::enabled(),
            Some(sink),
        )
        .unwrap();
    };

    let mut last = String::new();
    for _attempt in 0..3 {
        let mut plain = f64::INFINITY;
        let mut streamed = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            run_with(&Obs::enabled(), &cfg);
            plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

            let sink = ProgressSink::new(DEFAULT_PROGRESS_CAPACITY);
            let t = Instant::now();
            run_streamed(&sink);
            streamed = streamed.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(sink.is_terminated(), "run must emit its terminal event");
        }
        let allowed = plain * 1.02 + 15.0;
        if streamed <= allowed {
            return;
        }
        last = format!("streamed run {streamed:.1}ms exceeds {allowed:.1}ms (plain {plain:.1}ms)");
    }
    panic!("{last}");
}

// ---------------------------------------------------------------------------
// Session plumbing
// ---------------------------------------------------------------------------

#[test]
fn session_threads_its_observability_handle_through_runs() {
    let mut exec = Executor::new(catalog());
    let q = query(800.0);
    let cfg = AcquireConfig::default();
    let mut session = Session::new(&mut exec, &q, &cfg, EvalLayerKind::CachedScore).unwrap();
    assert!(
        !session.observability().is_enabled(),
        "sessions default to a disabled handle"
    );

    session.set_observability(Obs::enabled());
    let first = session.run(800.0).unwrap();
    let after_first = session
        .observability()
        .snapshot()
        .unwrap()
        .counter("cells_executed")
        .unwrap();
    assert_eq!(after_first, first.explored);

    // Instruments accumulate across runs of one session (documented):
    // a second run adds its cells on top.
    let second = session.run(820.0).unwrap();
    let after_second = session
        .observability()
        .snapshot()
        .unwrap()
        .counter("cells_executed")
        .unwrap();
    assert_eq!(after_second, first.explored + second.explored);
}

/// Serve-mode instrumentation: every request runs against its own tracing
/// handle with a registry request ID attached, and the finished snapshot is
/// folded into a process-scoped registry. None of that may perturb the
/// outcome — bit-identical across threads 1–8 — and the per-query
/// `cells_executed == explored` invariant must hold in the registry record
/// of every request.
#[test]
fn serve_style_instrumentation_preserves_parallel_equivalence() {
    use acq_obs::{Metrics, QueryRegistry, QuerySummary};

    let baseline = fingerprint(&run_with(&Obs::disabled(), &AcquireConfig::default()));

    let process_metrics = Metrics::new();
    let registry = QueryRegistry::default();
    for threads in 1..=8 {
        let cfg = AcquireConfig::default().with_parallelism(Parallelism::Fixed(threads));
        let obs = Obs::with_trace(4096);
        let id = registry.begin(format!("threads={threads}"), threads);
        obs.set_query_id(id);
        let t0 = Instant::now();
        let out = run_with(&obs, &cfg);
        assert_eq!(
            fingerprint(&out),
            baseline,
            "serve instrumentation perturbed the outcome at {threads} thread(s)"
        );

        let snap = obs.snapshot().unwrap();
        registry.finish(
            id,
            QuerySummary {
                termination: out.termination.slug().to_string(),
                explored: out.explored,
                cells_executed: snap.counter("cells_executed").unwrap(),
                answers: out.queries.len() as u64,
                satisfied: out.satisfied,
                layers: out.layers,
            },
            t0.elapsed().as_millis() as u64,
            obs.render_trace_json(),
        );
        process_metrics.absorb_snapshot(&snap);

        // The per-query record pins the at-most-once invariant.
        let rec = registry.get(id).unwrap();
        let sum = rec.summary.as_ref().unwrap();
        assert_eq!(
            sum.cells_executed, sum.explored,
            "registry record violates cells_executed == explored at {threads} thread(s)"
        );
        // Request IDs tag the per-query trace.
        let trace = rec.trace_json.unwrap();
        assert!(trace.contains(&format!("[q{id}] acquire:")), "{trace}");
    }

    // The process registry saw 8 identical runs: totals are 8× one run.
    let (running, completed, dropped) = registry.counts();
    assert_eq!((running, completed, dropped), (0, 8, 0));
    let one = run_with(&Obs::enabled(), &AcquireConfig::default());
    assert_eq!(process_metrics.cells_executed.get(), 8 * one.explored);
    assert_eq!(process_metrics.at_most_once_violations.get(), 0);
}

/// The explain profile's Eq. 17 accounting must agree with the live run:
/// `cells_executed == explored` and `regions_reused == explored · d` for
/// any thread count.
#[test]
fn explain_profile_matches_live_accounting() {
    use acquire_core::ExplainProfile;

    for threads in [1, 4] {
        let cfg = AcquireConfig::default().with_parallelism(Parallelism::Fixed(threads));
        let obs = Obs::enabled();
        let t0 = Instant::now();
        let out = run_with(&obs, &cfg);
        let snap = obs.snapshot().unwrap();
        let q = query(800.0);
        let p = ExplainProfile::new(&q, &cfg, &out, Some(&snap), t0.elapsed());
        assert_eq!(p.cells_executed, out.explored);
        assert_eq!(p.regions_reused, out.explored * 2);
        assert_eq!(p.subqueries_total, out.explored * 3);
        assert_eq!(p.at_most_once_violations, 0);
        assert_eq!(p.workers, threads);
        assert!(
            p.search_layers.is_some(),
            "instrumented run has a phase split"
        );
    }
}
