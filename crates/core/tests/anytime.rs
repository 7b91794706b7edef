//! Anytime-execution guarantees: deadlines, budgets, cancellation, panic
//! isolation, and fault injection.
//!
//! The contracts under test:
//!
//! * under any budget or cancellation, `acquire` returns `Ok(outcome)`
//!   carrying the closest-so-far query and a machine-readable
//!   [`Termination::Interrupted`] reason;
//! * an interrupted run equals the uninterrupted run truncated at the same
//!   point (verified against an independent manual Expand/Explore drive);
//! * no region of data is ever executed twice (§5's at-most-once), with or
//!   without interrupts and faults;
//! * under any seeded fault schedule the driver returns `Ok` or a typed
//!   [`CoreError`] — it never aborts the process and panics never unwind
//!   through the caller.

use std::time::Duration;

use acq_engine::{
    AggState, Catalog, CellRange, DataType, EngineError, EngineResult, ExecStats, Executor, Field,
    TableBuilder, Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};
use acquire_core::expand::{BfsExpander, Expander};
use acquire_core::explore::Explorer;
use acquire_core::govern::Termination;
use acquire_core::{
    acquire, acquire_progress, contract_with, contraction_query, AcquireConfig,
    CachedScoreEvaluator, CancellationToken, CoreError, EvalLayerKind, EvaluationLayer,
    ExecutionBudget, FaultInjectingLayer, FaultPolicy, FaultSchedule, InterruptReason, Obs,
    RefinedSpace, Session,
};

/// 1000 rows: x = 0.0, 0.1, …, 99.9 and y = i mod 100.
fn catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..1000 {
        b.push_row(vec![
            Value::Float(f64::from(i) * 0.1),
            Value::Float(f64::from(i % 100)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

/// `COUNT(*) >= target` over two expandable predicates; hinge error, so
/// overshooting satisfies the constraint and repartitioning never runs.
fn ge_query(target: f64) -> AcqQuery {
    query_over(10.0, 30.0, CmpOp::Ge, target)
}

/// `COUNT(*) <= target` from an original admitting some 430 rows: the
/// search loop's §7.2 contracting direction.
fn le_query(target: f64) -> AcqQuery {
    query_over(60.0, 70.0, CmpOp::Le, target)
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

/// `query` with its domains filled in, and the query its layer is built
/// for: itself, or `Q'_min` when it contracts.
fn prepared(exec: &Executor, query: &AcqQuery) -> (AcqQuery, AcqQuery) {
    let mut query = query.clone();
    exec.populate_domains(&mut query).unwrap();
    let searched = match query.constraint.op {
        CmpOp::Le | CmpOp::Lt => contraction_query(&query).unwrap(),
        _ => query.clone(),
    };
    (query, searched)
}

/// One search over a caller-built layer, in the direction the constraint
/// asks for.
fn search<E: EvaluationLayer>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
) -> Result<acquire_core::AcqOutcome, CoreError> {
    match query.constraint.op {
        CmpOp::Le | CmpOp::Lt => contract_with(eval, query, cfg, cancel, &Obs::disabled(), None),
        _ => acquire_progress(eval, query, cfg, cancel, &Obs::disabled(), None),
    }
}

/// Runs the search over a fresh cached-score layer.
fn run(query: &AcqQuery, cfg: &AcquireConfig) -> acquire_core::AcqOutcome {
    run_with(query, cfg, &CancellationToken::new())
}

fn run_with(
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
) -> acquire_core::AcqOutcome {
    let mut exec = Executor::new(catalog());
    let (query, searched) = prepared(&exec, query);
    let space = RefinedSpace::new(&searched, cfg).unwrap();
    let caps = space.caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    search(&mut eval, &query, cfg, cancel).unwrap()
}

// ---------------------------------------------------------------------------
// Instrumentation layers
// ---------------------------------------------------------------------------

/// Records every cell executed; optionally cancels a token after `k` cell
/// executions (modelling a user hitting Ctrl-C mid-search).
struct RecordingLayer<E> {
    inner: E,
    cells: Vec<String>,
    cancel_after: Option<(u64, CancellationToken)>,
}

impl<E> RecordingLayer<E> {
    fn new(inner: E) -> Self {
        Self {
            inner,
            cells: Vec::new(),
            cancel_after: None,
        }
    }

    fn cancelling(inner: E, after: u64, token: CancellationToken) -> Self {
        Self {
            inner,
            cells: Vec::new(),
            cancel_after: Some((after, token)),
        }
    }
}

impl<E: EvaluationLayer> EvaluationLayer for RecordingLayer<E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        self.cells.push(format!("{cell:?}"));
        let out = self.inner.cell_aggregate(cell);
        if let Some((k, token)) = &self.cancel_after {
            if self.cells.len() as u64 >= *k {
                token.cancel();
            }
        }
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
}

// ---------------------------------------------------------------------------
// Budget and cancellation interrupts
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_interrupts_before_any_work() {
    let cfg = AcquireConfig::default()
        .with_budget(ExecutionBudget::unlimited().with_deadline(Duration::ZERO));
    let out = run(&ge_query(800.0), &cfg);
    assert!(!out.satisfied);
    assert!(out.is_interrupted());
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::DeadlineExceeded)
    );
    assert_eq!(out.explored, 0);
    assert!(out.closest.is_none());
}

#[test]
fn explored_budget_truncates_exactly() {
    for query in [ge_query(800.0), le_query(200.0)] {
        let full = run(&query, &AcquireConfig::default());
        assert!(full.satisfied);
        assert!(full.explored > 5, "need a non-trivial search");

        // An expansion never looks past its answer layer; a contraction
        // does, so a budget spent exactly where its whole-layer overshoot
        // would stop it anyway still reports itself.
        let expanding = query.constraint.op.is_expanding();
        let at_natural_stop = (!expanding).then_some(full.explored);
        for k in [1, 2, full.explored / 2].into_iter().chain(at_natural_stop) {
            let cfg = AcquireConfig::default()
                .with_budget(ExecutionBudget::unlimited().with_max_explored(k));
            let out = run(&query, &cfg);
            assert_eq!(out.explored, k, "budget {k}");
            match &out.termination {
                Termination::Interrupted {
                    reason: InterruptReason::ExploredBudget,
                    explored,
                    elapsed: _,
                } => assert_eq!(*explored, k),
                t => panic!("budget {k}: unexpected termination {t:?}"),
            }
            if expanding {
                assert!(out.closest.is_some(), "closest-so-far after {k} queries");
            } else {
                // Contraction answers from its very first point, `Q'_min`,
                // and an answer is never `closest`.
                assert!(out.best().is_some(), "an answer after {k} queries");
            }
        }
    }
}

#[test]
fn memory_budget_interrupts_with_closest_so_far() {
    let cfg =
        AcquireConfig::default().with_budget(ExecutionBudget::unlimited().with_max_store_bytes(1));
    let out = run(&ge_query(800.0), &cfg);
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::MemoryBudget)
    );
    assert!(out.explored >= 1, "the first query fits any budget check");
    assert!(out.closest.is_some());
}

#[test]
fn pre_cancelled_token_interrupts_immediately() {
    let token = CancellationToken::new();
    token.cancel();
    let out = run_with(&ge_query(800.0), &AcquireConfig::default(), &token);
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::Cancelled)
    );
    assert_eq!(out.explored, 0);
}

#[test]
fn deadline_trips_under_injected_latency() {
    let mut schedule = FaultSchedule::none(1);
    schedule.latency_rate = 1.0;
    schedule.latency = Duration::from_millis(5);
    let cfg = AcquireConfig::default()
        .with_budget(ExecutionBudget::unlimited().with_deadline(Duration::from_millis(1)));

    let mut exec = Executor::new(catalog());
    let mut query = ge_query(800.0);
    exec.populate_domains(&mut query).unwrap();
    let space = RefinedSpace::new(&query, &cfg).unwrap();
    let caps = space.caps();
    let inner = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
    let mut eval = FaultInjectingLayer::new(inner, schedule);
    let out = acquire(&mut eval, &query, &cfg).unwrap();
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::DeadlineExceeded)
    );
    assert!(out.explored >= 1, "the first call is slow but completes");
}

// ---------------------------------------------------------------------------
// Interrupted == prefix of the uninterrupted run
// ---------------------------------------------------------------------------

/// Drives Expand/Explore by hand for at most `k` grid queries, mirroring
/// the driver's closest-so-far rule, as an independent reference for what a
/// budget-k run must return.
fn manual_prefix_closest(query: &AcqQuery, cfg: &AcquireConfig, k: u64) -> Option<(f64, f64)> {
    let mut exec = Executor::new(catalog());
    let mut query = query.clone();
    exec.populate_domains(&mut query).unwrap();
    let space = RefinedSpace::new(&query, cfg).unwrap();
    let caps = space.caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
    let mut expander = BfsExpander::new(&space);
    let mut explorer = Explorer::new(space.dims(), expander.emission());

    let target = query.constraint.target;
    let err_fn = query.error_fn;
    let mut min_ref_layer = u64::MAX;
    let mut explored = 0u64;
    let mut closest: Option<(f64, f64)> = None; // (aggregate, error)
    while let Some(point) = expander.next_query() {
        let layer = RefinedSpace::l1_layer(point);
        if layer > min_ref_layer || explored >= k {
            break;
        }
        explorer.begin_layer(layer);
        let state = explorer
            .compute_aggregate(&mut eval, &space, point)
            .unwrap();
        explored += 1;
        let Some(actual) = state.value() else {
            continue;
        };
        let error = err_fn.error(target, actual);
        if error <= cfg.delta {
            min_ref_layer = min_ref_layer.min(layer);
        }
        if closest.is_none_or(|(_, e)| error < e) {
            closest = Some((actual, error));
        }
    }
    closest
}

/// Interrupt points to probe: dense at the start, then sampled, plus the
/// final stretch (running every k would make these tests quadratic).
fn sample_ks(explored: u64) -> Vec<u64> {
    let mut ks: Vec<u64> = (1..=explored.min(8)).collect();
    ks.extend((8..explored).step_by(17));
    ks.push(explored.saturating_sub(1).max(1));
    ks.push(explored);
    ks.sort_unstable();
    ks.dedup();
    ks
}

#[test]
fn interrupted_closest_matches_manual_prefix() {
    let query = ge_query(300.0);
    let full = run(&query, &AcquireConfig::default());
    assert!(full.explored > 4);
    for k in sample_ks(full.explored) {
        let cfg =
            AcquireConfig::default().with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        let out = run(&query, &cfg);
        let reference = manual_prefix_closest(&query, &cfg, k);
        let got = out.closest.as_ref().map(|c| (c.aggregate, c.error));
        assert_eq!(got, reference, "prefix k={k}");
    }
}

#[test]
fn closest_error_improves_monotonically_with_budget() {
    let query = ge_query(300.0);
    let full = run(&query, &AcquireConfig::default());
    let mut last = f64::INFINITY;
    for k in sample_ks(full.explored) {
        let cfg =
            AcquireConfig::default().with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        let out = run(&query, &cfg);
        let err = out.closest.as_ref().map_or(f64::INFINITY, |c| c.error);
        assert!(
            err <= last + 1e-12,
            "closest error regressed at k={k}: {err} > {last}"
        );
        last = err;
    }
}

#[test]
fn cancellation_mid_run_equals_budget_truncation() {
    let query = ge_query(900.0);
    for k in [2u64, 5, 9] {
        // Cancel from inside the evaluation layer after k cell executions
        // (the token is seen at the next loop iteration, i.e. explored == k).
        let token = CancellationToken::new();
        let mut exec = Executor::new(catalog());
        let mut q = query.clone();
        exec.populate_domains(&mut q).unwrap();
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut eval = RecordingLayer::cancelling(inner, k, token.clone());
        let cancelled =
            acquire_progress(&mut eval, &q, &cfg, &token, &Obs::disabled(), None).unwrap();

        let budget_cfg =
            AcquireConfig::default().with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        let budgeted = run(&query, &budget_cfg);

        assert_eq!(cancelled.explored, k);
        assert_eq!(budgeted.explored, k);
        assert_eq!(
            cancelled.termination.interrupt_reason(),
            Some(&InterruptReason::Cancelled)
        );
        assert_eq!(
            cancelled.closest.as_ref().map(|c| (c.aggregate, c.error)),
            budgeted.closest.as_ref().map(|c| (c.aggregate, c.error)),
            "k={k}"
        );
        assert_eq!(cancelled.queries.len(), budgeted.queries.len());
    }
}

// ---------------------------------------------------------------------------
// At-most-once execution (§5) under interrupts
// ---------------------------------------------------------------------------

#[test]
fn no_cell_is_executed_twice_with_or_without_interrupts() {
    let query = ge_query(900.0);
    for budget in [Some(1u64), Some(3), Some(7), None] {
        let mut cfg = AcquireConfig::default();
        if let Some(k) = budget {
            cfg.budget = ExecutionBudget::unlimited().with_max_explored(k);
        }
        let mut exec = Executor::new(catalog());
        let mut q = query.clone();
        exec.populate_domains(&mut q).unwrap();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut eval = RecordingLayer::new(inner);
        let _ = acquire(&mut eval, &q, &cfg).unwrap();
        let unique: std::collections::HashSet<&String> = eval.cells.iter().collect();
        assert_eq!(
            unique.len(),
            eval.cells.len(),
            "budget {budget:?}: a cell was executed twice"
        );
    }
}

// ---------------------------------------------------------------------------
// Fault injection: never abort, typed errors, best-effort absorption
// ---------------------------------------------------------------------------

/// Runs `ge_query(900.0)` under a fault schedule; used across many seeds.
fn run_faulted(
    schedule: FaultSchedule,
    policy: FaultPolicy,
) -> Result<acquire_core::AcqOutcome, CoreError> {
    run_faulted_on(&ge_query(900.0), schedule, policy)
}

fn run_faulted_on(
    query: &AcqQuery,
    schedule: FaultSchedule,
    policy: FaultPolicy,
) -> Result<acquire_core::AcqOutcome, CoreError> {
    let cfg = AcquireConfig::default().with_fault_policy(policy);
    let mut exec = Executor::new(catalog());
    let (query, searched) = prepared(&exec, query);
    let caps = RefinedSpace::new(&searched, &cfg).unwrap().caps();
    let inner = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    let mut eval = FaultInjectingLayer::new(inner, schedule);
    search(&mut eval, &query, &cfg, &CancellationToken::new())
}

#[test]
fn propagate_policy_yields_typed_errors_never_aborts() {
    let mut injected = 0;
    for seed in 0..32 {
        match run_faulted(FaultSchedule::mixed(seed, 0.2, 0.1), FaultPolicy::Propagate) {
            Ok(out) => assert!(out.termination.is_complete()),
            Err(CoreError::Engine(EngineError::Fault(msg))) => {
                assert!(msg.contains("injected error"), "{msg}");
                injected += 1;
            }
            Err(CoreError::EvalPanicked(msg)) => {
                assert!(msg.contains("injected panic"), "{msg}");
                injected += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error kind {other:?}"),
        }
    }
    assert!(injected > 0, "the schedules must actually fault");
}

#[test]
fn best_effort_policy_always_returns_an_outcome() {
    for query in [ge_query(900.0), le_query(200.0)] {
        let mut interrupted = 0;
        for seed in 0..32 {
            let mut schedule = FaultSchedule::mixed(seed, 0.2, 0.1);
            schedule.skip_layers = 2; // let the search make some progress first
            let out = run_faulted_on(&query, schedule, FaultPolicy::BestEffort)
                .expect("best-effort absorbs all mid-search faults");
            match &out.termination {
                Termination::Interrupted {
                    reason: InterruptReason::Fault(msg),
                    ..
                } => {
                    assert!(msg.contains("injected"), "{msg}");
                    assert!(out.explored >= 3, "three fault-free calls happened");
                    assert!(
                        out.closest.is_some() || out.satisfied,
                        "seed {seed}: an interrupted outcome still carries the \
                         closest-so-far answer"
                    );
                    interrupted += 1;
                }
                t => assert!(t.is_complete(), "seed {seed}: {t:?}"),
            }
        }
        assert!(interrupted > 0, "the schedules must actually fault");
    }
}

#[test]
fn injected_panic_becomes_eval_panicked() {
    let err = run_faulted(FaultSchedule::panics(7, 1.0), FaultPolicy::Propagate).unwrap_err();
    match err {
        CoreError::EvalPanicked(msg) => {
            assert!(msg.contains("injected panic"), "{msg}");
            assert!(
                msg.contains("seed 7"),
                "fault messages carry the seed: {msg}"
            );
        }
        other => panic!("expected EvalPanicked, got {other:?}"),
    }
}

#[test]
fn fault_free_schedule_changes_nothing() {
    let baseline = run(&ge_query(900.0), &AcquireConfig::default());
    let via_harness = run_faulted(FaultSchedule::none(0), FaultPolicy::Propagate).unwrap();
    assert_eq!(baseline.satisfied, via_harness.satisfied);
    assert_eq!(
        baseline.best().map(|r| (r.qscore, r.aggregate)),
        via_harness.best().map(|r| (r.qscore, r.aggregate))
    );
    assert_eq!(baseline.termination, via_harness.termination);
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

#[test]
fn session_cancellation_is_sticky_until_reset() {
    let mut exec = Executor::new(catalog());
    let query = ge_query(800.0);
    let mut session = Session::new(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();

    let token = session.cancellation_token();
    token.cancel();
    let out = session.run(800.0).unwrap();
    assert_eq!(
        out.termination.interrupt_reason(),
        Some(&InterruptReason::Cancelled)
    );

    // Still cancelled: the token is sticky.
    let again = session.run(800.0).unwrap();
    assert!(again.is_interrupted());

    // A reset issues a fresh token; the next run completes.
    let fresh = session.reset_cancellation();
    assert!(!fresh.is_cancelled());
    let ok = session.run(800.0).unwrap();
    assert!(ok.satisfied);
    assert_eq!(ok.termination, Termination::Satisfied);
    // The old clone no longer affects the session.
    token.cancel();
    assert!(!fresh.is_cancelled());
}

#[test]
fn session_budget_applies_per_run() {
    let mut exec = Executor::new(catalog());
    let query = ge_query(800.0);
    let mut session = Session::new(
        &mut exec,
        &query,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap();
    session.set_budget(ExecutionBudget::unlimited().with_max_explored(1));
    let capped = session.run(800.0).unwrap();
    assert_eq!(capped.explored, 1);
    assert!(capped.is_interrupted());
    assert!(capped.best_or_closest().is_some());

    session.set_budget(ExecutionBudget::unlimited());
    let full = session.run(800.0).unwrap();
    assert!(full.satisfied);
    assert!(full.termination.is_complete());
}
