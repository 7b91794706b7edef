//! Property tests of the anytime contracts over random data, targets,
//! interrupt points, and fault schedules.

use proptest::prelude::*;

use acq_engine::{Catalog, DataType, EngineError, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};
use acquire_core::expand::{BfsExpander, Expander};
use acquire_core::explore::Explorer;
use acquire_core::{
    acquire, AcquireConfig, CachedScoreEvaluator, CoreError, ExecutionBudget, FaultInjectingLayer,
    FaultPolicy, FaultSchedule, InterruptReason, RefinedSpace,
};

fn build_catalog(rows: &[Vec<f64>]) -> Catalog {
    let fields = vec![
        Field::new("x0", DataType::Float),
        Field::new("x1", DataType::Float),
    ];
    let mut b = TableBuilder::new("t", fields).unwrap();
    for row in rows {
        b.push_row(vec![Value::Float(row[0]), Value::Float(row[1])]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

/// `COUNT(*) >= target` with hinge error: overshoot satisfies, so the grid
/// search never repartitions and a manual Expand/Explore drive reproduces
/// the driver exactly.
fn ge_query(bound0: f64, bound1: f64, target: f64) -> AcqQuery {
    let mut b = AcqQuery::builder().table("t");
    for (i, bound) in [bound0, bound1].into_iter().enumerate() {
        b = b.predicate(
            Predicate::select(
                ColRef::new("t", format!("x{i}")),
                Interval::new(0.0, bound.max(1.0)),
                RefineSide::Upper,
            )
            .with_domain(Interval::new(0.0, 100.0)),
        );
    }
    b.constraint(AggConstraint::new(
        AggregateSpec::count(),
        CmpOp::Ge,
        target,
    ))
    .error_fn(AggErrorFn::HingeRelative)
    .build()
    .unwrap()
}

fn run(catalog: &Catalog, query: &AcqQuery, cfg: &AcquireConfig) -> acquire_core::AcqOutcome {
    let mut exec = Executor::new(catalog.clone());
    let mut query = query.clone();
    exec.populate_domains(&mut query).unwrap();
    let space = RefinedSpace::new(&query, cfg).unwrap();
    let caps = space.caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
    acquire(&mut eval, &query, cfg).unwrap()
}

/// Independent reference: drive Expand/Explore by hand for `k` grid
/// queries, mirroring the driver's closest-so-far rule.
fn manual_prefix_closest(
    catalog: &Catalog,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    k: u64,
) -> Option<(f64, f64)> {
    let mut exec = Executor::new(catalog.clone());
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
    let mut closest: Option<(f64, f64)> = None;
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

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..100.0, 2), 30..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For random data, targets, and interrupt points: a budget-k run is
    /// deterministic and its closest-so-far equals the uninterrupted run
    /// truncated after k explored queries (computed by an independent
    /// manual drive of Expand/Explore).
    #[test]
    fn interrupted_equals_truncated_prefix(
        rows in rows_strategy(),
        ratio in 2.0f64..8.0,
        pick in 0u64..1000,
    ) {
        let catalog = build_catalog(&rows);
        let query = ge_query(20.0, 20.0, rows.len() as f64 / ratio);
        let cfg = AcquireConfig::default();
        let full = run(&catalog, &query, &cfg);
        prop_assume!(full.explored >= 2);
        let k = 1 + pick % full.explored;

        let budget_cfg = cfg
            .clone()
            .with_budget(ExecutionBudget::unlimited().with_max_explored(k));
        let a = run(&catalog, &query, &budget_cfg);
        let b = run(&catalog, &query, &budget_cfg);

        // Deterministic across repeats.
        prop_assert_eq!(a.explored, b.explored);
        prop_assert_eq!(
            a.closest.as_ref().map(|c| (c.aggregate, c.error)),
            b.closest.as_ref().map(|c| (c.aggregate, c.error))
        );

        // Equal to the independently computed prefix.
        let reference = manual_prefix_closest(&catalog, &query, &budget_cfg, k);
        prop_assert_eq!(
            a.closest.as_ref().map(|c| (c.aggregate, c.error)),
            reference,
            "k={}", k
        );

        // Interrupted outcomes say so, completed ones do not.
        if a.explored >= k && !a.termination.is_complete() {
            prop_assert_eq!(
                a.termination.interrupt_reason(),
                Some(&InterruptReason::ExploredBudget)
            );
        }
    }

    /// Under any seeded fault schedule: Propagate yields `Ok` or a typed
    /// error (never an abort — reaching the assertion at all proves no
    /// abort happened), and BestEffort always yields an outcome.
    #[test]
    fn faults_never_abort(
        rows in rows_strategy(),
        seed in any::<u64>(),
        error_rate in 0.0f64..0.5,
        panic_rate in 0.0f64..0.3,
    ) {
        let catalog = build_catalog(&rows);
        let query = ge_query(20.0, 20.0, rows.len() as f64 / 3.0);
        let schedule = FaultSchedule::mixed(seed, error_rate, panic_rate);

        for policy in [FaultPolicy::Propagate, FaultPolicy::BestEffort] {
            let cfg = AcquireConfig::default().with_fault_policy(policy);
            let mut exec = Executor::new(catalog.clone());
            let mut q = query.clone();
            exec.populate_domains(&mut q).unwrap();
            let space = RefinedSpace::new(&q, &cfg).unwrap();
            let caps = space.caps();
            let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
            let mut eval = FaultInjectingLayer::new(inner, schedule.clone());
            match acquire(&mut eval, &q, &cfg) {
                Ok(out) => {
                    if policy == FaultPolicy::Propagate {
                        prop_assert!(out.termination.is_complete());
                    }
                }
                Err(e) => {
                    prop_assert_eq!(policy, FaultPolicy::Propagate,
                        "best-effort must absorb faults");
                    prop_assert!(matches!(
                        e,
                        CoreError::Engine(EngineError::Fault(_)) | CoreError::EvalPanicked(_)
                    ), "typed fault error expected");
                }
            }
        }
    }
}
