//! Failure-injection tests: engine-level failures surface as typed errors
//! through the driver instead of panics or silent wrong answers.

use acq_engine::{
    AggState, Catalog, CellRange, DataType, EngineResult, ExecStats, Executor, Field, TableBuilder,
    Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};
use acquire_core::{
    acquire_progress, run_acquire, run_acquire_progress, AcquireConfig, CancellationToken,
    CoreError, EvalLayerKind, EvaluationLayer, Host, Obs, PreparedCache, RefinedSpace,
    ScanEvaluator, Session,
};

fn table(name: &str, rows: usize) -> acq_engine::Table {
    let mut b = TableBuilder::new(
        name,
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..rows {
        b.push_row(vec![Value::Int(i as i64), Value::Float(i as f64)]);
    }
    b.finish().unwrap()
}

fn base_query() -> AcqQuery {
    AcqQuery::builder()
        .table("a")
        .predicate(Predicate::select(
            ColRef::new("a", "v"),
            Interval::new(0.0, 10.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
        .build()
        .unwrap()
}

#[test]
fn unknown_table_surfaces() {
    let mut exec = Executor::new(Catalog::new());
    let err = run_acquire(
        &mut exec,
        &base_query(),
        &AcquireConfig::default(),
        EvalLayerKind::Scan,
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::Engine(_)), "{err}");
    assert!(err.to_string().contains("unknown table"), "{err}");
}

#[test]
fn unknown_column_surfaces() {
    let mut cat = Catalog::new();
    cat.register(table("a", 10)).unwrap();
    let mut q = base_query();
    q.predicates[0] = Predicate::select(
        ColRef::new("a", "nope"),
        Interval::new(0.0, 1.0),
        RefineSide::Upper,
    );
    let mut exec = Executor::new(cat);
    let err = run_acquire(
        &mut exec,
        &q,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("unknown or unresolved column"),
        "{err}"
    );
}

#[test]
fn cross_product_limit_surfaces() {
    let mut cat = Catalog::new();
    cat.register(table("a", 2_000)).unwrap();
    cat.register(table("b", 2_000)).unwrap();
    // Two tables, no join predicate at all: a 4M-row cross product.
    let q = AcqQuery::builder()
        .table("a")
        .table("b")
        .predicate(Predicate::select(
            ColRef::new("a", "v"),
            Interval::new(0.0, 10.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
        .build()
        .unwrap();
    let mut exec = Executor::new(cat).with_cross_product_limit(100_000);
    let err = run_acquire(
        &mut exec,
        &q,
        &AcquireConfig::default(),
        EvalLayerKind::CachedScore,
    )
    .unwrap_err();
    assert!(err.to_string().contains("cross product"), "{err}");
}

/// A panic while a layer is being prepared — here the engine's own
/// `Interval` invariant, tripped materialising a band join whose Eq. (1)
/// denominator is NaN — is inside the driver's panic boundary like one
/// during the search: every entry point answers `EvalPanicked`, and a
/// prepared-layer cache neither keeps anything of it nor wedges the key.
#[test]
fn a_panic_while_preparing_surfaces_as_a_typed_error() {
    let mut cat = Catalog::new();
    cat.register(table("a", 50)).unwrap();
    cat.register(table("b", 50)).unwrap();
    let mut band = Predicate::equi_join(ColRef::new("a", "v"), ColRef::new("b", "v"));
    band.basis_override = Some(f64::NAN);
    let q = AcqQuery::builder()
        .table("a")
        .table("b")
        .predicate(band)
        .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 80.0))
        .build()
        .unwrap();
    let cfg = AcquireConfig::default();
    let cache = PreparedCache::default();
    for kind in [EvalLayerKind::Scan, EvalLayerKind::CachedScore] {
        let panicked = |r: Result<_, CoreError>, what: &str| match r {
            Err(CoreError::EvalPanicked(_)) => {}
            Err(other) => panic!("{kind:?} {what}: {other}"),
            Ok(_) => panic!("{kind:?} {what}: no error"),
        };
        let mut exec = Executor::new(cat.clone());
        panicked(run_acquire(&mut exec, &q, &cfg, kind).map(drop), "one-shot");
        panicked(Session::new(&mut exec, &q, &cfg, kind).map(drop), "session");
        for _ in 0..2 {
            let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
            let host = Host {
                prepared: Some(&cache),
                ..Host::new(&cancel, &obs)
            };
            let cached = run_acquire_progress(&mut exec, &q, &cfg, kind, host);
            panicked(cached.map(drop), "cached");
        }
    }
    let c = cache.counters();
    assert_eq!((c.misses, c.entries, c.bytes), (2, 0, 0), "{c:?}");
}

/// A scan layer that answers every cell but panics when asked for its work
/// counters, which the search does once, after its last cell and outside
/// every evaluation-layer call it isolates.
struct StatsPanics<'a>(ScanEvaluator<'a>);

impl EvaluationLayer for StatsPanics<'_> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        self.0.cell_aggregate(cell)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.0.full_aggregate(bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.0.empty_state()
    }

    fn stats(&self) -> ExecStats {
        panic!("stats unavailable")
    }

    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }
}

/// A panic outside every cell call is caught at the search boundary like
/// one inside: the search answers `EvalPanicked` with the panic's message
/// instead of unwinding into the host.
#[test]
fn a_panic_outside_cell_calls_surfaces_as_a_typed_error() {
    let mut cat = Catalog::new();
    cat.register(table("a", 50)).unwrap();
    let mut exec = Executor::new(cat);
    let mut q = base_query();
    exec.populate_domains(&mut q).unwrap();
    let cfg = AcquireConfig::default();
    let caps = RefinedSpace::new(&q, &cfg).unwrap().caps();
    let mut layer = StatsPanics(ScanEvaluator::new(&mut exec, &q, &caps).unwrap());
    let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
    match acquire_progress(&mut layer, &q, &cfg, &cancel, &obs, None) {
        Err(CoreError::EvalPanicked(msg)) => assert_eq!(msg, "stats unavailable"),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("no error"),
    }
}

#[test]
fn unregistered_uda_surfaces() {
    let mut cat = Catalog::new();
    cat.register(table("a", 10)).unwrap();
    let mut q = base_query();
    q.constraint = AggConstraint::new(
        AggregateSpec::uda("MYSTERY", ColRef::new("a", "v")),
        CmpOp::Ge,
        1.0,
    );
    let mut exec = Executor::new(cat);
    let err = run_acquire(
        &mut exec,
        &q,
        &AcquireConfig::default(),
        EvalLayerKind::Scan,
    )
    .unwrap_err();
    assert!(err.to_string().contains("not registered"), "{err}");
}

#[test]
fn invalid_norm_weights_surface() {
    let mut cat = Catalog::new();
    cat.register(table("a", 10)).unwrap();
    let cfg = AcquireConfig::default().with_norm(acq_query::Norm::WeightedLp {
        p: 1.0,
        weights: vec![1.0, 2.0],
    });
    let mut exec = Executor::new(cat);
    let err = run_acquire(&mut exec, &base_query(), &cfg, EvalLayerKind::Scan).unwrap_err();
    assert!(matches!(err, CoreError::Query(_)), "{err}");
}

#[test]
fn empty_table_returns_closest_not_panic() {
    let mut cat = Catalog::new();
    cat.register(table("a", 0)).unwrap();
    let mut exec = Executor::new(cat);
    let out = run_acquire(
        &mut exec,
        &base_query(),
        &AcquireConfig::default(),
        EvalLayerKind::Scan,
    )
    .unwrap();
    assert!(!out.satisfied);
    assert_eq!(out.closest.unwrap().aggregate, 0.0);
}
