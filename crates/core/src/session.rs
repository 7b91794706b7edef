//! Interactive refinement sessions.
//!
//! The paper's motivating workflow is interactive: Alice states her
//! demographic criteria once, then iterates on the audience size as the
//! budget changes (§1). Re-running [`crate::run_acquire`] per target would
//! re-materialise the base relation and re-score every tuple each time;
//! a [`Session`] prepares the evaluation layer once and answers any number
//! of targets (and thresholds) against it.
//!
//! A session is for a caller that can hold one: it borrows the executor and
//! owns its layer. A host whose requests share nothing but their predicates
//! — the server — gets the same economy from a [`crate::PreparedCache`]
//! lent to [`crate::run_acquire_progress`] ([`crate::Host::prepared`]):
//! both build through the one layer-construction seam, the server now
//! preparing once per predicate set too. A session itself never reads or
//! fills a cache.
//!
//! ```
//! use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
//! use acq_query::{AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval,
//!                 Predicate, RefineSide};
//! use acquire_core::{AcquireConfig, EvalLayerKind, Session};
//!
//! let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)])?;
//! for i in 0..1000 {
//!     b.push_row(vec![Value::Float(i as f64 * 0.1)]);
//! }
//! let mut catalog = Catalog::new();
//! catalog.register(b.finish()?)?;
//!
//! let query = AcqQuery::builder()
//!     .table("t")
//!     .predicate(Predicate::select(
//!         ColRef::new("t", "x"),
//!         Interval::new(0.0, 10.0),
//!         RefineSide::Upper,
//!     ))
//!     .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 150.0))
//!     .build()?;
//!
//! let mut exec = Executor::new(catalog);
//! let mut session = Session::new(&mut exec, &query, &AcquireConfig::default(),
//!                                EvalLayerKind::CachedScore)?;
//! let a = session.run(150.0)?; // first budget
//! let b = session.run(400.0)?; // Alice doubles the budget — no re-scan
//! assert!(a.satisfied && b.satisfied);
//! assert!(b.best().unwrap().qscore > a.best().unwrap().qscore);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use acq_engine::Executor;
use acq_obs::Obs;
use acq_query::AcqQuery;

use crate::config::AcquireConfig;
use crate::driver::acquire_progress;
use crate::error::CoreError;
use crate::eval::{prepare_layer, EvalLayerKind, PreparedLayer};
use crate::govern::{CancellationToken, ExecutionBudget};
use crate::result::AcqOutcome;

/// A prepared ACQ whose aggregate target can be varied interactively; the
/// evaluation layer (base relation, and for the cached layers the score
/// matrix and cell buckets) is built once at construction.
///
/// Each session owns a [`CancellationToken`]: hand a clone of
/// [`Session::cancellation_token`] to another thread (say, a UI) and it can
/// interrupt a running [`Session::run`], which then returns the
/// closest-so-far outcome. Cancellation is sticky — further runs return
/// immediately-interrupted outcomes until [`Session::reset_cancellation`]
/// issues a fresh token.
pub struct Session<'e> {
    eval: PreparedLayer<'e>,
    query: AcqQuery,
    cfg: AcquireConfig,
    cancel: CancellationToken,
    obs: Obs,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("layer", &self.eval.kind_name())
            .field("query", &self.query)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl<'e> Session<'e> {
    /// Prepares the session: fills predicate domains, materialises the base
    /// relation and builds the `kind` evaluation layer over it — the same
    /// construction [`crate::run_acquire`] performs per call.
    pub fn new(
        exec: &'e mut Executor,
        query: &AcqQuery,
        cfg: &AcquireConfig,
        kind: EvalLayerKind,
    ) -> Result<Self, CoreError> {
        let (query, eval) = prepare_layer(exec, query, cfg, kind, None, &Obs::disabled())?;
        Ok(Self {
            eval,
            query,
            cfg: cfg.clone(),
            cancel: CancellationToken::new(),
            obs: Obs::disabled(),
        })
    }

    /// The prepared query (with the most recent target).
    #[must_use]
    pub fn query(&self) -> &AcqQuery {
        &self.query
    }

    /// A clone of the session's cancellation token. Cancelling it (from any
    /// thread) interrupts the current and any future run until
    /// [`Session::reset_cancellation`].
    #[must_use]
    pub fn cancellation_token(&self) -> CancellationToken {
        self.cancel.clone()
    }

    /// Replaces the (possibly cancelled) token with a fresh one and returns
    /// it; previously handed-out clones no longer affect this session.
    pub fn reset_cancellation(&mut self) -> CancellationToken {
        self.cancel = CancellationToken::new();
        self.cancel.clone()
    }

    /// Sets the execution budget applied to subsequent runs.
    pub fn set_budget(&mut self, budget: ExecutionBudget) {
        self.cfg.budget = budget;
    }

    /// Attaches an observability handle to subsequent runs. Instruments
    /// accumulate *across* runs of this session (counters are never reset);
    /// pass a fresh handle per run for per-run snapshots, or
    /// [`Obs::disabled`] to switch observability off again.
    pub fn set_observability(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The observability handle attached to this session.
    #[must_use]
    pub fn observability(&self) -> &Obs {
        &self.obs
    }

    /// Runs the search for a new aggregate target over the prepared layer.
    pub fn run(&mut self, target: f64) -> Result<AcqOutcome, CoreError> {
        self.query.constraint.target = target;
        acquire_progress(
            &mut *self.eval,
            &self.query,
            &self.cfg,
            &self.cancel,
            &self.obs,
            None,
        )
    }

    /// Runs with a different error threshold `δ` for this run only (the
    /// other knobs — `γ`, the norm — shape the prepared grid and stay
    /// fixed; the session's configured `δ` is restored afterwards).
    pub fn run_with_delta(&mut self, target: f64, delta: f64) -> Result<AcqOutcome, CoreError> {
        let saved = self.cfg.delta;
        self.cfg.delta = delta;
        let out = self.run(target);
        self.cfg.delta = saved;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
    use acq_query::{AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide};

    fn setup() -> (Executor, AcqQuery) {
        let mut b = TableBuilder::new(
            "t",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        )
        .unwrap();
        for i in 0..2_000 {
            b.push_row(vec![
                Value::Float(f64::from(i % 100)),
                Value::Float(f64::from(i / 20)),
            ]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        let q = AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 20.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 20.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 100.0))
            .build()
            .unwrap();
        (Executor::new(cat), q)
    }

    #[test]
    fn successive_targets_reuse_the_prepared_layer() {
        let (mut exec, q) = setup();
        let mut session = Session::new(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        let scanned_after_build = session.eval.stats().tuples_scanned;

        let a = session.run(800.0).unwrap();
        assert!(a.satisfied);
        let b = session.run(1_500.0).unwrap();
        assert!(b.satisfied);
        // No further base-relation scans: only cell-bucket visits, which
        // touch each admissible tuple at most once per search.
        let scanned_after_runs = session.eval.stats().tuples_scanned;
        assert!(
            scanned_after_runs <= scanned_after_build + 4 * 2_000,
            "layers must be reused: {scanned_after_build} -> {scanned_after_runs}"
        );
        // Bigger target needs strictly more refinement.
        assert!(b.best().unwrap().qscore > a.best().unwrap().qscore);
    }

    #[test]
    fn session_matches_one_shot_runs() {
        let (mut exec, q) = setup();
        let cfg = AcquireConfig::default();
        let mut session = Session::new(&mut exec, &q, &cfg, EvalLayerKind::CachedScore).unwrap();
        let via_session = session.run(800.0).unwrap();

        let (mut exec2, mut q2) = setup();
        q2.constraint.target = 800.0;
        let one_shot =
            crate::driver::run_acquire(&mut exec2, &q2, &cfg, EvalLayerKind::CachedScore).unwrap();
        assert_eq!(via_session.satisfied, one_shot.satisfied);
        assert_eq!(
            via_session.best().map(|r| (r.qscore, r.aggregate)),
            one_shot.best().map(|r| (r.qscore, r.aggregate))
        );
    }

    #[test]
    fn delta_can_vary_per_run() {
        let (mut exec, q) = setup();
        let mut session = Session::new(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        let loose = session.run_with_delta(777.0, 0.1).unwrap();
        let tight = session.run_with_delta(777.0, 0.001).unwrap();
        assert!(loose.satisfied);
        if tight.satisfied {
            assert!(tight.best().unwrap().error <= 0.001 + 1e-12);
        }
        // The per-run delta does not stick: a plain run() is back at the
        // session's configured threshold (0.05), not the 0.001 above.
        let after = session.run(777.0).unwrap();
        assert!(after.satisfied);
        assert!(after.best().unwrap().error <= 0.05 + 1e-12);
    }
}
