//! The benchmark's whole surface onto the repository: every `use` of a repo
//! crate, and every name the server exports, sits in this file (a start-up
//! guard enforces it), so a refactor of the crates' public API shows up as a
//! diff here and nowhere else. The wrappers call the innermost public entry
//! points — the ones `acq_serve`'s query handler itself goes through — so the
//! traced pass can time each layer boundary separately.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acq_datagen::{tpch, users, GenConfig};
use acq_engine::{AggState, CellRange, EngineResult, ExecStats};
use acq_obs::{Obs, DEFAULT_TRACE_CAPACITY};
use acq_query::CmpOp;
use acq_serve::ServeConfig;
use acq_sql::Binder;
use acquire_core::{
    acquire_progress, run_contraction_with, CancellationToken, CellCost, EvalLayerKind,
    EvaluationLayer, ParallelCells, ProgressSink, RefinedSpace, DEFAULT_PROGRESS_CAPACITY,
};

pub use acq_engine::{Catalog, Executor};
pub use acq_obs::json::JsonValue;
pub use acq_query::AcqQuery;
pub use acq_serve::Server;
pub use acq_sql::AstQuery;
pub use acquire_core::{AcqOutcome, AcquireConfig, CachedScoreEvaluator};

/// `GET /metrics` series the benchmark scrapes.
pub const METRIC_SHED: &str = "acq_serve_shed_total";
pub const METRIC_QUEUED: &str = "acq_serve_queued_total";
pub const METRIC_DEGRADED: &str = "acq_serve_degraded_total";
pub const METRIC_KEEPALIVE_REUSES: &str = "acq_serve_keepalive_reuses_total";
pub const METRIC_JOURNAL_WRITTEN: &str = "acq_journal_written_total";
pub const METRIC_JOURNAL_DROPPED: &str = "acq_journal_dropped_total";

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// --- datagen ---------------------------------------------------------------

fn gen(rows: usize, seed: u64) -> GenConfig {
    GenConfig::uniform(rows).with_seed(seed)
}

/// The Example 1 `users` table.
pub fn users_catalog(rows: usize, seed: u64) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    catalog
        .register(users::users(&gen(rows, seed)).map_err(text)?)
        .map_err(text)?;
    Ok(catalog)
}

/// `lineitem` alone (`rows` rows).
pub fn lineitem_catalog(rows: usize, seed: u64) -> Result<Catalog, String> {
    tpch::generate_lineitem(&gen(rows, seed)).map_err(text)
}

/// `supplier`, `part`, `partsupp` (`rows` `partsupp` rows).
pub fn q2_catalog(rows: usize, seed: u64) -> Result<Catalog, String> {
    tpch::generate_q2(&gen(rows, seed)).map_err(text)
}

// --- serve -----------------------------------------------------------------

/// The production configuration: the cached-score layer with the journal on,
/// every other knob at its default.
pub fn start_server(catalog: Catalog, journal: &Path) -> Result<Server, String> {
    let config = ServeConfig {
        layer: EvalLayerKind::CachedScore,
        journal_path: Some(journal.to_path_buf()),
        ..ServeConfig::default()
    };
    Server::start(config, catalog).map_err(text)
}

/// What the server runs a request with when its body is only `{"sql": …}`.
pub fn served_config(threads: usize) -> AcquireConfig {
    let serve = ServeConfig::default();
    AcquireConfig {
        gamma: serve.gamma,
        delta: serve.delta,
        ..AcquireConfig::default()
    }
    .with_threads(threads)
}

/// Requests a connection may carry before the server closes it.
pub fn max_requests_per_conn() -> usize {
    ServeConfig::default().max_requests_per_conn
}

/// Blocks until every journal record offered so far is on disk.
pub fn flush_journal(server: &Server) -> bool {
    server
        .state()
        .journal
        .as_ref()
        .is_some_and(|j| j.flush(Duration::from_secs(10)))
}

// --- sql -------------------------------------------------------------------

pub fn parse_sql(sql: &str) -> Result<AstQuery, String> {
    acq_sql::parse(sql).map_err(text)
}

pub fn bind(catalog: &Catalog, ast: &AstQuery) -> Result<AcqQuery, String> {
    Binder::new(catalog).bind(ast).map_err(text)
}

/// Whether the server answers this query on the §7.2 contraction path.
pub fn is_contraction(query: &AcqQuery) -> bool {
    matches!(query.constraint.op, CmpOp::Le | CmpOp::Lt)
}

// --- engine + core ---------------------------------------------------------

/// Fills attribute domains in from table statistics, builds the refined
/// space and returns its per-dimension caps.
pub fn space_caps(
    exec: &Executor,
    query: &mut AcqQuery,
    cfg: &AcquireConfig,
) -> Result<Vec<f64>, String> {
    exec.populate_domains(query).map_err(text)?;
    Ok(RefinedSpace::new(query, cfg).map_err(text)?.caps())
}

/// Resolves the query and materialises its base relation; returns its rows.
pub fn base_relation(exec: &mut Executor, query: &AcqQuery, caps: &[f64]) -> Result<usize, String> {
    let rq = exec.resolve(query).map_err(text)?;
    Ok(exec.base_relation(&rq, caps).map_err(text)?.len())
}

/// Evaluator prepare: base relation, scoring pass, clustering, block stats.
pub fn prepare<'a>(
    exec: &'a mut Executor,
    query: &AcqQuery,
    caps: &[f64],
) -> Result<CachedScoreEvaluator<'a>, String> {
    CachedScoreEvaluator::with_threads(exec, query, caps, 1).map_err(text)
}

/// Expand/Explore with observability off.
pub fn search<E: EvaluationLayer>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, String> {
    let cancel = CancellationToken::new();
    acquire_progress(eval, query, cfg, &cancel, &Obs::disabled(), None).map_err(text)
}

/// Expand/Explore the way the server runs it: a tracing handle and a live
/// progress sink attached.
pub fn search_observed<E: EvaluationLayer>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, String> {
    let cancel = CancellationToken::new();
    let obs = Obs::with_trace(DEFAULT_TRACE_CAPACITY);
    let sink = ProgressSink::new(DEFAULT_PROGRESS_CAPACITY);
    acquire_progress(eval, query, cfg, &cancel, &obs, Some(&sink)).map_err(text)
}

/// The §7.2 contraction search, evaluator construction included.
pub fn contract(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, String> {
    let cancel = CancellationToken::new();
    run_contraction_with(exec, query, cfg, EvalLayerKind::CachedScore, &cancel).map_err(text)
}

/// The engine counters the report carries, by name.
pub fn stat_fields(stats: &ExecStats) -> Vec<(&'static str, u64)> {
    stats.fields().to_vec()
}

/// The correctness oracle: recompiles `sql` and aggregates it by one full
/// scan of its unrefined base relation, sharing nothing with the cell path.
/// Returns the aggregate and its error against the query's own constraint.
pub fn full_scan(catalog: &Catalog, sql: &str) -> Result<(f64, f64), String> {
    let mut query = bind(catalog, &parse_sql(sql)?)?;
    let mut exec = Executor::new(catalog.clone());
    exec.populate_domains(&mut query).map_err(text)?;
    let rq = exec.resolve(&query).map_err(text)?;
    let rel = exec
        .base_relation(&rq, &vec![0.0; query.dims()])
        .map_err(text)?;
    let value = exec
        .original_aggregate(&rq, &rel)
        .map_err(text)?
        .value()
        .ok_or("aggregate undefined over zero tuples")?;
    Ok((value, query.error_fn.error(query.constraint.target, value)))
}

/// A decorator around an evaluation layer that times every cell and full
/// aggregate call. Only the traced pass uses it; its own cost is reported as
/// `trace.overhead_pct`.
pub struct TimedLayer<'e, E> {
    inner: &'e mut E,
    // Relaxed: independent tallies, read after the search has returned.
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl<'e, E: EvaluationLayer> TimedLayer<'e, E> {
    pub fn new(inner: &'e mut E) -> Self {
        Self {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Total time inside the wrapped layer and the number of calls.
    pub fn totals(&self) -> (Duration, u64) {
        (
            Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            self.calls.load(Ordering::Relaxed),
        )
    }

    fn record(&self, since: Instant) {
        self.busy_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<E: EvaluationLayer + Sync> EvaluationLayer for TimedLayer<'_, E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let t = Instant::now();
        let out = self.inner.cell_aggregate(cell);
        self.record(t);
        out
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        let t = Instant::now();
        let out = self.inner.full_aggregate(bounds);
        self.record(t);
        out
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

    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }
}

impl<E: EvaluationLayer + Sync> ParallelCells for TimedLayer<'_, E> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        let t = Instant::now();
        let out = match self.inner.parallel_cells() {
            Some(shared) => shared.cell_aggregate_shared(cell),
            None => unreachable!("parallel_cells() is None whenever the inner layer's is"),
        };
        self.record(t);
        out
    }
}

// --- obs -------------------------------------------------------------------

pub fn json_parse(text_in: &str) -> Result<JsonValue, String> {
    acq_obs::json::parse(text_in).map_err(text)
}
