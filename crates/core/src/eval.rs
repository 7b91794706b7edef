//! Evaluation layers: the modular execution backend of Fig. 2.
//!
//! *"We delegate all actual query execution tasks to an evaluation layer,
//! which in this case is Postgres. However, the evaluation layer is modular
//! and can be replaced with other techniques such as estimation, and/or
//! sampling."* (§3)
//!
//! Two implementations:
//!
//! * [`ScanEvaluator`] — every cell query re-executes against the engine
//!   (scan + per-tuple scoring over the materialised base relation). This is
//!   the faithful model of the paper's Postgres deployment and the honest
//!   cost baseline.
//! * [`CachedScoreEvaluator`] — scores every tuple once at construction
//!   (no re-join / re-decode per query) and folds every occupied cell of
//!   the searched grid once, so a cell query is a lookup that touches no
//!   tuples and **empty cells are skipped without any execution**: the §7.4
//!   bitmap-grid-index idea applied in score space, storing each cell's
//!   answer instead of its rows. A cell the table cannot answer filters the
//!   cached score matrix.
//!
//! What the cached layer precomputes depends on the predicates and the
//! grid, not on the target, so it is an immutable product of its own
//! (`Prepared`) that the evaluator holds by `Arc`: the score matrix and —
//! given the grid's step — the cell table. `prepare_layer`, the one place
//! layers are built, always gives the step and can take the product out of
//! a [`PreparedCache`] instead of building it.
//!
//! Every layer folds a cell's rows in relation order: the matrix keeps its
//! admissible rows in base-relation order, the table folds each cell's rows
//! in that order, and so does the matrix filter, so the cached layer returns
//! the scan layer's bits on every aggregate. A cell that is not exactly one
//! of the grid's cells is filtered.

use std::sync::Arc;

use acq_engine::{
    AggState, BoundQuery, CellRange, EngineResult, ExecStats, Executor, Relation, ResolvedQuery,
    TableScores, UdaRegistry,
};
use acq_obs::Obs;
use acq_query::{AcqQuery, AggFunc, AggregateSpec};

use crate::config::AcquireConfig;
use crate::driver::isolated;
use crate::error::CoreError;
use crate::fasthash::FastMap;
use crate::prepared::{BaseKey, PreparedCache, PreparedKey, Served};
use crate::space::RefinedSpace;

/// Deferred work accounting for one speculatively executed cell query.
///
/// The parallel Explore phase executes cells on worker threads through
/// [`ParallelCells::cell_aggregate_shared`], which must not touch the
/// layer's shared [`ExecStats`]. Instead each execution returns its cost,
/// and the driver applies it via [`EvaluationLayer::commit_cell_cost`] in
/// emission order — so the stats on an [`crate::AcqOutcome`] are
/// bit-identical to a serial run, and speculative work that is never
/// committed (e.g. cells prefetched past an interrupt) is never counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCost {
    /// Tuples scanned answering the cell query.
    pub tuples_scanned: u64,
    /// Grid-index probes performed.
    pub index_probes: u64,
    /// Cells skipped as provably empty (§7.4).
    pub cells_skipped: u64,
}

impl CellCost {
    /// Folds this cost (plus the implied one cell query) into `stats`.
    pub(crate) fn apply(&self, stats: &mut ExecStats) {
        stats.cell_queries += 1;
        stats.tuples_scanned += self.tuples_scanned;
        stats.index_probes += self.index_probes;
        stats.cells_skipped += self.cells_skipped;
    }
}

/// Shared-state cell evaluation for the parallel Explore phase.
///
/// Implementations are called concurrently from worker threads and must be
/// pure with respect to observable layer state: the same cell always
/// produces the same `(state, cost)`, and no call mutates anything another
/// call (or a later serial call) can see. All accounting is deferred to
/// [`EvaluationLayer::commit_cell_cost`].
pub trait ParallelCells: Sync {
    /// Aggregate of the tuples whose refinement-score vector lies in
    /// `cell`, plus the work performed computing it.
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)>;
}

/// A backend able to answer cell queries and full refined-query aggregates
/// for one ACQ search.
pub trait EvaluationLayer {
    /// Aggregate of the tuples whose refinement-score vector lies in `cell`.
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState>;
    /// Aggregate of the tuples in the cell of `space`'s grid point `point`
    /// (the cell [`RefinedSpace::cell`] describes): what the search loop
    /// asks for every point it explores. The default builds the cell's
    /// ranges and calls [`EvaluationLayer::cell_aggregate`]; a layer holding
    /// the grid's folded cells answers by coordinates instead, with the same
    /// state and the same accounting.
    fn grid_cell_aggregate(
        &mut self,
        space: &RefinedSpace,
        point: &[u32],
    ) -> EngineResult<AggState> {
        self.cell_aggregate(&space.cell(point))
    }
    /// Aggregate of the tuples admitted when each flexible predicate `k` is
    /// refined by `bounds[k]` percent (used by repartitioning and by the
    /// baseline techniques).
    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState>;
    /// An identity aggregate state.
    fn empty_state(&self) -> EngineResult<AggState>;
    /// Work counters accumulated so far.
    fn stats(&self) -> ExecStats;
    /// Size of the materialised tuple universe.
    fn universe_size(&self) -> usize;
    /// The layer's shared-state handle for concurrent cell evaluation, if it
    /// supports one. Layers returning `None` (the default) are always driven
    /// serially, whatever [`crate::config::Parallelism`] says.
    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        None
    }
    /// Applies the deferred accounting of one committed speculative cell
    /// (see [`ParallelCells::cell_aggregate_shared`]). The driver calls this
    /// in emission order. The default is a no-op, matching the default
    /// `parallel_cells()` of `None`.
    fn commit_cell_cost(&mut self, cost: &CellCost) {
        let _ = cost;
    }
    /// Names the grid of the search about to run: the search loop calls it
    /// once, before its first cell query, with the grid's step
    /// ([`crate::RefinedSpace::step`]). A layer that can answer that grid's
    /// cells from an index it folds once does so here. It changes no answer
    /// and counts nothing in [`ExecStats`]; the default does nothing.
    fn use_grid(&mut self, step: f64) {
        let _ = step;
    }
    /// A short stable identifier for this layer, recorded as run metadata
    /// by observability.
    fn kind_name(&self) -> &'static str {
        "custom"
    }
}

/// Selects which evaluation layer [`crate::run_acquire`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalLayerKind {
    /// Re-execute every cell query (the paper's Postgres-style deployment).
    Scan,
    /// Score every tuple once and fold every occupied grid cell once; skip
    /// empty cells without execution (§7.4).
    CachedScore,
}

impl std::str::FromStr for EvalLayerKind {
    type Err = String;

    /// Parses a layer name as the command lines spell it: `scan` or
    /// `cached`.
    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "scan" => Ok(Self::Scan),
            "cached" => Ok(Self::CachedScore),
            other => Err(format!("unknown layer {other} (expected scan | cached)")),
        }
    }
}

/// A prepared evaluation layer of whichever [`EvalLayerKind`] was asked for.
pub(crate) type PreparedLayer<'e> = Box<dyn EvaluationLayer + Send + 'e>;

/// The one place a layer is built from an [`EvalLayerKind`]: fills `query`'s
/// predicate domains from catalog statistics, sizes the refined space and
/// constructs the layer with the space's caps, scoring on
/// `cfg.parallelism`'s workers. Returns the domain-populated query the
/// layer was built for beside it.
/// [`crate::run_acquire_progress`], [`crate::run_contraction_with`] and
/// [`crate::Session::new`] all come through here, so every path honours the
/// same configuration.
///
/// With a `cache`, the score matrix and cell table under the cached layer
/// are looked up there first and shared with every other request over
/// the same predicate set (see [`PreparedCache`]); the layer handed back,
/// its counters included, is the one a fresh build would have produced.
/// [`ScanEvaluator`] models a backend that keeps nothing between queries and
/// is always built fresh. With a tracing `obs` the construction leaves one
/// `prepare:` span saying whether it was a hit or a build.
///
/// The build runs inside the driver's panic boundary: a scoring worker or an
/// engine invariant that panics comes back as [`CoreError::EvalPanicked`].
pub(crate) fn prepare_layer<'e>(
    exec: &'e mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
    cache: Option<&PreparedCache>,
    obs: &Obs,
) -> Result<(AcqQuery, PreparedLayer<'e>), CoreError> {
    let mut query = query.clone();
    exec.populate_domains(&mut query)?;
    let space = RefinedSpace::new(&query, cfg)?;
    let caps = &space.caps();
    let (threads, step) = (cfg.parallelism.workers(), space.step());
    let searched = &query;
    // The product under the cached layer, its cell table folded for this
    // space's grid: from the cache when there is one, built here otherwise.
    let shared = |exec: &mut Executor| -> EngineResult<Arc<Prepared>> {
        let started = obs.uptime();
        let build =
            |exec: &mut Executor| Prepared::build(exec, searched, caps, Some(step), threads, cache);
        let (prepared, served) = match cache {
            Some(cache) => {
                let key = PreparedKey::new(exec, searched, caps, step)?;
                cache.layer(key, || build(exec))?
            }
            None => (Arc::new(build(exec)?), Served::Built),
        };
        obs.trace_span(0, obs.uptime().saturating_sub(started), || {
            let (bytes, cells) = (prepared.bytes(), prepared.cells());
            // What this request's build did for its level one; a hit built
            // nothing.
            let base = match (served, prepared.base) {
                (Served::Built, Some(base)) => format!(", base {base}"),
                _ => String::new(),
            };
            format!("prepare: {served}, {bytes} bytes, {cells} cells{base}")
        });
        Ok(prepared)
    };
    let eval = isolated(move || -> EngineResult<PreparedLayer<'e>> {
        Ok(match kind {
            EvalLayerKind::Scan => Box::new(ScanEvaluator::new(exec, searched, caps)?),
            EvalLayerKind::CachedScore => {
                let prepared = shared(exec)?;
                Box::new(CachedScoreEvaluator::over(exec, searched, prepared))
            }
        })
    })?;
    Ok((query, eval))
}

// ---------------------------------------------------------------------------
// ScanEvaluator
// ---------------------------------------------------------------------------

/// Re-executes every cell/full query against the engine.
#[derive(Debug)]
pub struct ScanEvaluator<'a> {
    exec: &'a mut Executor,
    rq: ResolvedQuery,
    rel: Relation,
}

impl<'a> ScanEvaluator<'a> {
    /// Materialises the base relation for `query` with the given per-flexible
    /// -predicate PScore caps and wraps it for repeated execution.
    pub fn new(exec: &'a mut Executor, query: &AcqQuery, caps: &[f64]) -> EngineResult<Self> {
        let rq = exec.resolve(query)?;
        let rel = exec.base_relation(&rq, caps)?;
        Ok(Self { exec, rq, rel })
    }
}

impl EvaluationLayer for ScanEvaluator<'_> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let (state, cost) = self.cell_aggregate_shared(cell)?;
        self.commit_cell_cost(&cost);
        Ok(state)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.exec.full_aggregate(&self.rq, &self.rel, bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        AggState::empty(&self.rq.query.constraint.spec, self.exec.uda_registry())
    }

    fn stats(&self) -> ExecStats {
        self.exec.stats()
    }

    fn universe_size(&self) -> usize {
        self.rel.len()
    }

    fn kind_name(&self) -> &'static str {
        "scan"
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        Some(self)
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        cost.apply(self.exec.stats_mut());
    }
}

impl ParallelCells for ScanEvaluator<'_> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        let (state, tuples_scanned) = self.exec.cell_aggregate_shared(&self.rq, &self.rel, cell)?;
        let cost = CellCost {
            tuples_scanned,
            ..CellCost::default()
        };
        Ok((state, cost))
    }
}

// ---------------------------------------------------------------------------
// Shared score-matrix machinery
// ---------------------------------------------------------------------------

/// The most buckets per dimension a cell table is built for, over `n`
/// rows: past it the grid is too fine for a table to pay.
fn radix_limit(n: usize) -> usize {
    (2 * n).max(4096)
}

/// Per-tuple scores and aggregate inputs, computed once.
///
/// Rows are the base relation's admissible rows in relation order, whatever
/// the thread count that scored them: the order [`ScanEvaluator`] folds
/// them in. Every consumer folds a cell's rows in that order, so the cached
/// layer's answers are the scan layer's bits on every aggregate.
#[derive(Debug)]
struct ScoreMatrix {
    /// Flattened `n × d` refinement scores of admissible tuples.
    scores: Vec<f64>,
    /// Aggregate-column value per admissible tuple.
    vals: Vec<f64>,
    d: usize,
}

impl ScoreMatrix {
    /// Scores every tuple of `rel` a predicate at a time
    /// ([`BoundQuery::score_rows`], gathering the per-table columns of
    /// `memo`, which it first completes with [`BoundQuery::memoise`]) on
    /// `threads` worker threads (the calling thread alone for
    /// `threads <= 1` or a tiny relation), then drops the rows that are not
    /// admissible. Deterministic: each worker scores one contiguous row
    /// chunk in place, and the rows kept stay in relation order, so the
    /// matrix is identical for every thread count.
    fn build(bound: &BoundQuery, rel: &Relation, memo: &mut TableScores, threads: usize) -> Self {
        let (n, d) = (rel.len(), bound.dims());
        let mut scores = vec![0.0; n * d];
        let mut vals = vec![0.0; n];
        let mut kept = vec![true; n];
        // The columns come after the matrix's own buffers: a transient
        // buffer freed past the matrix, at the top of the heap, is handed
        // back to the system and faulted in again by whatever is built
        // next. With the
        // columns allocated first, a `join_sum` base relation built right
        // after a layer took ≈ 900 more minor faults and 1.3 ms more
        // (glibc malloc, 2 vCPUs).
        bound.memoise(rel, memo);
        let memo = &*memo;
        if threads <= 1 || n < 2 * threads {
            bound.score_rows(rel, 0, memo, &mut scores, &mut vals, &mut kept);
        } else {
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                let (mut s, mut v, mut k) = (&mut scores[..], &mut vals[..], &mut kept[..]);
                let mut handles = Vec::with_capacity(threads);
                for lo in (0..n).step_by(chunk) {
                    let len = chunk.min(n - lo);
                    let (s0, s1) = std::mem::take(&mut s).split_at_mut(len * d);
                    let (v0, v1) = std::mem::take(&mut v).split_at_mut(len);
                    let (k0, k1) = std::mem::take(&mut k).split_at_mut(len);
                    (s, v, k) = (s1, v1, k1);
                    handles.push(scope.spawn(move || bound.score_rows(rel, lo, memo, s0, v0, k0)));
                }
                for h in handles {
                    // A worker panic propagates as a panic on this thread;
                    // `prepare_layer` runs every build under the driver's
                    // isolation, which turns it into a typed error.
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                }
            });
        }
        // Compact only if a row was dropped; the capacity stays what the
        // whole relation needed.
        if kept.contains(&false) {
            let mut w = 0;
            for (r, _) in kept.iter().enumerate().filter(|(_, &keep)| keep) {
                scores.copy_within(r * d..(r + 1) * d, w * d);
                vals[w] = vals[r];
                w += 1;
            }
            scores.truncate(w * d);
            vals.truncate(w);
        }
        Self { scores, vals, d }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    /// Heap bytes held: what one retained matrix costs a [`PreparedCache`].
    fn bytes(&self) -> usize {
        (self.scores.capacity() + self.vals.capacity()) * std::mem::size_of::<f64>()
    }

    /// Folds the rows whose score vector lies in `cell` into `state`, in
    /// row order, and returns the deferred accounting: every row is read.
    fn cell_scan_into(&self, cell: &[CellRange], state: &mut AggState) -> CellCost {
        for i in 0..self.len() {
            if self.row(i).iter().zip(cell).all(|(s, r)| r.contains(*s)) {
                state.update(self.vals[i]);
            }
        }
        CellCost {
            tuples_scanned: self.len() as u64,
            ..CellCost::default()
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.scores[i * self.d..(i + 1) * self.d]
    }

    /// Folds every tuple admitted by `bounds` into `state` (the full-query
    /// scan of the cached-score layer).
    fn full_aggregate_into(&self, bounds: &[f64], state: &mut AggState) {
        for i in 0..self.len() {
            if self.row(i).iter().zip(bounds).all(|(s, b)| s <= b) {
                state.update(self.vals[i]);
            }
        }
    }
}

/// The grid coordinate whose cell `(k-1)·step < s <= k·step` (with the
/// `s == 0 -> 0` convention) contains score `s`. Snapped so that the bucket
/// agrees with the comparison semantics of [`CellRange::contains`] even at
/// floating-point boundaries.
#[inline]
fn bucket_of(s: f64, step: f64) -> u32 {
    if s <= 0.0 {
        return 0;
    }
    // A guess within one of the answer, by truncation: `ceil` is a library
    // call on targets without a rounding instruction (x86-64's baseline).
    let mut k = ((s * (1.0 / step)) as u32).saturating_add(1);
    // Snap to comparison-consistent bucket: the cell test is
    // (k-1)*step < s <= k*step with multiplied bounds.
    while k > 1 && s <= f64::from(k - 1) * step {
        k -= 1;
    }
    while s > f64::from(k) * step {
        k += 1;
    }
    k
}

/// The grid coordinate of `range` on a grid of `step`, if `range` is
/// exactly that coordinate's cell as [`crate::RefinedSpace::cell`] builds
/// it; `None` for any other range.
fn aligned_coordinate(range: &CellRange, step: f64) -> Option<u32> {
    match *range {
        CellRange::Zero => Some(0),
        CellRange::Open { lo, hi } => {
            let u = (hi / step).round() as u32;
            (u >= 1 && f64::from(u - 1) * step == lo && f64::from(u) * step == hi).then_some(u)
        }
    }
}

/// Every occupied cell of one grid, folded once: the §7.4 grid index as
/// answers rather than row lists. A cell's state folds its rows in stored
/// order — relation order, the order both scans fold them in — so a lookup
/// returns the scans' bits.
#[derive(Debug)]
struct CellTable {
    step: f64,
    /// Per dimension: one past the greatest coordinate any row reaches.
    radix: Vec<u64>,
    /// Each occupied cell's index in `states`, keyed by its coordinates
    /// read as one mixed-radix number.
    slots: FastMap<u64, u32>,
    /// The occupied cells' rows, folded, in the order the cells first occur.
    states: Vec<AggState>,
    /// What an unoccupied cell answers.
    empty: AggState,
}

/// A dimension whose scores a [`ScoreMatrix`] gathered from a per-table
/// column ([`BoundQuery::dimension_column`]): the relation it scored, the
/// position there of the table whose row ids index the column, and the
/// column.
type Gathered<'a> = (&'a Relation, usize, &'a [f64]);

impl CellTable {
    /// Folds `matrix`'s rows from `empty`, the aggregate's identity state,
    /// into their cells on the grid of `step`, in stored order. `None` when
    /// the coordinates span more buckets than a table is built for.
    ///
    /// Each row is read once, in order, and lands in its cell's state
    /// through a map keyed by the cell's coordinates read as one mixed-radix
    /// number. Sorting the rows by cell first would give the same states, at
    /// the price of random reads over every row that cost more than the
    /// fold itself.
    ///
    /// A row's coordinate is `bucket_of` its score, except on a dimension
    /// `gathered` names (by dimension; a short slice names none) while the
    /// matrix holds every row of that relation: `bucket_of` is monotone, so
    /// that dimension is bucketed once per row of its table — every score
    /// within the greatest one the matrix holds, which sets the radix — and
    /// each row reads its coordinate by row id, as the matrix read its
    /// score.
    fn build(
        matrix: &ScoreMatrix,
        step: f64,
        empty: AggState,
        gathered: &[Option<Gathered<'_>>],
    ) -> Option<Self> {
        let d = matrix.d;
        if d == 0 {
            return None;
        }
        // Dimension `k`'s coordinates run from 0 to its greatest score's; a
        // cell's key reads them as one mixed-radix number, which must fit.
        let mut top = vec![0.0f64; d];
        for scores in matrix.scores.chunks_exact(d) {
            for (top, &s) in top.iter_mut().zip(scores) {
                *top = top.max(s);
            }
        }
        let mut radix = Vec::with_capacity(d);
        let mut room = 1u64;
        for &top in &top {
            let r = bucket_of(top, step) as usize + 1;
            if r > radix_limit(matrix.len()) {
                return None;
            }
            room = room.checked_mul(r as u64)?;
            radix.push(r as u64);
        }
        let table_buckets: Vec<Option<(&Relation, usize, Vec<u32>)>> = (0..d)
            .map(|k| {
                let (rel, t, col) = gathered.get(k).copied().flatten()?;
                // A score past the top is a row outside the matrix, whose
                // coordinate is never read.
                let bucket = |&s: &f64| {
                    if s <= top[k] {
                        bucket_of(s, step)
                    } else {
                        u32::MAX
                    }
                };
                (rel.len() == matrix.len()).then(|| (rel, t, col.iter().map(bucket).collect()))
            })
            .collect();
        let mut slots: FastMap<u64, u32> = FastMap::default();
        let mut states = Vec::new();
        let rows = matrix.scores.chunks_exact(d).zip(&matrix.vals);
        for (i, (scores, &v)) in rows.enumerate() {
            let mut key = 0u64;
            for ((&s, &r), table) in scores.iter().zip(&radix).zip(&table_buckets) {
                let u = match table {
                    Some((rel, t, buckets)) => buckets[rel.base_row(i, *t) as usize],
                    None => bucket_of(s, step),
                };
                debug_assert_eq!(u, bucket_of(s, step));
                key = key * r + u64::from(u);
            }
            let slot = *slots.entry(key).or_insert_with(|| {
                states.push(empty.clone());
                (states.len() - 1) as u32
            });
            states[slot as usize].update(v);
        }
        Some(Self {
            step,
            radix,
            slots,
            states,
            empty,
        })
    }

    /// The folded state of the cell at `coords`, `Some(None)` for an
    /// unoccupied one — a coordinate at or past its dimension's radix is a
    /// cell no row reaches — and `None` if any coordinate is `None`.
    fn at(&self, coords: impl Iterator<Item = Option<u32>>) -> Option<Option<&AggState>> {
        let key = coords
            .zip(&self.radix)
            .try_fold(Some(0u64), |key, (u, &r)| {
                let u = u64::from(u?);
                Some(key.filter(|_| u < r).map(|key| key * r + u))
            })?;
        Some(key.and_then(|key| Some(&self.states[*self.slots.get(&key)? as usize])))
    }

    /// The folded state of `cell`, `Some(None)` for an unoccupied one, if
    /// every range of `cell` is exactly a cell of this grid; `None`
    /// otherwise.
    fn lookup(&self, cell: &[CellRange]) -> Option<Option<&AggState>> {
        if cell.len() != self.radix.len() {
            return None;
        }
        self.at(cell.iter().map(|r| aligned_coordinate(r, self.step)))
    }

    /// The answer to a cell query from the table: a lookup that costs one
    /// index probe (and counts a skipped cell when it finds nothing) and
    /// touches no tuples.
    fn answer(&self, found: Option<&AggState>) -> (AggState, CellCost) {
        let cost = CellCost {
            index_probes: 1,
            cells_skipped: u64::from(found.is_none()),
            ..CellCost::default()
        };
        (found.unwrap_or(&self.empty).clone(), cost)
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    /// Heap bytes held, the map's approximately (an entry and a control
    /// byte per slot of capacity).
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.states.capacity() * size_of::<AggState>()
            + self.slots.capacity() * (size_of::<(u64, u32)>() + 1)
            + self.radix.capacity() * size_of::<u64>()
    }
}

/// What preparing a cached layer builds, immutable from then on: every
/// search over the same predicate set and grid can stand on the same one,
/// whatever its target, `δ`, budget or thread count.
#[derive(Debug)]
pub(crate) struct Prepared {
    matrix: ScoreMatrix,
    /// Every occupied cell of the grid the product was built for, folded;
    /// `None` for a build without a grid, for a user-defined aggregate and
    /// wherever [`CellTable::build`] declines.
    table: Option<Arc<CellTable>>,
    /// The [`ExecStats`] the build cost, its level one's included. Every
    /// evaluator over this product adds it to its own executor's counters —
    /// the one that ran the build and the ones handed the result alike — so
    /// an outcome's `stats` say what its answers rest on, not which request
    /// happened to do the work (see DESIGN, "Prepared layers and the
    /// determinism contract").
    receipt: ExecStats,
    /// How the build came by its level-one base relation: `None` when it
    /// built one with no cache to share it through, one with no join, or
    /// one its caps cut.
    base: Option<Served>,
}

impl Prepared {
    /// The one place that runs resolve → base relation → score matrix:
    /// materialises `query`'s tuple universe within `caps` and scores it on
    /// `threads` workers — then, given the grid's `step`, folds every
    /// occupied cell of that grid once. The universe's level one
    /// ([`Executor::structural`]) comes out of `cache` when the query joins
    /// and `caps` keep every row of its tables — then the uncapped level
    /// one is the capped one — and is built there (and offered to the
    /// cache) if the cache lacks it; otherwise it is built with the caps.
    /// [`Executor::refine`] then runs the refinable joins. The caps check
    /// reads per-table score columns ([`Executor::table_scores`]), one
    /// score per table row, and the scoring gathers those — and scores
    /// every other table with fewer rows than the universe the same way —
    /// so a dimension row is scored once, not once per tuple it joins, and
    /// the cell fold buckets it once too. The columns are dropped with the
    /// build; the product keeps none. Not for a
    /// user-defined aggregate: its fold belongs to the registry of whichever
    /// executor asks, and a product may be shared between executors, so its
    /// evaluator folds the table itself (see [`EvaluationLayer::use_grid`]).
    pub(crate) fn build(
        exec: &mut Executor,
        query: &AcqQuery,
        caps: &[f64],
        step: Option<f64>,
        threads: usize,
        cache: Option<&PreparedCache>,
    ) -> EngineResult<Self> {
        let rq = exec.resolve(query)?;
        let base = match cache {
            Some(cache) => BaseKey::new(exec, query)?.map(|key| (cache, key)),
            None => None,
        };
        // A query whose level one may come from the cache scores its
        // flexible table-local predicates once per table row, for the caps
        // check and then for the scoring, which gathers them.
        let mut columns = match base {
            Some(_) => exec.table_scores(&rq)?,
            None => TableScores::default(),
        };
        let (structural, base) = match base.filter(|_| columns.caps_keep_every_row(&rq, caps)) {
            Some((cache, key)) => {
                let (structural, served) = cache.base(key, || exec.structural(&rq, None))?;
                (structural, Some(served))
            }
            None => (Arc::new(exec.structural(&rq, Some(caps))?), None),
        };
        // The build counts into a zeroed block of its own: the receipt.
        let outer = std::mem::take(exec.stats_mut());
        let refined = exec.refine(&structural, &rq, caps);
        let mut receipt = std::mem::replace(exec.stats_mut(), outer);
        let rel = refined?;
        receipt.tuples_scanned += rel.len() as u64;
        let bound = rq.bind(&rel)?;
        let matrix = ScoreMatrix::build(&bound, &rel, &mut columns, threads);
        let spec = &query.constraint.spec;
        let table = match step {
            Some(step) if !matches!(spec.func, AggFunc::Uda(_)) => {
                let gathered: Vec<Option<Gathered<'_>>> = (0..bound.dims())
                    .map(|k| {
                        bound
                            .dimension_column(k, &rel, &columns)
                            .map(|(t, col)| (&rel, t, col))
                    })
                    .collect();
                let empty = AggState::empty(spec, &UdaRegistry::default())?;
                CellTable::build(&matrix, step, empty, &gathered)
            }
            _ => None,
        };
        Ok(Self {
            table: table.map(Arc::new),
            matrix,
            receipt,
            base,
        })
    }

    /// Heap bytes this product holds.
    pub(crate) fn bytes(&self) -> usize {
        self.matrix.bytes() + self.table.as_ref().map_or(0, |t| t.bytes())
    }

    /// Occupied cells folded in the product's table.
    pub(crate) fn cells(&self) -> usize {
        self.table.as_ref().map_or(0, |t| t.len())
    }

    /// A one-dimensional all-zero product of `rows` rows that cost nothing.
    #[cfg(test)]
    pub(crate) fn stub(rows: usize) -> Self {
        Self {
            matrix: ScoreMatrix {
                scores: vec![0.0; rows],
                vals: vec![0.0; rows],
                d: 1,
            },
            table: None,
            receipt: ExecStats::default(),
            base: None,
        }
    }
}

// ---------------------------------------------------------------------------
// CachedScoreEvaluator
// ---------------------------------------------------------------------------

/// Caches per-tuple scores; a cell query of the grid a search names is a
/// lookup in a table of that grid's folded cells, any other a filter over
/// the cache.
#[derive(Debug)]
pub struct CachedScoreEvaluator<'a> {
    exec: &'a mut Executor,
    spec: AggregateSpec,
    prepared: Arc<Prepared>,
    /// The folded cells of the grid last named: the product's own when it
    /// was built for that grid, else folded by [`EvaluationLayer::use_grid`].
    table: Option<Arc<CellTable>>,
}

impl<'a> CachedScoreEvaluator<'a> {
    /// Builds the evaluator (one base-relation materialisation plus one
    /// scoring pass). It knows no grid until a search names one, so until
    /// then every cell query is a scan of the score matrix.
    pub fn new(exec: &'a mut Executor, query: &AcqQuery, caps: &[f64]) -> EngineResult<Self> {
        Self::with_threads(exec, query, caps, 1)
    }

    /// Like [`CachedScoreEvaluator::new`] but scores tuples on `threads`
    /// worker threads (deterministic; identical matrix to a serial build).
    pub fn with_threads(
        exec: &'a mut Executor,
        query: &AcqQuery,
        caps: &[f64],
        threads: usize,
    ) -> EngineResult<Self> {
        let prepared = Arc::new(Prepared::build(exec, query, caps, None, threads, None)?);
        Ok(Self::over(exec, query, prepared))
    }

    /// The evaluator over an already built product for `query`.
    fn over(exec: &'a mut Executor, query: &AcqQuery, prepared: Arc<Prepared>) -> Self {
        *exec.stats_mut() += prepared.receipt;
        Self {
            exec,
            spec: query.constraint.spec.clone(),
            table: prepared.table.clone(),
            prepared,
        }
    }
}

impl EvaluationLayer for CachedScoreEvaluator<'_> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let (state, cost) = self.cell_aggregate_shared(cell)?;
        self.commit_cell_cost(&cost);
        Ok(state)
    }

    fn grid_cell_aggregate(
        &mut self,
        space: &RefinedSpace,
        point: &[u32],
    ) -> EngineResult<AggState> {
        let answered = self
            .table
            .as_deref()
            .filter(|t| t.step == space.step() && t.radix.len() == point.len())
            .and_then(|t| Some(t.answer(t.at(point.iter().copied().map(Some))?)));
        let Some((state, cost)) = answered else {
            return self.cell_aggregate(&space.cell(point));
        };
        self.commit_cell_cost(&cost);
        Ok(state)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        let stats = self.exec.stats_mut();
        stats.full_queries += 1;
        stats.tuples_scanned += self.prepared.matrix.len() as u64;
        let mut state = self.empty_state()?;
        self.prepared.matrix.full_aggregate_into(bounds, &mut state);
        Ok(state)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        AggState::empty(&self.spec, self.exec.uda_registry())
    }

    fn stats(&self) -> ExecStats {
        self.exec.stats()
    }

    fn universe_size(&self) -> usize {
        self.prepared.matrix.len()
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        Some(self)
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        cost.apply(self.exec.stats_mut());
    }

    fn use_grid(&mut self, step: f64) {
        if self.table.as_ref().is_none_or(|t| t.step != step) {
            // From this executor's own identity state, so a user-defined
            // aggregate folds through this executor's registry.
            let table = self
                .empty_state()
                .ok()
                .and_then(|empty| CellTable::build(&self.prepared.matrix, step, empty, &[]));
            self.table = table.map(Arc::new);
        }
    }

    fn kind_name(&self) -> &'static str {
        "cached-score"
    }
}

impl ParallelCells for CachedScoreEvaluator<'_> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        let table = self.table.as_deref();
        if let Some((t, found)) = table.and_then(|t| Some((t, t.lookup(cell)?))) {
            return Ok(t.answer(found));
        }
        let mut state = self.empty_state()?;
        let cost = self.prepared.matrix.cell_scan_into(cell, &mut state);
        Ok((state, cost))
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
        for i in 0..100 {
            b.push_row(vec![
                Value::Float(f64::from(i)),
                Value::Float(f64::from(i) * 2.0),
            ]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        let q = AcqQuery::builder()
            .table("t")
            .predicate(
                Predicate::select(
                    ColRef::new("t", "x"),
                    Interval::new(0.0, 20.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 99.0)),
            )
            .predicate(
                Predicate::select(
                    ColRef::new("t", "y"),
                    Interval::new(0.0, 40.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 198.0)),
            )
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 40.0))
            .build()
            .unwrap();
        (Executor::new(cat), q)
    }

    fn caps() -> Vec<f64> {
        vec![500.0, 500.0]
    }

    #[test]
    fn all_layers_agree_on_cells_and_fulls() {
        let step = 5.0;
        let cells: Vec<Vec<CellRange>> = vec![
            vec![CellRange::Zero, CellRange::Zero],
            vec![CellRange::Open { lo: 0.0, hi: step }, CellRange::Zero],
            vec![
                CellRange::Open { lo: 0.0, hi: step },
                CellRange::Open {
                    lo: step,
                    hi: 2.0 * step,
                },
            ],
            vec![
                CellRange::Open { lo: 45.0, hi: 50.0 },
                CellRange::Open { lo: 45.0, hi: 50.0 },
            ],
        ];
        let bounds: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![10.0, 5.0], vec![100.0, 250.0]];

        let (mut e1, q) = setup();
        let mut scan = ScanEvaluator::new(&mut e1, &q, &caps()).unwrap();
        let (mut e2, _) = setup();
        let mut cached = CachedScoreEvaluator::new(&mut e2, &q, &caps()).unwrap();
        let (mut e3, _) = setup();
        let mut table = table_layer(&mut e3, &q, &caps(), step);

        for cell in &cells {
            let a = scan.cell_aggregate(cell).unwrap().value();
            let b = cached.cell_aggregate(cell).unwrap().value();
            let c = table.cell_aggregate(cell).unwrap().value();
            assert_eq!(a, b, "cell {cell:?}");
            assert_eq!(a, c, "cell {cell:?}");
        }
        for b in &bounds {
            let x = scan.full_aggregate(b).unwrap().value();
            let y = cached.full_aggregate(b).unwrap().value();
            let z = table.full_aggregate(b).unwrap().value();
            assert_eq!(x, y, "bounds {b:?}");
            assert_eq!(x, z, "bounds {b:?}");
        }
    }

    #[test]
    fn the_cell_table_skips_empty_cells() {
        let (mut exec, q) = setup();
        let mut table = table_layer(&mut exec, &q, &caps(), 5.0);
        // x and y are perfectly correlated (y = 2x); most off-diagonal cells
        // are empty.
        let empty = vec![
            CellRange::Open { lo: 0.0, hi: 5.0 },
            CellRange::Open {
                lo: 400.0,
                hi: 405.0,
            },
        ];
        let s0 = table.stats();
        let a = table.cell_aggregate(&empty).unwrap();
        assert_eq!(a.value(), Some(0.0));
        let s1 = table.stats();
        assert_eq!(s1.cells_skipped - s0.cells_skipped, 1);
        assert_eq!(s1.tuples_scanned, s0.tuples_scanned, "no tuples touched");
    }

    #[test]
    fn bucket_of_boundaries() {
        let step = 5.0;
        assert_eq!(bucket_of(0.0, step), 0);
        assert_eq!(bucket_of(0.0001, step), 1);
        assert_eq!(bucket_of(5.0, step), 1);
        assert_eq!(bucket_of(5.0001, step), 2);
        assert_eq!(bucket_of(10.0, step), 2);
        // Bucket agrees with CellRange::contains at awkward steps.
        let step = 10.0 / 3.0;
        for s in [step, 2.0 * step, 0.999 * step, 1.001 * step, 7.77] {
            let k = bucket_of(s, step);
            let range = if k == 0 {
                CellRange::Zero
            } else {
                CellRange::Open {
                    lo: f64::from(k - 1) * step,
                    hi: f64::from(k) * step,
                }
            };
            assert!(range.contains(s), "score {s} bucket {k}");
        }
    }

    #[test]
    fn scan_counts_work_per_query() {
        let (mut exec, q) = setup();
        let mut scan = ScanEvaluator::new(&mut exec, &q, &caps()).unwrap();
        let n = scan.universe_size() as u64;
        let s0 = scan.stats();
        let _ = scan
            .cell_aggregate(&[CellRange::Zero, CellRange::Zero])
            .unwrap();
        let s1 = scan.stats();
        assert_eq!(s1.cell_queries - s0.cell_queries, 1);
        assert_eq!(s1.tuples_scanned - s0.tuples_scanned, n);
    }

    #[test]
    fn parallel_scoring_matches_serial() {
        let (mut e1, q) = setup();
        let mut serial = CachedScoreEvaluator::new(&mut e1, &q, &caps()).unwrap();
        let (mut e2, _) = setup();
        let mut parallel = CachedScoreEvaluator::with_threads(&mut e2, &q, &caps(), 4).unwrap();
        assert_eq!(serial.universe_size(), parallel.universe_size());
        for bounds in [[0.0, 0.0], [25.0, 10.0], [500.0, 500.0]] {
            assert_eq!(
                serial.full_aggregate(&bounds).unwrap().value(),
                parallel.full_aggregate(&bounds).unwrap().value(),
                "bounds {bounds:?}"
            );
        }
        let cell = vec![CellRange::Open { lo: 0.0, hi: 5.0 }, CellRange::Zero];
        assert_eq!(
            serial.cell_aggregate(&cell).unwrap().value(),
            parallel.cell_aggregate(&cell).unwrap().value()
        );
    }

    /// Shared-path contract: the same state as the serial call, no stats
    /// until the cost is committed, and a committed cost accounting exactly
    /// what the serial call accounts.
    fn check_shared_matches<E: EvaluationLayer>(eval: &mut E, cell: &[CellRange]) {
        let before = eval.stats();
        let (shared_state, cost) = eval
            .parallel_cells()
            .expect("layer supports parallel cells")
            .cell_aggregate_shared(cell)
            .unwrap();
        assert_eq!(eval.stats(), before, "shared path defers all accounting");
        let serial = eval.cell_aggregate(cell).unwrap();
        assert_eq!(shared_state.value(), serial.value(), "cell {cell:?}");
        let mid = eval.stats();
        eval.commit_cell_cost(&cost);
        let after = eval.stats();
        assert_eq!(
            after.cell_queries - mid.cell_queries,
            mid.cell_queries - before.cell_queries
        );
        assert_eq!(
            after.tuples_scanned - mid.tuples_scanned,
            mid.tuples_scanned - before.tuples_scanned
        );
        assert_eq!(
            after.index_probes - mid.index_probes,
            mid.index_probes - before.index_probes
        );
        assert_eq!(
            after.cells_skipped - mid.cells_skipped,
            mid.cells_skipped - before.cells_skipped
        );
    }

    #[test]
    fn shared_cells_match_serial_cells_on_every_layer() {
        let step = 5.0;
        let cells: Vec<Vec<CellRange>> = vec![
            vec![CellRange::Zero, CellRange::Zero],
            vec![CellRange::Open { lo: 0.0, hi: step }, CellRange::Zero],
            vec![
                CellRange::Open { lo: 0.0, hi: step },
                CellRange::Open {
                    lo: step,
                    hi: 2.0 * step,
                },
            ],
            // Empty off-diagonal cell: exercises the skip path.
            vec![
                CellRange::Open { lo: 0.0, hi: step },
                CellRange::Open {
                    lo: 400.0,
                    hi: 405.0,
                },
            ],
        ];
        for cell in &cells {
            let (mut e1, q) = setup();
            let mut scan = ScanEvaluator::new(&mut e1, &q, &caps()).unwrap();
            check_shared_matches(&mut scan, cell);
            let (mut e2, _) = setup();
            let mut cached = CachedScoreEvaluator::new(&mut e2, &q, &caps()).unwrap();
            check_shared_matches(&mut cached, cell);
            let (mut e3, _) = setup();
            let mut table = table_layer(&mut e3, &q, &caps(), step);
            check_shared_matches(&mut table, cell);
        }
    }

    /// The fault injector wraps a layer from outside, so where the product
    /// under that layer came from — built for it, or shared with an earlier
    /// evaluator, which is what a [`PreparedCache`] hit hands out — must not
    /// show: the same cells fault, and the outcome, `stats` included, is
    /// the same on every thread count.
    #[test]
    fn injected_faults_strike_the_same_cell_over_a_shared_product() {
        use crate::{acquire_progress, FaultInjectingLayer, FaultPolicy, FaultSchedule};
        let (mut exec, mut q) = setup();
        q.constraint.target = 90.0;
        let caps = caps();
        let shared = Arc::new(Prepared::build(&mut exec, &q, &caps, None, 1, None).unwrap());
        let mut faulted = 0;
        for seed in 0..12 {
            let schedule = FaultSchedule::mixed(seed, 0.15, 0.1);
            let mut run = |threads: usize, shared: Option<&Arc<Prepared>>| {
                let mut exec = Executor::new(exec.catalog().clone());
                let inner = match shared {
                    Some(prepared) => CachedScoreEvaluator::over(&mut exec, &q, prepared.clone()),
                    None => CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap(),
                };
                let mut eval = FaultInjectingLayer::new(inner, schedule.clone());
                let cfg = AcquireConfig::default()
                    .with_threads(threads)
                    .with_fault_policy(FaultPolicy::BestEffort);
                let (cancel, obs) = (crate::CancellationToken::new(), Obs::disabled());
                let out = acquire_progress(&mut eval, &q, &cfg, &cancel, &obs, None).unwrap();
                faulted += usize::from(out.termination.interrupt_reason().is_some());
                let reason = out.termination.interrupt_reason().cloned();
                (out.explored, out.stats, reason, out.queries, out.closest)
            };
            let fresh = run(1, None);
            for threads in [1, 4] {
                assert_eq!(run(threads, Some(&shared)), fresh, "seed {seed}, {threads}");
            }
        }
        assert!(faulted > 0, "the schedules must actually fault");
    }

    /// A cached-score layer over a product built for the grid of `step`,
    /// told that grid the way a search tells it: what `prepare_layer` hands
    /// out, once the search has begun.
    fn table_layer<'a>(
        exec: &'a mut Executor,
        query: &AcqQuery,
        caps: &[f64],
        step: f64,
    ) -> CachedScoreEvaluator<'a> {
        let prepared = Prepared::build(exec, query, caps, Some(step), 1, None).unwrap();
        let mut layer = CachedScoreEvaluator::over(exec, query, Arc::new(prepared));
        layer.use_grid(step);
        layer
    }

    /// A registry that knows `SUMSQ`.
    fn registry() -> UdaRegistry {
        let mut registry = UdaRegistry::new();
        registry.register("SUMSQ", || Box::<acq_engine::SumSquares>::default());
        registry
    }

    /// A table whose column `x{k}` refines `x{k} <= 100`, so a row's score
    /// on dimension `k` is (nearly exactly) `x{k} − 100`, and whose column
    /// `v` holds the given values, read by an executor that knows `SUMSQ`.
    /// Returns the executor and the query aggregating `spec(v)` (`COUNT(*)`
    /// for `None`).
    fn scored_table(rows: &[(Vec<f64>, f64)], d: usize, spec: OverV) -> (Executor, AcqQuery) {
        let mut fields: Vec<Field> = (0..d)
            .map(|k| Field::new(format!("x{k}"), DataType::Float))
            .collect();
        fields.push(Field::new("v", DataType::Float));
        let mut b = TableBuilder::new("t", fields).unwrap();
        for (scores, v) in rows {
            let mut row: Vec<Value> = scores.iter().map(|s| Value::Float(100.0 + s)).collect();
            row.push(Value::Float(*v));
            b.push_row(row);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        let spec = spec.map_or_else(AggregateSpec::count, |f| f(ColRef::new("t", "v")));
        let mut q = AcqQuery::builder().table("t");
        for k in 0..d {
            let x = ColRef::new("t", format!("x{k}"));
            let p = Predicate::select(x, Interval::new(0.0, 100.0), RefineSide::Upper);
            q = q.predicate(p.with_domain(Interval::new(0.0, 1000.0)));
        }
        let q = q
            .constraint(AggConstraint::new(spec, CmpOp::Ge, 1.0))
            .build()
            .unwrap();
        (Executor::new(cat).with_uda_registry(registry()), q)
    }

    /// An aggregate over `v`; `None` is `COUNT(*)`.
    type OverV = Option<fn(ColRef) -> AggregateSpec>;

    /// The five built-in aggregates and the user-defined `SUMSQ`.
    const SPECS: [OverV; 6] = [
        None,
        Some(AggregateSpec::sum),
        Some(AggregateSpec::avg),
        Some(AggregateSpec::min),
        Some(AggregateSpec::max),
        Some(|v| AggregateSpec::uda("SUMSQ", v)),
    ];

    /// A cell on some grid of `step` that is not one of its cells used to be
    /// rounded to the nearest grid point and answered from that cell's rows.
    /// Now it is scanned, and every layer agrees with the scan layer on it
    /// and on the aligned cell it used to be mistaken for.
    #[test]
    fn misaligned_cells_are_scanned_not_rounded_to_a_grid_point() {
        let step = 10.0 / 3.0;
        // Scores 0, inside (0, 3], inside (3, step] and beyond it; the
        // values under (3, step] are the least and the greatest.
        let rows: Vec<(Vec<f64>, f64)> = [
            (0.0, 5.0),
            (1.0, 10.0),
            (2.5, 20.0),
            (3.2, 1.0),
            (3.3, 100.0),
            (5.0, 7.0),
            (7.0, 8.0),
        ]
        .into_iter()
        .map(|(s, v)| (vec![s], v))
        .collect();
        let caps = [10.0 * step];
        let misaligned = [CellRange::Open { lo: 0.0, hi: 3.0 }];
        let aligned = [CellRange::Open { lo: 0.0, hi: step }];
        for spec in SPECS {
            let (mut e0, q) = scored_table(&rows, 1, spec);
            let mut scan = ScanEvaluator::new(&mut e0, &q, &caps).unwrap();
            let expected = [&misaligned, &aligned].map(|c| scan.cell_aggregate(c).unwrap().value());
            assert_ne!(expected[0], expected[1], "the two cells hold other rows");

            let (mut e1, _) = scored_table(&rows, 1, spec);
            let mut cached = CachedScoreEvaluator::new(&mut e1, &q, &caps).unwrap();
            let (mut e2, _) = scored_table(&rows, 1, spec);
            let mut table = table_layer(&mut e2, &q, &caps, step);
            for layer in [&mut cached, &mut table] {
                let got = [&misaligned, &aligned].map(|c| layer.cell_aggregate(c).unwrap().value());
                assert_eq!(got, expected, "{spec:?}");
            }
            // The table answers the aligned cell and scans the other.
            let par = table.parallel_cells().unwrap();
            let (_, scanned) = par.cell_aggregate_shared(&misaligned).unwrap();
            assert!(scanned.tuples_scanned > 0 && scanned.index_probes == 0);
            let (_, looked_up) = par.cell_aggregate_shared(&aligned).unwrap();
            assert_eq!((looked_up.tuples_scanned, looked_up.index_probes), (0, 1));
        }
    }

    /// The grid steps under test: γ = 10 over d = 2, 4 and 3.
    const STEPS: [f64; 3] = [5.0, 2.5, 10.0 / 3.0];

    /// Highest grid coordinate the generated scores reach, per `d`.
    fn reach(d: usize) -> u32 {
        [24, 10, 6][d - 1]
    }

    /// A non-negative score up to `limit · step`: zero of either sign, a
    /// cell boundary, one ulp either side of a boundary, or anywhere.
    fn grid_score(step: f64, limit: u32, pick: u64) -> f64 {
        let boundary = f64::from((pick >> 3) as u32 % (limit + 1)) * step;
        match pick % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => boundary,
            3 => boundary.next_up(),
            4 => boundary.next_down().max(0.0),
            _ => (pick >> 11) as f64 / (1u64 << 53) as f64 * f64::from(limit) * step,
        }
    }

    /// Every grid point with coordinates up to `limit + 1`, one past the
    /// scores' reach, as the cell ranges the driver asks for.
    fn every_cell(d: usize, limit: u32, step: f64) -> Vec<Vec<CellRange>> {
        let mut points: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..d {
            points = points
                .into_iter()
                .flat_map(|p| {
                    (0..=limit + 1).map(move |u| {
                        let mut p = p.clone();
                        p.push(u);
                        p
                    })
                })
                .collect();
        }
        points
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&u| match u {
                        0 => CellRange::Zero,
                        u => CellRange::Open {
                            lo: f64::from(u - 1) * step,
                            hi: f64::from(u) * step,
                        },
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Every cell's table answer is the matrix filter's, bit for bit —
        /// over values whose sums depend on the fold order — and the cached
        /// layer gives the scan layer's answers, cells and full queries
        /// alike, on every built-in aggregate and on a user-defined one.
        #[test]
        fn the_cell_table_answers_every_cell_with_the_scans_bits(
            d in 1usize..4,
            which in 0usize..3,
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..160),
        ) {
            let (step, limit) = (STEPS[which], reach(d));
            let rows: Vec<(Vec<f64>, u64)> = picks
                .chunks_exact(d)
                .map(|c| (c.iter().map(|&p| grid_score(step, limit, p)).collect(), c[0]))
                .collect();
            let cells = every_cell(d, limit, step);

            let scores: Vec<f64> = rows.iter().flat_map(|(s, _)| s.clone()).collect();
            let vals: Vec<f64> =
                rows.iter().map(|&(_, p)| (p % 20_011) as f64 / 7.0 - 1_000.0).collect();
            let matrix = ScoreMatrix { scores, vals: vals.clone(), d };
            for spec in SPECS {
                let spec = spec.map_or_else(AggregateSpec::count, |f| f(ColRef::new("t", "v")));
                let empty = AggState::empty(&spec, &registry()).unwrap();
                let table = CellTable::build(&matrix, step, empty.clone(), &[]).unwrap();
                for cell in &cells {
                    let found = table.lookup(cell).expect("an aligned cell is looked up");
                    let mut scanned = empty.clone();
                    matrix.cell_scan_into(cell, &mut scanned);
                    let got = format!("{:?}", found.unwrap_or(&table.empty));
                    proptest::prop_assert_eq!(&got, &format!("{scanned:?}"), "{:?}", cell);
                    let mut rows_in = AggState::Count(0);
                    matrix.cell_scan_into(cell, &mut rows_in);
                    proptest::prop_assert_eq!(found.is_some(), rows_in.count() != Some(0));
                }
            }

            let rows: Vec<(Vec<f64>, f64)> =
                rows.into_iter().map(|(s, _)| s).zip(vals).collect();
            let caps = vec![f64::from(limit) * step; d];
            for spec in SPECS {
                let (mut e0, q) = scored_table(&rows, d, spec);
                let mut scan = ScanEvaluator::new(&mut e0, &q, &caps).unwrap();
                let (mut e1, _) = scored_table(&rows, d, spec);
                let mut table = table_layer(&mut e1, &q, &caps, step);
                for cell in &cells {
                    let expected = format!("{:?}", scan.cell_aggregate(cell).unwrap());
                    let before = table.stats();
                    proptest::prop_assert_eq!(&format!("{:?}", table.cell_aggregate(cell).unwrap()), &expected);
                    let after = table.stats();
                    proptest::prop_assert_eq!(after.index_probes - before.index_probes, 1);
                    proptest::prop_assert_eq!(after.tuples_scanned, before.tuples_scanned);
                }
                for u in [0, limit / 2, limit] {
                    let bounds = vec![f64::from(u) * step; d];
                    let expected = format!("{:?}", scan.full_aggregate(&bounds).unwrap());
                    proptest::prop_assert_eq!(&format!("{:?}", table.full_aggregate(&bounds).unwrap()), &expected);
                }
            }
        }
    }

    /// splitmix64, the draws of the random catalogs below.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    /// A random catalog of one to three tables `t0`, `t1`, `t2` — `t0` of
    /// up to 60 rows, the others of up to 12, so a join or cross product
    /// outgrows them — each with an Int key `k`, a Float `x` (NaN now and
    /// then, otherwise a value whose score on `x <= 100` is a multiple of
    /// 2.5 or anywhere), an Int `i` and a Str `s` of cuisine leaves (and
    /// one no ontology knows); and a domain-populated query over it. `t0`
    /// joins each other table on `k`, by a band join on `x` or not at all (a
    /// cross product). The predicates are numeric on `x` and `i`,
    /// categorical on `s`, now and then numeric on `s` or categorical on
    /// `x`, each but the first NOREFINE or capped by `max_refinement` at
    /// random; the aggregate is COUNT or a SUM over a numeric or a Str
    /// column.
    fn random_catalog(d: &mut Draws) -> (Executor, AcqQuery) {
        const LEAVES: [&str; 6] = ["Gyro", "Falafel", "Shawarma", "Sushi", "PadThai", "Pizza"];
        let n = 1 + d.below(3) as usize;
        let mut cat = Catalog::new();
        for t in 0..n {
            let fields = vec![
                Field::new("k", DataType::Int),
                Field::new("x", DataType::Float),
                Field::new("i", DataType::Int),
                Field::new("s", DataType::Str),
            ];
            let mut b = TableBuilder::new(format!("t{t}"), fields).unwrap();
            let rows = d.below(if t == 0 { 61 } else { 12 }) + u64::from(t > 0);
            for _ in 0..rows {
                let x = match d.below(10) {
                    0 => f64::NAN,
                    1..=6 => 100.0 + 2.5 * d.below(12) as f64,
                    _ => d.below(1600) as f64 / 8.0,
                };
                b.push_row(vec![
                    Value::Int(d.below(3) as i64),
                    Value::Float(x),
                    Value::Int(d.below(50) as i64),
                    Value::Str(LEAVES[d.below(6) as usize].into()),
                ]);
            }
            cat.register(b.finish().unwrap()).unwrap();
        }
        let col = |t: usize, c: &str| ColRef::new(format!("t{t}"), c);
        let cuisine = Arc::new(acq_query::OntologyTree::sample_cuisine());
        let mut q = AcqQuery::builder();
        for t in 0..n {
            q = q.table(format!("t{t}"));
        }
        let mut preds = Vec::new();
        for t in 1..n {
            match d.below(3) {
                0 => q = q.join(col(0, "k"), col(t, "k")),
                1 => preds.push(Predicate::band_join(
                    acq_query::LinearExpr::col(col(0, "x")),
                    acq_query::LinearExpr::col(col(t, "x")),
                    d.below(30) as f64,
                )),
                _ => {}
            }
        }
        for _ in 0..1 + d.below(4) {
            let t = d.below(n as u64) as usize;
            preds.push(match d.below(12) {
                0..=4 => {
                    Predicate::select(col(t, "x"), Interval::new(0.0, 100.0), RefineSide::Upper)
                }
                5 | 6 => {
                    Predicate::select(col(t, "x"), Interval::new(105.0, 200.0), RefineSide::Lower)
                }
                7 | 8 => {
                    Predicate::select(col(t, "i"), Interval::new(0.0, 20.0), RefineSide::Upper)
                }
                9 | 10 => Predicate::categorical(col(t, "s"), cuisine.clone(), vec!["Gyro".into()]),
                _ if d.one_in(2) => {
                    Predicate::select(col(t, "s"), Interval::new(0.0, 1.0), RefineSide::Upper)
                }
                _ => Predicate::categorical(col(t, "x"), cuisine.clone(), vec!["Gyro".into()]),
            });
        }
        for (i, p) in preds.into_iter().enumerate() {
            // The first stays refinable: a query needs one.
            let p = match d.below(6) {
                0 if i > 0 => p.no_refine(),
                1 => p.with_max_refinement(d.below(40) as f64),
                _ => p,
            };
            q = q.predicate(p);
        }
        let t = d.below(n as u64) as usize;
        let spec = match d.below(4) {
            0 => AggregateSpec::count(),
            1 => AggregateSpec::sum(col(t, "x")),
            2 => AggregateSpec::sum(col(t, "i")),
            _ => AggregateSpec::sum(col(t, "s")),
        };
        let mut q = q
            .constraint(AggConstraint::new(spec, CmpOp::Ge, 1.0))
            .build()
            .unwrap();
        let exec = Executor::new(cat);
        exec.populate_domains(&mut q).unwrap();
        (exec, q)
    }

    /// `rel`'s matrix scored row by row, with `score_into` and `agg_value`.
    fn matrix_by_rows(rq: &ResolvedQuery, rel: &Relation) -> ScoreMatrix {
        let bound = rq.bind(rel).unwrap();
        let (mut scores, mut vals) = (Vec::new(), Vec::new());
        let mut row_scores = vec![0.0; rq.dims()];
        for row in 0..rel.len() {
            if bound.score_into(rel, row, &mut row_scores) {
                scores.extend_from_slice(&row_scores);
                vals.push(bound.agg_value(rel, row));
            }
        }
        ScoreMatrix {
            scores,
            vals,
            d: rq.dims(),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A cell table's radix, slots and states in slot order, and its answer
    /// to every grid point up to one past each radix when there are few
    /// enough of them, rendered.
    fn table_bits(table: &CellTable) -> String {
        let mut slots: Vec<(u64, u32)> = table.slots.iter().map(|(&k, &v)| (k, v)).collect();
        slots.sort_unstable();
        let mut points: Vec<Vec<u32>> = vec![Vec::new()];
        if table.radix.iter().map(|&r| r + 2).product::<u64>() <= 4096 {
            for &r in &table.radix {
                points = points
                    .into_iter()
                    .flat_map(|p| {
                        (0..=r as u32 + 1).map(move |u| {
                            let mut p = p.clone();
                            p.push(u);
                            p
                        })
                    })
                    .collect();
            }
        }
        let answers: Vec<String> = points
            .iter()
            .map(|p| format!("{:?}", table.at(p.iter().copied().map(Some))))
            .collect();
        format!("{:?} {slots:?} {:?} {answers:?}", table.radix, table.states)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The columnar build — scored a predicate at a time, dimension
        /// tables scored once per row and gathered by row id, on 1–4
        /// threads, with and without the caps check's columns — gives the
        /// matrix a row-by-row scoring gives (scores, values, row order, bit
        /// for bit), and the cell table folded from that matrix with
        /// `bucket_of` per row: radix, slots, states in slot order and every
        /// cell's answer. So does the scoring of a relation whose rows the
        /// scores drop, which a layer's base relation has mostly filtered
        /// out already: the level one no cap has cut.
        #[test]
        fn the_columnar_build_gives_the_row_by_row_bits(seed in 0u64..u64::MAX) {
            let mut d = Draws(seed);
            let (mut exec, q) = random_catalog(&mut d);
            let rq = exec.resolve(&q).unwrap();
            let caps: Vec<f64> = q
                .flexible()
                .iter()
                .map(|&i| match d.below(3) {
                    0 => f64::INFINITY,
                    1 => q.predicates[i].max_useful_score().unwrap_or(f64::INFINITY),
                    _ => 2.5 * d.below(16) as f64,
                })
                .collect();
            let step = STEPS[d.below(3) as usize];
            let threads = 1 + d.below(4) as usize;
            let cache = PreparedCache::default();
            let Ok(rel) = exec.base_relation(&rq, &caps) else {
                // A cross product past the limit fails either way.
                proptest::prop_assert!(Prepared::build(&mut exec, &q, &caps, Some(step), threads, None).is_err());
                return Ok(());
            };
            let expected = matrix_by_rows(&rq, &rel);
            let spec = &q.constraint.spec;
            let empty = AggState::empty(spec, &UdaRegistry::default()).unwrap();
            let expected_table = CellTable::build(&expected, step, empty, &[]);
            for cache in [None, Some(&cache)] {
                let built = Prepared::build(&mut exec, &q, &caps, Some(step), threads, cache).unwrap();
                let m = &built.matrix;
                proptest::prop_assert_eq!(m.d, expected.d);
                proptest::prop_assert_eq!(bits(&m.scores), bits(&expected.scores), "{}", q.to_sql());
                proptest::prop_assert_eq!(bits(&m.vals), bits(&expected.vals), "{}", q.to_sql());
                proptest::prop_assert_eq!(
                    built.table.as_deref().map(table_bits),
                    expected_table.as_ref().map(table_bits),
                    "{}", q.to_sql()
                );
            }

            let loose = exec.refine(&exec.structural(&rq, None).unwrap(), &rq, &caps).unwrap();
            let bound = rq.bind(&loose).unwrap();
            let mut memo = exec.table_scores(&rq).unwrap();
            let m = ScoreMatrix::build(&bound, &loose, &mut memo, threads);
            let expected = matrix_by_rows(&rq, &loose);
            proptest::prop_assert_eq!(bits(&m.scores), bits(&expected.scores), "{}", q.to_sql());
            proptest::prop_assert_eq!(bits(&m.vals), bits(&expected.vals), "{}", q.to_sql());
            let gathered: Vec<Option<Gathered<'_>>> = (0..bound.dims())
                .map(|k| bound.dimension_column(k, &loose, &memo).map(|(t, col)| (&loose, t, col)))
                .collect();
            let table = |m: &ScoreMatrix, gathered: &[Option<Gathered<'_>>]| {
                CellTable::build(m, step, AggState::empty(spec, &UdaRegistry::default()).unwrap(), gathered)
            };
            proptest::prop_assert_eq!(
                table(&m, &gathered).as_ref().map(table_bits),
                table(&expected, &[]).as_ref().map(table_bits),
                "{}", q.to_sql()
            );
        }
    }

    /// A join's dimension tables are scored once per row and gathered: the
    /// case the property test above must reach, pinned.
    #[test]
    fn a_join_gathers_its_dimension_tables() {
        let mut cat = Catalog::new();
        for (name, rows) in [("fact", 40i32), ("dim", 4)] {
            let fields = vec![
                Field::new("k", DataType::Int),
                Field::new("x", DataType::Float),
            ];
            let mut b = TableBuilder::new(name, fields).unwrap();
            for r in 0..rows {
                b.push_row(vec![
                    Value::Int(i64::from(r % 4)),
                    Value::Float(100.0 + 2.5 * f64::from(r)),
                ]);
            }
            cat.register(b.finish().unwrap()).unwrap();
        }
        let mut q = AcqQuery::builder()
            .table("fact")
            .table("dim")
            .join(ColRef::new("fact", "k"), ColRef::new("dim", "k"))
            .predicate(Predicate::select(
                ColRef::new("dim", "x"),
                Interval::new(0.0, 100.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("fact", "x"),
                Interval::new(0.0, 100.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(
                AggregateSpec::sum(ColRef::new("fact", "x")),
                CmpOp::Ge,
                1.0,
            ))
            .build()
            .unwrap();
        let mut exec = Executor::new(cat);
        exec.populate_domains(&mut q).unwrap();
        let rq = exec.resolve(&q).unwrap();
        let caps = [f64::INFINITY; 2];
        let rel = exec.base_relation(&rq, &caps).unwrap();
        let bound = rq.bind(&rel).unwrap();
        let mut memo = exec.table_scores(&rq).unwrap();
        bound.memoise(&rel, &mut memo);
        let dim = rel.tables().iter().position(|t| t.name() == "dim").unwrap();
        assert_eq!(
            bound
                .dimension_column(0, &rel, &memo)
                .map(|(t, c)| (t, c.len())),
            Some((dim, 4))
        );
        assert!(
            bound.dimension_column(1, &rel, &memo).is_none(),
            "the fact table is scored per row"
        );
        let built = Prepared::build(&mut exec, &q, &caps, Some(2.5), 1, None).unwrap();
        let expected = matrix_by_rows(&rq, &rel);
        assert_eq!(bits(&built.matrix.scores), bits(&expected.scores));
        assert_eq!(bits(&built.matrix.vals), bits(&expected.vals));
    }

    #[test]
    fn universe_respects_caps() {
        let (mut exec, q) = setup();
        // Cap x at 30% (interval [0,20] -> up to 26), y unbounded-ish.
        let scan = ScanEvaluator::new(&mut exec, &q, &[30.0, 1000.0]).unwrap();
        // x <= 20 + 30% of 20 = 26 -> 27 rows.
        assert_eq!(scan.universe_size(), 27);
    }
}
