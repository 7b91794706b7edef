//! The ACQUIRE driver — Algorithm 4.
//!
//! Iteratively **Expand**s the refined space (grid queries in non-decreasing
//! refinement order) and **Explore**s each query's aggregate via incremental
//! aggregate computation. A query whose aggregate error is within `δ` joins
//! the answer set and pins the minimal refinement layer; the search finishes
//! that layer (collecting every alternative with the same refinement score)
//! and stops. Queries that *overshoot* the target by more than `δ` have
//! their cell repartitioned for `b` iterations (§6). If nothing satisfies
//! the constraint, the query attaining the closest aggregate value is
//! returned.
//!
//! # One loop, two directions
//!
//! §7.2 contraction is the same traversal over a different space: the loop
//! walks outward from the origin of the space it is handed, and a
//! [`Direction`] says how that space's points relate to `Q` — so both share
//! budgets, fault handling, the pool, observability and progress.
//! [`run_acquire_progress`] picks the direction from the constraint.
//!
//! # Parallel Explore
//!
//! The driver drains grid queries in **same-layer batches**. With
//! [`crate::Parallelism`] above one worker and an evaluation layer exposing
//! [`crate::ParallelCells`], each batch's cell sub-queries are executed
//! speculatively on a work-stealing pool (the `pool` module); the merges of
//! Eq. 17, answer collection, budget checks and work accounting then run in
//! the serial emission order over the prefetched results. Because cells
//! within a layer are mutually independent and the per-point control flow
//! cannot break out of a layer mid-way (`min_ref_layer` only takes effect
//! at the *next* layer boundary, and `max_layers` is constant within a
//! batch), this is observably identical — bit for bit, including stats and
//! termination — to the serial loop for any thread count.

use std::time::{Duration, Instant};

use acq_engine::{EngineResult, Executor};
use acq_obs::{Metrics, Obs};
use acq_query::{AcqQuery, AggFunc, CmpOp};

use crate::config::AcquireConfig;
use crate::contraction::{contraction, run_contraction_in};
use crate::error::CoreError;
use crate::eval::{prepare_layer, EvalLayerKind, EvaluationLayer};
use crate::expand::{BestFirstExpander, BfsExpander, Expander, LinfExpander};
use crate::explore::Explorer;
use crate::govern::{CancellationToken, FaultPolicy, Governor, InterruptReason, Termination};
use crate::pool::{self, CellOutcome};
use crate::prepared::PreparedCache;
use crate::progress::{ProgressEvent, ProgressSink};
use crate::repartition::repartition;
use crate::result::{AcqOutcome, RefinedQueryResult};
use crate::space::RefinedSpace;
use crate::store::AggStore;

/// Renders a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs an evaluation-layer call with panic isolation: a panicking
/// evaluator (or a violated driver invariant inside the call) becomes a
/// typed [`CoreError::EvalPanicked`] instead of unwinding through — or
/// aborting — the caller.
pub(crate) fn isolated<T>(f: impl FnOnce() -> EngineResult<T>) -> Result<T, CoreError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(CoreError::from),
        Err(payload) => Err(CoreError::EvalPanicked(panic_message(payload))),
    }
}

/// Which way the one Algorithm 4 loop refines `Q`.
pub(crate) enum Direction {
    /// The searched space is `RS(Q)`: farther from its origin is more change
    /// to `Q`. The first satisfying layer is the answer layer, overshooting
    /// cells are repartitioned until an answer exists, every point may be
    /// `closest`, and the origin's aggregate is the original query's.
    Expand,
    /// §7.2: the searched space runs from `Q'_min` out to `Q`, so farther
    /// from its origin is *less* change to `Q`: `spans[i]` percent restores
    /// dimension `i`, and a point's refinement is the remaining gap. Every
    /// satisfying layer is collected, the search stops once a whole layer
    /// overshoots (COUNT only — it grows monotonically outward), every
    /// overshooting non-answer is repartitioned, only non-answers may be
    /// `closest`, and the original aggregate is never observed.
    Contract { spans: Vec<f64> },
}

/// A search's per-cell instruments, tallied in plain fields and committed to
/// [`Metrics`] once per layer: when the search leaves a layer for the next
/// one, and — through `Drop` — on every exit: a clean end, a budget stop, a
/// cancel, and the `?` of a faulting cell. It owns the search's
/// [`Governor`], whose clock timestamps the layers, so the hot loop reads no
/// clock and touches no atomic for its instruments.
struct Tally<'m> {
    governor: Governor,
    metrics: Option<&'m Metrics>,
    /// The effective explored cap, for the budget-headroom gauge.
    explored_limit: u64,
    /// Cells the search has committed.
    explored: u64,
    /// Cells of the open layer, not yet committed to `metrics`.
    layer_cells: u64,
    /// When the search entered the open layer, on the governor's clock.
    entered: Duration,
    /// The store as the last committed cell left it: len, peak, bytes.
    store: Option<[u64; 3]>,
}

impl<'m> Tally<'m> {
    fn new(governor: Governor, metrics: Option<&'m Metrics>, explored_limit: u64) -> Self {
        Self {
            governor,
            metrics,
            explored_limit,
            explored: 0,
            layer_cells: 0,
            entered: Duration::ZERO,
            store: None,
        }
    }

    /// What, if anything, forbids the next grid query: the legacy safety cap
    /// `max_explored` (it behaves like an explored-query budget), then the
    /// governor.
    fn spent(&mut self, max_explored: u64, store: &AggStore) -> Option<InterruptReason> {
        if self.explored >= max_explored {
            Some(InterruptReason::ExploredBudget)
        } else {
            self.governor.check(self.explored, store.approx_bytes())
        }
    }

    /// One committed cell, and the store it left behind.
    fn cell(&mut self, store: &AggStore) {
        self.explored += 1;
        self.layer_cells += 1;
        if self.metrics.is_some() {
            self.store =
                Some([store.len(), store.peak_len(), store.approx_bytes()].map(|v| v as u64));
        }
    }

    /// The search leaves the open layer for the next one.
    fn next_layer(&mut self) {
        if self.metrics.is_some() {
            let now = self.governor.lap(self.explored);
            self.commit(now);
            self.entered = now;
        }
    }

    /// Commits the open layer's tallies as of `now`.
    fn commit(&mut self, now: Duration) {
        let Some(m) = self.metrics else { return };
        let took = now.saturating_sub(self.entered).as_nanos();
        m.cells_executed.add(self.layer_cells);
        m.batch_cells.observe(self.layer_cells);
        m.layer_latency_ns
            .observe(u64::try_from(took).unwrap_or(u64::MAX));
        self.layer_cells = 0;
        if let Some([len, peak, bytes]) = self.store {
            m.store_len.set(len);
            m.store_peak.set(peak);
            m.store_bytes.set(bytes);
            if self.explored_limit != u64::MAX {
                m.budget_headroom
                    .set(self.explored_limit.saturating_sub(self.explored));
            }
        }
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        if self.metrics.is_some() {
            let now = self.governor.elapsed();
            self.commit(now);
        }
    }
}

/// Keeps `(scores, aggregate, error)` as the closest-so-far query if `error`
/// beats it; `scores` is only built for a winner.
fn rank(
    closest: &mut Option<(Vec<f64>, f64, f64)>,
    scores: impl FnOnce() -> Vec<f64>,
    aggregate: f64,
    error: f64,
) {
    if closest.as_ref().is_none_or(|c| error < c.2) {
        *closest = Some((scores(), aggregate, error));
    }
}

/// Runs ACQUIRE against a caller-constructed evaluation layer.
///
/// The evaluation layer must have been built with per-dimension caps at
/// least [`RefinedSpace::caps`] for this query and configuration (which
/// [`run_acquire`] guarantees).
///
/// The short form of [`acquire_progress`]: a token nobody can cancel,
/// observability off, no progress sink. The configured
/// [`AcquireConfig::budget`] still applies.
pub fn acquire<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, CoreError> {
    acquire_progress(
        eval,
        query,
        cfg,
        &CancellationToken::new(),
        &Obs::disabled(),
        None,
    )
}

/// The serial progress commit: the single place the driver pushes into a
/// [`ProgressSink`]. Stamping the elapsed time and pushing live in one
/// named function so `[commit-reachability]` can root its closure exactly
/// here — everything this (and [`ProgressSink::try_push`]) touches must
/// stay wait-free.
fn emit_progress(sink: &ProgressSink, start: Instant, mut event: ProgressEvent) -> bool {
    event.elapsed_ms = start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
    sink.try_push(event)
}

/// One request's progress feed: what makes the events of its one or two
/// searches (two when an `=` falls through to contraction) one stream — the
/// shared clock, the cells earlier searches committed, and the latest
/// search's terminal event, held back until the outcome to return is known.
pub(crate) struct Feed<'a> {
    sink: &'a ProgressSink,
    start: Instant,
    /// Cells committed by the request's finished searches: added to every
    /// event's `explored`, so the stream stays strictly monotone.
    base: u64,
    terminal: Option<ProgressEvent>,
}

/// Offers of a request's terminal event before it counts as lost.
const TERMINAL_OFFERS: usize = 64;

impl<'a> Feed<'a> {
    /// Runs `request` against a feed over `sink` (if there is one), then
    /// pushes the terminal event of the last search it ran.
    ///
    /// This is the search boundary of every entry point: a panic anywhere
    /// inside the request — a layer build, a search loop, the rendering of
    /// its results — comes back as [`CoreError::EvalPanicked`], so a host
    /// answers it like any other failed request instead of unwinding.
    pub(crate) fn run(
        sink: Option<&'a ProgressSink>,
        request: impl FnOnce(Option<&mut Feed<'a>>) -> Result<AcqOutcome, CoreError>,
    ) -> Result<AcqOutcome, CoreError> {
        let mut feed = sink.map(|sink| Feed {
            sink,
            // lint-allow(determinism): progress timestamps only; never branches the search
            start: Instant::now(),
            base: 0,
            terminal: None,
        });
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| request(feed.as_mut())))
                .unwrap_or_else(|payload| Err(CoreError::EvalPanicked(panic_message(payload))))?;
        if let Some((feed, event)) = feed.as_ref().and_then(|f| Some((f, f.terminal?))) {
            // A stream may lose layer events, not its end. The search is
            // over, so a slot some reader holds for the length of one copy is
            // offered again instead of dropped.
            for _ in 0..TERMINAL_OFFERS {
                if emit_progress(feed.sink, feed.start, event) {
                    break;
                }
                std::thread::yield_now();
            }
        }
        Ok(outcome)
    }

    /// A serial commit of the running search: a layer-boundary event goes
    /// out now; a terminal one is held, its totals the next search's base.
    fn push(&mut self, mut event: ProgressEvent) {
        event.explored += self.base;
        if event.terminal {
            self.base = event.explored;
            self.terminal = Some(event);
        } else {
            emit_progress(self.sink, self.start, event);
        }
    }
}

/// Runs ACQUIRE with an externally owned [`CancellationToken`], an [`Obs`]
/// observability handle and an optional live [`ProgressSink`] — the full
/// form of [`acquire`], and the expanding form of the one search loop.
///
/// **Cancellation.** The search checks the token (and the configured
/// budget) cooperatively before every grid query — the deadline on the
/// governor's read stride, see [`Governor::check`]; on interrupt it returns `Ok`
/// with everything found so far — the answer set, the closest-so-far query,
/// and a [`Termination::Interrupted`] status naming the reason — making the
/// driver an anytime algorithm.
///
/// **Observability.** With a disabled handle every instrument call
/// short-circuits on a null check. With an enabled handle the driver
/// records phase spans (expand layer N, speculative pool, repartition),
/// per-layer gauges (frontier batch size, store occupancy, budget
/// headroom), each layer's wall time and cell count, and the event
/// counters of [`acq_obs::Metrics`]. The per-cell instruments are tallied
/// in locals and committed from this serial loop once per layer and on
/// every exit, so at every exit `cells_executed` equals `explored` and
/// snapshot counters are reproducible for any thread count (see
/// DESIGN.md). The outcome itself is bit-identical with observability on or
/// off.
///
/// **Progress.** With a sink attached the driver emits a [`ProgressEvent`]
/// at every serial layer-boundary commit and one terminal event when the
/// search ends. Emission is **observational only**: the sink is wait-free
/// (try-push, drop-counted — a slow or absent reader costs the commit path
/// nothing), no event ever feeds back into the search, and the outcome is
/// bit-identical to a run without the sink for every thread count.
pub fn acquire_progress<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
    obs: &Obs,
    progress: Option<&ProgressSink>,
) -> Result<AcqOutcome, CoreError> {
    Feed::run(progress, |feed| {
        search(eval, query, &Direction::Expand, cfg, cancel, obs, feed)
    })
}

/// The one Algorithm 4 search loop. `query` is the *searched* query — `Q`
/// when expanding, `Q'_min` when contracting — and `eval` the layer built
/// for it.
pub(crate) fn search<E: EvaluationLayer + ?Sized>(
    eval: &mut E,
    query: &AcqQuery,
    dir: &Direction,
    cfg: &AcquireConfig,
    cancel: &CancellationToken,
    obs: &Obs,
    mut feed: Option<&mut Feed<'_>>,
) -> Result<AcqOutcome, CoreError> {
    cfg.validate()?;
    query.validate_with_norm(&cfg.norm)?;
    let space = RefinedSpace::new(query, cfg)?;
    isolated(|| {
        eval.use_grid(space.step());
        Ok(())
    })?;
    let contracting = matches!(dir, Direction::Contract { .. });
    // Contraction's stop rule needs whole layers, so it never runs best-first.
    let mut expander: Box<dyn Expander> = if cfg.norm.is_linf() {
        Box::new(LinfExpander::new(&space))
    } else if cfg.exact_lp_order && !contracting {
        Box::new(BestFirstExpander::new(&space))
    } else {
        Box::new(BfsExpander::new(&space))
    };
    let mut explorer = Explorer::new(space.dims(), expander.emission());

    let target = query.constraint.target;
    let err_fn = query.error_fn;
    let op_expands = query.constraint.op.is_expanding();
    // §7.2's stop rule: COUNT grows monotonically outward from `Q'_min`, so
    // once every query of a layer overshoots `target·(1+δ)`, every query
    // beyond it contains one that does.
    let overshoot_cap = (contracting && matches!(query.constraint.spec.func, AggFunc::Count))
        .then_some(target * (1.0 + cfg.delta));
    let mut layer_min_actual = f64::INFINITY;
    // A point of the searched space — `s` are its expansion scores there —
    // as a result scored and rendered relative to `Q`.
    let render = |point: Vec<u32>, s: Vec<f64>, aggregate: f64, error: f64| {
        let sql = query.refined_sql(&s);
        let pscores = match dir {
            Direction::Expand => s,
            Direction::Contract { spans } => {
                let gap = |(si, sp): (&f64, &f64)| (sp - si).max(0.0);
                s.iter().zip(spans).map(gap).collect()
            }
        };
        RefinedQueryResult {
            point,
            qscore: cfg.norm.qscore(&pscores),
            pscores,
            aggregate,
            error,
            sql,
        }
    };

    let mut answers: Vec<RefinedQueryResult> = Vec::new();
    // The closest-aggregate fallback is tracked as raw numbers and only
    // materialised (SQL rendered) once, when the outcome is assembled —
    // it improves on a large fraction of explored points.
    let mut closest: Option<(Vec<f64>, f64, f64)> = None; // (scores, aggregate, error)

    // Expansion only: the answer layer. Contraction collects every layer.
    let mut min_ref_layer = u64::MAX;
    let mut current_layer = 0u64;
    let mut original_aggregate = f64::NAN;
    let mut interrupt: Option<InterruptReason> = None;

    // Absorbs a mid-search evaluation failure under `FaultPolicy::BestEffort`
    // (recording it as an interrupt) or propagates it (the default).
    let on_fault =
        |e: CoreError, interrupt: &mut Option<InterruptReason>| -> Result<(), CoreError> {
            match cfg.fault_policy {
                FaultPolicy::Propagate => Err(e),
                FaultPolicy::BestEffort => {
                    *interrupt = Some(InterruptReason::Fault(e.to_string()));
                    Ok(())
                }
            }
        };

    // Cap on one layer-batch: bounds the speculative work wasted if an
    // interrupt lands mid-layer, and the transient memory of prefetched
    // cell states.
    const MAX_BATCH: usize = 4096;
    // Below this batch size, spawning workers costs more than it saves
    // (the first L1 layers hold only 1..d cells).
    const MIN_PARALLEL_BATCH: usize = 4;
    let workers = cfg.parallelism.workers();
    let d = space.dims();
    // One same-layer batch, `d` coordinates per point; reused by every
    // batch.
    let mut batch: Vec<u32> = Vec::new();
    // The first grid query of the next layer, popped while draining the
    // current one, and its layer.
    let mut pending: Option<u64> = None;
    let mut pending_point: Vec<u32> = Vec::with_capacity(d);

    // Observability plumbing: bind the registry once so the hot loop pays a
    // single null check per instrument, and precompute the effective
    // explored cap feeding the budget-headroom gauge.
    let metrics = obs.metrics();
    let explored_limit = cfg
        .max_explored
        .min(cfg.budget.max_explored.unwrap_or(u64::MAX));
    let governor = Governor::with_obs(cfg.budget.clone(), cancel.clone(), obs.clone());
    let mut tally = Tally::new(governor, metrics, explored_limit);
    // Last layer traced as an expand event and set on the layer gauges:
    // serial mode produces one single-query batch per grid point, which
    // would flood the trace with identical lines; multi-cell batches always
    // trace.
    let mut traced_layer = u64::MAX;
    let query_id = obs.query_id().unwrap_or(0);
    if obs.is_enabled() {
        obs.set_meta("evaluator", eval.kind_name());
        obs.set_meta("workers", &workers.to_string());
        obs.set_meta("dims", &space.dims().to_string());
        // Serve mode attaches a registry request ID before the run; tagging
        // the root span keeps traces attributable once more than one query
        // has flowed through a handle's lifetime.
        let query_id = obs.query_id();
        obs.trace(0, || {
            let qid = query_id.map(|id| format!("[q{id}] ")).unwrap_or_default();
            let verb = if contracting { "contract" } else { "acquire" };
            format!(
                "{qid}{verb}: target {} ({} workers, {} dims)",
                query.constraint.target,
                workers,
                space.dims()
            )
        });
    }

    // -- assemble one same-layer batch per iteration (size 1 when serial) --
    'search: loop {
        batch.clear();
        let layer = match pending.take() {
            Some(layer) => {
                batch.extend_from_slice(&pending_point);
                layer
            }
            None => match expander.next_query() {
                Some(p) => {
                    batch.extend_from_slice(p);
                    expander.layer()
                }
                None => break,
            },
        };
        if layer > min_ref_layer || layer > cfg.max_layers {
            break;
        }
        if layer > current_layer
            && layer_min_actual.is_finite()
            && overshoot_cap.is_some_and(|cap| layer_min_actual > cap)
        {
            // A budget spent at this very boundary still reports itself.
            interrupt = tally.spent(cfg.max_explored, explorer.store());
            break;
        }
        let mut batch_len = 1usize;
        if workers > 1 {
            // Never drain past the explored budgets: cells beyond them
            // could only be wasted speculative work.
            let remaining = explored_limit.saturating_sub(tally.explored);
            let cap = usize::try_from(remaining.clamp(1, MAX_BATCH as u64)).unwrap_or(MAX_BATCH);
            while batch_len < cap {
                let Some(p) = expander.next_query() else {
                    break;
                };
                batch.extend_from_slice(p);
                if expander.layer() != layer {
                    pending_point.clear();
                    pending_point.extend(batch.drain(batch_len * d..));
                    pending = Some(expander.layer());
                    break;
                }
                batch_len += 1;
            }
        }

        if layer != traced_layer || batch_len > 1 {
            traced_layer = layer;
            if let Some(m) = metrics {
                m.current_layer.set(layer);
                m.frontier_batch.set(batch_len as u64);
            }
            // A trace is retained per request, so it must not grow with the
            // answers: each layer carries a running total, and only the
            // first answer of an expansion has a line of its own.
            obs.trace(0, || {
                format!(
                    "expand layer {layer}: batch of {batch_len} grid queries, {} answer(s) so far",
                    answers.len()
                )
            });
        }

        // -- speculative phase: execute the batch's cells on the pool -----
        let mut prefetched: Option<Vec<Option<CellOutcome>>> =
            if workers > 1 && batch_len >= MIN_PARALLEL_BATCH {
                eval.parallel_cells().map(|par| {
                    let cells: Vec<_> = batch.chunks_exact(d).map(|p| space.cell(p)).collect();
                    let t0 = obs.is_tracing().then(|| tally.governor.elapsed());
                    let out = pool::execute_batch(par, &cells, workers, &tally.governor, obs);
                    // A worker abandons cells only once the search is
                    // cancelled or past its deadline; reading the clock now
                    // makes the commit loop's next check see it too.
                    let t1 = tally.governor.lap(tally.explored);
                    if let Some(t0) = t0 {
                        obs.trace_span(1, t1.saturating_sub(t0), || {
                            format!(
                                "explore: speculative pool ({workers} workers, {}/{} cells)",
                                out.iter().filter(|s| s.is_some()).count(),
                                out.len()
                            )
                        });
                    }
                    out
                })
            } else {
                None
            };

        // -- commit phase: exactly the serial per-point loop --------------
        for (i, point) in batch.chunks_exact(d).enumerate() {
            if let Some(reason) = tally.spent(cfg.max_explored, explorer.store()) {
                interrupt = Some(reason);
                break 'search;
            }
            if layer > current_layer {
                tally.next_layer();
                // The recurrence only reaches back one layer (layered
                // expanders; best-first keeps everything).
                explorer.begin_layer(layer);
                current_layer = layer;
                layer_min_actual = f64::INFINITY;
                // The serial layer-boundary commit: the one place mid-run
                // progress is emitted. `explored` is strictly monotone
                // across these events — at least one cell commits between
                // consecutive boundaries.
                if let Some(feed) = feed.as_deref_mut() {
                    feed.push(ProgressEvent {
                        query_id,
                        layer,
                        explored: tally.explored,
                        frontier: batch_len as u64,
                        store_bytes: explorer.store().approx_bytes() as u64,
                        elapsed_ms: 0,
                        terminal: false,
                    });
                }
            }
            let computed = match prefetched.as_mut().and_then(|slots| slots[i].take()) {
                Some(CellOutcome::Done(cell_state, cost)) => {
                    // Deferred accounting, applied in commit order so stats
                    // are bit-identical to a serial run.
                    eval.commit_cell_cost(&cost);
                    isolated(|| explorer.merge_cell(cell_state, point))
                }
                Some(CellOutcome::Failed(e)) => Err(CoreError::from(e)),
                Some(CellOutcome::Panicked(msg)) => Err(CoreError::EvalPanicked(msg)),
                // Serial mode, or a slot the pool abandoned on abort — the
                // governor check above fires first in that case, so this
                // arm then only documents safety: the cell was never
                // executed, and executing it here keeps at-most-once
                // intact.
                None => isolated(|| explorer.compute_aggregate(eval, &space, point)),
            };
            let state = match computed {
                Ok(state) => state,
                Err(e) => {
                    on_fault(e, &mut interrupt)?;
                    break 'search;
                }
            };
            // Emission order, right where `explored` advances: the tally
            // commits what it counts here once per layer and on every exit.
            tally.cell(explorer.store());

            let value = state.value();
            if !contracting && point.iter().all(|&u| u == 0) {
                original_aggregate = value.unwrap_or(f64::NAN);
            }
            // MIN/MAX/AVG of an empty result set are undefined: not a
            // candidate.
            let Some(actual) = value else { continue };
            layer_min_actual = layer_min_actual.min(actual);
            let error = err_fn.error(target, actual);
            let answered = error <= cfg.delta;
            // An expansion repartitions only until it has a grid answer:
            // finer fractional answers cannot improve the answer layer, and
            // repartitioning would re-execute full queries for every
            // overshooting point of the closing layer.
            let crossing =
                !answered && actual > target && (contracting || (op_expands && answers.is_empty()));
            let mut answer = |r: RefinedQueryResult, depth: u8, how: &str| {
                if let Some(m) = metrics {
                    m.answers_found.inc();
                }
                if !contracting {
                    min_ref_layer = min_ref_layer.min(layer);
                    if answers.is_empty() {
                        // The time to first answer; later ones are counted
                        // on the `expand layer` lines.
                        let (aggregate, error) = (r.aggregate, r.error);
                        obs.trace(depth, || {
                            format!(
                                "answer: {how}aggregate {aggregate} (error {error:.4}, layer {layer})"
                            )
                        });
                    }
                }
                answers.push(r);
            };

            if answered {
                answer(
                    render(point.to_vec(), space.pscores(point), actual, error),
                    1,
                    "",
                );
            } else if contracting {
                // Contraction ranks a non-answer before its cell's interior.
                rank(&mut closest, || space.pscores(point), actual, error);
            }
            if crossing {
                // The constraint's crossing point lies inside this cell:
                // repartition (Algorithm 4 / §6).
                if let Some(m) = metrics {
                    m.repartitions.inc();
                }
                obs.trace(1, || {
                    format!(
                        "repartition: layer-{layer} cell overshoots target ({actual} > {target})"
                    )
                });
                let hit = match isolated(|| {
                    repartition(eval, &space, point, target, err_fn, cfg.repartition_depth)
                }) {
                    Ok(hit) => hit,
                    Err(e) => {
                        on_fault(e, &mut interrupt)?;
                        break 'search;
                    }
                };
                match hit {
                    Some(hit) if hit.error <= cfg.delta => {
                        let r = render(Vec::new(), hit.bounds, hit.aggregate, hit.error);
                        answer(r, 2, "repartitioned ");
                    }
                    Some(hit) => rank(&mut closest, || hit.bounds, hit.aggregate, hit.error),
                    None => {}
                }
            }
            if !contracting {
                // Expansion ranks every point, after its cell's interior.
                rank(&mut closest, || space.pscores(point), actual, error);
            }
        }
    }
    answers.sort_by(|a, b| a.qscore.total_cmp(&b.qscore));
    let satisfied = !answers.is_empty();
    let closest = closest.map(|(s, aggregate, error)| render(Vec::new(), s, aggregate, error));
    let explored = tally.explored;
    let termination = match interrupt {
        Some(reason) => tally.governor.interrupted(reason, explored),
        None if satisfied => Termination::Satisfied,
        None => Termination::Exhausted,
    };
    // The clean end's commit; every other exit commits as the tally drops.
    drop(tally);
    let stats = eval.stats();
    if let Some(feed) = feed {
        feed.push(ProgressEvent {
            query_id,
            layer: current_layer,
            explored,
            frontier: 0,
            store_bytes: explorer.store().approx_bytes() as u64,
            elapsed_ms: 0,
            terminal: true,
        });
    }
    if obs.is_enabled() {
        obs.record_exec_stats(&stats.fields());
        let (termination, n_answers) = (&termination, answers.len());
        let query_id = obs.query_id();
        obs.trace(0, || {
            let qid = query_id.map(|id| format!("[q{id}] ")).unwrap_or_default();
            format!("{qid}done: {termination} — explored {explored}, {n_answers} answer(s)")
        });
    }
    Ok(AcqOutcome {
        satisfied,
        closest,
        original_aggregate,
        contracted: contracting,
        explored,
        layers: current_layer,
        peak_store: explorer.store().peak_len(),
        stats,
        termination,
        queries: answers,
    })
}

/// Convenience entry point: fills predicate domains from catalog statistics,
/// builds the requested evaluation layer with the right caps, and runs the
/// search the constraint asks for — the short form of
/// [`run_acquire_progress`].
///
/// ```
/// use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
/// use acq_query::{AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval,
///                 Predicate, RefineSide};
/// use acquire_core::{run_acquire, AcquireConfig, EvalLayerKind};
///
/// // 100 products priced 1..=100.
/// let mut b = TableBuilder::new("products", vec![Field::new("price", DataType::Float)])?;
/// for i in 1..=100 {
///     b.push_row(vec![Value::Float(i as f64)]);
/// }
/// let mut catalog = Catalog::new();
/// catalog.register(b.finish()?)?;
///
/// // "price <= 20" admits 20 products; the campaign needs 50.
/// let query = AcqQuery::builder()
///     .table("products")
///     .predicate(Predicate::select(
///         ColRef::new("products", "price"),
///         Interval::new(1.0, 20.0),
///         RefineSide::Upper,
///     ))
///     .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 50.0))
///     .build()?;
///
/// let mut exec = Executor::new(catalog);
/// let outcome = run_acquire(&mut exec, &query, &AcquireConfig::default(),
///                           EvalLayerKind::CachedScore)?;
/// assert!(outcome.satisfied);
/// let best = outcome.best().unwrap();
/// assert!((best.aggregate - 50.0).abs() <= 50.0 * 0.05); // within delta
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_acquire(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
) -> Result<AcqOutcome, CoreError> {
    let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
    run_acquire_progress(exec, query, cfg, kind, Host::new(&cancel, &obs))
}

/// What a host lends one request besides its executor: how to stop it,
/// where it reports, and what it may share with the host's other requests.
#[derive(Clone, Copy)]
pub struct Host<'a> {
    /// Interrupts the request's searches cooperatively.
    pub cancel: &'a CancellationToken,
    /// Where the request's metrics and trace go.
    pub obs: &'a Obs,
    /// Where its progress events go, if anyone listens.
    pub progress: Option<&'a ProgressSink>,
    /// The host's prepared-layer cache. Every layer the request builds —
    /// either direction's — is then shared with the other requests over the
    /// same predicate set; `None` builds fresh. The outcome, `stats`
    /// included, is the same either way.
    pub prepared: Option<&'a PreparedCache>,
}

impl<'a> Host<'a> {
    /// A host that listens to no progress and shares nothing.
    #[must_use]
    pub fn new(cancel: &'a CancellationToken, obs: &'a Obs) -> Self {
        Self {
            cancel,
            obs,
            progress: None,
            prepared: None,
        }
    }
}

/// The full form of [`run_acquire`], and the one request → outcome path of
/// every host (the serve binary, the CLI): builds the requested evaluation
/// layer and runs the search the constraint asks for. `=`, `>=` and `>`
/// expand; `<=` and `<` contract (§7.2); and an `=` whose expansion ends
/// unsatisfied because the original already overshoots the target —
/// expansion can only grow the aggregate — falls through to contraction,
/// unless nothing in the query is contractible, when the expansion outcome
/// (its closest query is still useful) is returned.
/// [`AcqOutcome::contracted`] says which search produced the outcome.
///
/// Both searches of a fall-through share the handle and the sink: counters
/// keep counting, `explored` stays strictly monotone across the stream, and
/// its one terminal event is the returned outcome's.
pub fn run_acquire_progress(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    kind: EvalLayerKind,
    host: Host<'_>,
) -> Result<AcqOutcome, CoreError> {
    Feed::run(host.progress, |mut feed| {
        let constraint = &query.constraint;
        if matches!(constraint.op, CmpOp::Le | CmpOp::Lt) {
            let plan = contraction(query)?;
            return run_contraction_in(exec, plan, cfg, kind, host, feed);
        }
        let expanded = {
            let (query, mut eval) = prepare_layer(exec, query, cfg, kind, host.prepared, host.obs)?;
            let (dir, feed) = (Direction::Expand, feed.as_deref_mut());
            search(&mut *eval, &query, &dir, cfg, host.cancel, host.obs, feed)?
        };
        let overshoots = !expanded.satisfied
            && constraint.op == CmpOp::Eq
            && expanded.original_aggregate > constraint.target;
        if overshoots {
            if let Ok(plan) = contraction(query) {
                let mut out = run_contraction_in(exec, plan, cfg, kind, host, feed)?;
                // This request did observe `Q`: in its first search.
                out.original_aggregate = expanded.original_aggregate;
                return Ok(out);
            }
        }
        Ok(expanded)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
    use acq_query::{
        AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate,
        RefineSide,
    };

    /// 1000 rows, x = 0.0, 0.1, ..., 99.9 and y = i mod 100.
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

    fn count_query(target: f64) -> AcqQuery {
        AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(
                AggregateSpec::count(),
                CmpOp::Eq,
                target,
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn satisfied_at_origin_when_constraint_already_met() {
        let mut exec = Executor::new(catalog());
        // x <= 10 admits 101 tuples; target 101 is met with zero refinement.
        let out = run_acquire(
            &mut exec,
            &count_query(101.0),
            &AcquireConfig::default(),
            EvalLayerKind::Scan,
        )
        .unwrap();
        assert!(out.satisfied);
        let best = out.best().unwrap();
        assert_eq!(best.qscore, 0.0);
        assert_eq!(best.aggregate, 101.0);
        assert_eq!(out.original_aggregate, 101.0);
    }

    #[test]
    fn expands_to_meet_count_target() {
        for kind in [EvalLayerKind::Scan, EvalLayerKind::CachedScore] {
            let mut exec = Executor::new(catalog());
            // Need 200 tuples: x <= ~19.9, i.e. ~100% refinement of [0,10].
            let out = run_acquire(
                &mut exec,
                &count_query(200.0),
                &AcquireConfig::default(),
                kind,
            )
            .unwrap();
            assert!(out.satisfied, "{kind:?}");
            let best = out.best().unwrap();
            let err = (best.aggregate - 200.0).abs() / 200.0;
            assert!(err <= 0.05, "{kind:?}: aggregate {}", best.aggregate);
            // ~100% refinement expected (within one grid layer + delta slack).
            assert!(
                best.qscore >= 80.0 && best.qscore <= 120.0,
                "{kind:?}: {}",
                best.qscore
            );
        }
    }

    #[test]
    fn all_evaluators_agree_on_the_outcome() {
        let mut results = Vec::new();
        for kind in [EvalLayerKind::Scan, EvalLayerKind::CachedScore] {
            let mut exec = Executor::new(catalog());
            let out = run_acquire(
                &mut exec,
                &count_query(300.0),
                &AcquireConfig::default(),
                kind,
            )
            .unwrap();
            let best = out.best().unwrap().clone();
            results.push((best.qscore, best.aggregate));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn answer_layer_collects_alternatives() {
        // Two symmetric dimensions: multiple grid queries in the answer
        // layer satisfy the constraint.
        let mut exec = Executor::new(catalog());
        let q = AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 50.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 99.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 550.0))
            .error_fn(AggErrorFn::HingeRelative)
            .build()
            .unwrap();
        let out = run_acquire(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        // Every answer shares the minimal refinement layer; qscores are
        // sorted ascending.
        let qs: Vec<f64> = out.queries.iter().map(|r| r.qscore).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unsatisfiable_returns_closest() {
        let mut exec = Executor::new(catalog());
        // Only 1000 tuples exist; a COUNT of 5000 is unreachable.
        let out = run_acquire(
            &mut exec,
            &count_query(5000.0),
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(!out.satisfied);
        assert!(out.queries.is_empty());
        let closest = out.closest.unwrap();
        assert_eq!(closest.aggregate, 1000.0, "closest admits everything");
    }

    #[test]
    fn repartition_hits_fine_targets() {
        let mut exec = Executor::new(catalog());
        // delta tight enough that no coarse grid query matches 157 exactly,
        // but the crossing cell can be repartitioned into it.
        let cfg = AcquireConfig {
            delta: 0.005,
            repartition_depth: 12,
            ..Default::default()
        };
        let out = run_acquire(
            &mut exec,
            &count_query(157.0),
            &cfg,
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        let best = out.best().unwrap();
        assert!(
            (best.aggregate - 157.0).abs() / 157.0 <= 0.005,
            "aggregate {}",
            best.aggregate
        );
    }

    #[test]
    fn sum_constraint_with_hinge() {
        let mut exec = Executor::new(catalog());
        let q = AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(
                AggregateSpec::sum(ColRef::new("t", "y")),
                CmpOp::Ge,
                20_000.0,
            ))
            .build()
            .unwrap();
        let out = run_acquire(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        assert!(out.best().unwrap().aggregate >= 20_000.0 * 0.95);
    }

    #[test]
    fn max_constraint() {
        let mut exec = Executor::new(catalog());
        let q = AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 5.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(
                AggregateSpec::max(ColRef::new("t", "y")),
                CmpOp::Ge,
                80.0,
            ))
            .build()
            .unwrap();
        let out = run_acquire(
            &mut exec,
            &q,
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        assert!(out.best().unwrap().aggregate >= 80.0);
    }

    #[test]
    fn linf_norm_uses_algorithm_two() {
        let mut exec = Executor::new(catalog());
        let cfg = AcquireConfig::default().with_norm(Norm::LInf);
        let out = run_acquire(
            &mut exec,
            &count_query(200.0),
            &cfg,
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        assert!(out.satisfied);
        let best = out.best().unwrap();
        assert!((best.aggregate - 200.0).abs() / 200.0 <= 0.05);
    }

    #[test]
    fn results_render_refined_sql() {
        let mut exec = Executor::new(catalog());
        let out = run_acquire(
            &mut exec,
            &count_query(200.0),
            &AcquireConfig::default(),
            EvalLayerKind::CachedScore,
        )
        .unwrap();
        let best = out.best().unwrap();
        assert!(best.sql.contains("SELECT * FROM t"), "{}", best.sql);
        assert!(
            best.sql.contains("CONSTRAINT COUNT(*) = 200"),
            "{}",
            best.sql
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut exec = Executor::new(catalog());
        let cfg = AcquireConfig::default().with_gamma(-1.0);
        let err = run_acquire(&mut exec, &count_query(10.0), &cfg, EvalLayerKind::Scan);
        assert!(matches!(err.unwrap_err(), CoreError::Config(_)));
    }
}
