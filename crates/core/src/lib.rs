//! # acquire-core — the ACQUIRE refinement framework
//!
//! Implements the paper's contribution end to end:
//!
//! * [`RefinedSpace`] — the d-dimensional grid abstraction over predicate
//!   refinement scores, with step size `γ/d` (§4, Theorem 1);
//! * **Expand** — [`expand::BfsExpander`] (Algorithm 1, breadth-first over
//!   the grid for `Lp` norms, emitted shell by shell in its FIFO order
//!   without a queue) and [`expand::LinfExpander`] (Algorithm 2, per-layer
//!   enumeration for `L∞`), both emitting grid queries in non-decreasing
//!   refinement order (Theorem 2), each point in O(d) and lent as a slice;
//! * **Explore** — [`explore::Explorer`], the incremental aggregate
//!   computation of §5: each grid query decomposes into `d + 1` sub-queries
//!   (cell/pillar/wall/block, Eq. 5–8) of which only the *cell* is executed;
//!   the rest come from the recurrence `O_i(u) = O_{i-1}(u) + O_i(u -
//!   e_{i-1})` (Eq. 17, Algorithm 3), so no region of data is ever executed
//!   twice. [`AggStore`] keeps the sub-aggregates in two layer arenas and
//!   finds each neighbour with a forward-only cursor, so a layered search
//!   neither allocates nor hashes per point;
//! * **evaluation layers** — the modular execution backends of Fig. 2:
//!   [`ScanEvaluator`] re-executes every cell query against the engine
//!   (what the paper's Postgres deployment does), [`CachedScoreEvaluator`]
//!   caches per-tuple scores and folds every occupied cell of the searched
//!   grid once, so a cell is a lookup and empty cells are skipped without
//!   execution (§7.4); both fold a cell's rows in relation order, so they
//!   return the same bits on every aggregate;
//! * the **driver** — [`acquire`] / [`run_acquire`], Algorithm 4 with the
//!   aggregate-error threshold `δ`, proximity threshold `γ`, answer-layer
//!   collection, and cell repartitioning for overshooting queries: one
//!   search loop with two directions;
//! * **contraction** (§7.2) — the loop's second direction, for queries that
//!   return too much: it searches the space between `Q'_min` (every
//!   predicate at its minimum) and `Q`, minimising refinement with respect
//!   to `Q`. [`run_acquire`] takes it for `<=`/`<` and for an overshooting
//!   `=`; [`contract_with`] / [`run_contraction`] ask for it by name;
//! * **anytime execution** — [`govern`]: wall-clock deadlines,
//!   explored-query and memory budgets ([`ExecutionBudget`]), cooperative
//!   [`CancellationToken`]s, panic isolation around the evaluation layer,
//!   and a machine-readable [`Termination`] status on every outcome; plus
//!   [`fault`], a deterministic fault-injection harness
//!   ([`FaultInjectingLayer`]) used to prove the driver never aborts and
//!   never double-executes a region under faults or interrupts;
//! * **parallel Explore** — [`Parallelism`]: a per-layer work-stealing
//!   worker pool evaluates all cell sub-queries of the current Expand layer
//!   concurrently ([`ParallelCells`]), while the Eq. 17 merges, answer
//!   collection and accounting stay in serial emission order, so outcomes
//!   are bit-identical to a serial run for every thread count;
//! * **observability** — [`acquire_progress`] / [`run_acquire_progress`]
//!   (the full forms of the two entry points above) thread an [`Obs`] handle
//!   (re-exported from `acq-obs`) through the pipeline: phase spans,
//!   per-layer gauges, per-layer latency and cell histograms,
//!   worker utilisation, and an at-most-once violation counter, with JSON
//!   and Prometheus snapshot sinks. Deterministic instruments commit in
//!   serial emission order, so snapshots are reproducible for any thread
//!   count, and a disabled handle (the default) costs one null check per
//!   instrument.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod config;
mod contraction;
mod driver;
mod error;
mod estimate;
mod eval;
pub mod expand;
pub mod explore;
pub mod fasthash;
pub mod fault;
pub mod govern;
mod pool;
mod prepared;
pub mod profile;
pub mod progress;
mod repartition;
mod result;
mod session;
mod space;
mod store;

pub use acq_obs::{MetricsSnapshot, Obs};
pub use config::{AcquireConfig, Parallelism};
pub use contraction::{contract_with, contraction_query, run_contraction, run_contraction_with};
pub use driver::{acquire, acquire_progress, run_acquire, run_acquire_progress, Host};
pub use error::CoreError;
pub use estimate::HistogramEstimator;
pub use eval::{
    CachedScoreEvaluator, CellCost, EvalLayerKind, EvaluationLayer, ParallelCells, ScanEvaluator,
};
pub use fault::{FaultInjectingLayer, FaultSchedule};
pub use govern::{CancellationToken, ExecutionBudget, FaultPolicy, InterruptReason, Termination};
pub use prepared::{PreparedCache, PreparedCounters};
pub use profile::ExplainProfile;
pub use progress::{ProgressEvent, ProgressSink, DEFAULT_PROGRESS_CAPACITY};
pub use repartition::repartition;
pub use result::{AcqOutcome, RefinedQueryResult};
pub use session::Session;
pub use space::{GridPoint, RefinedSpace};
pub use store::AggStore;
