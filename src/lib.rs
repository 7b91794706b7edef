//! # acquire — Refinement Driven Processing of Aggregation Constrained Queries
//!
//! A full reproduction of *Vartak, Raghavan, Rundensteiner, Madden:
//! "Refinement Driven Processing of Aggregation Constrained Queries"*
//! (EDBT 2016) as a Rust workspace. This facade crate re-exports every
//! sub-crate:
//!
//! * [`query`] (`acq-query`) — the ACQ model: predicates, intervals,
//!   refinement scores, norms, aggregate constraints, ontologies;
//! * [`engine`] (`acq-engine`) — the in-memory columnar evaluation layer:
//!   tables, joins, cell queries, mergeable aggregates, work counters;
//! * [`datagen`] (`acq-datagen`) — deterministic TPC-H-shaped / users /
//!   patients datasets, uniform and Zipf-skewed;
//! * [`sql`] (`acq-sql`) — the `CONSTRAINT` / `NOREFINE` SQL dialect;
//! * [`core`] (`acquire-core`) — ACQUIRE itself: refined space, Expand,
//!   Explore (incremental aggregate computation), driver, repartitioning,
//!   contraction, and the two exact evaluation layers (scan / cached
//!   score with its §7.4 cell table);
//! * [`baselines`] (`acq-baselines`) — Top-k, TQGen, BinSearch;
//! * [`obs`] (`acq-obs`) — zero-dependency observability: spans, counters,
//!   gauges, latency histograms, JSON/Prometheus snapshot sinks;
//! * [`serve`] (`acq-serve`) — a long-running ACQ service: hand-rolled
//!   HTTP/1.1, live telemetry, per-query profiles, scrape/health surface.
//!
//! ## Quickstart
//!
//! ```
//! use acquire::engine::Executor;
//! use acquire::core::{run_acquire, AcquireConfig, EvalLayerKind};
//! use acquire::datagen::{users, GenConfig};
//! use acquire::sql::compile;
//!
//! // 1. Data: the Example 1 advertising audience.
//! let mut catalog = acquire::engine::Catalog::new();
//! catalog.register(users::users(&GenConfig::uniform(5_000)).unwrap()).unwrap();
//!
//! // 2. An Aggregation Constrained Query in the paper's SQL dialect.
//! let query = compile(
//!     "SELECT * FROM users CONSTRAINT COUNT(*) = 2K \
//!      WHERE age <= 30 AND income <= 60000 AND gender = 'Women' NOREFINE",
//!     &catalog,
//! )
//! .unwrap();
//!
//! // 3. Refine it.
//! let mut exec = Executor::new(catalog);
//! let outcome =
//!     run_acquire(&mut exec, &query, &AcquireConfig::default(), EvalLayerKind::CachedScore)
//!         .unwrap();
//! assert!(outcome.satisfied);
//! println!("{}", outcome.best().unwrap().sql);
//! ```

#![forbid(unsafe_code)]

pub use acq_baselines as baselines;
pub use acq_datagen as datagen;
pub use acq_engine as engine;
pub use acq_obs as obs;
pub use acq_query as query;
pub use acq_serve as serve;
pub use acq_sql as sql;
pub use acquire_core as core;
