//! # acq-engine — in-memory columnar query engine substrate
//!
//! The paper delegates all query execution to an *evaluation layer* (Postgres
//! in their implementation) and stresses that the layer is modular (§3).
//! This crate is that layer: a small, deterministic, in-memory columnar
//! engine providing exactly the operations ACQUIRE and the baseline
//! techniques need —
//!
//! * typed columnar [`Table`]s with a [`Catalog`] and per-column statistics;
//! * materialisation of a query's *base relation* in two levels: the
//!   table prefilters (NOREFINE, and refinable ones within the refinement
//!   caps) and hash equi-joins for NOREFINE structural joins
//!   ([`Executor::structural`]; built with caps that keep every row, it is
//!   what no refinement touches), then band joins for refinable join
//!   predicates ([`Executor::refine`]; [`Executor::base_relation`] runs
//!   both);
//! * **cell queries** (§5.1): aggregates over the tuples whose per-predicate
//!   refinement scores fall into one grid cell of the refined space
//!   ([`Executor::cell_aggregate`]);
//! * full refined-query aggregates ([`Executor::full_aggregate`]) used by
//!   the baselines, which re-execute whole queries;
//! * mergeable aggregate states ([`AggState`]) implementing the
//!   optimal-substructure "+" of §2.6 (COUNT/SUM/MIN/MAX, AVG as SUM+COUNT,
//!   and registered user-defined aggregates);
//! * [`ExecStats`] work counters (queries issued, tuples scanned, rows
//!   joined) so experiments can report machine-independent costs.
//!
//! Everything is seeded/deterministic and single-threaded by design: the
//! experiments compare *work*, and wall-clock numbers remain meaningful.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod aggregate;
mod catalog;
mod column;
pub mod csv;
mod error;
mod executor;
mod join;
mod relation;
mod sampling;
mod schema;
mod scoring;
mod stats;
mod table;
mod value;

pub use aggregate::{AggState, SumSquares, UdaRegistry, UdaState};
pub use catalog::Catalog;
pub use column::ColumnData;
pub use error::{EngineError, EngineResult};
pub use executor::{CellRange, Executor, Structural};
pub use join::{band_join, hash_equi_join};
pub use relation::Relation;
pub use sampling::{bernoulli_sample, sample_catalog_tables, scale_target_for_sample};
pub use schema::{Field, Schema};
pub use scoring::{BoundQuery, ResolvedQuery, TableScores};
pub use stats::ExecStats;
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
