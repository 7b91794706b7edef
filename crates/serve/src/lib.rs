//! `acq-serve`: a long-running ACQ service.
//!
//! The paper's algorithm (EDBT 2016, "Refinement Driven Processing of
//! Aggregation Constrained Queries") is a batch search; this crate hosts it
//! as a process: a hand-rolled HTTP/1.1 server (no external dependencies,
//! per the workspace house style) that accepts ACQ requests and exposes the
//! pipeline's observability as a live scrape/health surface.
//!
//! * `POST /query` — run an ACQ request (`?explain=1` adds an
//!   EXPLAIN-style profile with the Eq. 17 reuse accounting);
//! * `GET /query/<id>/progress` — live refinement progress as NDJSON over
//!   chunked transfer encoding: one event per layer boundary, a terminal
//!   line carrying the exact `POST /query` response body;
//! * `GET /metrics` — Prometheus text: the absorbed per-query pipeline
//!   instruments plus serve-level rates and decaying latency quantiles;
//! * `GET /queries` — the in-flight + recently-completed query registry;
//! * `GET /trace/<id>` — a completed query's span tree, with honest
//!   truncation reporting (`?format=chrome` re-renders it as Chrome
//!   trace-event JSON for Perfetto);
//! * `GET /healthz`, `GET /readyz` — liveness and readiness;
//! * `POST /shutdown` — graceful stop via the workspace's
//!   [`acquire_core::CancellationToken`]; in-flight searches return their
//!   anytime results.
//!
//! The serving core is overload-resilient: a bounded acceptor feeds a
//! fixed worker pool over HTTP/1.1 keep-alive sessions, admission control
//! (per-client + global token buckets, then a bounded query gate) answers
//! honest `429`/`503` with `Retry-After`, client deadlines propagate via
//! `X-ACQ-Deadline-Ms`/`deadline_ms` into the execution budget, and past a
//! load high-water mark queries degrade to best-effort — shrunken budgets
//! returning partial anytime answers with an explicit `termination` —
//! instead of being shed. See [`admission`] and `DESIGN.md`.
//!
//! Every request runs against its own [`acq_obs::Obs`] handle, so the
//! driver's serial-emission-order guarantees hold per query: outcomes stay
//! bit-identical across thread counts with serve instrumentation enabled,
//! and each registry record satisfies `cells_executed == explored`.
//!
//! With `--journal <path>` every request's lifecycle (admission decision,
//! exploration digest, termination, `outcome_key`) is appended as
//! schema-validated NDJSON
//! (`schemas/journal.schema.json`) to a size-rotated on-disk log, fed by a
//! bounded wait-free ring so the serial commit path never blocks on disk;
//! `acq journal` greps/replays/summarizes it offline. See
//! [`acq_obs::journal`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod cli;
pub mod handlers;
pub mod http;
pub mod progress;
pub mod server;
pub mod state;
pub mod telemetry;

pub use admission::{Admission, QueryGate, RateLimiters, TokenBucket};
pub use progress::{ProgressBroker, ProgressChannel};
pub use server::Server;
pub use state::{ServeConfig, ServerState};
pub use telemetry::Telemetry;
