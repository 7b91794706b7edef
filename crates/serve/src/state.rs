//! Shared server state and configuration.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acq_engine::Catalog;
use acq_obs::journal::JournalRing;
use acq_obs::{Journal, Metrics, QueryRegistry};
use acquire_core::{CancellationToken, EvalLayerKind, PreparedCache};

use crate::admission::{QueryGate, RateLimiters};
use crate::progress::ProgressBroker;
use crate::telemetry::Telemetry;

/// Server configuration; [`ServeConfig::default`] is what the tests and the
/// smoke job use (loopback, ephemeral port).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171`. Port 0 picks an ephemeral port.
    pub addr: String,
    /// Evaluation layer requests run on.
    pub layer: EvalLayerKind,
    /// Default refinement threshold γ when a request omits it.
    pub gamma: f64,
    /// Default aggregate error threshold δ when a request omits it.
    pub delta: f64,
    /// Trace-buffer capacity of each per-query handle.
    pub trace_capacity: usize,
    /// Completed-query records retained by the registry.
    pub completed_capacity: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Hard cap a request's wall-clock deadline is clamped to; also applied
    /// to requests that ask for no deadline at all, so a pathological query
    /// cannot pin a worker thread forever.
    pub max_deadline: Duration,
    /// Most search threads one request may ask for.
    pub max_threads: usize,
    /// Concurrent executing queries before new ones queue (then shed).
    pub max_concurrent: usize,
    /// Total budget from a request's first byte to its last — a client that
    /// trickles slower than this gets `408` and the thread back.
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection is held before closing.
    pub keep_alive: Duration,
    /// Requests served per connection before the server closes it (a
    /// fairness valve against one chatty client monopolising a worker).
    pub max_requests_per_conn: usize,
    /// Fixed connection-worker threads (the session pool).
    pub workers: usize,
    /// Accepted connections waiting for a worker before the acceptor sheds
    /// new ones with `503`.
    pub accept_queue: usize,
    /// Queries waiting at the admission gate before new ones are shed.
    pub max_queued: usize,
    /// Longest a query waits at the gate before it is shed with `503`.
    pub queue_wait: Duration,
    /// Per-client token-bucket rate (queries/second); `0` disables.
    pub client_rate: f64,
    /// Per-client token-bucket burst.
    pub client_burst: f64,
    /// Global token-bucket rate (queries/second); `0` disables.
    pub global_rate: f64,
    /// Global token-bucket burst.
    pub global_burst: f64,
    /// Load fraction of `max_concurrent` above which admissions degrade to
    /// best-effort (shrunken budgets, partial anytime answers). `1.0`
    /// degrades only queued admissions.
    pub degrade_watermark: f64,
    /// Budget multiplier applied to degraded admissions
    /// ([`acquire_core::ExecutionBudget::shrunk`]).
    pub degrade_factor: f64,
    /// Durable query-journal path; `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Size at which the active journal segment rotates.
    pub journal_max_bytes: u64,
    /// Journal ring capacity (records buffered between writer drains).
    pub journal_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            layer: EvalLayerKind::CachedScore,
            gamma: 10.0,
            delta: 0.05,
            trace_capacity: acq_obs::DEFAULT_TRACE_CAPACITY,
            completed_capacity: acq_obs::registry::DEFAULT_COMPLETED_CAPACITY,
            max_body_bytes: 64 * 1024,
            max_deadline: Duration::from_secs(30),
            max_threads: 8,
            max_concurrent: 16,
            read_timeout: Duration::from_secs(5),
            keep_alive: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            workers: 8,
            accept_queue: 64,
            max_queued: 32,
            queue_wait: Duration::from_secs(1),
            client_rate: 0.0,
            client_burst: 8.0,
            global_rate: 0.0,
            global_burst: 32.0,
            degrade_watermark: 0.75,
            degrade_factor: 0.25,
            journal_path: None,
            journal_max_bytes: acq_obs::DEFAULT_JOURNAL_MAX_BYTES,
            journal_capacity: acq_obs::DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

/// Everything a worker thread needs, shared behind one `Arc`.
#[derive(Debug)]
pub struct ServerState {
    /// Immutable configuration.
    pub config: ServeConfig,
    /// The loaded tables. `Catalog` is `Clone` with `Arc`'d tables, so each
    /// request builds its own cheap `Executor` without cross-request locks.
    pub catalog: Catalog,
    /// Prepared evaluation layers, shared by every request over `catalog`
    /// whose predicate set was seen before: a request prepares only what no
    /// earlier one did.
    pub prepared: PreparedCache,
    /// Process-scoped pipeline instruments; per-query snapshots are folded
    /// in as requests complete ([`Metrics::absorb_snapshot`]).
    pub metrics: Metrics,
    /// Live progress channels for streaming `GET /query/<id>/progress`.
    pub progress: ProgressBroker,
    /// Serve-level request telemetry (rates, decaying latency, admission).
    pub telemetry: Telemetry,
    /// In-flight + recently completed queries.
    pub registry: QueryRegistry,
    /// The admission gate: bounded query concurrency + bounded queue.
    pub gate: QueryGate,
    /// Token-bucket front door (per-client + global).
    pub limiters: RateLimiters,
    /// The durable query journal, when `--journal` is set. The writer
    /// thread lives inside; request threads only touch the wait-free ring.
    pub journal: Option<Journal>,
    /// Cached producer handle of `journal` (so the hot path never clones).
    journal_ring: Option<Arc<JournalRing>>,
    /// Cancelling this token starts graceful shutdown: the accept loop
    /// stops taking connections and every in-flight search is interrupted
    /// (the driver polls the token cooperatively).
    pub shutdown: CancellationToken,
    /// Set once the listener is bound; `GET /readyz` gates on it.
    ready: AtomicBool,
    /// Process epoch; telemetry timestamps are elapsed-since-here.
    start: Instant,
}

impl ServerState {
    /// Fresh state around a loaded catalog.
    ///
    /// Panics if the ops config is invalid (unopenable `journal_path`);
    /// callers that set it use [`ServerState::try_new`] and surface the
    /// error.
    pub fn new(config: ServeConfig, catalog: Catalog) -> Self {
        Self::try_new(config, catalog).expect("ops config invalid") // lint-allow(panic-hygiene): only reachable with a journal config, whose callers use try_new
    }

    /// Fresh state around a loaded catalog, surfacing ops-config errors
    /// (journal file unopenable) instead of starting a server that silently
    /// does not journal.
    pub fn try_new(config: ServeConfig, catalog: Catalog) -> Result<Self, String> {
        let gate = QueryGate::new(
            config.max_concurrent,
            config.max_queued,
            config.queue_wait,
            config.degrade_watermark,
        );
        let limiters = RateLimiters::new(
            config.client_rate,
            config.client_burst,
            config.global_rate,
            config.global_burst,
        );
        let completed_capacity = config.completed_capacity;
        let journal = match &config.journal_path {
            Some(path) => Some(
                Journal::open(path, config.journal_max_bytes, config.journal_capacity)
                    .map_err(|e| format!("journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let journal_ring = journal.as_ref().map(Journal::ring);
        Ok(Self {
            config,
            catalog,
            prepared: PreparedCache::default(),
            metrics: Metrics::new(),
            progress: ProgressBroker::default(),
            telemetry: Telemetry::new(),
            registry: QueryRegistry::new(completed_capacity),
            gate,
            limiters,
            journal,
            journal_ring,
            shutdown: CancellationToken::new(),
            ready: AtomicBool::new(false),
            start: Instant::now(),
        })
    }

    /// The journal's wait-free producer handle, when journaling is on.
    #[inline]
    pub fn journal_ring(&self) -> Option<&Arc<JournalRing>> {
        self.journal_ring.as_ref()
    }

    /// Elapsed time since process start (the telemetry clock).
    pub fn now(&self) -> Duration {
        self.start.elapsed()
    }

    /// Marks the listener bound and accepting.
    pub fn set_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Whether the server is accepting work: bound and not shutting down.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) && !self.shutdown.is_cancelled()
    }

    /// Currently executing queries (the gate's occupancy).
    pub fn in_flight(&self) -> usize {
        self.gate.active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Admission;

    fn state(max_concurrent: usize) -> ServerState {
        ServerState::new(
            ServeConfig {
                max_concurrent,
                max_queued: 0,
                queue_wait: Duration::from_millis(100),
                ..ServeConfig::default()
            },
            Catalog::new(),
        )
    }

    #[test]
    fn readiness_requires_bind_and_no_shutdown() {
        let s = state(4);
        assert!(!s.is_ready(), "not ready before bind");
        s.set_ready();
        assert!(s.is_ready());
        s.shutdown.cancel();
        assert!(!s.is_ready(), "shutdown revokes readiness");
    }

    #[test]
    fn gate_caps_concurrency_and_sheds_load() {
        let s = state(2);
        let (a1, _p1) = s.gate.admit(&s.shutdown);
        let (a2, _p2) = s.gate.admit(&s.shutdown);
        assert!(matches!(a1, Admission::Admitted { .. }));
        assert!(matches!(a2, Admission::Admitted { .. }));
        let (a3, p3) = s.gate.admit(&s.shutdown);
        assert!(
            matches!(a3, Admission::Shed(_)),
            "third concurrent query shed with no queue: {a3:?}"
        );
        assert!(p3.is_none());
        assert_eq!(s.in_flight(), 2);
        drop(_p1);
        let (a4, _p4) = s.gate.admit(&s.shutdown);
        assert!(matches!(a4, Admission::Admitted { .. }), "slot reusable");
    }
}
