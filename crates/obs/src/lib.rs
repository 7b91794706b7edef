//! Zero-dependency observability for the ACQUIRE pipeline.
//!
//! The crate provides one cheap, cloneable handle — [`Obs`] — that the
//! driver, thread pool, governor and fault layers thread through the
//! pipeline. A handle exists in three states:
//!
//! - **disabled** ([`Obs::disabled`]): a `None` inside; every record method
//!   is a branch on a null pointer and nothing else. This is the default
//!   everywhere, which is how the <2% disabled-overhead budget is met.
//! - **counters** ([`Obs::enabled`]): the fixed instrument registry
//!   ([`Metrics`]) is live — atomic counters, gauges and fixed-bucket
//!   histograms — but no trace buffer, so no strings are ever built.
//! - **tracing** ([`Obs::with_trace`]): counters plus a bounded
//!   human-readable span/event buffer ([`TraceBuf`]).
//!
//! Sinks are pull-based: [`Obs::snapshot`] captures a [`MetricsSnapshot`]
//! that renders to JSON (`--metrics-out`) or Prometheus text, and
//! [`Obs::render_trace`] renders the trace log (`--trace`). Snapshot
//! determinism is inherited from *where* instruments are recorded, not from
//! this crate: the pipeline commits all deterministic metrics in serial
//! emission order (see DESIGN.md), so two runs of the same query produce
//! identical counter values for any thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod admission;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod schema;
pub mod snapshot;
pub mod trace;
pub mod window;

pub use admission::AdmissionStats;
pub use journal::{
    Journal, JournalRing, DEFAULT_JOURNAL_CAPACITY, DEFAULT_JOURNAL_MAX_BYTES, JOURNAL_VERSION,
};
pub use metrics::{Counter, Gauge, Histogram, Metrics, WorkerStats, MAX_WORKERS};
pub use registry::{QueryRecord, QueryRegistry, QueryStatus, QuerySummary};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SNAPSHOT_QUANTILES, SNAPSHOT_VERSION};
pub use trace::{TraceBuf, TraceEvent};
pub use window::{DecayingHistogram, RateCounter};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on retained trace events.
pub const DEFAULT_TRACE_CAPACITY: usize = 10_000;

/// Sentinel in `ObsInner::query_id` meaning "no request ID attached";
/// [`QueryRegistry`] IDs start at 1.
const QUERY_ID_UNSET: u64 = 0;

#[derive(Debug)]
struct ObsInner {
    metrics: Metrics,
    trace: Option<TraceBuf>,
    start: Instant,
    exec_stats: Mutex<Vec<(String, u64)>>,
    meta: Mutex<Vec<(String, String)>>,
    query_id: AtomicU64,
}

/// A cloneable observability handle; see the crate docs for the three
/// states. Cloning shares the underlying instruments.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The no-op handle: every method returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Counters, gauges and histograms live; tracing off.
    pub fn enabled() -> Self {
        Self::build(None)
    }

    /// Counters plus a trace buffer bounded at `capacity` events.
    pub fn with_trace(capacity: usize) -> Self {
        Self::build(Some(TraceBuf::new(capacity)))
    }

    fn build(trace: Option<TraceBuf>) -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                metrics: Metrics::new(),
                trace,
                start: Instant::now(),
                exec_stats: Mutex::new(Vec::new()),
                meta: Mutex::new(Vec::new()),
                query_id: AtomicU64::new(QUERY_ID_UNSET),
            })),
        }
    }

    /// Whether any instruments are live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the trace buffer is live (implies [`Obs::is_enabled`]).
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.is_some())
    }

    /// The instrument registry, if enabled. Hot paths should bind this once
    /// (`if let Some(m) = obs.metrics()`) instead of re-checking per event.
    #[inline]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Time since the handle was created, or zero when disabled.
    pub fn uptime(&self) -> Duration {
        self.inner
            .as_deref()
            .map(|i| i.start.elapsed())
            .unwrap_or(Duration::ZERO)
    }

    /// Records an instantaneous trace event. The label closure only runs
    /// when tracing is live, so callers can format freely.
    #[inline]
    pub fn trace(&self, depth: u8, label: impl FnOnce() -> String) {
        self.trace_inner(depth, None, label);
    }

    /// Records a completed span of duration `dur`.
    #[inline]
    pub fn trace_span(&self, depth: u8, dur: Duration, label: impl FnOnce() -> String) {
        self.trace_inner(depth, Some(dur), label);
    }

    fn trace_inner(&self, depth: u8, dur: Option<Duration>, label: impl FnOnce() -> String) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let Some(buf) = inner.trace.as_ref() else {
            return;
        };
        let event = TraceEvent {
            at: inner.start.elapsed(),
            dur,
            depth,
            label: label(),
        };
        if !buf.push(event) {
            inner.metrics.trace_dropped.inc();
        }
    }

    /// Attaches a key/value run metadata pair (layer kind, thread count, …).
    /// Re-setting a key overwrites its previous value.
    pub fn set_meta(&self, key: &str, value: &str) {
        if let Some(inner) = self.inner.as_deref() {
            let mut meta = inner.meta.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = meta.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value.to_string();
            } else {
                meta.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// Replaces the bridged engine executor statistics. Takes plain
    /// name/value pairs so the engine crate needs no dependency on this one.
    pub fn record_exec_stats(&self, fields: &[(&str, u64)]) {
        if let Some(inner) = self.inner.as_deref() {
            *inner
                .exec_stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner) =
                fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        }
    }

    /// Captures a snapshot of every instrument, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let inner = self.inner.as_deref()?;
        Some(MetricsSnapshot::capture(
            &inner.metrics,
            inner.start.elapsed().as_millis() as u64,
            inner
                .exec_stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            inner
                .meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        ))
    }

    /// Renders the trace buffer as text, or `None` unless tracing.
    pub fn render_trace(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let buf = inner.trace.as_ref()?;
        Some(buf.render(inner.metrics.trace_dropped.get()))
    }

    /// Renders the trace buffer as JSON (with an honest `truncated` flag),
    /// or `None` unless tracing. This is what `GET /trace/<id>` serves.
    pub fn render_trace_json(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let buf = inner.trace.as_ref()?;
        Some(buf.render_json(inner.metrics.trace_dropped.get()))
    }

    /// Renders the trace buffer in the Chrome trace-event format (see
    /// [`TraceBuf::render_chrome`]), or `None` unless tracing. This is what
    /// `GET /trace/<id>?format=chrome` and `--trace-format=chrome` serve;
    /// the output opens directly in `ui.perfetto.dev`.
    pub fn render_trace_chrome(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let buf = inner.trace.as_ref()?;
        Some(buf.render_chrome(inner.metrics.trace_dropped.get()))
    }

    /// Attaches a [`QueryRegistry`] request ID to this handle. The driver
    /// reads it back ([`Obs::query_id`]) to tag its phase spans, so a trace
    /// scraped from a multi-query server is attributable to its request.
    /// Also mirrored into the snapshot metadata as `query_id`.
    pub fn set_query_id(&self, id: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.query_id.store(id, Ordering::Relaxed); // relaxed-ok: tag set once before the search
            self.set_meta("query_id", &id.to_string());
        }
    }

    /// The attached request ID, if any.
    pub fn query_id(&self) -> Option<u64> {
        let inner = self.inner.as_deref()?;
        // relaxed-ok: tag read, no ordering needed
        match inner.query_id.load(Ordering::Relaxed) {
            QUERY_ID_UNSET => None,
            id => Some(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.is_tracing());
        assert!(obs.metrics().is_none());
        obs.trace(0, || panic!("label must not be built when disabled"));
        obs.set_meta("k", "v");
        obs.record_exec_stats(&[("x", 1)]);
        assert!(obs.snapshot().is_none());
        assert!(obs.render_trace().is_none());
    }

    #[test]
    fn counters_only_handle_skips_label_construction() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        assert!(!obs.is_tracing());
        obs.trace(0, || {
            panic!("label must not be built without a trace buffer")
        });
        obs.metrics().unwrap().cells_executed.inc();
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("cells_executed"), Some(1));
        assert!(obs.render_trace().is_none());
    }

    #[test]
    fn tracing_handle_records_and_renders() {
        let obs = Obs::with_trace(8);
        obs.trace(0, || "start".to_string());
        obs.trace_span(1, Duration::from_millis(2), || "layer 0".to_string());
        let text = obs.render_trace().unwrap();
        assert!(text.contains("start"), "{text}");
        assert!(text.contains("layer 0"), "{text}");
    }

    #[test]
    fn clones_share_instruments() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.metrics().unwrap().cells_executed.add(3);
        assert_eq!(obs.snapshot().unwrap().counter("cells_executed"), Some(3));
    }

    #[test]
    fn meta_overwrites_and_exec_stats_replace() {
        let obs = Obs::enabled();
        obs.set_meta("layer", "scan");
        obs.set_meta("layer", "cached-score");
        obs.record_exec_stats(&[("cell_queries", 1)]);
        obs.record_exec_stats(&[("cell_queries", 9)]);
        let snap = obs.snapshot().unwrap();
        assert_eq!(
            snap.meta,
            vec![("layer".to_string(), "cached-score".to_string())]
        );
        assert_eq!(snap.exec_stats, vec![("cell_queries".to_string(), 9)]);
    }

    #[test]
    fn query_ids_attach_and_surface_in_meta() {
        let obs = Obs::enabled();
        assert_eq!(obs.query_id(), None);
        obs.set_query_id(7);
        assert_eq!(obs.query_id(), Some(7));
        let snap = obs.snapshot().unwrap();
        assert!(snap
            .meta
            .contains(&("query_id".to_string(), "7".to_string())));
        // Disabled handles stay inert.
        let off = Obs::disabled();
        off.set_query_id(3);
        assert_eq!(off.query_id(), None);
    }

    #[test]
    fn trace_overflow_counts_dropped_events() {
        let obs = Obs::with_trace(1);
        obs.trace(0, || "kept".to_string());
        obs.trace(0, || "dropped".to_string());
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("trace_dropped"), Some(1));
        assert!(obs.render_trace().unwrap().contains("1 event(s) dropped"));
    }
}
