//! Metrics flight recorder: a bounded time-series of the process registry.
//!
//! `/metrics` is a point-in-time scrape; the [`FlightRecorder`] adds the
//! temporal axis. A background sampler thread captures the absorbed
//! [`Metrics`] registry at a fixed cadence into a bounded ring. Counters
//! are **delta-encoded** (each sample stores the increment since the
//! previous sample, so a flat-lining counter costs a row of zeros and rates
//! fall straight out); gauges are stored as-is, `null` until first set.
//! When the ring is full the oldest sample is evicted and counted — the
//! rendering is honest about history it no longer has.
//!
//! The recorder renders to JSON for `GET /timeseries` and answers
//! per-counter rate queries over a trailing window ([`FlightRecorder::rate`]).
//! Sampling never touches any commit path: the sampler reads the same
//! relaxed atomics a `/metrics` scrape reads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// Schema version of the `/timeseries` JSON rendering.
pub const TIMESERIES_VERSION: u32 = 1;

/// Default sampling cadence.
pub const DEFAULT_RECORDER_CADENCE: Duration = Duration::from_millis(1000);

/// Default ring capacity: ten minutes of history at the default cadence.
pub const DEFAULT_RECORDER_CAPACITY: usize = 600;

/// Gauge columns captured per sample, in stable order. Unset gauges render
/// as `null` (matching their omission from [`MetricsSnapshot`]).
///
/// [`MetricsSnapshot`]: crate::snapshot::MetricsSnapshot
pub const RECORDER_GAUGES: &[&str] = &[
    "current_layer",
    "frontier_batch",
    "store_len",
    "store_peak",
    "store_bytes",
    "budget_headroom",
];

/// A named external counter column sampled alongside the [`Metrics`]
/// registry. Serve-level counters (shed, 429s, journal drops) live in other
/// crates; closure sources keep the dependency arrow pointing this way
/// while still giving those counters delta-encoded history and
/// [`FlightRecorder::rate`] windows on `GET /timeseries`.
pub type CounterSource = (String, Arc<dyn Fn() -> u64 + Send + Sync>);

fn gauge_reads(m: &Metrics) -> Vec<Option<u64>> {
    vec![
        m.current_layer.get(),
        m.frontier_batch.get(),
        m.store_len.get(),
        m.store_peak.get(),
        m.store_bytes.get(),
        m.budget_headroom.get(),
    ]
}

/// One captured sample: counter increments since the previous sample plus
/// instantaneous gauge values.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Milliseconds since the recorder started.
    pub at_ms: u64,
    /// Per-counter increments since the previous sample, aligned with the
    /// recorder's counter-name header.
    pub deltas: Vec<u64>,
    /// Gauge values at capture time, aligned with [`RECORDER_GAUGES`];
    /// `None` until a gauge is first set.
    pub gauges: Vec<Option<u64>>,
}

struct Ring {
    samples: VecDeque<Sample>,
    /// Absolute counter values at the last sample (delta-encoding state).
    last_counters: Vec<u64>,
    /// Samples evicted because the ring was full.
    evicted: u64,
}

struct RecorderInner {
    metrics: Arc<Metrics>,
    cadence: Duration,
    capacity: usize,
    start: Instant,
    counter_names: Vec<String>,
    extra: Vec<CounterSource>,
    ring: Mutex<Ring>,
    stop: AtomicBool,
}

impl RecorderInner {
    fn sample(&self) {
        let at_ms = self.start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let mut counters: Vec<u64> = self
            .metrics
            .counter_values()
            .iter()
            .map(|&(_, v)| v)
            .collect();
        counters.extend(self.extra.iter().map(|(_, read)| read()));
        let gauges = gauge_reads(&self.metrics);
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let deltas = counters
            .iter()
            .zip(&ring.last_counters)
            .map(|(&now, &prev)| now.saturating_sub(prev))
            .collect();
        ring.last_counters = counters;
        if ring.samples.len() >= self.capacity {
            ring.samples.pop_front();
            ring.evicted += 1;
        }
        ring.samples.push_back(Sample {
            at_ms,
            deltas,
            gauges,
        });
    }
}

/// The metrics flight recorder; see the module docs.
///
/// Construct with [`FlightRecorder::start`] (spawns the sampler thread) or
/// [`FlightRecorder::paused`] (no thread — tests and the bench harness tick
/// it manually with [`sample_now`]). Dropping the recorder stops and joins
/// the sampler.
///
/// [`sample_now`]: FlightRecorder::sample_now
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
    sampler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cadence", &self.inner.cadence)
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .field("evicted", &self.evicted())
            .field("sampling", &self.sampler.is_some())
            .finish()
    }
}

impl FlightRecorder {
    fn build(
        metrics: Arc<Metrics>,
        cadence: Duration,
        capacity: usize,
        extra: Vec<CounterSource>,
    ) -> Arc<RecorderInner> {
        let mut counter_names: Vec<String> = metrics
            .counter_values()
            .iter()
            .map(|&(k, _)| k.to_string())
            .collect();
        counter_names.extend(extra.iter().map(|(name, _)| name.clone()));
        let n = counter_names.len();
        Arc::new(RecorderInner {
            metrics,
            cadence: cadence.max(Duration::from_millis(1)),
            capacity: capacity.max(1),
            start: Instant::now(),
            counter_names,
            extra,
            ring: Mutex::new(Ring {
                samples: VecDeque::new(),
                last_counters: vec![0; n],
                evicted: 0,
            }),
            stop: AtomicBool::new(false),
        })
    }

    /// A recorder without a sampler thread; callers drive it with
    /// [`FlightRecorder::sample_now`].
    pub fn paused(metrics: Arc<Metrics>, cadence: Duration, capacity: usize) -> Self {
        Self::paused_with_sources(metrics, cadence, capacity, Vec::new())
    }

    /// [`FlightRecorder::paused`] plus extra [`CounterSource`] columns
    /// appended after the registry counters.
    pub fn paused_with_sources(
        metrics: Arc<Metrics>,
        cadence: Duration,
        capacity: usize,
        extra: Vec<CounterSource>,
    ) -> Self {
        Self {
            inner: Self::build(metrics, cadence, capacity, extra),
            sampler: None,
        }
    }

    /// Starts the recorder with a background sampler thread capturing one
    /// sample every `cadence` (clamped to ≥ 1 ms; `capacity` to ≥ 1).
    pub fn start(metrics: Arc<Metrics>, cadence: Duration, capacity: usize) -> Self {
        Self::start_with_sources(metrics, cadence, capacity, Vec::new())
    }

    /// [`FlightRecorder::start`] plus extra [`CounterSource`] columns
    /// appended after the registry counters.
    pub fn start_with_sources(
        metrics: Arc<Metrics>,
        cadence: Duration,
        capacity: usize,
        extra: Vec<CounterSource>,
    ) -> Self {
        let inner = Self::build(metrics, cadence, capacity, extra);
        let worker = Arc::clone(&inner);
        let sampler = std::thread::Builder::new()
            .name("acq-flight-recorder".to_string())
            .spawn(move || {
                // Poll the stop flag in short slices so drop/join stays
                // prompt even at multi-second cadences.
                let slice = worker.cadence.min(Duration::from_millis(50));
                let mut next = worker.cadence;
                while !worker.stop.load(Ordering::Acquire) {
                    let now = worker.start.elapsed();
                    if now >= next {
                        worker.sample();
                        // Skip missed ticks rather than bursting to catch up.
                        while next <= now {
                            next += worker.cadence;
                        }
                    }
                    std::thread::sleep(slice.min(next.saturating_sub(worker.start.elapsed())));
                }
            })
            .expect("spawn flight-recorder sampler"); // lint-allow(panic-hygiene): thread spawn fails only on resource exhaustion at startup
        Self {
            inner,
            sampler: Some(sampler),
        }
    }

    /// Sampling cadence in milliseconds.
    pub fn cadence_ms(&self) -> u64 {
        self.inner.cadence.as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Maximum retained samples.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Retained samples right now.
    pub fn len(&self) -> usize {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .samples
            .len()
    }

    /// Whether no sample has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .evicted
    }

    /// Captures one sample immediately (tests, bench harness, and the final
    /// flush before rendering a report).
    pub fn sample_now(&self) {
        self.inner.sample();
    }

    /// Mean per-second rate of `counter` over the trailing `window`.
    ///
    /// Sums the delta-encoded increments of every retained sample whose
    /// timestamp falls inside the window and divides by the window span
    /// actually covered (clamped to one cadence minimum, so a single-sample
    /// ring still yields a finite rate). `None` for unknown counters or an
    /// empty ring.
    pub fn rate(&self, counter: &str, window: Duration) -> Option<f64> {
        let col = self
            .inner
            .counter_names
            .iter()
            .position(|name| name == counter)?;
        let ring = self
            .inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let last_at = ring.samples.back()?.at_ms;
        let window_ms = window.as_millis().min(u128::from(u64::MAX)) as u64;
        let cutoff = last_at.saturating_sub(window_ms);
        let mut sum = 0u64;
        let mut earliest = last_at;
        for s in ring.samples.iter().rev() {
            if s.at_ms <= cutoff && s.at_ms != last_at {
                break;
            }
            sum += s.deltas.get(col).copied().unwrap_or(0);
            earliest = s.at_ms;
        }
        // Each sample's deltas cover the cadence interval *ending* at its
        // timestamp, so the covered span reaches one cadence before the
        // earliest included sample.
        let cadence_ms = self.cadence_ms().max(1);
        let span_ms = (last_at - earliest + cadence_ms).min(window_ms.max(cadence_ms));
        Some(sum as f64 / (span_ms as f64 / 1000.0))
    }

    /// Renders the ring as the `/timeseries` JSON document. `rate_window`
    /// sets the trailing window for the included per-counter rates.
    pub fn to_json(&self, rate_window: Duration) -> String {
        let names = &self.inner.counter_names;
        let rates: Vec<Option<f64>> = names
            .iter()
            .map(|name| self.rate(name, rate_window))
            .collect();
        let ring = self
            .inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(1024 + ring.samples.len() * 128);
        out.push_str(&format!(
            "{{\"version\":{TIMESERIES_VERSION},\"cadence_ms\":{},\"capacity\":{},\"evicted\":{},",
            self.cadence_ms(),
            self.inner.capacity,
            ring.evicted
        ));
        out.push_str("\"counters\":[");
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\""));
        }
        out.push_str("],\"gauges\":[");
        for (i, name) in RECORDER_GAUGES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\""));
        }
        out.push_str(&format!(
            "],\"rate_window_ms\":{},\"rates\":[",
            rate_window.as_millis().min(u128::from(u64::MAX))
        ));
        for (i, r) in rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match r {
                Some(r) => out.push_str(&crate::snapshot::fmt_f64(*r)),
                None => out.push_str("null"),
            }
        }
        out.push_str("],\"samples\":[");
        for (i, s) in ring.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"at_ms\":{},\"deltas\":[", s.at_ms));
            for (j, d) in s.deltas.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&d.to_string());
            }
            out.push_str("],\"gauges\":[");
            for (j, g) in s.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match g {
                    Some(v) => out.push_str(&v.to_string()),
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn recorder(capacity: usize) -> (Arc<Metrics>, FlightRecorder) {
        let metrics = Arc::new(Metrics::new());
        let rec =
            FlightRecorder::paused(Arc::clone(&metrics), Duration::from_millis(1000), capacity);
        (metrics, rec)
    }

    #[test]
    fn samples_delta_encode_counters() {
        let (metrics, rec) = recorder(8);
        metrics.cells_executed.add(10);
        rec.sample_now();
        metrics.cells_executed.add(5);
        rec.sample_now();
        rec.sample_now();
        let json = rec.to_json(Duration::from_secs(30));
        let doc = json::parse(&json).expect("valid json");
        let samples = doc.pointer("/samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 3);
        // cells_executed is the first counter column.
        let col0 = |i: usize| {
            samples[i]
                .pointer("/deltas/0")
                .and_then(|v| v.as_f64())
                .unwrap()
        };
        assert_eq!(col0(0), 10.0);
        assert_eq!(col0(1), 5.0);
        assert_eq!(col0(2), 0.0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let (metrics, rec) = recorder(2);
        for i in 0..5 {
            metrics.answers_found.add(i + 1);
            rec.sample_now();
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 3);
        let doc = json::parse(&rec.to_json(Duration::from_secs(30))).unwrap();
        assert_eq!(doc.pointer("/evicted").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(doc.pointer("/samples").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn gauges_render_null_until_set() {
        let (metrics, rec) = recorder(4);
        rec.sample_now();
        metrics.current_layer.set(3);
        rec.sample_now();
        let doc = json::parse(&rec.to_json(Duration::from_secs(30))).unwrap();
        assert_eq!(
            doc.pointer("/samples/0/gauges/0"),
            Some(&json::JsonValue::Null)
        );
        assert_eq!(
            doc.pointer("/samples/1/gauges/0").and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }

    #[test]
    fn rate_over_window() {
        let (metrics, rec) = recorder(16);
        // Cadence 1000 ms; each manual tick lands at ~0 elapsed, so the
        // covered span clamps to one cadence. 30 increments over 3 samples.
        for _ in 0..3 {
            metrics.cells_executed.add(10);
            rec.sample_now();
        }
        let r = rec.rate("cells_executed", Duration::from_secs(30)).unwrap();
        assert!(r > 0.0, "rate must be positive, got {r}");
        assert!(rec
            .rate("no_such_counter", Duration::from_secs(30))
            .is_none());
        // Empty ring: no rate.
        let (_m2, empty) = recorder(4);
        assert!(empty
            .rate("cells_executed", Duration::from_secs(30))
            .is_none());
    }

    #[test]
    fn json_header_lists_counters_and_gauges() {
        let (_metrics, rec) = recorder(4);
        rec.sample_now();
        let doc = json::parse(&rec.to_json(Duration::from_secs(5))).unwrap();
        assert_eq!(
            doc.pointer("/version").and_then(|v| v.as_f64()),
            Some(f64::from(TIMESERIES_VERSION))
        );
        let counters = doc.pointer("/counters").unwrap().as_arr().unwrap();
        assert_eq!(
            counters[0].as_str(),
            Some("cells_executed"),
            "column order must match Metrics::counter_values"
        );
        let gauges = doc.pointer("/gauges").unwrap().as_arr().unwrap();
        assert_eq!(gauges.len(), RECORDER_GAUGES.len());
        assert_eq!(
            doc.pointer("/rate_window_ms").and_then(|v| v.as_f64()),
            Some(5000.0)
        );
    }

    #[test]
    fn wraparound_at_exact_capacity_boundary() {
        // Satellite coverage: filling the ring to *exactly* capacity must
        // not evict; the very next sample evicts exactly one, and the
        // surviving window is the newest `capacity` samples in order.
        let (metrics, rec) = recorder(3);
        for i in 0..3u64 {
            metrics.cells_executed.add(i + 1); // deltas 1, 2, 3
            rec.sample_now();
        }
        assert_eq!(rec.len(), 3, "exactly full, nothing evicted yet");
        assert_eq!(rec.evicted(), 0);
        metrics.cells_executed.add(4);
        rec.sample_now();
        assert_eq!(rec.len(), 3, "capacity holds");
        assert_eq!(rec.evicted(), 1, "exactly the oldest sample evicted");
        let doc = json::parse(&rec.to_json(Duration::from_secs(30))).unwrap();
        let samples = doc.pointer("/samples").unwrap().as_arr().unwrap();
        let col0: Vec<f64> = samples
            .iter()
            .map(|s| s.pointer("/deltas/0").and_then(|v| v.as_f64()).unwrap())
            .collect();
        assert_eq!(col0, vec![2.0, 3.0, 4.0], "oldest delta gone, order kept");
        // Delta continuity across the eviction: the next sample still
        // encodes against the last absolute value, not the evicted one.
        metrics.cells_executed.add(7);
        rec.sample_now();
        let doc = json::parse(&rec.to_json(Duration::from_secs(30))).unwrap();
        assert_eq!(
            doc.pointer("/samples/2/deltas/0").and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn extra_sources_append_columns_and_rates() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let metrics = Arc::new(Metrics::new());
        let shed = Arc::new(AtomicU64::new(0));
        let reader = Arc::clone(&shed);
        let rec = FlightRecorder::paused_with_sources(
            Arc::clone(&metrics),
            Duration::from_millis(1000),
            8,
            vec![(
                "serve_shed".to_string(),
                Arc::new(move || reader.load(Ordering::Relaxed)),
            )],
        );
        shed.store(4, Ordering::Relaxed);
        rec.sample_now();
        shed.store(9, Ordering::Relaxed);
        rec.sample_now();
        let doc = json::parse(&rec.to_json(Duration::from_secs(30))).unwrap();
        let counters = doc.pointer("/counters").unwrap().as_arr().unwrap();
        assert_eq!(
            counters.last().and_then(|v| v.as_str()),
            Some("serve_shed"),
            "external column appended after the registry counters"
        );
        let last = counters.len() - 1;
        let delta = |i: usize| {
            doc.pointer(&format!("/samples/{i}/deltas/{last}"))
                .and_then(|v| v.as_f64())
                .unwrap()
        };
        assert_eq!(delta(0), 4.0);
        assert_eq!(delta(1), 5.0);
        assert!(rec.rate("serve_shed", Duration::from_secs(30)).unwrap() > 0.0);
    }

    #[test]
    fn background_sampler_captures_and_stops() {
        let metrics = Arc::new(Metrics::new());
        let rec = FlightRecorder::start(Arc::clone(&metrics), Duration::from_millis(10), 64);
        metrics.cells_executed.add(42);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rec.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!rec.is_empty(), "sampler never captured a sample");
        drop(rec); // joins the sampler thread
    }
}
