//! Lock-free instrument primitives and the fixed pipeline instrument registry.
//!
//! Everything in this module is a plain atomic: recording is a single
//! `fetch_add`/`store` with relaxed ordering, cheap enough to leave compiled
//! into hot loops. There is no dynamic metric registration — the pipeline's
//! instruments form a closed set ([`Metrics`]) so lookup cost is a field
//! access and the snapshot format is stable.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sentinel stored in a [`Gauge`] that has never been set; such gauges are
/// omitted from snapshots.
pub const GAUGE_UNSET: u64 = u64::MAX;

/// A last-write-wins instantaneous value (e.g. current layer, store bytes).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates an unset gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(GAUGE_UNSET))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (used for peaks).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v.min(GAUGE_UNSET - 1), Ordering::Relaxed);
    }

    /// Current value, or `None` if never set.
    #[inline]
    pub fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            GAUGE_UNSET => None,
            v => Some(v),
        }
    }
}

/// Bucket upper bounds (inclusive, nanoseconds) for search-layer latency.
///
/// Log-spaced powers of four from 250 ns to ~4.2 s; observations above the
/// last bound land in the implicit overflow (`+Inf`) bucket.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// Bucket upper bounds (inclusive, cells) for the cells a search commits
/// per layer: powers of two to 4 096, then powers of four to 2^20.
pub const BATCH_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16_384, 65_536, 262_144, 1_048_576,
];

/// A fixed-bucket histogram with cumulative `count` and `sum`.
///
/// Bucket bounds are a static slice chosen at construction; one extra
/// overflow bucket catches observations above the last bound. All updates
/// are relaxed atomics, so concurrent `observe` calls never lock.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Self {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (without the overflow bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Halves every cell (buckets, `count`, `sum`), rounding down.
    ///
    /// Used by [`crate::window::DecayingHistogram`]. Each cell subtracts
    /// `v - v/2` instead of storing `v/2`, so observations racing with the
    /// sweep survive it instead of being overwritten.
    pub fn halve(&self) {
        for cell in self.cells() {
            let v = cell.load(Ordering::Relaxed);
            cell.fetch_sub(v - v / 2, Ordering::Relaxed);
        }
    }

    /// Zeroes every cell the same race-tolerant way as [`Self::halve`].
    pub fn halve_to_zero(&self) {
        for cell in self.cells() {
            let v = cell.load(Ordering::Relaxed);
            cell.fetch_sub(v, Ordering::Relaxed);
        }
    }

    /// Folds a captured snapshot of a same-bounds histogram into this one.
    /// Snapshots over different bounds are ignored (shape mismatch).
    pub fn absorb(&self, snap: &crate::snapshot::HistogramSnapshot) {
        if snap.buckets.len() != self.buckets.len() {
            return;
        }
        for (cell, &(_, n)) in self.buckets.iter().zip(&snap.buckets) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        self.buckets.iter().chain([&self.count, &self.sum])
    }
}

/// Maximum worker slots tracked individually; workers beyond this alias into
/// the last slot (the pipeline caps thread counts far below this).
pub const MAX_WORKERS: usize = 64;

/// Per-worker execution tallies for the Explore thread pool.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Cells this worker executed speculatively (own chunk + stolen).
    pub cells: Counter,
    /// Cells this worker claimed from another worker's chunk.
    pub steals: Counter,
}

/// The closed set of pipeline instruments.
///
/// Counters and histograms split into two determinism classes, documented
/// per field: *deterministic* instruments are only touched from the driver's
/// serial commit loop and are bit-reproducible for a given query and budget
/// regardless of thread count; *scheduling-dependent* instruments are
/// recorded from worker threads and vary run to run (they are informational
/// and excluded from determinism tests).
#[derive(Debug)]
pub struct Metrics {
    /// Deterministic: committed cell executions — per search, equals
    /// `AcqOutcome.explored`.
    pub cells_executed: Counter,
    /// Scheduling-dependent: speculative executions on pool workers (a cell
    /// abandoned by the pool and re-run serially is not counted here).
    pub cells_speculative: Counter,
    /// Deterministic: refined queries that satisfied the constraint.
    pub answers_found: Counter,
    /// Deterministic: repartition rounds performed (Algorithm 4).
    pub repartitions: Counter,
    /// Deterministic: runs that ended on an interrupt (budget/cancellation).
    pub interrupts: Counter,
    /// Deterministic under a fixed fault schedule: injected faults fired.
    pub faults_injected: Counter,
    /// Invariant: §5 at-most-once violations detected by the pool's result
    /// slots. Must always read 0; any other value is a bug.
    pub at_most_once_violations: Counter,
    /// Scheduling-dependent: total cross-chunk steals in the pool.
    pub worker_steals: Counter,
    /// Trace events discarded because the bounded buffer was full.
    pub trace_dropped: Counter,
    /// Deterministic: the Expand layer currently being explored, set when
    /// the search enters it.
    pub current_layer: Gauge,
    /// Deterministic: cells in the first Expand batch of that layer (1 in
    /// serial mode).
    pub frontier_batch: Gauge,
    /// Deterministic: live entries in the aggregate store.
    pub store_len: Gauge,
    /// Deterministic: peak live entries (mirrors `AcqOutcome.peak_store`).
    pub store_peak: Gauge,
    /// Deterministic: approximate bytes held by the aggregate store.
    pub store_bytes: Gauge,
    /// Deterministic: remaining `max_explored` budget, if one is set.
    pub budget_headroom: Gauge,
    /// Wall time of each search layer, from entering it to leaving it:
    /// Expand, cell execution, Eq. 17 merges, answers and repartitions.
    /// The *count* is deterministic (one observation per layer the search
    /// entered); the durations are wall clock and therefore vary.
    pub layer_latency_ns: Histogram,
    /// Deterministic: cells committed per search layer, one observation
    /// per `layer_latency_ns` observation; its sum equals
    /// `cells_executed`.
    pub batch_cells: Histogram,
    workers: Vec<WorkerStats>,
    /// Accumulated engine work counters (`ExecStats` fields) summed across
    /// every absorbed per-query snapshot, keyed by field name in first-seen
    /// order. This is what lets a process-scoped `/metrics` scrape surface
    /// `acq_exec_*_total` lines.
    exec_stats: std::sync::Mutex<Vec<(String, u64)>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates the registry with every instrument at zero/unset.
    pub fn new() -> Self {
        Self {
            cells_executed: Counter::new(),
            cells_speculative: Counter::new(),
            answers_found: Counter::new(),
            repartitions: Counter::new(),
            interrupts: Counter::new(),
            faults_injected: Counter::new(),
            at_most_once_violations: Counter::new(),
            worker_steals: Counter::new(),
            trace_dropped: Counter::new(),
            current_layer: Gauge::new(),
            frontier_batch: Gauge::new(),
            store_len: Gauge::new(),
            store_peak: Gauge::new(),
            store_bytes: Gauge::new(),
            budget_headroom: Gauge::new(),
            layer_latency_ns: Histogram::new(LATENCY_BUCKETS_NS),
            batch_cells: Histogram::new(BATCH_BUCKETS),
            workers: (0..MAX_WORKERS).map(|_| WorkerStats::default()).collect(),
            exec_stats: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The accumulated engine work counters, in first-seen field order.
    pub fn exec_stat_values(&self) -> Vec<(String, u64)> {
        self.exec_stats
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// Records one speculative cell execution by worker `w`, stolen or not.
    #[inline]
    pub fn record_worker_cell(&self, w: usize, stolen: bool) {
        let slot = &self.workers[w.min(MAX_WORKERS - 1)];
        slot.cells.inc();
        self.cells_speculative.inc();
        if stolen {
            slot.steals.inc();
            self.worker_steals.inc();
        }
    }

    /// Per-worker tallies for workers that executed at least one cell.
    pub fn worker_tallies(&self) -> Vec<(usize, u64, u64)> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cells.get() > 0)
            .map(|(i, s)| (i, s.cells.get(), s.steals.get()))
            .collect()
    }

    /// Name/value pairs for every counter, in stable snapshot order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cells_executed", self.cells_executed.get()),
            ("cells_speculative", self.cells_speculative.get()),
            ("answers_found", self.answers_found.get()),
            ("repartitions", self.repartitions.get()),
            ("interrupts", self.interrupts.get()),
            ("faults_injected", self.faults_injected.get()),
            (
                "at_most_once_violations",
                self.at_most_once_violations.get(),
            ),
            ("worker_steals", self.worker_steals.get()),
            ("trace_dropped", self.trace_dropped.get()),
        ]
    }

    /// Name/value pairs for every *set* gauge, in stable snapshot order.
    pub fn gauge_values(&self) -> Vec<(&'static str, u64)> {
        [
            ("current_layer", self.current_layer.get()),
            ("frontier_batch", self.frontier_batch.get()),
            ("store_len", self.store_len.get()),
            ("store_peak", self.store_peak.get()),
            ("store_bytes", self.store_bytes.get()),
            ("budget_headroom", self.budget_headroom.get()),
        ]
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
    }

    /// Folds a finished run's snapshot into this registry.
    ///
    /// This is how `acq-serve` aggregates: each request runs against its own
    /// per-query [`crate::Obs`] handle (so `/trace/<id>` and explain profiles
    /// stay per-query), and at completion the query's snapshot is absorbed
    /// into one process-scoped registry scraped by `/metrics`. Counters,
    /// engine work counters (`exec_stats`) and histogram buckets add; gauges
    /// keep the maximum seen across runs, which preserves the peak semantics
    /// (`store_peak`) and gives "worst run so far" for the rest.
    pub fn absorb_snapshot(&self, snap: &crate::snapshot::MetricsSnapshot) {
        for &(name, v) in &snap.counters {
            match name {
                "cells_executed" => self.cells_executed.add(v),
                "cells_speculative" => self.cells_speculative.add(v),
                "answers_found" => self.answers_found.add(v),
                "repartitions" => self.repartitions.add(v),
                "interrupts" => self.interrupts.add(v),
                "faults_injected" => self.faults_injected.add(v),
                "at_most_once_violations" => self.at_most_once_violations.add(v),
                "worker_steals" => self.worker_steals.add(v),
                "trace_dropped" => self.trace_dropped.add(v),
                _ => {} // counters added after this writer are skipped, not lost: they stay in the per-query snapshot
            }
        }
        for &(name, v) in &snap.gauges {
            match name {
                "current_layer" => self.current_layer.raise(v),
                "frontier_batch" => self.frontier_batch.raise(v),
                "store_len" => self.store_len.raise(v),
                "store_peak" => self.store_peak.raise(v),
                "store_bytes" => self.store_bytes.raise(v),
                "budget_headroom" => self.budget_headroom.raise(v),
                _ => {}
            }
        }
        for h in &snap.histograms {
            match h.name {
                "layer_latency_ns" => self.layer_latency_ns.absorb(h),
                "batch_cells" => self.batch_cells.absorb(h),
                _ => {}
            }
        }
        for &(w, cells, steals) in &snap.workers {
            let slot = &self.workers[w.min(MAX_WORKERS - 1)];
            slot.cells.add(cells);
            slot.steals.add(steals);
        }
        if let Ok(mut acc) = self.exec_stats.lock() {
            for (name, v) in &snap.exec_stats {
                match acc.iter_mut().find(|(k, _)| k == name) {
                    Some((_, total)) => *total += v,
                    None => acc.push((name.clone(), *v)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        assert_eq!(g.get(), None);
        g.set(7);
        assert_eq!(g.get(), Some(7));
        g.raise(3);
        assert_eq!(g.get(), Some(7), "raise never lowers");
        g.raise(11);
        assert_eq!(g.get(), Some(11));
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 100 + 5000);
        // Bounds are inclusive: 10 lands in the first bucket, 5000 overflows.
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 1]);
    }

    #[test]
    fn empty_histogram_snapshot_has_no_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.bucket_counts(), vec![0, 0, 0, 0]);
        let snap = crate::snapshot::HistogramSnapshot::of("h", &h);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), None, "q={q}");
        }
        assert_eq!(
            snap.quantiles(),
            [("p50", None), ("p95", None), ("p99", None)]
        );
    }

    #[test]
    fn histogram_halving_and_absorb() {
        let h = Histogram::new(&[10, 100]);
        for v in [5, 5, 50, 500] {
            h.observe(v);
        }
        h.halve();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 280);
        assert_eq!(h.bucket_counts(), vec![1, 0, 0], "halving rounds down");
        h.halve_to_zero();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);

        let src = Histogram::new(&[10, 100]);
        src.observe(7);
        src.observe(700);
        let snap = crate::snapshot::HistogramSnapshot::of("h", &src);
        h.absorb(&snap);
        h.absorb(&snap);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1414);
        assert_eq!(h.bucket_counts(), vec![2, 0, 2]);
        // Shape mismatch is ignored rather than corrupting buckets.
        let other = Histogram::new(&[1]);
        other.observe(1);
        h.absorb(&crate::snapshot::HistogramSnapshot::of("o", &other));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn absorb_snapshot_adds_counters_and_raises_gauges() {
        let per_query = Metrics::new();
        per_query.cells_executed.add(10);
        per_query.answers_found.add(2);
        per_query.store_peak.set(30);
        per_query.layer_latency_ns.observe(500);
        per_query.record_worker_cell(1, true);
        let snap = crate::snapshot::MetricsSnapshot::capture(&per_query, 0, vec![], vec![]);

        let process = Metrics::new();
        process.cells_executed.add(5);
        process.store_peak.set(40);
        process.absorb_snapshot(&snap);
        process.absorb_snapshot(&snap);
        assert_eq!(process.cells_executed.get(), 25);
        assert_eq!(process.answers_found.get(), 4);
        assert_eq!(process.store_peak.get(), Some(40), "gauges keep the max");
        assert_eq!(process.layer_latency_ns.count(), 2);
        assert_eq!(process.worker_tallies(), vec![(1, 2, 2)]);
        assert_eq!(process.worker_steals.get(), 2);
    }

    #[test]
    fn absorb_snapshot_accumulates_exec_stats() {
        let per_query = Metrics::new();
        let snap = crate::snapshot::MetricsSnapshot::capture(
            &per_query,
            0,
            vec![
                ("tuples_scanned".to_string(), 100),
                ("cell_queries".to_string(), 7),
            ],
            vec![],
        );
        let process = Metrics::new();
        process.absorb_snapshot(&snap);
        process.absorb_snapshot(&snap);
        assert_eq!(
            process.exec_stat_values(),
            vec![
                ("tuples_scanned".to_string(), 200),
                ("cell_queries".to_string(), 14),
            ]
        );
    }

    #[test]
    fn worker_tallies_skip_idle_workers() {
        let m = Metrics::new();
        m.record_worker_cell(0, false);
        m.record_worker_cell(2, true);
        m.record_worker_cell(2, false);
        assert_eq!(m.worker_tallies(), vec![(0, 1, 0), (2, 2, 1)]);
        assert_eq!(m.cells_speculative.get(), 3);
        assert_eq!(m.worker_steals.get(), 1);
        // Out-of-range workers alias into the last slot instead of panicking.
        m.record_worker_cell(1000, true);
        assert_eq!(m.worker_tallies().last(), Some(&(MAX_WORKERS - 1, 1, 1)));
    }
}
