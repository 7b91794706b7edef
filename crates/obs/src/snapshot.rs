//! Point-in-time metric snapshots and their two text sinks: a compact JSON
//! document (`--metrics-out`, validated in CI against
//! `schemas/metrics.schema.json`) and a Prometheus text exposition.

use crate::metrics::{Histogram, Metrics};

/// Snapshot format version emitted in the JSON document. Bump when the
/// structure changes and update `schemas/metrics.schema.json` to match.
///
/// v2: histogram objects gained estimated `p50`/`p95`/`p99` quantiles
/// (`null` while the histogram is empty).
///
/// v3: `exec_stats` gained three block-pruning counters of the scan layer.
///
/// v4: `exec_stats` dropped those three counters with the pruned cell path.
///
/// v5: the per-cell `cell_latency_ns` histogram became the per-layer
/// `layer_latency_ns`, and `batch_cells` counts cells per layer (its
/// buckets reach 2^20).
pub const SNAPSHOT_VERSION: u64 = 5;

/// Quantiles estimated for every histogram snapshot, `(label, q)`.
pub const SNAPSHOT_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Version label of the `acq_build_info` series (the crate package version).
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Revision label of the `acq_build_info` series: the `ACQ_BUILD_COMMIT`
/// environment variable captured at compile time, or `"unknown"`.
pub const BUILD_REVISION: &str = match option_env!("ACQ_BUILD_COMMIT") {
    Some(rev) => rev,
    None => "unknown",
};

/// One histogram captured at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(upper_bound, count)` per bucket; `None` is the overflow (`+Inf`)
    /// bucket. Counts are per-bucket, not cumulative.
    pub buckets: Vec<(Option<u64>, u64)>,
}

impl HistogramSnapshot {
    /// Captures `h` under `name`.
    pub fn of(name: &'static str, h: &Histogram) -> Self {
        let buckets = h
            .bounds()
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(h.bucket_counts())
            .collect();
        Self {
            name,
            count: h.count(),
            sum: h.sum(),
            buckets,
        }
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// within the bucket that crosses the target rank, the standard
    /// fixed-bucket estimator. Observations in the overflow bucket are
    /// clamped to the last finite bound (there is no upper edge to
    /// interpolate towards), so tail quantiles are *under*-estimates when
    /// the overflow bucket is populated. Returns `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        let mut lower = 0u64; // previous bucket's upper bound
        for &(bound, count) in &self.buckets {
            let before = cumulative;
            cumulative += count;
            if count > 0 && cumulative as f64 >= target {
                return Some(match bound {
                    Some(b) => {
                        let frac = ((target - before as f64) / count as f64).clamp(0.0, 1.0);
                        lower as f64 + frac * (b - lower) as f64
                    }
                    None => lower as f64,
                });
            }
            if let Some(b) = bound {
                lower = b;
            }
        }
        Some(lower as f64)
    }

    /// The [`SNAPSHOT_QUANTILES`] estimates, in order.
    pub fn quantiles(&self) -> [(&'static str, Option<f64>); 3] {
        SNAPSHOT_QUANTILES.map(|(label, q)| (label, self.quantile(q)))
    }
}

/// A consistent-enough point-in-time capture of every instrument.
///
/// Individual atomics are read without a global lock, so a snapshot taken
/// *during* a run may be torn across instruments; snapshots taken after the
/// driver returns (the supported use) are exact.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Milliseconds since the handle was created.
    pub uptime_ms: u64,
    /// Counter values in stable order.
    pub counters: Vec<(&'static str, u64)>,
    /// Set gauges in stable order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram captures.
    pub histograms: Vec<HistogramSnapshot>,
    /// `(worker, cells, steals)` for each worker that executed a cell.
    pub workers: Vec<(usize, u64, u64)>,
    /// Engine executor statistics bridged in via
    /// [`crate::Obs::record_exec_stats`].
    pub exec_stats: Vec<(String, u64)>,
    /// Free-form run metadata (evaluation layer kind, thread count, ...).
    pub meta: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Captures every instrument of `metrics`.
    pub fn capture(
        metrics: &Metrics,
        uptime_ms: u64,
        exec_stats: Vec<(String, u64)>,
        meta: Vec<(String, String)>,
    ) -> Self {
        let histograms = [
            ("layer_latency_ns", &metrics.layer_latency_ns),
            ("batch_cells", &metrics.batch_cells),
        ]
        .into_iter()
        .map(|(name, h)| HistogramSnapshot::of(name, h))
        .collect();
        Self {
            uptime_ms,
            counters: metrics.counter_values(),
            gauges: metrics.gauge_values(),
            histograms,
            workers: metrics.worker_tallies(),
            exec_stats,
            meta,
        }
    }

    /// Convenience lookup of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Convenience lookup of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Convenience lookup of a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a compact single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        push_kv_num(&mut s, "version", SNAPSHOT_VERSION);
        s.push(',');
        push_kv_num(&mut s, "uptime_ms", self.uptime_ms);
        s.push_str(",\"counters\":{");
        push_pairs(&mut s, self.counters.iter().map(|&(k, v)| (k, v)));
        s.push_str("},\"gauges\":{");
        push_pairs(&mut s, self.gauges.iter().map(|&(k, v)| (k, v)));
        s.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{}",
                h.name, h.count, h.sum
            ));
            for (label, q) in h.quantiles() {
                match q {
                    Some(v) => s.push_str(&format!(",\"{label}\":{}", fmt_f64(v))),
                    None => s.push_str(&format!(",\"{label}\":null")),
                }
            }
            s.push_str(",\"buckets\":[");
            for (j, (bound, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                match bound {
                    Some(b) => s.push_str(&format!("{{\"le\":{b},\"count\":{count}}}")),
                    None => s.push_str(&format!("{{\"le\":null,\"count\":{count}}}")),
                }
            }
            s.push_str("]}");
        }
        s.push_str("},\"workers\":[");
        for (i, &(w, cells, steals)) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"worker\":{w},\"cells\":{cells},\"steals\":{steals}}}"
            ));
        }
        s.push_str("],\"exec_stats\":{");
        push_pairs(
            &mut s,
            self.exec_stats.iter().map(|(k, v)| (k.as_str(), *v)),
        );
        s.push_str("},\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        s.push_str("}}");
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format, with
    /// every series prefixed `acq_`, `# HELP`/`# TYPE` headers, and label
    /// values escaped per the exposition-format rules.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        push_header(
            &mut s,
            "acq_build_info",
            "Build information as an info-style series (always 1)",
            "gauge",
        );
        s.push_str(&format!(
            "acq_build_info{{version=\"{}\",revision=\"{}\"}} 1\n",
            prom_escape_label(BUILD_VERSION),
            prom_escape_label(BUILD_REVISION)
        ));
        push_header(
            &mut s,
            "acq_uptime_ms",
            "Milliseconds since the metrics handle was created",
            "gauge",
        );
        s.push_str(&format!("acq_uptime_ms {}\n", self.uptime_ms));
        for &(name, v) in &self.counters {
            push_header(
                &mut s,
                &format!("acq_{name}_total"),
                instrument_help(name),
                "counter",
            );
            s.push_str(&format!("acq_{name}_total {v}\n"));
        }
        for &(name, v) in &self.gauges {
            push_header(
                &mut s,
                &format!("acq_{name}"),
                instrument_help(name),
                "gauge",
            );
            s.push_str(&format!("acq_{name} {v}\n"));
        }
        for h in &self.histograms {
            push_header(
                &mut s,
                &format!("acq_{}", h.name),
                instrument_help(h.name),
                "histogram",
            );
            let mut cumulative = 0u64;
            for (bound, count) in &h.buckets {
                cumulative += count;
                let le = match bound {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                s.push_str(&format!(
                    "acq_{}_bucket{{le=\"{le}\"}} {cumulative}\n",
                    h.name
                ));
            }
            s.push_str(&format!("acq_{}_sum {}\n", h.name, h.sum));
            s.push_str(&format!("acq_{}_count {}\n", h.name, h.count));
            let quantiles = h.quantiles();
            if quantiles.iter().any(|(_, v)| v.is_some()) {
                push_header(
                    &mut s,
                    &format!("acq_{}_quantile", h.name),
                    "Estimated quantiles (linear interpolation within buckets)",
                    "gauge",
                );
                for ((_, q), (_, v)) in SNAPSHOT_QUANTILES.iter().zip(quantiles) {
                    if let Some(v) = v {
                        s.push_str(&format!(
                            "acq_{}_quantile{{quantile=\"{q}\"}} {}\n",
                            h.name,
                            fmt_f64(v)
                        ));
                    }
                }
            }
        }
        for &(w, cells, steals) in &self.workers {
            s.push_str(&format!(
                "acq_worker_cells_total{{worker=\"{w}\"}} {cells}\n"
            ));
            s.push_str(&format!(
                "acq_worker_steals_total{{worker=\"{w}\"}} {steals}\n"
            ));
        }
        for (name, v) in &self.exec_stats {
            push_header(
                &mut s,
                &format!("acq_exec_{name}_total"),
                "Engine work the answers rest on (ExecStats), whichever request did it",
                "counter",
            );
            s.push_str(&format!("acq_exec_{name}_total {v}\n"));
        }
        if !self.meta.is_empty() {
            push_header(
                &mut s,
                "acq_meta",
                "Free-form run metadata as an info-style series (always 1)",
                "gauge",
            );
            for (k, v) in &self.meta {
                s.push_str(&format!(
                    "acq_meta{{key=\"{}\",value=\"{}\"}} 1\n",
                    prom_escape_label(k),
                    prom_escape_label(v)
                ));
            }
        }
        s
    }
}

/// Emits `# HELP` and `# TYPE` header lines for a metric family.
fn push_header(s: &mut String, family: &str, help: &str, kind: &str) {
    s.push_str(&format!(
        "# HELP {family} {}\n# TYPE {family} {kind}\n",
        prom_escape_help(help)
    ));
}

/// Escapes a Prometheus label *value*: backslash, double-quote and newline
/// must be escaped inside the `label="…"` syntax.
pub fn prom_escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` string: only backslash and newline are special there
/// (quotes are legal verbatim in help text).
pub fn prom_escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` compactly for both JSON and Prometheus: integral values
/// print without a fraction, everything else with just enough digits.
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Formats an `f64` answer field as a JSON number at full precision; the
/// values JSON has no spelling for (NaN, ±inf) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One-line help text per instrument, keyed by snapshot name.
fn instrument_help(name: &str) -> &'static str {
    match name {
        "cells_executed" => "Committed cell executions (per search, equals AcqOutcome.explored)",
        "cells_speculative" => "Speculative cell executions on pool workers",
        "answers_found" => "Refined queries that satisfied the constraint",
        "repartitions" => "Repartition rounds performed (Algorithm 4)",
        "interrupts" => "Runs that ended on a budget or cancellation interrupt",
        "faults_injected" => "Injected faults fired under the active FaultPolicy",
        "at_most_once_violations" => {
            "At-most-once violations detected at the result slots (must be 0)"
        }
        "worker_steals" => "Cross-chunk steals in the Explore worker pool",
        "trace_dropped" => "Trace events discarded because the bounded buffer was full",
        "current_layer" => "Expand layer currently being explored",
        "frontier_batch" => "Cells in the first Expand batch of the current layer",
        "store_len" => "Live entries in the aggregate store",
        "store_peak" => "Peak live entries in the aggregate store",
        "store_bytes" => "Approximate bytes held by the aggregate store",
        "budget_headroom" => "Remaining max_explored budget",
        "layer_latency_ns" => "Wall time of each search layer in nanoseconds",
        "batch_cells" => "Cells committed per search layer",
        _ => "ACQ pipeline instrument",
    }
}

fn push_kv_num(s: &mut String, k: &str, v: u64) {
    s.push_str(&format!("\"{k}\":{v}"));
}

fn push_pairs<'a>(s: &mut String, pairs: impl Iterator<Item = (&'a str, u64)>) {
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{k}\":{v}"));
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let m = Metrics::new();
        m.cells_executed.add(42);
        m.current_layer.set(3);
        m.layer_latency_ns.observe(500);
        m.record_worker_cell(1, true);
        MetricsSnapshot::capture(
            &m,
            12,
            vec![("cell_queries".to_string(), 42)],
            vec![("layer".to_string(), "cached-score".to_string())],
        )
    }

    #[test]
    fn json_roundtrips_through_own_parser() {
        let snap = sample();
        let json = snap.to_json();
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.pointer("/version").and_then(|v| v.as_u64()),
            Some(SNAPSHOT_VERSION)
        );
        assert_eq!(
            v.pointer("/counters/cells_executed")
                .and_then(|v| v.as_u64()),
            Some(42)
        );
        assert_eq!(
            v.pointer("/gauges/current_layer").and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            v.pointer("/histograms/layer_latency_ns/count")
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            v.pointer("/meta/layer").and_then(|v| v.as_str()),
            Some("cached-score")
        );
    }

    #[test]
    fn prometheus_surfaces_build_info_and_uptime() {
        let text = sample().to_prometheus();
        assert!(
            text.contains(&format!(
                "acq_build_info{{version=\"{BUILD_VERSION}\",revision=\"{BUILD_REVISION}\"}} 1\n"
            )),
            "{text}"
        );
        assert!(text.contains("# TYPE acq_build_info gauge"), "{text}");
        assert!(text.contains("acq_uptime_ms 12\n"), "{text}");
        assert!(text.contains("# TYPE acq_uptime_ms gauge"), "{text}");
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let snap = sample();
        let text = snap.to_prometheus();
        assert!(text.contains("acq_cells_executed_total 42"), "{text}");
        assert!(text.contains("acq_current_layer 3"), "{text}");
        assert!(
            text.contains("acq_layer_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("acq_worker_cells_total{worker=\"1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations of 1..=100 over bounds [10, 50, 100]: the
        // estimator should land near the exact order statistics.
        let h = Histogram::new(&[10, 50, 100]);
        for v in 1..=100 {
            h.observe(v);
        }
        let snap = HistogramSnapshot::of("h", &h);
        let p50 = snap.quantile(0.50).unwrap();
        let p95 = snap.quantile(0.95).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50={p50}");
        assert!((p95 - 95.0).abs() <= 1.0, "p95={p95}");
        assert!((p99 - 99.0).abs() <= 1.0, "p99={p99}");
        // Edges.
        assert_eq!(snap.quantile(0.0), Some(0.0));
        assert_eq!(snap.quantile(1.0), Some(100.0));
    }

    #[test]
    fn quantiles_clamp_to_last_finite_bound_on_overflow() {
        let h = Histogram::new(&[10]);
        for _ in 0..10 {
            h.observe(1000); // all overflow
        }
        let snap = HistogramSnapshot::of("h", &h);
        assert_eq!(snap.quantile(0.99), Some(10.0), "no edge to interpolate to");
    }

    #[test]
    fn empty_histogram_has_null_quantiles() {
        let h = Histogram::new(&[10]);
        let snap = HistogramSnapshot::of("h", &h);
        assert_eq!(snap.quantile(0.5), None);
        // JSON renders them as null, not as a bogus number.
        let m = Metrics::new();
        let full = MetricsSnapshot::capture(&m, 0, vec![], vec![]);
        let v = crate::json::parse(&full.to_json()).unwrap();
        assert!(matches!(
            v.pointer("/histograms/layer_latency_ns/p50"),
            Some(crate::json::JsonValue::Null)
        ));
    }

    #[test]
    fn json_and_prometheus_surface_quantiles() {
        let snap = sample();
        let v = crate::json::parse(&snap.to_json()).unwrap();
        // One observation of 500ns: every quantile sits in (250, 1000].
        let p99 = match v.pointer("/histograms/layer_latency_ns/p99") {
            Some(crate::json::JsonValue::Num(n)) => *n,
            other => panic!("p99 missing: {other:?}"),
        };
        assert!(p99 > 250.0 && p99 <= 1000.0, "p99={p99}");
        let text = snap.to_prometheus();
        assert!(
            text.contains("acq_layer_latency_ns_quantile{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE acq_layer_latency_ns_quantile gauge"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_headers_have_help_lines() {
        let text = sample().to_prometheus();
        assert!(
            text.contains(
                "# HELP acq_cells_executed_total Committed cell executions \
                 (per search, equals AcqOutcome.explored)\n\
                 # TYPE acq_cells_executed_total counter"
            ),
            "{text}"
        );
        assert!(text.contains("# HELP acq_current_layer "), "{text}");
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let m = Metrics::new();
        let snap = MetricsSnapshot::capture(
            &m,
            0,
            vec![],
            vec![("sql".to_string(), "select \"x\\y\"\nfrom t".to_string())],
        );
        let text = snap.to_prometheus();
        assert!(
            text.contains(r#"acq_meta{key="sql",value="select \"x\\y\"\nfrom t"} 1"#),
            "{text}"
        );
        assert!(
            !text.contains("select \"x\\y\"\nfrom"),
            "raw newline must not split the series line: {text}"
        );
    }

    #[test]
    fn escaping_helpers_cover_the_edge_cases() {
        assert_eq!(prom_escape_label(r"a\b"), r"a\\b");
        assert_eq!(prom_escape_label("a\"b"), "a\\\"b");
        assert_eq!(prom_escape_label("a\nb"), "a\\nb");
        // Help strings escape backslash/newline but leave quotes alone.
        assert_eq!(
            prom_escape_help("say \"hi\"\\now\nplease"),
            "say \"hi\"\\\\now\\nplease"
        );
        assert_eq!(prom_escape_help("plain"), "plain");
    }

    #[test]
    fn lookups_find_instruments() {
        let snap = sample();
        assert_eq!(snap.counter("cells_executed"), Some(42));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("current_layer"), Some(3));
        assert_eq!(snap.histogram("layer_latency_ns").unwrap().count, 1);
    }
}
