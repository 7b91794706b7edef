//! Serve-level telemetry: the instrument-commit path for request threads.
//!
//! **Discipline (enforced by acq-lint's `obs-discipline` rule via
//! `lint.toml` `[obs-discipline] commit_paths`):** everything in this file
//! runs on the request thread between accepting a query and writing its
//! response, so nothing here may block — no lock acquisition, no I/O. Every
//! commit below is a relaxed atomic ([`RateCounter::record`]) or an
//! atomics-plus-`try_lock` operation ([`DecayingHistogram::observe`], which
//! *skips* its decay sweep when contended rather than waiting).
//!
//! Per-query pipeline metrics are NOT committed here: each request runs
//! against its own [`acq_obs::Obs`] handle and the driver commits those in
//! its serial emission loop; the finished snapshot is folded into the
//! process registry *after* the response is accounted (see
//! [`crate::handlers`]).

use std::time::Duration;

use acq_obs::metrics::LATENCY_BUCKETS_NS;
use acq_obs::window::DEFAULT_RATE_WINDOW_SECS;
use acq_obs::{AdmissionStats, DecayingHistogram, RateCounter};

/// Half-life of the request-latency distribution: five minutes, so the
/// scraped quantiles track the recent workload.
const LATENCY_HALF_LIFE: Duration = Duration::from_secs(300);

/// Process-scoped request telemetry.
#[derive(Debug)]
pub struct Telemetry {
    /// Requests accepted (any endpoint).
    pub requests: RateCounter,
    /// `POST /query` runs that returned an outcome.
    pub queries_ok: RateCounter,
    /// `POST /query` runs rejected or failed.
    pub queries_err: RateCounter,
    /// End-to-end `POST /query` latency, decaying.
    pub query_latency_ns: DecayingHistogram,
    /// Admission-control decisions (shed/degraded/rejected/…); every
    /// instrument is a relaxed-atomic [`acq_obs::Counter`], so commits
    /// here keep the wait-free discipline.
    pub admission: AdmissionStats,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh telemetry at process start.
    pub fn new() -> Self {
        Self {
            requests: RateCounter::new(),
            queries_ok: RateCounter::new(),
            queries_err: RateCounter::new(),
            query_latency_ns: DecayingHistogram::new(LATENCY_BUCKETS_NS, LATENCY_HALF_LIFE),
            admission: AdmissionStats::new(),
        }
    }

    /// Commits one accepted request at `now` (elapsed since process start).
    #[inline]
    pub fn record_request(&self, now: Duration) {
        self.requests.record(1, now);
    }

    /// Commits one finished `POST /query` with its end-to-end latency.
    #[inline]
    pub fn record_query(&self, ok: bool, latency: Duration, now: Duration) {
        if ok {
            self.queries_ok.record(1, now);
        } else {
            self.queries_err.record(1, now);
        }
        self.query_latency_ns
            .observe(latency.as_nanos() as u64, now);
    }

    /// Renders the serve-level series as Prometheus text, appended after
    /// the absorbed pipeline snapshot on `GET /metrics`.
    pub fn render_prometheus(&self, now: Duration) -> String {
        let mut s = String::with_capacity(1024);
        for (name, help, c) in [
            (
                "acq_serve_requests_total",
                "HTTP requests accepted",
                &self.requests,
            ),
            (
                "acq_serve_queries_ok_total",
                "Queries answered with an outcome",
                &self.queries_ok,
            ),
            (
                "acq_serve_queries_err_total",
                "Queries rejected or failed",
                &self.queries_err,
            ),
        ] {
            s.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                c.total()
            ));
            let rate_name = name.trim_end_matches("_total");
            s.push_str(&format!(
                "# HELP {rate_name}_per_sec Rate over the last {DEFAULT_RATE_WINDOW_SECS}s\n\
                 # TYPE {rate_name}_per_sec gauge\n{rate_name}_per_sec {}\n",
                c.rate_per_sec(DEFAULT_RATE_WINDOW_SECS, now)
            ));
        }
        let snap = self
            .query_latency_ns
            .snapshot("serve_query_latency_ns", now);
        s.push_str(
            "# HELP acq_serve_query_latency_ns End-to-end query latency (decaying)\n\
             # TYPE acq_serve_query_latency_ns histogram\n",
        );
        let mut cumulative = 0u64;
        for (bound, count) in &snap.buckets {
            cumulative += count;
            let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
            s.push_str(&format!(
                "acq_serve_query_latency_ns_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        s.push_str(&format!(
            "acq_serve_query_latency_ns_sum {}\nacq_serve_query_latency_ns_count {}\n",
            snap.sum, snap.count
        ));
        for ((_, q), (_, v)) in acq_obs::SNAPSHOT_QUANTILES.iter().zip(snap.quantiles()) {
            if let Some(v) = v {
                s.push_str(&format!(
                    "acq_serve_query_latency_ns_quantile{{quantile=\"{q}\"}} {v}\n"
                ));
            }
        }
        s.push_str(&self.admission.render_prometheus("acq_serve"));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_accounting_splits_ok_and_err() {
        let t = Telemetry::new();
        let now = Duration::from_secs(5);
        t.record_request(now);
        t.record_query(true, Duration::from_millis(2), now);
        t.record_query(false, Duration::from_millis(1), now);
        assert_eq!(t.requests.total(), 1);
        assert_eq!(t.queries_ok.total(), 1);
        assert_eq!(t.queries_err.total(), 1);
        assert_eq!(t.query_latency_ns.snapshot("latency", now).count, 2);
    }

    #[test]
    fn prometheus_rendering_includes_rates_and_quantiles() {
        let t = Telemetry::new();
        for sec in 0..10 {
            let now = Duration::from_secs(sec);
            t.record_request(now);
            t.record_query(true, Duration::from_micros(300), now);
        }
        let text = t.render_prometheus(Duration::from_secs(10));
        assert!(text.contains("acq_serve_requests_total 10"), "{text}");
        assert!(text.contains("acq_serve_requests_per_sec "), "{text}");
        assert!(
            text.contains("acq_serve_query_latency_ns_quantile{quantile=\"0.95\"}"),
            "{text}"
        );
        assert!(
            text.contains("acq_serve_query_latency_ns_count 10"),
            "{text}"
        );
        t.admission.shed.add(2);
        t.admission.degraded.inc();
        let text = t.render_prometheus(Duration::from_secs(10));
        assert!(text.contains("acq_serve_shed_total 2"), "{text}");
        assert!(text.contains("acq_serve_degraded_total 1"), "{text}");
        assert!(text.contains("acq_serve_conn_rejected_total 0"), "{text}");
    }
}
