//! Running one technique on one workload, with timing and work counters.

use std::time::Instant;

use acq_baselines::{binsearch, topk, tqgen, BinSearchParams, TqGenParams};
use acq_engine::{ExecStats, Executor};
use acquire_core::{run_acquire, AcquireConfig, EvalLayerKind};

use crate::workloads::Workload;

/// A technique under test (§8.2).
#[derive(Debug, Clone)]
pub enum Technique {
    /// ACQUIRE with the chosen evaluation layer.
    Acquire(EvalLayerKind),
    /// Top-k ranking (COUNT only).
    TopK,
    /// TQGen iterative grid search.
    TqGen(TqGenParams),
    /// BinSearch per-predicate bisection.
    BinSearch(BinSearchParams),
}

impl Technique {
    /// Display name used in report tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Acquire(EvalLayerKind::Scan) => "ACQUIRE(scan)",
            Self::Acquire(EvalLayerKind::CachedScore) => "ACQUIRE",
            Self::TopK => "Top-k",
            Self::TqGen(_) => "TQGen",
            Self::BinSearch(_) => "BinSearch",
        }
    }
}

/// One technique's result on one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock milliseconds.
    pub time_ms: f64,
    /// Aggregate error of the produced query.
    pub error: f64,
    /// Refinement score (QScore) of the produced query.
    pub qscore: f64,
    /// Per-flexible-predicate refinement vector of the produced query.
    pub pscores: Vec<f64>,
    /// Achieved aggregate value.
    pub aggregate: f64,
    /// Queries issued against the evaluation layer (cell queries for
    /// ACQUIRE, full queries for the baselines).
    pub queries: u64,
    /// Whether the technique met the constraint within the threshold.
    pub satisfied: bool,
    /// Peak retained grid points (ACQUIRE only; 0 for baselines).
    pub peak_store: usize,
    /// Engine work counters.
    pub stats: ExecStats,
}

/// Times a closure.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `technique` on `workload` under `cfg` (fresh executor, cold work
/// counters). Returns an error string for unsupported combinations (e.g.
/// Top-k on SUM), which reports print as `n/a` — mirroring the paper's
/// missing curves.
pub fn run_technique(
    workload: &Workload,
    technique: &Technique,
    cfg: &AcquireConfig,
) -> Result<RunResult, String> {
    let mut exec = Executor::new(workload.catalog.clone());
    match technique {
        Technique::Acquire(kind) => {
            let (out, time_ms) = measure(|| run_acquire(&mut exec, &workload.query, cfg, *kind));
            let out = out.map_err(|e| e.to_string())?;
            let best = out
                .queries
                .first()
                .cloned()
                .or_else(|| out.closest.clone())
                .ok_or_else(|| "ACQUIRE produced no candidate".to_string())?;
            Ok(RunResult {
                time_ms,
                error: best.error,
                qscore: best.qscore,
                pscores: best.pscores,
                aggregate: best.aggregate,
                queries: out.explored,
                satisfied: out.satisfied,
                peak_store: out.peak_store,
                stats: out.stats,
            })
        }
        Technique::TopK => {
            let (out, time_ms) = measure(|| topk(&mut exec, &workload.query, &cfg.norm));
            let out = out.map_err(|e| e.to_string())?;
            Ok(RunResult {
                time_ms,
                error: out.error,
                qscore: out.qscore,
                pscores: out.pscores,
                aggregate: out.aggregate,
                queries: out.queries_executed,
                satisfied: out.error <= cfg.delta,
                peak_store: 0,
                stats: out.stats,
            })
        }
        Technique::TqGen(params) => {
            let (out, time_ms) = measure(|| tqgen(&mut exec, &workload.query, &cfg.norm, params));
            let out = out.map_err(|e| e.to_string())?;
            Ok(RunResult {
                time_ms,
                error: out.error,
                qscore: out.qscore,
                pscores: out.pscores,
                aggregate: out.aggregate,
                queries: out.queries_executed,
                satisfied: out.error <= cfg.delta,
                peak_store: 0,
                stats: out.stats,
            })
        }
        Technique::BinSearch(params) => {
            let (out, time_ms) =
                measure(|| binsearch(&mut exec, &workload.query, &cfg.norm, params));
            let out = out.map_err(|e| e.to_string())?;
            Ok(RunResult {
                time_ms,
                error: out.error,
                qscore: out.qscore,
                pscores: out.pscores,
                aggregate: out.aggregate,
                queries: out.queries_executed,
                satisfied: out.error <= cfg.delta,
                peak_store: 0,
                stats: out.stats,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{count_workload, WorkloadSpec};

    #[test]
    fn all_techniques_run_on_a_count_workload() {
        let w = count_workload(&WorkloadSpec::new(3_000, 2, 0.5));
        let cfg = AcquireConfig::default();
        for t in [
            Technique::Acquire(EvalLayerKind::CachedScore),
            Technique::TopK,
            Technique::TqGen(TqGenParams {
                levels_per_dim: 4,
                rounds: 2,
                max_queries: 10_000,
            }),
            Technique::BinSearch(BinSearchParams::default()),
        ] {
            let r = run_technique(&w, &t, &cfg).unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            assert!(r.time_ms >= 0.0);
            assert!(r.error.is_finite(), "{}", t.name());
            assert!(r.queries >= 1, "{}", t.name());
        }
    }

    #[test]
    fn acquire_meets_the_constraint_where_baselines_vary() {
        let w = count_workload(&WorkloadSpec::new(3_000, 3, 0.3));
        let cfg = AcquireConfig::default();
        let acq = run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg).unwrap();
        assert!(acq.satisfied, "error {}", acq.error);
        assert!(acq.error <= cfg.delta);
    }

    #[test]
    fn unsupported_combination_reports_error() {
        use acq_query::AggFunc;
        let w = crate::workloads::q2_sum_workload(&WorkloadSpec::new(2_000, 2, 0.5), AggFunc::Sum);
        let e = run_technique(&w, &Technique::TopK, &AcquireConfig::default());
        assert!(e.is_err());
    }
}
