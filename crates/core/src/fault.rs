//! Deterministic fault injection for evaluation layers.
//!
//! [`FaultInjectingLayer`] wraps any [`EvaluationLayer`] and injects
//! seeded, reproducible faults — engine errors, panics, and latency — into
//! its `cell_aggregate` / `full_aggregate` calls. It exists to *test* the
//! driver's robustness guarantees: under any fault schedule,
//! [`crate::acquire`] must return `Ok(outcome)` or a typed
//! [`crate::CoreError`], never abort the process, and never execute a cell
//! twice (§5's at-most-once property must survive faults, interrupts, and
//! worker panics).
//!
//! Faults are a pure function of `(seed, query coordinates)`: a cell query
//! faults according to the cell it targets, a full query according to its
//! bounds. Keying on coordinates rather than a call counter makes the
//! schedule independent of evaluation order, so the *same* cells fault the
//! same way whether the search runs serially or on a parallel worker pool
//! of any size — and injected latency now sleeps on whichever worker thread
//! evaluates the cell instead of always blocking the driver thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use acq_engine::{AggState, CellRange, EngineError, EngineResult, ExecStats};

use crate::eval::{CellCost, EvaluationLayer, ParallelCells};

/// Which fault (if any) a schedule injects into one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Delegate to the inner layer untouched.
    None,
    /// Return [`EngineError::Fault`] instead of delegating.
    Error,
    /// Panic instead of delegating (the driver's `catch_unwind` — or the
    /// worker pool's, under parallel execution — turns this into
    /// [`crate::CoreError::EvalPanicked`]).
    Panic,
    /// Sleep for the schedule's latency, then delegate (exercises
    /// deadlines).
    Latency,
}

/// A seeded, deterministic plan of which evaluation calls fault and how.
///
/// The plan is keyed by *query coordinates* (the cell's ranges, or a full
/// query's bounds), never by call order or thread identity, so equal seeds
/// replay identically under serial and parallel drivers alike.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed defining the whole schedule; equal seeds replay identically.
    pub seed: u64,
    /// Probability that a call returns an injected [`EngineError::Fault`].
    pub error_rate: f64,
    /// Probability that a call panics.
    pub panic_rate: f64,
    /// Probability that a call is delayed by [`FaultSchedule::latency`].
    pub latency_rate: f64,
    /// Injected delay for latency faults.
    pub latency: Duration,
    /// Cell queries in L1 grid layers strictly below this are exempt from
    /// faults (lets a search make progress before the first fault can
    /// land). Full-query calls are never exempt.
    pub skip_layers: u64,
}

impl FaultSchedule {
    /// A schedule injecting nothing (useful as a pass-through baseline).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
            skip_layers: 0,
        }
    }

    /// A schedule injecting errors with probability `rate`.
    #[must_use]
    pub fn errors(seed: u64, rate: f64) -> Self {
        Self {
            error_rate: rate,
            ..Self::none(seed)
        }
    }

    /// A schedule injecting panics with probability `rate`.
    #[must_use]
    pub fn panics(seed: u64, rate: f64) -> Self {
        Self {
            panic_rate: rate,
            ..Self::none(seed)
        }
    }

    /// A mixed schedule: `error_rate` errors plus `panic_rate` panics.
    #[must_use]
    pub fn mixed(seed: u64, error_rate: f64, panic_rate: f64) -> Self {
        Self {
            error_rate,
            panic_rate,
            ..Self::none(seed)
        }
    }

    /// The fault this schedule injects into the cell query for `cell`.
    /// Pure in the cell's coordinates: the same cell faults the same way no
    /// matter which worker thread evaluates it, how many workers exist, or
    /// in what order cells run.
    #[must_use]
    pub fn fault_for_cell(&self, cell: &[CellRange]) -> InjectedFault {
        if self.skip_layers > 0 && cell_layer(cell) < self.skip_layers {
            return InjectedFault::None;
        }
        self.decide(cell_key(cell))
    }

    /// The fault this schedule injects into a full refined-query execution
    /// with the given per-dimension bounds (repartitioning, baselines).
    #[must_use]
    pub fn fault_for_full(&self, bounds: &[f64]) -> InjectedFault {
        self.decide(full_key(bounds))
    }

    fn decide(&self, key: u64) -> InjectedFault {
        let u = unit(splitmix64(
            self.seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ));
        if u < self.panic_rate {
            InjectedFault::Panic
        } else if u < self.panic_rate + self.error_rate {
            InjectedFault::Error
        } else if u < self.panic_rate + self.error_rate + self.latency_rate {
            InjectedFault::Latency
        } else {
            InjectedFault::None
        }
    }
}

/// L1 grid layer of a cell, recovered from its range geometry: every `Open`
/// range spans exactly one grid step `(k-1)·step < s <= k·step`, so its
/// coordinate is `hi / (hi - lo)` and the layer is the coordinate sum.
fn cell_layer(cell: &[CellRange]) -> u64 {
    cell.iter()
        .map(|r| match r {
            CellRange::Zero => 0,
            CellRange::Open { lo, hi } => {
                let step = hi - lo;
                if step > 0.0 && step.is_finite() && hi.is_finite() {
                    (hi / step).round() as u64
                } else {
                    0
                }
            }
        })
        .sum()
}

/// Position-sensitive hash of a cell's coordinates (f64 bit patterns).
fn cell_key(cell: &[CellRange]) -> u64 {
    let mut h = 0x00ce_11ce_11ce_11ce;
    for r in cell {
        match r {
            CellRange::Zero => h = splitmix64(h ^ 0x5eed_0f0f_5eed_0f0f),
            CellRange::Open { lo, hi } => {
                h = splitmix64(h ^ lo.to_bits());
                h = splitmix64(h ^ hi.to_bits());
            }
        }
    }
    h
}

/// Position-sensitive hash of a full query's bounds, tagged so it can never
/// collide with a cell key by construction.
fn full_key(bounds: &[f64]) -> u64 {
    let mut h = 0x0f0f_f0f0_0f0f_f0f0;
    for b in bounds {
        h = splitmix64(h ^ b.to_bits());
    }
    h
}

/// SplitMix64: the standard 64-bit finalising mix (public domain,
/// Steele et al.).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform f64 in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Wraps an [`EvaluationLayer`], injecting the faults of a
/// [`FaultSchedule`] into its aggregate calls.
///
/// Cell and full queries draw from one coordinate-keyed schedule, so it
/// covers both the grid search and repartitioning. Metadata calls
/// (`empty_state`, `stats`, `universe_size`) never fault. When the inner
/// layer supports concurrent cell evaluation the wrapper does too: faults
/// then fire on the worker thread that evaluates the cell (latency sleeps
/// *there*, not on the driver thread), while hitting exactly the same
/// cells as a serial run.
#[derive(Debug)]
pub struct FaultInjectingLayer<E> {
    inner: E,
    schedule: FaultSchedule,
    calls: AtomicU64,
    obs: acq_obs::Obs,
}

impl<E> FaultInjectingLayer<E> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: E, schedule: FaultSchedule) -> Self {
        Self::with_observability(inner, schedule, acq_obs::Obs::disabled())
    }

    /// Wraps `inner` under `schedule`, counting every injected fault on
    /// `obs` (`faults_injected`). Under parallel execution workers may fire
    /// faults for cells the driver never commits, so the counter reflects
    /// attempted injections, not committed ones.
    pub fn with_observability(inner: E, schedule: FaultSchedule, obs: acq_obs::Obs) -> Self {
        Self {
            inner,
            schedule,
            calls: AtomicU64::new(0),
            obs,
        }
    }

    /// Number of aggregate calls attempted so far (including faulted ones).
    /// Under parallel execution this counts speculative attempts in
    /// whatever order workers made them — informational only.
    #[must_use]
    pub fn calls(&self) -> u64 {
        // relaxed-ok: informational tally with no ordering against other state
        self.calls.load(Ordering::Relaxed)
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps back into the inner layer.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Fires `fault` for the call described by `what`/`target`; `Ok(())`
    /// means the call proceeds (possibly after injected latency, slept on
    /// the *calling* thread — the worker, under parallel execution).
    fn fire(
        &self,
        fault: InjectedFault,
        what: &str,
        target: &dyn std::fmt::Debug,
    ) -> EngineResult<()> {
        self.calls.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone tally
        if fault != InjectedFault::None {
            if let Some(m) = self.obs.metrics() {
                // The schedule is a pure function of the cell, so this
                // count is identical for every interleaving.
                // worker-metric-ok: schedule-determined count
                m.faults_injected.inc();
            }
            self.obs
                .trace(2, || format!("fault injected: {fault:?} in {what}"));
        }
        match fault {
            InjectedFault::None => Ok(()),
            InjectedFault::Error => Err(EngineError::Fault(format!(
                "injected error in {what} (seed {}, target {target:?})",
                self.schedule.seed
            ))),
            // lint-allow(panic-hygiene): the injected panic is this layer's contract
            InjectedFault::Panic => panic!(
                "injected panic in {what} (seed {}, target {target:?})",
                self.schedule.seed
            ),
            InjectedFault::Latency => {
                std::thread::sleep(self.schedule.latency);
                Ok(())
            }
        }
    }
}

impl<E: EvaluationLayer + Sync> EvaluationLayer for FaultInjectingLayer<E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        self.fire(self.schedule.fault_for_cell(cell), "cell_aggregate", &cell)?;
        self.inner.cell_aggregate(cell)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.fire(
            self.schedule.fault_for_full(bounds),
            "full_aggregate",
            &bounds,
        )?;
        self.inner.full_aggregate(bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.inner.empty_state()
    }

    fn use_grid(&mut self, step: f64) {
        self.inner.use_grid(step);
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        // Parallel-capable exactly when the inner layer is; fault decisions
        // are coordinate-keyed, so they land on the same cells either way.
        self.inner
            .parallel_cells()
            .map(|_| self as &dyn ParallelCells)
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        self.inner.commit_cell_cost(cost);
    }
}

impl<E: EvaluationLayer + Sync> ParallelCells for FaultInjectingLayer<E> {
    fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
        self.fire(self.schedule.fault_for_cell(cell), "cell_aggregate", &cell)?;
        self.inner
            .parallel_cells()
            // lint-allow(panic-hygiene): Some by construction for Sync inner layers
            .expect("parallel_cells() returned this handle only when the inner layer has one")
            .cell_aggregate_shared(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic family of distinct cells: coordinate `i` on a 2-d
    /// grid of step 5, in the layer-`i` diagonal position.
    fn cell(i: u64) -> Vec<CellRange> {
        let step = 5.0;
        let k = |c: u64| {
            if c == 0 {
                CellRange::Zero
            } else {
                CellRange::Open {
                    lo: (c - 1) as f64 * step,
                    hi: c as f64 * step,
                }
            }
        };
        vec![k(i / 2), k(i - i / 2)]
    }

    #[test]
    fn schedules_are_deterministic() {
        let s = FaultSchedule::mixed(42, 0.3, 0.2);
        let a: Vec<_> = (0..100).map(|i| s.fault_for_cell(&cell(i))).collect();
        let b: Vec<_> = (0..100).map(|i| s.fault_for_cell(&cell(i))).collect();
        assert_eq!(a, b);
        let other = FaultSchedule::mixed(43, 0.3, 0.2);
        let c: Vec<_> = (0..100).map(|i| other.fault_for_cell(&cell(i))).collect();
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn faults_key_on_coordinates_not_call_order() {
        let s = FaultSchedule::mixed(7, 0.3, 0.2);
        let forward: Vec<_> = (0..50).map(|i| s.fault_for_cell(&cell(i))).collect();
        let mut backward: Vec<_> = (0..50).rev().map(|i| s.fault_for_cell(&cell(i))).collect();
        backward.reverse();
        assert_eq!(forward, backward, "order of evaluation is irrelevant");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let s = FaultSchedule::mixed(7, 0.25, 0.25);
        let n = 4000u64;
        let faults = (0..n)
            .filter(|&i| s.fault_for_cell(&cell(i)) != InjectedFault::None)
            .count();
        let frac = faults as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "fault fraction {frac}");
    }

    #[test]
    fn skip_layers_exempts_low_layers() {
        let mut s = FaultSchedule::errors(1, 1.0);
        s.skip_layers = 5;
        // cell(i) sits in L1 layer i (coordinates sum to i).
        assert!((0..5).all(|i| s.fault_for_cell(&cell(i)) == InjectedFault::None));
        assert_eq!(s.fault_for_cell(&cell(5)), InjectedFault::Error);
        // Full queries are never exempt.
        assert_eq!(s.fault_for_full(&[0.0, 0.0]), InjectedFault::Error);
    }

    #[test]
    fn cell_and_full_keys_are_distinct_spaces() {
        // A cell and a full query over numerically identical coordinates
        // draw independent decisions (different key tags).
        let s = FaultSchedule::errors(3, 0.5);
        let agree = (0..200)
            .filter(|&i| {
                let c = cell(i);
                let bounds: Vec<f64> = c
                    .iter()
                    .map(|r| match r {
                        CellRange::Zero => 0.0,
                        CellRange::Open { hi, .. } => *hi,
                    })
                    .collect();
                (s.fault_for_cell(&c) == InjectedFault::None)
                    == (s.fault_for_full(&bounds) == InjectedFault::None)
            })
            .count();
        assert!(agree < 200, "cell and full decisions must not be coupled");
    }

    #[test]
    fn none_schedule_never_faults() {
        let s = FaultSchedule::none(99);
        assert!((0..1000).all(|i| s.fault_for_cell(&cell(i)) == InjectedFault::None));
        assert_eq!(s.fault_for_full(&[1.0, 2.0]), InjectedFault::None);
    }
}
