//! Driver configuration.

use acq_query::Norm;

use crate::error::CoreError;
use crate::govern::{ExecutionBudget, FaultPolicy};

/// How the driver schedules the cell sub-queries of one Expand layer.
///
/// All cells of a layer are mutually independent (they partition score
/// space; Theorem 2 orders layers, not cells), so they may execute
/// concurrently. Outcomes are **bit-identical** across every variant and
/// worker count: workers only *execute* cells, while the Eq. 17 merges,
/// answer collection, budget checks and work accounting all happen in the
/// serial emission order (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Evaluate cells one at a time on the calling thread (the default).
    #[default]
    Serial,
    /// Use exactly this many worker threads (`Fixed(1)` behaves like
    /// `Serial`; `Fixed(0)` is rejected by validation).
    Fixed(usize),
    /// One worker per available CPU
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to (at least 1).
    #[must_use]
    pub fn workers(&self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Fixed(n) => (*n).max(1),
            Self::Auto => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// Tunable parameters of the ACQUIRE driver (Definition 1 and Algorithm 4).
#[derive(Debug, Clone, PartialEq)]
pub struct AcquireConfig {
    /// The refinement (proximity) threshold `γ`: the grid step is `γ/d`, so
    /// Theorem 1 guarantees some grid query lies within `γ` of the optimal
    /// refinement. Fig. 10(b) varies it over 2–12; the default is 10.
    pub gamma: f64,
    /// The aggregate error threshold `δ` (relative, see
    /// [`acq_query::AggErrorFn`]); the paper's experiments use 0.05, and
    /// Fig. 10(c) varies it over 1e-4–1e-1.
    pub delta: f64,
    /// The norm folding per-predicate refinements into a QScore (default
    /// `L1`, Eq. 3; `L∞` switches the Expand phase to Algorithm 2; weighted
    /// norms express §7.1 preferences).
    pub norm: Norm,
    /// Number of repartitioning iterations `b` applied to a cell whose query
    /// overshoots the constraint by more than `δ` (Algorithm 4 line 14).
    pub repartition_depth: u32,
    /// Safety cap on the number of query-layers explored; the search
    /// returns the closest query found if it is reached.
    pub max_layers: u64,
    /// Safety cap on grid units per dimension for predicates whose attribute
    /// domain is unknown (bounds memory on open-ended searches).
    pub max_units_per_dim: u32,
    /// Safety cap on the number of grid queries investigated (bounds the
    /// combinatorial frontier growth that `max_layers` alone does not, e.g.
    /// unsatisfiable constraints over predicates with unknown domains). The
    /// search returns the closest query found when it is reached.
    pub max_explored: u64,
    /// Worker threads used by the Explore phase to evaluate the cell
    /// sub-queries of one Expand layer concurrently, and by the cached /
    /// indexed evaluation layers to score the base relation at
    /// construction. Outcomes are bit-identical for every setting; see
    /// [`Parallelism`].
    pub parallelism: Parallelism,
    /// Use best-first expansion keyed by the actual QScore instead of
    /// Algorithm 1's L1-layered BFS. Exact ordering for any `Lp`/weighted
    /// norm (an extension beyond the paper) at the cost of unbounded
    /// sub-aggregate retention; irrelevant under `L1`, ignored under `L∞`.
    pub exact_lp_order: bool,
    /// Resource limits (wall-clock deadline, explored-query budget,
    /// sub-aggregate memory budget) checked cooperatively once per grid
    /// query. Hitting one interrupts the search, which still returns the
    /// closest-so-far outcome with a machine-readable
    /// [`crate::Termination::Interrupted`] status. Unlimited by default.
    pub budget: ExecutionBudget,
    /// What to do when the evaluation layer fails or panics mid-search:
    /// propagate a typed error (default) or absorb the fault into an
    /// interrupted, closest-so-far outcome.
    pub fault_policy: FaultPolicy,
}

impl Default for AcquireConfig {
    fn default() -> Self {
        Self {
            gamma: 10.0,
            delta: 0.05,
            norm: Norm::L1,
            repartition_depth: 3,
            max_layers: 100_000,
            max_units_per_dim: 100_000,
            max_explored: 50_000_000,
            parallelism: Parallelism::Serial,
            exact_lp_order: false,
            budget: ExecutionBudget::default(),
            fault_policy: FaultPolicy::default(),
        }
    }
}

impl AcquireConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.gamma <= 0.0 || !self.gamma.is_finite() {
            return Err(CoreError::Config(format!(
                "gamma must be a positive finite number, got {}",
                self.gamma
            )));
        }
        if self.delta < 0.0 || !self.delta.is_finite() {
            return Err(CoreError::Config(format!(
                "delta must be a non-negative finite number, got {}",
                self.delta
            )));
        }
        if self.max_units_per_dim == 0 {
            return Err(CoreError::Config(
                "max_units_per_dim must be positive".into(),
            ));
        }
        if self.parallelism == Parallelism::Fixed(0) {
            return Err(CoreError::Config(
                "parallelism must name at least 1 worker (use Serial or Fixed(n >= 1))".into(),
            ));
        }
        Ok(())
    }

    /// Convenience: same config with a different `γ`.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Convenience: same config with a different `δ`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Convenience: same config with a different norm.
    #[must_use]
    pub fn with_norm(mut self, norm: Norm) -> Self {
        self.norm = norm;
        self
    }

    /// Convenience: same config with a different execution budget.
    #[must_use]
    pub fn with_budget(mut self, budget: ExecutionBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Convenience: same config with a different fault policy.
    #[must_use]
    pub fn with_fault_policy(mut self, fault_policy: FaultPolicy) -> Self {
        self.fault_policy = fault_policy;
        self
    }

    /// Convenience: same config with a different Explore parallelism.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Convenience: same config with `threads` worker threads for both
    /// evaluation-layer construction (scoring) and the parallel Explore
    /// phase. This is what the CLI's `--threads` maps to.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(threads)
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = AcquireConfig::default();
        c.validate().unwrap();
        assert_eq!(c.gamma, 10.0);
        assert_eq!(c.delta, 0.05);
        assert_eq!(c.norm, Norm::L1);
        assert_eq!(c.repartition_depth, 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AcquireConfig::default().with_gamma(0.0).validate().is_err());
        assert!(AcquireConfig::default()
            .with_gamma(f64::NAN)
            .validate()
            .is_err());
        assert!(AcquireConfig::default()
            .with_delta(-0.1)
            .validate()
            .is_err());
        let c = AcquireConfig {
            max_units_per_dim: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        assert!(AcquireConfig::default()
            .with_parallelism(Parallelism::Fixed(0))
            .validate()
            .is_err());
    }

    #[test]
    fn parallelism_resolves_to_at_least_one_worker() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Fixed(1).workers(), 1);
        assert_eq!(Parallelism::Fixed(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn with_threads_sets_the_parallelism_knob() {
        let c = AcquireConfig::default().with_threads(4);
        assert_eq!(c.parallelism, Parallelism::Fixed(4));
        assert_eq!(c.parallelism.workers(), 4);
        c.validate().unwrap();
        let c = AcquireConfig::default().with_threads(1);
        assert_eq!(c.parallelism, Parallelism::Serial);
        let c = AcquireConfig::default().with_threads(0);
        assert_eq!(c.parallelism, Parallelism::Serial);
        assert_eq!(c.parallelism.workers(), 1);
    }
}
