//! Phase II: Explore — incremental aggregate computation (§5).
//!
//! A grid query `u = (u_1, …, u_d)` decomposes into `d + 1` sub-queries
//! `O_1 … O_{d+1}` (cell, pillar, wall, …, block; Eq. 5–8): `O_j` fixes
//! dimensions `j..d` to the bucket `u_i` and lets dimensions `1..j-1` range
//! over `0..u_i`. Only `O_1` — the **cell** — is unique to the query; every
//! other sub-query satisfies the recurrence
//!
//! ```text
//! O_i(u) = O_{i-1}(u) + O_i(u_1, …, u_{i-1} - 1, …, u_d)      (Eq. 17)
//! ```
//!
//! whose right-hand terms were stored when the *contained* queries were
//! investigated (Theorem 3 guarantees they come first). `O_{d+1}` is the
//! whole refined query. So each grid query costs exactly **one cell query**
//! against the evaluation layer plus `d` constant-time merges — ACQUIRE
//! "evaluates a large number of refined queries at a cost that is a fraction
//! of the execution time for a single query" (§3).

use acq_engine::{AggState, EngineResult};

use crate::eval::EvaluationLayer;
use crate::expand::Emission;
use crate::space::RefinedSpace;
use crate::store::AggStore;

/// The Explore phase: owns the sub-aggregate store and applies Algorithm 3.
#[derive(Debug)]
pub struct Explorer {
    store: AggStore,
    /// Scratch for the `d + 1` sub-aggregates of the point being merged.
    states: Vec<AggState>,
}

impl Explorer {
    /// An explorer with an empty store, for points of `dims` coordinates
    /// emitted in the order `emission` describes (see
    /// [`crate::expand::Expander::emission`]).
    #[must_use]
    pub fn new(dims: usize, emission: Emission) -> Self {
        Self {
            store: AggStore::new(dims, emission),
            states: Vec::with_capacity(dims + 1),
        }
    }

    /// Algorithm 3 (`ComputeAggregate`): computes the aggregate of the grid
    /// query `point`, executing only its cell sub-query and combining stored
    /// sub-aggregates of already-investigated neighbours.
    ///
    /// `point` belongs to the layer last started with
    /// [`Explorer::begin_layer`]. Panics if a required neighbour was never
    /// investigated — that would violate the Expand phase's containment
    /// order (Theorem 3).
    pub fn compute_aggregate<E: EvaluationLayer + ?Sized>(
        &mut self,
        eval: &mut E,
        space: &RefinedSpace,
        point: &[u32],
    ) -> EngineResult<AggState> {
        // A[0] = O_1: the only execution against the evaluation layer.
        let cell_state = eval.grid_cell_aggregate(space, point)?;
        self.merge_cell(cell_state, point)
    }

    /// The merge half of Algorithm 3: combines an already-executed cell
    /// sub-aggregate with the stored sub-aggregates of contained neighbours
    /// (Eq. 17) and records the new query's sub-aggregate vector.
    ///
    /// This is `compute_aggregate` minus the evaluation-layer call; the
    /// parallel driver executes cells speculatively on worker threads and
    /// applies this merge serially in emission order, which is what keeps
    /// parallel outcomes bit-identical to serial ones.
    pub fn merge_cell(&mut self, cell_state: AggState, point: &[u32]) -> EngineResult<AggState> {
        let d = point.len();
        self.states.clear();
        self.states.push(cell_state);
        // A[j] = O_{j+1}(u) = O_j(u) + O_{j+1}(u - e_j), j = 1..d.
        for j in 1..=d {
            let mut s = self.states[j - 1].clone();
            if point[j - 1] > 0 {
                let slot = self.store.find(point, j - 1).unwrap_or_else(|| {
                    // A missing neighbour means Expand broke its Theorem 3
                    // containment order: an engine bug, and the parallel
                    // driver isolates worker panics into CellOutcome.
                    let mut prev = point.to_vec();
                    prev[j - 1] -= 1;
                    // lint-allow(panic-hygiene): internal invariant violation, not a user error
                    panic!(
                        "contained query {prev:?} must be investigated before {point:?} \
                         (Theorem 3)"
                    )
                });
                s.merge(self.store.state(slot, j))?;
            }
            self.states.push(s);
        }
        let result = self.states[d].clone();
        self.store.push(point, &mut self.states);
        Ok(result)
    }

    /// Starts investigating `layer`: a layered store drops the layers the
    /// recurrence can no longer reach (see [`AggStore::begin_layer`]).
    /// Whoever drives the expander calls it whenever the expander's layer
    /// changes; a search starts in layer 0.
    pub fn begin_layer(&mut self, layer: u64) {
        self.store.begin_layer(layer);
    }

    /// The underlying store (memory gauges for experiments).
    #[must_use]
    pub fn store(&self) -> &AggStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcquireConfig;
    use crate::eval::{CachedScoreEvaluator, EvaluationLayer, ScanEvaluator};
    use crate::expand::{BestFirstExpander, BfsExpander, Expander, LinfExpander};
    use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
    use acq_query::{
        AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random 2-column data + 2-predicate COUNT query.
    fn setup(seed: u64, n: usize) -> (Executor, AcqQuery) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TableBuilder::new(
            "t",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        )
        .unwrap();
        for _ in 0..n {
            b.push_row(vec![
                Value::Float(rng.gen_range(0.0..100.0)),
                Value::Float(rng.gen_range(0.0..100.0)),
            ]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();
        let q = AcqQuery::builder()
            .table("t")
            .predicate(
                Predicate::select(
                    ColRef::new("t", "x"),
                    Interval::new(0.0, 20.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 100.0)),
            )
            .predicate(
                Predicate::select(
                    ColRef::new("t", "y"),
                    Interval::new(0.0, 30.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 100.0)),
            )
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 100.0))
            .build()
            .unwrap();
        (Executor::new(cat), q)
    }

    /// The three expanders over `space`.
    fn expanders(space: &RefinedSpace) -> [Box<dyn Expander>; 3] {
        [
            Box::new(BfsExpander::new(space)),
            Box::new(LinfExpander::new(space)),
            Box::new(BestFirstExpander::new(space)),
        ]
    }

    /// The paper's core invariant: the incremental aggregate of every grid
    /// query equals naive full re-execution of that refined query, whichever
    /// expander orders the points.
    #[test]
    fn incremental_equals_naive_full_execution() {
        let (mut exec, q) = setup(42, 500);
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = ScanEvaluator::new(&mut exec, &q, &caps).unwrap();
        for mut expander in expanders(&space) {
            let mut explorer = Explorer::new(space.dims(), expander.emission());
            let mut checked = 0;
            while let Some(point) = expander.next_query().map(<[u32]>::to_vec) {
                if checked == 91 {
                    break;
                }
                explorer.begin_layer(expander.layer());
                let inc = explorer
                    .compute_aggregate(&mut eval, &space, &point)
                    .unwrap()
                    .value();
                let naive = eval.full_aggregate(&space.bounds(&point)).unwrap().value();
                assert_eq!(inc, naive, "{:?} at {point:?}", expander.emission());
                checked += 1;
            }
            assert_eq!(checked, 91, "{:?}", expander.emission());
        }
    }

    #[test]
    fn incremental_matches_for_sum_min_max_avg() {
        for spec in [
            AggregateSpec::sum(ColRef::new("t", "y")),
            AggregateSpec::min(ColRef::new("t", "y")),
            AggregateSpec::max(ColRef::new("t", "y")),
            AggregateSpec::avg(ColRef::new("t", "y")),
        ] {
            let (mut exec, mut q) = setup(7, 400);
            q.constraint = AggConstraint::new(spec.clone(), CmpOp::Ge, 100.0);
            let cfg = AcquireConfig::default();
            let space = RefinedSpace::new(&q, &cfg).unwrap();
            let caps = space.caps();
            let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
            let mut expander = BfsExpander::new(&space);
            let mut explorer = Explorer::new(space.dims(), expander.emission());
            while let Some(point) = expander.next_query() {
                let layer = RefinedSpace::l1_layer(point);
                if layer > 10 {
                    break;
                }
                explorer.begin_layer(layer);
                let inc = explorer
                    .compute_aggregate(&mut eval, &space, point)
                    .unwrap()
                    .value();
                let naive = eval.full_aggregate(&space.bounds(point)).unwrap().value();
                match (inc, naive) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-9, "{spec:?} at {point:?}: {a} vs {b}")
                    }
                    (a, b) => assert_eq!(a, b, "{spec:?} at {point:?}"),
                }
            }
        }
    }

    /// §5.1: once a query region has been executed it is never re-executed;
    /// each grid point costs exactly one cell query.
    #[test]
    fn one_cell_query_per_grid_point() {
        let (mut exec, q) = setup(3, 300);
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = ScanEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut expander = BfsExpander::new(&space);
        let mut explorer = Explorer::new(space.dims(), expander.emission());
        let mut points = 0u64;
        while let Some(point) = expander.next_query() {
            let layer = RefinedSpace::l1_layer(point);
            if layer > 8 {
                break;
            }
            explorer.begin_layer(layer);
            let _ = explorer
                .compute_aggregate(&mut eval, &space, point)
                .unwrap();
            points += 1;
        }
        assert_eq!(eval.stats().cell_queries, points);
        assert_eq!(eval.stats().full_queries, 0);
    }

    #[test]
    fn eviction_keeps_recent_layers_usable() {
        let (mut exec, q) = setup(11, 200);
        let cfg = AcquireConfig::default();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut expander = BfsExpander::new(&space);
        let mut explorer = Explorer::new(space.dims(), expander.emission());
        let mut last_layer = 0u64;
        while let Some(point) = expander.next_query() {
            let layer = RefinedSpace::l1_layer(point);
            if layer > 6 {
                break;
            }
            if layer > last_layer {
                explorer.begin_layer(layer);
                last_layer = layer;
            }
            // Must not panic: previous layer still present.
            let _ = explorer
                .compute_aggregate(&mut eval, &space, point)
                .unwrap();
        }
        assert!(explorer.store().peak_len() < explorer.store().len() + 10_000);
    }
}
