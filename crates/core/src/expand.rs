//! Phase I: Expand — generating refined queries in refinement order (§4).
//!
//! The Expand phase must (1) stay within the proximity threshold and (2)
//! emit queries whose QScores never decrease, so that the search can stop as
//! soon as a query-layer containing an answer completes. For `Lp` norms this
//! is Algorithm 1: a breadth-first search over the grid where each point's
//! `d` neighbours increment one dimension by the unit step. For `L∞` it is
//! Algorithm 2: explicit enumeration of the L-shaped layers `max_i u_i = k`.
//!
//! Both expanders additionally guarantee the *containment order* of Theorem
//! 3: any grid query contained in `u` (component-wise `<= u`) is emitted
//! before `u`, which is what lets the Explore phase reuse sub-aggregates.
//!
//! Both layered expanders walk their shells in place: each emitted point is
//! computed from the one before it, in O(d), and lent out as a borrowed
//! slice, so neither allocates nor hashes per point. No expander keeps a
//! dedup set.

use crate::space::{GridPoint, RefinedSpace};

/// How an expander orders the points of one query-layer: what lets the
/// Explore phase's store find a point's stored neighbours `u − e_i` (see
/// [`crate::AggStore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emission {
    /// L1 shells `Σ u_i = k` in ascending `k`, each in lexicographically
    /// descending order. Every neighbour lies in the previous shell.
    L1Descending,
    /// L∞ shells `max_i u_i = k` in ascending `k`, each in lexicographically
    /// ascending order. A neighbour lies in the same shell or the previous
    /// one.
    LinfAscending,
    /// Layers interleave (best-first): neighbours are found by key, and no
    /// layer is ever evicted.
    Unordered,
}

/// A generator of grid queries in non-decreasing refinement order.
pub trait Expander {
    /// The next grid query, or `None` when the (limited) grid is exhausted.
    /// The point is lent until the next call.
    fn next_query(&mut self) -> Option<&[u32]>;
    /// The query-layer, under this expander's norm, of the point
    /// [`Expander::next_query`] last returned.
    fn layer(&self) -> u64;
    /// How this expander orders the points of a layer.
    fn emission(&self) -> Emission;
}

/// Fills `point` from the left with `units`, each coordinate up to its
/// limit; whether all of them fit.
fn fill_greedily(point: &mut [u32], limits: &[u32], mut units: u64) -> bool {
    for (u, &limit) in point.iter_mut().zip(limits) {
        let take = units.min(u64::from(limit));
        *u = take as u32;
        units -= take;
    }
    units == 0
}

/// Algorithm 1: breadth-first search over the refined-space grid, used for
/// all `Lp` norms. Layers are L1 shells (`Σ u_i = k`).
///
/// A FIFO search from the origin that pushes each point's in-limit
/// neighbours `u + e_0 … u + e_{d−1}` once emits every shell in
/// lexicographically **descending** order: a point is pushed by its
/// greatest predecessor, which the shell before popped first. This
/// expander emits that sequence directly, with neither the queue nor the
/// dedup set: a shell starts at its greatest point (filled greedily from
/// the left) and each next point is the previous one's lexicographic
/// predecessor within the shell.
#[derive(Debug)]
pub struct BfsExpander {
    limits: Vec<u32>,
    /// The point last emitted (the origin before the first call).
    point: GridPoint,
    /// Its shell, `Σ u_i`.
    layer: u64,
    started: bool,
    exhausted: bool,
}

impl BfsExpander {
    /// Starts the search at the origin of `space`.
    #[must_use]
    pub fn new(space: &RefinedSpace) -> Self {
        Self::over(space.limits().to_vec())
    }

    fn over(limits: Vec<u32>) -> Self {
        Self {
            point: vec![0; limits.len()],
            limits,
            layer: 0,
            started: false,
            exhausted: false,
        }
    }

    /// Steps `point` to its lexicographic predecessor within its shell:
    /// takes one unit from the rightmost coordinate that has room to its
    /// right, then refills that suffix greedily. `false` when `point` is
    /// the shell's last.
    fn step_within_shell(&mut self) -> bool {
        let (mut room, mut suffix) = (0u64, 0u64);
        for j in (0..self.point.len()).rev() {
            if self.point[j] > 0 && room > 0 {
                self.point[j] -= 1;
                return fill_greedily(&mut self.point[j + 1..], &self.limits[j + 1..], suffix + 1);
            }
            room += u64::from(self.limits[j] - self.point[j]);
            suffix += u64::from(self.point[j]);
        }
        false
    }
}

impl Expander for BfsExpander {
    fn next_query(&mut self) -> Option<&[u32]> {
        if self.exhausted {
            return None;
        }
        if self.started && !self.step_within_shell() {
            // The next shell starts at its greatest point; past the sum of
            // the limits there is none.
            self.layer += 1;
            if !fill_greedily(&mut self.point, &self.limits, self.layer) {
                self.exhausted = true;
                return None;
            }
        }
        self.started = true;
        Some(&self.point)
    }

    fn layer(&self) -> u64 {
        self.layer
    }

    fn emission(&self) -> Emission {
        Emission::L1Descending
    }
}

/// Algorithm 2: sequential enumeration of the L-shaped `L∞` layers
/// (`max_i u_i = k`), in lexicographic order within a layer so that
/// contained queries still precede containing ones.
///
/// Each next point is the previous one's lexicographic successor within
/// the shell, so a layer of `(k+1)^d − k^d` points costs that many steps,
/// not a walk over its whole bounding box.
#[derive(Debug)]
pub struct LinfExpander {
    limits: Vec<u32>,
    /// The point last emitted (the origin before the first call).
    point: GridPoint,
    /// Its shell, `max_i u_i`.
    layer: u64,
    /// The last dimension whose limit reaches `layer`: where the shell's
    /// first point holds its `layer`.
    last_top: usize,
    started: bool,
    exhausted: bool,
}

impl LinfExpander {
    /// Starts the enumeration at the origin of `space`.
    #[must_use]
    pub fn new(space: &RefinedSpace) -> Self {
        Self::over(space.limits().to_vec())
    }

    fn over(limits: Vec<u32>) -> Self {
        Self {
            point: vec![0; limits.len()],
            limits,
            layer: 0,
            last_top: 0,
            started: false,
            exhausted: false,
        }
    }

    /// Steps `point` to its lexicographic successor within its shell, whose
    /// coordinates run up to `min(k, limit_i)` and hold at least one `k`.
    /// The rightmost coordinate that can grow grows by the least that keeps
    /// a `k` in the point: one unit if a `k` stays to its left or the unit
    /// makes one; else one unit plus a `k` in the last dimension that can
    /// hold one; else straight to `k`. Everything to its right restarts
    /// from zero. `false` when `point` is the shell's last.
    fn step_within_shell(&mut self) -> bool {
        let k = self.layer as u32;
        let d = self.point.len();
        let first_k = self.point.iter().position(|&u| u == k).unwrap_or(d);
        for j in (0..d).rev() {
            let cap = self.limits[j].min(k);
            if self.point[j] >= cap {
                continue;
            }
            let grown = self.point[j] + 1;
            let (value, top) = if first_k < j || grown == k {
                (grown, None)
            } else if self.last_top > j {
                (grown, Some(self.last_top))
            } else if cap == k {
                (k, None)
            } else {
                continue;
            };
            self.point[j] = value;
            self.point[j + 1..].fill(0);
            if let Some(m) = top {
                self.point[m] = k;
            }
            return true;
        }
        false
    }
}

impl Expander for LinfExpander {
    fn next_query(&mut self) -> Option<&[u32]> {
        if self.exhausted {
            return None;
        }
        if self.started && !self.step_within_shell() {
            // The next shell starts at its least point: a single `k` in the
            // last dimension that can hold one.
            self.layer += 1;
            let k = self.layer;
            let Some(top) = self.limits.iter().rposition(|&l| u64::from(l) >= k) else {
                self.exhausted = true;
                return None;
            };
            self.point.fill(0);
            self.point[top] = k as u32;
            self.last_top = top;
        }
        self.started = true;
        Some(&self.point)
    }

    fn layer(&self) -> u64 {
        self.layer
    }

    fn emission(&self) -> Emission {
        Emission::LinfAscending
    }
}

/// Exact-order expansion for general `Lp` norms (an extension beyond the
/// paper): Algorithm 1's breadth-first search emits queries in L1 layers,
/// which coincide with QScore order only under the `L1` norm. This expander
/// pops grid queries from a priority queue keyed by the *actual* QScore, so
/// the driver's "stop when the answer layer closes" logic is exact for any
/// `Lp` / weighted norm.
///
/// Containment order still holds: removing one unit from any coordinate
/// strictly decreases every monotone norm, so a point's recurrence
/// neighbours always pop first. The price is that no sub-aggregate layer
/// can be evicted (visits interleave layers), so memory grows with the
/// visited set.
#[derive(Debug)]
pub struct BestFirstExpander {
    limits: Vec<u32>,
    norm: acq_query::Norm,
    step: f64,
    heap: std::collections::BinaryHeap<HeapEntry>,
    /// Quantisation of qscore into pseudo-layers for the driver (ties map
    /// to the same layer).
    layer_scale: f64,
    /// The point last popped, and its pseudo-layer.
    point: GridPoint,
    layer: u64,
    /// Scratch for a neighbour's PScores.
    pscores: Vec<f64>,
}

#[derive(Debug)]
struct HeapEntry {
    qscore: f64,
    point: GridPoint,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.qscore == other.qscore && self.point == other.point
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on qscore (BinaryHeap is a max-heap), lexicographic
        // point order as a deterministic tie-break.
        other
            .qscore
            .total_cmp(&self.qscore)
            .then_with(|| other.point.cmp(&self.point))
    }
}

impl BestFirstExpander {
    /// Starts the search at the origin of `space`.
    #[must_use]
    pub fn new(space: &RefinedSpace) -> Self {
        let mut s = Self {
            limits: space.limits().to_vec(),
            norm: space.norm().clone(),
            step: space.step(),
            heap: std::collections::BinaryHeap::new(),
            layer_scale: 1024.0 / space.step().max(f64::MIN_POSITIVE),
            point: Vec::new(),
            layer: 0,
            pscores: Vec::with_capacity(space.dims()),
        };
        let origin = space.origin();
        s.heap.push(HeapEntry {
            qscore: 0.0,
            point: origin,
        });
        s
    }

    fn qscore_of(&mut self, p: &[u32]) -> f64 {
        self.pscores.clear();
        self.pscores
            .extend(p.iter().map(|&u| f64::from(u) * self.step));
        self.norm.qscore(&self.pscores)
    }
}

impl Expander for BestFirstExpander {
    fn next_query(&mut self) -> Option<&[u32]> {
        let HeapEntry { qscore, point } = self.heap.pop()?;
        // Quantised qscore: equal qscores share a layer, so the driver's
        // answer-layer collection keeps exact ties together.
        self.layer = (qscore * self.layer_scale).round() as u64;
        // Each point is queued once, by its parent `q − e_j`, `j` its last
        // non-zero axis: `point` queues `point + e_i` only for `i` at or
        // past its own last non-zero axis. A parent precedes its child in
        // (QScore, point) order, so every point is queued before it is
        // due, and points pop in that order with no dedup set.
        let first = point.iter().rposition(|&u| u > 0).unwrap_or(0);
        for i in first..point.len() {
            if point[i] < self.limits[i] {
                let mut next = point.clone();
                next[i] += 1;
                let qscore = self.qscore_of(&next);
                self.heap.push(HeapEntry {
                    qscore,
                    point: next,
                });
            }
        }
        self.point = point;
        Some(&self.point)
    }

    fn layer(&self) -> u64 {
        self.layer
    }

    fn emission(&self) -> Emission {
        Emission::Unordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcquireConfig;
    use acq_query::{
        AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate,
        RefineSide,
    };

    fn space(d: usize, norm: Norm, limit_score: f64) -> RefinedSpace {
        let mut b = AcqQuery::builder().table("t");
        for i in 0..d {
            b = b.predicate(
                Predicate::select(
                    ColRef::new("t", format!("x{i}")),
                    Interval::new(0.0, 100.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 100.0 + limit_score)),
            );
        }
        let q = b
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 10.0))
            .build()
            .unwrap();
        RefinedSpace::new(&q, &AcquireConfig::default().with_norm(norm)).unwrap()
    }

    fn drain(mut e: impl Expander, max: usize) -> Vec<GridPoint> {
        let mut out = Vec::new();
        while let Some(p) = e.next_query() {
            out.push(p.to_vec());
            if out.len() >= max {
                break;
            }
        }
        out
    }

    #[test]
    fn bfs_layers_nondecreasing_theorem2() {
        // 2 dims, step 5, limits from domain: (limit_score=50)/5 = 10 units.
        let s = space(2, Norm::L1, 50.0);
        let e = BfsExpander::new(&s);
        let pts = drain(e, 10_000);
        // Exhaustive: (10+1)^2 points.
        assert_eq!(pts.len(), 121);
        let layers: Vec<u64> = pts.iter().map(|p| RefinedSpace::l1_layer(p)).collect();
        assert!(layers.windows(2).all(|w| w[0] <= w[1]), "{layers:?}");
        assert_eq!(pts[0], vec![0, 0]);
    }

    #[test]
    fn bfs_emits_each_point_once() {
        let s = space(3, Norm::L1, 20.0);
        let pts = drain(BfsExpander::new(&s), 100_000);
        let mut set = std::collections::HashSet::new();
        for p in &pts {
            assert!(set.insert(p.clone()), "duplicate {p:?}");
        }
        // limits: ceil(20 / (10/3)) = 6 -> 7^3 points.
        assert_eq!(pts.len(), 343);
    }

    #[test]
    fn bfs_containment_order_theorem3() {
        let s = space(2, Norm::L1, 50.0);
        let pts = drain(BfsExpander::new(&s), 10_000);
        let pos = |p: &[u32]| pts.iter().position(|q| q == p).unwrap();
        // Every point strictly contained in (3, 2) must come first.
        for a in 0..=3u32 {
            for b in 0..=2u32 {
                if (a, b) != (3, 2) {
                    assert!(pos(&[a, b]) < pos(&[3, 2]));
                }
            }
        }
    }

    #[test]
    fn linf_layers_nondecreasing_and_lexicographic() {
        let s = space(2, Norm::LInf, 25.0); // limits = ceil(25/5) = 5 units
        let pts = drain(LinfExpander::new(&s), 10_000);
        assert_eq!(pts.len(), 36); // full 6x6 grid
        let layers: Vec<u64> = pts.iter().map(|p| RefinedSpace::linf_layer(p)).collect();
        assert!(layers.windows(2).all(|w| w[0] <= w[1]), "{layers:?}");
        // Layer 1 of a 2-d grid is the L-shape {01,10,11}.
        assert_eq!(&pts[1..4], &[vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn linf_containment_order_within_layer() {
        let s = space(2, Norm::LInf, 25.0);
        let pts = drain(LinfExpander::new(&s), 10_000);
        let pos = |p: &[u32]| pts.iter().position(|q| q == p).unwrap();
        // (3,1) is contained in (3,2): must be emitted first although both
        // are in L∞ layer 3.
        assert!(pos(&[3, 1]) < pos(&[3, 2]));
        assert!(pos(&[1, 3]) < pos(&[2, 3]));
    }

    #[test]
    fn expanders_respect_limits() {
        let s = space(2, Norm::L1, 10.0); // limits = 2 units
        let pts = drain(BfsExpander::new(&s), 1000);
        assert_eq!(pts.len(), 9);
        assert!(pts.iter().all(|p| p.iter().all(|&u| u <= 2)));
        let s = space(2, Norm::LInf, 10.0);
        let pts = drain(LinfExpander::new(&s), 1000);
        assert_eq!(pts.len(), 9);
    }

    #[test]
    fn best_first_orders_by_actual_lp_qscore() {
        let s = space(2, Norm::Lp(2.0), 50.0);
        let pts = drain(BestFirstExpander::new(&s), 10_000);
        assert_eq!(pts.len(), 121, "exhaustive");
        let q = |p: &[u32]| s.qscore(p);
        for w in pts.windows(2) {
            assert!(q(&w[0]) <= q(&w[1]) + 1e-9, "{:?} then {:?}", w[0], w[1]);
        }
        // BFS (Algorithm 1) violates exact L2 order inside its L1 layers:
        // its FIFO emits (2,0) (L2 qscore 10) before (1,1) (qscore 7.07).
        let bfs = drain(BfsExpander::new(&s), 10_000);
        let pos = |pts: &[GridPoint], p: &[u32]| pts.iter().position(|x| x == p).unwrap();
        assert!(pos(&bfs, &[2, 0]) < pos(&bfs, &[1, 1]), "BFS is L1-layered");
        assert!(
            pos(&pts, &[1, 1]) < pos(&pts, &[2, 0]),
            "best-first respects the true L2 order"
        );
    }

    #[test]
    fn best_first_containment_order() {
        let s = space(3, Norm::Lp(3.0), 20.0);
        let pts = drain(BestFirstExpander::new(&s), 100_000);
        assert_eq!(pts.len(), 343);
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                let b_contained = b.iter().zip(a).all(|(x, y)| x <= y) && a != b;
                assert!(!b_contained, "{b:?} contained in earlier {a:?}");
            }
        }
    }

    #[test]
    fn emission_orders() {
        let s = space(2, Norm::L1, 10.0);
        assert_eq!(BfsExpander::new(&s).emission(), Emission::L1Descending);
        assert_eq!(LinfExpander::new(&s).emission(), Emission::LinfAscending);
        assert_eq!(BestFirstExpander::new(&s).emission(), Emission::Unordered);
    }

    /// Algorithm 1 as a FIFO search with a dedup set: the sequence
    /// [`BfsExpander`] must reproduce.
    fn reference_bfs(limits: &[u32]) -> Vec<GridPoint> {
        let mut queue = std::collections::VecDeque::from([vec![0; limits.len()]]);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        while let Some(p) = queue.pop_front() {
            for i in 0..p.len() {
                if p[i] < limits[i] {
                    let mut next = p.clone();
                    next[i] += 1;
                    if seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
            out.push(p);
        }
        out
    }

    /// Algorithm 2 as a filter over each layer's bounding box, walked in
    /// lexicographic order: the sequence [`LinfExpander`] must reproduce.
    fn reference_linf(limits: &[u32]) -> Vec<GridPoint> {
        let mut out = Vec::new();
        for k in 0..=limits.iter().copied().max().unwrap_or(0) {
            let mut boxed: Vec<GridPoint> = vec![Vec::new()];
            for &l in limits {
                boxed = boxed
                    .into_iter()
                    .flat_map(|p| {
                        (0..=l.min(k)).map(move |u| {
                            let mut p = p.clone();
                            p.push(u);
                            p
                        })
                    })
                    .collect();
            }
            out.extend(boxed.into_iter().filter(|p| p.iter().max() == Some(&k)));
        }
        out
    }

    /// Every point of `e`, each with the layer `e` reports for it.
    fn with_layers(mut e: impl Expander) -> Vec<(GridPoint, u64)> {
        let mut out = Vec::new();
        while let Some(p) = e.next_query() {
            out.push((p.to_vec(), 0));
            out.last_mut().unwrap().1 = e.layer();
        }
        out
    }

    /// The direct enumerations emit exactly the reference algorithms'
    /// sequences — the order reaches answer ties, so it must not move — on
    /// random limit vectors with zeros, and report each point's layer.
    #[test]
    fn direct_enumeration_pins_the_reference_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let (cases, max_d) = if cfg!(miri) { (6, 3) } else { (300, 5) };
        for _ in 0..cases {
            let d = rng.gen_range(1..=max_d);
            let limits: Vec<u32> = (0..d).map(|_| rng.gen_range(0..=6)).collect();
            let bfs = with_layers(BfsExpander::over(limits.clone()));
            let points: Vec<GridPoint> = bfs.iter().map(|(p, _)| p.clone()).collect();
            assert_eq!(points, reference_bfs(&limits), "L1, limits {limits:?}");
            assert!(bfs.iter().all(|(p, k)| RefinedSpace::l1_layer(p) == *k));
            let linf = with_layers(LinfExpander::over(limits.clone()));
            let points: Vec<GridPoint> = linf.iter().map(|(p, _)| p.clone()).collect();
            assert_eq!(points, reference_linf(&limits), "L∞, limits {limits:?}");
            assert!(linf.iter().all(|(p, k)| RefinedSpace::linf_layer(p) == *k));
        }
    }

    /// Best-first emits every point of the grid sorted by (QScore, point):
    /// the sequence a search that queues all unseen neighbours pops.
    #[test]
    fn best_first_pops_in_qscore_then_point_order() {
        let shapes: &[(usize, f64)] = if cfg!(miri) {
            &[(2, 20.0)]
        } else {
            &[(1, 30.0), (2, 40.0), (3, 20.0), (4, 10.0)]
        };
        for &(d, score) in shapes {
            for norm in [Norm::L1, Norm::Lp(2.0), Norm::Lp(3.0)] {
                let s = space(d, norm.clone(), score);
                let mut want: Vec<GridPoint> = vec![Vec::new()];
                for &l in s.limits() {
                    want = want
                        .into_iter()
                        .flat_map(|p| {
                            (0..=l).map(move |u| {
                                let mut p = p.clone();
                                p.push(u);
                                p
                            })
                        })
                        .collect();
                }
                want.sort_by(|a, b| s.qscore(a).total_cmp(&s.qscore(b)).then_with(|| a.cmp(b)));
                let got = drain(BestFirstExpander::new(&s), usize::MAX);
                assert_eq!(got, want, "{norm:?}, limits {:?}", s.limits());
            }
        }
    }

    /// Best-first reports each point's quantised QScore as its layer.
    #[test]
    fn best_first_layers_quantise_the_qscore() {
        let s = space(3, Norm::Lp(2.0), 20.0);
        let scale = 1024.0 / s.step();
        for (p, layer) in with_layers(BestFirstExpander::new(&s)) {
            assert_eq!(layer, (s.qscore(&p) * scale).round() as u64, "{p:?}");
        }
    }

    #[test]
    fn asymmetric_limits() {
        // One dim capped at 0 via max_refinement.
        let q = AcqQuery::builder()
            .table("t")
            .predicate(
                Predicate::select(
                    ColRef::new("t", "a"),
                    Interval::new(0.0, 10.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 10.0)), // no useful expansion
            )
            .predicate(
                Predicate::select(
                    ColRef::new("t", "b"),
                    Interval::new(0.0, 10.0),
                    RefineSide::Upper,
                )
                .with_domain(Interval::new(0.0, 11.0)), // 10% -> 2 units
            )
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap();
        let s = RefinedSpace::new(&q, &AcquireConfig::default()).unwrap();
        assert_eq!(s.limits(), &[0, 2]);
        let pts = drain(BfsExpander::new(&s), 100);
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![0, 2]]);
    }
}
