//! Storage of per-grid-query sub-aggregates.
//!
//! §5.1.1: *"We must store only the aggregate values for the d + 1
//! sub-queries"* of each investigated grid query. The recurrence (Eq. 17)
//! only reaches back one unit along each axis, i.e. one query-layer, so a
//! layered expansion keeps two layers — the previous and the current — and
//! drops the older one at each layer boundary.
//!
//! A layer is a flat arena in emission order: `d` coordinates and `d + 1`
//! states per point. Finding a neighbour `u − e_i` needs no hashing. The map
//! `u ↦ u − e_i` preserves lexicographic order and a layered expander emits
//! each layer in lexicographic order (see [`Emission`]), so the neighbours
//! along `i` of successive points come in emission order too, and one
//! forward-only cursor per dimension and arena finds them in amortised
//! O(d). Best-first expansion interleaves layers: it keeps one arena,
//! never evicts, and finds neighbours through a point → slot map.

use acq_engine::AggState;

use crate::expand::Emission;
use crate::fasthash::FastMap; // lint-allow(determinism): best-first's point → slot index; never iterated

use crate::space::GridPoint;

/// One query-layer's investigated points, in emission order.
#[derive(Debug, Default)]
struct Arena {
    /// The layer its points belong to; `None` while it holds none.
    layer: Option<u64>,
    /// `d` coordinates per point.
    coords: Vec<u32>,
    /// `d + 1` sub-aggregates per point: `O_1 … O_{d+1}`.
    states: Vec<AggState>,
    /// Per dimension `i`: the slot where the next neighbour along `i` is
    /// looked for first. Only moves forward within a layer.
    cursors: Vec<usize>,
}

impl Arena {
    fn clear(&mut self, layer: Option<u64>) {
        self.layer = layer;
        self.coords.clear();
        self.states.clear();
        self.cursors.fill(0);
    }

    fn len(&self, dims: usize) -> usize {
        self.states.len() / (dims + 1)
    }

    /// The slot holding `point − e_i`, found by moving dimension `i`'s
    /// cursor forward past the slots emitted before it. `descending` says
    /// which way the arena's points are ordered.
    fn seek(&mut self, dims: usize, point: &[u32], i: usize, descending: bool) -> Option<usize> {
        let len = self.len(dims);
        let cursor = &mut self.cursors[i];
        while *cursor < len {
            let slot = &self.coords[*cursor * dims..(*cursor + 1) * dims];
            match cmp_to_neighbour(slot, point, i) {
                std::cmp::Ordering::Equal => return Some(*cursor),
                // Emitted before the neighbour: it cannot be a later one's.
                o if (o == std::cmp::Ordering::Greater) == descending => *cursor += 1,
                _ => return None,
            }
        }
        None
    }
}

/// Compares `slot` lexicographically with `point − e_i` (`point[i] > 0`).
fn cmp_to_neighbour(slot: &[u32], point: &[u32], i: usize) -> std::cmp::Ordering {
    slot[..i]
        .cmp(&point[..i])
        .then(slot[i].cmp(&(point[i] - 1)))
        .then_with(|| slot[i + 1..].cmp(&point[i + 1..]))
}

/// Where a stored point's sub-aggregates sit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    current: bool,
    index: usize,
}

/// The footprint charged per stored point: a keyed entry's — its
/// coordinates, a layer tag and a boxed state slice. Byte budgets
/// ([`crate::ExecutionBudget::max_store_bytes`]) and the store gauges are
/// stated in these units, so the charge must not depend on the layout
/// underneath.
fn entry_bytes(dims: usize, states: usize) -> usize {
    std::mem::size_of::<GridPoint>()
        + dims * std::mem::size_of::<u32>()
        + std::mem::size_of::<(u64, Box<[AggState]>)>()
        + states * std::mem::size_of::<AggState>()
}

/// Sub-aggregate store for one search: the previous and the current layer
/// of a layered expansion, or every investigated point of a best-first one.
#[derive(Debug)]
pub struct AggStore {
    dims: usize,
    emission: Emission,
    previous: Arena,
    /// The layer being investigated; best-first keeps every point here.
    current: Arena,
    /// Best-first only: each stored point's slot in `current`.
    // lint-allow(determinism): keyed lookups only; never iterated
    slots: FastMap<GridPoint, u32>,
    /// Best-first only: the key being probed.
    probe: GridPoint,
    peak_len: usize,
}

impl AggStore {
    /// An empty store for points of `dims` coordinates emitted in the
    /// order `emission` describes.
    #[must_use]
    pub fn new(dims: usize, emission: Emission) -> Self {
        let arena = |layer| Arena {
            layer,
            cursors: vec![0; dims],
            ..Arena::default()
        };
        // A layered search starts in layer 0, at the origin.
        let first = (emission != Emission::Unordered).then_some(0);
        Self {
            dims,
            emission,
            previous: arena(None),
            current: arena(first),
            slots: FastMap::default(), // lint-allow(determinism): keyed lookups only
            probe: vec![0; dims],
            peak_len: 0,
        }
    }

    /// Starts investigating `layer`; a new store is in layer 0. At a
    /// layered expansion's layer boundary the current layer becomes the
    /// previous one and the layer before it is dropped: the recurrence
    /// never reaches further back. Best-first keeps everything. Starting
    /// the current layer again is a no-op.
    pub fn begin_layer(&mut self, layer: u64) {
        if self.emission == Emission::Unordered || self.current.layer == Some(layer) {
            return;
        }
        if self.current.layer.is_some_and(|l| l + 1 == layer) {
            std::mem::swap(&mut self.previous, &mut self.current);
            self.previous.cursors.fill(0);
        } else {
            self.previous.clear(None);
        }
        self.current.clear(Some(layer));
    }

    /// The slot of `point − e_i` (`point[i] > 0`), if it is stored.
    pub(crate) fn find(&mut self, point: &[u32], i: usize) -> Option<Slot> {
        let d = self.dims;
        let layer = match self.emission {
            Emission::Unordered => {
                self.probe.copy_from_slice(point);
                self.probe[i] -= 1;
                let index = *self.slots.get(self.probe.as_slice())? as usize;
                return Some(Slot {
                    current: true,
                    index,
                });
            }
            Emission::L1Descending => self.current.layer?.checked_sub(1)?,
            Emission::LinfAscending => point
                .iter()
                .enumerate()
                .map(|(k, &u)| u64::from(if k == i { u - 1 } else { u }))
                .max()
                .unwrap_or(0),
        };
        let descending = self.emission == Emission::L1Descending;
        for (current, arena) in [(true, &mut self.current), (false, &mut self.previous)] {
            if arena.layer == Some(layer) {
                let index = arena.seek(d, point, i, descending)?;
                return Some(Slot { current, index });
            }
        }
        None
    }

    /// Sub-aggregate `O_{j+1}` of the point at `slot`.
    pub(crate) fn state(&self, slot: Slot, j: usize) -> &AggState {
        let arena = if slot.current {
            &self.current
        } else {
            &self.previous
        };
        &arena.states[slot.index * (self.dims + 1) + j]
    }

    /// Appends `point`'s `d + 1` sub-aggregates, moved out of `states`, to
    /// the current layer. Each point is stored once.
    pub(crate) fn push(&mut self, point: &[u32], states: &mut Vec<AggState>) {
        debug_assert_eq!((point.len(), states.len()), (self.dims, self.dims + 1));
        if self.emission == Emission::Unordered {
            let index = self.current.len(self.dims) as u32;
            self.slots.insert(point.to_vec(), index);
        }
        self.current.coords.extend_from_slice(point);
        self.current.states.append(states);
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Number of currently retained points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.previous.len(self.dims) + self.current.len(self.dims)
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of points ever retained simultaneously (a memory
    /// gauge for the experiments).
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Approximate heap bytes currently retained by the store: a fixed
    /// charge per retained point (O(1) to read). Excludes any heap data
    /// owned by user-defined aggregate states, so treat it as a gauge, not
    /// a measurement, for [`crate::ExecutionBudget::max_store_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.len() * entry_bytes(self.dims, self.dims + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcquireConfig;
    use crate::expand::{BestFirstExpander, BfsExpander, Expander, LinfExpander};
    use crate::explore::Explorer;
    use crate::space::RefinedSpace;
    use acq_engine::UdaRegistry;
    use acq_query::{
        AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Norm, Predicate,
        RefineSide,
    };

    /// The keyed store the arenas replaced, kept as the reference: a hash
    /// map from point to its layer and states, evicted by layer.
    #[derive(Default)]
    struct ReferenceStore {
        map: std::collections::HashMap<GridPoint, (u64, Vec<AggState>)>,
        peak_len: usize,
        approx_bytes: usize,
    }

    impl ReferenceStore {
        fn merge(&mut self, cell: AggState, point: &[u32], layer: u64) -> AggState {
            let mut states = vec![cell];
            let mut prev = point.to_vec();
            for j in 1..=point.len() {
                let mut s = states[j - 1].clone();
                if point[j - 1] > 0 {
                    prev[j - 1] -= 1;
                    s.merge(&self.map[&prev].1[j]).unwrap();
                    prev[j - 1] += 1;
                }
                states.push(s);
            }
            let result = states[point.len()].clone();
            self.approx_bytes += entry_bytes(point.len(), states.len());
            self.map.insert(prev, (layer, states));
            self.peak_len = self.peak_len.max(self.map.len());
            result
        }

        fn evict_below(&mut self, min_layer: u64) {
            self.map.retain(|_, (layer, _)| *layer >= min_layer);
            self.approx_bytes = self
                .map
                .iter()
                .map(|(k, (_, s))| entry_bytes(k.len(), s.len()))
                .sum();
        }
    }

    /// A space whose dimension `i` can refine `scores[i]` percent.
    fn space(scores: &[f64], norm: Norm) -> RefinedSpace {
        let mut b = AcqQuery::builder().table("t");
        for (i, s) in scores.iter().enumerate() {
            let x = ColRef::new("t", format!("x{i}"));
            let p = Predicate::select(x, Interval::new(0.0, 100.0), RefineSide::Upper);
            b = b.predicate(p.with_domain(Interval::new(0.0, 100.0 + s)));
        }
        let q = b
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 10.0))
            .build()
            .unwrap();
        RefinedSpace::new(&q, &AcquireConfig::default().with_norm(norm)).unwrap()
    }

    /// A made-up cell state for `point`: zero to two values derived from
    /// its coordinates, so some cells are empty.
    fn cell(spec: &AggregateSpec, point: &[u32]) -> AggState {
        let mut state = AggState::empty(spec, &UdaRegistry::default()).unwrap();
        let seed = point
            .iter()
            .fold(7u64, |h, &u| h.wrapping_mul(31).wrapping_add(u64::from(u)));
        for r in 0..seed % 3 {
            state.update(((seed * 13 + r) % 17) as f64 / 4.0 - 2.125);
        }
        state
    }

    /// The arenas, driven the way the search drives them, against the
    /// keyed reference store: after every point the same merged state and
    /// the same `len`, `peak_len` and `approx_bytes`, for every expander
    /// and aggregate, across layer boundaries.
    #[test]
    fn arenas_match_the_keyed_reference_store() {
        let shapes: &[&[f64]] = if cfg!(miri) {
            &[&[20.0, 0.0, 10.0]]
        } else {
            &[&[20.0, 0.0, 10.0], &[25.0, 15.0, 20.0, 5.0], &[50.0]]
        };
        let specs = [
            AggregateSpec::count(),
            AggregateSpec::sum(ColRef::new("t", "v")),
            AggregateSpec::min(ColRef::new("t", "v")),
            AggregateSpec::max(ColRef::new("t", "v")),
            AggregateSpec::avg(ColRef::new("t", "v")),
        ];
        for scores in shapes {
            for spec in &specs {
                let expanders: [Box<dyn Expander>; 3] = [
                    Box::new(BfsExpander::new(&space(scores, Norm::L1))),
                    Box::new(LinfExpander::new(&space(scores, Norm::LInf))),
                    Box::new(BestFirstExpander::new(&space(scores, Norm::Lp(2.0)))),
                ];
                for mut expander in expanders {
                    let emission = expander.emission();
                    let mut explorer = Explorer::new(scores.len(), emission);
                    let mut reference = ReferenceStore::default();
                    let mut current = 0u64;
                    let mut points = 0;
                    while let Some(point) = expander.next_query().map(<[u32]>::to_vec) {
                        let layer = expander.layer();
                        if layer > current {
                            // The driver's boundary: the reference evicts
                            // what the layered arenas drop.
                            explorer.begin_layer(layer);
                            if emission != Emission::Unordered {
                                reference.evict_below(layer - 1);
                            }
                            current = layer;
                        }
                        let got = explorer.merge_cell(cell(spec, &point), &point);
                        let want = reference.merge(cell(spec, &point), &point, layer);
                        let at = format!("{emission:?} {spec:?} at {point:?}");
                        assert_eq!(format!("{:?}", got.unwrap()), format!("{want:?}"), "{at}");
                        let store = explorer.store();
                        assert_eq!(store.len(), reference.map.len(), "{at}");
                        assert_eq!(store.peak_len(), reference.peak_len, "{at}");
                        assert_eq!(store.approx_bytes(), reference.approx_bytes, "{at}");
                        points += 1;
                    }
                    let expected: usize = scores
                        .iter()
                        .map(|s| (s / (10.0 / scores.len() as f64)).ceil() as usize + 1)
                        .product();
                    assert_eq!(points, expected, "{emission:?}: the whole grid");
                }
            }
        }
    }

    /// A point whose neighbour was never stored is a broken Theorem 3
    /// order, and says so.
    #[test]
    #[should_panic(expected = "Theorem 3")]
    fn a_missing_neighbour_panics() {
        let mut explorer = Explorer::new(2, Emission::L1Descending);
        explorer.merge_cell(AggState::Count(1), &[0, 0]).unwrap();
        explorer.begin_layer(1);
        explorer.merge_cell(AggState::Count(1), &[0, 1]).unwrap();
        explorer.begin_layer(2);
        // (1, 0) precedes (0, 1) in a descending shell: never stored.
        let _ = explorer.merge_cell(AggState::Count(1), &[1, 1]);
    }
}
