//! Block-level min/max statistics ("zone maps") and cell-range pruning.
//!
//! Cell queries (§5.1.1) are pure range/band predicates over refinement
//! scores, so a block of rows whose per-column min/max lie entirely outside
//! (or entirely inside) a cell's score band can be skipped (or aggregated
//! without re-evaluating the predicate). [`Table`](crate::Table) builds one
//! [`ColumnZones`] per numeric column at load time over fixed
//! [`ZONE_BLOCK`]-row blocks; [`classify`] maps a block against one
//! predicate + [`CellRange`] into a [`BlockClass`].
//!
//! Classification works in *value space at the block endpoints* and leans
//! only on the weak monotonicity of [`Predicate::score_value`] over the
//! feasible segment (fp subtraction and division by a positive constant are
//! order-preserving), so it is exact: `Skip` blocks contain no qualifying
//! tuple, `Full` blocks contain only qualifying tuples, and the straddling
//! remainder is re-scanned with the scalar predicate. The pruned path is
//! therefore bit-identical to the unpruned one (see DESIGN, "Zone-map
//! pruning and the determinism contract").

use acq_query::{Predicate, RefineSide};

use crate::column::ColumnData;
use crate::executor::CellRange;

/// Rows per zone-map block. Small enough that a straddling block costs
/// little, large enough that the per-block classification (a handful of
/// `score_value` calls) amortises to nothing.
pub const ZONE_BLOCK: usize = 1024;

/// Min/max summary of one block of one column.
///
/// NaN values are excluded from the band and recorded in `has_nan`; a block
/// that is entirely NaN keeps the empty sentinel `min > max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStat {
    /// Smallest non-NaN value in the block (`+inf` when none).
    pub min: f64,
    /// Largest non-NaN value in the block (`-inf` when none).
    pub max: f64,
    /// Whether the block contains any NaN value.
    pub has_nan: bool,
}

impl BlockStat {
    /// The empty/all-NaN sentinel: an inverted band that classifies as
    /// `Skip` (NaN rows score `+inf` and can never fall in a cell).
    pub const EMPTY: Self = Self {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        has_nan: false,
    };
}

/// Zone map for one column: one [`BlockStat`] per [`ZONE_BLOCK`]-row block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnZones {
    blocks: Vec<BlockStat>,
}

impl ColumnZones {
    /// Builds the zone map for a column; string columns get no blocks
    /// (they never feed numeric predicates through the kernel path).
    #[must_use]
    pub fn build(col: &ColumnData) -> Self {
        let blocks = match col {
            ColumnData::Int(v) => v
                .chunks(ZONE_BLOCK)
                .map(|c| {
                    let mut st = BlockStat::EMPTY;
                    for &x in c {
                        let x = x as f64;
                        if x < st.min {
                            st.min = x;
                        }
                        if x > st.max {
                            st.max = x;
                        }
                    }
                    st
                })
                .collect(),
            ColumnData::Float(v) => v
                .chunks(ZONE_BLOCK)
                .map(|c| {
                    let mut st = BlockStat::EMPTY;
                    for &x in c {
                        if x.is_nan() {
                            st.has_nan = true;
                        } else {
                            if x < st.min {
                                st.min = x;
                            }
                            if x > st.max {
                                st.max = x;
                            }
                        }
                    }
                    st
                })
                .collect(),
            ColumnData::Str(_) => Vec::new(),
        };
        Self { blocks }
    }

    /// The per-block stats; empty for string columns.
    #[must_use]
    pub fn blocks(&self) -> &[BlockStat] {
        &self.blocks
    }
}

/// How a block relates to one cell's score band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockClass {
    /// No row in the block can qualify: skip it entirely.
    Skip,
    /// Every row in the block qualifies: aggregate without re-evaluating
    /// the predicate.
    Full,
    /// The block straddles the band: scan it row by row.
    Scan,
}

impl BlockClass {
    /// Meet of per-dimension classes: a cell qualifies a row only when every
    /// dimension does, so any `Skip` wins, `Full` requires all-`Full`.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        match (self, other) {
            (Self::Skip, _) | (_, Self::Skip) => Self::Skip,
            (Self::Full, Self::Full) => Self::Full,
            _ => Self::Scan,
        }
    }
}

/// Classifies one block against one predicate and its cell score range.
///
/// `range` is `None` for NOREFINE predicates (which qualify exactly the
/// rows inside their interval) and `Some` for refinable dimensions, where
/// the qualifying scores are `s == 0` ([`CellRange::Zero`]) or
/// `lo < s <= hi` ([`CellRange::Open`]).
///
/// `Skip`/`Full` answers are exact; anything uncertain returns `Scan`.
#[must_use]
pub fn classify(pred: &Predicate, range: Option<&CellRange>, st: &BlockStat) -> BlockClass {
    if st.min > st.max {
        // Empty or all-NaN block: NaN scores +inf, never qualifies.
        return BlockClass::Skip;
    }
    let (zmin, zmax) = (st.min, st.max);
    let Some(range) = range else {
        // NOREFINE: qualification is plain interval containment; pure
        // value-space comparison, no score arithmetic involved.
        let (lo, hi) = (pred.interval.lo(), pred.interval.hi());
        return if zmax < lo || zmin > hi {
            BlockClass::Skip
        } else if !st.has_nan && zmin >= lo && zmax <= hi {
            BlockClass::Full
        } else {
            BlockClass::Scan
        };
    };
    // Refinable dimension. score_value is weakly monotone over the feasible
    // segment (nondecreasing in v for Upper on v >= lo, nonincreasing for
    // Lower on v <= hi) and +inf outside it, so the block's score band is
    // bracketed by the endpoint scores once the fixed-side boundary is
    // known to be respected.
    let s_min = pred.score_value(zmin);
    let s_max = pred.score_value(zmax);
    match pred.refine {
        RefineSide::Upper => {
            let lo = pred.interval.lo();
            match *range {
                CellRange::Zero => {
                    if zmax < lo || (zmin >= lo && s_min != 0.0) {
                        // Whole block below the fixed side, or min feasible
                        // score already positive/inf: nothing scores 0.
                        BlockClass::Skip
                    } else if !st.has_nan && s_min == 0.0 && s_max == 0.0 {
                        BlockClass::Full
                    } else {
                        BlockClass::Scan
                    }
                }
                CellRange::Open { lo: rlo, hi: rhi } => {
                    if zmax < lo || s_max <= rlo || (zmin >= lo && s_min > rhi) {
                        BlockClass::Skip
                    } else if !st.has_nan && zmin >= lo && s_min > rlo && s_max <= rhi {
                        BlockClass::Full
                    } else {
                        BlockClass::Scan
                    }
                }
            }
        }
        RefineSide::Lower => {
            // Mirror image: max score at zmin, min score at zmax.
            let hi = pred.interval.hi();
            match *range {
                CellRange::Zero => {
                    if zmin > hi || (zmax <= hi && s_max != 0.0) {
                        BlockClass::Skip
                    } else if !st.has_nan && s_min == 0.0 && s_max == 0.0 {
                        BlockClass::Full
                    } else {
                        BlockClass::Scan
                    }
                }
                CellRange::Open { lo: rlo, hi: rhi } => {
                    if zmin > hi || s_min <= rlo || (zmax <= hi && s_max > rhi) {
                        BlockClass::Skip
                    } else if !st.has_nan && zmax <= hi && s_max > rlo && s_min <= rhi {
                        BlockClass::Full
                    } else {
                        BlockClass::Scan
                    }
                }
            }
        }
    }
}

/// Per-cell scan accounting produced by the pruned cell path, committed to
/// [`ExecStats`](crate::ExecStats) on the serial emission path only (§9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellScan {
    /// Rows actually evaluated against the predicate (straddling blocks).
    pub tuples_scanned: u64,
    /// Blocks skipped outright by zone-map classification.
    pub zones_pruned: u64,
    /// Blocks aggregated wholesale without predicate re-evaluation.
    pub zones_full: u64,
    /// Blocks that straddled the band and were scanned row by row.
    pub zones_scanned: u64,
}

impl CellScan {
    /// Accumulates another scan's counters into this one.
    pub fn absorb(&mut self, other: &Self) {
        self.tuples_scanned += other.tuples_scanned;
        self.zones_pruned += other.zones_pruned;
        self.zones_full += other.zones_full;
        self.zones_scanned += other.zones_scanned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_query::{ColRef, Interval};

    fn upper(lo: f64, hi: f64) -> Predicate {
        Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(lo, hi),
            RefineSide::Upper,
        )
    }

    fn lower(lo: f64, hi: f64) -> Predicate {
        Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(lo, hi),
            RefineSide::Lower,
        )
    }

    fn st(min: f64, max: f64) -> BlockStat {
        BlockStat {
            min,
            max,
            has_nan: false,
        }
    }

    #[test]
    fn zone_build_int_and_float() {
        let z = ColumnZones::build(&ColumnData::Int((0..2500).collect()));
        assert_eq!(z.blocks().len(), 3);
        assert_eq!(z.blocks()[0], st(0.0, 1023.0));
        assert_eq!(z.blocks()[2], st(2048.0, 2499.0));

        let mut vals = vec![1.5, f64::NAN, -2.0];
        vals.extend(std::iter::repeat_n(0.0, 5));
        let z = ColumnZones::build(&ColumnData::Float(vals));
        assert_eq!(z.blocks().len(), 1);
        assert_eq!(
            z.blocks()[0],
            BlockStat {
                min: -2.0,
                max: 1.5,
                has_nan: true
            }
        );

        let z = ColumnZones::build(&ColumnData::Float(vec![f64::NAN; 4]));
        assert_eq!(z.blocks()[0].min, f64::INFINITY);
        assert!(z.blocks()[0].min > z.blocks()[0].max);
        assert!(z.blocks()[0].has_nan);
        assert_eq!(
            classify(&upper(0.0, 50.0), Some(&CellRange::Zero), &z.blocks()[0]),
            BlockClass::Skip
        );
    }

    #[test]
    fn upper_zero_classification_at_boundaries() {
        let p = upper(0.0, 50.0);
        let zero = CellRange::Zero;
        // Block max exactly on interval hi: still fully inside.
        assert_eq!(classify(&p, Some(&zero), &st(0.0, 50.0)), BlockClass::Full);
        // Block min exactly on interval lo qualifies; past hi does not.
        assert_eq!(classify(&p, Some(&zero), &st(0.0, 50.1)), BlockClass::Scan);
        // Whole block strictly past hi: scores all positive.
        assert_eq!(classify(&p, Some(&zero), &st(50.1, 80.0)), BlockClass::Skip);
        // Whole block below the fixed side.
        assert_eq!(
            classify(&p, Some(&zero), &st(-10.0, -0.1)),
            BlockClass::Skip
        );
        // Straddles the fixed side.
        assert_eq!(classify(&p, Some(&zero), &st(-1.0, 10.0)), BlockClass::Scan);
    }

    #[test]
    fn upper_open_classification_at_boundaries() {
        let p = upper(0.0, 50.0);
        // Band (0, 10]: values in (50, 55].
        let band = CellRange::Open { lo: 0.0, hi: 10.0 };
        assert_eq!(classify(&p, Some(&band), &st(51.0, 55.0)), BlockClass::Full);
        // Hi endpoint of the band is inclusive: score(55) == 10 exactly.
        assert_eq!(classify(&p, Some(&band), &st(50.5, 55.0)), BlockClass::Full);
        // Lo endpoint exclusive: score(50) == 0 is outside (0, 10].
        assert_eq!(classify(&p, Some(&band), &st(50.0, 55.0)), BlockClass::Scan);
        assert_eq!(classify(&p, Some(&band), &st(0.0, 50.0)), BlockClass::Skip);
        assert_eq!(classify(&p, Some(&band), &st(55.5, 80.0)), BlockClass::Skip);
        assert_eq!(classify(&p, Some(&band), &st(54.0, 56.0)), BlockClass::Scan);
        // Fixed-side straddle can hide in-band values: must scan.
        assert_eq!(classify(&p, Some(&band), &st(-5.0, 52.0)), BlockClass::Scan);
    }

    #[test]
    fn lower_side_mirrors() {
        let p = lower(100.0, 200.0);
        let zero = CellRange::Zero;
        assert_eq!(
            classify(&p, Some(&zero), &st(100.0, 200.0)),
            BlockClass::Full
        );
        assert_eq!(
            classify(&p, Some(&zero), &st(210.0, 220.0)),
            BlockClass::Skip
        );
        assert_eq!(classify(&p, Some(&zero), &st(10.0, 90.0)), BlockClass::Skip);
        assert_eq!(
            classify(&p, Some(&zero), &st(90.0, 150.0)),
            BlockClass::Scan
        );

        // Band (0, 10]: values in [90, 100).
        let band = CellRange::Open { lo: 0.0, hi: 10.0 };
        assert_eq!(classify(&p, Some(&band), &st(90.0, 99.0)), BlockClass::Full);
        assert_eq!(
            classify(&p, Some(&band), &st(90.0, 100.0)),
            BlockClass::Scan
        );
        assert_eq!(
            classify(&p, Some(&band), &st(100.0, 150.0)),
            BlockClass::Skip
        );
        assert_eq!(classify(&p, Some(&band), &st(50.0, 80.0)), BlockClass::Skip);
        assert_eq!(classify(&p, Some(&band), &st(85.0, 95.0)), BlockClass::Scan);
    }

    #[test]
    fn norefine_is_pure_containment() {
        let mut p = upper(0.0, 50.0);
        p.refinable = false;
        assert_eq!(classify(&p, None, &st(0.0, 50.0)), BlockClass::Full);
        assert_eq!(classify(&p, None, &st(-1.0, 50.0)), BlockClass::Scan);
        assert_eq!(classify(&p, None, &st(51.0, 60.0)), BlockClass::Skip);
        assert_eq!(classify(&p, None, &st(-9.0, -1.0)), BlockClass::Skip);
        // NaN in the block forbids Full even when the band covers it.
        let nan = BlockStat {
            min: 0.0,
            max: 50.0,
            has_nan: true,
        };
        assert_eq!(classify(&p, None, &nan), BlockClass::Scan);
    }

    #[test]
    fn refinement_cap_turns_scores_infinite() {
        let p = upper(0.0, 50.0).with_max_refinement(5.0);
        // score(60) == 20 > cap, so the whole block is infeasible.
        assert_eq!(
            classify(
                &p,
                Some(&CellRange::Open { lo: 0.0, hi: 30.0 }),
                &st(56.0, 60.0)
            ),
            BlockClass::Skip
        );
        // Cap-straddling block: score(52)=4 <= cap, score(60) inf.
        assert_eq!(
            classify(
                &p,
                Some(&CellRange::Open { lo: 0.0, hi: 30.0 }),
                &st(52.0, 60.0)
            ),
            BlockClass::Scan
        );
    }

    #[test]
    fn class_meet_semantics() {
        use BlockClass::*;
        assert_eq!(Full.and(Full), Full);
        assert_eq!(Full.and(Scan), Scan);
        assert_eq!(Scan.and(Skip), Skip);
        assert_eq!(Skip.and(Full), Skip);
    }
}
