//! Join operators: hash equi-joins and sort-merge band joins.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::relation::Relation;
use crate::stats::ExecStats;

/// Key extraction for joins: numeric values are hashed by their bit pattern
/// (exact equality, which is what TPC-H integer keys need).
#[inline]
fn key_bits(v: f64) -> u64 {
    // Normalise -0.0 to 0.0 so the two compare equal under bit hashing.
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// The hasher of the join's key map: splitmix64's finaliser over the key's
/// bits. The `f64` bits of small integers differ only in their high bits,
/// so a hash that does not mix them down leaves every key in one bucket.
/// Unkeyed: join keys are values of the host's own tables, never of a
/// request.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The end of a build chain.
const END: u32 = u32::MAX;

/// Hash equi-join of two relations on numeric columns
/// `left.(lt, lc) = right.(rt, rc)`; returns the combined relation, its
/// tables the left's then the right's.
///
/// Builds on the smaller input and probes with the other. Output rows come
/// in probe order, and within one probe row in ascending build order. NaN
/// keys never match.
#[must_use]
pub fn hash_equi_join(
    left: &Relation,
    (lt, lc): (usize, usize),
    right: &Relation,
    (rt, rc): (usize, usize),
    stats: &mut ExecStats,
) -> Relation {
    stats.tuples_scanned += (left.len() + right.len()) as u64;
    // Build side: the smaller relation.
    let swap = right.len() < left.len();
    let (build, (bt, bc), probe, (pt, pc)) = if swap {
        (right, (rt, rc), left, (lt, lc))
    } else {
        (left, (lt, lc), right, (rt, rc))
    };
    let key = |rel: &Relation, row: usize, (t, c): (usize, usize)| {
        rel.get_f64(row, t, c).filter(|v| !v.is_nan()).map(key_bits)
    };

    // Each key's chain of build rows: `head` holds its first row and
    // `next[row]` the row after `row`. Filled from the last row back, so
    // every chain runs in ascending row order.
    let mut head: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(build.len(), BuildHasherDefault::default());
    let mut next = vec![END; build.len()];
    for row in (0..build.len()).rev() {
        if let Some(k) = key(build, row, (bt, bc)) {
            match head.entry(k) {
                Entry::Occupied(mut first) => next[row] = first.insert(row as u32),
                Entry::Vacant(slot) => {
                    slot.insert(row as u32);
                }
            }
        }
    }

    let (lw, rw) = (left.tables().len(), right.tables().len());
    let mut row_ids = Vec::with_capacity(probe.len() * (lw + rw));
    let mut joined = 0u64;
    for p in 0..probe.len() {
        let Some(&first) = key(probe, p, (pt, pc)).and_then(|k| head.get(&k)) else {
            continue;
        };
        let mut b = first;
        while b != END {
            let (l, r) = if swap {
                (p, b as usize)
            } else {
                (b as usize, p)
            };
            row_ids.extend((0..lw).map(|t| left.base_row(l, t)));
            row_ids.extend((0..rw).map(|t| right.base_row(r, t)));
            joined += 1;
            b = next[b as usize];
        }
    }
    stats.rows_joined += joined;
    let tables = left
        .tables()
        .iter()
        .chain(right.tables())
        .cloned()
        .collect();
    Relation::from_rows(tables, row_ids)
}

/// Sort-merge band join: pairs `(l, r)` with `|lv - rv| <= width`, where
/// `lv = lscale * left.(lt, lc) + loff` and similarly for the right side.
///
/// This is how refinable join predicates (`A.x = B.x` refined into
/// `|A.x - B.x| <= w`, §2.4) are executed.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn band_join(
    left: &Relation,
    (lt, lc): (usize, usize),
    (lscale, loff): (f64, f64),
    right: &Relation,
    (rt, rc): (usize, usize),
    (rscale, roff): (f64, f64),
    width: f64,
    stats: &mut ExecStats,
) -> Relation {
    stats.tuples_scanned += (left.len() + right.len()) as u64;
    let mut lv: Vec<(f64, u32)> = (0..left.len())
        .filter_map(|row| {
            let v = left.get_f64(row, lt, lc)?;
            (!v.is_nan()).then_some((lscale * v + loff, row as u32))
        })
        .collect();
    let mut rv: Vec<(f64, u32)> = (0..right.len())
        .filter_map(|row| {
            let v = right.get_f64(row, rt, rc)?;
            (!v.is_nan()).then_some((rscale * v + roff, row as u32))
        })
        .collect();
    lv.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    rv.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut start = 0usize;
    for &(x, lrow) in &lv {
        // Advance the window start past values below x - width.
        while start < rv.len() && rv[start].0 < x - width {
            start += 1;
        }
        let mut j = start;
        while j < rv.len() && rv[j].0 <= x + width {
            pairs.push((lrow, rv[j].1));
            j += 1;
        }
    }
    stats.rows_joined += pairs.len() as u64;
    // Keep output deterministic regardless of the sort order above.
    pairs.sort_unstable();
    Relation::zip_join(left, right, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn rel(name: &str, vals: &[f64]) -> Relation {
        let mut b = TableBuilder::new(name, vec![Field::new("x", DataType::Float)]).unwrap();
        for &v in vals {
            b.push_row(vec![Value::Float(v)]);
        }
        Relation::table(Arc::new(b.finish().unwrap()))
    }

    /// Reference nested-loop band join for cross-checking.
    fn nested_band(l: &[f64], r: &[f64], w: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, &a) in l.iter().enumerate() {
            for (j, &b) in r.iter().enumerate() {
                if (a - b).abs() <= w {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn equi_join_matches() {
        let l = rel("l", &[1.0, 2.0, 3.0, 2.0]);
        let r = rel("r", &[2.0, 4.0]);
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&l, (0, 0), &r, (0, 0), &mut stats);
        assert_eq!(j.len(), 2); // rows 1 and 3 of l match row 0 of r
        assert_eq!(stats.rows_joined, 2);
        assert!(stats.tuples_scanned >= 6);
        for row in 0..j.len() {
            assert_eq!(j.get_f64(row, 0, 0), j.get_f64(row, 1, 0));
        }
    }

    /// Probe rows ascending, then build rows ascending within a key —
    /// whichever side is the build side.
    #[test]
    fn equi_join_emits_probe_order_then_build_order() {
        // Left is larger, so right (3 rows) is the build side.
        let l = rel("l", &[2.0, 1.0, 2.0, 3.0]);
        let r = rel("r", &[2.0, 9.0, 2.0]);
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&l, (0, 0), &r, (0, 0), &mut stats);
        let pairs: Vec<(u32, u32)> = (0..j.len())
            .map(|row| (j.base_row(row, 0), j.base_row(row, 1)))
            .collect();
        assert_eq!(pairs, [(0, 0), (0, 2), (2, 0), (2, 2)]);
        // Swapped sizes: left is the build side, right probes.
        let j = hash_equi_join(&r, (0, 0), &l, (0, 0), &mut stats);
        let pairs: Vec<(u32, u32)> = (0..j.len())
            .map(|row| (j.base_row(row, 0), j.base_row(row, 1)))
            .collect();
        assert_eq!(pairs, [(0, 0), (2, 0), (0, 2), (2, 2)]);
    }

    /// The key hasher spreads the bits of small integral `f64`s, which
    /// differ only in their high bits, over the low bits a table indexes by.
    #[test]
    fn key_hasher_spreads_integral_floats() {
        let low: std::collections::HashSet<u64> = (0..256)
            .map(|i| {
                let mut h = KeyHasher::default();
                h.write_u64(key_bits(f64::from(i)));
                h.finish() & 0xff
            })
            .collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
    }

    #[test]
    fn equi_join_empty_result() {
        let l = rel("l", &[1.0]);
        let r = rel("r", &[2.0]);
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&l, (0, 0), &r, (0, 0), &mut stats);
        assert!(j.is_empty());
    }

    #[test]
    fn equi_join_ignores_nan() {
        let l = rel("l", &[f64::NAN]);
        let r = rel("r", &[f64::NAN]);
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&l, (0, 0), &r, (0, 0), &mut stats);
        assert!(j.is_empty(), "NaN keys must not match");
    }

    #[test]
    fn equi_join_negative_zero() {
        let l = rel("l", &[-0.0]);
        let r = rel("r", &[0.0]);
        let mut stats = ExecStats::default();
        let j = hash_equi_join(&l, (0, 0), &r, (0, 0), &mut stats);
        assert_eq!(j.len(), 1, "-0.0 equals 0.0");
    }

    #[test]
    fn band_join_matches_nested_loop() {
        let lvals = [1.0, 5.0, 9.0, 2.5];
        let rvals = [2.0, 6.0, 20.0];
        for w in [0.0, 1.0, 3.0, 100.0] {
            let l = rel("l", &lvals);
            let r = rel("r", &rvals);
            let mut stats = ExecStats::default();
            let j = band_join(
                &l,
                (0, 0),
                (1.0, 0.0),
                &r,
                (0, 0),
                (1.0, 0.0),
                w,
                &mut stats,
            );
            let expected = nested_band(&lvals, &rvals, w);
            assert_eq!(j.len(), expected.len(), "width {w}");
            let mut got: Vec<(u32, u32)> = (0..j.len())
                .map(|row| (j.base_row(row, 0), j.base_row(row, 1)))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "width {w}");
        }
    }

    #[test]
    fn band_join_applies_linear_scaling() {
        // 2*l.x vs 3*r.x with width 0: 2*3 == 3*2.
        let l = rel("l", &[3.0, 1.0]);
        let r = rel("r", &[2.0, 5.0]);
        let mut stats = ExecStats::default();
        let j = band_join(
            &l,
            (0, 0),
            (2.0, 0.0),
            &r,
            (0, 0),
            (3.0, 0.0),
            0.0,
            &mut stats,
        );
        assert_eq!(j.len(), 1);
        assert_eq!(j.base_row(0, 0), 0);
        assert_eq!(j.base_row(0, 1), 0);
    }

    #[test]
    fn band_join_width_zero_is_equi() {
        let l = rel("l", &[1.0, 2.0]);
        let r = rel("r", &[2.0, 2.0]);
        let mut stats = ExecStats::default();
        let j = band_join(
            &l,
            (0, 0),
            (1.0, 0.0),
            &r,
            (0, 0),
            (1.0, 0.0),
            0.0,
            &mut stats,
        );
        assert_eq!(j.len(), 2);
    }
}
