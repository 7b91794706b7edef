//! Materialised relations: a base table scan or the product of joins.

use std::ops::Range;
use std::sync::Arc;

use crate::table::Table;

/// A materialised relation over one or more base tables.
///
/// Each logical row is a tuple of row-ids, one per base table, stored
/// flattened with stride `tables.len()`. Single-table relations use an
/// implicit identity mapping to avoid materialising row-id vectors for
/// full scans. The row ids are shared, so a clone — or the relation a
/// level-one base relation reattaches to its tables — copies none of them.
#[derive(Debug, Clone)]
pub struct Relation {
    tables: Vec<Arc<Table>>,
    rows: RowIds,
}

/// A relation's logical rows without its tables: what a relation keeps of
/// its inputs when the tables themselves must not be kept alive.
#[derive(Debug, Clone)]
pub(crate) struct RowIds {
    /// Flattened row-id tuples; empty when `identity`.
    ids: Arc<[u32]>,
    len: usize,
    identity: bool,
}

impl RowIds {
    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.ids[..])
    }
}

impl Relation {
    /// A full scan of one table (identity row mapping).
    #[must_use]
    pub fn table(table: Arc<Table>) -> Self {
        let len = table.num_rows();
        Self {
            tables: vec![table],
            rows: RowIds {
                ids: Arc::from([]),
                len,
                identity: true,
            },
        }
    }

    /// A relation over several tables with explicit flattened row-id tuples
    /// (`row_ids.len() == len * tables.len()`).
    #[must_use]
    pub fn from_rows(tables: Vec<Arc<Table>>, row_ids: Vec<u32>) -> Self {
        let stride = tables.len().max(1);
        assert_eq!(
            row_ids.len() % stride,
            0,
            "row ids must be a multiple of the stride"
        );
        let len = row_ids.len() / stride;
        Self {
            tables,
            rows: RowIds {
                ids: Arc::from(row_ids),
                len,
                identity: false,
            },
        }
    }

    /// The relation of `rows` over `tables`, the tables `rows` was taken
    /// from (or the same tables again), in the same order.
    pub(crate) fn with_rows(tables: Vec<Arc<Table>>, rows: RowIds) -> Self {
        debug_assert!(rows.identity || rows.ids.len() == rows.len * tables.len());
        Self { tables, rows }
    }

    /// The relation's rows, shared.
    pub(crate) fn rows(&self) -> RowIds {
        self.rows.clone()
    }

    /// The base tables, in position order.
    #[must_use]
    pub fn tables(&self) -> &[Arc<Table>] {
        &self.tables
    }

    /// Number of logical rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The base-table row id backing logical `row` for table `table_idx`.
    #[inline]
    #[must_use]
    pub fn base_row(&self, row: usize, table_idx: usize) -> u32 {
        debug_assert!(row < self.rows.len);
        debug_assert!(table_idx < self.tables.len());
        if self.rows.identity {
            row as u32
        } else {
            self.rows.ids[row * self.tables.len() + table_idx]
        }
    }

    /// Calls `f(j, base)` for the `j`-th of the logical rows `rows`, in
    /// order, with the base-table row id backing it for table `table_idx`:
    /// the row ids of a gather, read without asking per row how the
    /// relation stores them.
    #[inline]
    pub(crate) fn for_each_base_row(
        &self,
        table_idx: usize,
        rows: Range<usize>,
        mut f: impl FnMut(usize, usize),
    ) {
        debug_assert!(rows.end <= self.rows.len);
        debug_assert!(table_idx < self.tables.len());
        if self.rows.identity {
            for (j, row) in rows.enumerate() {
                f(j, row);
            }
        } else {
            let stride = self.tables.len();
            let ids = &self.rows.ids[rows.start * stride..rows.end * stride];
            for (j, tuple) in ids.chunks_exact(stride).enumerate() {
                f(j, tuple[table_idx] as usize);
            }
        }
    }

    /// Numeric value of column `col_idx` of table `table_idx` at logical
    /// `row` (`None` for string columns).
    #[inline]
    #[must_use]
    pub fn get_f64(&self, row: usize, table_idx: usize, col_idx: usize) -> Option<f64> {
        let base = self.base_row(row, table_idx) as usize;
        self.tables[table_idx].column(col_idx).get_f64(base)
    }

    /// String value of column `col_idx` of table `table_idx` at logical
    /// `row` (`None` for numeric columns).
    #[inline]
    #[must_use]
    pub fn get_str(&self, row: usize, table_idx: usize, col_idx: usize) -> Option<&str> {
        let base = self.base_row(row, table_idx) as usize;
        self.tables[table_idx].column(col_idx).get_str(base)
    }

    /// Keeps only the logical rows for which `keep` returns true, in order.
    /// A filter that drops nothing hands back this relation's rows
    /// uncopied; one over a single table keeps an identity mapping.
    #[must_use]
    pub fn filter(&self, mut keep: impl FnMut(usize) -> bool) -> Relation {
        let Some(first) = (0..self.len()).find(|&row| !keep(row)) else {
            return self.clone();
        };
        let kept = (0..first).chain((first + 1..self.len()).filter(|&row| keep(row)));
        let row_ids: Vec<u32> = if self.rows.identity {
            kept.map(|row| row as u32).collect()
        } else {
            let stride = self.tables.len();
            let ids = &self.rows.ids;
            kept.flat_map(|row| ids[row * stride..(row + 1) * stride].iter().copied())
                .collect()
        };
        Relation::from_rows(self.tables.clone(), row_ids)
    }

    /// Concatenates the columns of two relations row-wise given pairs of
    /// matching logical rows `(left_row, right_row)`.
    #[must_use]
    pub fn zip_join(left: &Relation, right: &Relation, pairs: &[(u32, u32)]) -> Relation {
        let mut tables = Vec::with_capacity(left.tables.len() + right.tables.len());
        tables.extend(left.tables.iter().cloned());
        tables.extend(right.tables.iter().cloned());
        let stride = tables.len();
        let mut row_ids = Vec::with_capacity(pairs.len() * stride);
        for &(l, r) in pairs {
            for t in 0..left.tables.len() {
                row_ids.push(left.base_row(l as usize, t));
            }
            for t in 0..right.tables.len() {
                row_ids.push(right.base_row(r as usize, t));
            }
        }
        Relation::from_rows(tables, row_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn t(name: &str, vals: &[i64]) -> Arc<Table> {
        let mut b = TableBuilder::new(name, vec![Field::new("x", DataType::Int)]).unwrap();
        for &v in vals {
            b.push_row(vec![Value::Int(v)]);
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn identity_scan() {
        let rel = Relation::table(t("a", &[10, 20, 30]));
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.base_row(2, 0), 2);
        assert_eq!(rel.get_f64(1, 0, 0), Some(20.0));
    }

    #[test]
    fn subset() {
        let rel = Relation::from_rows(vec![t("a", &[10, 20, 30])], vec![2, 0]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.get_f64(0, 0, 0), Some(30.0));
        assert_eq!(rel.get_f64(1, 0, 0), Some(10.0));
    }

    #[test]
    fn filter_materialises() {
        let rel = Relation::table(t("a", &[1, 2, 3, 4]));
        let f = rel.filter(|row| row % 2 == 0);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get_f64(1, 0, 0), Some(3.0));
        let g = f.filter(|row| row == 1);
        assert_eq!((g.len(), g.base_row(0, 0)), (1, 2));
    }

    #[test]
    fn a_filter_that_drops_nothing_shares_the_rows() {
        let rel = Relation::from_rows(vec![t("a", &[1, 2, 3, 4])], vec![3, 1, 2]);
        let all = rel.filter(|_| true);
        assert!(Arc::ptr_eq(&all.rows.ids, &rel.rows.ids));
        let identity = Relation::table(t("a", &[1, 2]));
        let kept = identity.filter(|_| true);
        assert!(kept.rows.identity && kept.len() == 2);
        let none = rel.filter(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn rows_reattach_to_their_tables() {
        let a = t("a", &[1, 2]);
        let j = Relation::from_rows(vec![a.clone(), t("b", &[7])], vec![1, 0, 0, 0]);
        let again = Relation::with_rows(j.tables().to_vec(), j.rows());
        assert_eq!(again.len(), 2);
        assert_eq!(again.get_f64(0, 0, 0), Some(2.0));
        assert_eq!(again.get_f64(1, 1, 0), Some(7.0));
        assert!(j.rows().bytes() >= 4 * std::mem::size_of::<u32>());
    }

    #[test]
    fn base_rows_are_visited_in_order_from_any_offset() {
        let visit = |rel: &Relation, pos: usize, rows: Range<usize>| {
            let mut seen = Vec::new();
            rel.for_each_base_row(pos, rows.clone(), |j, base| seen.push((j, base)));
            let expected: Vec<(usize, usize)> = rows
                .enumerate()
                .map(|(j, row)| (j, rel.base_row(row, pos) as usize))
                .collect();
            assert_eq!(seen, expected);
        };
        let j = Relation::from_rows(
            vec![t("a", &[1, 2, 3]), t("b", &[7, 8])],
            vec![2, 0, 0, 1, 1, 1, 2, 0],
        );
        for pos in 0..2 {
            for rows in [0..4, 1..3, 3..4, 2..2] {
                visit(&j, pos, rows);
            }
        }
        visit(&Relation::table(t("a", &[1, 2, 3])), 0, 1..3);
    }

    #[test]
    fn zip_join_concatenates_tables() {
        let l = Relation::table(t("a", &[1, 2]));
        let r = Relation::table(t("b", &[10, 20, 30]));
        let j = Relation::zip_join(&l, &r, &[(0, 2), (1, 0)]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.tables().len(), 2);
        assert_eq!(j.get_f64(0, 0, 0), Some(1.0));
        assert_eq!(j.get_f64(0, 1, 0), Some(30.0));
        assert_eq!(j.get_f64(1, 1, 0), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "multiple of the stride")]
    fn from_rows_validates_stride() {
        let a = t("a", &[1]);
        let b = t("b", &[1]);
        let _ = Relation::from_rows(vec![a, b], vec![0, 0, 0]);
    }
}
