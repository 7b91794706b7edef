//! Columnar storage.

use std::sync::Arc;

use crate::value::{DataType, Value};

/// A typed column of values stored contiguously.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    /// An empty column of the given type.
    #[must_use]
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Self::Int(Vec::new()),
            DataType::Float => Self::Float(Vec::new()),
            DataType::Str => Self::Str(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    #[must_use]
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Self::Int(Vec::with_capacity(cap)),
            DataType::Float => Self::Float(Vec::with_capacity(cap)),
            DataType::Str => Self::Str(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        match self {
            Self::Int(_) => DataType::Int,
            Self::Float(_) => DataType::Float,
            Self::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Int(v) => v.len(),
            Self::Float(v) => v.len(),
            Self::Str(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row`. Panics when out of bounds (callers iterate within
    /// `0..len()`).
    #[must_use]
    pub fn get(&self, row: usize) -> Value {
        match self {
            Self::Int(v) => Value::Int(v[row]),
            Self::Float(v) => Value::Float(v[row]),
            Self::Str(v) => Value::Str(Arc::clone(&v[row])),
        }
    }

    /// Numeric view of the value at `row` (`None` for string columns).
    #[inline]
    #[must_use]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match self {
            Self::Int(v) => Some(v[row] as f64),
            Self::Float(v) => Some(v[row]),
            Self::Str(_) => None,
        }
    }

    /// Integer view of the value at `row` (`None` for non-int columns).
    #[inline]
    #[must_use]
    pub fn get_i64(&self, row: usize) -> Option<i64> {
        match self {
            Self::Int(v) => Some(v[row]),
            _ => None,
        }
    }

    /// String view of the value at `row` (`None` for numeric columns).
    #[inline]
    #[must_use]
    pub fn get_str(&self, row: usize) -> Option<&str> {
        match self {
            Self::Str(v) => Some(&v[row]),
            _ => None,
        }
    }

    /// Appends a value. Panics on type mismatch (table builders validate
    /// types before pushing).
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (Self::Int(col), Value::Int(x)) => col.push(x),
            (Self::Float(col), Value::Float(x)) => col.push(x),
            (Self::Str(col), Value::Str(x)) => col.push(x),
            // lint-allow(panic-hygiene): documented contract; table builders validate dtypes
            (col, v) => panic!("cannot push {} into {} column", v.dtype(), col.dtype()),
        }
    }

    /// Minimum and maximum of a numeric column, `None` for empty or string
    /// columns. NaN floats are ignored.
    #[must_use]
    pub fn min_max(&self) -> Option<(f64, f64)> {
        match self {
            Self::Int(v) => {
                let min = *v.iter().min()?;
                let max = *v.iter().max()?;
                Some((min as f64, max as f64))
            }
            Self::Float(v) => {
                let mut it = v.iter().copied().filter(|x| !x.is_nan());
                let first = it.next()?;
                let (mut lo, mut hi) = (first, first);
                for x in it {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                Some((lo, hi))
            }
            Self::Str(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = ColumnData::empty(DataType::Int);
        c.push(Value::Int(4));
        c.push(Value::Int(-2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Int(-2));
        assert_eq!(c.get_f64(0), Some(4.0));
        assert_eq!(c.get_i64(0), Some(4));
        assert_eq!(c.get_str(0), None);
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn push_type_mismatch_panics() {
        let mut c = ColumnData::empty(DataType::Int);
        c.push(Value::Float(1.0));
    }

    #[test]
    fn min_max_int_and_float() {
        let c = ColumnData::Int(vec![5, -1, 3]);
        assert_eq!(c.min_max(), Some((-1.0, 5.0)));
        let f = ColumnData::Float(vec![2.0, f64::NAN, -7.5]);
        assert_eq!(f.min_max(), Some((-7.5, 2.0)));
        let s = ColumnData::Str(vec![]);
        assert_eq!(s.min_max(), None);
        let e = ColumnData::Int(vec![]);
        assert_eq!(e.min_max(), None);
    }

    #[test]
    fn string_columns_share_values() {
        let v: Arc<str> = Arc::from("hello");
        let c = ColumnData::Str(vec![Arc::clone(&v), v]);
        assert_eq!(c.get_str(0), Some("hello"));
        assert_eq!(c.get_f64(0), None);
    }
}
