//! Tables: named collections of equal-length columns.

use std::sync::Arc;

use acq_query::Interval;

use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::schema::{Field, Schema};
use crate::value::Value;

/// An immutable in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    columns: Vec<ColumnData>,
    /// Per-column [`ColumnData::min_max`], computed once at load.
    domains: Vec<Option<(f64, f64)>>,
    rows: usize,
}

impl Table {
    /// Builds a table from pre-filled columns; validates arity, types and
    /// lengths against the schema.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnData>,
    ) -> EngineResult<Self> {
        let name = name.into();
        assert_eq!(
            schema.len(),
            columns.len(),
            "table {name}: {} fields but {} columns",
            schema.len(),
            columns.len()
        );
        let rows = columns.first().map_or(0, ColumnData::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.dtype != c.dtype() {
                return Err(EngineError::TypeMismatch {
                    col: acq_query::ColRef::new(name.clone(), f.name.clone()),
                    expected: f.dtype,
                    actual: c.dtype(),
                });
            }
            if c.len() != rows {
                return Err(EngineError::RaggedColumns {
                    table: name.clone(),
                    expected: rows,
                    actual: c.len(),
                });
            }
        }
        // Domains are built once at load time; tables are immutable so the
        // stats can never go stale.
        let domains = columns.iter().map(ColumnData::min_max).collect();
        Ok(Self {
            name,
            schema: Arc::new(schema),
            columns,
            domains,
            rows,
        })
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column by index.
    #[must_use]
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Column by name.
    #[must_use]
    pub fn column_by_name(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Value at `(row, col)`.
    #[must_use]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Numeric domain `[min, max]` of a column, `None` for empty/string
    /// columns. Used by binders to cap the useful refinement of predicates;
    /// a lookup of what [`Table::from_columns`] computed, not a scan.
    #[must_use]
    pub fn numeric_domain(&self, col: &str) -> Option<Interval> {
        let (lo, hi) = self.domains[self.schema.index_of(col)?]?;
        Some(Interval::new(lo, hi))
    }
}

/// Row-at-a-time builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
}

impl TableBuilder {
    /// Starts a builder for a table with the given fields.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> EngineResult<Self> {
        let schema = Schema::new(fields)?;
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.dtype))
            .collect();
        Ok(Self {
            name: name.into(),
            schema,
            columns,
        })
    }

    /// Reserves capacity in every column.
    pub fn reserve(&mut self, additional: usize) {
        for (i, f) in self.schema.fields().iter().enumerate() {
            let fresh = ColumnData::with_capacity(f.dtype, self.columns[i].len() + additional);
            // Only reserve on empty columns (cheap path for generators).
            if self.columns[i].is_empty() {
                self.columns[i] = fresh;
            }
        }
    }

    /// Appends a row. Panics if the row arity or types mismatch the schema
    /// (generator bugs should fail fast).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Finishes the table.
    pub fn finish(self) -> EngineResult<Table> {
        Table::from_columns(self.name, self.schema, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn small() -> Table {
        let mut b = TableBuilder::new(
            "t",
            vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Float),
            ],
        )
        .unwrap();
        b.push_row(vec![Value::Int(1), Value::Float(10.0)]);
        b.push_row(vec![Value::Int(2), Value::Float(20.0)]);
        b.push_row(vec![Value::Int(3), Value::Float(-5.0)]);
        b.finish().unwrap()
    }

    #[test]
    fn build_and_access() {
        let t = small();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(1, 0), Value::Int(2));
        assert_eq!(t.column_by_name("b").unwrap().get_f64(2), Some(-5.0));
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    fn numeric_domain() {
        let t = small();
        let d = t.numeric_domain("b").unwrap();
        assert_eq!((d.lo(), d.hi()), (-5.0, 20.0));
        assert!(t.numeric_domain("missing").is_none());
    }

    /// The load-time domains against their reference, bit for bit.
    #[test]
    fn numeric_domain_is_min_max_of_every_column_kind() {
        let columns = vec![
            ("int", ColumnData::Int(vec![5, -1, 3, i64::MAX, i64::MIN])),
            (
                "float",
                ColumnData::Float(vec![f64::NAN, 2.0, -7.5, -0.0, f64::NAN]),
            ),
            ("nan", ColumnData::Float(vec![f64::NAN; 5])),
            ("str", ColumnData::Str(vec!["a".into(); 5])),
        ];
        let empty = vec![
            ("int", ColumnData::Int(vec![])),
            ("float", ColumnData::Float(vec![])),
            ("str", ColumnData::Str(vec![])),
        ];
        for columns in [columns, empty] {
            let fields = columns.iter().map(|(n, c)| Field::new(*n, c.dtype()));
            let schema = Schema::new(fields.collect()).unwrap();
            let data = columns.iter().map(|(_, c)| c.clone()).collect();
            let t = Table::from_columns("t", schema, data).unwrap();
            for (name, column) in &columns {
                let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
                assert_eq!(
                    t.numeric_domain(name).map(|d| bits((d.lo(), d.hi()))),
                    column.min_max().map(bits),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let r = Table::from_columns(
            "t",
            schema,
            vec![ColumnData::Int(vec![1, 2]), ColumnData::Int(vec![1])],
        );
        assert!(matches!(r.unwrap_err(), EngineError::RaggedColumns { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let r = Table::from_columns("t", schema, vec![ColumnData::Float(vec![1.0])]);
        assert!(matches!(r.unwrap_err(), EngineError::TypeMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut b = TableBuilder::new("t", vec![Field::new("a", DataType::Int)]).unwrap();
        b.push_row(vec![Value::Int(1), Value::Int(2)]);
    }
}
