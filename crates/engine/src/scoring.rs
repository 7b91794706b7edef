//! Per-tuple refinement scoring.
//!
//! §5.1 of the paper: a cell query selects the tuples whose per-predicate
//! refinement scores fall into one grid cell of the refined space. This
//! module resolves an [`AcqQuery`]'s column references against a catalog
//! once ([`ResolvedQuery`]) and binds them to a concrete materialised
//! [`Relation`] ([`BoundQuery`]). A bound query scores a relation in two
//! ways that give the same bits:
//!
//! * one tuple at a time ([`BoundQuery::score_into`], a handful of array
//!   reads per predicate), what a scan of the relation per cell query does;
//! * one predicate at a time over a run of tuples
//!   ([`BoundQuery::score_rows`]), what a layer that scores every tuple once
//!   does. Each predicate's column type is matched once per run, and a
//!   table-local predicate whose table has fewer rows than the relation is
//!   scored once per row of its table ([`TableScores`]) and gathered by row
//!   id, so a join scores a dimension row once, not once per tuple it
//!   joins.

use std::ops::Range;
use std::sync::Arc;

use acq_query::{AcqQuery, PredFunction, Predicate};

use crate::catalog::Catalog;
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::table::Table;

/// A column resolved to its table name and column index.
pub(crate) type ResolvedCol = (String, usize);

/// One side of a resolved join predicate: table, column, scale, offset.
pub(crate) type ResolvedJoinSide<'a> = (&'a str, usize, f64, f64);

/// Where a predicate's inputs live, resolved to table names + column ids.
#[derive(Debug, Clone)]
enum Source {
    /// Numeric selection predicate.
    Attr { table: String, col: usize },
    /// Join predicate `|l - r|` with linear scaling on both sides.
    Join {
        ltable: String,
        lcol: usize,
        lscale: f64,
        loff: f64,
        rtable: String,
        rcol: usize,
        rscale: f64,
        roff: f64,
    },
    /// Categorical predicate over a string column.
    Cat { table: String, col: usize },
}

/// An [`AcqQuery`] with every column reference resolved against a catalog.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// The underlying logical query.
    pub query: AcqQuery,
    sources: Vec<Source>,
    flex: Vec<usize>,
    /// Aggregated column, as (table name, column index); `None` for COUNT.
    agg: Option<(String, usize)>,
    /// Structural joins resolved to (table, col) name/index pairs.
    structural: Vec<(ResolvedCol, ResolvedCol)>,
}

impl ResolvedQuery {
    /// Resolves `query` against `catalog`, verifying every referenced table
    /// and column exists with a usable type.
    pub fn resolve(catalog: &Catalog, query: &AcqQuery) -> EngineResult<Self> {
        let col_of = |cr: &acq_query::ColRef| -> EngineResult<(String, usize)> {
            let table_name = cr
                .table
                .clone()
                .ok_or_else(|| EngineError::UnknownColumn(cr.clone()))?;
            let table = catalog.table(&table_name)?;
            let idx = table
                .schema()
                .index_of(&cr.column)
                .ok_or_else(|| EngineError::UnknownColumn(cr.clone()))?;
            Ok((table_name, idx))
        };

        let mut sources = Vec::with_capacity(query.predicates.len());
        for p in &query.predicates {
            sources.push(match &p.func {
                PredFunction::Attr(c) => {
                    let (table, col) = col_of(c)?;
                    Source::Attr { table, col }
                }
                PredFunction::JoinDelta { left, right } => {
                    let (ltable, lcol) = col_of(&left.col)?;
                    let (rtable, rcol) = col_of(&right.col)?;
                    Source::Join {
                        ltable,
                        lcol,
                        lscale: left.scale,
                        loff: left.offset,
                        rtable,
                        rcol,
                        rscale: right.scale,
                        roff: right.offset,
                    }
                }
                PredFunction::Categorical { col, .. } => {
                    let (table, c) = col_of(col)?;
                    Source::Cat { table, col: c }
                }
            });
        }

        let agg = match &query.constraint.spec.col {
            Some(c) => Some(col_of(c)?),
            None => None,
        };

        let mut structural = Vec::with_capacity(query.structural_joins.len());
        for j in &query.structural_joins {
            structural.push((col_of(&j.left)?, col_of(&j.right)?));
        }

        Ok(Self {
            query: query.clone(),
            sources,
            flex: query.flexible(),
            agg,
            structural,
        })
    }

    /// Indices of the flexible predicates (refined-space dimensions).
    #[must_use]
    pub fn flex(&self) -> &[usize] {
        &self.flex
    }

    /// Number of refinement dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.flex.len()
    }

    /// Structural joins as resolved (table, column) pairs.
    pub(crate) fn structural_joins(&self) -> &[(ResolvedCol, ResolvedCol)] {
        &self.structural
    }

    pub(crate) fn source_tables(&self, idx: usize) -> Vec<&str> {
        match &self.sources[idx] {
            Source::Attr { table, .. } | Source::Cat { table, .. } => vec![table],
            Source::Join { ltable, rtable, .. } => vec![ltable, rtable],
        }
    }

    pub(crate) fn join_parts(
        &self,
        idx: usize,
    ) -> Option<(ResolvedJoinSide<'_>, ResolvedJoinSide<'_>)> {
        match &self.sources[idx] {
            Source::Join {
                ltable,
                lcol,
                lscale,
                loff,
                rtable,
                rcol,
                rscale,
                roff,
            } => Some((
                (ltable, *lcol, *lscale, *loff),
                (rtable, *rcol, *rscale, *roff),
            )),
            _ => None,
        }
    }

    /// Scores a single-table (Attr or Categorical) predicate directly
    /// against one base-table row, for the per-table prefilters of the base
    /// relation. Panics on join predicates, which are never table-local.
    pub(crate) fn score_local(&self, idx: usize, table: &Table, row: usize) -> f64 {
        let pred = &self.query.predicates[idx];
        match &self.sources[idx] {
            Source::Attr { col, .. } => table
                .column(*col)
                .get_f64(row)
                .map_or(f64::INFINITY, |v| pred.score_value(v)),
            Source::Cat { col, .. } => table
                .column(*col)
                .get_str(row)
                .map_or(f64::INFINITY, |s| pred.score_category(s)),
            Source::Join { .. } => unreachable!("join predicates are not table-local"),
        }
    }

    /// Table-local predicate `idx`'s score of every row of `table`, its
    /// table, in row order: the bits [`ResolvedQuery::score_local`] gives
    /// row by row. Panics on join predicates, which are never table-local.
    pub(crate) fn score_table(&self, idx: usize, table: &Arc<Table>) -> Vec<f64> {
        let (col, categorical) = match &self.sources[idx] {
            Source::Attr { col, .. } => (*col, false),
            Source::Cat { col, .. } => (*col, true),
            Source::Join { .. } => unreachable!("join predicates are not table-local"),
        };
        let pred = &self.query.predicates[idx];
        let rel = Relation::table(Arc::clone(table));
        let mut out = vec![0.0; table.num_rows()];
        score_local_rows(pred, categorical, &rel, (0, col), 0..out.len(), |j, s| {
            out[j] = s
        });
        out
    }

    /// Binds the resolved query to a concrete relation (mapping table names
    /// to the relation's table positions).
    pub fn bind<'a>(&'a self, rel: &Relation) -> EngineResult<BoundQuery<'a>> {
        let pos_of = |name: &str| -> EngineResult<usize> {
            rel.tables()
                .iter()
                .position(|t| t.name() == name)
                .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
        };
        let mut srcs = Vec::with_capacity(self.sources.len());
        for s in &self.sources {
            srcs.push(match s {
                Source::Attr { table, col } => BSource::Attr {
                    t: pos_of(table)?,
                    c: *col,
                },
                Source::Cat { table, col } => BSource::Cat {
                    t: pos_of(table)?,
                    c: *col,
                },
                Source::Join {
                    ltable,
                    lcol,
                    lscale,
                    loff,
                    rtable,
                    rcol,
                    rscale,
                    roff,
                } => BSource::Join {
                    lt: pos_of(ltable)?,
                    lc: *lcol,
                    lscale: *lscale,
                    loff: *loff,
                    rt: pos_of(rtable)?,
                    rc: *rcol,
                    rscale: *rscale,
                    roff: *roff,
                },
            });
        }
        let agg = match &self.agg {
            Some((table, col)) => Some((pos_of(table)?, *col)),
            None => None,
        };
        Ok(BoundQuery {
            rq: self,
            srcs,
            agg,
        })
    }
}

/// Per-table score columns: for some of a query's table-local predicates,
/// the predicate's score of every row of its table, indexed by base-table
/// row id. [`crate::Executor::table_scores`] scores the flexible ones over
/// the catalog's tables, which is what
/// [`TableScores::caps_keep_every_row`] reads, and [`BoundQuery::memoise`]
/// adds the ones [`BoundQuery::score_rows`] gathers.
#[derive(Debug, Default)]
pub struct TableScores {
    /// By predicate index.
    cols: Vec<Option<Vec<f64>>>,
}

impl TableScores {
    /// The column of predicate `idx`, if scored.
    fn column(&self, idx: usize) -> Option<&[f64]> {
        self.cols.get(idx)?.as_deref()
    }

    /// Stores predicate `idx`'s column.
    pub(crate) fn insert(&mut self, idx: usize, col: Vec<f64>) {
        if self.cols.len() <= idx {
            self.cols.resize(idx + 1, None);
        }
        self.cols[idx] = Some(col);
    }

    /// Whether `flex_caps` (one PScore cap per flexible predicate, parallel
    /// to `rq.flex()`) keep every row of every table `rq`'s flexible
    /// table-local predicates read: every score of their columns finite and
    /// within its cap, inclusive, the test [`crate::Executor::structural`]
    /// prefilters with. A flexible table-local predicate without a column
    /// here counts as one its cap cuts. Then the caps prefilter nothing,
    /// and [`crate::Executor::structural`] builds the same product without
    /// them as with them.
    #[must_use]
    pub fn caps_keep_every_row(&self, rq: &ResolvedQuery, flex_caps: &[f64]) -> bool {
        assert_eq!(flex_caps.len(), rq.dims(), "one cap per flexible predicate");
        rq.flex.iter().zip(flex_caps).all(|(&idx, &cap)| {
            if matches!(rq.sources[idx], Source::Join { .. }) {
                return true;
            }
            self.column(idx)
                .is_some_and(|col| col.iter().all(|&s| s.is_finite() && s <= cap))
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum BSource {
    Attr {
        t: usize,
        c: usize,
    },
    Cat {
        t: usize,
        c: usize,
    },
    Join {
        lt: usize,
        lc: usize,
        lscale: f64,
        loff: f64,
        rt: usize,
        rc: usize,
        rscale: f64,
        roff: f64,
    },
}

/// A [`ResolvedQuery`] bound to one relation's table layout; the hot scoring
/// path of the engine.
#[derive(Debug)]
pub struct BoundQuery<'a> {
    rq: &'a ResolvedQuery,
    srcs: Vec<BSource>,
    agg: Option<(usize, usize)>,
}

impl BoundQuery<'_> {
    /// Computes the tuple's refinement scores over the flexible predicates
    /// into `out` (length = dims). Returns `false` when the tuple can never
    /// be admitted: a NOREFINE violation, a fixed-side violation, or a
    /// refinement beyond a predicate's own `max_refinement` (§7.1), all of
    /// which score `+∞`. A search's per-dimension caps are not checked
    /// here: [`crate::Executor::structural`] applies them when it scans
    /// the tables of the base relation.
    ///
    /// The per-tuple reference: a scan per cell query, the baselines and
    /// the estimator score with it, and [`BoundQuery::score_rows`], which
    /// scores a run of tuples a predicate at a time, gives its bits.
    #[inline]
    pub fn score_into(&self, rel: &Relation, row: usize, out: &mut [f64]) -> bool {
        debug_assert_eq!(out.len(), self.rq.flex.len());
        let mut k = 0usize;
        for (i, pred) in self.rq.query.predicates.iter().enumerate() {
            let score = match self.srcs[i] {
                BSource::Attr { t, c } => match rel.get_f64(row, t, c) {
                    Some(v) => pred.score_value(v),
                    None => f64::INFINITY,
                },
                BSource::Join {
                    lt,
                    lc,
                    lscale,
                    loff,
                    rt,
                    rc,
                    rscale,
                    roff,
                } => match (rel.get_f64(row, lt, lc), rel.get_f64(row, rt, rc)) {
                    (Some(l), Some(r)) => {
                        pred.score_value(((lscale * l + loff) - (rscale * r + roff)).abs())
                    }
                    _ => f64::INFINITY,
                },
                BSource::Cat { t, c } => match rel.get_str(row, t, c) {
                    Some(s) => pred.score_category(s),
                    None => f64::INFINITY,
                },
            };
            if score.is_infinite() {
                return false;
            }
            if pred.refinable {
                out[k] = score;
                k += 1;
            }
            // Non-refinable predicates score either 0 or +inf, so a finite
            // score needs no further checks.
        }
        debug_assert_eq!(k, out.len());
        true
    }

    /// Number of refinement dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.rq.flex.len()
    }

    /// Adds to `memo` the column of every table-local predicate whose table
    /// has fewer rows than `rel` and that `memo` lacks: what
    /// [`BoundQuery::score_rows`] gathers instead of scoring each of the
    /// relation's tuples.
    pub fn memoise(&self, rel: &Relation, memo: &mut TableScores) {
        for (idx, src) in self.srcs.iter().enumerate() {
            if let BSource::Attr { t, .. } | BSource::Cat { t, .. } = *src {
                let table = &rel.tables()[t];
                if table.num_rows() < rel.len() && memo.column(idx).is_none() {
                    memo.insert(idx, self.rq.score_table(idx, table));
                }
            }
        }
    }

    /// Predicate `idx`'s column in `memo` and its table's position in
    /// `rel`, if [`BoundQuery::score_rows`] gathers the predicate's scores:
    /// a table-local predicate whose table has fewer rows than `rel`.
    fn gathered<'m>(
        &self,
        idx: usize,
        rel: &Relation,
        memo: &'m TableScores,
    ) -> Option<(usize, &'m [f64])> {
        match self.srcs[idx] {
            BSource::Attr { t, .. } | BSource::Cat { t, .. }
                if rel.tables()[t].num_rows() < rel.len() =>
            {
                let col = memo.column(idx)?;
                debug_assert_eq!(col.len(), rel.tables()[t].num_rows());
                Some((t, col))
            }
            _ => None,
        }
    }

    /// The per-table column dimension `k`'s scores are gathered from by
    /// [`BoundQuery::score_rows`], with the position in `rel` of the table
    /// whose row ids index it; `None` for a dimension scored per tuple.
    #[must_use]
    pub fn dimension_column<'m>(
        &self,
        k: usize,
        rel: &Relation,
        memo: &'m TableScores,
    ) -> Option<(usize, &'m [f64])> {
        self.gathered(self.rq.flex[k], rel, memo)
    }

    /// Scores the logical rows `lo..lo + vals.len()` of `rel` a predicate
    /// at a time, in place: row `lo + j`'s flexible scores go to
    /// `scores[j·d..(j+1)·d]`, its aggregate value to `vals[j]`, and
    /// whether it is admitted to `kept[j]` — admitted exactly when
    /// [`BoundQuery::score_into`] admits it, with the same scores and the
    /// [`BoundQuery::agg_value`] value. Each column's type is matched once.
    /// A table-local predicate over a table with fewer rows than `rel` is
    /// gathered by row id from its column in `memo`, if there is one
    /// ([`BoundQuery::memoise`]); every other predicate is scored over the
    /// values its column holds at the rows, a band join from two gathered
    /// columns.
    pub fn score_rows(
        &self,
        rel: &Relation,
        lo: usize,
        memo: &TableScores,
        scores: &mut [f64],
        vals: &mut [f64],
        kept: &mut [bool],
    ) {
        let (n, d) = (vals.len(), self.dims());
        assert!(scores.len() == n * d && kept.len() == n, "one slot per row");
        let rows = lo..lo + n;
        kept.fill(true);
        let mut k = 0usize;
        for (idx, pred) in self.rq.query.predicates.iter().enumerate() {
            // Non-refinable predicates score either 0 or +inf: they only
            // ever drop a row.
            let slot = pred.refinable.then(|| {
                k += 1;
                k - 1
            });
            let mut put = |j: usize, s: f64| {
                if s.is_infinite() {
                    kept[j] = false;
                }
                if let Some(slot) = slot {
                    scores[j * d + slot] = s;
                }
            };
            if let Some((t, col)) = self.gathered(idx, rel, memo) {
                rel.for_each_base_row(t, rows.clone(), |j, base| put(j, col[base]));
                continue;
            }
            match self.srcs[idx] {
                BSource::Attr { t, c } => {
                    score_local_rows(pred, false, rel, (t, c), rows.clone(), put)
                }
                BSource::Cat { t, c } => {
                    score_local_rows(pred, true, rel, (t, c), rows.clone(), put)
                }
                BSource::Join {
                    lt,
                    lc,
                    lscale,
                    loff,
                    rt,
                    rc,
                    rscale,
                    roff,
                } => {
                    let mut left = vec![0.0; n];
                    let both = numeric_rows(rel, (lt, lc), rows.clone(), |j, l| {
                        left[j] = lscale * l + loff;
                    }) && numeric_rows(rel, (rt, rc), rows.clone(), |j, r| {
                        put(j, pred.score_value((left[j] - (rscale * r + roff)).abs()));
                    });
                    if !both {
                        (0..n).for_each(|j| put(j, f64::INFINITY));
                    }
                }
            }
        }
        debug_assert_eq!(k, d);
        let gathered = match self.agg {
            Some(at) => numeric_rows(rel, at, rows, |j, v| vals[j] = v),
            None => false,
        };
        if !gathered {
            vals.fill(0.0);
        }
    }

    /// The aggregated column's value for the tuple (0 for COUNT). String
    /// aggregate columns are rejected at bind time by type checks upstream;
    /// if one slips through, the tuple contributes 0.
    #[inline]
    #[must_use]
    pub fn agg_value(&self, rel: &Relation, row: usize) -> f64 {
        match self.agg {
            Some((t, c)) => rel.get_f64(row, t, c).unwrap_or(0.0),
            None => 0.0,
        }
    }
}

/// Calls `f(j, v)` with the value `v` that column `at.1` of the table at
/// position `at.0` of `rel` holds at logical row `rows.start + j`, for
/// every row of `rows` in order. A string column calls nothing and returns
/// `false`.
#[inline]
fn numeric_rows(
    rel: &Relation,
    (t, c): (usize, usize),
    rows: Range<usize>,
    mut f: impl FnMut(usize, f64),
) -> bool {
    match rel.tables()[t].column(c) {
        ColumnData::Int(v) => rel.for_each_base_row(t, rows, |j, base| f(j, v[base] as f64)),
        ColumnData::Float(v) => rel.for_each_base_row(t, rows, |j, base| f(j, v[base])),
        ColumnData::Str(_) => return false,
    }
    true
}

/// Calls `put(j, s)` with table-local `pred`'s score `s` — a categorical
/// one's if `categorical`, else a numeric one's — of the value column
/// `at.1` of the table at position `at.0` of `rel` holds at logical row
/// `rows.start + j`, for every row of `rows` in order. A column of the
/// other kind scores every row `+∞`, as [`BoundQuery::score_into`] does.
#[inline]
fn score_local_rows(
    pred: &Predicate,
    categorical: bool,
    rel: &Relation,
    (t, c): (usize, usize),
    rows: Range<usize>,
    mut put: impl FnMut(usize, f64),
) {
    let n = rows.len();
    let scored = if categorical {
        match rel.tables()[t].column(c) {
            ColumnData::Str(v) => {
                rel.for_each_base_row(t, rows, |j, base| put(j, pred.score_category(&v[base])));
                true
            }
            _ => false,
        }
    } else {
        numeric_rows(rel, (t, c), rows, |j, v| put(j, pred.score_value(v)))
    };
    if !scored {
        (0..n).for_each(|j| put(j, f64::INFINITY));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};
    use acq_query::{AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide};

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        )
        .unwrap();
        for (x, y) in [(1.0, 10.0), (2.0, 60.0), (3.0, 200.0)] {
            b.push_row(vec![Value::Float(x), Value::Float(y)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn query() -> AcqQuery {
        AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 50.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 2.0))
            .build()
            .unwrap()
    }

    #[test]
    fn resolve_and_score() {
        let cat = catalog();
        let rq = ResolvedQuery::resolve(&cat, &query()).unwrap();
        assert_eq!(rq.dims(), 1);
        let rel = Relation::table(cat.table("t").unwrap());
        let bound = rq.bind(&rel).unwrap();
        let mut s = [0.0];
        assert!(bound.score_into(&rel, 0, &mut s));
        assert_eq!(s[0], 0.0);
        assert!(bound.score_into(&rel, 1, &mut s));
        assert!((s[0] - 20.0).abs() < 1e-12); // y=60 on [0,50]
        assert!(bound.score_into(&rel, 2, &mut s));
        assert!((s[0] - 300.0).abs() < 1e-12);
    }

    #[test]
    fn norefine_violation_excludes() {
        let cat = catalog();
        let mut q = query();
        q.predicates.push(
            Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 2.0),
                RefineSide::Upper,
            )
            .no_refine(),
        );
        let rq = ResolvedQuery::resolve(&cat, &q).unwrap();
        let rel = Relation::table(cat.table("t").unwrap());
        let bound = rq.bind(&rel).unwrap();
        let mut s = [0.0];
        assert!(bound.score_into(&rel, 1, &mut s)); // x=2 ok
        assert!(!bound.score_into(&rel, 2, &mut s)); // x=3 violates NOREFINE
    }

    /// A fact table `f` (`k`, `v` with a NaN) whose rows each join the
    /// row `k` of a dimension table `d` (`w`, and a cuisine `s`), and a
    /// query scoring both: `d.w` and `d.s` gathered from their table's
    /// columns, `f.v` per row, a band join from the two and a NOREFINE
    /// predicate that drops rows.
    fn star() -> (ResolvedQuery, Relation) {
        let mut f = TableBuilder::new(
            "f",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Float),
            ],
        )
        .unwrap();
        let fact = [
            (0, 1.0),
            (2, 7.5),
            (1, f64::NAN),
            (0, 12.0),
            (2, 3.0),
            (1, 5.0),
            (0, 0.5),
        ];
        for (k, v) in fact {
            f.push_row(vec![Value::Int(k), Value::Float(v)]);
        }
        let mut d = TableBuilder::new(
            "d",
            vec![
                Field::new("w", DataType::Float),
                Field::new("s", DataType::Str),
            ],
        )
        .unwrap();
        for (w, s) in [(8.0, "Gyro"), (15.0, "Sushi"), (11.0, "Pizza")] {
            d.push_row(vec![Value::Float(w), Value::Str(s.into())]);
        }
        let mut cat = Catalog::new();
        cat.register(f.finish().unwrap()).unwrap();
        cat.register(d.finish().unwrap()).unwrap();
        let cuisine = Arc::new(acq_query::OntologyTree::sample_cuisine());
        let q = AcqQuery::builder()
            .table("f")
            .table("d")
            .predicate(Predicate::select(
                ColRef::new("d", "w"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("f", "v"),
                Interval::new(0.0, 5.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::categorical(
                ColRef::new("d", "s"),
                cuisine,
                vec!["Gyro".into()],
            ))
            .predicate(Predicate::equi_join(
                ColRef::new("f", "v"),
                ColRef::new("d", "w"),
            ))
            .predicate(
                Predicate::select(
                    ColRef::new("f", "v"),
                    Interval::new(0.0, 10.0),
                    RefineSide::Upper,
                )
                .no_refine(),
            )
            .constraint(AggConstraint::new(
                AggregateSpec::sum(ColRef::new("f", "v")),
                CmpOp::Ge,
                1.0,
            ))
            .build()
            .unwrap();
        let rq = ResolvedQuery::resolve(&cat, &q).unwrap();
        let tables = vec![cat.table("f").unwrap(), cat.table("d").unwrap()];
        let ids = fact
            .iter()
            .enumerate()
            .flat_map(|(row, &(k, _))| [row as u32, k as u32])
            .collect();
        (rq, Relation::from_rows(tables, ids))
    }

    #[test]
    fn scoring_a_run_of_rows_gives_the_row_by_row_bits() {
        let (rq, rel) = star();
        let bound = rq.bind(&rel).unwrap();
        let mut memo = TableScores::default();
        bound.memoise(&rel, &mut memo);
        assert!(
            bound.dimension_column(0, &rel, &memo).is_some(),
            "d.w is gathered"
        );
        assert!(
            bound.dimension_column(1, &rel, &memo).is_none(),
            "f.v is scored per row"
        );
        let (n, d) = (rel.len(), rq.dims());
        for lo in [0, 3, n] {
            let len = n - lo;
            let (mut scores, mut vals, mut kept) =
                (vec![0.0; len * d], vec![0.0; len], vec![false; len]);
            bound.score_rows(&rel, lo, &memo, &mut scores, &mut vals, &mut kept);
            if lo == 0 {
                assert!(kept.contains(&true) && kept.contains(&false), "{kept:?}");
            }
            let mut row_scores = vec![0.0; d];
            for j in 0..len {
                let admitted = bound.score_into(&rel, lo + j, &mut row_scores);
                assert_eq!(kept[j], admitted, "row {}", lo + j);
                if admitted {
                    let got: Vec<u64> = scores[j * d..(j + 1) * d]
                        .iter()
                        .map(|s| s.to_bits())
                        .collect();
                    let expected: Vec<u64> = row_scores.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, expected, "row {}", lo + j);
                    assert_eq!(vals[j].to_bits(), bound.agg_value(&rel, lo + j).to_bits());
                }
            }
        }
    }

    #[test]
    fn resolve_rejects_unknown_columns() {
        let cat = catalog();
        let mut q = query();
        q.predicates[0] = Predicate::select(
            ColRef::new("t", "nope"),
            Interval::new(0.0, 1.0),
            RefineSide::Upper,
        );
        assert!(matches!(
            ResolvedQuery::resolve(&cat, &q).unwrap_err(),
            EngineError::UnknownColumn(_)
        ));
    }

    #[test]
    fn agg_value_reads_column() {
        let cat = catalog();
        let mut q = query();
        q.constraint =
            AggConstraint::new(AggregateSpec::sum(ColRef::new("t", "x")), CmpOp::Ge, 1.0);
        let rq = ResolvedQuery::resolve(&cat, &q).unwrap();
        let rel = Relation::table(cat.table("t").unwrap());
        let bound = rq.bind(&rel).unwrap();
        assert_eq!(bound.agg_value(&rel, 2), 3.0);
    }
}
