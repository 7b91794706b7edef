//! Per-tuple refinement scoring.
//!
//! §5.1 of the paper: a cell query selects the tuples whose per-predicate
//! refinement scores fall into one grid cell of the refined space. This
//! module resolves an [`AcqQuery`]'s column references against a catalog
//! once ([`ResolvedQuery`]) and binds them to a concrete materialised
//! [`Relation`] ([`BoundQuery`]) so that scoring a tuple is a handful of
//! array reads.

use acq_query::{AcqQuery, PredFunction};

use crate::catalog::Catalog;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;

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
    pub(crate) fn score_local(&self, idx: usize, table: &crate::table::Table, row: usize) -> f64 {
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
