//! Query execution: base-relation materialisation, cell queries, and full
//! refined-query aggregates.
//!
//! The paper's evaluation layer receives two kinds of requests:
//!
//! * ACQUIRE issues **cell queries** — "aggregate the tuples whose
//!   refinement scores fall in this one grid cell" (§5.1.1);
//! * the baseline techniques issue **full queries** — "aggregate the tuples
//!   admitted by this whole refined query" (§8.2).
//!
//! Both run against a *base relation*: the (possibly joined) tuple universe
//! of the query, materialised once per search, in two levels. Level one
//! ([`Executor::structural`]) prefilters the tables — NOREFINE predicates
//! drop tuples that can never be admitted, refinable ones keep every tuple
//! within the search's per-dimension refinement caps — and runs the
//! NOREFINE equi-joins. Level two ([`Executor::refine`]) runs the refinable
//! joins and any cross product. Built with caps that keep every row, level
//! one is what no refinement touches, and searches can share it.

use std::mem::size_of;
use std::sync::Arc;

use acq_query::{AcqQuery, Interval, PredFunction};

use crate::aggregate::{AggState, UdaRegistry};
use crate::catalog::Catalog;
use crate::error::{EngineError, EngineResult};
use crate::join::{band_join, hash_equi_join};
use crate::relation::{Relation, RowIds};
use crate::scoring::{ResolvedQuery, TableScores};
use crate::stats::ExecStats;
use crate::table::Table;

/// Default cap on materialised cross products (rows).
pub const DEFAULT_CROSS_PRODUCT_LIMIT: u64 = 20_000_000;

/// One dimension of a cell query: the refinement-score range the tuple must
/// fall into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRange {
    /// The tuple must already satisfy the predicate (score exactly 0) —
    /// grid coordinate 0.
    Zero,
    /// Score in the half-open bucket `(lo, hi]` — grid coordinate `k >= 1`
    /// with `lo = (k-1)·step`, `hi = k·step`.
    Open {
        /// Exclusive lower score bound.
        lo: f64,
        /// Inclusive upper score bound.
        hi: f64,
    },
}

impl CellRange {
    /// Whether a tuple score falls in this range.
    #[inline]
    #[must_use]
    pub fn contains(&self, s: f64) -> bool {
        match self {
            Self::Zero => s == 0.0,
            Self::Open { lo, hi } => s > *lo && s <= *hi,
        }
    }

    /// The inclusive upper score bound of the range.
    #[must_use]
    pub fn upper(&self) -> f64 {
        match self {
            Self::Zero => 0.0,
            Self::Open { hi, .. } => *hi,
        }
    }
}

/// The engine's execution entry point: owns the catalog, the UDA registry
/// and the work counters.
#[derive(Debug)]
pub struct Executor {
    catalog: Catalog,
    uda: UdaRegistry,
    stats: ExecStats,
    cross_product_limit: u64,
    /// Human-readable trace of the most recent base-relation
    /// materialisation (scan prefilters, join order, band widths).
    last_plan: Vec<String>,
}

impl Executor {
    /// Creates an executor over a catalog.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            uda: UdaRegistry::new(),
            stats: ExecStats::default(),
            cross_product_limit: DEFAULT_CROSS_PRODUCT_LIMIT,
            last_plan: Vec::new(),
        }
    }

    /// Replaces the UDA registry.
    #[must_use]
    pub fn with_uda_registry(mut self, uda: UdaRegistry) -> Self {
        self.uda = uda;
        self
    }

    /// Sets the cross-product row limit.
    #[must_use]
    pub fn with_cross_product_limit(mut self, limit: u64) -> Self {
        self.cross_product_limit = limit;
        self
    }

    /// The cross-product row limit [`Executor::base_relation`] enforces.
    #[must_use]
    pub fn cross_product_limit(&self) -> u64 {
        self.cross_product_limit
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The UDA registry.
    #[must_use]
    pub fn uda_registry(&self) -> &UdaRegistry {
        &self.uda
    }

    /// Mutable UDA registry (to register aggregates).
    pub fn uda_registry_mut(&mut self) -> &mut UdaRegistry {
        &mut self.uda
    }

    /// Accumulated work counters.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Resets the work counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Mutable access to the work counters, for evaluation layers that run
    /// on top of the engine (cached scores, grid indexes) but still account
    /// their work here.
    pub fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    /// Human-readable trace of the most recent
    /// [`Executor::base_relation`] call: one line per scan, join and cross
    /// product, in execution order.
    #[must_use]
    pub fn last_plan(&self) -> &[String] {
        &self.last_plan
    }

    /// Resolves a query's column references against the catalog.
    pub fn resolve(&self, query: &AcqQuery) -> EngineResult<ResolvedQuery> {
        ResolvedQuery::resolve(&self.catalog, query)
    }

    /// Fills in each predicate's attribute domain from table statistics
    /// (used to bound the useful refinement of every dimension).
    pub fn populate_domains(&self, query: &mut AcqQuery) -> EngineResult<()> {
        for pred in &mut query.predicates {
            if pred.domain.is_some() {
                continue;
            }
            match &pred.func {
                PredFunction::Attr(c) => {
                    let (table, idx) = self.catalog.resolve(c)?;
                    let field = &table.schema().fields()[idx];
                    pred.domain = table.numeric_domain(&field.name);
                }
                PredFunction::JoinDelta { left, right } => {
                    let (lt, lidx) = self.catalog.resolve(&left.col)?;
                    let (rt, ridx) = self.catalog.resolve(&right.col)?;
                    let lname = lt.schema().fields()[lidx].name.clone();
                    let rname = rt.schema().fields()[ridx].name.clone();
                    if let (Some(ld), Some(rd)) =
                        (lt.numeric_domain(&lname), rt.numeric_domain(&rname))
                    {
                        let (llo, lhi) = (left.eval(ld.lo()), left.eval(ld.hi()));
                        let (rlo, rhi) = (right.eval(rd.lo()), right.eval(rd.hi()));
                        let (llo, lhi) = (llo.min(lhi), llo.max(lhi));
                        let (rlo, rhi) = (rlo.min(rhi), rlo.max(rhi));
                        let max_delta = (lhi - rlo).max(rhi - llo).max(0.0);
                        pred.domain = Some(Interval::new(0.0, max_delta));
                    }
                }
                PredFunction::Categorical { .. } => {
                    // Categorical predicates carry their [0, 100] score
                    // domain from construction.
                }
            }
        }
        Ok(())
    }

    /// Materialises the query's base relation: every tuple combination that
    /// could be admitted by *some* refinement within `flex_caps` (one PScore
    /// cap per flexible predicate, parallel to `rq.flex()`).
    ///
    /// [`Executor::structural`] followed by [`Executor::refine`]:
    ///
    /// * NOREFINE selection predicates prefilter their tables;
    /// * flexible selection predicates prefilter to `score <= cap`;
    /// * NOREFINE equi-joins run as hash joins;
    /// * join predicates run as band joins at their cap width;
    /// * disconnected tables fall back to a size-limited cross product.
    pub fn base_relation(
        &mut self,
        rq: &ResolvedQuery,
        flex_caps: &[f64],
    ) -> EngineResult<Relation> {
        let structural = self.structural(rq, Some(flex_caps))?;
        self.refine(&structural, rq, flex_caps)
    }

    /// The score column of every flexible table-local predicate of `rq`,
    /// over every row of its table: what
    /// [`TableScores::caps_keep_every_row`] reads, and what a scoring of
    /// the query's base relation can gather instead of scoring its tuples
    /// (see [`crate::BoundQuery::score_rows`]). Counts nothing.
    pub fn table_scores(&self, rq: &ResolvedQuery) -> EngineResult<TableScores> {
        let mut scores = TableScores::default();
        for name in &rq.query.tables {
            let table = self.catalog.table(name)?;
            for i in local_predicates(rq, name, true) {
                scores.insert(i, rq.score_table(i, &table));
            }
        }
        Ok(scores)
    }

    /// Level one of the base relation: each table scanned with its
    /// table-local predicates — NOREFINE ones keep a finite score, flexible
    /// ones a score within `flex_caps` — then the NOREFINE equi-joins.
    ///
    /// With `flex_caps` `None` the flexible predicates filter nothing, and
    /// the product is the part of the base relation no refinement reaches:
    /// every search over the same tables, joins and NOREFINE predicates can
    /// share it, and wherever [`TableScores::caps_keep_every_row`] holds it is
    /// the capped product, row for row and in the same order. Counts
    /// nothing here: the work is the product's receipt, which
    /// [`Executor::refine`] adds.
    pub fn structural(
        &self,
        rq: &ResolvedQuery,
        flex_caps: Option<&[f64]>,
    ) -> EngineResult<Structural> {
        let q = &rq.query;
        let mut receipt = ExecStats::default();
        let mut plan = Vec::new();
        let cap_of = flex_caps.map(|caps| cap_of(rq, caps)).unwrap_or_default();

        // --- per-table scans with the table-local prefilters ----------------
        let mut components: Vec<Relation> = Vec::with_capacity(q.tables.len());
        for name in &q.tables {
            let table = self.catalog.table(name)?;
            receipt.tuples_scanned += table.num_rows() as u64;
            let fixed = local_predicates(rq, name, false);
            let capped = match flex_caps {
                Some(_) => local_predicates(rq, name, true),
                None => Vec::new(),
            };
            let kept = Relation::table(Arc::clone(&table)).filter(|row| {
                fixed
                    .iter()
                    .all(|&i| rq.score_local(i, &table, row).is_finite())
                    && capped.iter().all(|&i| within(rq, &cap_of, i, &table, row))
            });
            plan.push(format!(
                "scan {name}: {} of {} rows pass the table-local prefilters",
                kept.len(),
                table.num_rows()
            ));
            components.push(kept);
        }
        let mut comp_of: Vec<usize> = (0..q.tables.len()).collect();

        // --- structural NOREFINE equi-joins ---------------------------------
        for ((lname, lcol), (rname, rcol)) in rq.structural_joins() {
            let (lt, rt) = (table_pos(q, lname)?, table_pos(q, rname)?);
            let (ca, cb) = (comp_of[lt], comp_of[rt]);
            let on = format!(
                "{lname}.{} = {rname}.{}",
                self.col_name(lname, *lcol)?,
                self.col_name(rname, *rcol)?
            );
            if ca == cb {
                let rel = &components[ca];
                let (lp, rp) = (rel_pos(rel, lname)?, rel_pos(rel, rname)?);
                receipt.tuples_scanned += rel.len() as u64;
                let filtered = rel.filter(|row| {
                    matches!(
                        (rel.get_f64(row, lp, *lcol), rel.get_f64(row, rp, *rcol)),
                        (Some(l), Some(r)) if l == r
                    )
                });
                plan.push(format!(
                    "filter {on} (same component): {} rows remain",
                    filtered.len()
                ));
                components[ca] = filtered;
            } else {
                let (lrel, rrel) = (&components[ca], &components[cb]);
                let (lp, rp) = (rel_pos(lrel, lname)?, rel_pos(rrel, rname)?);
                let joined = hash_equi_join(lrel, (lp, *lcol), rrel, (rp, *rcol), &mut receipt);
                plan.push(format!(
                    "hash join on {on}: {} x {} -> {} rows",
                    lrel.len(),
                    rrel.len(),
                    joined.len()
                ));
                merge(&mut components, &mut comp_of, ca, cb, joined);
            }
        }

        // Keep each component's rows and the query positions of its tables,
        // never the tables themselves.
        let components = live_components(&comp_of)
            .into_iter()
            .map(|c| {
                let rel = &components[c];
                let positions = rel
                    .tables()
                    .iter()
                    .map(|t| table_pos(q, t.name()))
                    .collect::<EngineResult<Vec<usize>>>()?;
                Ok((positions, rel.rows()))
            })
            .collect::<EngineResult<Vec<_>>>()?;
        Ok(Structural {
            components,
            receipt,
            plan,
        })
    }

    /// Level two of the base relation: reattaches `structural` (built by
    /// [`Executor::structural`] for `rq` over this catalog's tables, with
    /// these caps or with caps that keep every row) to the tables, adds its
    /// receipt to the work counters and its plan lines to
    /// [`Executor::last_plan`], and then applies what joins across it:
    ///
    /// * join predicates run as band joins at their cap width;
    /// * disconnected components fall back to a size-limited cross product.
    ///
    /// A component no band join or cross product touches keeps the level
    /// one's rows uncopied.
    pub fn refine(
        &mut self,
        structural: &Structural,
        rq: &ResolvedQuery,
        flex_caps: &[f64],
    ) -> EngineResult<Relation> {
        let q = &rq.query;
        self.stats += structural.receipt;
        self.last_plan.clone_from(&structural.plan);

        let cap_of = cap_of(rq, flex_caps);

        // --- the components, over the tables --------------------------------
        // A component sits at the lowest position among its tables: a merge
        // keeps the lower index, so that is where `structural` left it.
        let tables = q
            .tables
            .iter()
            .map(|name| self.catalog.table(name))
            .collect::<EngineResult<Vec<_>>>()?;
        let mut components: Vec<Relation> =
            vec![Relation::from_rows(Vec::new(), Vec::new()); tables.len()];
        let mut comp_of: Vec<usize> = (0..tables.len()).collect();
        for (positions, rows) in &structural.components {
            let at = positions.iter().copied().min().unwrap_or_default();
            for &p in positions {
                comp_of[p] = at;
            }
            let over = positions.iter().map(|&p| Arc::clone(&tables[p])).collect();
            components[at] = Relation::with_rows(over, rows.clone());
        }

        // --- join predicates as band joins at cap width ---------------------
        for (i, pred) in q.predicates.iter().enumerate() {
            let Some(((lname, lcol, lscale, loff), (rname, rcol, rscale, roff))) = rq.join_parts(i)
            else {
                continue;
            };
            let cap = if pred.refinable { cap_of[i] } else { 0.0 };
            let width = if cap.is_finite() {
                pred.refined_interval(cap).hi()
            } else {
                match pred.max_useful_score() {
                    Some(s) => pred.refined_interval(s).hi(),
                    None => f64::INFINITY,
                }
            };
            let (lt, rt) = (table_pos(q, lname)?, table_pos(q, rname)?);
            let (ca, cb) = (comp_of[lt], comp_of[rt]);
            if ca == cb {
                let rel = &components[ca];
                let (lp, rp) = (rel_pos(rel, lname)?, rel_pos(rel, rname)?);
                self.stats.tuples_scanned += rel.len() as u64;
                components[ca] = rel.filter(|row| {
                    match (rel.get_f64(row, lp, lcol), rel.get_f64(row, rp, rcol)) {
                        (Some(l), Some(r)) => {
                            ((lscale * l + loff) - (rscale * r + roff)).abs() <= width
                        }
                        _ => false,
                    }
                });
            } else if width.is_finite() {
                let (lrel, rrel) = (&components[ca], &components[cb]);
                let (lp, rp) = (rel_pos(lrel, lname)?, rel_pos(rrel, rname)?);
                let joined = band_join(
                    lrel,
                    (lp, lcol),
                    (lscale, loff),
                    rrel,
                    (rp, rcol),
                    (rscale, roff),
                    width,
                    &mut self.stats,
                );
                self.last_plan.push(format!(
                    "band join |{lname}.{} - {rname}.{}| <= {width}: {} x {} -> {} rows",
                    self.col_name(lname, lcol)?,
                    self.col_name(rname, rcol)?,
                    lrel.len(),
                    rrel.len(),
                    joined.len()
                ));
                merge(&mut components, &mut comp_of, ca, cb, joined);
            } else {
                // Unbounded band: fall through to the cross-product stage,
                // which enforces the size limit.
            }
        }

        // --- cross products for anything still disconnected -----------------
        let mut live = live_components(&comp_of);
        while live.len() > 1 {
            let (a, b) = (live[0], live[1]);
            let (ra, rb) = (&components[a], &components[b]);
            let est = ra.len() as u64 * rb.len() as u64;
            if est > self.cross_product_limit {
                return Err(EngineError::CrossProductTooLarge {
                    estimated: est,
                    limit: self.cross_product_limit,
                });
            }
            self.stats.tuples_scanned += (ra.len() + rb.len()) as u64;
            self.stats.rows_joined += est;
            let mut pairs = Vec::with_capacity(est as usize);
            for i in 0..ra.len() {
                for j in 0..rb.len() {
                    pairs.push((i as u32, j as u32));
                }
            }
            let joined = Relation::zip_join(ra, rb, &pairs);
            self.last_plan.push(format!(
                "cross product (no connecting predicate): {} x {} -> {} rows",
                ra.len(),
                rb.len(),
                joined.len()
            ));
            merge(&mut components, &mut comp_of, a, b, joined);
            live = live_components(&comp_of);
        }

        Ok(components.swap_remove(live[0]))
    }

    /// The name of column `col` of table `table`.
    fn col_name(&self, table: &str, col: usize) -> EngineResult<String> {
        Ok(self.catalog.table(table)?.schema().fields()[col]
            .name
            .clone())
    }

    /// Executes a **cell query** (§5.1.1): aggregates the tuples of `rel`
    /// whose refinement-score vector lies in `cell` (one range per flexible
    /// predicate). One filter-and-fold over every tuple of `rel`.
    pub fn cell_aggregate(
        &mut self,
        rq: &ResolvedQuery,
        rel: &Relation,
        cell: &[CellRange],
    ) -> EngineResult<AggState> {
        self.stats.cell_queries += 1;
        let (state, tuples) = self.cell_aggregate_shared(rq, rel, cell)?;
        self.stats.tuples_scanned += tuples;
        Ok(state)
    }

    /// Shared-state variant of [`Executor::cell_aggregate`] for concurrent
    /// cell evaluation: takes `&self`, touches no work counters, and returns
    /// the tuples it scanned so the caller can commit the work later in a
    /// deterministic (serial emission) order. The scan is the one behind
    /// [`Executor::cell_aggregate`], so the returned state is bit-identical.
    pub fn cell_aggregate_shared(
        &self,
        rq: &ResolvedQuery,
        rel: &Relation,
        cell: &[CellRange],
    ) -> EngineResult<(AggState, u64)> {
        assert_eq!(cell.len(), rq.dims(), "one range per flexible predicate");
        let mut state = AggState::empty(&rq.query.constraint.spec, &self.uda)?;
        let bound = rq.bind(rel)?;
        let mut scores = vec![0.0; rq.dims()];
        for row in 0..rel.len() {
            if !bound.score_into(rel, row, &mut scores) {
                continue;
            }
            if scores.iter().zip(cell).all(|(s, r)| r.contains(*s)) {
                state.update(bound.agg_value(rel, row));
            }
        }
        Ok((state, rel.len() as u64))
    }

    /// Executes a **full refined query**: aggregates the tuples admitted
    /// when each flexible predicate `k` is refined by `bounds[k]` percent.
    /// This is what the baseline techniques do for every candidate query.
    pub fn full_aggregate(
        &mut self,
        rq: &ResolvedQuery,
        rel: &Relation,
        bounds: &[f64],
    ) -> EngineResult<AggState> {
        assert_eq!(bounds.len(), rq.dims(), "one bound per flexible predicate");
        self.stats.full_queries += 1;
        self.stats.tuples_scanned += rel.len() as u64;
        let bound = rq.bind(rel)?;
        let mut state = AggState::empty(&rq.query.constraint.spec, &self.uda)?;
        let mut scores = vec![0.0; rq.dims()];
        for row in 0..rel.len() {
            if !bound.score_into(rel, row, &mut scores) {
                continue;
            }
            if scores.iter().zip(bounds).all(|(s, b)| s <= b) {
                state.update(bound.agg_value(rel, row));
            }
        }
        Ok(state)
    }

    /// The aggregate of the *original* (unrefined) query — `A_actual` of the
    /// input, step 1 of the system architecture (Fig. 2).
    pub fn original_aggregate(
        &mut self,
        rq: &ResolvedQuery,
        rel: &Relation,
    ) -> EngineResult<AggState> {
        let zeros = vec![0.0; rq.dims()];
        self.full_aggregate(rq, rel, &zeros)
    }
}

/// Level one of a query's base relation (see [`Executor::structural`]):
/// its tables scanned with their table-local predicates and connected by
/// its NOREFINE equi-joins. It holds row ids and never a
/// table, so keeping one does not keep a replaced table's columns alive;
/// [`Executor::refine`] reattaches the rows to the catalog's tables.
#[derive(Debug, Clone)]
pub struct Structural {
    /// The connected components: the positions, in the query's table list,
    /// of the tables each spans, in its relation's table order, and its rows.
    components: Vec<(Vec<usize>, RowIds)>,
    /// The work the build cost, which [`Executor::refine`] adds to its
    /// executor's counters however many times the product is refined.
    receipt: ExecStats,
    /// The build's lines of [`Executor::last_plan`].
    plan: Vec<String>,
}

impl Structural {
    /// Heap bytes held: the row ids and the plan lines.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let rows: usize = self
            .components
            .iter()
            .map(|(positions, rows)| positions.capacity() * size_of::<usize>() + rows.bytes())
            .sum();
        rows + self.plan.iter().map(String::capacity).sum::<usize>()
    }
}

/// The predicates local to table `name`: flexible ones if `flexible`, else
/// the NOREFINE ones. Join predicates are never table-local.
fn local_predicates(rq: &ResolvedQuery, name: &str, flexible: bool) -> Vec<usize> {
    (0..rq.query.predicates.len())
        .filter(|&i| {
            let pred = &rq.query.predicates[i];
            let tabs = rq.source_tables(i);
            pred.refinable == flexible && !pred.is_join() && tabs.len() == 1 && tabs[0] == name
        })
        .collect()
}

/// Each predicate's cap, by predicate index: its entry of `flex_caps` if
/// it is flexible, else infinite.
fn cap_of(rq: &ResolvedQuery, flex_caps: &[f64]) -> Vec<f64> {
    assert_eq!(flex_caps.len(), rq.dims(), "one cap per flexible predicate");
    let mut cap_of = vec![f64::INFINITY; rq.query.predicates.len()];
    for (k, &i) in rq.flex().iter().enumerate() {
        cap_of[i] = flex_caps[k];
    }
    cap_of
}

/// Whether table-local predicate `i` keeps `row` of `table` within its cap
/// (inclusive: a boundary tuple belongs to the top cell).
fn within(rq: &ResolvedQuery, cap_of: &[f64], i: usize, table: &Table, row: usize) -> bool {
    let s = rq.score_local(i, table, row);
    s.is_finite() && s <= cap_of[i]
}

/// The position of table `name` in the query's table list.
fn table_pos(q: &AcqQuery, name: &str) -> EngineResult<usize> {
    q.tables
        .iter()
        .position(|t| t == name)
        .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
}

/// Union-find-lite: the component at `min(a, b)` becomes `joined`, the other
/// is emptied, and every table of either now maps to the first.
fn merge(components: &mut [Relation], comp_of: &mut [usize], a: usize, b: usize, joined: Relation) {
    let (keep, drop) = (a.min(b), a.max(b));
    components[keep] = joined;
    components[drop] = Relation::from_rows(Vec::new(), Vec::new());
    for c in comp_of.iter_mut() {
        if *c == drop {
            *c = keep;
        }
    }
}

/// The distinct components of `comp_of`, in order of first appearance.
fn live_components(comp_of: &[usize]) -> Vec<usize> {
    let mut seen = Vec::new();
    for &c in comp_of {
        if !seen.contains(&c) {
            seen.push(c);
        }
    }
    seen
}

fn rel_pos(rel: &Relation, name: &str) -> EngineResult<usize> {
    rel.tables()
        .iter()
        .position(|t| t.name() == name)
        .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
}

// The parallel Explore phase shares the executor, its base relation and the
// resolved query across worker threads; keep these types `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executor>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Structural>();
    assert_send_sync::<ResolvedQuery>();
    assert_send_sync::<AggState>();
    assert_send_sync::<CellRange>();
    assert_send_sync::<EngineError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};
    use acq_query::{AggConstraint, AggregateSpec, CmpOp, ColRef, Predicate, RefineSide};

    fn single_table_catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        )
        .unwrap();
        // y values: 10, 20, ..., 100
        for i in 1..=10 {
            b.push_row(vec![Value::Float(i as f64), Value::Float(i as f64 * 10.0)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn count_query() -> AcqQuery {
        AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 30.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap()
    }

    #[test]
    fn original_aggregate_counts_satisfying_tuples() {
        let mut ex = Executor::new(single_table_catalog());
        let rq = ex.resolve(&count_query()).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        let a = ex.original_aggregate(&rq, &rel).unwrap();
        assert_eq!(a.value(), Some(3.0)); // y in {10,20,30}
    }

    #[test]
    fn full_aggregate_expands_with_bounds() {
        let mut ex = Executor::new(single_table_catalog());
        let rq = ex.resolve(&count_query()).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        // Refining [0,30] by 100% gives [0,60]: y in {10..60} -> 6 tuples.
        let a = ex.full_aggregate(&rq, &rel, &[100.0]).unwrap();
        assert_eq!(a.value(), Some(6.0));
    }

    #[test]
    fn cell_aggregate_partitions_the_data() {
        let mut ex = Executor::new(single_table_catalog());
        let rq = ex.resolve(&count_query()).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        // Cells of step 100% partition scores {0} U (0,100] U (100,200]...
        let zero = ex.cell_aggregate(&rq, &rel, &[CellRange::Zero]).unwrap();
        assert_eq!(zero.value(), Some(3.0));
        let c1 = ex
            .cell_aggregate(&rq, &rel, &[CellRange::Open { lo: 0.0, hi: 100.0 }])
            .unwrap();
        assert_eq!(c1.value(), Some(3.0)); // y in {40,50,60}: scores 33..100
        let c2 = ex
            .cell_aggregate(
                &rq,
                &rel,
                &[CellRange::Open {
                    lo: 100.0,
                    hi: 200.0,
                }],
            )
            .unwrap();
        assert_eq!(c2.value(), Some(3.0)); // y in {70,80,90}
    }

    #[test]
    fn base_relation_prefilters_by_cap() {
        let mut ex = Executor::new(single_table_catalog());
        let rq = ex.resolve(&count_query()).unwrap();
        // Cap 100%: scores > 100 (y > 60) are excluded from the universe.
        let rel = ex.base_relation(&rq, &[100.0]).unwrap();
        assert_eq!(rel.len(), 6);
        // Boundary tuple (y=60, score exactly 100) is kept.
        let a = ex.full_aggregate(&rq, &rel, &[100.0]).unwrap();
        assert_eq!(a.value(), Some(6.0));
    }

    #[test]
    fn base_relation_prefilters_norefine() {
        let mut ex = Executor::new(single_table_catalog());
        let mut q = count_query();
        q.predicates.push(
            Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 4.0),
                RefineSide::Upper,
            )
            .no_refine(),
        );
        let rq = ex.resolve(&q).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        assert_eq!(rel.len(), 4); // x <= 4
    }

    fn two_table_catalog() -> Catalog {
        let mut a = TableBuilder::new(
            "a",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Float),
            ],
        )
        .unwrap();
        for i in 0..5 {
            a.push_row(vec![Value::Int(i), Value::Float(i as f64)]);
        }
        let mut b = TableBuilder::new(
            "b",
            vec![
                Field::new("k", DataType::Int),
                Field::new("w", DataType::Float),
            ],
        )
        .unwrap();
        for i in 0..5 {
            b.push_row(vec![Value::Int(i * 2), Value::Float(10.0 * i as f64)]);
        }
        let mut c = Catalog::new();
        c.register(a.finish().unwrap()).unwrap();
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    #[test]
    fn structural_join_materialises_matches() {
        let mut ex = Executor::new(two_table_catalog());
        let q = AcqQuery::builder()
            .table("a")
            .table("b")
            .join(ColRef::new("a", "k"), ColRef::new("b", "k"))
            .predicate(Predicate::select(
                ColRef::new("b", "w"),
                Interval::new(0.0, 100.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 2.0))
            .build()
            .unwrap();
        let rq = ex.resolve(&q).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        // a.k in {0..4}, b.k in {0,2,4,6,8}: matches k in {0,2,4}.
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn refinable_join_band_is_capped() {
        let mut ex = Executor::new(two_table_catalog());
        let q = AcqQuery::builder()
            .table("a")
            .table("b")
            .predicate(Predicate::equi_join(
                ColRef::new("a", "k"),
                ColRef::new("b", "k"),
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap();
        let rq = ex.resolve(&q).unwrap();
        // Cap = 1 percent == band width 1 for equi-joins.
        let rel = ex.base_relation(&rq, &[1.0]).unwrap();
        // |a.k - b.k| <= 1 pairs: a0-b0, a1-b0, a1-b2(=2)? |1-2|=1 yes...
        let mut expected = 0;
        for ak in 0..5i64 {
            for bk in [0i64, 2, 4, 6, 8] {
                if (ak - bk).abs() <= 1 {
                    expected += 1;
                }
            }
        }
        assert_eq!(rel.len(), expected);
    }

    #[test]
    fn cross_product_limit_enforced() {
        let mut ex = Executor::new(two_table_catalog()).with_cross_product_limit(10);
        let q = AcqQuery::builder()
            .table("a")
            .table("b")
            .predicate(Predicate::select(
                ColRef::new("a", "v"),
                Interval::new(0.0, 100.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 2.0))
            .build()
            .unwrap();
        let rq = ex.resolve(&q).unwrap();
        let err = ex.base_relation(&rq, &[f64::INFINITY]).unwrap_err();
        assert!(matches!(err, EngineError::CrossProductTooLarge { .. }));
    }

    #[test]
    fn sum_aggregate_over_cells() {
        let mut ex = Executor::new(single_table_catalog());
        let mut q = count_query();
        q.constraint =
            AggConstraint::new(AggregateSpec::sum(ColRef::new("t", "x")), CmpOp::Ge, 10.0);
        let rq = ex.resolve(&q).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        let zero = ex.cell_aggregate(&rq, &rel, &[CellRange::Zero]).unwrap();
        assert_eq!(zero.value(), Some(1.0 + 2.0 + 3.0));
    }

    #[test]
    fn last_plan_describes_materialisation() {
        let mut ex = Executor::new(two_table_catalog());
        let q = AcqQuery::builder()
            .table("a")
            .table("b")
            .join(ColRef::new("a", "k"), ColRef::new("b", "k"))
            .predicate(Predicate::select(
                ColRef::new("b", "w"),
                Interval::new(0.0, 100.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 2.0))
            .build()
            .unwrap();
        let rq = ex.resolve(&q).unwrap();
        let _ = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        let plan = ex.last_plan().join("\n");
        assert!(plan.contains("scan a:"), "{plan}");
        assert!(plan.contains("scan b:"), "{plan}");
        assert!(plan.contains("hash join on a.k = b.k"), "{plan}");
    }

    /// The caps check row by row, through `within`: every row of every
    /// table within the cap of every flexible table-local predicate that
    /// reads it.
    fn caps_keep_every_row_by_rows(ex: &Executor, rq: &ResolvedQuery, caps: &[f64]) -> bool {
        let cap_of = cap_of(rq, caps);
        rq.query.tables.iter().all(|name| {
            let table = ex.catalog().table(name).unwrap();
            let local = local_predicates(rq, name, true);
            (0..table.num_rows())
                .all(|row| local.iter().all(|&i| within(rq, &cap_of, i, &table, row)))
        })
    }

    /// Table `a` has a Float `x` (NaN now and then), an Int `i` and a Str
    /// `s`; table `b` has a Float `y` no flexible predicate reads, NaN
    /// included. Returns the executor and a query with flexible predicates
    /// on `a.x`, `a.i`, numeric on the Str `a.s` when `on_str`, and
    /// categorical on `a.s`.
    fn caps_case(rows: &[(f64, i64, &str)], on_str: bool) -> (Executor, AcqQuery) {
        let fields = vec![
            Field::new("x", DataType::Float),
            Field::new("i", DataType::Int),
            Field::new("s", DataType::Str),
        ];
        let mut a = TableBuilder::new("a", fields).unwrap();
        for &(x, i, s) in rows {
            a.push_row(vec![Value::Float(x), Value::Int(i), Value::Str(s.into())]);
        }
        let mut b = TableBuilder::new("b", vec![Field::new("y", DataType::Float)]).unwrap();
        for y in [f64::NAN, 1e9, -3.0] {
            b.push_row(vec![Value::Float(y)]);
        }
        let mut cat = Catalog::new();
        cat.register(a.finish().unwrap()).unwrap();
        cat.register(b.finish().unwrap()).unwrap();
        let cuisine = Arc::new(acq_query::OntologyTree::sample_cuisine());
        let mut q = AcqQuery::builder()
            .table("a")
            .table("b")
            .predicate(Predicate::select(
                ColRef::new("a", "x"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("a", "i"),
                Interval::new(20.0, 40.0),
                RefineSide::Lower,
            ))
            .predicate(Predicate::categorical(
                ColRef::new("a", "s"),
                cuisine,
                vec!["Gyro".into()],
            ))
            .predicate(
                Predicate::select(
                    ColRef::new("b", "y"),
                    Interval::new(0.0, 1.0),
                    RefineSide::Upper,
                )
                .no_refine(),
            );
        if on_str {
            q = q.predicate(Predicate::select(
                ColRef::new("a", "s"),
                Interval::new(0.0, 1.0),
                RefineSide::Upper,
            ));
        }
        let q = q
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Ge, 1.0))
            .build()
            .unwrap();
        (Executor::new(cat), q)
    }

    /// Every score the flexible predicates of `rq` give table `a`'s rows, by
    /// dimension.
    fn dimension_scores(ex: &Executor, rq: &ResolvedQuery) -> Vec<Vec<f64>> {
        let a = ex.catalog().table("a").unwrap();
        rq.flex()
            .iter()
            .map(|&i| {
                (0..a.num_rows())
                    .map(|row| rq.score_local(i, &a, row))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn caps_keep_every_row_reads_the_columns_as_the_rows_did() {
        let rows = [
            (4.0, 30, "Gyro"),
            (12.5, 18, "Falafel"),
            (10.0, 25, "Sushi"),
        ];
        let (ex, q) = caps_case(&rows, false);
        let rq = ex.resolve(&q).unwrap();
        let columns = ex.table_scores(&rq).unwrap();
        let scores = dimension_scores(&ex, &rq);
        // A cap equal to the greatest score keeps its row; one ulp below
        // drops it. Table `b`'s NaN is read by no flexible predicate.
        let tops: Vec<f64> = scores
            .iter()
            .map(|s| s.iter().copied().fold(0.0, f64::max))
            .collect();
        assert!(columns.caps_keep_every_row(&rq, &tops));
        assert!(caps_keep_every_row_by_rows(&ex, &rq, &tops));
        for k in 0..tops.len() {
            let mut cut = tops.clone();
            cut[k] = cut[k].next_down();
            assert!(!columns.caps_keep_every_row(&rq, &cut), "dimension {k}");
            assert!(!caps_keep_every_row_by_rows(&ex, &rq, &cut));
        }
        // A NaN in a numeric predicate's column, or a numeric predicate
        // over a Str column, scores +inf, which no cap keeps.
        let wide = vec![f64::INFINITY; rq.dims()];
        let (ex, q) = caps_case(&[(4.0, 30, "Gyro"), (f64::NAN, 30, "Gyro")], false);
        let rq = ex.resolve(&q).unwrap();
        assert!(!ex
            .table_scores(&rq)
            .unwrap()
            .caps_keep_every_row(&rq, &wide));
        assert!(!caps_keep_every_row_by_rows(&ex, &rq, &wide));
        let (ex, q) = caps_case(&[(4.0, 30, "Gyro")], true);
        let rq = ex.resolve(&q).unwrap();
        let wide = vec![f64::INFINITY; rq.dims()];
        assert!(!ex
            .table_scores(&rq)
            .unwrap()
            .caps_keep_every_row(&rq, &wide));
        assert!(!caps_keep_every_row_by_rows(&ex, &rq, &wide));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// On random tables and caps — a cap at a row's score, one ulp
        /// either side of it, unbounded, or anywhere — the caps check read
        /// from the per-table columns answers what the row-by-row check
        /// answered.
        #[test]
        fn caps_keep_every_row_agrees_with_the_row_by_row_check(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..24),
            on_str in proptest::prelude::any::<bool>(),
            cap_picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 5),
        ) {
            const LEAVES: [&str; 6] = ["Gyro", "Falafel", "Shawarma", "Sushi", "PadThai", "Pizza"];
            let rows: Vec<(f64, i64, &str)> = picks
                .iter()
                .map(|&p| {
                    let x = match p % 8 {
                        0 => f64::NAN,
                        _ => ((p >> 3) % 160) as f64 / 8.0,
                    };
                    (x, ((p >> 11) % 50) as i64, LEAVES[((p >> 17) % 6) as usize])
                })
                .collect();
            let (ex, q) = caps_case(&rows, on_str);
            let rq = ex.resolve(&q).unwrap();
            let scores = dimension_scores(&ex, &rq);
            let caps: Vec<f64> = scores
                .iter()
                .zip(&cap_picks)
                .map(|(s, &p)| {
                    let at = s.get((p >> 3) as usize % s.len().max(1)).copied().unwrap_or(0.0);
                    let at = if at.is_finite() { at } else { 50.0 };
                    match p % 5 {
                        0 => at,
                        1 => at.next_up(),
                        2 => at.next_down(),
                        3 => f64::INFINITY,
                        _ => ((p >> 20) % 200) as f64,
                    }
                })
                .collect();
            let columns = ex.table_scores(&rq).unwrap();
            proptest::prop_assert_eq!(
                columns.caps_keep_every_row(&rq, &caps),
                caps_keep_every_row_by_rows(&ex, &rq, &caps)
            );
        }
    }

    #[test]
    fn stats_count_work() {
        let mut ex = Executor::new(single_table_catalog());
        let rq = ex.resolve(&count_query()).unwrap();
        let rel = ex.base_relation(&rq, &[f64::INFINITY]).unwrap();
        ex.reset_stats();
        let _ = ex.cell_aggregate(&rq, &rel, &[CellRange::Zero]).unwrap();
        let _ = ex.full_aggregate(&rq, &rel, &[0.0]).unwrap();
        let s = ex.stats();
        assert_eq!(s.cell_queries, 1);
        assert_eq!(s.full_queries, 1);
        assert_eq!(s.tuples_scanned, 2 * rel.len() as u64);
    }
}
