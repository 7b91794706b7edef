//! The scan layer's cost model, checked against the relation itself: every
//! cell query is one filter-and-fold over the whole base relation, so it
//! reads `|R|` tuples whatever the cell and whatever order the rows are in.

use acq_engine::{
    AggState, Catalog, CellRange, DataType, EngineResult, ExecStats, Executor, Field, TableBuilder,
    Value,
};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};
use acquire_core::{
    acquire_progress, AcquireConfig, CancellationToken, EvaluationLayer, Obs, RefinedSpace,
    ScanEvaluator,
};

const ROWS: u32 = 5_000;

/// `t.y = 0, 1, …, 4999` in row order: every block of rows holds a narrow
/// band of values, the layout a block-pruning scan would skip most of.
fn sorted_catalog() -> Catalog {
    let mut b = TableBuilder::new("t", vec![Field::new("y", DataType::Float)]).unwrap();
    for i in 0..ROWS {
        b.push_row(vec![Value::Float(f64::from(i))]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

/// The scan layer, asserting on every cell query that it read exactly
/// `relation` tuples.
struct EveryCellScansAll<'a> {
    inner: ScanEvaluator<'a>,
    relation: u64,
}

impl EvaluationLayer for EveryCellScansAll<'_> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let before = self.inner.stats().tuples_scanned;
        let state = self.inner.cell_aggregate(cell)?;
        let read = self.inner.stats().tuples_scanned - before;
        assert_eq!(read, self.relation, "cell {cell:?}");
        Ok(state)
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        self.inner.full_aggregate(bounds)
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.inner.empty_state()
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }
}

#[test]
fn every_scan_cell_reads_the_whole_base_relation() {
    let mut exec = Executor::new(sorted_catalog());
    let mut query = AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(0.0, 100.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Eq,
            1_234.0,
        ))
        .build()
        .unwrap();
    exec.populate_domains(&mut query).unwrap();
    let cfg = AcquireConfig::default().with_delta(0.001);
    let caps = RefinedSpace::new(&query, &cfg).unwrap().caps();

    // |R| from the rows themselves: those whose score is within the cap.
    let pred = &query.predicates[0];
    let relation = (0..ROWS)
        .filter(|&y| pred.score_value(f64::from(y)) <= caps[0])
        .count() as u64;
    assert!(relation > 1_234, "{relation}");

    let inner = ScanEvaluator::new(&mut exec, &query, &caps).unwrap();
    // Materialising R reads the one table once.
    assert_eq!(inner.stats().tuples_scanned, u64::from(ROWS));
    let mut layer = EveryCellScansAll { inner, relation };
    let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
    let out = acquire_progress(&mut layer, &query, &cfg, &cancel, &obs, None).unwrap();

    let s = out.stats;
    assert!(
        out.satisfied && s.cell_queries > 8 && s.full_queries > 0,
        "{s}"
    );
    assert_eq!(
        s.tuples_scanned,
        u64::from(ROWS) + (s.cell_queries + s.full_queries) * relation,
        "{s}"
    );
}
