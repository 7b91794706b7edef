//! Engine micro-benchmarks: the substrate operations ACQUIRE is built on
//! (scans, hash joins, band joins, cell queries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use acq_datagen::{synthetic, GenConfig};
use acq_engine::{band_join, hash_equi_join, CellRange, ExecStats, Executor, Relation};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_joins");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let cat = synthetic::join_pair(&GenConfig::uniform(rows), rows, rows).unwrap();
        let left = Relation::table(cat.table("left").unwrap());
        let right = Relation::table(cat.table("right").unwrap());
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("hash_equi_join", rows), &rows, |b, _| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                hash_equi_join(&left, (0, 0), &right, (0, 0), &mut stats)
            });
        });
        group.bench_with_input(BenchmarkId::new("band_join_w1", rows), &rows, |b, _| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                band_join(
                    &left,
                    (0, 0),
                    (1.0, 0.0),
                    &right,
                    (0, 0),
                    (1.0, 0.0),
                    1.0,
                    &mut stats,
                )
            });
        });
    }
    group.finish();
}

fn bench_cell_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_cell_queries");
    group.sample_size(20);
    let rows = 50_000;
    let cat = synthetic::numeric_catalog(&GenConfig::uniform(rows), 3).unwrap();
    let query = AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "x0"),
            Interval::new(0.0, 300.0),
            RefineSide::Upper,
        ))
        .predicate(Predicate::select(
            ColRef::new("t", "x1"),
            Interval::new(0.0, 300.0),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(
            AggregateSpec::count(),
            CmpOp::Eq,
            1000.0,
        ))
        .build()
        .unwrap();
    let mut exec = Executor::new(cat);
    let mut q = query;
    exec.populate_domains(&mut q).unwrap();
    let rq = exec.resolve(&q).unwrap();
    let rel = exec.base_relation(&rq, &[200.0, 200.0]).unwrap();
    let cell = vec![
        CellRange::Open { lo: 5.0, hi: 10.0 },
        CellRange::Open { lo: 0.0, hi: 5.0 },
    ];
    group.throughput(Throughput::Elements(rel.len() as u64));
    group.bench_function("cell_aggregate_scan", |b| {
        b.iter(|| exec.cell_aggregate(&rq, &rel, &cell).unwrap());
    });
    group.bench_function("full_aggregate_scan", |b| {
        b.iter(|| exec.full_aggregate(&rq, &rel, &[10.0, 5.0]).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_joins, bench_cell_queries);
criterion_main!(benches);
