//! Criterion bench for Figure 10: (a) ACQUIRE versus table size, (b) versus
//! the refinement threshold γ, (c) versus the cardinality threshold δ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use acq_bench::{count_workload, run_technique, Technique, WorkloadSpec};
use acquire_core::{AcquireConfig, EvalLayerKind};

fn bench_table_size(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("fig10a_time_vs_table_size");
    group.sample_size(10);
    for rows in [1_000usize, 10_000, 50_000] {
        let w = count_workload(&WorkloadSpec::new(rows, 3, 0.3));
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("ACQUIRE", rows), &w, |b, w| {
            b.iter(|| {
                run_technique(w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg)
                    .expect("acquire runs")
            });
        });
    }
    group.finish();
}

fn bench_gamma(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10b_time_vs_gamma");
    group.sample_size(10);
    let w = count_workload(&WorkloadSpec::new(20_000, 3, 0.3));
    for gamma in [2.0f64, 6.0, 12.0] {
        let cfg = AcquireConfig::default().with_gamma(gamma);
        group.bench_with_input(
            BenchmarkId::new("ACQUIRE", format!("gamma={gamma}")),
            &w,
            |b, w| {
                b.iter(|| {
                    run_technique(w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg)
                        .expect("acquire runs")
                });
            },
        );
    }
    group.finish();
}

fn bench_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10c_time_vs_delta");
    group.sample_size(10);
    let w = count_workload(&WorkloadSpec::new(20_000, 3, 0.3));
    for delta in [0.0001f64, 0.01, 0.1] {
        let cfg = AcquireConfig::default().with_delta(delta);
        group.bench_with_input(
            BenchmarkId::new("ACQUIRE", format!("delta={delta}")),
            &w,
            |b, w| {
                b.iter(|| {
                    run_technique(w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg)
                        .expect("acquire runs")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table_size, bench_gamma, bench_delta);
criterion_main!(benches);
