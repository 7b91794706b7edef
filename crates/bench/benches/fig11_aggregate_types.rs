//! Criterion bench for Figure 11: ACQUIRE across aggregate types
//! (SUM / COUNT / MAX over the Q2' join workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_bench::{q2_sum_workload, run_technique, Technique, WorkloadSpec};
use acq_query::AggFunc;
use acquire_core::{AcquireConfig, EvalLayerKind};

fn bench_fig11(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("fig11_aggregate_types");
    group.sample_size(10);
    for agg in [AggFunc::Sum, AggFunc::Count, AggFunc::Max] {
        let w = q2_sum_workload(&WorkloadSpec::new(10_000, 2, 0.5), agg.clone());
        group.bench_with_input(BenchmarkId::new("ACQUIRE", agg.to_string()), &w, |b, w| {
            b.iter(|| {
                run_technique(w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg)
                    .expect("acquire runs")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
