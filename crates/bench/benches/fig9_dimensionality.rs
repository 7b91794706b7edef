//! Criterion bench for Figure 9a: execution time versus the number of
//! flexible predicates. ACQUIRE grows roughly linearly with dimensionality
//! while TQGen grows exponentially (`levels^d` full queries per round).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_baselines::{BinSearchParams, TqGenParams};
use acq_bench::{count_workload, run_technique, Technique, WorkloadSpec};
use acquire_core::{AcquireConfig, EvalLayerKind};

fn bench_fig9(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("fig9_time_vs_dims");
    group.sample_size(10);
    for dims in 1..=4usize {
        let w = count_workload(&WorkloadSpec::new(10_000, dims, 0.3));
        let techniques = vec![
            Technique::Acquire(EvalLayerKind::CachedScore),
            Technique::TopK,
            Technique::TqGen(TqGenParams {
                levels_per_dim: 4,
                rounds: 2,
                max_queries: 50_000,
            }),
            Technique::BinSearch(BinSearchParams::default()),
        ];
        for t in techniques {
            group.bench_with_input(BenchmarkId::new(t.name(), dims), &w, |b, w| {
                b.iter(|| run_technique(w, &t, &cfg).expect("technique runs"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
