//! Criterion bench for Figure 8a: execution time of every technique as the
//! aggregate ratio varies (smaller data than `reproduce` so Criterion can
//! sample; the *relative* ordering is what the figure shows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_baselines::{BinSearchParams, TqGenParams};
use acq_bench::{count_workload, run_technique, Technique, WorkloadSpec};
use acquire_core::{AcquireConfig, EvalLayerKind};

fn bench_fig8(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("fig8_time_vs_ratio");
    group.sample_size(10);
    for ratio in [0.3, 0.7] {
        let w = count_workload(&WorkloadSpec::new(20_000, 3, ratio));
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
            group.bench_with_input(
                BenchmarkId::new(t.name(), format!("ratio={ratio}")),
                &w,
                |b, w| {
                    b.iter(|| run_technique(w, &t, &cfg).expect("technique runs"));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
