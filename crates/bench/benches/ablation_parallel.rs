//! Ablation: the parallel Explore phase at 1/2/4/8 worker threads.
//!
//! All cell sub-queries of one Expand layer are independent (Theorem 2
//! orders layers, not cells), so the driver can prefetch a whole layer on a
//! work-stealing pool while keeping the Eq. 17 merges in serial emission
//! order — outcomes are bit-identical at every thread count, so this bench
//! measures pure scheduling overhead vs. scaling. It runs the cached-score
//! layer, whose cell table makes cells nearly free, so it mostly measures
//! pool overhead; the scan layer's per-cell cost is where parallelism
//! pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_bench::{count_workload, run_technique, Technique, WorkloadSpec};
use acquire_core::{AcquireConfig, EvalLayerKind};

fn bench_parallel_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);
    let w = count_workload(&WorkloadSpec::new(20_000, 3, 0.3));
    for threads in [1usize, 2, 4, 8] {
        let cfg = AcquireConfig::default().with_threads(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &w, |b, w| {
            b.iter(|| {
                run_technique(w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg)
                    .expect("runs")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_explore);
criterion_main!(benches);
