//! Ablation (§3 / §7.4): the two evaluation layers under the same search.
//!
//! `Scan` re-executes each cell query against the engine (Postgres-style);
//! `CachedScore` scores tuples once and folds every occupied grid cell
//! once, skipping empty cells without execution — the §7.4 index idea. The
//! gap between them quantifies how much of ACQUIRE's speed comes from the
//! algorithm versus the backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_bench::{count_workload, run_technique, Technique, WorkloadSpec};
use acq_engine::{sample_catalog_tables, scale_target_for_sample, Executor};
use acquire_core::{acquire, AcquireConfig, EvalLayerKind, HistogramEstimator, RefinedSpace};

fn bench_eval_layers(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("ablation_eval_layers");
    group.sample_size(10);
    let w = count_workload(&WorkloadSpec::new(5_000, 3, 0.5));
    for kind in [EvalLayerKind::Scan, EvalLayerKind::CachedScore] {
        group.bench_with_input(
            BenchmarkId::new("ACQUIRE", format!("{kind:?}")),
            &w,
            |b, w| {
                b.iter(|| run_technique(w, &Technique::Acquire(kind), &cfg).expect("runs"));
            },
        );
    }
    group.finish();
}

/// The §3 approximate strategies under the same search: a 10% Bernoulli
/// sample (with a scaled target) and the AVI histogram estimator.
fn bench_approx_layers(c: &mut Criterion) {
    let cfg = AcquireConfig::default();
    let mut group = c.benchmark_group("ablation_approx_layers");
    group.sample_size(10);
    let w = count_workload(&WorkloadSpec::new(20_000, 3, 0.5));

    group.bench_function("exact_cached", |b| {
        b.iter(|| {
            run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg).expect("runs")
        });
    });

    group.bench_function("bernoulli_sample_10pct", |b| {
        b.iter(|| {
            let (sampled, rate) =
                sample_catalog_tables(&w.catalog, &["lineitem"], 0.1, 7).expect("sample");
            let q = scale_target_for_sample(&w.query, rate);
            let mut exec = Executor::new(sampled);
            acquire_core::run_acquire(&mut exec, &q, &cfg, EvalLayerKind::CachedScore)
                .expect("runs")
        });
    });

    group.bench_function("histogram_estimator", |b| {
        b.iter(|| {
            let mut q = w.query.clone();
            let mut exec = Executor::new(w.catalog.clone());
            exec.populate_domains(&mut q).expect("domains");
            let space = RefinedSpace::new(&q, &cfg).expect("space");
            let caps = space.caps();
            let mut est = HistogramEstimator::new(&mut exec, &q, &caps, space.step()).expect("est");
            acquire(&mut est, &q, &cfg).expect("runs")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_eval_layers, bench_approx_layers);
criterion_main!(benches);
