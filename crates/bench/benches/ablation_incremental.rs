//! Ablation (§5): incremental aggregate computation versus naive full
//! re-execution of every grid query.
//!
//! This isolates the paper's central algorithmic idea: with the recurrence
//! of Eq. 17 each grid query costs one *cell* query plus `d` merges, whereas
//! the naive strategy re-executes the whole refined query per grid point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acq_bench::{count_workload, WorkloadSpec};
use acq_engine::Executor;
use acquire_core::expand::{BfsExpander, Expander};
use acquire_core::explore::Explorer;
use acquire_core::{AcquireConfig, CachedScoreEvaluator, EvaluationLayer, RefinedSpace};

const LAYER_BUDGET: u64 = 10;

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_incremental_vs_naive");
    group.sample_size(10);
    for dims in [2usize, 3] {
        let w = count_workload(&WorkloadSpec::new(10_000, dims, 0.3));
        let cfg = AcquireConfig::default();

        group.bench_with_input(BenchmarkId::new("incremental", dims), &w, |b, w| {
            b.iter(|| {
                let mut query = w.query.clone();
                let mut exec = Executor::new(w.catalog.clone());
                exec.populate_domains(&mut query).unwrap();
                let space = RefinedSpace::new(&query, &cfg).unwrap();
                let caps = space.caps();
                let mut eval = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
                let mut expander = BfsExpander::new(&space);
                let mut explorer = Explorer::new(space.dims(), expander.emission());
                let mut total = 0.0;
                while let Some(p) = expander.next_query() {
                    let layer = RefinedSpace::l1_layer(p);
                    if layer > LAYER_BUDGET {
                        break;
                    }
                    explorer.begin_layer(layer);
                    total += explorer
                        .compute_aggregate(&mut eval, &space, p)
                        .unwrap()
                        .value()
                        .unwrap_or(0.0);
                }
                total
            });
        });

        group.bench_with_input(BenchmarkId::new("naive_full_requery", dims), &w, |b, w| {
            b.iter(|| {
                let mut query = w.query.clone();
                let mut exec = Executor::new(w.catalog.clone());
                exec.populate_domains(&mut query).unwrap();
                let space = RefinedSpace::new(&query, &cfg).unwrap();
                let caps = space.caps();
                let mut eval = CachedScoreEvaluator::new(&mut exec, &query, &caps).unwrap();
                let mut expander = BfsExpander::new(&space);
                let mut total = 0.0;
                while let Some(p) = expander.next_query() {
                    if RefinedSpace::l1_layer(p) > LAYER_BUDGET {
                        break;
                    }
                    total += eval
                        .full_aggregate(&space.bounds(p))
                        .unwrap()
                        .value()
                        .unwrap_or(0.0);
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
