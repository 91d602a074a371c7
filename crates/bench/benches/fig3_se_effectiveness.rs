//! Fig 3 bench target: the cost of SE iterations on the Fig-3 workload
//! (large size, high connectivity).

use criterion::{criterion_group, criterion_main, Criterion};
use mshc_core::{SeConfig, SeScheduler};
use mshc_schedule::{RunBudget, Scheduler};
use mshc_workloads::FigureWorkload;
use std::hint::black_box;

fn bench_se_iterations(c: &mut Criterion) {
    let inst = FigureWorkload::Fig3.spec(2001).generate();
    let mut group = c.benchmark_group("fig3_se");
    group.bench_function("5_iterations_incremental", |b| {
        b.iter(|| {
            let mut se =
                SeScheduler::new(SeConfig { seed: 1, selection_bias: 0.05, ..SeConfig::default() });
            black_box(se.run(&inst, &RunBudget::iterations(5), None).makespan)
        })
    });
    group.finish();
}

fn bench_goodness_precompute(c: &mut Criterion) {
    let inst = FigureWorkload::Fig3.spec(2001).generate();
    c.bench_function("fig3_se/optimal_costs_precompute", |b| {
        b.iter(|| black_box(mshc_core::optimal_costs(&inst)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_se_iterations, bench_goodness_precompute
}
criterion_main!(benches);
