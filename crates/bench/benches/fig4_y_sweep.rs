//! Fig 4 bench target: "the timing requirements for the SE algorithm
//! increase as Y increases" (§5.2). Measures the cost of a fixed number
//! of SE iterations at Y = 5, 9, 12 on the large workload — the paper's
//! sweep points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mshc_core::{SeConfig, SeScheduler};
use mshc_schedule::{RunBudget, Scheduler};
use mshc_workloads::{FigureWorkload, Heterogeneity};
use std::hint::black_box;

fn bench_y_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_y_sweep");
    for (label, figure) in [("lowH", FigureWorkload::Fig4Low), ("highH", FigureWorkload::Fig4High)]
    {
        let inst = figure.spec(2001).generate();
        for &y in &[5usize, 9, 12] {
            group.bench_with_input(BenchmarkId::new(label, y), &y, |b, &y| {
                b.iter(|| {
                    let mut se = SeScheduler::new(SeConfig {
                        seed: 3,
                        selection_bias: 0.05,
                        y_limit: Some(y),
                    });
                    black_box(se.run(&inst, &RunBudget::iterations(3), None).makespan)
                })
            });
        }
        let _ = Heterogeneity::Low; // documents the axis the group sweeps
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_y_sweep
}
criterion_main!(benches);
