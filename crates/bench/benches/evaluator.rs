//! Substrate microbenchmark: schedule-evaluation throughput.
//!
//! Every figure's cost is dominated by schedule evaluations (the SE
//! allocation step performs |positions| × Y of them per selected task),
//! so this bench tracks the O(k + p) evaluator across instance sizes,
//! the cost of the DES replay cross-check, and — the headline for the
//! parallel refactor — batch candidate evaluation throughput: scalar
//! loop vs [`BatchEvaluator`] at 1 thread and at full parallelism.
//! `BENCH_eval.json` (the `bench_eval` binary) archives the same
//! comparison per commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mshc_platform::MachineId;
use mshc_schedule::{
    random_solution, replay, BatchEvaluator, EvalSnapshot, Evaluator, IncrementalEvaluator,
    ObjectiveKind,
};
use mshc_workloads::WorkloadSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator");
    for &tasks in &[25usize, 100, 400] {
        let spec = WorkloadSpec { tasks, ..WorkloadSpec::large(11) };
        let inst = spec.generate();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sol = random_solution(&inst, &mut rng);
        let mut eval = Evaluator::new(&inst);
        group.bench_with_input(BenchmarkId::new("analytic", tasks), &tasks, |b, _| {
            b.iter(|| black_box(eval.makespan(black_box(&sol))))
        });
        group.bench_with_input(BenchmarkId::new("des_replay", tasks), &tasks, |b, _| {
            b.iter(|| black_box(replay(&inst, black_box(&sol)).unwrap().makespan))
        });
    }
    group.finish();
}

/// Batch candidate evaluation, SE allocation-scan shape: the widest
/// single-task "base with task t moved" fan-out (several hundred
/// candidates) on the 100-task / 20-machine comparison scale, scored by
/// `score_task_moves` (tabu's scan) over the grid as `(t, pos, m)`
/// triples. The acceptance bar for the parallel refactor:
/// `batch/threads-N` (N ≥ 4 cores) ≥ 2x `scalar`.
fn bench_batch_candidates(c: &mut Criterion) {
    let spec = WorkloadSpec { tasks: 100, machines: 20, ..WorkloadSpec::large(2001) };
    let inst = spec.generate();
    let g = inst.graph();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let base = random_solution(&inst, &mut rng);
    // Same grid as the `bench_eval` binary, so criterion numbers and the
    // CI-archived BENCH_eval.json stay comparable.
    let (t, moves) = mshc_bench::probes::widest_move_grid(&inst, &base);
    let task_moves: Vec<_> = moves.iter().map(|&(pos, m)| (t, pos, m)).collect();
    let obj = ObjectiveKind::Makespan;
    let snapshot = EvalSnapshot::new(&inst);

    let mut group = c.benchmark_group("batch_candidates");
    group.bench_function(BenchmarkId::new("scalar", moves.len()), |b| {
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let mut scratch = base.clone();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(pos, m) in &moves {
                scratch.move_task(g, t, pos, m).expect("in-range");
                acc += eval.objective_value(black_box(&scratch), &obj);
            }
            black_box(acc)
        })
    });
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        let mut batch = BatchEvaluator::new(&snapshot);
        group.bench_function(BenchmarkId::new(format!("threads-{threads}"), moves.len()), |b| {
            pool.install(|| b.iter(|| black_box(batch.score_task_moves(&base, &task_moves, &obj))))
        });
    }
    group.finish();
}

/// Full-vs-incremental move scan, single thread, same candidate grid as
/// `batch_candidates` and `bench_eval` (the `BENCH_eval.json` series):
/// the `full` baseline pays move + O(k + p) pass per candidate, the
/// `incremental` entry pays one prime plus a checkpoint-resumed suffix
/// replay per candidate. Acceptance bar: incremental ≥ 2x `full` on the
/// 100-task preset.
fn bench_incremental_moves(c: &mut Criterion) {
    let spec = WorkloadSpec { tasks: 100, machines: 20, ..WorkloadSpec::large(2001) };
    let inst = spec.generate();
    let g = inst.graph();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let base = random_solution(&inst, &mut rng);
    let (t, moves) = mshc_bench::probes::widest_move_grid(&inst, &base);
    let obj = ObjectiveKind::Makespan;
    let snapshot = EvalSnapshot::new(&inst);

    let mut group = c.benchmark_group("incremental_moves");
    group.bench_function(BenchmarkId::new("full", moves.len()), |b| {
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let mut scratch = base.clone();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(pos, m) in &moves {
                scratch.move_task(g, t, pos, m).expect("in-range");
                acc += eval.objective_value(black_box(&scratch), &obj);
            }
            black_box(acc)
        })
    });
    let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
    inc.prime(&base);
    group.bench_function(BenchmarkId::new("incremental", moves.len()), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(pos, m) in &moves {
                acc += inc.score_move(t, pos, m, &obj);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// SE's relocation scan through `best_relocation` on the resident pool,
/// at one and four workers: the widest task's full position × machine
/// grid and its first two positions. Every walk runs inline on the
/// calling thread, and under makespan stops at the insertion floor, so
/// the worker count should not move them.
fn bench_relocation_scan(c: &mut Criterion) {
    let spec = WorkloadSpec { tasks: 100, machines: 20, ..WorkloadSpec::large(2001) };
    let inst = spec.generate();
    let g = inst.graph();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let base = random_solution(&inst, &mut rng);
    let (t, _) = mshc_bench::probes::widest_move_grid(&inst, &base);
    let (lo, hi) = base.valid_range(g, t);
    let machines: Vec<MachineId> = (0..inst.machine_count()).map(MachineId::from_usize).collect();
    let obj = ObjectiveKind::Makespan;
    let snapshot = EvalSnapshot::new(&inst);

    let mut group = c.benchmark_group("relocation_scan");
    for (name, positions) in [("widest", lo..=hi), ("short", lo..=(lo + 1).min(hi))] {
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let mut batch = BatchEvaluator::new(&snapshot);
            let id = BenchmarkId::new(format!("{name}/pool-{threads}"), positions.clone().count());
            group.bench_function(id, |b| {
                pool.install(|| {
                    b.iter(|| {
                        black_box(batch.best_relocation(
                            &base,
                            t,
                            positions.clone(),
                            &machines,
                            &obj,
                        ))
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_solution_moves(c: &mut Criterion) {
    let inst = WorkloadSpec::large(12).generate();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut sol = random_solution(&inst, &mut rng);
    let g = inst.graph();
    c.bench_function("solution/move_task_roundtrip", |b| {
        let t = mshc_taskgraph::TaskId::new(50);
        b.iter(|| {
            let (lo, hi) = sol.valid_range(g, t);
            let m = sol.machine_of(t);
            sol.move_task(g, t, lo, m).unwrap();
            sol.move_task(g, t, hi, m).unwrap();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_evaluator, bench_batch_candidates, bench_incremental_moves, bench_relocation_scan, bench_solution_moves
}
criterion_main!(benches);
