//! Steal-determinism property tests: the persistent work-stealing
//! executor must be **observationally identical** to a sequential fold —
//! bit-identical merged results, argmin index tie-breaks and evaluation
//! counts — across random lengths × `min_len` splitting hints × thread
//! counts × induced per-chunk delays. The delays scramble which worker
//! claims which chunk and in what order chunks complete (steal-order
//! jitter); none of it may be visible in the output. This is the
//! executor-side half of the house invariant the chunk-grid-invariant
//! scans in `batch.rs` rely on.

use mshc_platform::{HcInstance, HcSystem, MachineId, Matrix};
use mshc_schedule::{
    random_solution, BatchEvaluator, EvalSnapshot, EvalView, Evaluator, Objective, ObjectiveKind,
    Solution,
};
use mshc_taskgraph::gen::{layered, LayeredConfig};
use mshc_taskgraph::TaskId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::time::Duration;

/// Deterministic per-item delay in 0..23µs — enough to scramble chunk
/// completion order without slowing the suite down.
fn jitter(x: u64, salt: u64) -> Duration {
    Duration::from_micros(x.wrapping_mul(2654435761).wrapping_add(salt) % 23)
}

fn small_instance(tasks: usize, machines: usize, seed: u64) -> HcInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cfg =
        LayeredConfig { tasks, mean_width: (tasks / 3).max(1), edge_prob: 0.4, skip_prob: 0.0 };
    let graph = layered(&cfg, &mut rng).unwrap();
    let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(5.0..80.0));
    let pairs = machines * (machines - 1) / 2;
    let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..25.0));
    let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
    HcInstance::new(graph, sys).unwrap()
}

/// A full-pass (non-incremental) objective that sleeps a hash-derived
/// few microseconds per evaluation — per-candidate jitter driven through
/// the real scoring pipeline, not just a synthetic map.
struct JitteredMakespan {
    salt: u64,
}

impl Objective for JitteredMakespan {
    fn name(&self) -> &str {
        "jittered-makespan"
    }

    fn value(&self, view: &EvalView<'_>) -> f64 {
        let mk = view.finish.iter().copied().fold(0.0f64, f64::max);
        std::thread::sleep(jitter(mk.to_bits(), self.salt));
        mk
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merged `collect` output is bit-identical to the sequential map at
    /// every thread count and splitting hint, with per-item delays
    /// scrambling chunk completion order.
    #[test]
    fn jittered_collect_equals_sequential(
        len in 0usize..240,
        min_len in 1usize..48,
        threads_sel in 0usize..4,
        salt in any::<u64>(),
    ) {
        let threads = [1usize, 2, 4, 8][threads_sel];
        let xs: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(salt | 1)).collect();
        let expected: Vec<u64> = xs.iter().map(|&x| x ^ (x >> 7)).collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let got: Vec<u64> = pool.install(|| {
            xs.par_iter()
                .with_min_len(min_len)
                .map(|&x| {
                    std::thread::sleep(jitter(x, salt));
                    x ^ (x >> 7)
                })
                .collect()
        });
        prop_assert_eq!(got, expected, "{} threads, min_len {}", threads, min_len);
    }

    /// `min_by` keeps the sequential first-minimum tie-break under
    /// stealing: scores drawn from a tiny range force duplicate minima,
    /// and the earliest index must win at every thread count.
    #[test]
    fn jittered_argmin_keeps_first_minimum_tiebreak(
        scores in prop::collection::vec(0u8..4, 1..200),
        min_len in 1usize..32,
        threads_sel in 0usize..4,
        salt in any::<u64>(),
    ) {
        let threads = [1usize, 2, 4, 8][threads_sel];
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1))
            .map(|(i, &s)| (i, s));
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let got = pool.install(|| {
            scores
                .par_iter()
                .with_min_len(min_len)
                .enumerate()
                .map(|(i, &s)| {
                    std::thread::sleep(jitter(i as u64, salt));
                    (i, s)
                })
                .min_by(|a, b| a.1.cmp(&b.1))
        });
        prop_assert_eq!(got, want, "{} threads, min_len {}", threads, min_len);
    }

    /// Chunk sums merge in chunk order: an integer `sum` (associative
    /// and commutative — any merge order must agree with sequential)
    /// and an order-sensitive float `sum` driven at a fixed thread
    /// count both match their references under induced delays.
    #[test]
    fn jittered_sum_matches_sequential(
        xs in prop::collection::vec(0u64..1_000_000, 0..200),
        min_len in 1usize..32,
        threads_sel in 0usize..4,
        salt in any::<u64>(),
    ) {
        let threads = [1usize, 2, 4, 8][threads_sel];
        let want: u64 = xs.iter().sum();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let got: u64 = pool.install(|| {
            xs.par_iter()
                .with_min_len(min_len)
                .map(|&x| {
                    std::thread::sleep(jitter(x, salt));
                    x
                })
                .sum()
        });
        prop_assert_eq!(got, want, "{} threads, min_len {}", threads, min_len);
    }
}

proptest! {
    // The pipeline-level cases run whole schedule evaluations per
    // candidate; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full scoring pipeline under per-candidate delays: batch
    /// scores, the relocation argmin (cell and score bits) and the
    /// evaluation count all match the 1-thread run at every thread
    /// count, with steal-order jitter injected through a full-pass
    /// objective.
    #[test]
    fn jittered_scoring_pipeline_is_thread_invariant(
        tasks in 6usize..18,
        machines in 2usize..5,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let inst = small_instance(tasks, machines, seed);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(rng.gen_range(0..tasks as u32));
        let (lo, hi) = base.valid_range(g, t);
        let lanes: Vec<MachineId> = (0..machines).map(MachineId::from_usize).collect();
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|p| lanes.iter().map(move |&m| (p, m))).collect();
        let obj = JitteredMakespan { salt };

        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                let scores: Vec<u64> = batch
                    .score_moves(g, &base, t, &moves, &obj)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                let best = batch.best_relocation(g, &base, t, lo..=hi, &lanes, &obj);
                (scores, best.map(|b| (b.pos, b.machine, b.score.to_bits())), batch.evaluations())
            })
        };
        let baseline = run(1);
        for threads in [2usize, 4, 8] {
            let got = run(threads);
            prop_assert_eq!(&got.0, &baseline.0, "scores, {} threads", threads);
            prop_assert_eq!(got.1, baseline.1, "argmin, {} threads", threads);
            prop_assert_eq!(got.2, baseline.2, "evaluation count, {} threads", threads);
        }
        // And the jittered objective really is the makespan.
        let mut scalar = Evaluator::new(&inst);
        let mut cand: Solution = base.clone();
        let (pos, m) = moves[0];
        cand.move_task(g, t, pos, m).unwrap();
        prop_assert_eq!(scalar.makespan(&cand).to_bits(), baseline.0[0]);
    }

    /// SE's relocation scan on machine lanes fans its positions out over
    /// the stealing executor once a grid reaches 16,384 lane-replays
    /// (`positions × machines × k`); every grid here is above that. The
    /// winner (cell and score bits), the evaluation count and the scan
    /// counters match the 1-thread scan at 2 and 8 threads, and the
    /// winner is the first minimum of the exact scores.
    #[test]
    fn lane_relocation_scan_is_thread_invariant_under_stealing(
        tasks in 64usize..96,
        machines in 10usize..14,
        seed in any::<u64>(),
        stride_sel in 0usize..3,
        kind_sel in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = LayeredConfig {
            tasks,
            mean_width: tasks / 2,
            edge_prob: 0.1,
            skip_prob: 0.0,
        };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(5.0..80.0));
        let pairs = machines * (machines - 1) / 2;
        let transfer =
            Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..25.0));
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        let inst = HcInstance::new(graph, sys).unwrap();
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let base = random_solution(&inst, &mut rng);
        let width = |t: TaskId| {
            let (lo, hi) = base.valid_range(g, t);
            hi - lo
        };
        let t = g.tasks().max_by_key(|&t| width(t)).unwrap();
        let (lo, hi) = base.valid_range(g, t);
        let lanes: Vec<MachineId> = (0..machines).map(MachineId::from_usize).collect();
        prop_assert!(
            (hi - lo + 1) * machines * tasks >= 16_384,
            "grid below the fan-out threshold: {} positions", hi - lo + 1
        );
        let stride = [Some(1), None, Some(tasks + 3)][stride_sel];
        let obj = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        ][kind_sel];
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap).with_stride(stride);
                let best = batch.best_relocation(g, &base, t, lo..=hi, &lanes, &obj);
                (
                    best.map(|b| (b.pos, b.machine, b.score.to_bits())),
                    batch.evaluations(),
                    batch.scan_stats(),
                )
            })
        };
        let baseline = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(run(threads), baseline, "{} threads, stride {:?}", threads, stride);
        }
        let own = (base.position_of(t), base.machine_of(t));
        let grid: Vec<(usize, MachineId)> = (lo..=hi)
            .flat_map(|p| lanes.iter().map(move |&m| (p, m)))
            .filter(|&cell| cell != own)
            .collect();
        let scores = BatchEvaluator::new(&snap).score_moves(g, &base, t, &grid, &obj);
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (grid[i].0, grid[i].1, s.to_bits()));
        prop_assert_eq!(baseline.0, want, "first minimum of the exact scores");
        prop_assert_eq!(baseline.1, grid.len() as u64);
        prop_assert_eq!(baseline.2.scored, grid.len() as u64);
    }

    /// Tabu's mixed-task argmin is thread-invariant on the stealing
    /// executor: same index, same score bits, same evaluation count and
    /// the same scan counters as the 1-thread scan, and the winner is
    /// the first minimum of the exact scores. A scan chunk holds
    /// `⌈6144 / k⌉` candidates (at most 205 at these task counts), so
    /// the sample spans several chunks and really fans out.
    #[test]
    fn task_move_argmin_is_thread_invariant_under_stealing(
        tasks in 30usize..70,
        machines in 2usize..5,
        seed in any::<u64>(),
        stride_sel in 0usize..3,
    ) {
        let inst = small_instance(tasks, machines, seed);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5851f42d4c957f2d);
        let base = random_solution(&inst, &mut rng);
        let stride = [Some(1), None, Some(tasks + 3)][stride_sel];
        let moves: Vec<(TaskId, usize, MachineId)> = (0..640)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..tasks as u32));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..machines as u32)))
            })
            .collect();
        let obj = ObjectiveKind::Makespan;
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap).with_stride(stride);
                let best = batch.best_task_move(g, &base, &moves, None, 0.0, &obj);
                (best.map(|b| (b.index, b.score.to_bits())), batch.evaluations(), batch.scan_stats())
            })
        };
        let baseline = run(1);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(run(threads), baseline, "{} threads, stride {:?}", threads, stride);
        }
        let scores = BatchEvaluator::new(&snap).score_task_moves(g, &base, &moves, &obj);
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, s)| (i, s.to_bits()));
        prop_assert_eq!(baseline.0, want, "first minimum of the exact scores");
        prop_assert_eq!(baseline.1, moves.len() as u64);
        prop_assert_eq!(baseline.2.scored, moves.len() as u64);
    }
}
