//! Property tests for the solution substrate: encoding invariants,
//! evaluator semantics and the DES cross-check, on random instances
//! built without the workload crate (kept dependency-light).

mod support;

use mshc_platform::{HcInstance, HcSystem, MachineId, Matrix};
use mshc_schedule::{
    objective_from_report, random_solution, replay, replay_with, BatchEvaluator, Descent,
    EvalSnapshot, Evaluator, Gantt, IncrementalEvaluator, MoveScore, NetworkModel, Objective,
    ObjectiveKind, ObjectiveState, Relocation, ScheduleReport, Solution,
};
use mshc_taskgraph::gen::{erdos_dag, layered, LayeredConfig};
use mshc_taskgraph::TaskId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use support::{floor_walk_lanes, lane_runs, replayed_cells};

/// A random mixed-task move sample inside `base`'s valid ranges — the
/// shape tabu's neighborhood argmin serves.
fn sample_moves(
    inst: &HcInstance,
    base: &Solution,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<(TaskId, usize, MachineId)> {
    (0..n)
        .map(|_| {
            let t = TaskId::new(rng.gen_range(0..inst.task_count() as u32));
            let (lo, hi) = base.valid_range(inst.graph(), t);
            (
                t,
                rng.gen_range(lo..=hi),
                MachineId::new(rng.gen_range(0..inst.machine_count() as u32)),
            )
        })
        .collect()
}

/// Tabu's sequential selection rule over exact scores: skip
/// non-admissible moves unless they beat `aspiration`, keep the first
/// strict minimum among the rest.
fn reference_choice(
    scores: &[f64],
    admissible: Option<&[bool]>,
    aspiration: f64,
) -> Option<(usize, f64)> {
    let mut chosen: Option<(usize, f64)> = None;
    for (i, &cost) in scores.iter().enumerate() {
        let adm = admissible.is_none_or(|a| a[i]);
        if (!adm && cost >= aspiration) || chosen.is_some_and(|(_, c)| c <= cost) {
            continue;
        }
        chosen = Some((i, cost));
    }
    chosen
}

/// A random instance: `k` tasks on `l` machines, over a layered or
/// Erdős–Rényi DAG with edge probability `p`.
fn build_instance(k: usize, l: usize, p: f64, seed: u64, use_layered: bool) -> HcInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = if use_layered {
        layered(
            &LayeredConfig { tasks: k, mean_width: (k / 3).max(1), edge_prob: p, skip_prob: 0.0 },
            &mut rng,
        )
        .unwrap()
    } else {
        erdos_dag(k, p, &mut rng).unwrap()
    };
    let exec = Matrix::from_fn(l, k, |_, _| rng.gen_range(1.0..50.0));
    let pairs = l * (l - 1) / 2;
    let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(0.0..20.0));
    let sys = HcSystem::with_anonymous_machines(l, exec, transfer).unwrap();
    HcInstance::new(graph, sys).unwrap()
}

/// A custom objective under the default declaration: the busiest
/// machine's busy time plus a thousandth of the finish-time sum.
struct BusiestMachine;

impl Objective for BusiestMachine {
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        state.machine_busy().iter().copied().fold(0.0, f64::max) + 1e-3 * state.finish_sum()
    }
}

/// `obj`'s score of a report's full fold: its latest finish, finish-time
/// sum, task count and busy vector.
fn report_fold_score(obj: &dyn Objective, report: &ScheduleReport) -> f64 {
    let mut state = ObjectiveState::default();
    state.load(report.makespan, report.total_flowtime, report.finish.len(), &report.machine_busy);
    obj.finalize(&state)
}

fn instance_strategy() -> impl Strategy<Value = HcInstance> {
    (1usize..25, 1usize..6, 0.0f64..0.9, any::<u64>(), prop::bool::ANY)
        .prop_map(|(k, l, p, seed, use_layered)| build_instance(k, l, p, seed, use_layered))
}

/// Full-pass score of `base` with `t` moved to `(pos, m)`.
fn moved_score(
    scalar: &mut Evaluator,
    inst: &HcInstance,
    base: &Solution,
    (t, pos, m): (TaskId, usize, MachineId),
    kind: &ObjectiveKind,
) -> f64 {
    let mut cand = base.clone();
    cand.move_task(inst.graph(), t, pos, m).unwrap();
    scalar.objective_value(&cand, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The two independent time computations agree everywhere.
    #[test]
    fn analytic_and_des_agree(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let a = Evaluator::new(&inst).report(&sol);
        let b = replay(&inst, &sol).unwrap();
        prop_assert!((a.makespan - b.makespan).abs() < 1e-9);
        for t in inst.graph().tasks() {
            prop_assert!((a.finish_of(t) - b.finish_of(t)).abs() < 1e-9);
            prop_assert!((a.start_of(t) - b.start_of(t)).abs() < 1e-9);
        }
    }

    /// Start/finish times satisfy the model's constraints directly:
    /// machine exclusivity, data arrivals, exec durations.
    #[test]
    fn report_satisfies_model_constraints(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let r = Evaluator::new(&inst).report(&sol);
        let sys = inst.system();
        // exec durations
        for t in inst.graph().tasks() {
            let m = sol.machine_of(t);
            prop_assert!((r.finish_of(t) - r.start_of(t) - sys.exec_time(m, t)).abs() < 1e-9);
            prop_assert!(r.start_of(t) >= -1e-12);
        }
        // data arrivals
        for e in inst.graph().edges() {
            let arrival = r.finish_of(e.src)
                + sys.transfer_time(e.id, sol.machine_of(e.src), sol.machine_of(e.dst));
            prop_assert!(r.start_of(e.dst) >= arrival - 1e-9, "{:?}", e);
        }
        // machine exclusivity: per-machine slots disjoint (via Gantt)
        let g = Gantt::build(&sol, &r);
        prop_assert!(g.lanes_disjoint());
        prop_assert!(g.utilization() > 0.0 && g.utilization() <= 1.0 + 1e-12);
        prop_assert_eq!(g.makespan(), r.makespan);
    }

    /// Valid ranges bracket exactly the insertions the checker accepts.
    #[test]
    fn valid_range_is_tight(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let g = inst.graph();
        let t = TaskId::new(rng.gen_range(0..inst.task_count() as u32));
        let (lo, hi) = sol.valid_range(g, t);
        for pos in 0..sol.len() {
            let mut probe = sol.clone();
            let ok = probe.move_task(g, t, pos, probe.machine_of(t)).is_ok();
            prop_assert_eq!(ok, (lo..=hi).contains(&pos));
            if ok {
                prop_assert!(probe.check(g).is_ok());
            } else {
                prop_assert_eq!(&probe, &sol, "failed move must not mutate");
            }
            // Tight: exactly the in-range insertions keep the order a
            // linear extension.
            let mut order: Vec<TaskId> = sol.order().filter(|&x| x != t).collect();
            order.insert(pos, t);
            prop_assert_eq!(g.is_linear_extension(&order), (lo..=hi).contains(&pos), "pos {}", pos);
        }
    }

    /// Per-machine orders derived from the string are subsequences of the
    /// string order and partition the task set.
    #[test]
    fn machine_orders_partition_tasks(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let mut seen = vec![false; inst.task_count()];
        for m in inst.system().machine_ids() {
            let lane = sol.machine_order(m);
            for w in lane.windows(2) {
                prop_assert!(sol.position_of(w[0]) < sol.position_of(w[1]));
            }
            for t in lane {
                prop_assert!(!seen[t.index()], "task on two machines");
                seen[t.index()] = true;
                prop_assert_eq!(sol.machine_of(t), m);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Every objective computed analytically (one evaluator pass) agrees
    /// with the same objective read off the discrete-event simulator's
    /// replay report — the `sim.rs` oracle covers the whole objective
    /// family, not just makespan.
    #[test]
    fn objectives_agree_with_des_replay(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let mut eval = Evaluator::new(&inst);
        let sim = replay(&inst, &sol).unwrap();
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let analytic = eval.objective_value(&sol, &kind);
            let oracle = objective_from_report(&kind, &sim);
            prop_assert!(
                (analytic - oracle).abs() < 1e-9 * analytic.abs().max(1.0),
                "{}: analytic {analytic} vs replay {oracle}",
                kind.label()
            );
        }
        // The report carries the same values.
        let report = eval.report(&sol);
        let o = report.objectives();
        prop_assert!((o.makespan - sim.makespan).abs() < 1e-9);
        prop_assert!((o.total_flowtime - sim.total_flowtime).abs() < 1e-9);
    }

    /// An evaluator's report scores exactly like the evaluator: it
    /// carries the fold the pass built, so `objective_from_report` over
    /// it equals `objective_value` bit for bit, for every objective. A
    /// report rebuilt from its times sums the flowtime in the same
    /// string order.
    #[test]
    fn report_scores_equal_the_evaluator_fold(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut eval = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
        for _ in 0..4 {
            let sol = random_solution(&inst, &mut rng);
            let report = eval.report(&sol);
            let rebuilt = ScheduleReport::from_times(report.start.clone(), report.finish.clone(), &sol);
            prop_assert_eq!(rebuilt.total_flowtime.to_bits(), report.total_flowtime.to_bits());
            for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
                let fold = eval.objective_value(&sol, &kind);
                let read = objective_from_report(&kind, &report);
                prop_assert_eq!(
                    read.to_bits(), fold.to_bits(), "{}: {} vs {}", kind.label(), read, fold
                );
            }
        }
    }

    /// Batch evaluation is pointwise identical to the scalar evaluator
    /// on random candidate sets, for every objective.
    #[test]
    fn batch_matches_scalar_on_random_candidates(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let candidates: Vec<_> = (0..8).map(|_| random_solution(&inst, &mut rng)).collect();
        let snap = EvalSnapshot::new(&inst);
        let mut batch = BatchEvaluator::new(&snap);
        let mut scalar = Evaluator::new(&inst);
        for kind in ObjectiveKind::BASIC {
            let got = batch.scores(&candidates, &kind);
            for (sol, &score) in candidates.iter().zip(&got) {
                prop_assert_eq!(scalar.objective_value(sol, &kind), score, "{}", kind.label());
            }
        }
    }

    /// The incremental move evaluator is bit-identical to a full
    /// re-evaluation of the materialized move, for **every** objective
    /// kind, on random workloads and random moves.
    #[test]
    fn incremental_score_move_equals_full_reevaluation(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 };
        // The primed base itself scores identically.
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            prop_assert_eq!(inc.base_score(&kind), scalar.objective_value(&base, &kind));
        }
        for _ in 0..12 {
            let t = TaskId::new(rng.gen_range(0..k as u32));
            let (lo, hi) = base.valid_range(g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = MachineId::new(rng.gen_range(0..inst.machine_count() as u32));
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
                let fast = inc.score_move(t, pos, m, &kind);
                let slow = scalar.objective_value(&cand, &kind);
                prop_assert_eq!(
                    fast, slow, "{}: move ({}, {}, {})", kind.label(), t, pos, m
                );
            }
        }
    }

    /// The batch argmins commit exactly what a score-everything-then-fold
    /// scan commits: tabu's mixed-task argmin matches a sequential
    /// first-minimum fold with the admissibility/aspiration rule — same
    /// index (tie-breaks included), same exact score, same evaluation
    /// count — across random workloads and thread counts, and
    /// SE's relocation argmin matches a first-minimum fold over its grid.
    #[test]
    fn argmin_scans_commit_the_sequential_choice(
        inst in instance_strategy(),
        seed in any::<u64>(),
        threads_sel in 0usize..3,
        kind_sel in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let base = random_solution(&inst, &mut rng);
        let moves = sample_moves(&inst, &base, 24, &mut rng);
        let threads = [1usize, 2, 8][threads_sel];
        let kind = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        ][kind_sel];
        let snap = EvalSnapshot::new(&inst);
        // Reference: exact scores, sequential fold.
        let scores = BatchEvaluator::new(&snap).score_task_moves(&base, &moves, &kind);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();

        // Plain argmin (admit everything).
        let mut batch = BatchEvaluator::new(&snap);
        let got = pool.install(|| batch.best_task_move(&base, &moves, None, 0.0, &kind));
        let want = reference_choice(&scores, None, 0.0);
        prop_assert_eq!(got.map(|b| (b.index, b.score)), want, "plain argmin, {threads} threads");
        prop_assert_eq!(batch.evaluations(), moves.len() as u64, "one evaluation per candidate");

        // Tabu-style rule: random admissibility + a mid-range aspiration.
        let admissible: Vec<bool> = (0..moves.len()).map(|_| rng.gen_bool(0.5)).collect();
        let aspiration =
            scores[rng.gen_range(0..scores.len())] * [0.9, 1.0, 1.1][rng.gen_range(0..3)];
        let got = pool.install(|| {
            BatchEvaluator::new(&snap).best_task_move(
                &base, &moves, Some(&admissible), aspiration, &kind,
            )
        });
        let want = reference_choice(&scores, Some(&admissible), aspiration);
        prop_assert_eq!(
            got.map(|b| (b.index, b.score)), want,
            "aspiration {aspiration}, {threads} threads"
        );

        // The relocation grid scan (SE's shape: positions × machines in
        // pos-major order, the base's own cell excluded) agrees with
        // exact scores plus a first-minimum fold, counts one evaluation
        // per cell, and replays one cell per run of identical schedules;
        // under makespan, up to the first pass whose minimum meets the
        // floor.
        let t = moves[0].0;
        let (lo, hi) = base.valid_range(g, t);
        let machines: Vec<MachineId> =
            (0..inst.machine_count()).map(MachineId::from_usize).collect();
        let own = (t, base.position_of(t), base.machine_of(t));
        let grid: Vec<(TaskId, usize, MachineId)> = (lo..=hi)
            .flat_map(|p| machines.iter().map(move |&m| (t, p, m)))
            .filter(|&cell| cell != own)
            .collect();
        let grid_scores = BatchEvaluator::new(&snap).score_task_moves(&base, &grid, &kind);
        let want = grid_scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (grid[i].1, grid[i].2, s.to_bits()));
        let mut batch = BatchEvaluator::new(&snap);
        let got = pool.install(|| batch.best_relocation(&base, t, lo..=hi, &machines, &kind));
        prop_assert_eq!(got.map(|r| (r.pos, r.machine, r.score.to_bits())), want, "grid scan");
        prop_assert_eq!(batch.evaluations(), grid.len() as u64);
        let replayed = if kind_sel == 0 {
            floor_walk_lanes(&snap, &base, t, (lo, hi), &machines, &kind)
        } else {
            replayed_cells(&base, t, (lo, hi), &machines)
        };
        prop_assert_eq!(batch.scan_stats().scored, replayed as u64);
    }

    /// Sliding the relocated task past a task on another machine keeps
    /// every machine's task sequence: within each run of a lane, every
    /// cell's full report has the finish times and busy times of the
    /// run's first cell, bit for bit, and so the same makespan and load
    /// balance scores.
    #[test]
    fn cells_of_a_run_share_their_schedule(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let kinds = [ObjectiveKind::Makespan, ObjectiveKind::LoadBalance];
        for _ in 0..4 {
            let t = TaskId::new(rng.gen_range(0..k as u32));
            let range = base.valid_range(g, t);
            for m in (0..inst.machine_count()).map(MachineId::from_usize) {
                let mut report = |pos: usize| {
                    let mut cand = base.clone();
                    cand.move_task(g, t, pos, m).unwrap();
                    scalar.report(&cand)
                };
                for run in lane_runs(&base, t, range, m) {
                    let first = report(run[0]);
                    let first_scores = kinds.map(|kind| inc.score_move(t, run[0], m, &kind));
                    for &pos in &run[1..] {
                        let cell = report(pos);
                        let label = format!("{t} -> ({pos}, {m})");
                        prop_assert_eq!(bits(&cell.finish), bits(&first.finish), "{}", label);
                        prop_assert_eq!(bits(&cell.machine_busy), bits(&first.machine_busy));
                        let scores = kinds.map(|kind| inc.score_move(t, pos, m, &kind));
                        prop_assert_eq!(bits(&scores), bits(&first_scores), "{}", label);
                    }
                }
            }
        }
    }

    /// SE's relocation argmin commits the first minimum of the exact
    /// scores over the full grid under every objective kind — the five
    /// built-ins, a weighted blend without flowtime, and a custom
    /// objective under the default declaration — at 1, 2 and 8 threads,
    /// on a Y-limited machine ranking. It charges one evaluation per cell
    /// and replays exactly the cells that start a run, except under
    /// makespan, where it stops at the first pass whose minimum meets the
    /// floor.
    #[test]
    fn relocation_scan_is_the_full_grid_first_minimum(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let t = TaskId::new(rng.gen_range(0..k as u32));
        let (lo, hi) = base.valid_range(g, t);
        let mut machines = inst.system().machine_ranking(t);
        machines.truncate(rng.gen_range(1..=inst.machine_count()));
        let own = (t, base.position_of(t), base.machine_of(t));
        let grid: Vec<(TaskId, usize, MachineId)> = (lo..=hi)
            .flat_map(|p| machines.iter().map(move |&m| (t, p, m)))
            .filter(|&cell| cell != own)
            .collect();
        let pools: Vec<rayon::ThreadPool> = [1usize, 2, 8]
            .into_iter()
            .map(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap())
            .collect();
        let kinds = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::LoadBalance,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 },
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.0, balance: 1.0 },
        ];
        let mut objectives: Vec<(String, &dyn Objective)> =
            kinds.iter().map(|kind| (kind.label(), kind as &dyn Objective)).collect();
        objectives.push(("custom".to_string(), &BusiestMachine));
        for (label, obj) in objectives {
            let scores = BatchEvaluator::new(&snap).score_task_moves(&base, &grid, obj);
            let want = scores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, &s)| (grid[i].1, grid[i].2, s.to_bits()));
            let replayed = if obj.never_falls_on_insertion() {
                floor_walk_lanes(&snap, &base, t, (lo, hi), &machines, obj)
            } else {
                replayed_cells(&base, t, (lo, hi), &machines)
            } as u64;
            for (pool, threads) in pools.iter().zip([1, 2, 8]) {
                let mut batch = BatchEvaluator::new(&snap);
                let got =
                    pool.install(|| batch.best_relocation(&base, t, lo..=hi, &machines, obj));
                let got = got.map(|r| (r.pos, r.machine, r.score.to_bits()));
                let label = format!("{label}, {threads} threads");
                prop_assert_eq!(got, want, "{}", label);
                prop_assert_eq!(batch.evaluations(), grid.len() as u64, "{}", label);
                prop_assert_eq!(batch.scan_stats().scored, replayed, "{}", label);
            }
        }
    }

    /// Contention can only delay: the per-pair-link network dominates the
    /// contention-free one pointwise.
    #[test]
    fn contention_dominates_pointwise(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = random_solution(&inst, &mut rng);
        let free = replay_with(&inst, &sol, NetworkModel::ContentionFree).unwrap();
        let link = replay_with(&inst, &sol, NetworkModel::PerPairLink).unwrap();
        prop_assert!(link.makespan >= free.makespan - 1e-9);
        for t in inst.graph().tasks() {
            prop_assert!(link.finish_of(t) >= free.finish_of(t) - 1e-9);
        }
    }

    /// Reassigning a machine keeps the string order intact.
    #[test]
    fn solution_reassign_keeps_order(inst in instance_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sol = random_solution(&inst, &mut rng);
        let before: Vec<TaskId> = sol.order().collect();
        let t = TaskId::new(rng.gen_range(0..inst.task_count() as u32));
        let m = MachineId::new(rng.gen_range(0..inst.machine_count() as u32));
        sol.reassign(t, m).unwrap();
        let after: Vec<TaskId> = sol.order().collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(sol.machine_of(t), m);
        prop_assert!(sol.check(inst.graph()).is_ok());
    }

    /// Every representable objective kind round-trips through its CLI
    /// spelling: `parse(label()) == kind`, and `FromStr` agrees with
    /// `parse` on the same input.
    #[test]
    fn objective_label_parse_roundtrip(
        which in 0usize..5,
        mk in 0.0f64..1e6,
        ft in 0.0f64..1e6,
        lb in 0.0f64..1e6,
    ) {
        let kind = match which {
            0 => ObjectiveKind::Makespan,
            1 => ObjectiveKind::TotalFlowtime,
            2 => ObjectiveKind::MeanFlowtime,
            3 => ObjectiveKind::LoadBalance,
            _ => ObjectiveKind::Weighted { makespan: mk, flowtime: ft, balance: lb },
        };
        let label = kind.label();
        prop_assert_eq!(ObjectiveKind::parse(&label), Some(kind));
        prop_assert_eq!(label.parse::<ObjectiveKind>(), Ok(kind));
    }

    /// Junk never parses silently: whatever `FromStr` rejects, `parse`
    /// rejects too (no panic, no silent default on malformed input).
    #[test]
    fn objective_parse_never_panics_and_agrees_with_from_str(
        bytes in prop::collection::vec(0x20u8..0x7f, 0..30),
    ) {
        let s = String::from_utf8(bytes).expect("printable ASCII");
        let via_parse = ObjectiveKind::parse(&s);
        let via_from_str = s.parse::<ObjectiveKind>().ok();
        prop_assert_eq!(via_parse, via_from_str);
    }

    /// Malformed weighted spellings are rejected with an error that
    /// names the offending weight, for every malformation class
    /// (wrong arity, negative components, non-numeric junk).
    #[test]
    fn malformed_weighted_inputs_error_descriptively(
        w in prop::collection::vec(-10.0f64..10.0, 0..6),
        junk_pick in 0usize..4,
    ) {
        let spelling = format!(
            "weighted:{}",
            w.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        );
        let parsed = spelling.parse::<ObjectiveKind>();
        if w.len() == 3 && w.iter().all(|v| *v >= 0.0) {
            prop_assert!(parsed.is_ok());
        } else {
            prop_assert!(parsed.unwrap_err().contains("weight"));
        }
        let junk = ["x", "nan", "inf", "1.0.0"][junk_pick];
        let with_junk = format!("weighted:1,{junk},3");
        prop_assert!(with_junk.parse::<ObjectiveKind>().is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `score_population` is bit-identical to full passes over the same
    /// children (`scores`) for every objective, on children built by
    /// stacking random moves on a parent — exact clones included — with
    /// every `Descent` arm, and it counts one evaluation per child and
    /// exactly the clones on the population axes.
    #[test]
    fn score_population_equals_full_passes(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let parents: Vec<Solution> = (0..3).map(|_| random_solution(&inst, &mut rng)).collect();
        let mut children = Vec::new();
        let mut descents = Vec::new();
        for round in 0..9 {
            // Children at increasing distance from their parent,
            // including the identical child.
            let p = round % parents.len();
            let mut child = parents[p].clone();
            for _ in 0..round / 2 {
                let t = TaskId::new(rng.gen_range(0..k as u32));
                let (lo, hi) = child.valid_range(g, t);
                let pos = rng.gen_range(lo..=hi);
                let m = MachineId::new(rng.gen_range(0..inst.machine_count() as u32));
                child.move_task(g, t, pos, m).unwrap();
            }
            let diverge =
                parents[p].segments().iter().zip(child.segments()).position(|(a, b)| a != b);
            descents.push(match diverge {
                None => Descent::Clone { parent: p },
                Some(d) if round % 2 == 0 => Descent::Suffix { parent: p, diverge: d },
                Some(_) => Descent::Fresh,
            });
            children.push(child);
        }
        let clones = descents.iter().filter(|d| matches!(d, Descent::Clone { .. })).count() as u64;
        let snap = EvalSnapshot::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let costs = BatchEvaluator::new(&snap).scores(&parents, &kind);
            let want = BatchEvaluator::new(&snap).scores(&children, &kind);
            let mut batch = BatchEvaluator::new(&snap);
            let got = batch.score_population(&parents, &costs, &children, &descents, &kind);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{}", kind.label());
            prop_assert_eq!(batch.evaluations(), children.len() as u64);
            let stats = batch.scan_stats();
            prop_assert_eq!(stats.clones, clones);
            prop_assert_eq!(stats.clone_positions, clones * k as u64);
            prop_assert_eq!(stats.population_positions, (children.len() * k) as u64);
        }
    }

    /// A machine-changing move re-prices the moved task's edges in the
    /// evaluator's per-edge cost cache, and every replay dirties finish
    /// times; `score_move` must put both back. Same-machine,
    /// machine-changing, random and identity moves are scored in turn;
    /// after every one a fresh candidate and the base itself must still
    /// score bit-identically to full passes, and the benchmark-pinned
    /// `score_move_bounded` returns the same exact score at any bound.
    /// Instances include a single machine (no `Tr` rows, only the zero
    /// row) and edgeless DAGs.
    #[test]
    fn score_move_restores_the_base_after_every_move(
        k in 1usize..25,
        l in 1usize..6,
        p in 0.0f64..0.9,
        inst_seed in any::<u64>(),
        use_layered in prop::bool::ANY,
        shape in 0usize..3,
        seed in any::<u64>(),
        kind_sel in 0usize..5,
    ) {
        let inst = match shape {
            0 => build_instance(k, l, p, inst_seed, use_layered),
            1 => build_instance(k, 1, p, inst_seed, use_layered),
            _ => build_instance(k, l, 0.0, inst_seed, false),
        };
        let l = inst.machine_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = random_solution(&inst, &mut rng);
        let kind = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::LoadBalance,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        ][kind_sel];
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let base_truth = scalar.objective_value(&base, &kind);
        for (t, pos, m) in sample_moves(&inst, &base, 8, &mut rng) {
            let home = base.machine_of(t);
            let away = MachineId::from_usize((home.index() + 1) % l);
            for mv in [(t, pos, home), (t, pos, away), (t, pos, m), (t, base.position_of(t), home)] {
                let truth = moved_score(&mut scalar, &inst, &base, mv, &kind);
                let got = inc.score_move(mv.0, mv.1, mv.2, &kind);
                prop_assert_eq!(got.to_bits(), truth.to_bits(), "{} move {:?}", kind.label(), mv);
                for bound in [f64::MIN, truth, f64::INFINITY] {
                    let out = inc.score_move_bounded(mv.0, mv.1, mv.2, bound, &kind);
                    prop_assert_eq!(out, MoveScore::Exact(got));
                }
                let fresh = sample_moves(&inst, &base, 1, &mut rng)[0];
                let want = moved_score(&mut scalar, &inst, &base, fresh, &kind);
                let got = inc.score_move(fresh.0, fresh.1, fresh.2, &kind);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{} after {:?}: fresh move {:?}", kind.label(), mv, fresh
                );
                prop_assert_eq!(inc.base_score(&kind).to_bits(), base_truth.to_bits());
            }
        }
    }

    /// The cell-lane kernel: every lane of `score_cells` equals
    /// `score_move` of the same cell bit for bit — under the five
    /// objective kinds and a weighted blend without flowtime — on
    /// nondecreasing cell lists: random cells on
    /// both sides of the task's own position with a repeated cell, the
    /// full grid of a Y-limited ranking prefix, every machine at one
    /// position, one machine (Y = 1) at every position, a single lane,
    /// and the last valid position (the last string position for a
    /// sink). Every lane counts one scoring. Afterwards a fresh
    /// `score_move` and `base_score` still read the base, so the lane
    /// replay restored the shared scratch. Instances include a single
    /// machine and edgeless DAGs.
    #[test]
    fn lane_scores_equal_score_move_bit_for_bit(
        k in 1usize..25,
        l in 1usize..6,
        p in 0.0f64..0.9,
        inst_seed in any::<u64>(),
        use_layered in prop::bool::ANY,
        shape in 0usize..3,
        seed in any::<u64>(),
    ) {
        let inst = match shape {
            0 => build_instance(k, l, p, inst_seed, use_layered),
            1 => build_instance(k, 1, p, inst_seed, use_layered),
            _ => build_instance(k, l, 0.0, inst_seed, false),
        };
        let l = inst.machine_count();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let mut oracle = IncrementalEvaluator::with_snapshot(&snap);
        oracle.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let kinds = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::LoadBalance,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.0, balance: 1.0 },
        ];
        // Two random tasks, the string's first task (a source) and its
        // last (a sink, whose range ends at the last string position).
        let tasks = [
            TaskId::new(rng.gen_range(0..k as u32)),
            TaskId::new(rng.gen_range(0..k as u32)),
            base.segment_at(0).task,
            base.segment_at(k - 1).task,
        ];
        for t in tasks {
            let (lo, hi) = base.valid_range(g, t);
            let own = base.position_of(t);
            let any_machine = |rng: &mut ChaCha8Rng| MachineId::from_usize(rng.gen_range(0..l));
            let ranking = inst.system().machine_ranking(t);
            let prefix = &ranking[..rng.gen_range(1..=l)];
            let mut random: Vec<(usize, MachineId)> = Vec::new();
            for pos in [lo, own, hi] {
                random.push((pos, any_machine(&mut rng)));
            }
            for _ in 0..rng.gen_range(0..8) {
                random.push((rng.gen_range(lo..=hi), any_machine(&mut rng)));
            }
            random.push(random[rng.gen_range(0..random.len())]);
            random.sort_by_key(|&(pos, _)| pos);
            let at = rng.gen_range(lo..=hi);
            let cell_lists: Vec<Vec<(usize, MachineId)>> = vec![
                random,
                (lo..=hi).flat_map(|pos| prefix.iter().map(move |&m| (pos, m))).collect(),
                (0..l).map(|m| (at, MachineId::from_usize(m))).collect(),
                (lo..=hi).map(|pos| (pos, ranking[0])).collect(),
                vec![(rng.gen_range(lo..=hi), any_machine(&mut rng))],
                vec![(hi, any_machine(&mut rng)), (hi, base.machine_of(t))],
            ];
            for cells in &cell_lists {
                let positions: Vec<usize> = cells.iter().map(|c| c.0).collect();
                let machines: Vec<MachineId> = cells.iter().map(|c| c.1).collect();
                for kind in kinds {
                    let before = inc.evaluations();
                    let mut out = vec![f64::NAN; cells.len()];
                    inc.score_cells(t, &positions, &machines, &kind, &mut out);
                    for (&(pos, m), &got) in cells.iter().zip(&out) {
                        let want = oracle.score_move(t, pos, m, &kind);
                        prop_assert_eq!(
                            got.to_bits(), want.to_bits(),
                            "{}: {} -> ({}, {}) in {:?}",
                            kind.label(), t, pos, m, cells
                        );
                    }
                    prop_assert_eq!(
                        inc.evaluations() - before,
                        cells.len() as u64,
                        "one scoring per lane"
                    );
                    let fresh = sample_moves(&inst, &base, 1, &mut rng)[0];
                    let want = moved_score(&mut scalar, &inst, &base, fresh, &kind);
                    let got = inc.score_move(fresh.0, fresh.1, fresh.2, &kind);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "fresh move {:?}", fresh);
                    prop_assert_eq!(
                        inc.base_score(&kind).to_bits(),
                        scalar.objective_value(&base, &kind).to_bits()
                    );
                }
            }
        }
    }

    /// Every scoring route against the report, which always folds every
    /// component. Under each built-in kind, blends that leave out the
    /// flowtime term, the makespan and balance terms, and nothing, and a
    /// custom objective under the default declaration: every
    /// `score_cells` lane of a task's full relocation grid, every
    /// `score_move` of the same cells, `base_score`, and
    /// `Evaluator::objective_value` of each materialized candidate equal
    /// the candidate's report score bit for bit (`objective_from_report`
    /// for a kind, the report's fold for the custom objective). The
    /// objectives interleave on one pair of evaluators, so a component
    /// one kernel left unfolded cannot leak into the next scoring.
    #[test]
    fn every_scoring_route_equals_the_full_fold_report(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let w =
            |makespan, flowtime, balance| ObjectiveKind::Weighted { makespan, flowtime, balance };
        let [a, b, c, d] = ObjectiveKind::BASIC;
        let kinds = [a, b, c, d, w(1.0, 0.0, 1.0), w(0.0, 1.0, 0.0), w(1.0, 0.5, 0.25)];
        let mut objectives: Vec<(String, &dyn Objective)> =
            kinds.iter().map(|kind| (kind.label(), kind as &dyn Objective)).collect();
        objectives.push(("custom".to_string(), &BusiestMachine));
        let oracle = |i: usize, report: &ScheduleReport| match kinds.get(i) {
            Some(kind) => objective_from_report(kind, report),
            None => report_fold_score(objectives[i].1, report),
        };
        let base_report = scalar.report(&base);
        for (i, (label, obj)) in objectives.iter().enumerate() {
            let want = oracle(i, &base_report).to_bits();
            prop_assert_eq!(inc.base_score(*obj).to_bits(), want, "{}: base", label);
        }
        for _ in 0..2 {
            let t = TaskId::new(rng.gen_range(0..k as u32));
            let (lo, hi) = base.valid_range(g, t);
            let l = inst.machine_count();
            let cells: Vec<(usize, MachineId)> = (lo..=hi)
                .flat_map(|pos| (0..l).map(move |m| (pos, MachineId::from_usize(m))))
                .collect();
            let positions: Vec<usize> = cells.iter().map(|c| c.0).collect();
            let machines: Vec<MachineId> = cells.iter().map(|c| c.1).collect();
            let reports: Vec<(Solution, ScheduleReport)> = cells
                .iter()
                .map(|&(pos, m)| {
                    let mut cand = base.clone();
                    cand.move_task(g, t, pos, m).unwrap();
                    let report = scalar.report(&cand);
                    (cand, report)
                })
                .collect();
            for (i, (label, obj)) in objectives.iter().enumerate() {
                let mut lanes = vec![f64::NAN; cells.len()];
                inc.score_cells(t, &positions, &machines, *obj, &mut lanes);
                for (j, &(pos, m)) in cells.iter().enumerate() {
                    let (cand, report) = &reports[j];
                    let want = oracle(i, report).to_bits();
                    let cell = format!("{label}: {t} -> ({pos}, {m})");
                    prop_assert_eq!(lanes[j].to_bits(), want, "{} lane", cell);
                    let moved = inc.score_move(t, pos, m, *obj);
                    prop_assert_eq!(moved.to_bits(), want, "{} score_move", cell);
                    let pass = scalar.objective_value(cand, *obj);
                    prop_assert_eq!(pass.to_bits(), want, "{} full pass", cell);
                }
            }
        }
    }
}

proptest! {
    // Many small scans: ties between cells and with the floor are what
    // the stop rule must get right.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The floor walk is exact. On float costs and on small-integer costs
    /// (where cells tie, with each other and with the floor), with zero
    /// transfers among them, on 1–8 machines and Y-limited machine
    /// lists: a lone floor lane scores at most (`total_cmp`) every cell
    /// of the grid, and `best_relocation` commits the first minimum of
    /// the exact scores under makespan and `weighted:1,0,0` at 1, 2 and 8
    /// threads, charging one evaluation per cell and replaying the lanes
    /// of the walk up to the first group that meets the floor.
    #[test]
    fn floor_walk_is_the_full_grid_first_minimum(
        k in 1usize..30,
        l in 1usize..=8,
        p in 0.0f64..0.9,
        costs in 0usize..4,
        inst_seed in any::<u64>(),
        use_layered in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(inst_seed);
        let graph = if use_layered {
            let cfg =
                LayeredConfig { tasks: k, mean_width: (k / 3).max(1), edge_prob: p, skip_prob: 0.0 };
            layered(&cfg, &mut rng).unwrap()
        } else {
            erdos_dag(k, p, &mut rng).unwrap()
        };
        // Float or small-integer execution times, and float,
        // small-integer or zero transfers.
        let integer = costs % 2 == 1;
        let exec = Matrix::from_fn(l, k, |_, _| {
            if integer { rng.gen_range(1..=4) as f64 } else { rng.gen_range(1.0..50.0) }
        });
        let transfer = Matrix::from_fn(l * (l - 1) / 2, graph.data_count(), |_, _| match costs {
            0 => rng.gen_range(0.0..20.0),
            1 => rng.gen_range(0..=3) as f64,
            _ => 0.0,
        });
        let sys = HcSystem::with_anonymous_machines(l, exec, transfer).unwrap();
        let inst = HcInstance::new(graph, sys).unwrap();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = random_solution(&inst, &mut rng);
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let pools: Vec<rayon::ThreadPool> = [1usize, 2, 8]
            .into_iter()
            .map(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap())
            .collect();
        let kinds = [
            ObjectiveKind::Makespan,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.0, balance: 0.0 },
        ];
        for _ in 0..4 {
            let t = TaskId::new(rng.gen_range(0..k as u32));
            let (lo, hi) = base.valid_range(g, t);
            let mut machines = inst.system().machine_ranking(t);
            machines.truncate(rng.gen_range(1..=l));
            let own = (t, base.position_of(t), base.machine_of(t));
            let grid: Vec<(TaskId, usize, MachineId)> = (lo..=hi)
                .flat_map(|p| machines.iter().map(move |&m| (t, p, m)))
                .filter(|&cell| cell != own)
                .collect();
            for kind in kinds {
                prop_assert!(kind.never_falls_on_insertion());
                let scores = BatchEvaluator::new(&snap).score_task_moves(&base, &grid, &kind);
                let mut floor = [f64::NAN];
                inc.score_cells(t, &[k], &[MachineId::new(0)], &kind, &mut floor);
                for (&(_, pos, m), score) in grid.iter().zip(&scores) {
                    prop_assert!(
                        floor[0].total_cmp(score).is_le(),
                        "{}: floor {} above cell ({}, {}) at {}", kind.label(), floor[0], pos, m, score
                    );
                }
                let want = scores
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(i, &s)| (grid[i].1, grid[i].2, s.to_bits()));
                let lanes = floor_walk_lanes(&snap, &base, t, (lo, hi), &machines, &kind) as u64;
                for (pool, threads) in pools.iter().zip([1, 2, 8]) {
                    let mut batch = BatchEvaluator::new(&snap);
                    let got =
                        pool.install(|| batch.best_relocation(&base, t, lo..=hi, &machines, &kind));
                    let got = got.map(|r| (r.pos, r.machine, r.score.to_bits()));
                    let label = format!("{}, {threads} threads", kind.label());
                    prop_assert_eq!(got, want, "{}", label);
                    prop_assert_eq!(batch.evaluations(), grid.len() as u64, "{}", label);
                    prop_assert_eq!(batch.scan_stats().scored, lanes, "{}", label);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A long-lived evaluator is a fresh one. SE's allocation shape: a
    /// chain of relocation scans, each followed by committing its
    /// winner, scored on one `BatchEvaluator` whose arenas keep (and
    /// advance) their primes from scan to scan, equals the same chain
    /// scored on a fresh evaluator per step: winners, score bits,
    /// evaluations and replayed lanes, under the five objectives and
    /// `weighted:1,0,0`, at 1, 2 and 8 threads, on Y-limited machine
    /// lists.
    #[test]
    fn relocation_chains_match_a_fresh_evaluator_per_step(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let g = inst.graph();
        let (k, l) = (inst.task_count(), inst.machine_count());
        let snap = EvalSnapshot::new(&inst);
        let kinds = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::LoadBalance,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 },
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.0, balance: 0.0 },
        ];
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for kind in kinds {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut sol = random_solution(&inst, &mut rng);
                let mut long = BatchEvaluator::new(&snap);
                for step in 0..16 {
                    let t = TaskId::new(rng.gen_range(0..k as u32));
                    let (lo, hi) = sol.valid_range(g, t);
                    let mut machines = inst.system().machine_ranking(t);
                    machines.truncate(rng.gen_range(1..=l));
                    let mut fresh = BatchEvaluator::new(&snap);
                    let (evals, scored) = (long.evaluations(), long.scan_stats().scored);
                    let (got, want) = pool.install(|| {
                        (
                            long.best_relocation(&sol, t, lo..=hi, &machines, &kind),
                            fresh.best_relocation(&sol, t, lo..=hi, &machines, &kind),
                        )
                    });
                    let label = format!("{}, {threads} threads, step {step}", kind.label());
                    let cell = |r: Option<Relocation>| {
                        r.map(|r| (r.pos, r.machine, r.score.to_bits()))
                    };
                    prop_assert_eq!(cell(got), cell(want), "{}", label);
                    prop_assert_eq!(long.evaluations() - evals, fresh.evaluations(), "{}", label);
                    prop_assert_eq!(
                        long.scan_stats().scored - scored,
                        fresh.scan_stats().scored,
                        "{}",
                        label
                    );
                    if let Some(r) = got {
                        sol.move_task(g, t, r.pos, r.machine).unwrap();
                    }
                }
            }
        }
    }
}
