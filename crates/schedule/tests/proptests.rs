//! Property tests for the solution substrate: encoding invariants,
//! evaluator semantics and the DES cross-check, on random instances
//! built without the workload crate (kept dependency-light).

use mshc_platform::{HcInstance, HcSystem, MachineId, Matrix};
use mshc_schedule::{
    objective_from_report, random_solution, replay, replay_with, BatchEvaluator, Descent,
    EvalSnapshot, Evaluator, Gantt, IncrementalEvaluator, MoveScore, NetworkModel, Objective,
    ObjectiveKind, Solution,
};
use mshc_taskgraph::gen::{erdos_dag, layered, LayeredConfig};
use mshc_taskgraph::TaskId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
                kind.name()
            );
        }
        // The report carries the same values.
        let report = eval.report(&sol);
        let o = report.objectives();
        prop_assert!((o.makespan - sim.makespan).abs() < 1e-9);
        prop_assert!((o.total_flowtime - sim.total_flowtime).abs() < 1e-9);
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
                prop_assert_eq!(scalar.objective_value(sol, &kind), score, "{}", kind.name());
            }
        }
    }

    /// The incremental move evaluator is bit-identical to a full
    /// re-evaluation of the materialized move, for **every** objective
    /// kind, on random workloads, random moves and checkpoint strides
    /// from 1 to beyond the task count (stride must never change a bit;
    /// it is a pure memory/speed trade-off).
    #[test]
    fn incremental_score_move_equals_full_reevaluation(
        inst in instance_strategy(),
        seed in any::<u64>(),
        stride_sel in 0usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let stride = match stride_sel {
            0 => Some(1),
            1 => Some(2),
            2 => Some((k / 2).max(1)),
            3 => Some(k + 7), // beyond k: degenerates to replay-from-zero
            _ => None,        // auto ⌈√k⌉
        };
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.set_stride(stride);
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
                    fast, slow,
                    "{} stride {:?}: move ({}, {}, {})", kind.name(), stride, t, pos, m
                );
            }
        }
    }

    /// The batch argmins commit exactly what a score-everything-then-fold
    /// scan commits: tabu's mixed-task argmin matches a sequential
    /// first-minimum fold with the admissibility/aspiration rule — same
    /// index (tie-breaks included), same exact score, same evaluation
    /// count — across random workloads, strides and thread counts, and
    /// SE's relocation argmin matches a first-minimum fold over its grid.
    #[test]
    fn argmin_scans_commit_the_sequential_choice(
        inst in instance_strategy(),
        seed in any::<u64>(),
        stride_sel in 0usize..3,
        threads_sel in 0usize..3,
        kind_sel in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = inst.graph();
        let k = inst.task_count();
        let base = random_solution(&inst, &mut rng);
        let moves = sample_moves(&inst, &base, 24, &mut rng);
        let stride = [Some(1), Some((k / 2).max(1)), None][stride_sel];
        let threads = [1usize, 2, 8][threads_sel];
        let kind = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        ][kind_sel];
        let snap = EvalSnapshot::new(&inst);
        // Reference: exact scores, sequential fold.
        let scores = BatchEvaluator::new(&snap).score_task_moves(g, &base, &moves, &kind);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();

        // Plain argmin (admit everything).
        let mut batch = BatchEvaluator::new(&snap).with_stride(stride);
        let got = pool.install(|| batch.best_task_move(g, &base, &moves, None, 0.0, &kind));
        let want = reference_choice(&scores, None, 0.0);
        prop_assert_eq!(got.map(|b| (b.index, b.score)), want, "plain argmin, {threads} threads");
        prop_assert_eq!(batch.evaluations(), moves.len() as u64, "one evaluation per candidate");

        // Tabu-style rule: random admissibility + a mid-range aspiration.
        let admissible: Vec<bool> = (0..moves.len()).map(|_| rng.gen_bool(0.5)).collect();
        let aspiration =
            scores[rng.gen_range(0..scores.len())] * [0.9, 1.0, 1.1][rng.gen_range(0..3)];
        let got = pool.install(|| {
            BatchEvaluator::new(&snap).with_stride(stride).best_task_move(
                g, &base, &moves, Some(&admissible), aspiration, &kind,
            )
        });
        let want = reference_choice(&scores, Some(&admissible), aspiration);
        prop_assert_eq!(
            got.map(|b| (b.index, b.score)), want,
            "aspiration {aspiration}, {threads} threads, stride {:?}", stride
        );

        // The relocation grid scan (SE's shape: positions × machines in
        // pos-major order, the base's own cell excluded) agrees with
        // exact scores plus a first-minimum fold, and counts one
        // evaluation per cell.
        let t = moves[0].0;
        let (lo, hi) = base.valid_range(g, t);
        let machines: Vec<MachineId> =
            (0..inst.machine_count()).map(MachineId::from_usize).collect();
        let own = (base.position_of(t), base.machine_of(t));
        let grid: Vec<(usize, MachineId)> = (lo..=hi)
            .flat_map(|p| machines.iter().map(move |&m| (p, m)))
            .filter(|&cell| cell != own)
            .collect();
        let grid_scores = BatchEvaluator::new(&snap).score_moves(g, &base, t, &grid, &kind);
        let want = grid_scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (grid[i].0, grid[i].1, s.to_bits()));
        let mut batch = BatchEvaluator::new(&snap).with_stride(stride);
        let got = pool.install(|| batch.best_relocation(g, &base, t, lo..=hi, &machines, &kind));
        prop_assert_eq!(got.map(|r| (r.pos, r.machine, r.score.to_bits())), want, "grid scan");
        prop_assert_eq!(batch.evaluations(), grid.len() as u64);
        prop_assert_eq!(batch.scan_stats().scored, grid.len() as u64);
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
            prop_assert_eq!(bits(&got), bits(&want), "{}", kind.name());
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
        stride_sel in 0usize..4,
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
        let stride = [Some(1), Some(2), Some((k / 2).max(1)), None][stride_sel];
        let kind = [
            ObjectiveKind::Makespan,
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::LoadBalance,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        ][kind_sel];
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.set_stride(stride);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let base_truth = scalar.objective_value(&base, &kind);
        for (t, pos, m) in sample_moves(&inst, &base, 8, &mut rng) {
            let home = base.machine_of(t);
            let away = MachineId::from_usize((home.index() + 1) % l);
            for mv in [(t, pos, home), (t, pos, away), (t, pos, m), (t, base.position_of(t), home)] {
                let truth = moved_score(&mut scalar, &inst, &base, mv, &kind);
                let got = inc.score_move(mv.0, mv.1, mv.2, &kind);
                prop_assert_eq!(got.to_bits(), truth.to_bits(), "{} move {:?}", kind.name(), mv);
                for bound in [f64::MIN, truth, f64::INFINITY] {
                    let out = inc.score_move_bounded(mv.0, mv.1, mv.2, bound, &kind);
                    prop_assert_eq!(out, MoveScore::Exact(got));
                }
                let fresh = sample_moves(&inst, &base, 1, &mut rng)[0];
                let want = moved_score(&mut scalar, &inst, &base, fresh, &kind);
                let got = inc.score_move(fresh.0, fresh.1, fresh.2, &kind);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{} after {:?}: fresh move {:?}", kind.name(), mv, fresh
                );
                prop_assert_eq!(inc.base_score(&kind).to_bits(), base_truth.to_bits());
            }
        }
    }

    /// The machine-lane kernel: every lane of `score_position` equals
    /// `score_move` of the same candidate bit for bit — under every
    /// objective, at every stride, for positions left of, right of and
    /// at the task's own, over all machines, a Y-limited ranking prefix
    /// and a single machine. Afterwards a fresh `score_move` and
    /// `base_score` still read the base, so the lane replay restored
    /// the shared scratch. Instances include a single machine and
    /// edgeless DAGs.
    #[test]
    fn lane_scores_equal_score_move_bit_for_bit(
        k in 1usize..25,
        l in 1usize..6,
        p in 0.0f64..0.9,
        inst_seed in any::<u64>(),
        use_layered in prop::bool::ANY,
        shape in 0usize..3,
        seed in any::<u64>(),
        stride_sel in 0usize..4,
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
        let stride = [Some(1), None, Some(k), Some(k + 17)][stride_sel];
        let snap = EvalSnapshot::new(&inst);
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.set_stride(stride);
        inc.prime(&base);
        let mut oracle = IncrementalEvaluator::with_snapshot(&snap);
        oracle.set_stride(stride);
        oracle.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 };
        for _ in 0..4 {
            let t = TaskId::new(rng.gen_range(0..k as u32));
            let (lo, hi) = base.valid_range(g, t);
            let own = base.position_of(t);
            let mut positions = vec![lo, own, hi, rng.gen_range(lo..=hi)];
            positions.dedup();
            let ranking = inst.system().machine_ranking(t);
            let all: Vec<MachineId> = (0..l).map(MachineId::from_usize).collect();
            let lane_sets = [
                all,
                ranking[..rng.gen_range(1..=l)].to_vec(),
                vec![MachineId::from_usize(rng.gen_range(0..l))],
            ];
            for machines in &lane_sets {
                for &pos in &positions {
                    for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
                        let before = inc.evaluations();
                        let mut out = vec![f64::NAN; machines.len()];
                        inc.score_position(t, pos, machines, &kind, &mut out);
                        for (&m, &got) in machines.iter().zip(&out) {
                            let want = oracle.score_move(t, pos, m, &kind);
                            prop_assert_eq!(
                                got.to_bits(), want.to_bits(),
                                "{} stride {:?}: {} -> ({}, {})", kind.name(), stride, t, pos, m
                            );
                        }
                        let own_cells = machines
                            .iter()
                            .filter(|&&m| pos == own && m == base.machine_of(t))
                            .count();
                        prop_assert_eq!(
                            inc.evaluations() - before,
                            (machines.len() - own_cells) as u64,
                            "one scoring per lane, the base's own cell excluded"
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
    }
}
