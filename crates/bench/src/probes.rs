//! Shared workload shapes for the evaluation-throughput probes.
//!
//! The criterion `batch_candidates`/`relocation_scan` groups and the
//! `bench_eval` binary (the `BENCH_eval.json` emitter) must measure the
//! *same* candidate grids so their numbers stay comparable; both build
//! them here.

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{Descent, Solution};
use mshc_taskgraph::TaskId;
use rand::Rng;

/// The SE allocation-scan shape at its widest: picks the task of `base`
/// with the widest valid range (ties to the lowest id) and returns its
/// full `(position × machine)` candidate grid minus the incumbent
/// placement — the biggest realistic single-task fan-out on this
/// instance.
pub fn widest_move_grid(inst: &HcInstance, base: &Solution) -> (TaskId, Vec<(usize, MachineId)>) {
    let g = inst.graph();
    let t = g
        .tasks()
        .max_by_key(|&t| {
            let (lo, hi) = base.valid_range(g, t);
            hi - lo
        })
        .expect("non-empty graph");
    let (lo, hi) = base.valid_range(g, t);
    let moves = (lo..=hi)
        .flat_map(|pos| (0..inst.machine_count()).map(move |m| (pos, MachineId::from_usize(m))))
        .filter(|&(pos, m)| pos != base.position_of(t) || m != base.machine_of(t))
        .collect();
    (t, moves)
}

/// The reconvergence-splice scan shape: every adjacent pair of
/// dependency-free segments on *different* machines yields the
/// transposition move `(left task, pos + 1, its own machine)`. Swapping
/// such a pair permutes the string without changing any per-machine
/// execution order or any transfer, so the replayed tail re-coincides
/// with the base walk and the splice fast path finishes the candidate
/// at the next checkpoint boundary.
///
/// The `spliced_fraction` series is measured on this grid.
/// [`widest_move_grid`] cannot exercise splicing: its single-task
/// fan-out puts the disturbed window's ceiling late in the string for
/// most candidates and the bound prunes 99%+ of them before any tail
/// could reconverge, which is why the series read 0.0 until it got its
/// own probe.
pub fn splice_move_grid(inst: &HcInstance, base: &Solution) -> Vec<(TaskId, usize, MachineId)> {
    let g = inst.graph();
    base.segments()
        .windows(2)
        .enumerate()
        .filter(|(_, w)| {
            w[0].machine != w[1].machine && g.successors(w[0].task).all(|s| s != w[1].task)
        })
        .map(|(p, w)| (w[0].task, p + 1, w[0].machine))
        .collect()
}

/// A converged-regime GA generation: `count` offspring bred from
/// `parents` with the default `GaConfig` operator mix at the selection
/// fixpoint, where crossover of near-identical parents is the identity.
/// Per child (matching the 0.6 crossover / 0.4 + 0.4 mutation rates):
/// 36% no effective mutation (a clone), 24% one scheduling move, 24%
/// one matching move, 16% both mutations on distinct tasks. Each child
/// carries the same [`Descent`] the GA's generation loop would record,
/// so `BatchEvaluator::score_population` sees exactly the shape the
/// parent-primed prefix-splicing path is built for; the
/// `ga_prefix_speedup_vs_full` series is measured on this cohort.
/// Needs at least two machines.
pub fn ga_offspring_cohort(
    inst: &HcInstance,
    parents: &[Solution],
    count: usize,
    rng: &mut impl Rng,
) -> (Vec<Solution>, Vec<Descent>) {
    // One random in-range relocation of a random task, machine kept;
    // None if the draw was a no-op (the incumbent position).
    fn sched_move(
        inst: &HcInstance,
        child: &mut Solution,
        rng: &mut impl Rng,
    ) -> Option<(TaskId, usize)> {
        let g = inst.graph();
        let t = TaskId::from_usize(rng.gen_range(0..inst.task_count()));
        let (lo, hi) = child.valid_range(g, t);
        let pos = rng.gen_range(lo..=hi);
        (pos != child.position_of(t)).then(|| {
            child.move_task(g, t, pos, child.machine_of(t)).expect("in-range");
            (t, pos)
        })
    }
    // A random reassignment of a random task to a different machine.
    fn match_move(
        inst: &HcInstance,
        child: &mut Solution,
        rng: &mut impl Rng,
    ) -> (TaskId, usize, MachineId) {
        let l = inst.machine_count();
        let t = TaskId::from_usize(rng.gen_range(0..inst.task_count()));
        let m = MachineId::from_usize((child.machine_of(t).index() + rng.gen_range(1..l)) % l);
        let pos = child.position_of(t);
        child.move_task(inst.graph(), t, pos, m).expect("same position");
        (t, pos, m)
    }
    let k = inst.task_count();
    let mut children = Vec::with_capacity(count);
    let mut descents = Vec::with_capacity(count);
    for i in 0..count {
        let parent = i % parents.len();
        let mut child = parents[parent].clone();
        let r: f64 = rng.gen();
        let descent = if r < 0.36 {
            // No effective mutation (crossover of converged parents is
            // the identity): the child IS the parent.
            Descent::Clone { parent }
        } else if r < 0.60 {
            match sched_move(inst, &mut child, rng) {
                Some((t, pos)) => {
                    Descent::Move { parent, task: t, pos, machine: child.machine_of(t) }
                }
                None => Descent::Clone { parent },
            }
        } else if r < 0.84 {
            let (t, pos, m) = match_move(inst, &mut child, rng);
            Descent::Move { parent, task: t, pos, machine: m }
        } else {
            // Both mutations on (usually) distinct tasks — the GA
            // classifies these by measured first divergence.
            sched_move(inst, &mut child, rng);
            match_move(inst, &mut child, rng);
            let diverge = parents[parent]
                .segments()
                .iter()
                .zip(child.segments())
                .position(|(a, b)| a != b)
                .unwrap_or(k);
            match diverge {
                d if d == k => Descent::Clone { parent },
                0 => Descent::Fresh,
                d => Descent::Suffix { parent, diverge: d },
            }
        };
        children.push(child);
        descents.push(descent);
    }
    (children, descents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_workloads::WorkloadSpec;
    use rand::SeedableRng;

    /// The splice grid must actually splice: scoring it with the fast
    /// path on finishes a healthy share of the candidates via
    /// reconvergence (the `spliced_fraction` series would silently read
    /// 0.0 again if the probe shape ever regressed), and every score is
    /// still bit-identical to a full pass over the mutated solution.
    #[test]
    fn splice_grid_reconverges_and_scores_exactly() {
        use mshc_schedule::{EvalSnapshot, Evaluator, IncrementalEvaluator, ObjectiveKind};
        let inst = WorkloadSpec::small(3).generate();
        let g = inst.graph();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let moves = splice_move_grid(&inst, &base);
        assert!(!moves.is_empty(), "a mixed random base has cross-machine adjacencies");
        let snapshot = EvalSnapshot::new(&inst);
        let obj = ObjectiveKind::Makespan;
        let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
        inc.set_pruning(false);
        inc.prime(&base);
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let mut scratch = base.clone();
        for &(t, pos, m) in &moves {
            let (lo, hi) = base.valid_range(g, t);
            assert!((lo..=hi).contains(&pos), "transposition stays in the valid range");
            let spliced = inc.score_move(t, pos, m, &obj);
            scratch.clone_from(&base);
            scratch.move_task(g, t, pos, m).expect("in-range");
            assert_eq!(spliced, eval.objective_value(&scratch, &obj));
        }
        let stats = inc.stats();
        assert!(
            stats.spliced_fraction() > 0.5,
            "schedule-neutral transpositions must mostly splice, got {:.3} of {}",
            stats.spliced_fraction(),
            stats.scored,
        );
    }

    /// The GA cohort is valid input for `score_population`: every child
    /// scores bit-identically to a scalar pass, the converged-regime
    /// operator mix shows up (clones, moves and measured-divergence
    /// suffixes all present), and every descent label is truthful.
    #[test]
    fn ga_cohort_is_honest_and_scores_exactly() {
        use mshc_schedule::{BatchEvaluator, EvalSnapshot, Evaluator, ObjectiveKind};
        let inst = WorkloadSpec::small(3).generate();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let parents: Vec<_> =
            (0..4).map(|_| mshc_schedule::random_solution(&inst, &mut rng)).collect();
        let (children, descents) = ga_offspring_cohort(&inst, &parents, 60, &mut rng);
        assert_eq!(children.len(), 60);
        let clones = descents.iter().filter(|d| matches!(d, Descent::Clone { .. })).count();
        let moves = descents.iter().filter(|d| matches!(d, Descent::Move { .. })).count();
        let suffixes = descents.iter().filter(|d| matches!(d, Descent::Suffix { .. })).count();
        assert!(clones > 0 && moves > 0 && suffixes > 0, "{clones} / {moves} / {suffixes}");
        for (child, d) in children.iter().zip(&descents) {
            match *d {
                Descent::Clone { parent } => assert_eq!(child, &parents[parent]),
                Descent::Move { parent, task, pos, machine } => {
                    let mut rebuilt = parents[parent].clone();
                    rebuilt.move_task(inst.graph(), task, pos, machine).expect("in-range");
                    assert_eq!(child, &rebuilt);
                }
                Descent::Suffix { parent, diverge } => {
                    assert_eq!(child.segments()[..diverge], parents[parent].segments()[..diverge]);
                    assert_ne!(child.segments()[diverge], parents[parent].segments()[diverge]);
                }
                Descent::Fresh => {}
            }
        }
        let snapshot = EvalSnapshot::new(&inst);
        let obj = ObjectiveKind::Makespan;
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let parent_costs: Vec<f64> =
            parents.iter().map(|p| eval.objective_value(p, &obj)).collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let scores = pool.install(|| {
            let mut batch = BatchEvaluator::new(&snapshot);
            batch.score_population(&parents, &parent_costs, &children, &descents, &obj)
        });
        for (child, score) in children.iter().zip(&scores) {
            assert_eq!(*score, eval.objective_value(child, &obj));
        }
    }

    #[test]
    fn grid_excludes_incumbent_and_stays_in_range() {
        let inst = WorkloadSpec::small(3).generate();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let (t, moves) = widest_move_grid(&inst, &base);
        let (lo, hi) = base.valid_range(inst.graph(), t);
        assert!(!moves.is_empty());
        for &(pos, m) in &moves {
            assert!((lo..=hi).contains(&pos));
            assert!(m.index() < inst.machine_count());
            assert!(pos != base.position_of(t) || m != base.machine_of(t));
        }
        assert_eq!(moves.len(), (hi - lo + 1) * inst.machine_count() - 1);
    }
}
