//! Initial-solution generation (§4.2 of the paper).
//!
//! "To generate a valid initial solution, each subtask in the DAG is first
//! assigned randomly to a machine … Then, the DAG is topologically sorted
//! … the subtasks are placed in successive segments. This initial valid
//! string is then modified a random number of times" by moving random
//! tasks to random positions inside their valid ranges.

use crate::encoding::Solution;
use mshc_platform::{HcInstance, MachineId};
use mshc_taskgraph::{TaskGraph, TaskId, TopoOrder};
use rand::Rng;

/// Bound on §4.2's "random number of times" the initial string is
/// perturbed, per task. The paper leaves the bound open; the count is
/// drawn uniformly from `0..=2k`.
const PERTURBATIONS_PER_TASK: usize = 2;

/// Generates a random valid solution exactly as §4.2 prescribes, with
/// up to `2k` valid-range perturbations of the topological string.
pub fn random_solution<R: Rng + ?Sized>(inst: &HcInstance, rng: &mut R) -> Solution {
    let g = inst.graph();
    let l = inst.machine_count();
    // 1. Random machine per task.
    let assignment: Vec<MachineId> =
        (0..g.task_count()).map(|_| MachineId::from_usize(rng.gen_range(0..l))).collect();
    // 2. Topological sort (randomized tie-breaking, so distinct calls
    //    explore distinct regions even before perturbation).
    let order = TopoOrder::random(g, rng);
    let mut sol = Solution::from_order(g, l, order.as_slice(), &assignment)
        .expect("topological order + in-range machines is always valid");
    // 3. Random valid-range moves.
    let n = rng.gen_range(0..=PERTURBATIONS_PER_TASK * g.task_count());
    for _ in 0..n {
        perturb(&mut sol, g, rng);
    }
    sol
}

/// One random valid-range move, §4.2's perturbation (and the GA's
/// scheduling mutation): draws a task, then a position inside its valid
/// range, and moves the task there on its own machine.
pub fn perturb<R: Rng + ?Sized>(sol: &mut Solution, graph: &TaskGraph, rng: &mut R) {
    let t = TaskId::from_usize(rng.gen_range(0..graph.task_count()));
    let (lo, hi) = sol.valid_range(graph, t);
    let pos = rng.gen_range(lo..=hi);
    let m = sol.machine_of(t);
    sol.move_task(graph, t, pos, m).expect("in-range move");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::TaskGraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            3,
            Matrix::filled(3, 7, 5.0),
            Matrix::filled(3, 6, 1.0),
        )
        .unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    #[test]
    fn random_solutions_are_valid() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..100 {
            let s = random_solution(&inst, &mut rng);
            s.check(inst.graph()).unwrap();
            assert_eq!(s.len(), 7);
            assert_eq!(s.machine_count(), 3);
        }
    }

    #[test]
    fn random_solutions_vary() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let s = random_solution(&inst, &mut rng);
            distinct.insert(format!("{s:?}"));
        }
        assert!(distinct.len() > 25, "initializer must diversify ({})", distinct.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = instance();
        let a = random_solution(&inst, &mut ChaCha8Rng::seed_from_u64(33));
        let b = random_solution(&inst, &mut ChaCha8Rng::seed_from_u64(33));
        assert_eq!(a, b);
    }
}
