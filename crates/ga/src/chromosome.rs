//! The two-string chromosome of Wang et al.'s encoding.
//!
//! Kept only for the benchmark under `perfbench/`; delete with that use.
//! The GA itself breeds [`Solution`]s through [`crate::operators`], and
//! these string operators remain the reference its crossover is tested
//! against.

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::Solution;
use mshc_taskgraph::TaskId;

/// One individual as two strings: a scheduling string plus a matching
/// string.
///
/// Kept only for the benchmark under `perfbench/`; delete with that use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chromosome {
    /// Scheduling string: a topological order of all tasks.
    pub order: Vec<TaskId>,
    /// Matching string: `matching[t.index()]` = machine of task `t`.
    pub matching: Vec<MachineId>,
}

impl Chromosome {
    /// Converts to the combined-string [`Solution`].
    ///
    /// # Panics
    /// If `order` is not a linear extension or a machine is out of range.
    pub fn to_solution(&self, inst: &HcInstance) -> Solution {
        Solution::from_order(inst.graph(), inst.machine_count(), &self.order, &self.matching)
            .expect("chromosome invariant: valid order + in-range machines")
    }

    /// Splits a combined-string [`Solution`] back into the two-string
    /// representation — the inverse of [`to_solution`](Self::to_solution).
    pub fn from_solution(sol: &Solution) -> Chromosome {
        let order: Vec<TaskId> = sol.order().collect();
        let mut matching = vec![MachineId::from_usize(0); sol.len()];
        for seg in sol.segments() {
            matching[seg.task.index()] = seg.machine;
        }
        Chromosome { order, matching }
    }

    /// Scheduling-string crossover: keep `self`'s prefix up to `cut`
    /// (exclusive), then append the tasks missing from the prefix in the
    /// order they occur in `other`. If both parents are linear extensions
    /// the child is too.
    pub fn crossover_order(&self, other: &Chromosome, cut: usize) -> Vec<TaskId> {
        debug_assert!(cut <= self.order.len());
        let mut in_prefix = vec![false; self.order.len()];
        let mut child = Vec::with_capacity(self.order.len());
        for &t in &self.order[..cut] {
            in_prefix[t.index()] = true;
            child.push(t);
        }
        for &t in &other.order {
            if !in_prefix[t.index()] {
                child.push(t);
            }
        }
        child
    }

    /// Matching-string single-point crossover: machines for tasks with
    /// index `< cut` come from `self`, the rest from `other`. (Indexed by
    /// task id, as in the reference implementation.)
    pub fn crossover_matching(&self, other: &Chromosome, cut: usize) -> Vec<MachineId> {
        debug_assert!(cut <= self.matching.len());
        let mut child = self.matching.clone();
        child[cut..].copy_from_slice(&other.matching[cut..]);
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::random_individual;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::gen::{layered, LayeredConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn chromosome_solution_roundtrip_via_from_solution() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let cfg = LayeredConfig { tasks: 15, mean_width: 4, edge_prob: 0.5, skip_prob: 0.05 };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(3, 15, |_, _| rng.gen_range(10.0..100.0));
        let transfer = Matrix::from_fn(3, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
        let sys = HcSystem::with_anonymous_machines(3, exec, transfer).unwrap();
        let inst = HcInstance::new(graph, sys).unwrap();
        for _ in 0..20 {
            let sol = random_individual(&inst, &mut rng);
            let back = Chromosome::from_solution(&sol);
            assert!(inst.graph().is_linear_extension(&back.order));
            assert_eq!(back.to_solution(&inst), sol, "round-trip preserves the schedule");
        }
    }
}
