//! Wang et al.'s operators on the combined string, in place.
//!
//! Each individual is one [`Solution`]: the scheduling string is its
//! task order and the matching string its per-task machines. The
//! operators write into a reused child, so a generation allocates
//! nothing once its buffers exist. The scheduling mutation is SE's §4.2
//! perturbation, [`mshc_schedule::perturb`].

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{Segment, Solution};
use mshc_taskgraph::{TaskGraph, TaskId, TopoOrder};
use rand::Rng;

/// A uniformly random individual: a random topological order first,
/// then one uniformly random machine per task, in task order.
pub fn random_individual<R: Rng + ?Sized>(inst: &HcInstance, rng: &mut R) -> Solution {
    let order = TopoOrder::random(inst.graph(), rng);
    let l = inst.machine_count();
    let machines: Vec<MachineId> =
        (0..inst.task_count()).map(|_| MachineId::from_usize(rng.gen_range(0..l))).collect();
    Solution::from_order(inst.graph(), l, order.as_slice(), &machines)
        .expect("a topological order with in-range machines is valid")
}

/// The non-evolutionary seed individual: the deterministic topological
/// order with every task on its best-matching machine.
pub fn seeded_individual(inst: &HcInstance) -> Solution {
    let order = TopoOrder::kahn(inst.graph());
    let machines: Vec<MachineId> =
        inst.graph().tasks().map(|t| inst.system().best_machine(t)).collect();
    Solution::from_order(inst.graph(), inst.machine_count(), order.as_slice(), &machines)
        .expect("a topological order with in-range machines is valid")
}

/// Crossover of parents `a` and `b`, written into `child`.
///
/// The scheduling string takes `a`'s first `cut_s` tasks, then the
/// remaining tasks in the order they occur in `b`; that is a linear
/// extension whenever both parents are. The matching string is cut by
/// task index: tasks with index `< cut_m` keep `a`'s machine, the rest
/// take `b`'s. The child is validated like [`Solution::new`].
///
/// # Panics
/// If a cut exceeds the task count, or the child breaks an invariant
/// (impossible for valid parents).
pub fn crossover(
    child: &mut Solution,
    graph: &TaskGraph,
    a: &Solution,
    b: &Solution,
    cut_s: usize,
    cut_m: usize,
) {
    assert!(cut_s <= a.len() && cut_m <= a.len(), "cut past the string end");
    let segment = |task: TaskId| {
        let donor = if task.index() < cut_m { a } else { b };
        Segment { task, machine: donor.machine_of(task) }
    };
    let prefix = a.segments()[..cut_s].iter().map(|s| s.task);
    let rest = b.order().filter(|&t| a.position_of(t) >= cut_s);
    child
        .rebuild(graph, prefix.chain(rest).map(segment))
        .expect("the crossover of two linear extensions is a linear extension");
}

/// Matching mutation: draws a task, then a machine, and reassigns the
/// task to it.
pub fn mutate_matching<R: Rng + ?Sized>(child: &mut Solution, rng: &mut R) {
    let t = TaskId::from_usize(rng.gen_range(0..child.len()));
    let m = MachineId::from_usize(rng.gen_range(0..child.machine_count()));
    child.reassign(t, m).expect("the machine lies in range");
}

/// The roulette wheel of one generation, over linearly rescaled
/// fitness: weight `w_i = worst - cost_i + ε·span`, so the worst
/// chromosome keeps a small nonzero chance. Built once per generation;
/// every pick walks the same weights.
#[derive(Debug, Default)]
pub(crate) struct Wheel {
    weights: Vec<f64>,
    total: f64,
}

impl Wheel {
    /// Rebuilds the weights for `costs`, reusing the buffer.
    pub(crate) fn load(&mut self, costs: &[f64]) {
        let worst = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let span = (worst - best).max(f64::MIN_POSITIVE);
        let floor = 0.05 * span;
        self.weights.clear();
        self.weights.extend(costs.iter().map(|&c| worst - c + floor));
        self.total = self.weights.iter().sum();
    }

    /// One pick: an index drawn with probability proportional to its
    /// weight (one `f64` draw).
    pub(crate) fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut target = rng.gen::<f64>() * self.total;
        for (i, &w) in self.weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::perturb;
    use mshc_taskgraph::TaskGraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let exec = Matrix::from_rows(&[
            vec![400.0, 700.0, 500.0, 300.0, 800.0, 600.0, 200.0],
            vec![600.0, 500.0, 400.0, 900.0, 435.0, 450.0, 350.0],
        ]);
        let transfer = Matrix::from_rows(&[vec![120.0, 80.0, 200.0, 60.0, 90.0, 150.0]]);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    fn uniform(inst: &HcInstance, m: u32) -> Solution {
        let mut s = seeded_individual(inst);
        for t in inst.graph().tasks() {
            s.reassign(t, MachineId::new(m)).unwrap();
        }
        s
    }

    #[test]
    fn random_individuals_valid() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            random_individual(&inst, &mut rng).check(inst.graph()).unwrap();
        }
    }

    #[test]
    fn seeded_individual_uses_best_machines() {
        let inst = instance();
        let s = seeded_individual(&inst);
        s.check(inst.graph()).unwrap();
        for t in inst.graph().tasks() {
            assert_eq!(s.machine_of(t), inst.system().best_machine(t));
        }
    }

    #[test]
    fn crossover_preserves_validity() {
        let inst = instance();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut child = seeded_individual(&inst);
        for _ in 0..200 {
            let a = random_individual(&inst, &mut rng);
            let b = random_individual(&inst, &mut rng);
            let (cut_s, cut_m) = (rng.gen_range(0..=7), rng.gen_range(0..=7));
            crossover(&mut child, g, &a, &b, cut_s, cut_m);
            child.check(g).unwrap();
        }
    }

    #[test]
    fn crossover_extremes() {
        let inst = instance();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = random_individual(&inst, &mut rng);
        let b = random_individual(&inst, &mut rng);
        let mut child = seeded_individual(&inst);
        crossover(&mut child, g, &a, &b, 7, 7);
        assert_eq!(child, a, "full cuts copy parent A");
        crossover(&mut child, g, &a, &b, 0, 0);
        assert_eq!(child, b, "empty cuts copy parent B");
    }

    #[test]
    fn crossover_mixes_machines_by_task_index() {
        let inst = instance();
        let g = inst.graph();
        let (a, b) = (uniform(&inst, 0), uniform(&inst, 1));
        let mut child = seeded_individual(&inst);
        crossover(&mut child, g, &a, &b, 4, 3);
        for t in g.tasks() {
            let want = MachineId::new(u32::from(t.index() >= 3));
            assert_eq!(child.machine_of(t), want, "{t}");
        }
    }

    #[test]
    fn mutations_preserve_validity_under_stress() {
        let inst = instance();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut s = random_individual(&inst, &mut rng);
        for _ in 0..500 {
            let before = s.clone();
            perturb(&mut s, g, &mut rng);
            s.check(g).unwrap();
            assert_eq!(s.assignment(), before.assignment(), "machines stay with their tasks");
            mutate_matching(&mut s, &mut rng);
            s.check(g).unwrap();
        }
    }

    #[test]
    fn wheel_prefers_low_cost() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut wheel = Wheel::default();
        wheel.load(&[100.0, 10.0, 100.0, 100.0]);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[wheel.pick(&mut rng)] += 1;
        }
        assert!(hits[1] > hits[0] * 3, "cheapest chromosome must dominate: {hits:?}");
        assert!(hits.iter().all(|&h| h > 0), "everyone keeps a nonzero chance: {hits:?}");
    }

    #[test]
    fn wheel_uniform_when_costs_equal() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut wheel = Wheel::default();
        wheel.load(&[5.0; 4]);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[wheel.pick(&mut rng)] += 1;
        }
        for &h in &hits {
            assert!((800..1200).contains(&h), "roughly uniform: {hits:?}");
        }
    }
}
