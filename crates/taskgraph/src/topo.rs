//! Topological orders and DAG levels.
//!
//! The paper needs two order-related facilities:
//!
//! * a **topological sort** to build the initial valid solution string
//!   (§4.2, citing Cormen et al. \[12\]);
//! * per-task **levels** — the selection step orders selected subtasks "in
//!   ascending order according to their level in the DAG" before allocation
//!   (§4.4).
//!
//! We also provide *randomized* linear extensions (every run of the SE/GA
//! initializers should start from a different valid order) with
//! deterministic behaviour under a seeded RNG.

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A topological order (linear extension) of a task graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoOrder {
    order: Vec<TaskId>,
}

impl TopoOrder {
    /// Deterministic Kahn topological sort. Among ready tasks, the one with
    /// the smallest id is emitted first, so the result is the
    /// lexicographically smallest linear extension — stable across runs and
    /// platforms.
    pub fn kahn(graph: &TaskGraph) -> TopoOrder {
        let k = graph.task_count();
        let mut indeg: Vec<u32> =
            (0..k).map(|i| graph.in_degree(TaskId::from_usize(i)) as u32).collect();
        // Min-heap via sorted insertion into a Vec kept reverse-sorted;
        // for scheduling-sized graphs (k <= a few thousand) a BinaryHeap of
        // Reverse<u32> is clearer.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            (0..k as u32).filter(|&i| indeg[i as usize] == 0).map(std::cmp::Reverse).collect();
        let mut order = Vec::with_capacity(k);
        while let Some(std::cmp::Reverse(i)) = heap.pop() {
            let t = TaskId::new(i);
            order.push(t);
            for s in graph.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    heap.push(std::cmp::Reverse(s.raw()));
                }
            }
        }
        debug_assert_eq!(order.len(), k, "TaskGraph invariant: acyclic");
        TopoOrder { order }
    }

    /// A uniformly *randomized* Kahn sort: at every step a uniformly random
    /// ready task is emitted. (This does not sample uniformly over all
    /// linear extensions — that is #P-hard — but it reaches every linear
    /// extension with nonzero probability, which is what the SE/GA
    /// initializers need.)
    pub fn random<R: Rng + ?Sized>(graph: &TaskGraph, rng: &mut R) -> TopoOrder {
        let k = graph.task_count();
        let mut indeg: Vec<u32> =
            (0..k).map(|i| graph.in_degree(TaskId::from_usize(i)) as u32).collect();
        let mut ready: Vec<TaskId> = graph.tasks().filter(|&t| indeg[t.index()] == 0).collect();
        let mut order = Vec::with_capacity(k);
        while !ready.is_empty() {
            let pick = rng.gen_range(0..ready.len());
            let t = ready.swap_remove(pick);
            order.push(t);
            for s in graph.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), k);
        TopoOrder { order }
    }

    /// The order as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[TaskId] {
        &self.order
    }

    /// Consumes the order, returning the underlying vector.
    pub fn into_vec(self) -> Vec<TaskId> {
        self.order
    }

    /// Position of each task in the order: `position()[t.index()]` is the
    /// index at which `t` appears.
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.order.len()];
        for (i, &t) in self.order.iter().enumerate() {
            pos[t.index()] = i as u32;
        }
        pos
    }
}

/// Per-task DAG levels.
///
/// `level(t)` is the length (in edges) of the longest path from any entry
/// task to `t`; entry tasks have level 0. The SE selection step sorts
/// selected tasks by ascending level (§4.4) so that when a task is
/// re-allocated, its re-allocated predecessors have already settled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Levels {
    levels: Vec<u32>,
    max_level: u32,
}

impl Levels {
    /// Computes levels with one pass over a topological order.
    pub fn compute(graph: &TaskGraph) -> Levels {
        let order = TopoOrder::kahn(graph);
        let mut levels = vec![0u32; graph.task_count()];
        for &t in order.as_slice() {
            for s in graph.successors(t) {
                levels[s.index()] = levels[s.index()].max(levels[t.index()] + 1);
            }
        }
        let max_level = levels.iter().copied().max().unwrap_or(0);
        Levels { levels, max_level }
    }

    /// Level of task `t`.
    #[inline]
    pub fn level(&self, t: TaskId) -> u32 {
        self.levels[t.index()]
    }

    /// Largest level in the graph (== number of "layers" − 1).
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// All levels, indexed by task.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.levels
    }

    /// Sorts `tasks` in place by ascending level, breaking ties by task id
    /// (deterministic). This is the §4.4 ordering of the selection set.
    pub fn sort_by_level(&self, tasks: &mut [TaskId]) {
        tasks.sort_by_key(|&t| (self.levels[t.index()], t.raw()));
    }

    /// Groups tasks into layers: `layers()[l]` holds every task at level `l`.
    pub fn layers(&self) -> Vec<Vec<TaskId>> {
        let mut layers = vec![Vec::new(); self.max_level as usize + 1];
        for (i, &l) in self.levels.iter().enumerate() {
            layers[l as usize].push(TaskId::from_usize(i));
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn figure1() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        b.build().unwrap()
    }

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(4);
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(s, d).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn kahn_is_lexicographically_smallest() {
        let g = figure1();
        let o = TopoOrder::kahn(&g);
        let ids: Vec<u32> = o.as_slice().iter().map(|t| t.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(g.is_linear_extension(o.as_slice()));
    }

    #[test]
    fn kahn_on_diamond() {
        let g = diamond();
        let o = TopoOrder::kahn(&g);
        assert!(g.is_linear_extension(o.as_slice()));
        assert_eq!(o.as_slice()[0], TaskId::new(0));
        assert_eq!(o.as_slice()[3], TaskId::new(3));
    }

    #[test]
    fn random_orders_are_valid_and_vary() {
        let g = figure1();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let o = TopoOrder::random(&g, &mut rng);
            assert!(g.is_linear_extension(o.as_slice()));
            distinct.insert(o.clone().into_vec());
        }
        assert!(distinct.len() > 5, "random sort should produce variety");
    }

    #[test]
    fn random_order_is_deterministic_under_seed() {
        let g = figure1();
        let a = TopoOrder::random(&g, &mut ChaCha8Rng::seed_from_u64(99));
        let b = TopoOrder::random(&g, &mut ChaCha8Rng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn positions_invert_order() {
        let g = figure1();
        let o = TopoOrder::random(&g, &mut ChaCha8Rng::seed_from_u64(3));
        let pos = o.positions();
        for (i, &t) in o.as_slice().iter().enumerate() {
            assert_eq!(pos[t.index()] as usize, i);
        }
    }

    #[test]
    fn levels_figure1() {
        let g = figure1();
        let l = Levels::compute(&g);
        assert_eq!(l.level(TaskId::new(0)), 0);
        assert_eq!(l.level(TaskId::new(1)), 0);
        assert_eq!(l.level(TaskId::new(2)), 1);
        assert_eq!(l.level(TaskId::new(3)), 1);
        assert_eq!(l.level(TaskId::new(4)), 1);
        assert_eq!(l.level(TaskId::new(5)), 2);
        assert_eq!(l.level(TaskId::new(6)), 2);
        assert_eq!(l.max_level(), 2);
    }

    #[test]
    fn levels_respect_longest_path() {
        // 0 -> 1 -> 3, 0 -> 3: level(3) must be 2 (longest path), not 1.
        let mut b = TaskGraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 3).unwrap();
        b.add_edge(0, 3).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build().unwrap();
        let l = Levels::compute(&g);
        assert_eq!(l.level(TaskId::new(3)), 2);
        assert_eq!(l.level(TaskId::new(2)), 1);
    }

    #[test]
    fn sort_by_level_orders_selection_set() {
        let g = figure1();
        let l = Levels::compute(&g);
        let mut sel = vec![TaskId::new(5), TaskId::new(0), TaskId::new(4), TaskId::new(1)];
        l.sort_by_level(&mut sel);
        let ids: Vec<u32> = sel.iter().map(|t| t.raw()).collect();
        assert_eq!(ids, vec![0, 1, 4, 5]);
    }

    #[test]
    fn layers_partition_tasks() {
        let g = figure1();
        let l = Levels::compute(&g);
        let layers = l.layers();
        assert_eq!(layers.len(), 3);
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, g.task_count());
        assert_eq!(layers[0], vec![TaskId::new(0), TaskId::new(1)]);
    }
}
