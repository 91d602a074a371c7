//! Structural analyses of task graphs: critical-path slack and
//! workload-characterization metrics.
//!
//! The paper classifies workloads by *connectivity* (§5, "the number of
//! data items to be transferred between the subtasks"); [`GraphMetrics`]
//! computes that plus the usual DAG shape statistics. [`SlackAnalysis`]
//! is the critical-path sweep behind the certified instance lower bound.

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::topo::TopoOrder;

/// Earliest/latest start-time schedulability analysis under a per-task
/// weight function — the classic CPM forward/backward sweep.
///
/// The forward pass computes, for every task, the earliest time it could
/// start if every predecessor ran at its weight with the given edge
/// costs; the backward pass computes the latest start that still admits
/// finishing the whole graph within the critical-path length. The
/// difference is the task's *slack*: zero-slack tasks form the critical
/// path(s), high-slack tasks are the ones a scheduler may freely delay
/// (or relocate) without extending the schedule.
///
/// With per-task cheapest execution times as weights and zero edge
/// weights this is the machine-relaxed analysis behind the certified
/// instance lower bound (`mshc-schedule`'s `lower_bound` module): no
/// feasible schedule can start `t` before `earliest[t]` or finish the
/// graph before `length`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackAnalysis {
    /// Earliest possible start time of each task.
    pub earliest: Vec<f64>,
    /// Latest start time of each task that still permits finishing
    /// within [`length`](Self::length).
    pub latest: Vec<f64>,
    /// Critical-path length: `max_t earliest[t] + weight(t)`.
    pub length: f64,
}

impl SlackAnalysis {
    /// Runs the forward/backward sweep in O(k + p). `weight(t)` is the
    /// duration of task `t`, `edge_weight(src, dst)` the delay between
    /// the finish of `src` and the earliest start of `dst` it allows.
    /// Both closures are called once per task/edge per direction.
    pub fn compute(
        graph: &TaskGraph,
        mut weight: impl FnMut(TaskId) -> f64,
        mut edge_weight: impl FnMut(TaskId, TaskId) -> f64,
    ) -> SlackAnalysis {
        let order = TopoOrder::kahn(graph);
        let k = graph.task_count();
        let w: Vec<f64> = (0..k).map(|t| weight(TaskId::from_usize(t))).collect();
        let mut earliest = vec![0.0f64; k];
        for &t in order.as_slice() {
            let finish = earliest[t.index()] + w[t.index()];
            for s in graph.successors(t) {
                let cand = finish + edge_weight(t, s);
                if cand > earliest[s.index()] {
                    earliest[s.index()] = cand;
                }
            }
        }
        let length = (0..k).map(|t| earliest[t] + w[t]).fold(0.0f64, f64::max);
        let mut latest_finish = vec![f64::INFINITY; k];
        let mut latest = vec![0.0f64; k];
        for &t in order.as_slice().iter().rev() {
            let mut lf = f64::INFINITY;
            for s in graph.successors(t) {
                let cand = latest[s.index()] - edge_weight(t, s);
                if cand < lf {
                    lf = cand;
                }
            }
            if lf == f64::INFINITY {
                lf = length; // exit task
            }
            latest_finish[t.index()] = lf;
            latest[t.index()] = lf - w[t.index()];
        }
        SlackAnalysis { earliest, latest, length }
    }

    /// Scheduling slack of `t`: how far its start may slip past the
    /// earliest without extending the critical-path length. Zero on
    /// critical tasks (up to float rounding).
    #[inline]
    pub fn slack(&self, t: TaskId) -> f64 {
        self.latest[t.index()] - self.earliest[t.index()]
    }
}

/// Shape statistics for a task graph, including the paper's connectivity
/// axis.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of tasks `k`.
    pub tasks: usize,
    /// Number of data items `p`.
    pub data_items: usize,
    /// Edge density relative to the maximal DAG: `p / (k(k-1)/2)`.
    pub density: f64,
    /// Average out-degree `p / k` — the paper's connectivity measure.
    pub avg_degree: f64,
    /// Number of levels (longest path in hops, plus one).
    pub depth: usize,
    /// Maximum number of tasks on one level (graph width).
    pub width: usize,
    /// Number of entry tasks.
    pub entries: usize,
    /// Number of exit tasks.
    pub exits: usize,
}

impl GraphMetrics {
    /// Computes all metrics in O(k + p).
    pub fn compute(graph: &TaskGraph) -> GraphMetrics {
        let levels = crate::topo::Levels::compute(graph);
        let layers = levels.layers();
        let k = graph.task_count();
        let p = graph.data_count();
        let max_edges = k * (k.saturating_sub(1)) / 2;
        GraphMetrics {
            tasks: k,
            data_items: p,
            density: if max_edges == 0 { 0.0 } else { p as f64 / max_edges as f64 },
            avg_degree: p as f64 / k as f64,
            depth: layers.len(),
            width: layers.iter().map(Vec::len).max().unwrap_or(0),
            entries: graph.entry_tasks().len(),
            exits: graph.exit_tasks().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;

    fn figure1() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn metrics_figure1() {
        let g = figure1();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.tasks, 7);
        assert_eq!(m.data_items, 6);
        assert_eq!(m.depth, 3);
        assert_eq!(m.width, 3); // level 1: s2 s3 s4
        assert_eq!(m.entries, 2);
        assert_eq!(m.exits, 2);
        assert!((m.avg_degree - 6.0 / 7.0).abs() < 1e-12);
        assert!((m.density - 6.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_single_task() {
        let g = TaskGraphBuilder::new(1).build().unwrap();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.density, 0.0);
        assert_eq!(m.depth, 1);
        assert_eq!(m.width, 1);
    }

    #[test]
    fn unit_slack_length_is_the_depth() {
        let g = figure1();
        let sa = SlackAnalysis::compute(&g, |_| 1.0, |_, _| 0.0);
        let depth = GraphMetrics::compute(&g).depth;
        assert_eq!(sa.length, depth as f64);
        // Critical tasks have zero slack, and every task of Figure 1
        // lies on a three-task path: s0 -> s2|s3 -> s5, s1 -> s4 -> s6.
        for t in g.tasks() {
            assert_eq!(sa.slack(t), 0.0, "{t} lies on a longest path");
        }
        // Entry tasks start at zero; slack is never negative.
        for t in g.tasks() {
            assert!(sa.earliest[t.index()] >= 0.0);
            assert!(sa.slack(t) >= 0.0, "{t} has negative slack {}", sa.slack(t));
            assert!(sa.latest[t.index()] + 1.0 <= sa.length + 1e-12, "{t} misses the deadline");
        }
    }

    #[test]
    fn slack_weighted_chain_and_fork() {
        // 0 -> 2, 1 -> 2; w(0)=4, w(1)=1, w(2)=2; zero edges. Path through
        // 0 dominates: length 6, task 1 has slack 3.
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(0, 2).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build().unwrap();
        let w = [4.0, 1.0, 2.0];
        let sa = SlackAnalysis::compute(&g, |t| w[t.index()], |_, _| 0.0);
        assert_eq!(sa.length, 6.0);
        assert_eq!(sa.earliest, vec![0.0, 0.0, 4.0]);
        assert_eq!(sa.latest, vec![0.0, 3.0, 4.0]);
        assert_eq!(sa.slack(TaskId::new(1)), 3.0);
        // Edge weights stretch the path: 0 ->(5) 2 makes length 11 and
        // gives task 1 slack 8.
        let sa = SlackAnalysis::compute(
            &g,
            |t| w[t.index()],
            |s, _| if s == TaskId::new(0) { 5.0 } else { 0.0 },
        );
        assert_eq!(sa.length, 11.0);
        assert_eq!(sa.slack(TaskId::new(1)), 8.0);
        assert_eq!(sa.slack(TaskId::new(0)), 0.0);
    }
}
