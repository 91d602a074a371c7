//! The validated task-graph type and its builder.
//!
//! A [`TaskGraph`] is the paper's application DAG (§2): `k` subtasks and
//! `p` data items, where data item `d_i` is produced by exactly one subtask
//! and consumed by exactly one subtask. Construction goes through
//! [`TaskGraphBuilder`], which checks endpoints, self-loops, duplicates and
//! acyclicity, so a constructed graph is *always* a DAG — downstream code
//! never re-validates.

use crate::error::GraphError;
use crate::ids::{DataId, TaskId};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;

/// One data item: a directed edge `src -> dst` in the application DAG.
///
/// In the paper's HC model the *time* to move a data item depends on the
/// machine pair it crosses and lives in the platform's transfer-time matrix
/// `Tr`; the graph itself only records the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataEdge {
    /// Dense id of this data item (row/column key into `Tr`).
    pub id: DataId,
    /// Producing subtask.
    pub src: TaskId,
    /// Consuming subtask.
    pub dst: TaskId,
}

/// An immutable, validated directed acyclic task graph.
///
/// Adjacency is stored in CSR-like flat arrays (one allocation per
/// direction), which keeps iteration over predecessors/successors
/// allocation-free and cache-friendly — the schedule evaluator walks these
/// lists on every makespan computation.
///
/// A deserialized graph is rebuilt from `task_count` and `edges` through
/// [`TaskGraphBuilder`], so a graph file gets the builder's checks too;
/// its stored adjacency arrays must equal the rebuilt ones.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskGraph {
    task_count: u32,
    edges: Box<[DataEdge]>,
    /// CSR offsets/values for incoming edges, indexed by task.
    pred_offsets: Box<[u32]>,
    pred_edges: Box<[u32]>, // edge indices
    /// CSR offsets/values for outgoing edges, indexed by task.
    succ_offsets: Box<[u32]>,
    succ_edges: Box<[u32]>, // edge indices
}

impl TaskGraph {
    /// Number of subtasks `k`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.task_count as usize
    }

    /// Number of data items `p` (= number of edges).
    #[inline]
    pub fn data_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all task ids `s_0 .. s_{k-1}`.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + Clone {
        (0..self.task_count).map(TaskId::new)
    }

    /// All data edges, indexed by [`DataId`].
    #[inline]
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// The edge carrying data item `d`.
    #[inline]
    pub fn edge(&self, d: DataId) -> DataEdge {
        self.edges[d.index()]
    }

    /// Incoming edges of `t` (data items `t` consumes).
    #[inline]
    pub fn in_edges(&self, t: TaskId) -> impl ExactSizeIterator<Item = DataEdge> + Clone + '_ {
        let lo = self.pred_offsets[t.index()] as usize;
        let hi = self.pred_offsets[t.index() + 1] as usize;
        self.pred_edges[lo..hi].iter().map(|&e| self.edges[e as usize])
    }

    /// Outgoing edges of `t` (data items `t` produces).
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> impl ExactSizeIterator<Item = DataEdge> + Clone + '_ {
        let lo = self.succ_offsets[t.index()] as usize;
        let hi = self.succ_offsets[t.index() + 1] as usize;
        self.succ_edges[lo..hi].iter().map(|&e| self.edges[e as usize])
    }

    /// Direct predecessors of `t`.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> impl ExactSizeIterator<Item = TaskId> + Clone + '_ {
        self.in_edges(t).map(|e| e.src)
    }

    /// Direct successors of `t`.
    #[inline]
    pub fn successors(&self, t: TaskId) -> impl ExactSizeIterator<Item = TaskId> + Clone + '_ {
        self.out_edges(t).map(|e| e.dst)
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        (self.pred_offsets[t.index() + 1] - self.pred_offsets[t.index()]) as usize
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        (self.succ_offsets[t.index() + 1] - self.succ_offsets[t.index()]) as usize
    }

    /// Tasks with no predecessors (entry tasks).
    pub fn entry_tasks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.in_degree(t) == 0).collect()
    }

    /// Tasks with no successors (exit tasks).
    pub fn exit_tasks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.out_degree(t) == 0).collect()
    }

    /// Checks whether `order` is a linear extension of the DAG: a
    /// permutation of all tasks in which every task appears after all of
    /// its predecessors.
    ///
    /// This is exactly the validity condition the paper's encoding imposes
    /// on the solution string (§4.1–4.2).
    pub fn is_linear_extension(&self, order: &[TaskId]) -> bool {
        if order.len() != self.task_count() {
            return false;
        }
        let mut position = vec![u32::MAX; self.task_count()];
        for (pos, &t) in order.iter().enumerate() {
            if t.index() >= self.task_count() || position[t.index()] != u32::MAX {
                return false; // out of range or repeated
            }
            position[t.index()] = pos as u32;
        }
        self.edges.iter().all(|e| position[e.src.index()] < position[e.dst.index()])
    }
}

impl Deserialize for TaskGraph {
    /// Rebuilds the graph from `task_count` and `edges` (whose data ids
    /// must be dense in edge order) through [`TaskGraphBuilder`], then
    /// checks that the stored `pred_*`/`succ_*` arrays equal the rebuilt
    /// ones.
    fn deserialize(v: &Value) -> Result<TaskGraph, serde::Error> {
        let task_count: u32 = field(v, "task_count")?;
        let edges: Vec<DataEdge> = field(v, "edges")?;
        // A valid file holds one offset per task plus one; checking that
        // first bounds what the rebuild allocates by the file's size.
        let pred_offsets: Box<[u32]> = field(v, "pred_offsets")?;
        if pred_offsets.len() != task_count as usize + 1 {
            return Err(serde::Error::custom(format!(
                "pred_offsets holds {} entries, not task_count + 1 = {}",
                pred_offsets.len(),
                task_count as usize + 1
            )));
        }
        let mut builder = TaskGraphBuilder::new(task_count as usize);
        for (i, e) in edges.iter().enumerate() {
            if e.id.index() != i {
                return Err(serde::Error::custom(format!(
                    "edges[{i}] has id {}; data ids are dense in edge order",
                    e.id.index()
                )));
            }
            builder
                .add_edge(e.src.raw(), e.dst.raw())
                .map_err(|err| serde::Error::custom(format!("edges[{i}]: {err}")))?;
        }
        let graph = builder.build().map_err(serde::Error::custom)?;
        let stored = [
            ("pred_offsets", pred_offsets),
            ("pred_edges", field(v, "pred_edges")?),
            ("succ_offsets", field(v, "succ_offsets")?),
            ("succ_edges", field(v, "succ_edges")?),
        ];
        let rebuilt =
            [&graph.pred_offsets, &graph.pred_edges, &graph.succ_offsets, &graph.succ_edges];
        for ((name, stored), rebuilt) in stored.iter().zip(rebuilt) {
            if stored != rebuilt {
                return Err(serde::Error::custom(format!("{name} disagrees with the edges")));
            }
        }
        Ok(graph)
    }
}

/// Reads field `name` of the map `v`, naming the field in any error.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    let value = v.get_field(name).ok_or_else(|| serde::Error::missing_field("TaskGraph", name))?;
    T::deserialize(value).map_err(|e| serde::Error::custom(format!("{name}: {e}")))
}

/// Incremental builder for [`TaskGraph`].
///
/// ```
/// use mshc_taskgraph::TaskGraphBuilder;
/// let mut b = TaskGraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.data_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    task_count: u32,
    /// Edges in insertion order: edge `i` carries data item `d_i`.
    edges: Vec<(u32, u32)>,
    /// The same edges as a set, so the duplicate check is O(1) and a
    /// build is linear in the edge count.
    edge_set: HashSet<(u32, u32)>,
}

impl TaskGraphBuilder {
    /// Starts a builder for a graph with `task_count` subtasks and no edges.
    pub fn new(task_count: usize) -> Self {
        TaskGraphBuilder {
            task_count: u32::try_from(task_count).expect("too many tasks"),
            edges: Vec::new(),
            edge_set: HashSet::new(),
        }
    }

    /// Number of tasks the graph will have.
    pub fn task_count(&self) -> usize {
        self.task_count as usize
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a data edge `src -> dst`. Data ids are assigned densely in
    /// insertion order: the i-th successful `add_edge` creates `d_i`.
    ///
    /// Fails fast on out-of-range endpoints, self-loops and duplicates;
    /// cycle detection is deferred to [`build`](Self::build) (it needs the
    /// full edge set).
    pub fn add_edge(&mut self, src: u32, dst: u32) -> Result<DataId, GraphError> {
        if src >= self.task_count {
            return Err(GraphError::TaskOutOfRange { task: src, task_count: self.task_count });
        }
        if dst >= self.task_count {
            return Err(GraphError::TaskOutOfRange { task: dst, task_count: self.task_count });
        }
        if src == dst {
            return Err(GraphError::SelfLoop(TaskId::new(src)));
        }
        if !self.edge_set.insert((src, dst)) {
            return Err(GraphError::DuplicateEdge(TaskId::new(src), TaskId::new(dst)));
        }
        self.edges.push((src, dst));
        Ok(DataId::from_usize(self.edges.len() - 1))
    }

    /// Returns `true` if the edge `src -> dst` has already been added.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.edge_set.contains(&(src, dst))
    }

    /// Validates acyclicity and freezes the graph.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.task_count == 0 {
            return Err(GraphError::Empty);
        }
        let k = self.task_count as usize;
        let edges: Box<[DataEdge]> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| DataEdge {
                id: DataId::from_usize(i),
                src: TaskId::new(s),
                dst: TaskId::new(d),
            })
            .collect();

        // Build CSR adjacency with counting sort (two passes, no per-task Vec).
        let mut pred_offsets = vec![0u32; k + 1];
        let mut succ_offsets = vec![0u32; k + 1];
        for &(s, d) in &self.edges {
            succ_offsets[s as usize + 1] += 1;
            pred_offsets[d as usize + 1] += 1;
        }
        for i in 0..k {
            pred_offsets[i + 1] += pred_offsets[i];
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut pred_edges = vec![0u32; self.edges.len()];
        let mut succ_edges = vec![0u32; self.edges.len()];
        let mut pred_fill = pred_offsets.clone();
        let mut succ_fill = succ_offsets.clone();
        for (i, &(s, d)) in self.edges.iter().enumerate() {
            succ_edges[succ_fill[s as usize] as usize] = i as u32;
            succ_fill[s as usize] += 1;
            pred_edges[pred_fill[d as usize] as usize] = i as u32;
            pred_fill[d as usize] += 1;
        }

        let graph = TaskGraph {
            task_count: self.task_count,
            edges,
            pred_offsets: pred_offsets.into_boxed_slice(),
            pred_edges: pred_edges.into_boxed_slice(),
            succ_offsets: succ_offsets.into_boxed_slice(),
            succ_edges: succ_edges.into_boxed_slice(),
        };

        // Kahn's algorithm detects cycles; a witness is any task left with
        // nonzero in-degree.
        let mut indeg: Vec<u32> = (0..graph.task_count())
            .map(|i| graph.in_degree(TaskId::from_usize(i)) as u32)
            .collect();
        let mut queue: Vec<TaskId> = graph.tasks().filter(|&t| indeg[t.index()] == 0).collect();
        let mut visited = 0usize;
        while let Some(t) = queue.pop() {
            visited += 1;
            for succ in graph.successors(t) {
                indeg[succ.index()] -= 1;
                if indeg[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if visited != graph.task_count() {
            let witness = (0..graph.task_count())
                .find(|&i| indeg[i] > 0)
                .map(TaskId::from_usize)
                .expect("cycle implies a task with residual in-degree");
            return Err(GraphError::Cycle(witness));
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 7-task / 6-data-item DAG of the paper's Figure 1a.
    pub(crate) fn figure1_dag() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(7);
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 3).unwrap();
        b.add_edge(1, 4).unwrap();
        b.add_edge(2, 5).unwrap();
        b.add_edge(3, 5).unwrap();
        b.add_edge(4, 6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_topology() {
        let g = figure1_dag();
        assert_eq!(g.task_count(), 7);
        assert_eq!(g.data_count(), 6);
        assert_eq!(g.entry_tasks(), vec![TaskId::new(0), TaskId::new(1)]);
        assert_eq!(g.exit_tasks(), vec![TaskId::new(5), TaskId::new(6)]);
        assert_eq!(g.in_degree(TaskId::new(5)), 2);
        assert_eq!(g.out_degree(TaskId::new(0)), 2);
        let preds5: Vec<_> = g.predecessors(TaskId::new(5)).collect();
        assert_eq!(preds5, vec![TaskId::new(2), TaskId::new(3)]);
    }

    #[test]
    fn edge_lookup() {
        let g = figure1_dag();
        let e = g.edge(DataId::new(1));
        assert_eq!((e.src, e.dst), (TaskId::new(0), TaskId::new(3)));
        assert_eq!(g.edge(DataId::new(2)).src, TaskId::new(1));
    }

    #[test]
    fn linear_extension_checks() {
        let g = figure1_dag();
        let ok: Vec<TaskId> = [0, 1, 2, 3, 4, 5, 6].iter().map(|&i| TaskId::new(i)).collect();
        assert!(g.is_linear_extension(&ok));
        // The Figure-2 string order: s0 s1 s2 s5 s6 s3 s4 — s5 before its
        // predecessor s3, so NOT a linear extension of the full DAG; the
        // paper's own string keeps per-machine order valid because s5 and s3
        // are on different machines, but our canonical strings stay global
        // linear extensions (see mshc-schedule docs for the discussion).
        let fig2: Vec<TaskId> = [0, 1, 2, 5, 6, 3, 4].iter().map(|&i| TaskId::new(i)).collect();
        assert!(!g.is_linear_extension(&fig2));
        // wrong length
        assert!(!g.is_linear_extension(&ok[..6]));
        // repeated task
        let mut rep = ok.clone();
        rep[6] = TaskId::new(0);
        assert!(!g.is_linear_extension(&rep));
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = TaskGraphBuilder::new(3);
        assert_eq!(b.add_edge(0, 3), Err(GraphError::TaskOutOfRange { task: 3, task_count: 3 }));
        assert_eq!(b.add_edge(7, 0), Err(GraphError::TaskOutOfRange { task: 7, task_count: 3 }));
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop(TaskId::new(1))));
        b.add_edge(0, 1).unwrap();
        assert_eq!(
            b.add_edge(0, 1),
            Err(GraphError::DuplicateEdge(TaskId::new(0), TaskId::new(1)))
        );
        assert!(b.has_edge(0, 1));
        assert!(!b.has_edge(1, 0));
    }

    /// The duplicate check holds however many edges came before: a
    /// repeat of an early edge added after a few thousand others is
    /// rejected, and the builder keeps its dense data ids.
    #[test]
    fn late_duplicates_are_rejected() {
        let mut b = TaskGraphBuilder::new(100);
        let mut added = 0usize;
        for s in 0..100u32 {
            for d in s + 1..100 {
                if (s + d) % 3 != 0 {
                    assert_eq!(b.add_edge(s, d), Ok(DataId::from_usize(added)));
                    added += 1;
                }
            }
        }
        assert!(added > 3000, "{added} edges");
        assert_eq!(
            b.add_edge(0, 1),
            Err(GraphError::DuplicateEdge(TaskId::new(0), TaskId::new(1)))
        );
        assert_eq!(
            b.add_edge(97, 99),
            Err(GraphError::DuplicateEdge(TaskId::new(97), TaskId::new(99)))
        );
        assert!(b.has_edge(0, 1) && !b.has_edge(1, 0) && !b.has_edge(0, 3));
        assert_eq!(b.edge_count(), added);
        assert_eq!(b.add_edge(0, 3), Ok(DataId::from_usize(added)));
        assert_eq!(b.build().unwrap().data_count(), added + 1);
    }

    #[test]
    fn builder_rejects_cycles() {
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 0).unwrap();
        match b.build() {
            Err(GraphError::Cycle(_)) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(TaskGraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_task_graph() {
        let g = TaskGraphBuilder::new(1).build().unwrap();
        assert_eq!(g.task_count(), 1);
        assert_eq!(g.data_count(), 0);
        assert_eq!(g.entry_tasks(), g.exit_tasks());
        assert!(g.is_linear_extension(&[TaskId::new(0)]));
    }

    #[test]
    fn edgeless_graph_any_permutation_valid() {
        let g = TaskGraphBuilder::new(4).build().unwrap();
        let order: Vec<TaskId> = [3, 1, 0, 2].iter().map(|&i| TaskId::new(i)).collect();
        assert!(g.is_linear_extension(&order));
    }

    #[test]
    fn data_ids_dense_in_insertion_order() {
        let g = figure1_dag();
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(e.id.index(), i);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let g = figure1_dag();
        assert_eq!(TaskGraph::deserialize(&g.serialize()), Ok(g));
    }

    /// `figure1_dag`'s serialized form with field `name` replaced.
    fn edited(name: &str, value: Value) -> Value {
        let Value::Map(mut fields) = figure1_dag().serialize() else { panic!("a graph is a map") };
        fields.iter_mut().find(|(k, _)| k == name).expect("known field").1 = value;
        Value::Map(fields)
    }

    fn edges(pairs: &[(u32, u32)]) -> Value {
        let edges: Vec<DataEdge> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| DataEdge {
                id: DataId::from_usize(i),
                src: TaskId::new(s),
                dst: TaskId::new(d),
            })
            .collect();
        edges.serialize()
    }

    #[test]
    fn deserialize_rejects_what_the_builder_rejects() {
        let error = |v: Value| TaskGraph::deserialize(&v).unwrap_err().to_string();
        let figure1 = [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)];
        let cases = [
            (edited("task_count", Value::U64(0)), "pred_offsets holds 8 entries"),
            (edited("edges", edges(&[(0, 2), (0, 9)])), "edges[1]: task index 9 out of range"),
            (edited("edges", edges(&[(0, 2), (2, 0)])), "directed cycle"),
            (edited("edges", edges(&[(0, 2), (0, 2)])), "edges[1]: duplicate edge"),
            (edited("edges", edges(&figure1[..5])), "pred_offsets disagrees with the edges"),
            (edited("pred_edges", vec![0u32, 1, 2, 4, 3, 5].serialize()), "pred_edges disagrees"),
            (edited("succ_edges", vec![1u32, 0, 2, 3, 4, 5].serialize()), "succ_edges disagrees"),
        ];
        for (v, why) in cases {
            let e = error(v);
            assert!(e.contains(why), "{e}");
        }
        let mut shuffled = figure1_dag().edges().to_vec();
        shuffled.swap(0, 1);
        let e = error(edited("edges", shuffled.serialize()));
        assert!(e.contains("edges[0] has id 1"), "{e}");
    }
}
