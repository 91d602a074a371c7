//! # mshc-taskgraph
//!
//! Directed-acyclic task-graph substrate for the `mshc` suite, the Rust
//! reproduction of *"Task Matching and Scheduling in Heterogeneous Systems
//! Using Simulated Evolution"* (Barada, Sait & Baig, IPPS 2001).
//!
//! The paper models an application as a DAG of `k` coarse-grained subtasks
//! `S = {s_0 .. s_{k-1}}` connected by `p` *data items* `D = {d_0 .. d_{p-1}}`
//! (§2 of the paper). A data item is produced by exactly one subtask and
//! consumed by exactly one subtask, so data items are exactly the edges of
//! the DAG. This crate provides:
//!
//! * [`TaskGraph`] — an immutable, validated DAG with O(1) access to the
//!   predecessors/successors (and the connecting data items) of each task;
//! * [`TaskGraphBuilder`] — the only way to construct a [`TaskGraph`];
//!   rejects cycles, duplicate edges and dangling endpoints;
//! * topological orders and per-task *levels* ([`topo`]), which the SE
//!   selection step uses to order selected tasks (§4.4);
//! * structural analyses ([`analysis`]): critical-path slack, graph
//!   width, connectivity metrics;
//! * deterministic random and structured generators ([`gen`]): layered
//!   random DAGs, Erdős–Rényi-style DAGs, series-parallel graphs, and the
//!   classic scheduling benchmarks (FFT butterfly, Gaussian elimination,
//!   fork–join, in/out-trees, diamond stencils).
//!
//! Everything downstream (the platform model, the schedule encoding, the SE
//! and GA schedulers) is built on these types.
//!
//! ## Example
//!
//! ```
//! use mshc_taskgraph::{TaskGraphBuilder, TaskId};
//!
//! // The 7-task DAG of the paper's Figure 1a.
//! let mut b = TaskGraphBuilder::new(7);
//! b.add_edge(0, 2).unwrap(); // d0: s0 -> s2
//! b.add_edge(0, 3).unwrap(); // d1: s0 -> s3
//! b.add_edge(1, 4).unwrap(); // d2: s1 -> s4
//! b.add_edge(2, 5).unwrap(); // d3: s2 -> s5
//! b.add_edge(3, 5).unwrap(); // d4: s3 -> s5
//! b.add_edge(4, 6).unwrap(); // d5: s4 -> s6
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.task_count(), 7);
//! assert_eq!(g.data_count(), 6);
//! assert!(g.is_linear_extension(&[0, 1, 2, 3, 4, 5, 6].map(TaskId::new)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod error;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod topo;

pub use analysis::{GraphMetrics, SlackAnalysis};
pub use error::GraphError;
pub use graph::{DataEdge, TaskGraph, TaskGraphBuilder};
pub use ids::{DataId, TaskId};
pub use topo::{Levels, TopoOrder};
