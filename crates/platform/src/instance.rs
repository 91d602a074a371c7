//! The complete MSHC problem instance: a task graph plus the HC system it
//! runs on.

use crate::error::PlatformError;
use crate::system::HcSystem;
use mshc_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};

/// A matched pair of application DAG and HC system — everything a
/// scheduler needs. Construction checks that the system's matrix
/// dimensions agree with the graph's task/data counts, so downstream code
/// can index freely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HcInstance {
    graph: TaskGraph,
    system: HcSystem,
}

impl HcInstance {
    /// Bundles `graph` and `system`, validating that `E` has one column per
    /// task and `Tr` one column per data item.
    pub fn new(graph: TaskGraph, system: HcSystem) -> Result<HcInstance, PlatformError> {
        if system.task_count() != graph.task_count() {
            return Err(PlatformError::ExecShape {
                expected: (system.machine_count(), graph.task_count()),
                actual: (system.machine_count(), system.task_count()),
            });
        }
        if system.data_count() != graph.data_count() {
            return Err(PlatformError::TransferShape {
                expected: (system.transfer_matrix().rows(), graph.data_count()),
                actual: system.transfer_matrix().shape(),
            });
        }
        Ok(HcInstance { graph, system })
    }

    /// The application DAG.
    #[inline]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The HC system.
    #[inline]
    pub fn system(&self) -> &HcSystem {
        &self.system
    }

    /// Number of subtasks `k`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.graph.task_count()
    }

    /// Number of machines `l`.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.system.machine_count()
    }

    /// Number of data items `p`.
    #[inline]
    pub fn data_count(&self) -> usize {
        self.graph.data_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use mshc_taskgraph::TaskGraphBuilder;

    fn graph3() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_instance() {
        let g = graph3();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 3, 1.0),
            Matrix::filled(1, 2, 0.5),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        assert_eq!(inst.task_count(), 3);
        assert_eq!(inst.machine_count(), 2);
        assert_eq!(inst.data_count(), 2);
    }

    #[test]
    fn rejects_task_mismatch() {
        let g = graph3();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 4, 1.0), // 4 task columns, graph has 3
            Matrix::filled(1, 2, 0.5),
        )
        .unwrap();
        assert!(matches!(HcInstance::new(g, sys), Err(PlatformError::ExecShape { .. })));
    }

    #[test]
    fn rejects_data_mismatch() {
        let g = graph3();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 3, 1.0),
            Matrix::filled(1, 5, 0.5), // 5 data columns, graph has 2
        )
        .unwrap();
        assert!(matches!(HcInstance::new(g, sys), Err(PlatformError::TransferShape { .. })));
    }
}
