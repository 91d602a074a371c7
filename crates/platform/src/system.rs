//! The validated HC system: machines + `E` + `Tr`.

use crate::error::PlatformError;
use crate::field;
use crate::machine::{ArchClass, Machine, MachineId};
use crate::matrix::Matrix;
use crate::pair::{pair_count, pair_index};
use mshc_taskgraph::{DataId, TaskId};
use serde::{Deserialize, Serialize, Value};

/// A heterogeneous suite of fully connected machines together with the
/// paper's two cost matrices.
///
/// Invariants (checked at construction):
/// * at least one machine;
/// * `E` is `l × k` with strictly positive finite entries;
/// * `Tr` is `l(l-1)/2 × p` with finite non-negative entries.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HcSystem {
    machines: Vec<Machine>,
    exec: Matrix,
    transfer: Matrix,
}

impl Deserialize for HcSystem {
    /// Reads the machines and both matrices and validates them through
    /// [`HcSystem::new`].
    fn deserialize(v: &Value) -> Result<HcSystem, serde::Error> {
        let machines = field(v, "HcSystem", "machines")?;
        let exec = field(v, "HcSystem", "exec")?;
        let transfer = field(v, "HcSystem", "transfer")?;
        HcSystem::new(machines, exec, transfer).map_err(serde::Error::custom)
    }
}

impl HcSystem {
    /// Builds and validates a system.
    ///
    /// * `exec` — `l × k` execution-time matrix `E`;
    /// * `transfer` — `l(l-1)/2 × p` transfer-time matrix `Tr` (may have 0
    ///   columns if the task graph has no data items).
    pub fn new(
        machines: Vec<Machine>,
        exec: Matrix,
        transfer: Matrix,
    ) -> Result<HcSystem, PlatformError> {
        let l = machines.len();
        if l == 0 {
            return Err(PlatformError::NoMachines);
        }
        if exec.rows() != l {
            return Err(PlatformError::ExecShape {
                expected: (l, exec.cols()),
                actual: exec.shape(),
            });
        }
        let expected_pairs = pair_count(l);
        if transfer.rows() != expected_pairs {
            return Err(PlatformError::TransferShape {
                expected: (expected_pairs, transfer.cols()),
                actual: transfer.shape(),
            });
        }
        for r in 0..exec.rows() {
            for c in 0..exec.cols() {
                let v = exec.get(r, c);
                if !v.is_finite() {
                    return Err(PlatformError::InvalidCost {
                        matrix: "E",
                        row: r,
                        col: c,
                        value: v,
                    });
                }
                if v <= 0.0 {
                    return Err(PlatformError::NonPositiveExecution {
                        machine: r,
                        task: c,
                        value: v,
                    });
                }
            }
        }
        for r in 0..transfer.rows() {
            for c in 0..transfer.cols() {
                let v = transfer.get(r, c);
                if !v.is_finite() || v < 0.0 {
                    return Err(PlatformError::InvalidCost {
                        matrix: "Tr",
                        row: r,
                        col: c,
                        value: v,
                    });
                }
            }
        }
        Ok(HcSystem { machines, exec, transfer })
    }

    /// Convenience: `l` anonymous machines with round-robin architecture
    /// classes.
    pub fn with_anonymous_machines(
        l: usize,
        exec: Matrix,
        transfer: Matrix,
    ) -> Result<HcSystem, PlatformError> {
        let machines = (0..l)
            .map(|i| {
                Machine::new(MachineId::from_usize(i), ArchClass::ALL[i % ArchClass::ALL.len()])
            })
            .collect();
        HcSystem::new(machines, exec, transfer)
    }

    /// Number of machines `l`.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of tasks `k` the system is dimensioned for.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.exec.cols()
    }

    /// Number of data items `p` the system is dimensioned for.
    #[inline]
    pub fn data_count(&self) -> usize {
        self.transfer.cols()
    }

    /// Machine descriptions.
    #[inline]
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Iterates over machine ids `m_0 .. m_{l-1}`.
    pub fn machine_ids(&self) -> impl ExactSizeIterator<Item = MachineId> + Clone {
        (0..self.machines.len() as u32).map(MachineId::new)
    }

    /// The raw execution-time matrix `E`.
    #[inline]
    pub fn exec_matrix(&self) -> &Matrix {
        &self.exec
    }

    /// The raw transfer-time matrix `Tr`.
    #[inline]
    pub fn transfer_matrix(&self) -> &Matrix {
        &self.transfer
    }

    /// `E[m][t]`: execution time of task `t` on machine `m`.
    #[inline]
    pub fn exec_time(&self, m: MachineId, t: TaskId) -> f64 {
        self.exec.get(m.index(), t.index())
    }

    /// Time to move data item `d` from machine `from` to machine `to`;
    /// zero when `from == to` (co-located tasks share memory in the
    /// paper's model).
    #[inline]
    pub fn transfer_time(&self, d: DataId, from: MachineId, to: MachineId) -> f64 {
        if from == to {
            0.0
        } else {
            self.transfer.get(pair_index(self.machines.len(), from, to), d.index())
        }
    }

    /// The best-matching machine for `t` (minimal `E[·][t]`, ties to the
    /// smallest id) — the paper's "best-matching machine" used both by the
    /// `O_i` precomputation (§4.3) and the `Y` restriction (§4.5).
    pub fn best_machine(&self, t: TaskId) -> MachineId {
        let (row, _) = self.exec.col_min(t.index()).expect("at least one machine");
        MachineId::from_usize(row)
    }

    /// All machines ranked by ascending execution time for `t`. The first
    /// `y` entries are the task's "Y best-matching machines" (§4.5).
    pub fn machine_ranking(&self, t: TaskId) -> Vec<MachineId> {
        self.exec.col_ranking(t.index()).into_iter().map(MachineId::from_usize).collect()
    }

    /// Mean execution time of `t` across machines — the task weight used
    /// by HEFT-style ranking heuristics.
    pub fn mean_exec_time(&self, t: TaskId) -> f64 {
        self.exec.col_mean(t.index()).expect("at least one machine")
    }

    /// Mean transfer time of data item `d` across all machine pairs
    /// (zero if the system has a single machine).
    pub fn mean_transfer_time(&self, d: DataId) -> f64 {
        if self.transfer.rows() == 0 {
            0.0
        } else {
            self.transfer.col_mean(d.index()).unwrap_or(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_machine_system() -> HcSystem {
        // 2 machines, 3 tasks, 2 data items.
        let exec = Matrix::from_rows(&[vec![10.0, 20.0, 5.0], vec![15.0, 8.0, 6.0]]);
        let transfer = Matrix::from_rows(&[vec![3.0, 4.0]]);
        HcSystem::with_anonymous_machines(2, exec, transfer).unwrap()
    }

    #[test]
    fn dimensions() {
        let s = two_machine_system();
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.task_count(), 3);
        assert_eq!(s.data_count(), 2);
        assert_eq!(s.machine_ids().count(), 2);
        assert_eq!(s.machines().len(), 2);
    }

    #[test]
    fn exec_and_transfer_lookup() {
        let s = two_machine_system();
        assert_eq!(s.exec_time(MachineId::new(0), TaskId::new(1)), 20.0);
        assert_eq!(s.exec_time(MachineId::new(1), TaskId::new(1)), 8.0);
        let d = DataId::new(1);
        assert_eq!(s.transfer_time(d, MachineId::new(0), MachineId::new(1)), 4.0);
        assert_eq!(s.transfer_time(d, MachineId::new(1), MachineId::new(0)), 4.0, "symmetric");
        assert_eq!(s.transfer_time(d, MachineId::new(0), MachineId::new(0)), 0.0, "co-located");
    }

    #[test]
    fn best_machine_and_ranking() {
        let s = two_machine_system();
        assert_eq!(s.best_machine(TaskId::new(0)), MachineId::new(0));
        assert_eq!(s.best_machine(TaskId::new(1)), MachineId::new(1));
        assert_eq!(s.machine_ranking(TaskId::new(2)), vec![MachineId::new(0), MachineId::new(1)]);
    }

    #[test]
    fn means() {
        let s = two_machine_system();
        assert!((s.mean_exec_time(TaskId::new(0)) - 12.5).abs() < 1e-12);
        assert!((s.mean_transfer_time(DataId::new(0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_machine_system() {
        let exec = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let transfer = Matrix::filled(0, 3, 0.0);
        let s = HcSystem::with_anonymous_machines(1, exec, transfer).unwrap();
        assert_eq!(s.machine_count(), 1);
        assert_eq!(s.transfer_time(DataId::new(0), MachineId::new(0), MachineId::new(0)), 0.0);
        assert_eq!(s.mean_transfer_time(DataId::new(0)), 0.0);
    }

    #[test]
    fn rejects_no_machines() {
        let r = HcSystem::new(vec![], Matrix::filled(0, 2, 1.0), Matrix::filled(0, 0, 0.0));
        assert_eq!(r.unwrap_err(), PlatformError::NoMachines);
    }

    #[test]
    fn rejects_bad_exec_shape() {
        let exec = Matrix::filled(3, 2, 1.0); // 3 rows but 2 machines
        let r = HcSystem::with_anonymous_machines(2, exec, Matrix::filled(1, 0, 0.0));
        assert!(matches!(r.unwrap_err(), PlatformError::ExecShape { .. }));
    }

    #[test]
    fn rejects_bad_transfer_shape() {
        let exec = Matrix::filled(3, 2, 1.0);
        let tr = Matrix::filled(1, 4, 0.0); // needs 3 pairs for l=3
        let r = HcSystem::with_anonymous_machines(3, exec, tr);
        assert!(matches!(r.unwrap_err(), PlatformError::TransferShape { .. }));
    }

    #[test]
    fn rejects_nonpositive_exec() {
        let exec = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let r = HcSystem::with_anonymous_machines(1, exec, Matrix::filled(0, 0, 0.0));
        assert!(matches!(
            r.unwrap_err(),
            PlatformError::NonPositiveExecution { machine: 0, task: 1, .. }
        ));
    }

    #[test]
    fn rejects_nan_costs() {
        let exec = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
        let r = HcSystem::with_anonymous_machines(2, exec, Matrix::filled(1, 0, 0.0));
        assert!(matches!(r.unwrap_err(), PlatformError::InvalidCost { matrix: "E", .. }));

        let exec = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let tr = Matrix::from_rows(&[vec![-1.0]]);
        let r = HcSystem::with_anonymous_machines(2, exec, tr);
        assert!(matches!(r.unwrap_err(), PlatformError::InvalidCost { matrix: "Tr", .. }));
    }
}
