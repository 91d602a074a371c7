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

/// The row, column and value of `m`'s first entry in row-major order
/// that is not `ok`. Blocks of entries are checked with no exit inside a
/// block, which the compiler vectorizes when `ok` is branch-free; only
/// the first failing block is searched entry by entry.
fn first_offending(m: &Matrix, ok: impl Fn(f64) -> bool) -> Option<(usize, usize, f64)> {
    const BLOCK: usize = 16;
    let data = m.as_slice();
    let block = data.chunks(BLOCK).position(|b| !b.iter().fold(true, |all, &v| all & ok(v)))?;
    let start = block * BLOCK;
    let i = start + data[start..].iter().position(|&v| !ok(v)).expect("the block fails");
    Some((i / m.cols(), i % m.cols(), data[i]))
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
        // One scan per matrix finds the first offending entry in row-major
        // order; a non-finite `E` entry is an invalid cost even if negative.
        // For `v >= 0`, `v <= f64::MAX` is `v.is_finite()` in one compare
        // (`is_finite` lowers to integer bit tests that do not vectorize).
        if let Some((row, col, value)) = first_offending(&exec, |v| (v > 0.0) & (v <= f64::MAX)) {
            return Err(if value.is_finite() {
                PlatformError::NonPositiveExecution { machine: row, task: col, value }
            } else {
                PlatformError::InvalidCost { matrix: "E", row, col, value }
            });
        }
        if let Some((row, col, value)) =
            first_offending(&transfer, |v| (0.0..=f64::MAX).contains(&v))
        {
            return Err(PlatformError::InvalidCost { matrix: "Tr", row, col, value });
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

    /// The variant, matrix, row, column and value bits of a cost error.
    fn offending(e: PlatformError) -> (&'static str, usize, usize, u64) {
        match e {
            PlatformError::InvalidCost { matrix, row, col, value } => {
                (matrix, row, col, value.to_bits())
            }
            PlatformError::NonPositiveExecution { machine, task, value } => {
                ("E <= 0", machine, task, value.to_bits())
            }
            other => panic!("not a cost error: {other:?}"),
        }
    }

    #[test]
    fn rejects_the_first_offending_entry_in_row_major_order() {
        // Each case carries several bad entries; the expected errors were
        // captured from an element-by-element loop over `E`, then `Tr`.
        const N: f64 = f64::NAN;
        const I: f64 = f64::INFINITY;
        let e_ok = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, 10.0, 11.0, 12.0]];
        let tr_ok = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]];
        type Case = ([[f64; 4]; 3], [[f64; 3]; 3], (&'static str, usize, usize, u64));
        let cases: [Case; 12] = [
            (
                [[1.0, 2.0, 3.0, 4.0], [5.0, N, -I, 0.0], [-1.0, I, 6.0, 7.0]],
                tr_ok,
                ("E", 1, 1, 0x7ff8_0000_0000_0000),
            ),
            (
                [[1.0, 2.0, 3.0, I], [N, 0.0, -1.0, 4.0], [5.0, 6.0, -I, 7.0]],
                tr_ok,
                ("E", 0, 3, 0x7ff0_0000_0000_0000),
            ),
            (
                [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, -I, 0.0, N]],
                tr_ok,
                ("E", 2, 1, 0xfff0_0000_0000_0000),
            ),
            (
                [[1.0, 0.0, N, -I], [-1.0, 2.0, I, 3.0], [4.0, 5.0, 6.0, 7.0]],
                tr_ok,
                ("E <= 0", 0, 1, 0),
            ),
            (
                [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, -2.5], [0.0, N, I, -1.0]],
                tr_ok,
                ("E <= 0", 1, 3, 0xc004_0000_0000_0000),
            ),
            (
                [[1.0, 2.0, -0.0, 4.0], [N, 0.0, -1.0, I], [5.0, 6.0, 7.0, 8.0]],
                tr_ok,
                ("E <= 0", 0, 2, 0x8000_0000_0000_0000),
            ),
            // Zero and negative-zero transfers are valid.
            (
                e_ok,
                [[0.0, 0.0, 1.0], [-0.0, N, -1.0], [I, -I, 2.0]],
                ("Tr", 1, 1, 0x7ff8_0000_0000_0000),
            ),
            (
                e_ok,
                [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, -1e-300, N]],
                ("Tr", 2, 1, 0x81a5_6e1f_c2f8_f359),
            ),
            (
                e_ok,
                [[I, N, -1.0], [-I, 0.0, 1.0], [2.0, 3.0, 4.0]],
                ("Tr", 0, 0, 0x7ff0_0000_0000_0000),
            ),
            (
                e_ok,
                [[1.0, 2.0, 3.0], [4.0, 5.0, -I], [N, -1.0, I]],
                ("Tr", 1, 2, 0xfff0_0000_0000_0000),
            ),
            // Bad entries in both matrices: `E` is checked first.
            (
                [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, 10.0, 11.0, -1.0]],
                [[N, -1.0, I], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
                ("E <= 0", 2, 3, 0xbff0_0000_0000_0000),
            ),
            (
                e_ok,
                [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, N]],
                ("Tr", 2, 2, 0x7ff8_0000_0000_0000),
            ),
        ];
        for (i, (exec, transfer, want)) in cases.into_iter().enumerate() {
            let exec = Matrix::from_rows(&exec.map(Vec::from));
            let transfer = Matrix::from_rows(&transfer.map(Vec::from));
            let r = HcSystem::with_anonymous_machines(3, exec, transfer);
            assert_eq!(offending(r.unwrap_err()), want, "case {i}");
        }
        // An `E` row with no task columns, or a `Tr` with no data items,
        // has nothing to reject; the extremes of the valid ranges pass.
        assert!(HcSystem::with_anonymous_machines(
            3,
            Matrix::filled(3, 0, 0.0),
            Matrix::filled(3, 0, 0.0)
        )
        .is_ok());
        let tiny = f64::from_bits(1);
        let exec = Matrix::from_rows(&[vec![f64::MAX, tiny], vec![tiny, f64::MAX]]);
        let transfer = Matrix::from_rows(&[vec![f64::MAX, -0.0, 0.0, tiny]]);
        assert!(HcSystem::with_anonymous_machines(2, exec, transfer).is_ok());
    }

    #[test]
    fn rejects_the_first_offending_entry_at_every_position() {
        // 37 tasks and 23 data items on 3 machines: neither matrix is a
        // whole number of the scan's blocks. Each planted entry has a
        // later bad entry of another kind behind it.
        let (l, k, p) = (3, 37, 23);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -2.5] {
            for i in 0..l * k {
                let mut exec = Matrix::filled(l, k, 1.0);
                exec.set(i / k, i % k, bad);
                if i + 9 < l * k {
                    exec.set((i + 9) / k, (i + 9) % k, if bad.is_nan() { -1.0 } else { f64::NAN });
                }
                let r = HcSystem::with_anonymous_machines(l, exec, Matrix::filled(l, p, f64::NAN));
                let kind = if bad.is_finite() { "E <= 0" } else { "E" };
                assert_eq!(offending(r.unwrap_err()), (kind, i / k, i % k, bad.to_bits()), "{i}");
            }
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-300, -2.5] {
            for i in 0..l * p {
                let mut transfer = Matrix::filled(l, p, 0.0);
                transfer.set(i / p, i % p, bad);
                if i + 9 < l * p {
                    transfer.set((i + 9) / p, (i + 9) % p, -1.0);
                }
                let r = HcSystem::with_anonymous_machines(l, Matrix::filled(l, k, 1.0), transfer);
                assert_eq!(offending(r.unwrap_err()), ("Tr", i / p, i % p, bad.to_bits()), "{i}");
            }
        }
    }
}
