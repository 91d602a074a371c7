//! Shared workload shapes for the evaluation-throughput probes.
//!
//! The criterion `batch_candidates`/`relocation_scan` groups and the
//! `bench_eval` binary (the `BENCH_eval.json` emitter) must measure the
//! *same* candidate grids so their numbers stay comparable; both build
//! them here.

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::Solution;
use mshc_taskgraph::TaskId;

/// The SE allocation-scan shape at its widest: picks the task of `base`
/// with the widest valid range (ties to the lowest id) and returns its
/// full `(position × machine)` candidate grid minus the incumbent
/// placement — the biggest realistic single-task fan-out on this
/// instance.
pub fn widest_move_grid(inst: &HcInstance, base: &Solution) -> (TaskId, Vec<(usize, MachineId)>) {
    let g = inst.graph();
    let t = g
        .tasks()
        .max_by_key(|&t| {
            let (lo, hi) = base.valid_range(g, t);
            hi - lo
        })
        .expect("non-empty graph");
    let (lo, hi) = base.valid_range(g, t);
    let moves = (lo..=hi)
        .flat_map(|pos| (0..inst.machine_count()).map(move |m| (pos, MachineId::from_usize(m))))
        .filter(|&(pos, m)| pos != base.position_of(t) || m != base.machine_of(t))
        .collect();
    (t, moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_workloads::WorkloadSpec;
    use rand::SeedableRng;

    #[test]
    fn grid_excludes_incumbent_and_stays_in_range() {
        let inst = WorkloadSpec::small(3).generate();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let (t, moves) = widest_move_grid(&inst, &base);
        let (lo, hi) = base.valid_range(inst.graph(), t);
        assert!(!moves.is_empty());
        for &(pos, m) in &moves {
            assert!((lo..=hi).contains(&pos));
            assert!(m.index() < inst.machine_count());
            assert!(pos != base.position_of(t) || m != base.machine_of(t));
        }
        assert_eq!(moves.len(), (hi - lo + 1) * inst.machine_count() - 1);
    }
}
