//! The runs of identical schedules in SE's relocation grid, computed
//! from the base string alone, independently of `BatchEvaluator`.

use mshc_platform::MachineId;
use mshc_schedule::Solution;
use mshc_taskgraph::TaskId;

/// Lane `m` of `t`'s relocation grid over positions `lo..=hi` on
/// `base`, split into runs: a run starts at `lo` and at every position
/// whose step passes a task on `m`. The passed tasks are read off `base`
/// with `t` removed. Every cell of a run schedules the same per-machine
/// task sequences.
pub fn lane_runs(
    base: &Solution,
    t: TaskId,
    (lo, hi): (usize, usize),
    m: MachineId,
) -> Vec<Vec<usize>> {
    let rest: Vec<MachineId> =
        base.segments().iter().filter(|s| s.task != t).map(|s| s.machine).collect();
    let mut runs: Vec<Vec<usize>> = Vec::new();
    for pos in lo..=hi {
        if pos == lo || rest[pos - 1] == m {
            runs.push(Vec::new());
        }
        runs.last_mut().expect("a run starts at lo").push(pos);
    }
    runs
}

/// The cells `best_relocation` replays over `t`'s grid: one per run
/// that holds a cell other than the base's own when `runs` (the
/// objective ignores the finish-time sum), every cell but the base's
/// own otherwise.
pub fn replayed_cells(
    base: &Solution,
    t: TaskId,
    range: (usize, usize),
    machines: &[MachineId],
    runs: bool,
) -> usize {
    let own = (base.position_of(t), base.machine_of(t));
    machines
        .iter()
        .map(|&m| {
            let cells = lane_runs(base, t, range, m).into_iter().map(|run| {
                let others = run.iter().filter(|&&pos| (pos, m) != own).count();
                if runs {
                    others.min(1)
                } else {
                    others
                }
            });
            cells.sum::<usize>()
        })
        .sum()
}
