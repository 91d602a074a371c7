//! The cells SE's relocation scan replays, computed from the base string
//! and exact scores, independently of how `BatchEvaluator` walks them.

use mshc_platform::MachineId;
use mshc_schedule::{BatchEvaluator, EvalSnapshot, IncrementalEvaluator, Objective, Solution};
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

/// The cells `best_relocation` replays over `t`'s grid without a floor,
/// in grid order (position by position, machines in the given order):
/// the first cell other than the base's own of every run.
pub fn replayed_list(
    base: &Solution,
    t: TaskId,
    range: (usize, usize),
    machines: &[MachineId],
) -> Vec<(usize, MachineId)> {
    let own = (base.position_of(t), base.machine_of(t));
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (i, &m) in machines.iter().enumerate() {
        for run in lane_runs(base, t, range, m) {
            let first = run.into_iter().find(|&pos| (pos, m) != own);
            cells.extend(first.map(|pos| (pos, i)));
        }
    }
    cells.sort_unstable();
    cells.into_iter().map(|(pos, i)| (pos, machines[i])).collect()
}

/// How many cells `best_relocation` replays without a floor.
pub fn replayed_cells(
    base: &Solution,
    t: TaskId,
    range: (usize, usize),
    machines: &[MachineId],
) -> usize {
    replayed_list(base, t, range, machines).len()
}

/// The lanes `best_relocation` replays under `obj`, an objective that
/// never falls on insertion and ignores the finish-time sum: the
/// run-start cells in grid order, scored exactly one by one, walked in
/// passes of 4 cells plus the floor lane, then 8, 16, … cells, each at
/// most `⌈16,384 / k⌉`, until the first minimum so far equals the floor
/// bit for bit. The floor is a lone floor lane's score. A walk of at
/// most 4 cells runs without a floor lane.
pub fn floor_walk_lanes(
    snap: &EvalSnapshot,
    base: &Solution,
    t: TaskId,
    range: (usize, usize),
    machines: &[MachineId],
    obj: &dyn Objective,
) -> usize {
    let cells = replayed_list(base, t, range, machines);
    let k = base.len();
    let cap = 16_384usize.div_ceil(k);
    let head = cap.min(4);
    if cells.len() <= head {
        return cells.len();
    }
    let moves: Vec<(TaskId, usize, MachineId)> =
        cells.iter().map(|&(pos, m)| (t, pos, m)).collect();
    let scores = BatchEvaluator::new(snap).score_task_moves(base, &moves, obj);
    let mut inc = IncrementalEvaluator::with_snapshot(snap);
    inc.prime(base);
    let mut floor = [f64::NAN];
    inc.score_cells(t, &[k], &[base.machine_of(t)], obj, &mut floor);
    let first_min = |s: &[f64]| s.iter().copied().min_by(f64::total_cmp).expect("a cell");
    let mut best = first_min(&scores[..head]);
    let (mut lo, mut size) = (head, head);
    while lo < scores.len() && best.to_bits() != floor[0].to_bits() {
        size = (2 * size).min(cap);
        let hi = (lo + size).min(scores.len());
        best = [best, first_min(&scores[lo..hi])].into_iter().min_by(f64::total_cmp).unwrap();
        lo = hi;
    }
    lo + 1
}
