//! Incremental prefix-cached move scoring — the third tier of the
//! evaluation stack.
//!
//! Every move-scan hot path in the suite (SE's §4.5 allocation scan,
//! tabu's sampled neighborhood, SA's proposal loop) scores thousands of
//! candidates of the same shape: *the base solution with one task moved*.
//! A full pass costs O(k + p) per candidate, yet everything before the
//! first string position a move disturbs is unchanged — the solution
//! string is a linear extension, so prefix timing state is reusable.
//!
//! [`IncrementalEvaluator`] walks the base once ([`prime`]), storing its
//! per-task finish times and machines, every edge's transfer cost and a
//! checkpoint of the resumable frontier state every `C` positions
//! (machine-ready vector plus the [`ObjectiveState`] accumulators). It
//! then scores any single-task move by resuming from the nearest
//! checkpoint at or before the first affected position and replaying
//! only from there — **exact, not approximate**: the replay performs the
//! same float operations in the same order as a full pass over the
//! mutated string, so scores are bit-identical to
//! [`Evaluator::objective_value`] for every objective (the property
//! tests pin this down). Every scoring replays to the end of the
//! string: there are no bounds and no early exits.
//!
//! The stride `C = ⌈√k⌉` balances checkpoint memory/priming cost
//! (`O(√k)` checkpoints of `O(l)` floats) against resume cost (`≤ C`
//! fast-forwarded positions per score). The mutated string is never
//! materialized: segments are read through an index remapping of the
//! base, so scoring performs no `Solution` clones or `move_task` calls
//! at all.
//!
//! The priming walk caches every edge's **resolved transfer cost** under
//! the base assignment, in predecessor-CSR order, as it reads it. A
//! single-task move changes the machine pair of only the moved task's
//! own edges, so a machine-changing scoring overwrites just those
//! entries, replays with one contiguous `finish[src] + edge_cost[e]` read
//! per predecessor edge, and writes the base costs back before it
//! returns. The cache holds the exact `f64` the snapshot's pair-table
//! lookup yields, and the replay's add/max sequence and order are those
//! of [`EvalSnapshot`]'s single scheduling kernel, so the cache cannot
//! change a score bit.
//!
//! **Cell lanes** ([`score_cells`]) serve SE's best-fit allocation
//! scan, which tries every allowed machine at every valid position.
//! Every cell of that grid is the base without the relocated task `t`,
//! call it `S'`, with `t` inserted at one position on one machine. So
//! any list of cells in position order replays together in one lockstep
//! pass over `S'` with a lane per cell: the shared prefix and any
//! left-shifted tasks once, then `S'` from the first cell's position on
//! with per-lane finish times, frontiers and accumulators laid out
//! lane-minor, each lane inserting `t` just before its own position.
//! `t`'s producers precede every cell and its consumers follow every
//! cell, so each lane performs exactly the add/max sequence of its own
//! candidate's replay — the lane shape of the one scheduling kernel —
//! and every lane score is bit-identical to [`score_move`], finish-time
//! sum included.
//!
//! **Runs of identical schedules.** The kernel never inserts a task into
//! an idle gap: a task starts at the later of its data-ready time and
//! its machine's previous finish in string order. The string therefore
//! fixes the schedule only through each machine's task sequence. Two
//! relocations of `t` onto the same machine `m` whose positions differ
//! only by tasks running on other machines (and neither preceding nor
//! succeeding `t`) give every machine the same sequence, so they
//! produce the same finish times, busy times and latest finish, bit for
//! bit. Only the string-order finish sum can round differently.
//! [`crate::BatchEvaluator::best_relocation`] uses this to replay one
//! cell per run of such candidates under an objective that ignores the
//! finish sum ([`Objective::ignores_finish_sum`]). The fact holds for
//! this kernel only: a kernel that filled idle gaps would make the
//! schedule depend on the interleaving, and every cell would need its
//! own replay.
//!
//! [`prime`]: IncrementalEvaluator::prime
//! [`score_move`]: IncrementalEvaluator::score_move
//! [`score_cells`]: IncrementalEvaluator::score_cells
//! [`Evaluator::objective_value`]: crate::Evaluator::objective_value

use crate::encoding::{Segment, Solution};
use crate::objective::{Objective, ObjectiveState};
use crate::runner::ScanStats;
use crate::snapshot::{EvalSnapshot, LaneArrival};
use mshc_platform::{HcInstance, MachineId};
use mshc_taskgraph::TaskId;
use std::borrow::Cow;

/// The checkpoint stride for a `k`-task string: `⌈√k⌉`.
fn auto_stride(tasks: usize) -> usize {
    ((tasks as f64).sqrt().ceil() as usize).max(1)
}

/// Outcome of [`IncrementalEvaluator::score_move_bounded`]: always the
/// candidate's exact score.
///
/// Kept only because the benchmark under `perfbench/` names it; delete
/// it together with [`IncrementalEvaluator::score_move_bounded`] and
/// their uses there at the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum MoveScore {
    /// The candidate's exact objective value — bit-identical to a full
    /// evaluation pass over the materialized mutated solution.
    Exact(f64),
}

/// Scores single-task moves against a primed base solution by suffix
/// replay from strided checkpoints.
///
/// Besides the checkpoints, a priming keeps the base's per-task finish
/// times and machines and a per-edge cost cache: the transfer cost of
/// every DAG edge under the base assignment, indexed by the edge's
/// predecessor-CSR position. [`score_move`](Self::score_move) re-prices
/// only the moved task's incoming and outgoing edges when its machine
/// changes, and restores them before it returns, so between calls the
/// cache always describes the primed base.
///
/// ```
/// use mshc_platform::{HcInstance, HcSystem, MachineId, Matrix};
/// use mshc_schedule::{Evaluator, IncrementalEvaluator, ObjectiveKind, Solution};
/// use mshc_taskgraph::{TaskGraphBuilder, TaskId};
///
/// let mut b = TaskGraphBuilder::new(2);
/// b.add_edge(0, 1).unwrap();
/// let g = b.build().unwrap();
/// let sys = HcSystem::with_anonymous_machines(
///     2,
///     Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 2.0]]),
///     Matrix::from_rows(&[vec![6.0]]),
/// ).unwrap();
/// let inst = HcInstance::new(g, sys).unwrap();
/// let base = Solution::from_order(
///     inst.graph(), 2,
///     &[TaskId::new(0), TaskId::new(1)],
///     &[MachineId::new(0), MachineId::new(0)],
/// ).unwrap();
///
/// let mut inc = IncrementalEvaluator::new(&inst);
/// inc.prime(&base);
/// // Base: both on m0 => 3 + 4 = 7.
/// assert_eq!(inc.base_score(&ObjectiveKind::Makespan), 7.0);
/// // Move task 1 to m1: 3 + 6 (transfer) + 2 = 11 — scored without
/// // materializing the mutated solution.
/// let score = inc.score_move(TaskId::new(1), 1, MachineId::new(1), &ObjectiveKind::Makespan);
/// assert_eq!(score, 11.0);
/// // The base stays primed; re-scoring the incumbent placement reads the base.
/// assert_eq!(inc.score_move(TaskId::new(1), 1, MachineId::new(0), &ObjectiveKind::Makespan), 7.0);
/// ```
#[derive(Debug)]
pub struct IncrementalEvaluator<'a> {
    /// Owned when built straight from an instance; borrowed when many
    /// evaluators share one snapshot (the batch path).
    snap: Cow<'a, EvalSnapshot>,
    /// Checkpoint stride, [`auto_stride`] of the task count.
    stride: usize,
    /// Owned copy of the primed base (`clone_from`-reused across primes).
    base: Option<Solution>,
    /// Pristine per-task finish times of the base walk.
    base_finish: Vec<f64>,
    /// Machine of each task in the base.
    base_machine: Vec<u32>,
    /// Transfer cost of every edge (indexed by predecessor-CSR position)
    /// under the base assignment, stored by the priming walk as it reads
    /// each one. A move re-prices only the moved task's edges and puts
    /// the base values back before returning, so between calls this
    /// always holds the base's costs.
    edge_cost: Vec<f64>,
    // Checkpoints: entry `j` captures the frontier state *before*
    // processing string position `j * stride`.
    ckpt_avail: Vec<f64>,
    ckpt_busy: Vec<f64>,
    ckpt_max: Vec<f64>,
    ckpt_sum: Vec<f64>,
    /// Accumulators after the full base walk (serves [`Self::base_score`]).
    end_state: ObjectiveState,
    // Replay scratch.
    machine_avail: Vec<f64>,
    state: ObjectiveState,
    /// Working finish times; equal to `base_finish` between calls (the
    /// replay dirties only suffix entries and restores them afterwards).
    finish: Vec<f64>,
    dirty: Vec<u32>,
    /// Scorings performed ([`Self::prime`] is uncounted cache building,
    /// so the count does not depend on how often a base is primed).
    evaluations: u64,
    /// Scratch of [`Self::score_cells`]'s cell lanes.
    lanes: LaneScratch,
}

/// Per-lane replay state of [`IncrementalEvaluator::score_cells`],
/// lane-minor so every per-lane loop runs over one contiguous row. Grown
/// on first use to the lane count in play and reused afterwards.
#[derive(Debug, Default)]
struct LaneScratch {
    /// `[task][lane]`: finish times of the relocated task and of every
    /// task replayed in lanes.
    finish: Vec<f64>,
    /// `[machine][lane]`: machine frontiers.
    avail: Vec<f64>,
    /// `[machine][lane]`: busy-time accumulators.
    busy: Vec<f64>,
    /// `[lane]`: running finish-time maximum.
    max: Vec<f64>,
    /// `[lane]`: running finish-time sum.
    sum: Vec<f64>,
    /// `[lane]`: the task being stepped.
    step: Vec<f64>,
    /// `[machine]`: one lane's busy vector, gathered for finalize.
    column: Vec<f64>,
}

impl LaneScratch {
    /// Grows every buffer to hold `lanes` lanes of a `k`-task,
    /// `l`-machine instance (never shrinks, so steady state allocates
    /// nothing).
    fn reserve(&mut self, k: usize, l: usize, lanes: usize) {
        for (v, n) in [
            (&mut self.finish, k * lanes),
            (&mut self.avail, l * lanes),
            (&mut self.busy, l * lanes),
            (&mut self.max, lanes),
            (&mut self.sum, lanes),
            (&mut self.step, lanes),
            (&mut self.column, l),
        ] {
            if v.len() < n {
                v.resize(n, 0.0);
            }
        }
    }
}

impl<'a> IncrementalEvaluator<'a> {
    /// Creates an evaluator for one instance, flattening it into an owned
    /// [`EvalSnapshot`].
    pub fn new(inst: &HcInstance) -> IncrementalEvaluator<'static> {
        IncrementalEvaluator::from_snap(Cow::Owned(EvalSnapshot::new(inst)))
    }

    /// Creates an evaluator borrowing a shared snapshot — the cheap
    /// constructor worker threads use.
    pub fn with_snapshot(snap: &'a EvalSnapshot) -> IncrementalEvaluator<'a> {
        IncrementalEvaluator::from_snap(Cow::Borrowed(snap))
    }

    fn from_snap(snap: Cow<'a, EvalSnapshot>) -> IncrementalEvaluator<'a> {
        let k = snap.task_count();
        let l = snap.machine_count();
        let edges = snap.edge_count();
        IncrementalEvaluator {
            stride: auto_stride(k),
            snap,
            base: None,
            base_finish: vec![0.0; k],
            base_machine: vec![0; k],
            edge_cost: vec![0.0; edges],
            ckpt_avail: Vec::new(),
            ckpt_busy: Vec::new(),
            ckpt_max: Vec::new(),
            ckpt_sum: Vec::new(),
            end_state: ObjectiveState::new(l),
            machine_avail: vec![0.0; l],
            state: ObjectiveState::new(l),
            finish: vec![0.0; k],
            dirty: Vec::new(),
            evaluations: 0,
            lanes: LaneScratch::default(),
        }
    }

    /// The snapshot this evaluator walks.
    #[inline]
    pub fn snapshot(&self) -> &EvalSnapshot {
        &self.snap
    }

    /// The primed base solution, if any.
    #[inline]
    pub fn base(&self) -> Option<&Solution> {
        self.base.as_ref()
    }

    /// Scorings performed so far (primes are uncounted).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The scorings as a [`ScanStats`] record.
    #[inline]
    pub fn stats(&self) -> ScanStats {
        ScanStats { scored: self.evaluations, ..ScanStats::default() }
    }

    /// Does nothing. Kept only because the benchmark under `perfbench/`
    /// calls it; delete it with that call at the next change to the
    /// benchmark.
    pub fn set_scan_floor(&mut self, floor: f64) {
        let _ = floor;
    }

    /// Walks `base` once, storing its finish times and machines, every
    /// edge's resolved transfer cost, and a checkpoint of the frontier
    /// state (machine-ready vector + objective accumulators) every
    /// `⌈√k⌉` positions. O(k + p) plus O(√k × l) checkpoint writes.
    pub fn prime(&mut self, base: &Solution) {
        let snap = self.snap.as_ref();
        let k = snap.task_count();
        let l = snap.machine_count();
        debug_assert_eq!(base.len(), k, "solution/instance mismatch");
        debug_assert_eq!(base.machine_count(), l, "solution/instance machine mismatch");
        match &mut self.base {
            Some(b) => b.clone_from(base),
            none => *none = Some(base.clone()),
        }
        self.ckpt_avail.clear();
        self.ckpt_busy.clear();
        self.ckpt_max.clear();
        self.ckpt_sum.clear();
        self.machine_avail.fill(0.0);
        self.state.reset(l);
        for (i, seg) in base.segments().iter().enumerate() {
            if i % self.stride == 0 {
                self.ckpt_avail.extend_from_slice(&self.machine_avail);
                self.ckpt_busy.extend_from_slice(self.state.machine_busy());
                self.ckpt_max.push(self.state.max_finish());
                self.ckpt_sum.push(self.state.finish_sum());
            }
            let (t, m) = (seg.task, seg.machine);
            let exec = snap.exec_time(m, t);
            let rows = snap.pair_rows(m);
            let (_, finish) = snap.schedule_step(
                t,
                m,
                exec,
                |e, src| {
                    let cost = snap.edge_transfer(e, rows[self.base_machine[src] as usize]);
                    self.edge_cost[e] = cost;
                    cost
                },
                &self.finish,
                &self.machine_avail,
            );
            self.finish[t.index()] = finish;
            self.base_machine[t.index()] = m.raw();
            self.machine_avail[m.index()] = finish;
            self.state.fold(m, finish, exec);
        }
        self.base_finish.copy_from_slice(&self.finish);
        self.end_state.clone_from(&self.state);
    }

    /// The primed base's own score under `obj` — a free accumulator read,
    /// not a pass.
    ///
    /// # Panics
    /// If the evaluator was never primed.
    pub fn base_score(&self, obj: &dyn Objective) -> f64 {
        assert!(self.base.is_some(), "prime() the evaluator first");
        obj.finalize(&self.end_state)
    }

    /// Scores *base with task `t` moved to string position `new_pos` on
    /// machine `new_m`* (remove-then-insert semantics, exactly
    /// [`Solution::move_task`]) under `obj`, replaying from the nearest
    /// checkpoint at or before the first affected position to the end of
    /// the string.
    ///
    /// The result is bit-identical to a full
    /// [`crate::Evaluator::objective_value`] pass over the materialized
    /// mutated solution. The base stays primed, so any number of moves
    /// can be scored back to back. Every call counts as one evaluation.
    ///
    /// # Panics
    /// If the evaluator was never primed. `new_pos` must lie inside `t`'s
    /// valid range on the base (callers enumerate candidates from
    /// [`Solution::valid_range`]); positions outside it yield a
    /// precedence-inconsistent replay and a meaningless score.
    pub fn score_move(
        &mut self,
        t: TaskId,
        new_pos: usize,
        new_m: MachineId,
        obj: &dyn Objective,
    ) -> f64 {
        let IncrementalEvaluator {
            snap,
            stride,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpt_avail,
            ckpt_busy,
            ckpt_max,
            ckpt_sum,
            machine_avail,
            state,
            finish,
            dirty,
            evaluations,
            ..
        } = self;
        let snap = snap.as_ref();
        let base = base.as_ref().expect("prime() the evaluator first");
        let k = base.len();
        let l = snap.machine_count();
        assert!(new_pos < k, "move position out of range");
        debug_assert!(new_m.index() < l, "machine out of range");

        let old_pos = base.position_of(t);
        let old_m = base.machine_of(t);
        let first = old_pos.min(new_pos);
        *evaluations += 1;
        crate::faults::eval_tick();

        // Resume from the nearest checkpoint at or before `first` and
        // fast-forward the unchanged positions [ci·stride, first): their
        // timing is the base's, so the frontier folds from stored finish
        // times without touching predecessor lists.
        let ci = first / *stride;
        machine_avail.copy_from_slice(&ckpt_avail[ci * l..(ci + 1) * l]);
        state.load(ckpt_max[ci], ckpt_sum[ci], ci * *stride, &ckpt_busy[ci * l..(ci + 1) * l]);
        for seg in &base.segments()[ci * *stride..first] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            machine_avail[mu.index()] = f;
            state.fold(mu, f, snap.exec_time(mu, u));
        }

        // A machine change re-prices exactly `t`'s incoming and outgoing
        // edges; every other edge keeps both endpoints' base machines,
        // so its cached base cost is already the candidate's.
        let moved = new_m != old_m;
        if moved {
            snap.resolve_task_edges(t, new_m, base_machine, edge_cost);
        }

        // Replay the disturbed suffix of the *mutated* string, read
        // through an index remapping of the base (no clone, no
        // move_task).
        let seg_at = |i: usize| -> Segment {
            if i == new_pos {
                Segment { task: t, machine: new_m }
            } else if old_pos < new_pos && (old_pos..new_pos).contains(&i) {
                base.segment_at(i + 1)
            } else if new_pos < old_pos && i > new_pos && i <= old_pos {
                base.segment_at(i - 1)
            } else {
                base.segment_at(i)
            }
        };
        for i in first..k {
            let seg = seg_at(i);
            let (u, mu) = (seg.task, seg.machine);
            let exec = snap.exec_time(mu, u);
            let (_, f) =
                snap.schedule_step(u, mu, exec, |e, _| edge_cost[e], finish, machine_avail);
            finish[u.index()] = f;
            dirty.push(u.raw());
            machine_avail[mu.index()] = f;
            state.fold(mu, f, exec);
        }
        let score = obj.finalize(state);

        // Restore the base: `t`'s edge costs and the pristine finish
        // times (dirty entries only).
        if moved {
            snap.resolve_task_edges(t, old_m, base_machine, edge_cost);
        }
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();
        score
    }

    /// [`score_move`](Self::score_move) wrapped in [`MoveScore::Exact`];
    /// `bound` is ignored.
    ///
    /// Kept only because the benchmark under `perfbench/` calls it;
    /// delete it with that call at the next change to the benchmark.
    pub fn score_move_bounded(
        &mut self,
        t: TaskId,
        new_pos: usize,
        new_m: MachineId,
        bound: f64,
        obj: &dyn Objective,
    ) -> MoveScore {
        let _ = bound;
        MoveScore::Exact(self.score_move(t, new_pos, new_m, obj))
    }

    /// Scores relocation cells of task `t` in one lockstep pass: lane
    /// `j` is the cell `(positions[j], machines[j])`, *base with `t`
    /// moved to string position `positions[j]` on machine
    /// `machines[j]`*, and `out[j]` receives its score, bit-identical to
    /// [`score_move`](Self::score_move)`(t, positions[j], machines[j],
    /// obj)` and so to a full pass over the materialized candidate.
    /// Positions must be nondecreasing and inside `t`'s valid range;
    /// cells may repeat.
    ///
    /// Let `S'` be the base without `t`; cell `j` is `S'` with `t`
    /// inserted just before `S'[positions[j]]`. The pass resumes from
    /// the checkpoint at or before the first disturbed position and
    /// fast-forwards from the stored finish times. When the first cell
    /// lies right of `t`'s own position, the left-shifted tasks between
    /// the two replay once, scalar: none of them touches `t`. Every lane
    /// then starts from that shared state, and `S'` from the first
    /// cell's position on replays through the kernel's lane step, with
    /// per-lane finish times, frontiers and accumulators laid out
    /// lane-minor. Just before `S'[positions[j]]`, lane `j` inserts `t`
    /// through the scalar step's data-ready fold over its own machine
    /// and its own frontier. This stays exact:
    ///
    /// * `t`'s producers precede the valid range, so every lane reads
    ///   their shared finish times;
    /// * `t`'s consumers follow it, so every lane has inserted `t`
    ///   before one of them reads it;
    /// * a lane whose insertion is still ahead steps the same inputs
    ///   through the same ops as every other such lane, so it holds
    ///   exactly the values of `S'`;
    /// * each lane folds `t` at its own insertion point, so its fold
    ///   runs in its candidate's string order, and objectives that read
    ///   the finish-time sum stay bit-identical too.
    ///
    /// Every lane counts as one scoring (and one fault-plan tick). The
    /// base stays primed, and the lane scratch is reused, so
    /// steady-state calls allocate nothing.
    ///
    /// # Panics
    /// As [`score_move`](Self::score_move), or if `machines` or `out`
    /// does not hold one entry per cell.
    pub fn score_cells(
        &mut self,
        t: TaskId,
        positions: &[usize],
        machines: &[MachineId],
        obj: &dyn Objective,
        out: &mut [f64],
    ) {
        let IncrementalEvaluator {
            snap,
            stride,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpt_avail,
            ckpt_busy,
            ckpt_max,
            ckpt_sum,
            machine_avail,
            state,
            finish,
            dirty,
            evaluations,
            lanes,
            ..
        } = self;
        let snap = snap.as_ref();
        let base = base.as_ref().expect("prime() the evaluator first");
        let k = base.len();
        let l = snap.machine_count();
        let n = positions.len();
        assert_eq!(machines.len(), n, "one machine per cell");
        assert_eq!(out.len(), n, "one score slot per cell");
        let (Some(&p0), Some(&last)) = (positions.first(), positions.last()) else { return };
        assert!(last < k, "move position out of range");
        debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]), "positions nondecreasing");
        debug_assert!(machines.iter().all(|m| m.index() < l), "machine out of range");
        *evaluations += n as u64;
        for _ in 0..n {
            crate::faults::eval_tick();
        }

        // Resume from the nearest checkpoint at or before the first
        // disturbed position and fast-forward the unchanged prefix.
        let old_pos = base.position_of(t);
        let first = old_pos.min(p0);
        let ci = first / *stride;
        machine_avail.copy_from_slice(&ckpt_avail[ci * l..(ci + 1) * l]);
        state.load(ckpt_max[ci], ckpt_sum[ci], ci * *stride, &ckpt_busy[ci * l..(ci + 1) * l]);
        for seg in &base.segments()[ci * *stride..first] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            machine_avail[mu.index()] = f;
            state.fold(mu, f, snap.exec_time(mu, u));
        }

        // A first cell right of `t` shifts base positions (old_pos, p0]
        // one to the left. None of them consumes `t` (every cell lands
        // after them), and none of their edges touches `t`, so they
        // replay once, scalar, on the cached base edge costs.
        if p0 > old_pos {
            for seg in &base.segments()[old_pos + 1..=p0] {
                let (u, mu) = (seg.task, seg.machine);
                let exec = snap.exec_time(mu, u);
                let (_, f) =
                    snap.schedule_step(u, mu, exec, |e, _| edge_cost[e], finish, machine_avail);
                finish[u.index()] = f;
                dirty.push(u.raw());
                machine_avail[mu.index()] = f;
                state.fold(mu, f, exec);
            }
        }

        // Every lane starts from the shared frontier and fold.
        lanes.reserve(k, l, n);
        let LaneScratch { finish: lane_finish, avail, busy, max, sum, step, column } = lanes;
        for x in 0..l {
            avail[x * n..(x + 1) * n].fill(machine_avail[x]);
            busy[x * n..(x + 1) * n].fill(state.machine_busy()[x]);
        }
        max[..n].fill(state.max_finish());
        sum[..n].fill(state.finish_sum());

        // `S'[i]` is base position `i` before `t`'s own and `i + 1` from
        // there on, so `S'[p0..]` is the base from `from` on without `t`.
        let from = if p0 < old_pos { p0 } else { p0 + 1 };
        let t_row = t.index() * n..(t.index() + 1) * n;
        let mut next = 0;
        for i in p0..k {
            // Lanes whose cell sits at `i` insert `t` before `S'[i]`:
            // its producers are shared, its in-edges priced for the
            // lane's machine, its frontier the lane's own.
            while next < n && positions[next] == i {
                let (j, m) = (next, machines[next]);
                let rows = snap.pair_rows(m);
                let exec = snap.exec_time(m, t);
                let ready = snap.data_ready(
                    t,
                    |e, src| snap.edge_transfer(e, rows[base_machine[src] as usize]),
                    finish,
                );
                let slot = m.index() * n + j;
                let f = ready.max(avail[slot]) + exec;
                lane_finish[t.index() * n + j] = f;
                avail[slot] = f;
                max[j] = max[j].max(f);
                sum[j] += f;
                busy[slot] += exec;
                next += 1;
            }
            if i + 1 == k {
                break; // `S'` holds k - 1 tasks
            }
            let seg = base.segment_at(if i < old_pos { i } else { i + 1 });
            let (u, mu) = (seg.task, seg.machine);
            let exec = snap.exec_time(mu, u);
            let row = mu.index() * n..(mu.index() + 1) * n;
            snap.lane_step(
                u,
                mu,
                exec,
                machines,
                |e, src| {
                    if src == t.index() {
                        debug_assert_eq!(next, n, "a consumer of {t} precedes a cell");
                        LaneArrival::Moved(&lane_finish[t_row.clone()])
                    } else if base.position_of(TaskId::from_usize(src)) >= from {
                        LaneArrival::Lanes(&lane_finish[src * n..(src + 1) * n], edge_cost[e])
                    } else {
                        LaneArrival::Shared(finish[src] + edge_cost[e])
                    }
                },
                &avail[row.clone()],
                step,
            );
            let lanes = lane_finish[u.index() * n..(u.index() + 1) * n]
                .iter_mut()
                .zip(&mut avail[row.clone()])
                .zip(&mut busy[row])
                .zip(max.iter_mut().zip(sum.iter_mut()))
                .zip(&step[..n]);
            for ((((f_u, a), b), (mx, sm)), &f) in lanes {
                *f_u = f;
                *a = f;
                *mx = mx.max(f);
                *sm += f;
                *b += exec;
            }
        }

        // Every lane has folded all k tasks.
        let column = &mut column[..l];
        for (j, score) in out.iter_mut().enumerate() {
            for (x, c) in column.iter_mut().enumerate() {
                *c = busy[x * n + j];
            }
            state.load(max[j], sum[j], k, column);
            *score = obj.finalize(state);
        }
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::init::random_solution;
    use crate::objective::ObjectiveKind;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::gen::{layered, LayeredConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_instance(tasks: usize, machines: usize, seed: u64) -> HcInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = LayeredConfig { tasks, mean_width: 4, edge_prob: 0.5, skip_prob: 0.05 };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(10.0..100.0));
        let pairs = machines * (machines - 1) / 2;
        let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        HcInstance::new(graph, sys).unwrap()
    }

    #[test]
    fn auto_stride_is_ceil_sqrt() {
        assert_eq!(auto_stride(0), 1);
        assert_eq!(auto_stride(1), 1);
        assert_eq!(auto_stride(4), 2);
        assert_eq!(auto_stride(5), 3);
        assert_eq!(auto_stride(100), 10);
        assert_eq!(auto_stride(101), 11);
    }

    #[test]
    fn score_move_is_bit_identical_to_full_eval() {
        let inst = random_instance(24, 4, 3);
        let g = inst.graph();
        let k = inst.task_count();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for round in 0..6 {
            let base = random_solution(&inst, &mut rng);
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.prime(&base);
            for _ in 0..40 {
                let t = TaskId::new(rng.gen_range(0..k as u32));
                let (lo, hi) = base.valid_range(g, t);
                let pos = rng.gen_range(lo..=hi);
                let m = MachineId::new(rng.gen_range(0..4));
                let mut cand = base.clone();
                cand.move_task(g, t, pos, m).unwrap();
                for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
                    let fast = inc.score_move(t, pos, m, &kind);
                    let slow = scalar.objective_value(&cand, &kind);
                    assert_eq!(fast, slow, "{} base {round}", kind.label());
                }
            }
        }
    }

    #[test]
    fn base_score_matches_full_eval_and_incumbent_move() {
        let inst = random_instance(15, 3, 4);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let base = random_solution(&inst, &mut rng);
        let mut inc = IncrementalEvaluator::new(&inst);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        for kind in ObjectiveKind::BASIC {
            assert_eq!(inc.base_score(&kind), scalar.objective_value(&base, &kind));
        }
        // Re-placing a task at its incumbent position/machine is the base.
        let t = TaskId::new(7);
        let _ = g;
        let score =
            inc.score_move(t, base.position_of(t), base.machine_of(t), &ObjectiveKind::Makespan);
        assert_eq!(score, inc.base_score(&ObjectiveKind::Makespan));
    }

    #[test]
    fn repriming_tracks_a_moving_base() {
        // SA's shape: accept moves, re-prime, keep scoring.
        let inst = random_instance(18, 3, 6);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut current = random_solution(&inst, &mut rng);
        let mut inc = IncrementalEvaluator::new(&inst);
        let mut scalar = Evaluator::new(&inst);
        inc.prime(&current);
        for _ in 0..60 {
            let t = TaskId::new(rng.gen_range(0..18));
            let (lo, hi) = current.valid_range(g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = MachineId::new(rng.gen_range(0..3));
            let fast = inc.score_move(t, pos, m, &ObjectiveKind::Makespan);
            let mut cand = current.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(fast, scalar.makespan(&cand));
            if rng.gen::<f64>() < 0.4 {
                current = cand;
                inc.prime(&current);
            }
        }
        assert_eq!(inc.evaluations(), 60, "one scoring per move, primes uncounted");
    }

    #[test]
    fn shared_snapshot_matches_owned() {
        let inst = random_instance(12, 3, 8);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let base = random_solution(&inst, &mut rng);
        let mut owned = IncrementalEvaluator::new(&inst);
        let mut borrowed = IncrementalEvaluator::with_snapshot(&snap);
        owned.prime(&base);
        borrowed.prime(&base);
        assert_eq!(owned.snapshot(), borrowed.snapshot());
        assert_eq!(owned.base(), Some(&base));
        let t = TaskId::new(5);
        let (lo, _) = base.valid_range(inst.graph(), t);
        let a = owned.score_move(t, lo, MachineId::new(0), &ObjectiveKind::Makespan);
        let b = borrowed.score_move(t, lo, MachineId::new(0), &ObjectiveKind::Makespan);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_move_scores_the_base() {
        // Moving a task to its own (position, machine) disturbs nothing:
        // the replay reproduces the base walk, for every objective.
        let inst = random_instance(30, 4, 19);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let base = random_solution(&inst, &mut rng);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.prime(&base);
            let t = base.segment_at(3).task;
            let score = inc.score_move(t, 3, base.machine_of(t), &kind);
            assert_eq!(score, inc.base_score(&kind), "{}", kind.label());
            assert_eq!(inc.stats(), ScanStats { scored: 1, ..ScanStats::default() });
        }
    }

    #[test]
    fn maximal_disturbed_region_stays_exact() {
        // A move to position 0 replays from the very start; scores must
        // still be bit-identical to the full pass.
        let inst = random_instance(25, 4, 23);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let base = random_solution(&inst, &mut rng);
        // The task at position 0 always admits position-0 moves (it has
        // no predecessors), and machine changes there disturb the whole
        // string.
        let t = base.segment_at(0).task;
        assert_eq!(base.valid_range(g, t).0, 0);
        let mut scalar = Evaluator::new(&inst);
        for kind in ObjectiveKind::BASIC {
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.prime(&base);
            for m in 0..4 {
                let m = MachineId::new(m);
                let mut cand = base.clone();
                cand.move_task(g, t, 0, m).unwrap();
                let truth = scalar.objective_value(&cand, &kind);
                assert_eq!(inc.score_move(t, 0, m, &kind), truth, "{}", kind.label());
            }
        }
    }

    #[test]
    fn score_move_restores_the_base_after_every_move() {
        // Machine-changing moves re-price the moved task's edges and
        // every replay dirties finish times; both must be back at the
        // base's values before the next scoring. Interleave
        // machine-changing and same-machine moves and check each score,
        // the base score and a re-scored identity move after every one.
        let inst = random_instance(28, 4, 31);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let base = random_solution(&inst, &mut rng);
        let mut scalar = Evaluator::new(&inst);
        let obj = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        let base_truth = scalar.objective_value(&base, &obj);
        let mut inc = IncrementalEvaluator::new(&inst);
        inc.prime(&base);
        let probe = TaskId::new(0);
        let probe_cell = (base.position_of(probe), base.machine_of(probe));
        for step in 0..80 {
            let t = TaskId::new(rng.gen_range(0..28));
            let (lo, hi) = base.valid_range(g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = if step % 2 == 0 {
                base.machine_of(t)
            } else {
                MachineId::new((base.machine_of(t).raw() + rng.gen_range(1..4)) % 4)
            };
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(inc.score_move(t, pos, m, &obj), scalar.objective_value(&cand, &obj));
            assert_eq!(inc.base_score(&obj), base_truth, "step {step}");
            assert_eq!(inc.score_move(probe, probe_cell.0, probe_cell.1, &obj), base_truth);
        }
        // The benchmark-pinned wrapper is the exact score, whatever the
        // bound.
        let t = TaskId::new(5);
        let (lo, _) = base.valid_range(g, t);
        let exact = inc.score_move(t, lo, MachineId::new(1), &obj);
        for bound in [f64::NEG_INFINITY, 0.0, exact, f64::INFINITY] {
            assert_eq!(
                inc.score_move_bounded(t, lo, MachineId::new(1), bound, &obj),
                MoveScore::Exact(exact)
            );
        }
    }

    #[test]
    fn wide_dynamic_range_scores_stay_exact() {
        // A huge finish feeding a tiny consumer chain: the computed chain
        // absorbs the small execs entirely (round(1e16 + 1) == 1e16), and
        // every candidate's score must still match the full pass bit for
        // bit.
        let mut b = mshc_taskgraph::TaskGraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build().unwrap();
        let huge = 1e16;
        let exec =
            Matrix::from_rows(&[vec![huge, 1.0, 1.0, 1.0], vec![huge * 1.25, 2.0, 2.0, 2.0]]);
        let transfer = Matrix::from_fn(1, g.data_count(), |_, _| 0.5);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let graph = inst.graph();
        let order: Vec<TaskId> = (0..4).map(TaskId::new).collect();
        let base = Solution::from_order(graph, 2, &order, &[MachineId::new(0); 4]).unwrap();
        let mut inc = IncrementalEvaluator::new(&inst);
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        let mut candidates = Vec::new();
        for t in 0..4u32 {
            let t = TaskId::new(t);
            let (lo, hi) = base.valid_range(graph, t);
            for pos in lo..=hi {
                for m in 0..2 {
                    candidates.push((t, pos, MachineId::new(m)));
                }
            }
        }
        for (t, pos, m) in candidates {
            let mut cand = base.clone();
            cand.move_task(graph, t, pos, m).unwrap();
            let truth = scalar.objective_value(&cand, &ObjectiveKind::Makespan);
            assert_eq!(inc.score_move(t, pos, m, &ObjectiveKind::Makespan), truth, "{t} -> {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "prime()")]
    fn score_move_requires_priming() {
        let inst = random_instance(6, 2, 10);
        let mut inc = IncrementalEvaluator::new(&inst);
        let _ = inc.score_move(TaskId::new(0), 0, MachineId::new(0), &ObjectiveKind::Makespan);
    }

    #[test]
    fn single_task_instance_works() {
        let g = mshc_taskgraph::TaskGraphBuilder::new(1).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![5.0], vec![3.0]]),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let base =
            Solution::from_order(inst.graph(), 2, &[TaskId::new(0)], &[MachineId::new(0)]).unwrap();
        let mut inc = IncrementalEvaluator::new(&inst);
        inc.prime(&base);
        assert_eq!(inc.base_score(&ObjectiveKind::Makespan), 5.0);
        assert_eq!(
            inc.score_move(TaskId::new(0), 0, MachineId::new(1), &ObjectiveKind::Makespan),
            3.0
        );
    }
}
