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
//! **Primes carry forward.** A search primes strings that differ from
//! the one it primed last by a move or two: SE's allocation relocates
//! its selected tasks one after another, SA re-primes after each
//! accepted move, tabu after each applied one. So [`prime`] compares
//! the new string with the stored one and resumes like a scoring does:
//! it keeps the checkpoints at or before the first difference,
//! fast-forwards to it from the stored finish times and walks only the
//! rest. An identical string is a compare. The crate-internal `advance`
//! goes one step further for SE: after a [`score_cells`] pass, the lane
//! that replayed the run of the cell SE is about to commit already holds
//! the finish time of every task the move disturbs, so the prime
//! advances to that cell by folding them, with no replay, and the next
//! scan's prime finds its string unchanged. Either way the stored state
//! equals a walk of the whole string bit for bit, so no score depends on
//! what was primed before.
//!
//! The priming walk caches every edge's **resolved transfer cost** under
//! the base assignment, in predecessor-CSR order, as it reads it. A
//! single-task move changes the machine pair of only the moved task's
//! own edges, so a machine-changing scoring overwrites just those
//! entries, replays with one contiguous `finish[src] + edge_cost[e]` read
//! per predecessor edge, and writes the base costs back before it
//! returns. The cache holds the exact `f64` the snapshot's pair-table
//! lookup yields, and the replay's sequence of adds and `later`
//! maxima, and its order, are those of [`EvalSnapshot`]'s single
//! scheduling kernel, so the cache cannot change a score bit.
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
//! cell, so each lane performs exactly the adds and `later` maxima of
//! its own candidate's replay — the lane shape of the one scheduling
//! kernel — and every lane score is bit-identical to [`score_move`],
//! finish-time sum included.
//!
//! **The floor lane.** A lane at position `k`, one past `S'`'s last
//! task, never inserts `t`: it holds `t`'s finish at `-inf`, which
//! `later` drops, so it replays `S'` itself as one more lane of the same
//! pass. The kernel's steps are `later` and `+` over non-negative costs,
//! both monotone, so inserting `t` can only delay `S'`'s tasks, and
//! under an objective that [never falls on
//! insertion](Objective::never_falls_on_insertion) (makespan) no cell
//! scores below the floor lane.
//! [`crate::BatchEvaluator::best_relocation`] stops its walk once a cell
//! meets it.
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
//! cell per run of such candidates. Under an objective that reads the
//! finish sum, the crate-internal `refold` then scores each other cell
//! of a run from the lane that replayed it: it re-adds the cell's sum
//! from the lane's finish times in the cell's own string order, add for
//! add what the cell's replay would fold, and finalizes it with the
//! lane's latest finish and busy times. The fact holds for this kernel
//! only: a kernel that filled idle gaps would make the schedule depend
//! on the interleaving, and every cell would need its own replay.
//!
//! **What a scoring folds.** [`Objective::reads`] declares which of the
//! finish-time sum and the busy times an objective's score reads.
//! [`score_move`] and [`score_cells`] fold only those, besides the
//! latest finish and the task count, through one loop body compiled
//! once per component set. Under makespan a lane carries three streams
//! (finish times, frontiers, latest finish) instead of five, and its
//! latest finish is its score. [`prime`] folds everything, so its
//! checkpoints serve every objective.
//!
//! [`prime`]: IncrementalEvaluator::prime
//! [`score_move`]: IncrementalEvaluator::score_move
//! [`score_cells`]: IncrementalEvaluator::score_cells
//! [`Evaluator::objective_value`]: crate::Evaluator::objective_value

use crate::encoding::{Segment, Solution};
use crate::objective::{specialize, Objective, ObjectiveState};
use crate::runner::ScanStats;
use crate::snapshot::{later, EvalSnapshot, LaneArrival};
use mshc_platform::{HcInstance, MachineId};
use mshc_taskgraph::TaskId;
use std::borrow::Cow;

/// Cells whose finish-time sums one pass of
/// `IncrementalEvaluator::refold` re-adds side by side, each in a
/// register: every add of a cell depends on its last, so eight cells
/// keep the adder busy where one would wait on it.
const REFOLD_BLOCK: usize = 8;

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
    /// The base walk's checkpoints.
    ckpts: Checkpoints,
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

/// The checkpoints of a base walk: entry `j` captures the frontier state
/// (machine-ready vector plus objective accumulators) *before* string
/// position `j * stride`. Entry 0, the empty fold, exists from
/// construction on.
#[derive(Debug)]
struct Checkpoints {
    /// [`auto_stride`] of the task count.
    stride: usize,
    /// `[entry][machine]`: machine frontiers.
    avail: Vec<f64>,
    /// `[entry][machine]`: busy times.
    busy: Vec<f64>,
    /// `[entry]`: latest finish.
    max: Vec<f64>,
    /// `[entry]`: finish-time sum.
    sum: Vec<f64>,
}

impl Checkpoints {
    fn new(tasks: usize, machines: usize) -> Checkpoints {
        Checkpoints {
            stride: auto_stride(tasks),
            avail: vec![0.0; machines],
            busy: vec![0.0; machines],
            max: vec![0.0],
            sum: vec![0.0],
        }
    }

    /// Drops every entry after string position `from`.
    fn truncate(&mut self, from: usize, machines: usize) {
        let entries = from / self.stride + 1;
        self.avail.truncate(entries * machines);
        self.busy.truncate(entries * machines);
        self.max.truncate(entries);
        self.sum.truncate(entries);
    }

    /// Stores the state before position `i` of a walk that visits every
    /// position from the last stored entry on, if `i` is the position of
    /// the next entry.
    #[inline]
    fn record(&mut self, i: usize, avail: &[f64], state: &ObjectiveState) {
        if i == self.max.len() * self.stride {
            self.avail.extend_from_slice(avail);
            self.busy.extend_from_slice(state.machine_busy());
            self.max.push(state.max_finish());
            self.sum.push(state.finish_sum());
        }
    }

    /// Loads the entry at or before string position `from` of `base`'s
    /// walk into `avail` and `state` (the components `SUM` and `BUSY`
    /// select), then fast-forwards both to `from`: the positions between
    /// keep the base's timing, so they fold from the stored finish times
    /// without touching predecessor lists.
    fn resume<const SUM: bool, const BUSY: bool>(
        &self,
        snap: &EvalSnapshot,
        base: &Solution,
        base_finish: &[f64],
        from: usize,
        avail: &mut [f64],
        state: &mut ObjectiveState,
    ) {
        let l = avail.len();
        let ci = from / self.stride;
        avail.copy_from_slice(&self.avail[ci * l..(ci + 1) * l]);
        state.load_reads::<SUM, BUSY>(
            self.max[ci],
            self.sum[ci],
            ci * self.stride,
            &self.busy[ci * l..(ci + 1) * l],
        );
        for seg in &base.segments()[ci * self.stride..from] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            avail[mu.index()] = f;
            state.fold_reads::<SUM, BUSY>(mu, f, snap.exec_time(mu, u));
        }
    }
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
    /// `[machine][lane]`: busy-time accumulators, folded only under an
    /// objective that reads them.
    busy: Vec<f64>,
    /// `[lane]`: running finish-time maximum.
    max: Vec<f64>,
    /// `[lane]`: running finish-time sum, folded only under an objective
    /// that reads it.
    sum: Vec<f64>,
    /// `[lane]`: the task being stepped.
    step: Vec<f64>,
    /// `[machine]`: one lane's busy vector, gathered for finalize.
    column: Vec<f64>,
    /// The last pass, while its lanes still hold the primed base with
    /// its task moved to each cell: `None` once the base changes.
    pass: Option<LanePass>,
    /// Lane count of that pass, the row width of `finish`.
    width: usize,
    /// `(position, machine)` of each cell lane of that pass, floor lanes
    /// excluded.
    cells: Vec<(usize, MachineId)>,
}

/// What `advance` and `refold` read of the last
/// [`score_cells`](IncrementalEvaluator::score_cells) pass besides its
/// lanes.
#[derive(Debug, Clone, Copy)]
struct LanePass {
    /// The relocated task.
    task: TaskId,
    /// The first position of `S'` (the base without the task) that the
    /// lanes replayed. Right of the task's own position, the tasks
    /// between replayed scalar, and no lane holds their finish times.
    first: usize,
    /// The finish-time sum every lane started from, the fold of `S'`
    /// before `first`; `None` when the pass did not fold the sum.
    start_sum: Option<f64>,
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
            snap,
            base: None,
            base_finish: vec![0.0; k],
            base_machine: vec![0; k],
            edge_cost: vec![0.0; edges],
            ckpts: Checkpoints::new(k, l),
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

    /// Primes the evaluator on `base`: its finish times and machines,
    /// every edge's resolved transfer cost, a checkpoint of the frontier
    /// state (machine-ready vector + objective accumulators) every
    /// `⌈√k⌉` positions, and the fold of the whole string.
    ///
    /// The walk starts at the first position where `base` differs from
    /// the string primed last. Everything before it depends on that
    /// prefix alone: its finish times, machines and checkpoints, and
    /// the cost of every edge into one of its tasks. So the walk keeps
    /// every checkpoint at or before that position, loads the last of
    /// them, fast-forwards to the difference by folding the stored
    /// finish times, and replays only the rest, re-pricing each edge as
    /// its consumer steps. The result equals a walk of the whole string
    /// bit for bit. An identical string costs one compare, a first prime
    /// or an unrelated string one O(k + p) walk. Primes are uncounted.
    /// Like the full pass, the walk binds its finish, machine, frontier
    /// and edge-cost buffers as slices once, before the loop.
    pub fn prime(&mut self, base: &Solution) {
        debug_assert_eq!(base.len(), self.snap.task_count(), "solution/instance mismatch");
        debug_assert_eq!(
            base.machine_count(),
            self.snap.machine_count(),
            "solution/instance machine mismatch"
        );
        let from = match &mut self.base {
            Some(primed) => {
                let diff = primed.segments().iter().zip(base.segments()).position(|(a, b)| a != b);
                let Some(from) = diff else { return };
                primed.clone_from(base);
                from
            }
            none => {
                *none = Some(base.clone());
                0
            }
        };
        self.lanes.pass = None;
        self.resume(from);
        let IncrementalEvaluator {
            snap,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpts,
            end_state,
            machine_avail,
            state,
            finish,
            ..
        } = self;
        let snap = snap.as_ref();
        let base = base.as_ref().expect("stored above");
        let (finish, machine) = (&mut finish[..], &mut base_machine[..]);
        let (avail, edge_cost) = (&mut machine_avail[..], &mut edge_cost[..]);
        let transfer = snap.transfer_slab();
        for (i, seg) in base.segments().iter().enumerate().skip(from) {
            ckpts.record(i, avail, state);
            let (t, m) = (seg.task, seg.machine);
            let exec = snap.exec_time(m, t);
            let rows = snap.pair_rows(m);
            let (_, f) = snap.schedule_step(
                t,
                m,
                exec,
                |e, src, d| {
                    let cost = transfer[rows[machine[src] as usize] + d];
                    edge_cost[e] = cost;
                    cost
                },
                finish,
                avail,
            );
            finish[t.index()] = f;
            base_finish[t.index()] = f;
            machine[t.index()] = m.raw();
            avail[m.index()] = f;
            state.fold(m, f, exec);
        }
        end_state.clone_from(state);
    }

    /// Drops the checkpoints after string position `from` and resumes
    /// the scratch frontier and fold there, every component folded. The
    /// stored base must agree with the string primed before on every
    /// position below `from`.
    fn resume(&mut self, from: usize) {
        let IncrementalEvaluator { snap, base, base_finish, ckpts, machine_avail, state, .. } =
            self;
        let base = base.as_ref().expect("prime() the evaluator first");
        ckpts.truncate(from, snap.machine_count());
        ckpts.resume::<true, true>(snap, base, base_finish, from, machine_avail, state);
    }

    /// Advances the prime to the cell at position `pos` of cell lane
    /// `lane`'s run in the last [`score_cells`](Self::score_cells) pass:
    /// afterwards the evaluator is primed on the base with that pass's
    /// task moved to `pos` on the lane's machine, bit for bit as
    /// [`prime`](Self::prime) of that string would leave it. `pos` is
    /// the lane's own position or a later one of its run, the cells
    /// whose positions differ from the lane's only by tasks on other
    /// machines. Returns `false`, and changes nothing, when there is no
    /// such lane: the base changed since the pass, the pass replayed
    /// left-shifted tasks scalar (its first cell lies right of the
    /// task's own position), or `lane` is not a cell lane of it.
    ///
    /// No task is replayed. The moved string agrees with the base before
    /// the first position the move disturbs, which no cell of the pass
    /// precedes, and the lane holds the finish time of every task from
    /// there on, each exactly as a replay of its candidate computes it;
    /// every cell of the run has those same finish times. So the advance
    /// resumes like a prime, folds the lane's finish times in the moved
    /// string's order, and re-prices the moved task's edges, the only
    /// ones whose machine pair changes.
    pub(crate) fn advance(&mut self, lane: usize, pos: usize) -> bool {
        let LaneScratch { pass, cells, .. } = &mut self.lanes;
        let (Some(LanePass { task: t, first, .. }), Some(&(at, m))) = (*pass, cells.get(lane))
        else {
            return false;
        };
        let primed = self.base.as_mut().expect("a pass ran on a primed base");
        let (old_pos, old_m) = (primed.position_of(t), primed.machine_of(t));
        if first > old_pos {
            return false;
        }
        debug_assert!(at <= pos, "{pos} precedes lane {lane}'s cell at {at}");
        *pass = None;
        primed.relocate(t, pos, m);
        let from = old_pos.min(pos);
        self.resume(from);
        let IncrementalEvaluator {
            snap,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpts,
            end_state,
            machine_avail,
            state,
            finish,
            lanes,
            ..
        } = self;
        let base = base.as_ref().expect("primed");
        let n = lanes.width;
        for (i, seg) in base.segments().iter().enumerate().skip(from) {
            ckpts.record(i, machine_avail, state);
            let (u, mu) = (seg.task, seg.machine);
            let f = lanes.finish[u.index() * n + lane];
            finish[u.index()] = f;
            base_finish[u.index()] = f;
            machine_avail[mu.index()] = f;
            state.fold(mu, f, snap.exec_time(mu, u));
        }
        if m != old_m {
            base_machine[t.index()] = m.raw();
            snap.resolve_task_edges(t, m, base_machine, edge_cost);
        }
        end_state.clone_from(state);
        true
    }

    /// Scores the cells of cell lane `lane`'s run right of the lane's own
    /// cell, in the last [`score_cells`](Self::score_cells) pass, under
    /// an objective that reads the finish-time sum: `score(pos, s)`
    /// receives each cell's position, from the lane's own plus one up to
    /// `to`, and its score `s`, bit-identical to
    /// [`score_move`](Self::score_move) of that cell. Every position up
    /// to `to` must belong to the lane's run, that is, each step from
    /// the lane's own position passes a task on another machine. The
    /// cells are not replayed and count no scoring.
    ///
    /// The cells of a run share every finish time, busy time and the
    /// latest finish with the lane bit for bit; only the string-order
    /// finish-time sum can round differently. So each cell's sum is
    /// re-added from the lane's finish times in that cell's own string
    /// order, add for add what its own replay folds: from the sum the
    /// lanes started from, the tasks of `S'` up to the cell, `t`, then
    /// the rest of `S'`. The cells' adds run side by side, one sum per
    /// cell, each finalized with the lane's latest finish and busy times.
    ///
    /// # Panics
    /// If the base changed since the pass, the pass did not fold the
    /// finish-time sum, or `lane` is not a cell lane of it.
    pub(crate) fn refold(
        &mut self,
        lane: usize,
        to: usize,
        obj: &dyn Objective,
        mut score: impl FnMut(usize, f64),
    ) {
        let IncrementalEvaluator { snap, base, state, lanes, .. } = self;
        let base = base.as_ref().expect("a pass ran on a primed base");
        let LaneScratch { finish, busy, max, column, pass, width, cells, .. } = lanes;
        let pass = pass.expect("a pass over the primed base");
        let start_sum = pass.start_sum.expect("a pass that folded the finish-time sum");
        let (t, n, k) = (pass.task, *width, base.len());
        let at = cells[lane].0;
        debug_assert!(at < to && to < k, "cells {at} < .. <= {to} of {k}");
        if obj.reads().machine_busy {
            let column = &mut column[..snap.machine_count()];
            for (x, c) in column.iter_mut().enumerate() {
                *c = busy[x * n + lane];
            }
            state.load_reads::<false, true>(max[lane], 0.0, k, column);
        }
        let lane_finish = |u: TaskId| finish[u.index() * n + lane];
        let (t_finish, old_pos) = (lane_finish(t), base.position_of(t));
        // `S'[i]`'s finish time in the lane; `S'` holds k - 1 tasks.
        let finish_at = |i: usize| lane_finish(base.segment_at(i + usize::from(i >= old_pos)).task);
        // The fold of `S'` before the next cell, `at + 1`.
        let mut prefix = (pass.first..=at).fold(start_sum, |sum, i| sum + finish_at(i));
        let mut from = at + 1;
        while from <= to {
            // A block of cells: each sum adds the prefix before its cell,
            // `t`, and `S'` up to the block's end, then all of them add
            // the rest of `S'` side by side.
            let block = from..(from + REFOLD_BLOCK).min(to + 1);
            let mut sums = [0.0; REFOLD_BLOCK];
            for (sum, q) in sums.iter_mut().zip(block.clone()) {
                *sum = (q..block.end.min(k - 1)).fold(prefix + t_finish, |s, i| s + finish_at(i));
                if q < k - 1 {
                    prefix += finish_at(q);
                }
            }
            for i in block.end..k - 1 {
                let f = finish_at(i);
                for sum in &mut sums {
                    *sum += f;
                }
            }
            for (q, &sum) in block.clone().zip(&sums) {
                state.load_reads::<true, false>(max[lane], sum, k, &[]);
                score(q, obj.finalize(state));
            }
            from = block.end;
        }
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
        specialize!(obj.reads(), |SUM, BUSY| self.replay_move::<SUM, BUSY>(t, new_pos, new_m, obj))
    }

    /// [`score_move`](Self::score_move)'s replay, folding the finish-time
    /// sum if `SUM` and the busy times if `BUSY`.
    fn replay_move<const SUM: bool, const BUSY: bool>(
        &mut self,
        t: TaskId,
        new_pos: usize,
        new_m: MachineId,
        obj: &dyn Objective,
    ) -> f64 {
        let IncrementalEvaluator {
            snap,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpts,
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
        assert!(new_pos < k, "move position out of range");
        debug_assert!(new_m.index() < snap.machine_count(), "machine out of range");

        let old_pos = base.position_of(t);
        let old_m = base.machine_of(t);
        let first = old_pos.min(new_pos);
        *evaluations += 1;
        crate::faults::eval_tick();

        // Resume from the nearest checkpoint at or before `first` and
        // fast-forward the unchanged prefix.
        ckpts.resume::<SUM, BUSY>(snap, base, base_finish, first, machine_avail, state);

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
                snap.schedule_step(u, mu, exec, |e, _, _| edge_cost[e], finish, machine_avail);
            finish[u.index()] = f;
            dirty.push(u.raw());
            machine_avail[mu.index()] = f;
            state.fold_reads::<SUM, BUSY>(mu, f, exec);
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
    /// Positions must be nondecreasing, each inside `t`'s valid range or
    /// equal to `k`, the string's length; cells may repeat.
    ///
    /// Let `S'` be the base without `t`; cell `j` is `S'` with `t`
    /// inserted just before `S'[positions[j]]`. A lane at position `k` is
    /// a *floor lane*: `S'` holds `k − 1` tasks, so it never inserts `t`,
    /// and its machine is ignored. Its `t` finishes at `-inf`, which
    /// drops every arrival from `t` exactly as `f64::max` would, so the
    /// lane replays `S'` itself and `out[j]` receives `obj`'s score of
    /// `S'`'s fold (`k − 1` tasks). Under an objective that
    /// [never falls on insertion](Objective::never_falls_on_insertion),
    /// no cell scores below it. The pass resumes from
    /// the checkpoint at or before the first disturbed position and
    /// fast-forwards from the stored finish times. When the first cell
    /// lies right of `t`'s own position, the left-shifted tasks between
    /// the two replay once, scalar: none of them touches `t`. Every lane
    /// then starts from that shared state, and `S'` from the first
    /// cell's position on replays through the kernel's lane step, with
    /// per-lane finish times, frontiers and accumulators laid out
    /// lane-minor. Just before `S'[positions[j]]`, lane `j` inserts `t`
    /// through the scalar step's data-ready fold over its own machine,
    /// then finishes the step as the scalar step does: `f = later(ready,
    /// avail) + exec` on its own frontier, and its running maximum
    /// becomes `later(max, f)`, as does every lane's after each lane
    /// step. This stays exact:
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
    /// A call of floor lanes alone starts the lanes at `t`'s own
    /// position, since the tasks after it may consume `t`.
    ///
    /// Every lane, floor lanes included, counts as one scoring (and one
    /// fault-plan tick). The base stays primed, and the lane scratch is
    /// reused, so steady-state calls allocate nothing.
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
        specialize!(obj.reads(), |SUM, BUSY| {
            self.replay_cells::<SUM, BUSY>(t, positions, machines, obj, out)
        })
    }

    /// [`score_cells`](Self::score_cells)' lockstep pass. Every lane
    /// carries its finish times, frontiers and latest finish, plus its
    /// finish-time sum if `SUM` and its busy times if `BUSY`; under
    /// makespan a lane's latest finish is its score.
    fn replay_cells<const SUM: bool, const BUSY: bool>(
        &mut self,
        t: TaskId,
        positions: &[usize],
        machines: &[MachineId],
        obj: &dyn Objective,
        out: &mut [f64],
    ) {
        let IncrementalEvaluator {
            snap,
            base,
            base_finish,
            base_machine,
            edge_cost,
            ckpts,
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
        lanes.pass = None;
        let (Some(&p0), Some(&last)) = (positions.first(), positions.last()) else { return };
        assert!(last <= k, "move position out of range");
        debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]), "positions nondecreasing");
        debug_assert!(machines.iter().all(|m| m.index() < l), "machine out of range");
        *evaluations += n as u64;
        for _ in 0..n {
            crate::faults::eval_tick();
        }

        // Lanes `cells..n` are floor lanes. Floor lanes alone start the
        // lanes at `t`'s own position: the scalar replay of left-shifted
        // tasks below holds only left of a cell, where none consumes `t`.
        let old_pos = base.position_of(t);
        let cells = positions.partition_point(|&p| p < k);
        let p0 = if cells == 0 { old_pos } else { p0 };

        // Resume from the nearest checkpoint at or before the first
        // disturbed position and fast-forward the unchanged prefix.
        let first = old_pos.min(p0);
        ckpts.resume::<SUM, BUSY>(snap, base, base_finish, first, machine_avail, state);

        // A first cell right of `t` shifts base positions (old_pos, p0]
        // one to the left. None of them consumes `t` (every cell lands
        // after them), and none of their edges touches `t`, so they
        // replay once, scalar, on the cached base edge costs.
        if p0 > old_pos {
            for seg in &base.segments()[old_pos + 1..=p0] {
                let (u, mu) = (seg.task, seg.machine);
                let exec = snap.exec_time(mu, u);
                let (_, f) =
                    snap.schedule_step(u, mu, exec, |e, _, _| edge_cost[e], finish, machine_avail);
                finish[u.index()] = f;
                dirty.push(u.raw());
                machine_avail[mu.index()] = f;
                state.fold_reads::<SUM, BUSY>(mu, f, exec);
            }
        }

        // Every lane starts from the shared frontier and fold.
        lanes.reserve(k, l, n);
        let LaneScratch {
            finish: lane_finish,
            avail,
            busy,
            max,
            sum,
            step,
            column,
            pass,
            width,
            cells: cell_list,
        } = lanes;
        for x in 0..l {
            avail[x * n..(x + 1) * n].fill(machine_avail[x]);
            if BUSY {
                busy[x * n..(x + 1) * n].fill(state.machine_busy()[x]);
            }
        }
        max[..n].fill(state.max_finish());
        let start_sum = SUM.then(|| state.finish_sum());
        if let Some(start_sum) = start_sum {
            sum[..n].fill(start_sum);
        }
        // A floor lane's `t` finishes at `-inf`: `-inf + cost` is `-inf`,
        // which `later` drops, so its consumers read no arrival from `t`.
        let t_row = t.index() * n..(t.index() + 1) * n;
        lane_finish[t_row.start + cells..t_row.end].fill(f64::NEG_INFINITY);

        // `S'[i]` is base position `i` before `t`'s own and `i + 1` from
        // there on, so `S'[p0..]` is the base from `from` on without `t`.
        let from = if p0 < old_pos { p0 } else { p0 + 1 };
        let transfer = snap.transfer_slab();
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
                    |_, src, d| transfer[rows[base_machine[src] as usize] + d],
                    finish,
                );
                let slot = m.index() * n + j;
                let f = later(ready, avail[slot]) + exec;
                lane_finish[t.index() * n + j] = f;
                avail[slot] = f;
                max[j] = later(max[j], f);
                if SUM {
                    sum[j] += f;
                }
                if BUSY {
                    busy[slot] += exec;
                }
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
                        debug_assert_eq!(next, cells, "a consumer of {t} precedes a cell");
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
                *mx = later(*mx, f);
                if SUM {
                    *sm += f;
                }
                if BUSY {
                    *b += exec;
                }
            }
        }

        // Every cell lane has folded all k tasks, every floor lane the
        // k - 1 of `S'`.
        let column = &mut column[..l];
        for (j, score) in out.iter_mut().enumerate() {
            if BUSY {
                for (x, c) in column.iter_mut().enumerate() {
                    *c = busy[x * n + j];
                }
            }
            let tasks = if j < cells { k } else { k - 1 };
            state.load_reads::<SUM, BUSY>(max[j], sum[j], tasks, column);
            *score = obj.finalize(state);
        }
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();

        // The cell lanes stay behind for `advance` and `refold`.
        *pass = Some(LanePass { task: t, first: p0, start_sum });
        *width = n;
        cell_list.clear();
        cell_list.extend(positions[..cells].iter().copied().zip(machines[..cells].iter().copied()));
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

    /// The bits of a float buffer, so that comparisons tell `-0.0` from
    /// `0.0` and NaN from NaN.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that `inc` holds exactly the prime `fresh` holds: base,
    /// finish times (stored and working), machines, edge costs,
    /// checkpoints and end state, bit for bit.
    fn assert_primed_alike(inc: &IncrementalEvaluator, fresh: &IncrementalEvaluator, label: &str) {
        assert_eq!(inc.base, fresh.base, "{label}: base");
        assert_eq!(bits(&inc.base_finish), bits(&fresh.base_finish), "{label}: finish times");
        assert_eq!(bits(&inc.finish), bits(&fresh.finish), "{label}: working finish times");
        assert_eq!(inc.base_machine, fresh.base_machine, "{label}: machines");
        assert_eq!(bits(&inc.edge_cost), bits(&fresh.edge_cost), "{label}: edge costs");
        let (a, b) = (&inc.ckpts, &fresh.ckpts);
        assert_eq!(bits(&a.avail), bits(&b.avail), "{label}: checkpoint frontiers");
        assert_eq!(bits(&a.busy), bits(&b.busy), "{label}: checkpoint busy times");
        assert_eq!(bits(&a.max), bits(&b.max), "{label}: checkpoint maxima");
        assert_eq!(bits(&a.sum), bits(&b.sum), "{label}: checkpoint sums");
        let (a, b) = (&inc.end_state, &fresh.end_state);
        assert_eq!(a.max_finish().to_bits(), b.max_finish().to_bits(), "{label}: end max");
        assert_eq!(a.finish_sum().to_bits(), b.finish_sum().to_bits(), "{label}: end sum");
        assert_eq!(a.tasks(), b.tasks(), "{label}: end task count");
        assert_eq!(bits(a.machine_busy()), bits(b.machine_busy()), "{label}: end busy times");
    }

    fn fresh_prime<'s>(snap: &'s EvalSnapshot, sol: &Solution) -> IncrementalEvaluator<'s> {
        let mut fresh = IncrementalEvaluator::with_snapshot(snap);
        fresh.prime(sol);
        fresh
    }

    #[test]
    fn chained_primes_equal_a_fresh_prime() {
        // One evaluator follows a random chain of strings: one-task
        // moves, machine-only changes, identical re-primes and full
        // reshuffles, with scorings in between that dirty and restore
        // its scratch. After every prime it holds a fresh prime's state.
        for (tasks, machines, seed) in [(12, 3, 40), (30, 4, 41), (100, 20, 42)] {
            let inst = random_instance(tasks, machines, seed);
            let g = inst.graph();
            let snap = EvalSnapshot::new(&inst);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut sol = random_solution(&inst, &mut rng);
            let mut inc = IncrementalEvaluator::with_snapshot(&snap);
            for step in 0..120 {
                let t = TaskId::new(rng.gen_range(0..tasks as u32));
                let m = MachineId::new(rng.gen_range(0..machines as u32));
                match step % 6 {
                    0 if step % 24 == 0 => sol = random_solution(&inst, &mut rng),
                    1 => sol.reassign(t, m).unwrap(),
                    2 => {}
                    _ => {
                        let (lo, hi) = sol.valid_range(g, t);
                        sol.move_task(g, t, rng.gen_range(lo..=hi), m).unwrap();
                    }
                }
                inc.prime(&sol);
                assert_primed_alike(
                    &inc,
                    &fresh_prime(&snap, &sol),
                    &format!("{tasks} tasks, step {step}"),
                );
                let (lo, hi) = sol.valid_range(g, t);
                let obj = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
                inc.score_move(t, rng.gen_range(lo..=hi), m, &obj);
            }
            assert_eq!(inc.evaluations(), 120, "primes are uncounted");
        }
    }

    /// The cells of `t`'s whole relocation grid on `base`, every machine,
    /// the base's own cell excluded, followed by one floor lane.
    fn relocation_cells(
        inst: &HcInstance,
        base: &Solution,
        t: TaskId,
    ) -> (Vec<usize>, Vec<MachineId>) {
        let (lo, hi) = base.valid_range(inst.graph(), t);
        let own = (base.position_of(t), base.machine_of(t));
        let (mut pos, mut machines): (Vec<usize>, Vec<MachineId>) = (lo..=hi)
            .flat_map(|p| inst.system().machine_ids().map(move |m| (p, m)))
            .filter(|&cell| cell != own)
            .unzip();
        pos.push(inst.task_count());
        machines.push(MachineId::new(0));
        (pos, machines)
    }

    /// The last position of the run of cells on `m` through position
    /// `at` of `t`'s grid on `base`, up to `hi`: each step from `at` on
    /// passes a task of `S'` (the base without `t`) on another machine.
    fn run_end(base: &Solution, t: TaskId, at: usize, hi: usize, m: MachineId) -> usize {
        let old_pos = base.position_of(t);
        let passes_m =
            |q: usize| base.segment_at(if q - 1 < old_pos { q - 1 } else { q }).machine == m;
        (at + 1..=hi).take_while(|&q| !passes_m(q)).last().unwrap_or(at)
    }

    #[test]
    fn advancing_to_a_lane_equals_a_fresh_prime_of_the_moved_string() {
        // Every cell lane of whole grids advances to every cell of its
        // run: each advance equals a fresh prime of the moved string.
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
        let makespan_only = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.0, balance: 0.0 };
        for (tasks, machines, seed) in [(12, 3, 50), (40, 5, 51)] {
            let inst = random_instance(tasks, machines, seed);
            let g = inst.graph();
            let snap = EvalSnapshot::new(&inst);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let base = random_solution(&inst, &mut rng);
            let mut inc = IncrementalEvaluator::with_snapshot(&snap);
            let kinds = ObjectiveKind::BASIC.into_iter().chain([weighted, makespan_only]);
            for (round, kind) in kinds.enumerate() {
                let t = TaskId::new(rng.gen_range(0..tasks as u32));
                let hi = base.valid_range(g, t).1;
                let (pos, on) = relocation_cells(&inst, &base, t);
                let mut scores = vec![0.0; pos.len()];
                for lane in 0..pos.len() {
                    let label = format!("{}, round {round}, lane {lane}", kind.label());
                    if pos[lane] == tasks {
                        inc.prime(&base);
                        inc.score_cells(t, &pos, &on, &kind, &mut scores);
                        assert!(!inc.advance(lane, tasks), "{label}: a floor lane has no cell");
                        assert_primed_alike(&inc, &fresh_prime(&snap, &base), &label);
                        continue;
                    }
                    for at in pos[lane]..=run_end(&base, t, pos[lane], hi, on[lane]) {
                        inc.prime(&base);
                        inc.score_cells(t, &pos, &on, &kind, &mut scores);
                        let label = format!("{label}, cell {at}");
                        assert!(inc.advance(lane, at), "{label}");
                        let mut moved = base.clone();
                        moved.move_task(g, t, at, on[lane]).unwrap();
                        assert_primed_alike(&inc, &fresh_prime(&snap, &moved), &label);
                        if at == pos[lane] {
                            let score = inc.base_score(&kind).to_bits();
                            assert_eq!(score, scores[lane].to_bits(), "{label}");
                        }
                        assert!(!inc.advance(lane, at), "{label}: one advance per pass");
                    }
                }
            }
        }
    }

    #[test]
    fn refolded_cells_equal_score_move_bit_for_bit() {
        // A pass over the run starts of `t`'s grid from its first
        // position on, left of, at or right of `t`'s own position; every
        // other cell of every run, refolded from its lane, scores exactly
        // what `score_move` scores, under every objective that reads the
        // finish-time sum, a custom one with the default declaration
        // among them. Some runs pass through the base's own cell, and a
        // sink's runs end at the last position. Refolds count no scoring
        // and leave the pass in place.
        struct BusiestMachine;
        impl Objective for BusiestMachine {
            fn finalize(&self, state: &ObjectiveState) -> f64 {
                let busiest = state.machine_busy().iter().copied().fold(0.0, f64::max);
                busiest + 1e-3 * state.finish_sum()
            }
        }
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
        let objectives: [&dyn Objective; 4] = [
            &ObjectiveKind::TotalFlowtime,
            &ObjectiveKind::MeanFlowtime,
            &weighted,
            &BusiestMachine,
        ];
        let (mut refolded, mut through_own, mut at_the_end) = (0usize, 0usize, 0usize);
        for (tasks, machines, seed) in [(12, 3, 70), (40, 5, 71), (100, 20, 72), (60, 2, 73)] {
            let inst = random_instance(tasks, machines, seed);
            let g = inst.graph();
            let snap = EvalSnapshot::new(&inst);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let base = random_solution(&inst, &mut rng);
            let mut inc = fresh_prime(&snap, &base);
            let mut oracle = fresh_prime(&snap, &base);
            for t in g.tasks() {
                let (lo, hi) = base.valid_range(g, t);
                let own = (base.position_of(t), base.machine_of(t));
                for first in [lo, own.0, own.0 + 1].into_iter().filter(|&p| p <= hi) {
                    // The run starts from `first` on, every machine.
                    let (pos, on): (Vec<usize>, Vec<MachineId>) = (first..=hi)
                        .flat_map(|p| inst.system().machine_ids().map(move |m| (p, m)))
                        .filter(|&(p, m)| p == first || run_end(&base, t, p - 1, p, m) < p)
                        .unzip();
                    for obj in objectives {
                        let mut scores = vec![f64::NAN; pos.len()];
                        inc.score_cells(t, &pos, &on, obj, &mut scores);
                        let scorings = inc.evaluations();
                        for lane in 0..pos.len() {
                            let (at, m) = (pos[lane], on[lane]);
                            let to = run_end(&base, t, at, hi, m);
                            if to == at {
                                continue;
                            }
                            let mut cells = at + 1..=to;
                            inc.refold(lane, to, obj, |q, score| {
                                assert_eq!(Some(q), cells.next(), "cells in order");
                                let want = oracle.score_move(t, q, m, obj);
                                assert_eq!(score.to_bits(), want.to_bits(), "{t} -> ({q}, {m})");
                                refolded += 1;
                                through_own += usize::from((q, m) == own);
                                at_the_end += usize::from(q == tasks - 1);
                            });
                            assert_eq!(cells.next(), None, "every cell of the run");
                        }
                        assert_eq!(inc.evaluations(), scorings, "refolds count no scoring");
                    }
                }
            }
        }
        assert!(refolded > 100_000, "{refolded} cells refolded");
        assert!(through_own > 0 && at_the_end > 0, "{through_own} own, {at_the_end} last");
    }

    #[test]
    fn a_pass_right_of_the_task_does_not_advance() {
        // Cells right of `t`'s own position shift the tasks between
        // left, and the pass replays those scalar, outside every lane:
        // no lane holds their finish times, so nothing advances.
        let inst = random_instance(30, 4, 60);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let base = random_solution(&inst, &mut rng);
        let t = g
            .tasks()
            .find(|&t| base.valid_range(g, t).1 > base.position_of(t))
            .expect("some task can move right");
        let right = base.position_of(t) + 1..=base.valid_range(g, t).1;
        let (pos, on): (Vec<usize>, Vec<MachineId>) =
            right.flat_map(|p| (0..4).map(move |m| (p, MachineId::new(m)))).unzip();
        let mut scores = vec![0.0; pos.len()];
        let mut inc = fresh_prime(&snap, &base);
        inc.score_cells(t, &pos, &on, &ObjectiveKind::Makespan, &mut scores);
        for (lane, &at) in pos.iter().enumerate() {
            assert!(!inc.advance(lane, at), "lane {lane}");
        }
        assert_primed_alike(&inc, &fresh_prime(&snap, &base), "after the refused advances");
        // The same cells behind one at `t`'s own position do advance.
        let own = (base.position_of(t), MachineId::new((base.machine_of(t).raw() + 1) % 4));
        let (pos, on): (Vec<usize>, Vec<MachineId>) =
            std::iter::once(own).chain(pos.into_iter().zip(on)).unzip();
        let mut scores = vec![0.0; pos.len()];
        inc.score_cells(t, &pos, &on, &ObjectiveKind::Makespan, &mut scores);
        assert!(inc.advance(pos.len() - 1, pos[pos.len() - 1]));
        let mut moved = base.clone();
        moved.move_task(g, t, pos[pos.len() - 1], on[pos.len() - 1]).unwrap();
        assert_primed_alike(&inc, &fresh_prime(&snap, &moved), "advanced past the shifted tasks");
    }
}
