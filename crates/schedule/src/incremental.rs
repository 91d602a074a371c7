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
//! [`IncrementalEvaluator`] walks the base once ([`prime`]), checkpointing
//! resumable frontier state every `C` positions (machine-ready vector,
//! per-task finish slab, [`ObjectiveState`] accumulators), and then
//! scores any single-task move by resuming from the nearest checkpoint at
//! or before the first affected position and replaying only from there —
//! **exact, not approximate**: the replay performs the same float
//! operations in the same order as a full pass over the mutated string,
//! so scores are bit-identical to [`Evaluator::objective_value`] for
//! every incremental-capable objective (all [`crate::ObjectiveKind`]s;
//! the property tests pin this down across strides).
//!
//! The default stride `C = ⌈√k⌉` balances checkpoint memory/priming cost
//! (`O(√k)` checkpoints of `O(l)` floats) against resume cost (`≤ C`
//! fast-forwarded positions per score). Stride 1 checkpoints every
//! position; stride ≥ k degenerates to replay-from-zero. The mutated
//! string is never materialized: segments are read through an index
//! remapping of the base, so scoring performs no `Solution` clones or
//! `move_task` calls at all.
//!
//! Priming also caches every edge's **resolved transfer cost** under the
//! base assignment, in predecessor-CSR order, as the walk reads it. A
//! single-task move changes the machine pair of only the moved task's
//! own edges, so a machine-changing scoring overwrites just those
//! entries, replays with one contiguous `finish[src] + edge_cost[e]` read
//! per predecessor edge, and writes the base costs back before it
//! returns — whichever way it returns. The cache holds the exact `f64`
//! the snapshot's pair-table lookup yields, and the replay's add/max
//! sequence and order are those of [`EvalSnapshot`]'s single scheduling
//! kernel, so the cache cannot change a score bit.
//!
//! **Machine lanes** ([`score_position`]) serve SE's best-fit allocation
//! scan, which tries every allowed machine at every valid position. The
//! candidates of one position share their string and differ only in the
//! moved task's machine, so they replay together in one lockstep pass
//! with a lane per machine: the shared prefix and any left-shifted tasks
//! once, then the suffix with per-lane finish times, frontiers and
//! accumulators laid out lane-minor. Each lane performs exactly the
//! add/max sequence of its own candidate's replay — the lane shape of
//! the one scheduling kernel — so every lane score is bit-identical to
//! [`score_move`]. Lanes score every candidate to completion, without
//! bounds or splices.
//!
//! On top of the suffix replay sits the **bounded + reconvergent fast
//! path** ([`score_move_bounded`]), which serves tabu's neighborhood
//! scan and SE's first-improvement allocation: the caller's best-so-far
//! score rides along and the replay is abandoned once a monotone
//! [`lower bound`](crate::Objective::lower_bound) — fed by the running
//! accumulators, the critical-task influence cone, per-task
//! remaining-critical-path tails and per-machine load floors — reaches
//! it ([`MoveScore::Pruned`]); independently, a replay whose frontier
//! bitwise re-converges with the base walk at a checkpoint boundary
//! splices precomputed suffix aggregates instead of walking the tail.
//! Both cuts are *selection-exact*: pruned candidates are provably
//! unable to strictly beat the bound (and every scan in the suite
//! breaks ties toward the earlier candidate), spliced scores are
//! bit-identical, and each scoring counts as exactly one evaluation
//! whether or not it was cut.
//!
//! [`prime`]: IncrementalEvaluator::prime
//! [`score_move`]: IncrementalEvaluator::score_move
//! [`score_position`]: IncrementalEvaluator::score_position
//! [`score_move_bounded`]: IncrementalEvaluator::score_move_bounded
//! [`Evaluator::objective_value`]: crate::Evaluator::objective_value

use crate::encoding::{Segment, Solution};
use crate::objective::{BoundHints, Objective, ObjectiveState, SuffixView};
use crate::snapshot::{EvalSnapshot, LaneArrival};
use mshc_obs as obs;
use mshc_platform::{HcInstance, MachineId};
use mshc_taskgraph::TaskId;
use std::borrow::Cow;

/// Returns the default checkpoint stride for a `k`-task string: `⌈√k⌉`.
pub fn auto_stride(tasks: usize) -> usize {
    ((tasks as f64).sqrt().ceil() as usize).max(1)
}

/// Outcome of one bounded move scoring
/// ([`IncrementalEvaluator::score_move_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveScore {
    /// The candidate's exact objective value — bit-identical to a full
    /// evaluation pass over the materialized mutated solution.
    Exact(f64),
    /// The replay was abandoned: a monotone lower bound on the
    /// candidate's score reached the caller's bound, so the true score
    /// is provably `>= bound` and the candidate can never *strictly
    /// beat* a scan's best-so-far of `bound`. Every scan in the suite
    /// selects by strict improvement with earliest-index tie-breaking —
    /// a candidate that merely ties the incumbent loses — so pruning at
    /// `>= bound` commits exactly the selections an unbounded scan
    /// commits.
    Pruned,
}

impl MoveScore {
    /// The exact score, or `None` if the candidate was pruned.
    #[inline]
    pub fn exact(self) -> Option<f64> {
        match self {
            MoveScore::Exact(s) => Some(s),
            MoveScore::Pruned => None,
        }
    }

    /// Whether the candidate was pruned.
    #[inline]
    pub fn is_pruned(self) -> bool {
        matches!(self, MoveScore::Pruned)
    }
}

/// Counters of the bounded/spliced move-scan fast path. Every axis is
/// deterministic at any thread count: scored counts are one per scored
/// candidate, pruned or not (the evaluation-count contract), and the
/// pruned/spliced counts depend only on each scan's candidates, because
/// the batch scans' chunk grid is set by the grid alone and each chunk
/// starts its own running bound. They vary with cost knobs (pruning,
/// checkpoint stride), so they stay out of the artifacts those knobs
/// are byte-compared on (leaderboards, traces).
///
/// The exact bump sites that feed these per-run counters also mirror
/// into the process-wide [`mshc_obs`] registry (`ScanScored`,
/// `ScanPruned`, `ScanSpliced` and the population axes), so the
/// registry's view can never drift from `ScanStats` — same sites, same
/// semantics, and the same fraction accessors on
/// [`mshc_obs::DeterministicPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Move scorings performed (pruned candidates included).
    pub scored: u64,
    /// Scorings abandoned early by the bound cut.
    pub pruned: u64,
    /// Scorings completed early by a reconvergence splice.
    pub spliced: u64,
    /// Population children scored through the parent-primed path (exact
    /// clones and suffix replays; the GA axis). Routing is a pure
    /// function of the chromosomes, so the population counters are
    /// bit-identical at any thread count.
    pub suffixed: u64,
    /// String positions *not* replayed across population scorings: the
    /// shared parent prefix of each suffix replay, the whole string of
    /// an exact clone, and any tail cut off by a reconvergence splice.
    pub prefix_reused: u64,
    /// Total string positions across all population children scored
    /// (children × string length), full-evaluation fallbacks included —
    /// the denominator of [`Self::prefix_reuse_fraction`].
    pub suffix_total: u64,
}

impl ScanStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: ScanStats) {
        self.scored += other.scored;
        self.pruned += other.pruned;
        self.spliced += other.spliced;
        self.suffixed += other.suffixed;
        self.prefix_reused += other.prefix_reused;
        self.suffix_total += other.suffix_total;
    }

    /// Fraction of scorings cut by the bound (0 when nothing scored).
    pub fn pruned_fraction(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.pruned as f64 / self.scored as f64
        }
    }

    /// Fraction of scorings finished by a splice (0 when nothing scored).
    pub fn spliced_fraction(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.spliced as f64 / self.scored as f64
        }
    }

    /// Fraction of population-scoring string positions served from the
    /// parent's primed prefix instead of being replayed (0 when no
    /// population was scored). Deterministic at any thread count.
    pub fn prefix_reuse_fraction(&self) -> f64 {
        if self.suffix_total == 0 {
            0.0
        } else {
            self.prefix_reused as f64 / self.suffix_total as f64
        }
    }
}

/// Scores single-task moves against a primed base solution by suffix
/// replay from strided checkpoints.
///
/// Besides the checkpoints, a priming keeps the base's per-task machines
/// and a per-edge cost cache: the transfer cost of every DAG edge under
/// the base assignment, indexed by the edge's predecessor-CSR position.
/// [`score_move_bounded`](Self::score_move_bounded) re-prices only the
/// moved task's incoming and outgoing edges when its machine changes,
/// and restores them on every exit, so between calls the cache always
/// describes the primed base.
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
/// // The base stays primed; re-scoring the incumbent placement is free.
/// assert_eq!(inc.score_move(TaskId::new(1), 1, MachineId::new(0), &ObjectiveKind::Makespan), 7.0);
/// ```
#[derive(Debug)]
pub struct IncrementalEvaluator<'a> {
    /// Owned when built straight from an instance; borrowed when many
    /// evaluators share one snapshot (the batch path).
    snap: Cow<'a, EvalSnapshot>,
    /// Requested stride; `None` resolves to [`auto_stride`] at prime time.
    stride_override: Option<usize>,
    /// Stride in effect for the current priming.
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
    /// Accumulators after the full base walk (serves [`Self::base_score`]
    /// and the identity splice).
    end_state: ObjectiveState,
    // Suffix aggregates: entry `j` aggregates the base walk over string
    // positions `[j * stride, k)` — what a reconvergent replay splices
    // instead of walking the tail.
    sfx_max: Vec<f64>,
    sfx_sum: Vec<f64>,
    sfx_busy: Vec<f64>,
    /// Latest base string position holding a consumer of each task
    /// (0 when the task has no consumers); a replay may only splice once
    /// it has passed every consumer of every timing it perturbed.
    last_consumer: Vec<u32>,
    /// One past the last base string position scheduled on each machine
    /// (0 = machine unused). A machine whose last use is before a
    /// checkpoint boundary hosts no suffix task there, so its frontier
    /// entry cannot influence the tail — the reconvergence test skips
    /// it.
    last_use: Vec<u32>,
    /// Total busy time of the primed base (feeds the load-balance bound
    /// hint).
    base_total_busy: f64,
    /// Cheapest execution time of each task over all machines
    /// (instance-level; computed once at construction).
    min_exec: Vec<f64>,
    /// Conservative deflation factor `1 − O(k)·ε` applied to every
    /// derived (as opposed to directly folded) pending-work floor —
    /// always to the floor's **whole magnitude** (`(f + tail) · deflate`,
    /// never `f + tail·deflate`): the computed timing chain can absorb
    /// up to half an ulp of its *running value* per addition, so a
    /// margin scaled to anything smaller could overshoot the final
    /// computed makespan and prune a candidate the exact scan keeps.
    deflate: f64,
    /// Scan-global cutoff: a certified lower bound on the exact score of
    /// *every* candidate this evaluator can be asked to score (the
    /// instance's [`crate::InstanceBound`] floor, under the makespan
    /// objective). Once a caller's running best reaches it, no candidate
    /// can strictly improve, so every further bounded scoring
    /// instant-prunes without replaying a single position. Default
    /// `-inf` (no cutoff); a pure cost knob with the same ties-lose
    /// safety argument as every other bound cut here.
    scan_floor: f64,
    /// Lower bound (raw, undeflated — see `deflate`) on the remaining
    /// critical path below each task: once `u` finishes at `f`, no
    /// schedule — the base or any single-move mutation of it — can
    /// finish before `f + tail[u]` in real arithmetic (transfers bounded
    /// by zero, descendants by their cheapest machine). This is what
    /// lets the makespan bound prune *early*, not just once the running
    /// max itself crosses the bound.
    tail: Vec<f64>,
    /// Pending-work floor at each checkpoint (mirrors `ckpt_max` etc.).
    ckpt_pending: Vec<f64>,
    /// Influence cone of the base walk's critical (max-finish) task:
    /// its DAG ancestors and machine-order predecessors, transitively.
    /// A move of a task *outside* the cone onto a machine with no cone
    /// task after the insertion point provably recomputes the critical
    /// task bit-identically — the candidate's makespan is at least the
    /// base makespan before a single position is replayed.
    in_cone: Vec<bool>,
    /// One past the last base string position of a cone task on each
    /// machine (0 = none).
    cone_last: Vec<u32>,
    /// One past the base string position of each task's machine-order
    /// predecessor (0 = first on its machine); prime-time scratch for
    /// the cone closure.
    prev_on_machine: Vec<u32>,
    // Replay scratch.
    machine_avail: Vec<f64>,
    /// Per-machine execution time still to be folded by the current
    /// bounded replay (mutated assignment). `avail[m] + remaining[m]`
    /// floors machine `m`'s final frontier — and therefore the final
    /// makespan — and is monotone along the fold.
    remaining_busy: Vec<f64>,
    state: ObjectiveState,
    /// Working finish times; equal to `base_finish` between calls (the
    /// replay dirties only suffix entries and restores them afterwards).
    finish: Vec<f64>,
    dirty: Vec<u32>,
    /// Move scorings performed ([`Self::prime`] is uncounted cache
    /// building, mirroring how batch arenas keep the evaluation axis
    /// independent of chunking).
    evaluations: u64,
    /// Scorings abandoned by the bound cut.
    pruned: u64,
    /// Scorings completed by a reconvergence splice.
    spliced: u64,
    /// Whether bounded scorings may abandon candidates (the exactness of
    /// returned scores never depends on this).
    pruning: bool,
    /// Whether replays may splice precomputed suffix aggregates on
    /// reconvergence (bit-exact either way).
    splicing: bool,
    /// Whether the current priming built the pruning structures (tails,
    /// cone, checkpoint floors) — disabled primings skip that work, so
    /// scoring must not read the stale arrays.
    prune_ready: bool,
    /// Whether the current priming built the splice structures (suffix
    /// aggregates, consumer/machine-use tables).
    splice_ready: bool,
    /// Scratch of [`Self::score_position`]'s machine lanes.
    lanes: LaneScratch,
}

/// Per-lane replay state of [`IncrementalEvaluator::score_position`],
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
        let min_exec: Vec<f64> = (0..k)
            .map(|t| {
                let cheapest = (0..l)
                    .map(|m| snap.exec_time(MachineId::from_usize(m), TaskId::from_usize(t)))
                    .fold(f64::INFINITY, f64::min);
                // Clamp: degenerate instances (no machines, negative
                // times) must never inflate a lower bound.
                if cheapest.is_finite() {
                    cheapest.max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        IncrementalEvaluator {
            snap,
            stride_override: None,
            stride: 1,
            base: None,
            base_finish: vec![0.0; k],
            base_machine: vec![0; k],
            edge_cost: vec![0.0; edges],
            ckpt_avail: Vec::new(),
            ckpt_busy: Vec::new(),
            ckpt_max: Vec::new(),
            ckpt_sum: Vec::new(),
            end_state: ObjectiveState::new(l),
            sfx_max: Vec::new(),
            sfx_sum: Vec::new(),
            sfx_busy: Vec::new(),
            last_consumer: vec![0; k],
            last_use: vec![0; l],
            base_total_busy: 0.0,
            min_exec,
            deflate: 1.0 - (2 * k + 16) as f64 * f64::EPSILON,
            scan_floor: f64::NEG_INFINITY,
            tail: vec![0.0; k],
            ckpt_pending: Vec::new(),
            in_cone: vec![false; k],
            cone_last: vec![0; l],
            prev_on_machine: vec![0; k],
            machine_avail: vec![0.0; l],
            remaining_busy: vec![0.0; l],
            state: ObjectiveState::new(l),
            finish: vec![0.0; k],
            dirty: Vec::new(),
            evaluations: 0,
            pruned: 0,
            spliced: 0,
            pruning: true,
            splicing: true,
            prune_ready: false,
            splice_ready: false,
            lanes: LaneScratch::default(),
        }
    }

    /// Sets the checkpoint stride: `None` selects the auto default
    /// `⌈√k⌉`, `Some(c)` checkpoints every `max(c, 1)` positions. Takes
    /// effect at the next [`prime`](Self::prime); the stride never
    /// changes scores, only the memory/resume-cost trade-off.
    pub fn set_stride(&mut self, stride: Option<usize>) {
        self.stride_override = stride;
    }

    /// The stride in effect for the current priming.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
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

    /// Move scorings performed so far (primes are uncounted).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Counters of the bounded/spliced fast path: every scoring, plus
    /// how many were cut by the bound or finished by a splice.
    #[inline]
    pub fn stats(&self) -> ScanStats {
        ScanStats {
            scored: self.evaluations,
            pruned: self.pruned,
            spliced: self.spliced,
            ..ScanStats::default()
        }
    }

    /// Enables/disables the bound cut in
    /// [`score_move_bounded`](Self::score_move_bounded). Off, every
    /// scoring replays to completion and returns [`MoveScore::Exact`] —
    /// the `--no-prune` ablation path. Never changes any returned exact
    /// score. Disabling takes effect immediately; enabling takes effect
    /// at the next [`prime`](Self::prime) (which builds the bound
    /// structures only when the flag is on).
    pub fn set_pruning(&mut self, on: bool) {
        self.pruning = on;
    }

    /// Enables/disables reconvergence splicing. Splices are bit-exact,
    /// so this is a pure cost knob (off = the ablation baseline).
    /// Disabling takes effect immediately; enabling takes effect at the
    /// next [`prime`](Self::prime).
    pub fn set_splicing(&mut self, on: bool) {
        self.splicing = on;
    }

    /// Sets the scan-global cutoff: a certified lower bound on the exact
    /// score of **every** candidate this evaluator will be asked to
    /// score — the instance's [`crate::InstanceBound`] floor under the
    /// makespan objective (callers must not set it for other
    /// objectives, whose scores the makespan floor does not bound).
    /// Once a bounded scoring's `bound` (the caller's running best)
    /// drops to the floor, the candidate is pruned before a single
    /// position is replayed: its exact score is at least the floor,
    /// hence at least the bound, and ties lose everywhere in the suite.
    /// Honored only while pruning is enabled; takes effect immediately.
    /// Another pure cost knob — solutions, objective values and
    /// evaluation counts are bit-identical with or without it.
    pub fn set_scan_floor(&mut self, floor: f64) {
        self.scan_floor = floor;
    }

    /// Walks `base` once, storing its finish times, every edge's resolved
    /// transfer cost, a checkpoint of the frontier state (machine-ready
    /// vector + objective accumulators) every [`stride`](Self::stride)
    /// positions, and — for the reconvergence splice — per-checkpoint
    /// suffix aggregates plus the latest-consumer position of every task.
    /// O(k + p) plus O(k/stride × l) checkpoint/suffix writes.
    pub fn prime(&mut self, base: &Solution) {
        let snap = self.snap.as_ref();
        let k = snap.task_count();
        let l = snap.machine_count();
        debug_assert_eq!(base.len(), k, "solution/instance mismatch");
        debug_assert_eq!(base.machine_count(), l, "solution/instance machine mismatch");
        self.stride = self.stride_override.unwrap_or_else(|| auto_stride(k)).max(1);
        match &mut self.base {
            Some(b) => b.clone_from(base),
            none => *none = Some(base.clone()),
        }
        // Remaining-critical-path tails, walked in reverse string order
        // (a linear extension, so every consumer is final before its
        // producer is read): after `u` finishes, at least its cheapest
        // consumer chain still has to run, transfers bounded by zero.
        // Stored raw; every floor derived from a tail deflates the whole
        // `finish + tail` sum (see the `deflate` field) so the noted
        // floor never overshoots the final *computed* makespan.
        //
        // All fast-path structures are built only for the flags in
        // effect now (SA's per-acceptance re-primes and the --no-prune
        // ablation skip them); `prune_ready`/`splice_ready` keep a
        // later flag flip from reading stale arrays.
        self.prune_ready = self.pruning;
        self.splice_ready = self.splicing;
        if self.pruning {
            self.tail.clear();
            self.tail.resize(k, 0.0);
            for seg in base.segments().iter().rev() {
                let u = seg.task;
                let through = self.min_exec[u.index()] + self.tail[u.index()];
                for (src, _) in snap.preds(u) {
                    if through > self.tail[src.index()] {
                        self.tail[src.index()] = through;
                    }
                }
            }
        }
        self.ckpt_avail.clear();
        self.ckpt_busy.clear();
        self.ckpt_max.clear();
        self.ckpt_sum.clear();
        self.ckpt_pending.clear();
        self.machine_avail.fill(0.0);
        self.state.reset(l);
        for (i, seg) in base.segments().iter().enumerate() {
            if i % self.stride == 0 {
                self.ckpt_avail.extend_from_slice(&self.machine_avail);
                self.ckpt_busy.extend_from_slice(self.state.machine_busy());
                self.ckpt_max.push(self.state.max_finish());
                self.ckpt_sum.push(self.state.finish_sum());
                if self.pruning {
                    self.ckpt_pending.push(self.state.pending_floor());
                }
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
            if self.pruning {
                self.state.note_pending((finish + self.tail[t.index()]) * self.deflate);
            }
        }
        self.base_finish.copy_from_slice(&self.finish);
        self.end_state.clone_from(&self.state);
        self.base_total_busy = self.end_state.machine_busy().iter().sum();

        // Latest-consumer positions: a replay that perturbed task `u`'s
        // timing (or `t`'s machine) must pass `last_consumer[u]` before
        // it may splice. Last-use positions: which machines still host
        // work at or after a boundary (frontier entries of idle-from-
        // here-on machines are irrelevant to reconvergence).
        if self.splicing {
            self.last_consumer.clear();
            self.last_consumer.resize(k, 0);
            self.last_use.clear();
            self.last_use.resize(l, 0);
            for (i, seg) in base.segments().iter().enumerate() {
                for (src, _) in snap.preds(seg.task) {
                    self.last_consumer[src.index()] = i as u32;
                }
                self.last_use[seg.machine.index()] = i as u32 + 1;
            }
        }

        // Influence cone of the critical (first max-finish) task: close
        // over DAG predecessors and machine-order predecessors, walking
        // positions downward (both kinds of edge point strictly left in
        // a linear extension, so one descending pass saturates). Any
        // move that provably stays out of the cone leaves the critical
        // finish bit-identical — the strongest zero-replay floor.
        if self.pruning {
            self.build_cone(base);
        }

        // Reverse sweep: suffix aggregates per checkpoint boundary
        // (the busy sums also feed pruning's machine-load floors).
        if self.pruning || self.splicing {
            let snap = self.snap.as_ref();
            let ckpts = self.ckpt_max.len();
            self.sfx_max.clear();
            self.sfx_max.resize(ckpts, 0.0);
            self.sfx_sum.clear();
            self.sfx_sum.resize(ckpts, 0.0);
            self.sfx_busy.clear();
            self.sfx_busy.resize(ckpts * l, 0.0);
            self.machine_avail.fill(0.0); // reused as the running busy vector
            let mut max = 0.0f64;
            let mut sum = 0.0f64;
            for (i, seg) in base.segments().iter().enumerate().rev() {
                let f = self.base_finish[seg.task.index()];
                max = max.max(f);
                sum += f;
                self.machine_avail[seg.machine.index()] += snap.exec_time(seg.machine, seg.task);
                if i % self.stride == 0 {
                    let c = i / self.stride;
                    self.sfx_max[c] = max;
                    self.sfx_sum[c] = sum;
                    self.sfx_busy[c * l..(c + 1) * l].copy_from_slice(&self.machine_avail);
                }
            }
        }
    }

    /// Closes the critical task's influence cone over DAG predecessors
    /// and machine-order predecessors (see [`prime`](Self::prime)).
    fn build_cone(&mut self, base: &Solution) {
        let snap = self.snap.as_ref();
        let k = snap.task_count();
        let l = snap.machine_count();
        let mut crit_pos = 0usize;
        let mut crit_finish = f64::NEG_INFINITY;
        self.prev_on_machine.clear();
        self.prev_on_machine.resize(k, 0);
        self.cone_last.clear();
        self.cone_last.resize(l, 0); // reused as the running machine cursor
        for (i, seg) in base.segments().iter().enumerate() {
            let f = self.base_finish[seg.task.index()];
            if f > crit_finish {
                crit_finish = f;
                crit_pos = i;
            }
            let m = seg.machine.index();
            self.prev_on_machine[seg.task.index()] = self.cone_last[m];
            self.cone_last[m] = i as u32 + 1;
        }
        self.in_cone.clear();
        self.in_cone.resize(k, false);
        self.in_cone[base.segment_at(crit_pos).task.index()] = true;
        for i in (0..=crit_pos).rev() {
            let u = base.segment_at(i).task;
            if self.in_cone[u.index()] {
                for (src, _) in snap.preds(u) {
                    self.in_cone[src.index()] = true;
                }
                let prev = self.prev_on_machine[u.index()];
                if prev > 0 {
                    self.in_cone[base.segment_at(prev as usize - 1).task.index()] = true;
                }
            }
        }
        self.cone_last.clear();
        self.cone_last.resize(l, 0);
        for (i, seg) in base.segments().iter().enumerate() {
            if self.in_cone[seg.task.index()] {
                self.cone_last[seg.machine.index()] = i as u32 + 1;
            }
        }
    }

    /// The primed base's own score under `obj` — a free accumulator read,
    /// not a pass.
    ///
    /// # Panics
    /// If the evaluator was never primed, or `obj` does not support
    /// incremental scoring.
    pub fn base_score(&self, obj: &dyn Objective) -> f64 {
        assert!(self.base.is_some(), "prime() the evaluator first");
        obj.finalize(&self.end_state)
    }

    /// Scores *base with task `t` moved to string position `new_pos` on
    /// machine `new_m`* (remove-then-insert semantics, exactly
    /// [`Solution::move_task`]) under `obj`, replaying only from the
    /// nearest checkpoint at or before the first affected position.
    ///
    /// The result is bit-identical to a full
    /// [`crate::Evaluator::objective_value`] pass over the materialized
    /// mutated solution. The base stays primed, so any number of moves
    /// can be scored back to back.
    ///
    /// # Panics
    /// If the evaluator was never primed, or `obj` does not support
    /// incremental scoring. `new_pos` must lie inside `t`'s valid range
    /// on the base (callers enumerate candidates from
    /// [`Solution::valid_range`]); positions outside it yield a
    /// precedence-inconsistent replay and a meaningless score.
    pub fn score_move(
        &mut self,
        t: TaskId,
        new_pos: usize,
        new_m: MachineId,
        obj: &dyn Objective,
    ) -> f64 {
        match self.score_move_bounded(t, new_pos, new_m, f64::INFINITY, obj) {
            MoveScore::Exact(score) => score,
            MoveScore::Pruned => unreachable!("an infinite bound never prunes"),
        }
    }

    /// Like [`score_move`](Self::score_move), but threads the caller's
    /// best-so-far score into the replay: the candidate is abandoned
    /// ([`MoveScore::Pruned`]) the moment the objective's monotone
    /// [`lower bound`](Objective::lower_bound) reaches `bound`. A pruned
    /// candidate's true score is provably `>= bound` — it cannot
    /// *strictly beat* the bound — so in an argmin scan committing
    /// strict improvements with earliest-index tie-breaking it can
    /// neither win nor displace the incumbent (a tie loses to the
    /// earlier incumbent whether scored exactly or pruned): **bounded
    /// and unbounded scans commit identical selections**, the bound only
    /// skips work. Callers that need to distinguish an exact tie from a
    /// worse candidate must use [`score_move`](Self::score_move).
    ///
    /// Independently, the replay watches for **reconvergence**: once it
    /// is past the disturbed window and every consumer of a perturbed
    /// timing, a checkpoint boundary whose machine frontier bitwise
    /// matches the base walk's proves the remaining tail would replay
    /// the base walk exactly — the precomputed suffix aggregates (or,
    /// for sum-based objectives, the base end state when the whole
    /// accumulator matches) are spliced in instead of walking the tail,
    /// making the cost O(disturbed region) instead of O(k − pos). Both
    /// cuts are exact: every [`MoveScore::Exact`] is bit-identical to a
    /// full pass, whatever the flags ([`set_pruning`](Self::set_pruning),
    /// [`set_splicing`](Self::set_splicing)).
    ///
    /// Every call counts as exactly one evaluation, pruned or not — the
    /// evaluation axis measures candidates considered, not work done.
    ///
    /// # Panics
    /// As [`score_move`](Self::score_move).
    pub fn score_move_bounded(
        &mut self,
        t: TaskId,
        new_pos: usize,
        new_m: MachineId,
        bound: f64,
        obj: &dyn Objective,
    ) -> MoveScore {
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
            end_state,
            sfx_max,
            sfx_sum,
            sfx_busy,
            last_consumer,
            last_use,
            base_total_busy,
            deflate,
            scan_floor,
            tail,
            ckpt_pending,
            in_cone,
            cone_last,
            machine_avail,
            remaining_busy,
            state,
            finish,
            dirty,
            evaluations,
            pruned,
            spliced,
            pruning,
            splicing,
            prune_ready,
            splice_ready,
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
        // No segment index at or beyond this differs from the base.
        let ceiling = old_pos.max(new_pos);
        *evaluations += 1;
        obs::add(obs::Counter::ScanScored, 1);
        crate::faults::eval_tick();
        // Resume from the nearest checkpoint at or before `first`.
        // Bound context. The total-busy hint must upper-bound the busy
        // sum `finalize` will compute for *this candidate*, rounding
        // included: take the base total plus the whole relocated exec
        // (never subtracting the old placement) and inflate past the
        // worst-case accumulation drift of O(k + l) roundings.
        let do_prune = *pruning && *prune_ready && bound < f64::INFINITY;
        // Scan-global cutoff: the certified instance floor lower-bounds
        // every candidate's exact score, so once the caller's running
        // best has reached the floor nothing can strictly improve —
        // instant prune, zero replay (ties lose, as everywhere).
        if do_prune && *scan_floor >= bound {
            *pruned += 1;
            obs::add(obs::Counter::ScanPruned, 1);
            return MoveScore::Pruned;
        }
        let exec_new = snap.exec_time(new_m, t);
        let hints = BoundHints {
            total_tasks: k,
            total_busy_upper: (*base_total_busy + exec_new)
                * (1.0 + (4 * (k + l) + 64) as f64 * f64::EPSILON),
        };

        let ci = first / *stride;
        machine_avail.copy_from_slice(&ckpt_avail[ci * l..(ci + 1) * l]);
        state.load(ckpt_max[ci], ckpt_sum[ci], ci * *stride, &ckpt_busy[ci * l..(ci + 1) * l]);
        if do_prune {
            state.note_pending(ckpt_pending[ci]);
            remaining_busy.copy_from_slice(&sfx_busy[ci * l..(ci + 1) * l]);
        }

        // Fast-forward the unchanged positions [ci·stride, first): their
        // timing is the base's, so the frontier folds from stored finish
        // times without touching predecessor lists.
        for seg in &base.segments()[ci * *stride..first] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            let exec = snap.exec_time(mu, u);
            machine_avail[mu.index()] = f;
            state.fold(mu, f, exec);
            if do_prune {
                state.note_pending((f + tail[u.index()]) * *deflate);
                remaining_busy[mu.index()] -= exec;
            }
        }

        if do_prune {
            // `remaining_busy` now holds the execution time each machine
            // still owes under the *mutated* assignment (base suffix
            // with `t` relocated). Machine frontiers only move forward
            // and `avail[m] + remaining[m]` floors machine `m`'s final
            // frontier, so the floors below are valid before a single
            // position is replayed — a zero-replay cut that kills
            // "slow/busy machine" candidates outright. The chain floor
            // through `t`'s tail comes along for free.
            remaining_busy[old_m.index()] -= snap.exec_time(old_m, t);
            remaining_busy[new_m.index()] += exec_new;
            for (&now, &rem) in machine_avail.iter().zip(remaining_busy.iter()) {
                state.note_pending((now + rem) * *deflate);
            }
            state.note_pending(
                (machine_avail[new_m.index()] + exec_new + tail[t.index()]) * *deflate,
            );
            // Critical-cone floor: a move of a non-cone task is invisible
            // to the critical task unless it inserts ahead of a cone
            // task on the target machine — every cone input (DAG
            // predecessors, machine-order predecessors) recomputes
            // bit-identically, so the candidate's max finish is at least
            // the base's, exactly. The dominant case in a move scan: the
            // incumbent's critical chain instantly disqualifies every
            // candidate that does not touch it.
            if !in_cone[t.index()] {
                let cone_end = cone_last[new_m.index()] as usize; // base pos + 1; 0 = none
                let inserts_before_cone =
                    if old_pos < new_pos { cone_end > new_pos + 1 } else { cone_end > new_pos };
                if !inserts_before_cone {
                    state.note_pending(end_state.max_finish());
                }
            }
            if obj.lower_bound(state, &hints) >= bound {
                // Nothing was dirtied yet.
                *pruned += 1;
                obs::add(obs::Counter::ScanPruned, 1);
                return MoveScore::Pruned;
            }
        }

        // Latest position (base indexing — valid beyond `ceiling`) of a
        // consumer reading a perturbed timing; splicing must wait until
        // the replay has passed it. A machine change perturbs every
        // transfer out of `t` whatever its finish time does.
        let moved = new_m != old_m;
        let mut horizon = if moved { last_consumer[t.index()] as usize } else { 0 };
        // A machine change re-prices exactly `t`'s incoming and outgoing
        // edges; every other edge keeps both endpoints' base machines,
        // so its cached base cost is already the candidate's.
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
        let outcome = 'replay: {
            for i in first..k {
                // Reconvergence check, only at checkpoint boundaries past
                // both the disturbed window and every perturbed consumer.
                // The frontier must match the base walk's, but only on
                // machines that still host work at or after the boundary
                // — an entry nothing will read cannot influence the tail.
                if i > ceiling && i % *stride == 0 {
                    let c = i / *stride;
                    let frontier_ok = *splicing
                        && *splice_ready
                        && horizon < i
                        && machine_avail
                            .iter()
                            .zip(&ckpt_avail[c * l..(c + 1) * l])
                            .zip(last_use.iter())
                            .all(|((now, then), &used)| used <= i as u32 || now == then);
                    if frontier_ok {
                        let suffix = SuffixView {
                            max_finish: sfx_max[c],
                            finish_sum: sfx_sum[c],
                            machine_busy: &sfx_busy[c * l..(c + 1) * l],
                            tasks: k - i,
                        };
                        let score = obj.splice(state, &suffix).or_else(|| {
                            // Identity splice: the whole accumulator state
                            // matches the base walk's, so the finished fold
                            // is the base walk's finished fold.
                            state
                                .matches(
                                    ckpt_max[c],
                                    ckpt_sum[c],
                                    i,
                                    &ckpt_busy[c * l..(c + 1) * l],
                                )
                                .then(|| obj.finalize(end_state))
                        });
                        if let Some(score) = score {
                            *spliced += 1;
                            obs::add(obs::Counter::ScanSpliced, 1);
                            break 'replay MoveScore::Exact(score);
                        }
                    }
                }
                let seg = seg_at(i);
                let (u, mu) = (seg.task, seg.machine);
                let exec = snap.exec_time(mu, u);
                let (_, f) =
                    snap.schedule_step(u, mu, exec, |e, _| edge_cost[e], finish, machine_avail);
                finish[u.index()] = f;
                dirty.push(u.raw());
                machine_avail[mu.index()] = f;
                state.fold(mu, f, exec);
                if f != base_finish[u.index()] {
                    horizon = horizon.max(last_consumer[u.index()] as usize);
                }
                if do_prune {
                    // Chain floor (this task's finish plus its remaining
                    // critical path) and machine-load floor (this
                    // machine's frontier plus the work it still owes) —
                    // both monotone along the fold, both O(1).
                    state.note_pending((f + tail[u.index()]) * *deflate);
                    let rem = remaining_busy[mu.index()] - exec;
                    remaining_busy[mu.index()] = rem;
                    state.note_pending((f + rem) * *deflate);
                    if obj.lower_bound(state, &hints) >= bound {
                        *pruned += 1;
                        obs::add(obs::Counter::ScanPruned, 1);
                        break 'replay MoveScore::Pruned;
                    }
                }
            }
            MoveScore::Exact(obj.finalize(state))
        };
        // Restore the base: `t`'s edge costs and the pristine finish
        // times (dirty entries only).
        if moved {
            snap.resolve_task_edges(t, old_m, base_machine, edge_cost);
        }
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();
        outcome
    }

    /// Scores *base with task `t` moved to string position `pos`* on
    /// every machine of `machines` at once: `out[j]` receives the score
    /// of the move onto `machines[j]`, bit-identical to
    /// [`score_move`](Self::score_move)`(t, pos, machines[j], obj)` and
    /// so to a full pass over the materialized candidate.
    ///
    /// The candidates of one position share their string, and differ
    /// only in `t`'s machine, so they are replayed in one lockstep pass
    /// with one *lane* per machine. The replay resumes from the
    /// checkpoint at or before `min(old_pos, pos)` and fast-forwards
    /// from the stored finish times. A rightward move first replays the
    /// left-shifted tasks `[old_pos, pos)` once, scalar: none of them
    /// reads `t`, so every lane agrees on them. `t` is then placed on
    /// each lane's machine through the scheduling kernel's scalar step,
    /// and the suffix is replayed through its lane step with per-lane
    /// finish times, frontiers and accumulators. Each lane
    /// folds exactly what [`ObjectiveState::fold`] folds and is
    /// finalized through [`Objective::finalize`]. There is no pruning
    /// and no splice: every lane is scored to completion.
    ///
    /// Every lane counts as one scoring (and one fault-plan tick) —
    /// except a lane that would re-score the base's own placement
    /// (`pos` is `t`'s position and `machines[j]` its machine), whose
    /// slot still receives the base score. The base stays primed, and
    /// the lane scratch is reused, so steady-state calls allocate
    /// nothing.
    ///
    /// # Panics
    /// As [`score_move`](Self::score_move), or if `out` is not one slot
    /// per machine.
    pub fn score_position(
        &mut self,
        t: TaskId,
        pos: usize,
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
        let y = machines.len();
        assert!(pos < k, "move position out of range");
        assert_eq!(out.len(), y, "one score slot per lane");
        debug_assert!(machines.iter().all(|m| m.index() < l), "machine out of range");

        let old_pos = base.position_of(t);
        let old_m = base.machine_of(t);
        let own = if pos == old_pos { machines.iter().filter(|&&m| m == old_m).count() } else { 0 };
        let scored = (y - own) as u64;
        *evaluations += scored;
        obs::add(obs::Counter::ScanScored, scored);
        for _ in 0..scored {
            crate::faults::eval_tick();
        }

        // Resume from the nearest checkpoint at or before the first
        // disturbed position and fast-forward the unchanged prefix.
        let first = old_pos.min(pos);
        let ci = first / *stride;
        machine_avail.copy_from_slice(&ckpt_avail[ci * l..(ci + 1) * l]);
        state.load(ckpt_max[ci], ckpt_sum[ci], ci * *stride, &ckpt_busy[ci * l..(ci + 1) * l]);
        for seg in &base.segments()[ci * *stride..first] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            machine_avail[mu.index()] = f;
            state.fold(mu, f, snap.exec_time(mu, u));
        }

        // A rightward move shifts base positions (old_pos, pos] one to
        // the left. None of them consumes `t` (it lands after them), and
        // none of their edges touches `t`, so they replay once, scalar,
        // on the cached base edge costs.
        if pos > old_pos {
            for seg in &base.segments()[old_pos + 1..=pos] {
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

        lanes.reserve(k, l, y);
        let LaneScratch { finish: lane_finish, avail, busy, max, sum, step, column } = lanes;
        // `t` itself, once per lane: every producer is shared, and the
        // in-edges are priced for the lane's machine.
        let t_row = t.index() * y..(t.index() + 1) * y;
        for (f_t, &m) in lane_finish[t_row.clone()].iter_mut().zip(machines) {
            let rows = snap.pair_rows(m);
            let exec = snap.exec_time(m, t);
            let (_, f) = snap.schedule_step(
                t,
                m,
                exec,
                |e, src| snap.edge_transfer(e, rows[base_machine[src] as usize]),
                finish,
                machine_avail,
            );
            *f_t = f;
        }
        // Lane state: the shared frontier and fold, each lane then
        // folding its own placement of `t` (`ObjectiveState::fold`).
        for x in 0..l {
            avail[x * y..(x + 1) * y].fill(machine_avail[x]);
            busy[x * y..(x + 1) * y].fill(state.machine_busy()[x]);
        }
        for (j, (&m, &f)) in machines.iter().zip(&lane_finish[t_row.clone()]).enumerate() {
            avail[m.index() * y + j] = f;
            max[j] = state.max_finish().max(f);
            sum[j] = state.finish_sum() + f;
            busy[m.index() * y + j] += snap.exec_time(m, t);
        }
        let mut tasks = state.tasks() + 1;

        // The suffix in lanes: every base task from `from` on except `t`
        // (a leftward move shifts base positions [pos, old_pos) right).
        let from = if pos < old_pos { pos } else { pos + 1 };
        for seg in &base.segments()[from..] {
            let (u, mu) = (seg.task, seg.machine);
            if u == t {
                continue;
            }
            let exec = snap.exec_time(mu, u);
            let row = mu.index() * y..(mu.index() + 1) * y;
            snap.lane_step(
                u,
                mu,
                exec,
                machines,
                |e, src| {
                    if src == t.index() {
                        LaneArrival::Moved(&lane_finish[t_row.clone()])
                    } else if base.position_of(TaskId::from_usize(src)) >= from {
                        LaneArrival::Lanes(&lane_finish[src * y..(src + 1) * y], edge_cost[e])
                    } else {
                        LaneArrival::Shared(finish[src] + edge_cost[e])
                    }
                },
                &avail[row.clone()],
                step,
            );
            let lanes = lane_finish[u.index() * y..(u.index() + 1) * y]
                .iter_mut()
                .zip(&mut avail[row.clone()])
                .zip(&mut busy[row])
                .zip(max.iter_mut().zip(sum.iter_mut()))
                .zip(&step[..y]);
            for ((((f_u, a), b), (mx, sm)), &f) in lanes {
                *f_u = f;
                *a = f;
                *mx = mx.max(f);
                *sm += f;
                *b += exec;
            }
            tasks += 1;
        }

        let column = &mut column[..l];
        for (j, score) in out.iter_mut().enumerate() {
            for (x, c) in column.iter_mut().enumerate() {
                *c = busy[x * y + j];
            }
            state.load(max[j], sum[j], tasks, column);
            *score = obj.finalize(state);
        }
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();
    }

    /// Scores an **arbitrary candidate sharing a string prefix with the
    /// primed base** — the GA offspring shape: a crossover child is
    /// parent A's segment string up to the first divergence point, then
    /// anything at all. Resumes from the nearest checkpoint at or before
    /// `diverge` and replays only `[diverge, k)`, reading the child's
    /// own segments; the result is bit-identical to a full
    /// [`crate::Evaluator::objective_value`] pass over `child`, because
    /// the replay is the same fold the full pass performs and the
    /// resumed prefix state is the fold of an *identical* prefix.
    ///
    /// Replays may still finish early through the reconvergence splice:
    /// past the last position where `child` differs from the base, the
    /// tail is the base's, so the bitwise frontier-match logic of
    /// [`score_move_bounded`](Self::score_move_bounded) applies
    /// unchanged. There is **no pruning** on this path — population
    /// fitness feeds roulette selection, which needs every exact value.
    ///
    /// `diverge` is a contract, not a hint: segments `[0, diverge)` of
    /// `child` must equal the base's (callers compute the first
    /// differing index; any smaller value is also sound, merely slower).
    /// Counts as exactly one evaluation.
    ///
    /// # Panics
    /// If the evaluator was never primed, `obj` does not support
    /// incremental scoring, `child`'s length differs from the base's, or
    /// `diverge > k`. Debug builds verify the shared-prefix contract.
    pub fn score_suffix(&mut self, child: &Solution, diverge: usize, obj: &dyn Objective) -> f64 {
        let IncrementalEvaluator {
            snap,
            stride,
            base,
            base_finish,
            ckpt_avail,
            ckpt_busy,
            ckpt_max,
            ckpt_sum,
            end_state,
            sfx_max,
            sfx_sum,
            sfx_busy,
            last_consumer,
            last_use,
            machine_avail,
            state,
            finish,
            dirty,
            evaluations,
            spliced,
            splicing,
            splice_ready,
            ..
        } = self;
        let snap = snap.as_ref();
        let base = base.as_ref().expect("prime() the evaluator first");
        let k = base.len();
        let l = snap.machine_count();
        assert_eq!(child.len(), k, "child/base length mismatch");
        assert!(diverge <= k, "divergence index out of range");
        debug_assert!(
            child.segments()[..diverge] == base.segments()[..diverge],
            "score_suffix contract: segments before the divergence index must match the base"
        );
        *evaluations += 1;
        obs::add(obs::Counter::ScanScored, 1);
        crate::faults::eval_tick();

        // Last position where the child differs from the base: beyond it
        // the tail is the base's, so checkpoint boundaries there are
        // splice-eligible (frontier match permitting). No difference at
        // all means the child *is* the base — its score is the primed
        // end state, no replay needed.
        let Some(ceiling) = (diverge..k).rev().find(|&i| child.segment_at(i) != base.segment_at(i))
        else {
            return obj.finalize(end_state);
        };

        let ci = diverge / *stride;
        machine_avail.copy_from_slice(&ckpt_avail[ci * l..(ci + 1) * l]);
        state.load(ckpt_max[ci], ckpt_sum[ci], ci * *stride, &ckpt_busy[ci * l..(ci + 1) * l]);

        // Fast-forward the shared positions [ci·stride, diverge): the
        // child's prefix is the base's, so the frontier folds from the
        // stored base finish times without touching predecessor lists.
        for seg in &base.segments()[ci * *stride..diverge] {
            let (u, mu) = (seg.task, seg.machine);
            let f = base_finish[u.index()];
            machine_avail[mu.index()] = f;
            state.fold(mu, f, snap.exec_time(mu, u));
        }

        // Latest base position of a consumer reading a timing or
        // transfer this replay perturbed; splicing must wait until the
        // replay has passed it. Tail consumers sit at the same positions
        // in child and base (the tail is shared), so base indexing is
        // exact where it matters.
        let mut horizon = 0usize;

        for i in diverge..k {
            if i > ceiling && i % *stride == 0 {
                let c = i / *stride;
                let frontier_ok = *splicing
                    && *splice_ready
                    && horizon < i
                    && machine_avail
                        .iter()
                        .zip(&ckpt_avail[c * l..(c + 1) * l])
                        .zip(last_use.iter())
                        .all(|((now, then), &used)| used <= i as u32 || now == then);
                if frontier_ok {
                    let suffix = SuffixView {
                        max_finish: sfx_max[c],
                        finish_sum: sfx_sum[c],
                        machine_busy: &sfx_busy[c * l..(c + 1) * l],
                        tasks: k - i,
                    };
                    let score = obj.splice(state, &suffix).or_else(|| {
                        state
                            .matches(ckpt_max[c], ckpt_sum[c], i, &ckpt_busy[c * l..(c + 1) * l])
                            .then(|| obj.finalize(end_state))
                    });
                    if let Some(score) = score {
                        *spliced += 1;
                        obs::add(obs::Counter::ScanSpliced, 1);
                        for &u in dirty.iter() {
                            finish[u as usize] = base_finish[u as usize];
                        }
                        dirty.clear();
                        return score;
                    }
                }
            }
            let seg = child.segment_at(i);
            let (u, mu) = (seg.task, seg.machine);
            let exec = snap.exec_time(mu, u);
            let rows = snap.pair_rows(mu);
            let (_, f) = snap.schedule_step(
                u,
                mu,
                exec,
                |e, src| {
                    snap.edge_transfer(e, rows[child.machine_of(TaskId::from_usize(src)).index()])
                },
                finish,
                machine_avail,
            );
            finish[u.index()] = f;
            dirty.push(u.raw());
            machine_avail[mu.index()] = f;
            state.fold(mu, f, exec);
            // A changed finish perturbs the timing consumers read; a
            // changed machine perturbs every transfer out of `u` even if
            // the finish time is bit-identical.
            if f != base_finish[u.index()] || mu != base.machine_of(u) {
                horizon = horizon.max(last_consumer[u.index()] as usize);
            }
        }
        let score = obj.finalize(state);
        for &u in dirty.iter() {
            finish[u as usize] = base_finish[u as usize];
        }
        dirty.clear();
        score
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
    fn score_move_is_bit_identical_to_full_eval_at_every_stride() {
        let inst = random_instance(24, 4, 3);
        let g = inst.graph();
        let k = inst.task_count();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for stride in [Some(1), Some(2), Some(5), None, Some(k), Some(k + 17)] {
            let base = random_solution(&inst, &mut rng);
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.set_stride(stride);
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
                    assert_eq!(fast, slow, "{} stride {stride:?}", kind.label());
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
    fn empty_disturbed_region_splices_to_the_base_score() {
        // Moving a task to its own (position, machine) disturbs nothing:
        // the replay reconverges at the first checkpoint boundary past
        // the position and splices, for every objective — and the score
        // is exactly the base score.
        let inst = random_instance(30, 4, 19);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let base = random_solution(&inst, &mut rng);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.set_stride(Some(2));
            inc.prime(&base);
            // An early task: plenty of boundaries after it.
            let t = base.segment_at(3).task;
            let score = inc.score_move(t, 3, base.machine_of(t), &kind);
            assert_eq!(score, inc.base_score(&kind), "{}", kind.label());
            assert_eq!(inc.stats().spliced, 1, "{}: identity move must splice", kind.label());
            assert_eq!(inc.stats().scored, 1);
            // Splicing off: same bits, no splice.
            inc.set_splicing(false);
            assert_eq!(inc.score_move(t, 3, base.machine_of(t), &kind), score);
            assert_eq!(inc.stats().spliced, 1, "splicing disabled");
        }
    }

    #[test]
    fn maximal_disturbed_region_stays_exact() {
        // A move to position 0 replays from the very start — the worst
        // case for both cuts; scores must still be bit-identical to the
        // full pass, spliced or not, pruned path disabled or not.
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
                // Bounded at exactly the true score: Exact(truth) or a
                // (sound) prune are the only legal outcomes.
                match inc.score_move_bounded(t, 0, m, truth, &kind) {
                    MoveScore::Exact(s) => assert_eq!(s, truth),
                    MoveScore::Pruned => {} // truth >= truth holds
                }
            }
        }
    }

    #[test]
    fn pruning_and_splicing_flags_never_change_bits() {
        let inst = random_instance(28, 4, 31);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let base = random_solution(&inst, &mut rng);
        let mut plain = IncrementalEvaluator::new(&inst);
        plain.set_pruning(false);
        plain.set_splicing(false);
        plain.prime(&base);
        let mut fast = IncrementalEvaluator::new(&inst);
        fast.prime(&base);
        let mut best = f64::INFINITY;
        for _ in 0..60 {
            let t = TaskId::new(rng.gen_range(0..28));
            let (lo, hi) = base.valid_range(g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = MachineId::new(rng.gen_range(0..4));
            let truth = plain.score_move(t, pos, m, &ObjectiveKind::Makespan);
            match fast.score_move_bounded(t, pos, m, best, &ObjectiveKind::Makespan) {
                MoveScore::Exact(s) => assert_eq!(s, truth),
                MoveScore::Pruned => assert!(truth >= best, "pruned but {truth} < bound {best}"),
            }
            if truth < best {
                best = truth;
            }
        }
        // With pruning off, a bounded call never prunes.
        assert_eq!(plain.stats().pruned, 0);
        assert!(plain
            .score_move_bounded(
                TaskId::new(0),
                base.position_of(TaskId::new(0)),
                base.machine_of(TaskId::new(0)),
                0.0,
                &ObjectiveKind::Makespan
            )
            .exact()
            .is_some());
        // MoveScore helpers.
        assert!(MoveScore::Pruned.is_pruned());
        assert_eq!(MoveScore::Pruned.exact(), None);
        assert_eq!(MoveScore::Exact(2.0).exact(), Some(2.0));
        assert!(!MoveScore::Exact(2.0).is_pruned());
    }

    #[test]
    fn wide_dynamic_range_floors_never_over_prune() {
        // Regression: a huge finish feeding a tiny consumer chain. The
        // computed chain absorbs the small execs entirely
        // (round(1e16 + 1) == 1e16), so any floor whose rounding margin
        // scales with the *tail* instead of the whole `finish + tail`
        // magnitude overshoots the true computed makespan and prunes
        // candidates that strictly beat the bound.
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
        inc.set_stride(Some(1));
        inc.prime(&base);
        let mut scalar = Evaluator::new(&inst);
        // Every candidate, bounded by every candidate's exact score: a
        // strictly better candidate must never come back Pruned.
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
        let truths: Vec<f64> = candidates
            .iter()
            .map(|&(t, pos, m)| {
                let mut cand = base.clone();
                cand.move_task(graph, t, pos, m).unwrap();
                scalar.objective_value(&cand, &ObjectiveKind::Makespan)
            })
            .collect();
        for (&(t, pos, m), &truth) in candidates.iter().zip(&truths) {
            for &bound in &truths {
                match inc.score_move_bounded(t, pos, m, bound, &ObjectiveKind::Makespan) {
                    MoveScore::Exact(s) => assert_eq!(s, truth),
                    MoveScore::Pruned => assert!(
                        truth >= bound,
                        "pruned at bound {bound} but true score {truth} strictly beats it \
                         ({t} -> ({pos}, {m}))"
                    ),
                }
            }
        }
    }

    #[test]
    fn scan_stats_track_and_merge() {
        let mut a = ScanStats { scored: 10, pruned: 4, spliced: 1, ..Default::default() };
        a.merge(ScanStats { scored: 10, pruned: 0, spliced: 3, ..Default::default() });
        assert_eq!(a, ScanStats { scored: 20, pruned: 4, spliced: 4, ..Default::default() });
        assert_eq!(a.pruned_fraction(), 0.2);
        assert_eq!(a.spliced_fraction(), 0.2);
        assert_eq!(ScanStats::default().pruned_fraction(), 0.0);
        assert_eq!(ScanStats::default().spliced_fraction(), 0.0);
        // The population axes merge and ratio independently.
        a.merge(ScanStats {
            suffixed: 3,
            prefix_reused: 30,
            suffix_total: 120,
            ..Default::default()
        });
        a.merge(ScanStats {
            suffixed: 1,
            prefix_reused: 30,
            suffix_total: 40,
            ..Default::default()
        });
        assert_eq!(a.suffixed, 4);
        assert_eq!(a.prefix_reuse_fraction(), 60.0 / 160.0);
        assert_eq!(ScanStats::default().prefix_reuse_fraction(), 0.0);
    }

    /// First string position where two equal-length solutions differ
    /// (`k` when identical) — the divergence index GA hands to
    /// `score_suffix`.
    fn first_divergence(a: &Solution, b: &Solution) -> usize {
        a.segments().iter().zip(b.segments()).position(|(x, y)| x != y).unwrap_or(a.len())
    }

    #[test]
    fn score_suffix_matches_full_eval_for_multi_move_children() {
        // Children built by stacking several random moves on the base —
        // crossover-offspring shape: shared prefix, arbitrary tail.
        let inst = random_instance(26, 4, 41);
        let g = inst.graph();
        let k = inst.task_count();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for stride in [Some(1), Some(3), None, Some(k + 5)] {
            let base = random_solution(&inst, &mut rng);
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.set_stride(stride);
            inc.set_pruning(false);
            inc.prime(&base);
            for _ in 0..25 {
                let mut child = base.clone();
                for _ in 0..rng.gen_range(1..5) {
                    let t = TaskId::new(rng.gen_range(0..k as u32));
                    let (lo, hi) = child.valid_range(g, t);
                    let pos = rng.gen_range(lo..=hi);
                    let m = MachineId::new(rng.gen_range(0..4));
                    child.move_task(g, t, pos, m).unwrap();
                }
                let d = first_divergence(&base, &child);
                for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
                    let truth = scalar.objective_value(&child, &kind);
                    assert_eq!(
                        inc.score_suffix(&child, d, &kind),
                        truth,
                        "{} stride {stride:?} diverge {d}",
                        kind.label()
                    );
                    // Any looser (smaller) divergence index is equally
                    // exact — `diverge` is a resume hint bounded by the
                    // true first difference, not a required tight value.
                    let loose = d / 2;
                    assert_eq!(inc.score_suffix(&child, loose, &kind), truth);
                    assert_eq!(inc.score_suffix(&child, 0, &kind), truth);
                }
            }
        }
    }

    #[test]
    fn score_suffix_of_identical_child_is_the_base_score() {
        let inst = random_instance(20, 3, 44);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let base = random_solution(&inst, &mut rng);
        let mut inc = IncrementalEvaluator::new(&inst);
        inc.prime(&base);
        let child = base.clone();
        for kind in ObjectiveKind::BASIC {
            assert_eq!(inc.score_suffix(&child, base.len(), &kind), inc.base_score(&kind));
            // A loose divergence index on an identical child short-cuts
            // to the primed end state without replaying anything.
            assert_eq!(inc.score_suffix(&child, 0, &kind), inc.base_score(&kind));
        }
        assert_eq!(inc.evaluations(), 8, "every suffix scoring counts once");
    }

    #[test]
    fn score_suffix_splices_when_the_tail_reconverges() {
        // Swap two adjacent, dependency-free tasks on *different*
        // machines: the string differs at two positions but every
        // per-machine order — and therefore every timing — is
        // unchanged, so the replay's frontier bitwise re-converges at
        // the next checkpoint boundary and the tail is spliced.
        let inst = random_instance(30, 4, 19);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let base = random_solution(&inst, &mut rng);
        let swap_pos = (0..base.len() - 1)
            .find(|&p| {
                let (a, b) = (base.segment_at(p), base.segment_at(p + 1));
                a.machine != b.machine && !g.predecessors(b.task).any(|s| s == a.task)
            })
            .expect("a random 30-task/4-machine string has an adjacent cross-machine pair");
        let t = base.segment_at(swap_pos).task;
        let mut child = base.clone();
        child.move_task(g, t, swap_pos + 1, base.machine_of(t)).unwrap();
        assert_eq!(first_divergence(&base, &child), swap_pos);
        // Makespan folds through an order-insensitive max, so the
        // frontier *and* accumulators bitwise match the base at the next
        // boundary and the suffix aggregates are spliced in. Sum-based
        // objectives fold `finish_sum` in string order — the swap
        // reorders two additions, so their accumulators legitimately
        // differ and the splice correctly declines; exactness holds
        // either way.
        let mut scalar = Evaluator::new(&inst);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut inc = IncrementalEvaluator::new(&inst);
            inc.set_stride(Some(2));
            inc.set_pruning(false);
            inc.prime(&base);
            let score = inc.score_suffix(&child, swap_pos, &kind);
            assert_eq!(score, scalar.objective_value(&child, &kind), "{}", kind.label());
            if matches!(kind, ObjectiveKind::Makespan) {
                assert_eq!(score, inc.base_score(&kind), "timings unchanged");
                assert_eq!(inc.stats().spliced, 1, "reconverged tail must splice");
                // Splicing off: same bits, no splice.
                inc.set_splicing(false);
                assert_eq!(inc.score_suffix(&child, swap_pos, &kind), score);
                assert_eq!(inc.stats().spliced, 1, "splicing disabled");
            }
        }
    }

    #[test]
    #[should_panic(expected = "prime()")]
    fn score_suffix_requires_priming() {
        let inst = random_instance(6, 2, 10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sol = random_solution(&inst, &mut rng);
        let mut inc = IncrementalEvaluator::new(&inst);
        let _ = inc.score_suffix(&sol, 0, &ObjectiveKind::Makespan);
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
