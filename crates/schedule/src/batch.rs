//! Parallel batch evaluation of candidate sets.
//!
//! Every search algorithm in the suite has the same hot shape: produce a
//! set of candidate schedules that are independent of one another, score
//! them all, pick one. [`BatchEvaluator`] centralizes that shape — it
//! owns a pool of reusable per-thread arenas (a borrowed-snapshot
//! [`Evaluator`], an [`IncrementalEvaluator`] and a scratch [`Solution`])
//! and fans a candidate set out over the rayon executor in one call.
//! Arenas live in **per-worker slots** keyed by
//! [`rayon::current_thread_index`] (the persistent pool keeps worker
//! identity stable, so slot `i` always means the same OS thread), with a
//! trailing slot for the submitting thread and an overflow list for
//! anything else — checkout is an uncontended slot take, not a shared
//! `Mutex<Vec>` scramble, and steady-state batch scoring performs no
//! allocations beyond the output vector.
//!
//! The move-oriented entry points ([`score_moves`], [`score_task_moves`])
//! route through the per-thread incremental evaluators whenever the
//! objective supports accumulator finalization (every
//! [`crate::ObjectiveKind`] does): workers prime their evaluator on the
//! shared base and score candidates by suffix replay — no per-candidate
//! `Solution` mutation at all. Because a worker's slot survives across
//! chunks, the prime is stamped with a per-scan epoch and **reused** by
//! every later chunk the same worker claims within the scan (the base,
//! stride, pruning flags and floor are scan-constant), eliminating the
//! old re-prime-per-chunk cost. Objectives without incremental support
//! fall back to clone-and-move full passes.
//!
//! Panic hygiene: a panicking objective (already `catch_unwind`-contained
//! by tournament cells) discards the arena it was using instead of
//! returning it, and every pool lock recovers from poisoning — one bad
//! cell can never cascade `"arena pool poisoned"` panics into healthy
//! scans that share the evaluator.
//!
//! Determinism: scores are returned **in candidate order** and every
//! candidate's score depends only on that candidate, so results are
//! bit-identical at any thread count. The bounded argmin scans
//! ([`best_move`], [`best_task_move`]) split their candidates on a chunk
//! grid that is a pure function of the grid itself — its length and the
//! instance's task count, never the thread count — and every chunk
//! starts its own running bound, so which candidates get pruned or
//! spliced is fixed too: every [`ScanStats`] counter, not just the
//! scored axis, reads the same at any thread count. Small grids form a
//! single chunk and run inline on the calling thread. Per-worker primes
//! are deliberately *not* counted into
//! [`evaluations`](BatchEvaluator::evaluations): how many workers join
//! a scan varies with the thread count, and the evaluation axis must
//! not.
//!
//! [`score_moves`]: BatchEvaluator::score_moves
//! [`score_task_moves`]: BatchEvaluator::score_task_moves
//! [`best_move`]: BatchEvaluator::best_move
//! [`best_task_move`]: BatchEvaluator::best_task_move

use crate::encoding::Solution;
use crate::eval::Evaluator;
use crate::incremental::{IncrementalEvaluator, MoveScore, ScanStats};
use crate::objective::Objective;
use crate::snapshot::EvalSnapshot;
use mshc_obs as obs;
use mshc_platform::MachineId;
use mshc_taskgraph::{TaskGraph, TaskId};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Work one bounded-scan chunk is sized to, in task-replays: a chunk
/// holds `⌈SCAN_CHUNK_REPLAYS / k⌉` candidates of a `k`-task instance
/// (62 at the paper's 100 tasks, 205 at 30, 308 at 20).
///
/// Derived from the traced per-layer costs on `se-100x20` (2 vCPUs): a
/// bounded tier-3 scoring replays about 10 ns per task (~1.0 µs per
/// candidate at `k = 100`), a prime costs ~5 µs, and handing an
/// operation to a parked worker costs ~6–12 µs. A chunk of 6144
/// task-replays is ~60 µs of scoring, so a second chunk runs in
/// parallel for about a quarter of its own cost in dispatch plus the
/// extra worker's prime — while a grid below one chunk stays inline
/// and pays neither. The grid depends on `k` and the grid length
/// alone, which is what keeps every scan counter thread-count
/// invariant.
const SCAN_CHUNK_REPLAYS: usize = 6144;

/// Locks a pool mutex, recovering the data on poison. Arena state is
/// always structurally valid (a suspect arena is discarded by the guard
/// before the poison could matter), so poisoning must not cascade.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Winner of a bounded argmin scan: the earliest-index minimum-score
/// candidate, with its exact score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestMove {
    /// Index into the caller's move slice.
    pub index: usize,
    /// The candidate's exact objective value (never a pruned bound).
    pub score: f64,
}

/// How a population candidate descends from the parent pool — the
/// routing metadata [`BatchEvaluator::score_population`] consumes. The
/// caller (the GA generation loop) computes one per child; every
/// variant scores bit-identically to a full evaluation of the child,
/// so the routing is a pure cost decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Descent {
    /// No usable parent lineage: full tier-1 evaluation.
    Fresh,
    /// Bit-for-bit copy of `parents[parent]` (an elite, or crossover of
    /// converged parents with no effective mutation): the parent's
    /// known cost **is** the child's cost — a full pass over an
    /// identical solution recomputes identical bits.
    Clone {
        /// Index into the parent pool.
        parent: usize,
    },
    /// `parents[parent]` with exactly one task moved
    /// (remove-then-insert, [`Solution::move_task`] semantics) — the
    /// mutation-only child shape, routed through the existing
    /// [`IncrementalEvaluator::score_move`] path.
    Move {
        /// Index into the parent pool.
        parent: usize,
        /// The relocated task.
        task: TaskId,
        /// Its new string position.
        pos: usize,
        /// Its new machine.
        machine: MachineId,
    },
    /// Shares the string prefix `[0, diverge)` with `parents[parent]`
    /// (crossover offspring): scored by
    /// [`IncrementalEvaluator::score_suffix`] against the parent-primed
    /// checkpoints.
    Suffix {
        /// Index into the parent pool.
        parent: usize,
        /// First string position where the child's segments differ from
        /// the parent's (any smaller value is also sound).
        diverge: usize,
    },
}

/// One worker's reusable state: evaluators over the shared snapshot and
/// an optional scratch solution for non-incremental move scoring.
struct Arena<'a> {
    eval: Evaluator<'a>,
    inc: IncrementalEvaluator<'a>,
    scratch: Option<Solution>,
    /// Scan epoch `inc` was last primed for (0 = never). Within one scan
    /// the prime inputs are constant, so a matching stamp lets a worker
    /// reuse its prime across every chunk it claims in that scan.
    primed_epoch: u64,
    /// Whether `inc` currently holds a *population-mode* prime
    /// (splicing on, pruning off, floor inert) — the GA parent shape.
    /// Unlike scan primes, population primes are keyed by the primed
    /// base itself, not an epoch: dominant parents and elites recur
    /// bit-identically across generations, so a worker that meets the
    /// same parent again skips the prime entirely.
    pop_primed: bool,
    /// Stride the population prime was taken at (reuse requires a
    /// match; the stride is a bit-neutral cost knob, but checkpoints
    /// built at one stride cannot serve resumes computed for another).
    pop_stride: Option<usize>,
}

impl<'a> Arena<'a> {
    fn new(snap: &'a EvalSnapshot) -> Arena<'a> {
        Arena {
            eval: Evaluator::with_snapshot(snap),
            inc: IncrementalEvaluator::with_snapshot(snap),
            scratch: None,
            primed_epoch: 0,
            pop_primed: false,
            pop_stride: None,
        }
    }
}

/// Arena storage pinned to the resident rayon workers: slot `i` belongs
/// to worker `i`, the trailing slot to the submitting (non-worker)
/// thread, and `overflow` catches late-grown workers beyond the slot
/// range. A slot is touched only by its own thread during a scan
/// (`&mut self` on the evaluator keeps scans from overlapping), so
/// checkout never contends.
struct ArenaPool<'a> {
    slots: Vec<Mutex<Option<Arena<'a>>>>,
    overflow: Mutex<Vec<Arena<'a>>>,
}

impl<'a> ArenaPool<'a> {
    fn new() -> ArenaPool<'a> {
        let slots = (0..rayon::current_num_threads() + 1).map(|_| Mutex::new(None)).collect();
        ArenaPool { slots, overflow: Mutex::new(Vec::new()) }
    }

    /// The slot owned by the calling thread, or `None` for a worker
    /// index beyond the slot range (scored via the overflow list).
    fn slot_for_current_thread(&self) -> Option<usize> {
        match rayon::current_thread_index() {
            None => Some(self.slots.len() - 1),
            Some(i) if i < self.slots.len() - 1 => Some(i),
            Some(_) => None,
        }
    }
}

/// Checked-out arena that returns itself to its slot on drop — unless
/// the thread is unwinding, in which case the arena is discarded: its
/// evaluators may be mid-replay, and returning it under a panic is
/// exactly the poisoning path this type exists to close.
struct ArenaGuard<'p, 'a> {
    pool: &'p ArenaPool<'a>,
    slot: Option<usize>,
    arena: Option<Arena<'a>>,
}

impl<'p, 'a> ArenaGuard<'p, 'a> {
    fn checkout(pool: &'p ArenaPool<'a>, snap: &'a EvalSnapshot) -> ArenaGuard<'p, 'a> {
        let slot = pool.slot_for_current_thread();
        let existing = match slot {
            Some(i) => lock_tolerant(&pool.slots[i]).take(),
            None => None,
        }
        .or_else(|| lock_tolerant(&pool.overflow).pop());
        let arena = existing.unwrap_or_else(|| Arena::new(snap));
        ArenaGuard { pool, slot, arena: Some(arena) }
    }

    /// Checks out an arena with its scratch solution reset to `base`.
    fn checkout_with_base(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        let arena = guard.arena.as_mut().expect("arena present until drop");
        match &mut arena.scratch {
            Some(s) => s.clone_from(base),
            none => *none = Some(base.clone()),
        }
        guard
    }

    /// Checks out an arena with its incremental evaluator primed on
    /// `base` at the requested checkpoint stride and configured with the
    /// evaluator's prune/splice flags — the move-scoring fast path. The
    /// prime is stamped with the scan `epoch`: the first chunk a thread
    /// claims pays the O(k + p) prime, every later chunk of the same
    /// scan finds the stamp current and reuses it as-is (base, stride,
    /// flags and floor are all scan-constant).
    fn checkout_primed(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
        stride: Option<usize>,
        prune: bool,
        scan_floor: f64,
        epoch: u64,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        let arena = guard.arena.as_mut().expect("arena present until drop");
        if arena.primed_epoch != epoch {
            arena.inc.set_stride(stride);
            arena.inc.set_pruning(prune);
            arena.inc.set_splicing(prune);
            arena.inc.set_scan_floor(scan_floor);
            arena.inc.prime(base);
            arena.primed_epoch = epoch;
            arena.pop_primed = false;
        }
        guard
    }

    /// Checks out an arena primed on a GA parent for population scoring:
    /// splicing on (splices are bit-exact), pruning **off** (roulette
    /// needs every exact value), floor inert. The prime is keyed by the
    /// base solution itself rather than a scan epoch — if the arena
    /// already holds a population prime on a bit-identical base at the
    /// same stride (the dominant parent of a converged population, or
    /// an elite recurring across generations), it is reused as-is.
    fn checkout_population(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
        stride: Option<usize>,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        let arena = guard.arena.as_mut().expect("arena present until drop");
        let reusable =
            arena.pop_primed && arena.pop_stride == stride && arena.inc.base() == Some(base);
        if !reusable {
            arena.inc.set_stride(stride);
            arena.inc.set_pruning(false);
            arena.inc.set_splicing(true);
            arena.inc.set_scan_floor(f64::NEG_INFINITY);
            arena.inc.prime(base);
            arena.pop_primed = true;
            arena.pop_stride = stride;
            // A later move scan must not mistake this for its own prime.
            arena.primed_epoch = 0;
        }
        guard
    }

    fn parts(&mut self) -> (&mut Evaluator<'a>, &mut Option<Solution>) {
        let arena = self.arena.as_mut().expect("arena present until drop");
        (&mut arena.eval, &mut arena.scratch)
    }

    fn inc(&mut self) -> &mut IncrementalEvaluator<'a> {
        &mut self.arena.as_mut().expect("arena present until drop").inc
    }
}

impl Drop for ArenaGuard<'_, '_> {
    fn drop(&mut self) {
        let Some(arena) = self.arena.take() else { return };
        if std::thread::panicking() {
            // A panicking candidate (custom objective) may have left the
            // evaluators mid-replay; drop the arena on the floor. The
            // next checkout on this slot simply builds a fresh one.
            return;
        }
        match self.slot {
            Some(i) => {
                let mut slot = lock_tolerant(&self.pool.slots[i]);
                if slot.is_none() {
                    *slot = Some(arena);
                    return;
                }
                drop(slot);
                lock_tolerant(&self.pool.overflow).push(arena);
            }
            None => lock_tolerant(&self.pool.overflow).push(arena),
        }
    }
}

/// Scores whole candidate sets in one call, in parallel.
pub struct BatchEvaluator<'a> {
    snap: &'a EvalSnapshot,
    arenas: ArenaPool<'a>,
    /// Monotone per-scan counter stamping arena primes (see
    /// [`ArenaGuard::checkout_primed`]); bumped by every scoring entry
    /// point so a stale prime can never leak across scans.
    scan_epoch: u64,
    /// Checkpoint stride handed to the per-thread incremental evaluators
    /// (`None` = auto `⌈√k⌉`). Never affects scores, only resume cost.
    stride: Option<usize>,
    /// Whether the bounded scans may prune/splice (`--no-prune` turns
    /// this off). Selections are bit-identical either way.
    prune: bool,
    /// Certified instance floor forwarded to the per-thread incremental
    /// evaluators as a scan-global cutoff (default `-inf` = inert).
    scan_floor: f64,
    evaluations: u64,
    /// Aggregated fast-path counters across all calls.
    scan: ScanStats,
}

impl<'a> BatchEvaluator<'a> {
    /// Creates a batch evaluator over a shared snapshot.
    pub fn new(snap: &'a EvalSnapshot) -> BatchEvaluator<'a> {
        BatchEvaluator {
            snap,
            arenas: ArenaPool::new(),
            scan_epoch: 0,
            stride: None,
            prune: true,
            scan_floor: f64::NEG_INFINITY,
            evaluations: 0,
            scan: ScanStats::default(),
        }
    }

    /// Sets the checkpoint stride for incremental move scoring (`None` =
    /// auto `⌈√k⌉`).
    pub fn with_stride(mut self, stride: Option<usize>) -> BatchEvaluator<'a> {
        self.stride = stride;
        self
    }

    /// Enables/disables bound pruning and reconvergence splicing in the
    /// incremental move scans (default: on). A pure cost knob — argmin
    /// results, scores and evaluation counts are identical either way.
    pub fn with_pruning(mut self, prune: bool) -> BatchEvaluator<'a> {
        self.prune = prune;
        self
    }

    /// Installs a certified instance floor as the scan-global cutoff for
    /// the bounded argmin scans (see
    /// [`IncrementalEvaluator::set_scan_floor`]). Callers must only pass
    /// a floor that provably lower-bounds every candidate's exact score
    /// under the scan's objective — [`crate::InstanceBound::floor`] under
    /// makespan. Honored only while pruning is enabled; another pure
    /// cost knob (argmin results, scores and evaluation counts are
    /// identical either way).
    pub fn with_scan_floor(mut self, floor: f64) -> BatchEvaluator<'a> {
        self.scan_floor = floor;
        self
    }

    /// The shared snapshot.
    #[inline]
    pub fn snapshot(&self) -> &'a EvalSnapshot {
        self.snap
    }

    /// Total schedule evaluations performed across all batches (one per
    /// scored candidate; per-chunk primes are uncounted so the axis is
    /// thread-count independent).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Counters of the bounded/spliced fast path across all calls. Every
    /// axis is deterministic at any thread count: the bounded scans'
    /// chunk grid depends on the grid alone (see `scan_chunks`).
    #[inline]
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Contiguous index chunks for a bounded scan of `len` candidates:
    /// `⌈SCAN_CHUNK_REPLAYS / k⌉` candidates each, a single chunk for a
    /// grid below that. A pure function of `len` and the task count, so
    /// the chunk grid — and with it which candidates get pruned versus
    /// scored to completion — is the same at any thread count. The grid
    /// never affects the scan's winner.
    fn scan_chunks(&self, len: usize) -> Vec<Range<usize>> {
        let chunk = SCAN_CHUNK_REPLAYS.div_ceil(self.snap.task_count().max(1));
        (0..len).step_by(chunk).map(|lo| lo..(lo + chunk).min(len)).collect()
    }

    /// Scores every candidate solution under `obj`; `out[i]` is the score
    /// of `candidates[i]`. Whole solutions share no base, so this is
    /// always full (tier-1) evaluation fanned out per thread.
    pub fn scores(&mut self, candidates: &[Solution], obj: &dyn Objective) -> Vec<f64> {
        let snap = self.snap;
        let pool = &self.arenas;
        let out: Vec<f64> = candidates
            .par_iter()
            .map_init(
                || ArenaGuard::checkout(pool, snap),
                |guard, sol| {
                    let (eval, _) = guard.parts();
                    eval.objective_value(sol, obj)
                },
            )
            .collect();
        self.evaluations += candidates.len() as u64;
        out
    }

    /// Scores a GA generation against its parent pool: `out[i]` is the
    /// exact score of `children[i]`, bit-identical to
    /// [`scores`](Self::scores) over the same children, computed with as
    /// little replay as the lineage allows. `descents[i]` says how child
    /// `i` descends from `parents` (with `parent_costs` the parents' own
    /// scores, as returned by the previous generation's scoring):
    ///
    /// - [`Descent::Clone`] children reuse the parent's cost outright —
    ///   a full pass over a bit-identical solution recomputes identical
    ///   bits, so no pass runs at all;
    /// - [`Descent::Move`] and [`Descent::Suffix`] children are grouped
    ///   by parent; each group primes one per-worker incremental
    ///   evaluator on its parent (reused across generations when the
    ///   parent recurs — see `ArenaGuard::checkout_population`) and
    ///   scores its children by checkpoint-resumed suffix replay with
    ///   reconvergence splicing, pruning off;
    /// - [`Descent::Fresh`] children take the tier-1 full pass.
    ///
    /// A parent group whose summed divergence indices don't cover the
    /// ~two-walk cost of a prime is demoted to full passes — the
    /// routing guard that keeps unconverged (random) populations from
    /// paying more for priming than the prefixes save. The demotion
    /// rule reads only the descent metadata, so routing — and with it
    /// every counter this method touches — is deterministic at any
    /// thread count.
    ///
    /// Every child counts as exactly one evaluation, clones and
    /// demotions included: the evaluation axis measures candidates
    /// considered, exactly like [`scores`](Self::scores).
    ///
    /// # Panics
    /// If slice lengths disagree, a descent names a parent index out of
    /// range, or (debug) a divergence index exceeds the string length.
    pub fn score_population(
        &mut self,
        parents: &[Solution],
        parent_costs: &[f64],
        children: &[Solution],
        descents: &[Descent],
        obj: &dyn Objective,
    ) -> Vec<f64> {
        assert_eq!(children.len(), descents.len(), "one descent per child");
        assert_eq!(parents.len(), parent_costs.len(), "one cost per parent");
        if children.is_empty() {
            return Vec::new();
        }
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        let k = self.snap.task_count();
        let incremental = obj.supports_incremental();

        // Route deterministically: clones shortcut, lineage children
        // group by parent, everything else full-evaluates. `savings`
        // accumulates the string positions each group's prime would
        // save; a prime costs about two walks (the priming pass plus
        // checkpoint/suffix sweeps), so groups below `2k` are demoted.
        enum Kid {
            Move { idx: usize, task: TaskId, pos: usize, machine: MachineId },
            Suffix { idx: usize, diverge: usize },
        }
        let mut clones: Vec<(usize, usize)> = Vec::new();
        let mut fulls: Vec<usize> = Vec::new();
        let mut grouped: Vec<(Vec<Kid>, u64)> = Vec::new();
        let mut group_of: Vec<Option<usize>> = vec![None; parents.len()];
        let mut group_parent: Vec<usize> = Vec::new();
        for (i, d) in descents.iter().enumerate() {
            let lineage = match *d {
                Descent::Fresh => None,
                Descent::Clone { parent } => {
                    assert!(parent < parents.len(), "clone parent out of range");
                    clones.push((i, parent));
                    continue;
                }
                Descent::Move { parent, task, pos, machine } if incremental => {
                    let reused = parents[parent].position_of(task).min(pos);
                    Some((parent, Kid::Move { idx: i, task, pos, machine }, reused))
                }
                Descent::Suffix { parent, diverge } if incremental => {
                    debug_assert!(diverge <= k, "divergence index out of range");
                    Some((parent, Kid::Suffix { idx: i, diverge }, diverge))
                }
                Descent::Move { .. } | Descent::Suffix { .. } => None,
            };
            match lineage {
                Some((parent, kid, reused)) => {
                    assert!(parent < parents.len(), "lineage parent out of range");
                    let g = *group_of[parent].get_or_insert_with(|| {
                        grouped.push((Vec::new(), 0));
                        group_parent.push(parent);
                        grouped.len() - 1
                    });
                    grouped[g].0.push(kid);
                    grouped[g].1 += reused as u64;
                }
                None => fulls.push(i),
            }
        }
        // Demote unprofitable groups to full passes, keeping the
        // profitable ones in first-encounter order.
        let prime_cost = 2 * k as u64;
        let mut groups: Vec<(usize, Vec<Kid>)> = Vec::new();
        let mut reused_positions = 0u64;
        for ((kids, savings), parent) in grouped.into_iter().zip(group_parent) {
            if savings >= prime_cost {
                reused_positions += savings;
                groups.push((parent, kids));
            } else {
                fulls.extend(kids.iter().map(|kid| match *kid {
                    Kid::Move { idx, .. } | Kid::Suffix { idx, .. } => idx,
                }));
            }
        }

        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let before = self.arena_totals();
        let mut out = vec![0.0f64; children.len()];
        // Lineage groups first (one item per parent: its children score
        // on one worker against one prime), then the full-pass spill.
        let group_scores: Vec<Vec<f64>> = groups
            .par_iter()
            .map(|(parent, kids)| {
                let mut guard =
                    ArenaGuard::checkout_population(pool, snap, &parents[*parent], stride);
                let inc = guard.inc();
                kids.iter()
                    .map(|kid| match *kid {
                        Kid::Move { task, pos, machine, .. } => {
                            inc.score_move(task, pos, machine, obj)
                        }
                        Kid::Suffix { ref idx, diverge } => {
                            inc.score_suffix(&children[*idx], diverge, obj)
                        }
                    })
                    .collect()
            })
            .collect();
        for ((_, kids), scores) in groups.iter().zip(group_scores) {
            for (kid, score) in kids.iter().zip(scores) {
                let (Kid::Move { idx, .. } | Kid::Suffix { idx, .. }) = *kid;
                out[idx] = score;
            }
        }
        let full_scores: Vec<f64> = fulls
            .par_iter()
            .map_init(
                || ArenaGuard::checkout(pool, snap),
                |guard, &i| {
                    let (eval, _) = guard.parts();
                    eval.objective_value(&children[i], obj)
                },
            )
            .collect();
        for (&i, score) in fulls.iter().zip(full_scores) {
            out[i] = score;
        }
        for &(i, parent) in &clones {
            out[i] = parent_costs[parent];
        }

        self.evaluations += children.len() as u64;
        self.absorb_arena_stats(before);
        // Population axes (deterministic — see the routing note above):
        // clones reuse their whole string, lineage children their shared
        // prefix; demoted and fresh children only widen the denominator.
        let lineage_children: u64 = groups.iter().map(|(_, kids)| kids.len() as u64).sum();
        let axes = ScanStats {
            suffixed: lineage_children + clones.len() as u64,
            prefix_reused: reused_positions + (clones.len() * k) as u64,
            suffix_total: (children.len() * k) as u64,
            ..ScanStats::default()
        };
        obs::add(obs::Counter::ScanSuffixed, axes.suffixed);
        obs::add(obs::Counter::ScanPrefixReused, axes.prefix_reused);
        obs::add(obs::Counter::ScanSuffixTotal, axes.suffix_total);
        self.scan.merge(axes);
        out
    }

    /// Scores the candidate set "`base` with task `t` moved to
    /// `(position, machine)`" for every entry of `moves` — the SE
    /// allocation ripple scan's shape. Incremental-capable objectives are
    /// scored by suffix replay against a once-per-chunk primed base;
    /// others fall back to a scratch clone re-moved per candidate.
    pub fn score_moves(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        t: TaskId,
        moves: &[(usize, MachineId)],
        obj: &dyn Objective,
    ) -> Vec<f64> {
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        self.scan_epoch += 1;
        let epoch = self.scan_epoch;
        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let prune = self.prune;
        let before = self.arena_totals();
        let out: Vec<f64> = if obj.supports_incremental() {
            moves
                .par_iter()
                .map_init(
                    || {
                        ArenaGuard::checkout_primed(
                            pool,
                            snap,
                            base,
                            stride,
                            prune,
                            f64::NEG_INFINITY,
                            epoch,
                        )
                    },
                    |guard, &(pos, m)| guard.inc().score_move(t, pos, m, obj),
                )
                .collect()
        } else {
            moves
                .par_iter()
                .map_init(
                    || ArenaGuard::checkout_with_base(pool, snap, base),
                    |guard, &(pos, m)| {
                        let (eval, scratch) = guard.parts();
                        let scratch = scratch.as_mut().expect("checkout_with_base sets scratch");
                        scratch.move_task(graph, t, pos, m).expect("candidate within valid range");
                        eval.objective_value(scratch, obj)
                    },
                )
                .collect()
        };
        self.evaluations += moves.len() as u64;
        self.absorb_arena_stats(before);
        out
    }

    /// Scores the candidate set "`base` with one task moved" where each
    /// entry may move a *different* task — the sampled-neighborhood shape
    /// (tabu search). Same routing as [`score_moves`]: incremental
    /// objectives never touch a scratch solution; the fallback undoes
    /// each move before the next so the scratch stays equal to `base`
    /// throughout a chunk.
    ///
    /// [`score_moves`]: BatchEvaluator::score_moves
    pub fn score_task_moves(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        obj: &dyn Objective,
    ) -> Vec<f64> {
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        self.scan_epoch += 1;
        let epoch = self.scan_epoch;
        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let prune = self.prune;
        let before = self.arena_totals();
        let out: Vec<f64> = if obj.supports_incremental() {
            moves
                .par_iter()
                .map_init(
                    || {
                        ArenaGuard::checkout_primed(
                            pool,
                            snap,
                            base,
                            stride,
                            prune,
                            f64::NEG_INFINITY,
                            epoch,
                        )
                    },
                    |guard, &(t, pos, m)| guard.inc().score_move(t, pos, m, obj),
                )
                .collect()
        } else {
            moves
                .par_iter()
                .map_init(
                    || ArenaGuard::checkout_with_base(pool, snap, base),
                    |guard, &(t, pos, m)| {
                        let (eval, scratch) = guard.parts();
                        let scratch = scratch.as_mut().expect("checkout_with_base sets scratch");
                        let undo = (scratch.position_of(t), scratch.machine_of(t));
                        scratch.move_task(graph, t, pos, m).expect("candidate within valid range");
                        let score = eval.objective_value(scratch, obj);
                        scratch.move_task(graph, t, undo.0, undo.1).expect("undo restores base");
                        score
                    },
                )
                .collect()
        };
        self.evaluations += moves.len() as u64;
        self.absorb_arena_stats(before);
        out
    }

    /// Bounded argmin over the single-task candidate grid "`base` with
    /// task `t` moved to `(position, machine)`" — the SE allocation
    /// ripple scan. Returns the earliest-index minimum with its exact
    /// score (`None` only for an empty grid).
    ///
    /// The grid is cut into fixed-size chunks (see `scan_chunks`); a
    /// grid larger than one chunk fans out over the pool, a smaller one
    /// runs inline. Each chunk threads its own running best (starting at
    /// `+∞`) into [`IncrementalEvaluator::score_move_bounded`], so
    /// provably losing candidates are abandoned mid-replay. The winner
    /// is invariant under the chunk grid: a pruned candidate's score is
    /// `>` some already-seen exact score, so no minimum (first minimum
    /// included) is ever pruned — the scan commits **exactly** the
    /// argmin an unbounded [`score_moves`](Self::score_moves) + fold
    /// would, with the same evaluation count (`moves.len()`) and the
    /// same pruned/spliced counts, at any thread count.
    pub fn best_move(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        t: TaskId,
        moves: &[(usize, MachineId)],
        obj: &dyn Objective,
    ) -> Option<BestMove> {
        let move_at = |i: usize| (t, moves[i].0, moves[i].1);
        self.bounded_argmin(graph, base, moves.len(), move_at, None, f64::INFINITY, obj)
    }

    /// Bounded argmin over a mixed-task move sample (tabu's shape).
    ///
    /// `admissible` marks moves that may always be chosen; a
    /// non-admissible move (a tabu task) is only eligible when its score
    /// strictly beats `aspiration` (the global best — tabu's aspiration
    /// criterion). `None` admits everything. Returns the earliest-index
    /// minimum among eligible candidates — exactly what the sequential
    /// skip-tabu-unless-aspirating scan selects — or `None` when no move
    /// is eligible. Evaluation count is `moves.len()` regardless.
    pub fn best_task_move(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        admissible: Option<&[bool]>,
        aspiration: f64,
        obj: &dyn Objective,
    ) -> Option<BestMove> {
        if let Some(mask) = admissible {
            debug_assert_eq!(mask.len(), moves.len(), "admissible mask/move mismatch");
        }
        self.bounded_argmin(graph, base, moves.len(), |i| moves[i], admissible, aspiration, obj)
    }

    /// Shared bounded-argmin engine. `move_at` resolves candidate `i`;
    /// admissible candidates contend unconditionally (pruned only
    /// against the chunk's running best), non-admissible ones only below
    /// `aspiration` (which then also joins their pruning cut).
    #[allow(clippy::too_many_arguments)]
    fn bounded_argmin(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        len: usize,
        move_at: impl Fn(usize) -> (TaskId, usize, MachineId) + Sync,
        admissible: Option<&[bool]>,
        aspiration: f64,
        obj: &dyn Objective,
    ) -> Option<BestMove> {
        if len == 0 {
            return None;
        }
        if !obj.supports_incremental() {
            // Full-pass fallback: score everything (counting happens in
            // the called method), then fold eligibility sequentially.
            let moves: Vec<(TaskId, usize, MachineId)> = (0..len).map(&move_at).collect();
            let scores = self.score_task_moves(graph, base, &moves, obj);
            return fold_eligible(
                None,
                scores.iter().enumerate().map(|(i, &s)| (i, MoveScore::Exact(s))),
                admissible,
                aspiration,
            );
        }
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        self.scan_epoch += 1;
        let epoch = self.scan_epoch;
        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let prune = self.prune;
        let scan_floor = self.scan_floor;
        let before = self.arena_totals();
        let chunks = self.scan_chunks(len);
        // One chunk = one item: the per-chunk running bound lives inside
        // the item computation and is never carried across chunks, so
        // each item's result and counters depend only on its range —
        // not on which worker ran it or what that worker ran before.
        let chunk_best: Vec<Option<BestMove>> = chunks
            .par_iter()
            .map_init(
                || ArenaGuard::checkout_primed(pool, snap, base, stride, prune, scan_floor, epoch),
                |guard, range| {
                    let inc = guard.inc();
                    let mut best: Option<BestMove> = None;
                    for i in range.clone() {
                        let (t, pos, m) = move_at(i);
                        let local = best.map_or(f64::INFINITY, |b| b.score);
                        let adm = admissible.is_none_or(|a| a[i]);
                        // A non-admissible candidate must beat both the
                        // aspiration line and the running best to be
                        // chosen; either alone justifies the cut.
                        let cut = if adm { local } else { aspiration.min(local) };
                        match inc.score_move_bounded(t, pos, m, cut, obj) {
                            MoveScore::Exact(score) => {
                                best = fold_eligible(
                                    best,
                                    std::iter::once((i, MoveScore::Exact(score))),
                                    admissible,
                                    aspiration,
                                );
                            }
                            MoveScore::Pruned => {}
                        }
                    }
                    best
                },
            )
            .collect();
        self.evaluations += len as u64;
        self.absorb_arena_stats(before);
        // Merge in chunk (index) order; strict improvement (under
        // total_cmp, so a NaN from a custom objective ranks greatest
        // instead of poisoning the fold) keeps the earliest index on
        // ties.
        chunk_best.into_iter().flatten().fold(None, |acc: Option<BestMove>, b| match acc {
            Some(a) if a.score.total_cmp(&b.score).is_le() => Some(a),
            _ => Some(b),
        })
    }

    /// Sums the fast-path counters over every pooled arena (all arenas
    /// are at rest between calls — `&mut self` methods cannot overlap).
    fn arena_totals(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for slot in &self.arenas.slots {
            if let Some(arena) = lock_tolerant(slot).as_ref() {
                total.merge(arena.inc.stats());
            }
        }
        for arena in lock_tolerant(&self.arenas.overflow).iter() {
            total.merge(arena.inc.stats());
        }
        total
    }

    /// Folds the arena counters gained since `before` into the
    /// evaluator-level totals. Saturating: a panicking scan discards its
    /// arena, taking that arena's lifetime counters with it, which can
    /// leave `after < before` on an axis (diagnostics only — the
    /// deterministic `scored` axis undercounts rather than wrapping).
    fn absorb_arena_stats(&mut self, before: ScanStats) {
        let after = self.arena_totals();
        self.scan.merge(ScanStats {
            scored: after.scored.saturating_sub(before.scored),
            pruned: after.pruned.saturating_sub(before.pruned),
            spliced: after.spliced.saturating_sub(before.spliced),
            suffixed: after.suffixed.saturating_sub(before.suffixed),
            prefix_reused: after.prefix_reused.saturating_sub(before.prefix_reused),
            suffix_total: after.suffix_total.saturating_sub(before.suffix_total),
        });
    }
}

/// Sequential eligibility fold shared by the bounded scans: admissible
/// candidates always contend, others only strictly below `aspiration`;
/// strict score improvement keeps the earliest index on ties. All
/// comparisons use `total_cmp` — matching the `min_by` fold this
/// machinery replaced — so a NaN from a custom objective ranks greatest
/// (never chosen over a finite score, never aspirating) instead of
/// poisoning the fold.
fn fold_eligible(
    init: Option<BestMove>,
    scored: impl Iterator<Item = (usize, MoveScore)>,
    admissible: Option<&[bool]>,
    aspiration: f64,
) -> Option<BestMove> {
    let mut best = init;
    for (i, score) in scored {
        let MoveScore::Exact(score) = score else { continue };
        let adm = admissible.is_none_or(|a| a[i]);
        if !adm && score.total_cmp(&aspiration).is_ge() {
            continue;
        }
        if best.is_none_or(|b| score.total_cmp(&b.score).is_lt()) {
            best = Some(BestMove { index: i, score });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_solution;
    use crate::objective::{EvalView, ObjectiveKind};
    use mshc_platform::{HcInstance, HcSystem, Matrix};
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
    fn scan_chunk_grid_depends_on_the_grid_alone() {
        // The bounded scans' chunk grid is a function of the candidate
        // count and the task count only: the same ranges on 1, 2 and 8
        // threads, one range while `len × k` stays below a chunk's
        // worth of task-replays and several above.
        let inst = random_instance(30, 4, 70);
        let k = inst.task_count();
        let snap = EvalSnapshot::new(&inst);
        let chunk = SCAN_CHUNK_REPLAYS.div_ceil(k);
        for len in [0, 1, chunk - 1, chunk, chunk + 1, 5 * chunk + 3] {
            let grids: Vec<Vec<Range<usize>>> = [1usize, 2, 8]
                .into_iter()
                .map(|threads| {
                    let pool =
                        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                    pool.install(|| BatchEvaluator::new(&snap).scan_chunks(len))
                })
                .collect();
            assert_eq!(grids[1], grids[0], "len {len}, 2 threads");
            assert_eq!(grids[2], grids[0], "len {len}, 8 threads");
            let ranges = &grids[0];
            if len * k < SCAN_CHUNK_REPLAYS {
                assert!(ranges.len() <= 1, "len {len}: {ranges:?}");
            }
            assert_eq!(ranges.len(), len.div_ceil(chunk), "len {len}");
            // Contiguous, in order, covering exactly 0..len.
            let mut next = 0;
            for r in ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty() && r.len() <= chunk);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn batch_scores_match_scalar_evaluator_for_every_objective() {
        let inst = random_instance(20, 4, 1);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let candidates: Vec<Solution> = (0..40).map(|_| random_solution(&inst, &mut rng)).collect();
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut batch = BatchEvaluator::new(&snap);
            let got = batch.scores(&candidates, &kind);
            let mut scalar = Evaluator::new(&inst);
            let want: Vec<f64> =
                candidates.iter().map(|s| scalar.objective_value(s, &kind)).collect();
            assert_eq!(got, want, "objective {}", kind.label());
            assert_eq!(batch.evaluations(), 40);
        }
    }

    #[test]
    fn batch_scores_bit_identical_across_thread_counts() {
        let inst = random_instance(30, 5, 3);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let candidates: Vec<Solution> = (0..64).map(|_| random_solution(&inst, &mut rng)).collect();
        let obj = ObjectiveKind::Makespan;
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| BatchEvaluator::new(&snap).scores(&candidates, &obj));
        for threads in [2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| BatchEvaluator::new(&snap).scores(&candidates, &obj));
            assert_eq!(got, baseline, "{threads} threads");
        }
    }

    fn first_divergence(a: &Solution, b: &Solution) -> usize {
        a.segments().iter().zip(b.segments()).position(|(x, y)| x != y).unwrap_or(a.len())
    }

    /// Builds a lineage-annotated offspring pool: per parent one exact
    /// clone, one single-move child, and three multi-move suffix
    /// children, plus three fresh immigrants — every [`Descent`] arm.
    fn population_fixture(
        inst: &HcInstance,
        rng: &mut ChaCha8Rng,
        parents: usize,
    ) -> (Vec<Solution>, Vec<Solution>, Vec<Descent>) {
        let g = inst.graph();
        let k = inst.task_count();
        let l = inst.machine_count();
        let pool: Vec<Solution> = (0..parents).map(|_| random_solution(inst, rng)).collect();
        let mut children = Vec::new();
        let mut descents = Vec::new();
        for (p, parent) in pool.iter().enumerate() {
            children.push(parent.clone());
            descents.push(Descent::Clone { parent: p });
            let t = TaskId::from_usize(rng.gen_range(0..k));
            let (lo, hi) = parent.valid_range(g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = MachineId::from_usize(rng.gen_range(0..l));
            let mut child = parent.clone();
            child.move_task(g, t, pos, m).unwrap();
            children.push(child);
            descents.push(Descent::Move { parent: p, task: t, pos, machine: m });
            for _ in 0..3 {
                let mut child = parent.clone();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let t = TaskId::from_usize(rng.gen_range(0..k));
                    let (lo, hi) = child.valid_range(g, t);
                    let pos = rng.gen_range(lo..=hi);
                    child.move_task(g, t, pos, MachineId::from_usize(rng.gen_range(0..l))).unwrap();
                }
                let diverge = first_divergence(parent, &child);
                children.push(child);
                descents.push(Descent::Suffix { parent: p, diverge });
            }
        }
        for _ in 0..3 {
            children.push(random_solution(inst, rng));
            descents.push(Descent::Fresh);
        }
        (pool, children, descents)
    }

    #[test]
    fn score_population_matches_scalar_for_every_objective() {
        let inst = random_instance(24, 4, 31);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 5);
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut scalar = Evaluator::new(&inst);
            let parent_costs: Vec<f64> =
                parents.iter().map(|s| scalar.objective_value(s, &kind)).collect();
            let want: Vec<f64> =
                children.iter().map(|s| scalar.objective_value(s, &kind)).collect();
            let mut batch = BatchEvaluator::new(&snap);
            let got = batch.score_population(&parents, &parent_costs, &children, &descents, &kind);
            assert_eq!(got, want, "objective {}", kind.label());
            assert_eq!(batch.evaluations(), children.len() as u64);
            let stats = batch.scan_stats();
            assert_eq!(stats.suffix_total, (children.len() * inst.task_count()) as u64);
            // At minimum the per-parent clones rode the reuse path.
            assert!(stats.suffixed >= parents.len() as u64);
            assert!(stats.prefix_reused >= (parents.len() * inst.task_count()) as u64);
        }
    }

    #[test]
    fn score_population_is_stride_and_thread_invariant() {
        // Exact fitness plus every population counter must be a pure
        // function of the chromosomes: same bits at any stride (cost
        // knob) and thread count (work stealing).
        let inst = random_instance(26, 4, 33);
        let k = inst.task_count();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 6);
        let obj = ObjectiveKind::TotalFlowtime;
        let mut scalar = Evaluator::new(&inst);
        let parent_costs: Vec<f64> =
            parents.iter().map(|s| scalar.objective_value(s, &obj)).collect();
        let (baseline, base_stats) =
            rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                let out =
                    batch.score_population(&parents, &parent_costs, &children, &descents, &obj);
                (out, batch.scan_stats())
            });
        for stride in [Some(1), None, Some(k + 7)] {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let (got, stats) = pool.install(|| {
                    let mut batch = BatchEvaluator::new(&snap).with_stride(stride);
                    let out =
                        batch.score_population(&parents, &parent_costs, &children, &descents, &obj);
                    (out, batch.scan_stats())
                });
                assert_eq!(got, baseline, "stride {stride:?}, {threads} threads");
                // Everything but `spliced` (which legitimately varies
                // with checkpoint placement) is stride-invariant too.
                assert_eq!(
                    (stats.scored, stats.suffixed, stats.prefix_reused, stats.suffix_total),
                    (
                        base_stats.scored,
                        base_stats.suffixed,
                        base_stats.prefix_reused,
                        base_stats.suffix_total
                    ),
                    "stride {stride:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn score_population_falls_back_for_custom_objectives() {
        // Without accumulator support lineage children take the full
        // pass (no prime, no inc scorings); clones still shortcut.
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        let inst = random_instance(18, 3, 35);
        let k = inst.task_count();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 3);
        let mut scalar = Evaluator::new(&inst);
        let parent_costs: Vec<f64> =
            parents.iter().map(|s| scalar.objective_value(s, &StartSum)).collect();
        let want: Vec<f64> =
            children.iter().map(|s| scalar.objective_value(s, &StartSum)).collect();
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_population(&parents, &parent_costs, &children, &descents, &StartSum);
        assert_eq!(got, want);
        assert_eq!(batch.evaluations(), children.len() as u64);
        let stats = batch.scan_stats();
        assert_eq!(stats.scored, 0, "no incremental scorings for a custom objective");
        assert_eq!(stats.suffixed, parents.len() as u64, "exactly the clones");
        assert_eq!(stats.prefix_reused, (parents.len() * k) as u64);
        assert_eq!(stats.suffix_total, (children.len() * k) as u64);
    }

    #[test]
    fn population_primes_survive_and_invalidate_across_scans() {
        // Single-thread pool so one arena serves everything — the
        // dangerous path: a population prime reused across calls must
        // yield the same bits, and an interleaved move scan (different
        // base) must invalidate it rather than inherit it, and vice
        // versa.
        let inst = random_instance(20, 3, 37);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 2);
        let obj = ObjectiveKind::Makespan;
        let mut scalar = Evaluator::new(&inst);
        let parent_costs: Vec<f64> =
            parents.iter().map(|s| scalar.objective_value(s, &obj)).collect();
        let want: Vec<f64> = children.iter().map(|s| scalar.objective_value(s, &obj)).collect();
        let other = random_solution(&inst, &mut rng);
        let t = TaskId::from_usize(3);
        let (lo, hi) = other.valid_range(g, t);
        let moves: Vec<(TaskId, usize, MachineId)> =
            (lo..=hi).map(|pos| (t, pos, other.machine_of(t))).collect();
        let move_want: Vec<f64> = moves
            .iter()
            .map(|&(t, pos, m)| {
                let mut cand = other.clone();
                cand.move_task(g, t, pos, m).unwrap();
                scalar.objective_value(&cand, &obj)
            })
            .collect();
        rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(|| {
            let mut batch = BatchEvaluator::new(&snap);
            assert_eq!(
                batch.score_population(&parents, &parent_costs, &children, &descents, &obj),
                want
            );
            assert_eq!(batch.score_task_moves(g, &other, &moves, &obj), move_want);
            assert_eq!(
                batch.score_population(&parents, &parent_costs, &children, &descents, &obj),
                want,
                "population scoring after an interleaved move scan"
            );
            assert_eq!(batch.score_task_moves(g, &other, &moves, &obj), move_want);
        });
    }

    #[test]
    fn score_moves_matches_move_then_scalar() {
        let inst = random_instance(18, 4, 5);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(7);
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|pos| (0..4).map(move |m| (pos, MachineId::new(m)))).collect();
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_moves(g, &base, t, &moves, &ObjectiveKind::Makespan);
        let mut scalar = Evaluator::new(&inst);
        for (&(pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.makespan(&cand), score, "move ({pos}, {m})");
        }
        assert_eq!(batch.evaluations(), moves.len() as u64);
    }

    #[test]
    fn score_task_moves_matches_and_restores_base() {
        let inst = random_instance(16, 3, 7);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..32)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..16));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..3)))
            })
            .collect();
        let obj = ObjectiveKind::TotalFlowtime;
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_task_moves(g, &base, &moves, &obj);
        let mut scalar = Evaluator::new(&inst);
        for (&(t, pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.objective_value(&cand, &obj), score);
        }
        // Scoring again over the recycled arenas gives the same answers
        // (primed bases are rebuilt per checkout).
        assert_eq!(batch.score_task_moves(g, &base, &moves, &obj), got);
    }

    #[test]
    fn move_scores_are_stride_and_thread_invariant() {
        // The checkpoint stride is a pure cost knob: every stride (1,
        // auto, beyond-k) and every thread count must produce the same
        // bits.
        let inst = random_instance(26, 4, 12);
        let g = inst.graph();
        let k = inst.task_count();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..48)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..k as u32));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..4)))
            })
            .collect();
        let obj = ObjectiveKind::Makespan;
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| BatchEvaluator::new(&snap).score_task_moves(g, &base, &moves, &obj));
        for stride in [Some(1), None, Some(k + 9)] {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| {
                    BatchEvaluator::new(&snap)
                        .with_stride(stride)
                        .score_task_moves(g, &base, &moves, &obj)
                });
                assert_eq!(got, baseline, "stride {stride:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn non_incremental_objectives_fall_back_to_full_passes() {
        // A custom objective without accumulator support must still be
        // served (clone-and-move route) and match the scalar evaluator.
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        let inst = random_instance(14, 3, 21);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(5);
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).map(|pos| (pos, MachineId::new(0))).collect();
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_moves(g, &base, t, &moves, &StartSum);
        let mut scalar = Evaluator::new(&inst);
        for (&(pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.objective_value(&cand, &StartSum), score);
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let inst = random_instance(5, 2, 9);
        let snap = EvalSnapshot::new(&inst);
        let mut batch = BatchEvaluator::new(&snap);
        assert!(batch.scores(&[], &ObjectiveKind::Makespan).is_empty());
        assert_eq!(batch.evaluations(), 0);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let base = random_solution(&inst, &mut rng);
        assert_eq!(batch.best_task_move(g, &base, &[], None, 0.0, &ObjectiveKind::Makespan), None);
        assert_eq!(batch.best_move(g, &base, TaskId::new(0), &[], &ObjectiveKind::Makespan), None);
        assert_eq!(batch.evaluations(), 0);
        assert_eq!(batch.scan_stats(), crate::incremental::ScanStats::default());
    }

    #[test]
    fn aspiration_scan_with_nothing_eligible_returns_none() {
        // Every move tabu, aspiration at 0: nothing can be chosen, at
        // any thread count, and every candidate still counts.
        let inst = random_instance(14, 3, 30);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..16)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..14));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..3)))
            })
            .collect();
        let admissible = vec![false; moves.len()];
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut batch = BatchEvaluator::new(&snap);
            let got = pool.install(|| {
                batch.best_task_move(
                    g,
                    &base,
                    &moves,
                    Some(&admissible),
                    0.0,
                    &ObjectiveKind::Makespan,
                )
            });
            assert_eq!(got, None, "{threads} threads");
            assert_eq!(batch.evaluations(), moves.len() as u64);
        }
    }

    #[test]
    fn bounded_argmin_serves_non_incremental_objectives() {
        // Custom full-pass objectives fall back to exact scoring with
        // the same argmin semantics.
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        let inst = random_instance(12, 3, 33);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(4);
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|p| (0..3).map(move |m| (p, MachineId::new(m)))).collect();
        let mut batch = BatchEvaluator::new(&snap);
        let scores = batch.score_moves(g, &base, t, &moves, &StartSum);
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (i, s));
        let got = batch.best_move(g, &base, t, &moves, &StartSum);
        assert_eq!(got.map(|b| (b.index, b.score)), want);
    }

    #[test]
    fn scan_floor_prunes_instantly_without_changing_the_argmin() {
        // Balanced integer instance: 4 independent tasks on 2 machines,
        // every execution 6.0 → certified floor 12.0 (total work 24 over
        // aggregate capacity 2), reached by any 2+2 split.
        let g = mshc_taskgraph::TaskGraphBuilder::new(4).build().unwrap();
        let exec = Matrix::filled(2, 4, 6.0);
        let transfer = Matrix::filled(1, 0, 0.0);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let bound = crate::InstanceBound::compute(&inst);
        assert_eq!(bound.floor(), 12.0);

        // Direct evaluator check: once the caller's running best equals
        // the floor, a bounded scoring is pruned before any replay; with
        // the default (-inf) floor the same call scores to completion.
        let snap = EvalSnapshot::new(&inst);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let base = random_solution(&inst, &mut rng);
        let obj = ObjectiveKind::Makespan;
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let t = TaskId::new(0);
        let (pos, m) = (base.position_of(t), base.machine_of(t));
        let exact = inc.score_move_bounded(t, pos, m, bound.floor(), &obj);
        assert!(matches!(exact, MoveScore::Exact(_)), "identity move scores");
        inc.set_scan_floor(bound.floor());
        let cut = inc.score_move_bounded(t, pos, m, bound.floor(), &obj);
        assert_eq!(cut, MoveScore::Pruned, "floor == bound prunes instantly");

        // Batch-level identity: the argmin winner, its score bits and
        // the evaluation count are unchanged by the floor, at any
        // thread count.
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|p| (0..2).map(move |m| (p, MachineId::new(m)))).collect();
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (plain, floored) = pool.install(|| {
                let mut b0 = BatchEvaluator::new(&snap);
                let r0 = b0.best_move(g, &base, t, &moves, &obj).unwrap();
                let mut b1 = BatchEvaluator::new(&snap).with_scan_floor(bound.floor());
                let r1 = b1.best_move(g, &base, t, &moves, &obj).unwrap();
                assert_eq!(b0.evaluations(), b1.evaluations());
                (r0, r1)
            });
            assert_eq!(plain.index, floored.index, "{threads} threads");
            assert_eq!(plain.score.to_bits(), floored.score.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn panicking_objective_does_not_poison_the_arena_pool() {
        // Regression: a panicking candidate used to poison the shared
        // arena mutex (the guard returned its arena while unwinding),
        // and the next checkout's `.expect("arena pool poisoned")`
        // cascaded the failure into healthy scans — exactly the
        // tournament-cell containment hole. Checkout is now
        // poison-tolerant and an unwinding guard discards its arena, so
        // the same evaluator must keep working after a contained panic.
        struct Grenade;
        impl Objective for Grenade {
            fn name(&self) -> &str {
                "grenade"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                if view.finish.len() > 3 {
                    panic!("boom");
                }
                0.0
            }
        }
        let inst = random_instance(16, 3, 50);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(2);
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|p| (0..3).map(move |m| (p, MachineId::new(m)))).collect();
        let obj = ObjectiveKind::Makespan;
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                // Warm the arena slots, then detonate a contained panic
                // mid-scan (the portfolio's catch_unwind shape).
                let want = batch.score_moves(g, &base, t, &moves, &obj);
                let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batch.score_moves(g, &base, t, &moves, &Grenade)
                }));
                assert!(blast.is_err(), "objective must panic");
                // The evaluator must still serve healthy scans, with the
                // same bits as before the panic.
                let got = batch.score_moves(g, &base, t, &moves, &obj);
                assert_eq!(got, want, "{threads} threads");
                assert!(batch.best_move(g, &base, t, &moves, &obj).is_some());
            });
        }
    }

    #[test]
    fn prime_reuse_never_leaks_across_bases() {
        // Per-worker arenas survive across scans and reuse their prime
        // within one; a new scan over a *different* base must re-prime.
        // Alternate between two bases repeatedly and check every scan
        // against the scalar evaluator.
        let inst = random_instance(20, 4, 60);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let base_a = random_solution(&inst, &mut rng);
        let base_b = random_solution(&inst, &mut rng);
        let obj = ObjectiveKind::Makespan;
        let mut batch = BatchEvaluator::new(&snap);
        let mut scalar = Evaluator::new(&inst);
        for round in 0..4 {
            let base = if round % 2 == 0 { &base_a } else { &base_b };
            let t = TaskId::new(round as u32 + 1);
            let (lo, hi) = base.valid_range(g, t);
            let moves: Vec<(usize, MachineId)> =
                (lo..=hi).flat_map(|p| (0..4).map(move |m| (p, MachineId::new(m)))).collect();
            let got = batch.score_moves(g, base, t, &moves, &obj);
            for (&(pos, m), &score) in moves.iter().zip(&got) {
                let mut cand = base.clone();
                cand.move_task(g, t, pos, m).unwrap();
                assert_eq!(scalar.makespan(&cand), score, "round {round}, move ({pos}, {m})");
            }
        }
    }

    #[test]
    fn nan_scores_follow_total_cmp_in_bounded_argmin() {
        // A custom objective emitting NaN for some candidates must not
        // poison the argmin: the fold follows total_cmp exactly like the
        // min_by fold this machinery replaced (-NaN smallest, +NaN
        // greatest — never "sticky first seen"), at any thread count.
        struct SqrtMargin(f64);
        impl Objective for SqrtMargin {
            fn name(&self) -> &str {
                "sqrt-margin"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                // NaN whenever the schedule beats the threshold.
                let mk = view.finish.iter().copied().fold(0.0, f64::max);
                (mk - self.0).sqrt()
            }
        }
        let inst = random_instance(12, 3, 34);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(6);
        let (lo, hi) = base.valid_range(g, t);
        let moves: Vec<(usize, MachineId)> =
            (lo..=hi).flat_map(|p| (0..3).map(move |m| (p, MachineId::new(m)))).collect();
        let mut batch = BatchEvaluator::new(&snap);
        // Threshold at the median candidate makespan, so roughly half
        // the candidates go NaN.
        let mut makespans = batch.score_moves(g, &base, t, &moves, &ObjectiveKind::Makespan);
        makespans.sort_by(f64::total_cmp);
        let objective = SqrtMargin(makespans[makespans.len() / 2]);
        let scores = batch.score_moves(g, &base, t, &moves, &objective);
        assert!(scores.iter().any(|s| s.is_nan()), "test needs NaN candidates");
        assert!(scores.iter().any(|s| !s.is_nan()), "test needs finite candidates");
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (i, s.to_bits()))
            .expect("non-empty grid");
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool
                .install(|| BatchEvaluator::new(&snap).best_move(g, &base, t, &moves, &objective))
                .expect("non-empty grid");
            assert_eq!((got.index, got.score.to_bits()), want, "{threads} threads");
        }
    }
}
