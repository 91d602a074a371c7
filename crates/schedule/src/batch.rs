//! Parallel batch evaluation of candidate sets.
//!
//! Every search algorithm in the suite has the same hot shape: produce a
//! set of candidate schedules that are independent of one another, score
//! them all, pick one. [`BatchEvaluator`] centralizes that shape — it
//! owns a pool of reusable per-thread arenas (a borrowed-snapshot
//! [`Evaluator`] and an [`IncrementalEvaluator`]) and fans a candidate
//! set out over the rayon executor in one call.
//! Arenas live in **per-worker slots** keyed by
//! [`rayon::current_thread_index`] (the persistent pool keeps worker
//! identity stable, so slot `i` always means the same OS thread), with a
//! trailing slot for the submitting thread and an overflow list for
//! anything else — checkout is an uncontended slot take, not a shared
//! `Mutex<Vec>` scramble, and steady-state batch scoring performs no
//! allocations beyond the output vector.
//!
//! The move-oriented entry points ([`score_task_moves`],
//! [`best_task_move`], [`best_relocation`]) route through the per-thread
//! incremental evaluators: workers prime their evaluator on the shared
//! base and score candidates by exact suffix replay — no per-candidate
//! `Solution` mutation at all. A worker's arena survives across chunks
//! and scans with its prime, and [`IncrementalEvaluator::prime`] walks
//! only from the first position where the base differs from the string
//! primed last: every later chunk of a scan pays a compare, and a scan
//! of the string a search just moved walks only from the move on. A
//! relocation walk goes further and advances its arena's prime to its
//! winner (see [`best_relocation`]).
//!
//! Panic hygiene: a panicking objective (already `catch_unwind`-contained
//! by tournament cells) discards the arena it was using instead of
//! returning it, and every pool lock recovers from poisoning — one bad
//! cell can never cascade `"arena pool poisoned"` panics into healthy
//! scans that share the evaluator.
//!
//! SE's allocation scan has its own argmin, [`best_relocation`], which
//! runs inline on the calling thread. Every cell of its grid is the base
//! without the relocated task with that task inserted at one position on
//! one machine, so the cells it replays are lanes of lockstep passes
//! ([`IncrementalEvaluator::score_cells`]), each lane inserting the task
//! at its own position. Most cells need no replay at all. The scheduling
//! kernel never inserts a task into an idle gap, so sliding the
//! relocated task past a task on another machine leaves every machine's
//! task sequence, and so every finish time, unchanged. The scan replays
//! one cell per run of such identical schedules; under an objective
//! that reads the finish-time sum, the only component that can round
//! differently, it re-adds each other cell's sum from the replayed
//! lane's finish times in that cell's string order. Under an objective
//! that [never falls on insertion](Objective::never_falls_on_insertion),
//! such as makespan, no cell scores below the string without the task,
//! which one more lane replays; the scan walks its cells in small passes
//! and stops at the first pass whose minimum meets that floor. Tabu's
//! sampled neighborhood goes through the mixed-task argmin,
//! [`best_task_move`], one [`IncrementalEvaluator::score_move`] per
//! candidate. Both argmins charge one evaluation per candidate and
//! return exactly the winner of scoring every candidate.
//!
//! GA generations go through [`breed_population`], one overlapped pass
//! per generation: the calling thread breeds the children in order and
//! publishes each one as soon as it is bred, while a pool worker scores
//! the published children; the caller scores whatever is left after the
//! last. Exact clones take their donor's cost, every other child one
//! full pass. The handoff is safe code only: one lock per child slot,
//! never contended, plus atomics for the publish watermark and the
//! claims. A scorer waiting for the next child yields the CPU, and the
//! breeding side closes the handoff when it leaves, unwinding included,
//! so a panic on either side reaches the caller and no one waits on a
//! child that will not come.
//!
//! Determinism: scores are returned **in candidate order** and every
//! candidate's score depends only on that candidate, so results are
//! bit-identical at any thread count; a generation's scores likewise
//! depend on each child alone, never on which thread scored it or when.
//! [`best_relocation`] makes no pool operation; [`score_task_moves`]
//! (and so [`best_task_move`]) splits its candidates on a chunk grid
//! that is a pure function of the grid itself — its length and the
//! instance's task count, never the thread count. Small grids run
//! inline on the calling thread. Every [`ScanStats`] counter reads the
//! same at any thread count. Per-worker primes are deliberately *not*
//! counted into [`evaluations`](BatchEvaluator::evaluations): how many
//! workers join a scan varies with the thread count, and the evaluation
//! axis must not.
//!
//! [`score_task_moves`]: BatchEvaluator::score_task_moves
//! [`best_relocation`]: BatchEvaluator::best_relocation
//! [`best_task_move`]: BatchEvaluator::best_task_move
//! [`breed_population`]: BatchEvaluator::breed_population

use crate::encoding::Solution;
use crate::eval::Evaluator;
use crate::incremental::IncrementalEvaluator;
use crate::objective::Objective;
use crate::runner::ScanStats;
use crate::snapshot::EvalSnapshot;
use mshc_obs as obs;
use mshc_platform::MachineId;
use mshc_taskgraph::TaskId;
use rayon::prelude::*;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Work one chunk of [`BatchEvaluator::score_task_moves`] (tabu's
/// sampled neighborhood) is sized to, in task-replays: a chunk
/// holds `⌈SCAN_CHUNK_REPLAYS / k⌉` candidates of a `k`-task instance
/// (62 at the paper's 100 tasks, 205 at 30, 308 at 20). SE's
/// allocation scan runs inline on cell lanes instead (see
/// `LANE_PASS_REPLAYS`).
///
/// Derived from the traced per-layer costs on `se-100x20` (2 vCPUs): a
/// tier-3 scoring replays about 10 ns per task (~1.0 µs per candidate
/// at `k = 100`), a prime costs ~5 µs, and handing an
/// operation to a parked worker costs ~6–12 µs. A chunk of 6144
/// task-replays is ~60 µs of scoring, so a second chunk runs in
/// parallel for about a quarter of its own cost in dispatch plus the
/// extra worker's prime — while a grid below one chunk stays inline
/// and pays neither: tabu's 24-move samples stay inline at every size
/// up to 256 tasks. Above that they fan out: into chunks of 21 and 3
/// moves at 300 tasks, of 11, 11 and 2 at 600. Measured on a 2-vCPU
/// host in alternating `--threads 1` / `--threads 2` pairs (medians of
/// the wall time `mshc run --algo tabu --machines 16` prints), a second
/// thread took 600 tasks at 500 iterations from 0.388 to 0.320–0.324 s,
/// faster in 7 and 8 of 10 pairs at seeds 7 and 2001; 300 tasks at 1,000
/// iterations went from 0.249–0.257 to 0.225–0.239 s, faster in 7 of 10
/// pairs, a gain too small to tell from noise. The grid depends on `k`
/// and the grid length alone, never on the thread count.
const SCAN_CHUNK_REPLAYS: usize = 6144;

/// Lane-replays one pass of [`BatchEvaluator::best_relocation`] is
/// sized to. A pass replays at most `⌈LANE_PASS_REPLAYS / k⌉` cell lanes
/// of a `k`-task instance (164 at 100 tasks, 55 at 300, 547 at 30), a
/// lane replaying at most the `k` string positions, so an arena's lane
/// scratch holds at most `k × ⌈LANE_PASS_REPLAYS / k⌉` finish slots
/// (16,400 at 100 tasks). A walk replays one lane per run of identical
/// cells and runs inline on the calling thread, pass after pass. A floor
/// walk (makespan) starts with [`FLOOR_HEAD`] cells and doubles each
/// pass up to this size; in `mshc run --algo se` at 100 × 20 (seed 7),
/// 91 % of its walks stop after the first pass's five lanes. Every
/// other walk replays passes of this size: under total flowtime at
/// 300 × 16, a walk spans passes of 55 lanes. The passes are read from
/// the base string alone, and every replayed score is exact, so the
/// size cannot move a result or a counter.
const LANE_PASS_REPLAYS: usize = 16_384;

/// Cells in the first pass of a floor walk
/// ([`BatchEvaluator::best_relocation`] under an objective that
/// [never falls on insertion](Objective::never_falls_on_insertion)),
/// which also carries the floor lane. Each later pass doubles, up to
/// `⌈LANE_PASS_REPLAYS / k⌉` cells.
const FLOOR_HEAD: usize = 4;

/// Locks a pool mutex, recovering the data on poison. Arena state is
/// always structurally valid (a suspect arena is discarded by the guard
/// before the poison could matter), so poisoning must not cascade.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Winner of [`BatchEvaluator::best_task_move`]: the earliest-index
/// minimum-score eligible candidate, with its exact score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestMove {
    /// Index into the caller's move slice.
    pub index: usize,
    /// The candidate's exact objective value.
    pub score: f64,
}

/// Winner of a relocation scan ([`BatchEvaluator::best_relocation`]):
/// the earliest minimum-score cell of the position × machine grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relocation {
    /// The task's new string position.
    pub pos: usize,
    /// Its new machine.
    pub machine: MachineId,
    /// The candidate's exact objective value.
    pub score: f64,
}

/// The cells a relocation scan replays, in grid order: their positions
/// and machines, as [`IncrementalEvaluator::score_cells`] takes them.
#[derive(Debug, Default)]
struct CellList {
    pos: Vec<usize>,
    machines: Vec<MachineId>,
}

impl CellList {
    /// Lists up to `n` more cells of `cells`; returns the list's length.
    fn extend(&mut self, cells: impl Iterator<Item = (usize, MachineId)>, n: usize) -> usize {
        for (pos, m) in cells.take(n) {
            self.pos.push(pos);
            self.machines.push(m);
        }
        self.pos.len()
    }
}

/// How a population candidate descends from the parent pool — the
/// routing metadata [`BatchEvaluator::score_population`] consumes. Every
/// variant scores bit-identically to a full evaluation of the child, so
/// the routing is a pure cost decision.
///
/// Kept only for the benchmark under `perfbench/`; delete with that use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Descent {
    /// Scored by a full tier-1 pass.
    Fresh,
    /// Bit-for-bit copy of `parents[parent]` (an elite, or a child
    /// whose crossover and mutations reproduced its prefix donor): the
    /// parent's known cost **is** the child's cost — a full pass over an
    /// identical solution recomputes identical bits.
    Clone {
        /// Index into the parent pool.
        parent: usize,
    },
    /// Shares the string prefix `[0, diverge)` with `parents[parent]`;
    /// scored by a full pass, like [`Descent::Fresh`].
    Suffix {
        /// Index into the parent pool.
        parent: usize,
        /// First string position where the child's segments differ from
        /// the parent's.
        diverge: usize,
    },
}

/// One worker's reusable state: evaluators over the shared snapshot.
struct Arena<'a> {
    eval: Evaluator<'a>,
    inc: IncrementalEvaluator<'a>,
    /// One score slot per cell lane of a relocation scan.
    lane_scores: Vec<f64>,
}

impl<'a> Arena<'a> {
    fn new(snap: &'a EvalSnapshot) -> Arena<'a> {
        Arena {
            eval: Evaluator::with_snapshot(snap),
            inc: IncrementalEvaluator::with_snapshot(snap),
            lane_scores: Vec::new(),
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

    /// Checks out an arena with its incremental evaluator primed on
    /// `base`, for move scoring. The arena keeps its prime between
    /// checkouts, and [`IncrementalEvaluator::prime`] walks only from the
    /// first position where `base` differs from it: every later chunk a
    /// thread claims in one scan finds the same string and pays a
    /// compare, and a scan over the string the last one committed walks
    /// only from the move's first position on.
    fn checkout_primed(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        guard.inc().prime(base);
        guard
    }

    fn eval(&mut self) -> &mut Evaluator<'a> {
        &mut self.arena.as_mut().expect("arena present until drop").eval
    }

    fn inc(&mut self) -> &mut IncrementalEvaluator<'a> {
        &mut self.arena.as_mut().expect("arena present until drop").inc
    }

    /// The incremental evaluator plus a score slot for each of `lanes`
    /// cell lanes.
    fn lanes(&mut self, lanes: usize) -> (&mut IncrementalEvaluator<'a>, &mut [f64]) {
        let arena = self.arena.as_mut().expect("arena present until drop");
        arena.lane_scores.resize(lanes, 0.0);
        (&mut arena.inc, &mut arena.lane_scores)
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

/// One child of [`BatchEvaluator::breed_population`]: its buffer, its
/// donor once bred and its score once scored.
struct Slot<'c> {
    child: &'c mut Solution,
    donor: usize,
    score: f64,
}

/// The breeder-to-scorer handoff of one overlapped generation. The
/// caller breeds child `i` under slot `i`'s lock, releases it and then
/// raises `published` past `i`; scorers claim indices from `claims` and
/// wait for their claimed child to be published. No lock is ever
/// contended: the breeder never takes a slot again once it is
/// published, and a published slot is taken only by the scorer that
/// claimed it.
struct Handoff<'c> {
    slots: Vec<Mutex<Slot<'c>>>,
    /// Children `[0, published)` are bred. Stored with `Release` after
    /// the bred slot's lock is released, loaded with `Acquire`.
    published: AtomicUsize,
    /// The next child index a scorer claims. `Relaxed`: it publishes no
    /// data, and `fetch_add` alone hands each index out once.
    claims: AtomicUsize,
    /// Set when the breeding side is done, normally or by unwinding, so
    /// that no scorer waits for a child that will not come. Stored with
    /// `Release` after the last `published` store and loaded with
    /// `Acquire`, so a scorer that sees it set also sees the final
    /// watermark.
    closed: AtomicBool,
}

impl<'c> Handoff<'c> {
    fn new(children: &'c mut [Solution]) -> Handoff<'c> {
        Handoff {
            slots: children
                .iter_mut()
                .map(|child| Mutex::new(Slot { child, donor: 0, score: 0.0 }))
                .collect(),
            published: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Claims children one at a time and scores each with `score` once
    /// it is published, yielding the CPU while it waits. Stops when
    /// every index is claimed or the handoff closed before the claimed
    /// child was published. Returns how many scorings reported a clone
    /// (`true`) and how many did not.
    fn drain(&self, mut score: impl FnMut(&mut Slot<'c>) -> bool) -> (u64, u64) {
        let (mut clones, mut passes) = (0, 0);
        while !self.closed.load(Ordering::Acquire) {
            let i = self.claims.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                break;
            }
            while self.published.load(Ordering::Acquire) <= i {
                // Re-read after seeing `closed`: a normal close follows
                // the last publish, so only an unwinding breeder can
                // leave `i` unpublished here.
                if self.closed.load(Ordering::Acquire)
                    && self.published.load(Ordering::Acquire) <= i
                {
                    return (clones, passes);
                }
                std::thread::yield_now();
            }
            if score(&mut lock_tolerant(&self.slots[i])) {
                clones += 1;
            } else {
                passes += 1;
            }
        }
        (clones, passes)
    }
}

/// Sets its flag when dropped, unwinding included.
struct CloseOnDrop<'f>(&'f AtomicBool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Scores whole candidate sets in one call, in parallel.
pub struct BatchEvaluator<'a> {
    snap: &'a EvalSnapshot,
    arenas: ArenaPool<'a>,
    evaluations: u64,
    /// Aggregated scoring and population counters across all calls.
    scan: ScanStats,
    /// The cells a relocation scan replays, reused across scans.
    cells: CellList,
}

impl<'a> BatchEvaluator<'a> {
    /// Creates a batch evaluator over a shared snapshot.
    pub fn new(snap: &'a EvalSnapshot) -> BatchEvaluator<'a> {
        BatchEvaluator {
            snap,
            arenas: ArenaPool::new(),
            evaluations: 0,
            scan: ScanStats::default(),
            cells: CellList::default(),
        }
    }

    /// The shared snapshot.
    #[inline]
    pub fn snapshot(&self) -> &'a EvalSnapshot {
        self.snap
    }

    /// Charged evaluations across all batches: one per candidate,
    /// whether it took a full pass, a replay, or the score of an
    /// identical schedule ([`ScanStats`] counts the passes and replays).
    /// Per-chunk primes are uncounted, so the axis is thread-count
    /// independent.
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The record of the work across all calls: full passes, scorings
    /// and the population axes. Every axis is deterministic at any
    /// thread count: each counts candidates, never workers or chunks.
    #[inline]
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Contiguous index chunks for
    /// [`score_task_moves`](Self::score_task_moves) over `len`
    /// candidates: `⌈SCAN_CHUNK_REPLAYS / k⌉` candidates each, a single
    /// (inline) chunk for a grid below that. A pure function of `len`
    /// and the task count, so whether a scan fans out never depends on
    /// the thread count. The grid never affects a score.
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
                |guard, sol| guard.eval().objective_value(sol, obj),
            )
            .collect();
        self.evaluations += candidates.len() as u64;
        self.scan.full_passes += candidates.len() as u64;
        out
    }

    /// Scores a GA generation against its parent pool: `out[i]` is the
    /// exact score of `children[i]`, bit-identical to
    /// [`scores`](Self::scores) over the same children. `descents[i]`
    /// says how child `i` descends from `parents` (with `parent_costs`
    /// the parents' own scores, as returned by the previous generation's
    /// scoring): a [`Descent::Clone`] child reuses its parent's cost
    /// outright — a full pass over a bit-identical solution recomputes
    /// identical bits, so no pass runs at all — and every other child
    /// takes one full pass, all of them in one fan-out over the pool.
    ///
    /// Every child counts as exactly one evaluation, clones included:
    /// the evaluation axis measures candidates considered, exactly like
    /// [`scores`](Self::scores). The population axes of
    /// [`scan_stats`](Self::scan_stats) count the clones and their
    /// string positions, a pure function of the descents.
    ///
    /// Kept only for the benchmark under `perfbench/`; delete with that
    /// use. The GA scores its generations through
    /// [`breed_population`](Self::breed_population).
    ///
    /// # Panics
    /// If slice lengths disagree or a clone names a parent index out of
    /// range; debug builds also check that each clone equals its parent.
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
        let mut out = vec![0.0f64; children.len()];
        let mut fulls: Vec<usize> = Vec::new();
        let mut clones = 0u64;
        for (i, d) in descents.iter().enumerate() {
            match *d {
                Descent::Clone { parent } => {
                    assert!(parent < parents.len(), "clone parent out of range");
                    debug_assert!(children[i] == parents[parent], "a clone equals its parent");
                    out[i] = parent_costs[parent];
                    clones += 1;
                }
                Descent::Fresh | Descent::Suffix { .. } => fulls.push(i),
            }
        }
        let snap = self.snap;
        let pool = &self.arenas;
        let full_scores: Vec<f64> = fulls
            .par_iter()
            .map_init(
                || ArenaGuard::checkout(pool, snap),
                |guard, &i| guard.eval().objective_value(&children[i], obj),
            )
            .collect();
        for (&i, score) in fulls.iter().zip(full_scores) {
            out[i] = score;
        }
        self.evaluations += children.len() as u64;
        self.count_population(children.len() as u64, clones);
        out
    }

    /// Breeds and scores one GA generation in a single overlapped pass:
    /// `out[i]` is the exact score of `children[i]` once
    /// `breed(i, &mut children[i])` has filled it in place, bit-identical
    /// to [`scores`](Self::scores) over the bred children.
    ///
    /// The calling thread runs `breed` for `i = 0, 1, …, n - 1`, in order,
    /// and publishes each child as soon as its call returns. One pool
    /// operation per call lets a worker score published children while
    /// the caller breeds the next ones; once the last child is bred, the
    /// caller scores whatever is still unclaimed. With one thread, or
    /// when no worker is free (inside a tournament cell, say, where a
    /// worker's operation engages only the other workers and those run
    /// cells of their own), the caller breeds everything and then scores
    /// everything.
    ///
    /// `breed` returns the child's donor, an index into `parents` (with
    /// `parent_costs` their scores). A child equal to its donor takes the
    /// donor's cost outright: a full pass over an identical solution
    /// recomputes identical bits. Every other child gets one full pass
    /// from the scoring thread's arena. Which thread scores a child, and
    /// when, cannot change its score, so the output and every counter
    /// read the same at any thread count. Every child counts one
    /// evaluation, clones included, and the population axes of
    /// [`scan_stats`](Self::scan_stats) count the clones and their
    /// string positions.
    ///
    /// # Panics
    /// If `parents` and `parent_costs` differ in length or a donor is out
    /// of range. A panic in `breed` or in the objective reaches the
    /// caller; the breeding side closes the handoff as it unwinds, so a
    /// worker never waits for a child that will not come.
    pub fn breed_population<F>(
        &mut self,
        parents: &[Solution],
        parent_costs: &[f64],
        children: &mut [Solution],
        breed: F,
        obj: &dyn Objective,
    ) -> Vec<f64>
    where
        F: FnMut(usize, &mut Solution) -> usize + Send,
    {
        assert_eq!(parents.len(), parent_costs.len(), "one cost per parent");
        let n = children.len();
        if n == 0 {
            return Vec::new();
        }
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        let handoff = Handoff::new(children);
        let snap = self.snap;
        let pool = &self.arenas;
        // Scores claimed children on the current thread; returns the
        // clone and full-pass counts.
        let drain = || {
            let mut guard = None;
            handoff.drain(|slot| {
                let donor = slot.donor;
                if *slot.child == parents[donor] {
                    slot.score = parent_costs[donor];
                    true
                } else {
                    let guard = guard.get_or_insert_with(|| ArenaGuard::checkout(pool, snap));
                    slot.score = guard.eval().objective_value(slot.child, obj);
                    false
                }
            })
        };
        let mut breed = breed;
        let ((clones_a, passes_a), (clones_b, passes_b)) = rayon::join(
            || {
                let _close = CloseOnDrop(&handoff.closed);
                for (i, slot) in handoff.slots.iter().enumerate() {
                    let mut slot = lock_tolerant(slot);
                    let donor = breed(i, slot.child);
                    assert!(donor < parents.len(), "donor {donor} out of range");
                    slot.donor = donor;
                    drop(slot);
                    handoff.published.store(i + 1, Ordering::Release);
                }
                drain()
            },
            drain,
        );
        let clones = clones_a + clones_b;
        debug_assert_eq!(clones + passes_a + passes_b, n as u64, "every child scored once");
        let out = handoff.slots.iter().map(|slot| lock_tolerant(slot).score).collect();
        self.evaluations += n as u64;
        self.count_population(n as u64, clones);
        out
    }

    /// Scores the candidate set "`base` with one task moved" where each
    /// entry `(t, position, machine)` may move a *different* task — the
    /// sampled-neighborhood shape (tabu search): `out[i]` is the exact
    /// score of `moves[i]`, by suffix replay against the base each
    /// worker's arena primes (resuming from the string it primed last),
    /// never touching a `Solution`.
    ///
    /// The candidates split into chunks of about `SCAN_CHUNK_REPLAYS`
    /// task-replays; a set below one chunk is scored inline on the
    /// calling thread, larger ones fan their chunks out over the pool.
    pub fn score_task_moves(
        &mut self,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        obj: &dyn Objective,
    ) -> Vec<f64> {
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        let chunks = self.scan_chunks(moves.len());
        let snap = self.snap;
        let pool = &self.arenas;
        let before = self.arena_scorings();
        let per_chunk: Vec<Vec<f64>> = chunks
            .par_iter()
            .map_init(
                || ArenaGuard::checkout_primed(pool, snap, base),
                |guard, range| {
                    let inc = guard.inc();
                    moves[range.clone()]
                        .iter()
                        .map(|&(t, pos, m)| inc.score_move(t, pos, m, obj))
                        .collect()
                },
            )
            .collect();
        self.evaluations += moves.len() as u64;
        self.absorb_arena_scorings(before);
        per_chunk.concat()
    }

    /// Argmin over SE's allocation grid: `base` with task `t` relocated
    /// to every position of `positions` (inside `t`'s valid range) on
    /// every machine of `machines`, minus the base's own placement.
    /// Candidates are ordered pos-major — position by position, machines
    /// in the given order within a position — and the winner is the
    /// earliest-index minimum under `total_cmp`, with its exact score
    /// (`None` only for an empty grid). Every cell of the grid counts as
    /// one evaluation; [`ScanStats::scored`] counts the cells replayed.
    ///
    /// Which cells are replayed rests on one fact about the grid. Let
    /// `S'` be `base` without `t` and `C(p)` be `S'` with `t` inserted at
    /// `p`. Stepping from `C(p − 1)` to `C(p)` passes one task, `S'[p −
    /// 1]`, which inside the valid range neither precedes nor succeeds
    /// `t`. If it runs on a machine other than `m`, the two candidates
    /// with `t` on `m` give every machine the same task sequence. The
    /// scheduling kernel does not insert into idle gaps: each task starts
    /// at the later of its data-ready time and its machine's previous
    /// finish, so both candidates have the same finish times, busy times
    /// and latest finish, bit for bit. Only the string-order finish sum
    /// can round differently. So the cells of lane `m` fall into runs: a
    /// run starts at the first position and wherever the passed task
    /// runs on `m`. Each run is replayed once, at its first cell other
    /// than the base's own. When `obj` does not [read the finish
    /// sum](Objective::reads), the run's other cells have the replayed
    /// cell's score and come after it in grid order, so none of them can
    /// be the first minimum. When it does, the crate-internal
    /// `IncrementalEvaluator::refold` scores each other cell of the run
    /// from the replayed lane: it re-adds the cell's sum from the lane's
    /// finish times in the cell's own string order, the very adds its own
    /// replay would fold. A refolded cell comes after later runs'
    /// replayed cells in grid order, so score ties break on position,
    /// then on the order of `machines`. Either way the winner, its score
    /// bits and the evaluation count are those of scoring every cell
    /// through [`score_task_moves`](Self::score_task_moves) and folding.
    ///
    /// The replayed cells, in grid order, are lanes of
    /// [`IncrementalEvaluator::score_cells`], one lockstep pass after
    /// another on the calling thread, with no pool operation. The walk
    /// lists them from the base string alone, never from a score, one
    /// pass at a time as it reaches them; a pass holds at most
    /// `⌈LANE_PASS_REPLAYS / k⌉` lanes.
    ///
    /// When `obj` [never falls on insertion](Objective::never_falls_on_insertion)
    /// and does not read the finish sum (makespan, or a blend of makespan
    /// alone), the walk stops early. The scheduling kernel steps with
    /// `later` and `+` over non-negative costs, both monotone under
    /// round-to-nearest, so inserting `t` can only delay the tasks of
    /// `S'`, and no cell scores below `S'` itself. The first pass holds
    /// the first four cells plus a floor lane at position `k`, which
    /// replays `S'`; each later pass holds twice the cells of the one
    /// before, up to the cap. After each pass the walk stops if the
    /// first minimum so far equals the floor bit for bit. Every cell it
    /// skips comes later in grid order and scores at least the floor
    /// under `total_cmp`, so it can neither beat nor tie ahead of the
    /// minimum, and the winner and its score bits are those of the full
    /// walk. Skipped cells are still charged, so the evaluation count is
    /// too; [`ScanStats::scored`] counts the lanes replayed, the floor
    /// lane included. A walk that fits in the first pass's cells has
    /// nothing to skip and replays them without a floor lane. Every other
    /// walk replays every run.
    ///
    /// A walk ends by advancing its arena's prime to the winning cell,
    /// when the last pass replayed the winner's run and that pass's
    /// first cell lies at or before `t`'s own position. SE commits the
    /// winner next, so its next relocation primes on the very string
    /// the arena holds, and that prime is a compare. The advance replays
    /// nothing: the moved string agrees with `base` up to the first
    /// position the move disturbs, and the lane that replayed the
    /// winner's run holds the finish time of every task from there on,
    /// each computed by exactly the operations a walk of the moved
    /// string performs. So folding those finish times in the moved
    /// string's order rebuilds its checkpoints and end state, and
    /// re-pricing `t`'s edges, the only ones whose machine pair changes,
    /// rebuilds its edge costs: the state equals a prime of the moved
    /// string bit for bit. Any other walk leaves the prime on `base`,
    /// and the next prime resumes from the first difference. Primes are
    /// uncounted either way.
    pub fn best_relocation(
        &mut self,
        base: &Solution,
        t: TaskId,
        positions: RangeInclusive<usize>,
        machines: &[MachineId],
        obj: &dyn Objective,
    ) -> Option<Relocation> {
        let (old_pos, old_m) = (base.position_of(t), base.machine_of(t));
        let own = move |pos: usize, m: MachineId| pos == old_pos && m == old_m;
        let positions = *positions.start()..positions.end() + 1;
        let own_cells = if positions.contains(&old_pos) {
            machines.iter().filter(|&&m| m == old_m).count()
        } else {
            0
        };
        let len = positions.len() * machines.len() - own_cells;
        if len == 0 {
            return None;
        }
        let (lo, end) = (positions.start, positions.end);
        // Lane `m` starts a run at `pos`: the first position, or the step
        // to `pos` passes a task on `m`. That task is `S'[pos - 1]`: base
        // position `pos - 1` before `t`'s own, `pos` from there on.
        let run_start = move |pos: usize, m: MachineId| {
            pos == lo || base.segment_at(if pos - 1 < old_pos { pos - 1 } else { pos }).machine == m
        };
        // A run is replayed at its first cell other than the base's own.
        let replayed = move |pos: usize, m: MachineId| {
            !own(pos, m) && (run_start(pos, m) || (own(pos - 1, m) && run_start(pos - 1, m)))
        };
        // The replayed cells in grid order, listed as the walk reaches
        // them.
        let mut cells = positions
            .flat_map(|pos| machines.iter().map(move |&m| (pos, m)))
            .filter(move |&(pos, m)| replayed(pos, m));
        let k = self.snap.task_count();
        let cap = LANE_PASS_REPLAYS.div_ceil(k.max(1));
        let refold = obj.reads().finish_sum;
        // The floor walk's first pass: its first cells, then the floor
        // lane (`S'` alone, at position `k`). A walk that fits in those
        // cells has nothing to skip and runs without it.
        let head = FLOOR_HEAD.min(cap);
        let list = &mut self.cells;
        list.pos.clear();
        list.machines.clear();
        let listed = list.extend(&mut cells, head + 1);
        let floor_walk = obj.never_falls_on_insertion() && !refold && listed > head;
        let (mut pass, mut size) = if floor_walk {
            list.pos.insert(head, k);
            list.machines.insert(head, old_m);
            (0..head + 1, head)
        } else {
            (0..list.extend(&mut cells, cap.saturating_sub(listed)).min(cap), cap)
        };
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        let before = self.arena_scorings();
        let list = &mut self.cells;
        let mut guard = ArenaGuard::checkout_primed(&self.arenas, self.snap, base);
        // The first minimum in grid order: strictly lower under
        // total_cmp, or tied and at an earlier position, or at the same
        // position on a machine earlier in `machines`. Lanes arrive in
        // grid order, refolded cells after later lanes, so ties compare
        // grid order; the machine order is looked up on same-position
        // ties only. A winner carries the list index of its run's lane.
        let rank = |m: MachineId| machines.iter().position(|&x| x == m);
        let keeps = |b: Relocation, c: Relocation| {
            let order = b.score.total_cmp(&c.score);
            order.is_lt()
                || order.is_eq()
                    && (b.pos < c.pos || b.pos == c.pos && rank(b.machine) <= rank(c.machine))
        };
        let first_min = |best: Option<(usize, Relocation)>, cell: (usize, Relocation)| match best {
            Some((_, b)) if keeps(b, cell.1) => best,
            _ => Some(cell),
        };
        // Replays the lanes of `pass` in one lockstep pass, folds the
        // first minimum of their cells into `best` (with every other cell
        // of their runs, refolded, when `obj` reads the finish sum), and
        // returns the last lane's score.
        let score_pass = |guard: &mut ArenaGuard<'_, 'a>,
                          list: &CellList,
                          pass: Range<usize>,
                          best: &mut Option<(usize, Relocation)>| {
            let (pos, on) = (&list.pos[pass.clone()], &list.machines[pass.clone()]);
            let (inc, scores) = guard.lanes(pos.len());
            inc.score_cells(t, pos, on, obj, scores);
            *best = pass
                .clone()
                .zip(pos.iter().zip(on))
                .zip(scores.iter())
                .filter(|((_, (&pos, _)), _)| pos < k)
                .map(|((i, (&pos, &machine)), &score)| (i, Relocation { pos, machine, score }))
                .fold(*best, first_min);
            let last = scores[scores.len() - 1];
            if refold {
                for (lane, (&at, &m)) in pos.iter().zip(on).enumerate() {
                    let run = (at + 1..end).take_while(|&q| !run_start(q, m)).last();
                    if let Some(to) = run {
                        inc.refold(lane, to, obj, |q, score| {
                            if !own(q, m) {
                                let cell = Relocation { pos: q, machine: m, score };
                                *best = first_min(*best, (pass.start + lane, cell));
                            }
                        });
                    }
                }
            }
            last
        };
        let mut best = None;
        let floor = score_pass(&mut guard, list, pass.clone(), &mut best);
        loop {
            if floor_walk && best.is_some_and(|(_, b)| b.score.to_bits() == floor.to_bits()) {
                break;
            }
            size = (2 * size).min(cap);
            let to = pass.end + size;
            let to = list.extend(&mut cells, to.saturating_sub(list.pos.len())).min(to);
            if to == pass.end {
                break;
            }
            pass = pass.end..to;
            score_pass(&mut guard, list, pass.clone(), &mut best);
        }
        // The caller commits the winner, and its next scan primes on the
        // string it leaves.
        if let Some((i, cell)) = best.filter(|&(i, _)| pass.contains(&i)) {
            guard.inc().advance(i - pass.start, cell.pos);
        }
        drop(guard);
        self.evaluations += len as u64;
        self.absorb_arena_scorings(before);
        best.map(|(_, cell)| cell)
    }

    /// Argmin over a mixed-task move sample (tabu's shape).
    ///
    /// `admissible` marks moves that may always be chosen; a
    /// non-admissible move (a tabu task) is only eligible when its score
    /// strictly beats `aspiration` (the global best — tabu's aspiration
    /// criterion). `None` admits everything. Every candidate is scored
    /// exactly by [`score_task_moves`](Self::score_task_moves). Returns
    /// the earliest-index minimum among eligible candidates — exactly
    /// what the sequential skip-tabu-unless-aspirating scan selects — or
    /// `None` when no move is eligible. Evaluation count is
    /// `moves.len()` regardless.
    pub fn best_task_move(
        &mut self,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        admissible: Option<&[bool]>,
        aspiration: f64,
        obj: &dyn Objective,
    ) -> Option<BestMove> {
        if let Some(mask) = admissible {
            debug_assert_eq!(mask.len(), moves.len(), "admissible mask/move mismatch");
        }
        let scores = self.score_task_moves(base, moves, obj);
        fold_eligible(scores.into_iter().enumerate(), admissible, aspiration)
    }

    /// Records a generation of `children`, `clones` of them served by
    /// their donor's cost and every other one by a full pass.
    fn count_population(&mut self, children: u64, clones: u64) {
        let k = self.snap.task_count() as u64;
        self.scan.merge(ScanStats {
            full_passes: children - clones,
            clones,
            clone_positions: clones * k,
            population_positions: children * k,
            ..ScanStats::default()
        });
    }

    /// Scorings performed so far by every pooled arena (all arenas are at
    /// rest between calls — `&mut self` methods cannot overlap).
    fn arena_scorings(&self) -> u64 {
        let slots =
            self.arenas.slots.iter().filter_map(|slot| {
                lock_tolerant(slot).as_ref().map(|arena| arena.inc.evaluations())
            });
        let overflow: u64 =
            lock_tolerant(&self.arenas.overflow).iter().map(|arena| arena.inc.evaluations()).sum();
        slots.sum::<u64>() + overflow
    }

    /// Folds the arena scorings gained since `before` into the
    /// evaluator-level counters. Saturating: a panicking scan discards
    /// its arena, taking that arena's lifetime count with it, which can
    /// leave the total below `before` (diagnostics only — the axis
    /// undercounts rather than wrapping).
    fn absorb_arena_scorings(&mut self, before: u64) {
        let scored = self.arena_scorings().saturating_sub(before);
        self.scan.merge(ScanStats { scored, ..ScanStats::default() });
    }
}

/// Sequential eligibility fold shared by the argmin scans: admissible
/// candidates always contend, others only strictly below `aspiration`;
/// strict score improvement keeps the earliest index on ties. All
/// comparisons use `total_cmp` — matching the `min_by` fold this
/// machinery replaced — so a NaN from a custom objective ranks greatest
/// (never chosen over a finite score, never aspirating) instead of
/// poisoning the fold.
fn fold_eligible(
    scored: impl Iterator<Item = (usize, f64)>,
    admissible: Option<&[bool]>,
    aspiration: f64,
) -> Option<BestMove> {
    let mut best: Option<BestMove> = None;
    for (i, score) in scored {
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
    use crate::objective::{ObjectiveKind, ObjectiveState};
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

    /// SE's relocation grid in pos-major order, the base's own cell
    /// excluded — the candidate order `best_relocation` ranks.
    fn relocation_grid(
        base: &Solution,
        t: TaskId,
        positions: RangeInclusive<usize>,
        machines: &[MachineId],
    ) -> Vec<(TaskId, usize, MachineId)> {
        let own = (t, base.position_of(t), base.machine_of(t));
        positions
            .flat_map(|pos| machines.iter().map(move |&m| (t, pos, m)))
            .filter(|&cell| cell != own)
            .collect()
    }

    /// The earliest minimum of `scores` under `total_cmp`, as the cell
    /// of `grid` it scores.
    fn first_min(
        grid: &[(TaskId, usize, MachineId)],
        scores: &[f64],
    ) -> Option<(usize, MachineId, u64)> {
        scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (grid[i].1, grid[i].2, s.to_bits()))
    }

    fn cell(r: Relocation) -> (usize, MachineId, u64) {
        (r.pos, r.machine, r.score.to_bits())
    }

    #[test]
    fn scan_chunk_grid_depends_on_the_grid_alone() {
        // The tabu argmin's chunk grid is a function of the candidate
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
            assert_eq!(batch.scan_stats().full_passes, 40, "one full pass per candidate");
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

    /// Builds a descent-annotated offspring pool: per parent one exact
    /// clone, one single-move child, and three multi-move suffix
    /// children, plus three fresh immigrants — every [`Descent`] arm.
    /// A single-move child that equals its parent is a clone, any other
    /// `Fresh`, as GA classifies them.
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
            descents.push(if child == *parent {
                Descent::Clone { parent: p }
            } else {
                Descent::Fresh
            });
            children.push(child);
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
            let k = inst.task_count() as u64;
            let clones = descents.iter().filter(|d| matches!(d, Descent::Clone { .. })).count();
            assert!(clones >= parents.len(), "every parent has a clone");
            assert_eq!(
                stats,
                ScanStats {
                    full_passes: (children.len() - clones) as u64,
                    scored: 0,
                    clones: clones as u64,
                    clone_positions: clones as u64 * k,
                    population_positions: children.len() as u64 * k,
                }
            );
        }
    }

    #[test]
    fn score_population_is_thread_invariant() {
        // Exact fitness plus every population counter must be a pure
        // function of the chromosomes: same bits at any thread count
        // (work stealing).
        let inst = random_instance(26, 4, 33);
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
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (got, stats) = pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                let out =
                    batch.score_population(&parents, &parent_costs, &children, &descents, &obj);
                (out, batch.scan_stats())
            });
            assert_eq!(got, baseline, "{threads} threads");
            assert_eq!(stats, base_stats, "{threads} threads");
        }
    }

    /// Breeds the fixture's children through `breed_population`: child
    /// `i` is copied in by the breed closure, which names its descent's
    /// parent as donor (parent 0 for a fresh child). Every `slow`-th
    /// child sleeps first, which makes it likely that a worker scorer
    /// waits for it; the result must not depend on whether one does.
    fn breed_fixture(
        batch: &mut BatchEvaluator<'_>,
        parents: &[Solution],
        parent_costs: &[f64],
        children: &[Solution],
        descents: &[Descent],
        slow: Option<usize>,
        obj: &dyn Objective,
    ) -> Vec<f64> {
        let mut buffers = vec![parents[0].clone(); children.len()];
        let breed = |i: usize, child: &mut Solution| {
            if slow.is_some_and(|every| i.is_multiple_of(every)) {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            child.clone_from(&children[i]);
            match descents[i] {
                Descent::Clone { parent } | Descent::Suffix { parent, .. } => parent,
                Descent::Fresh => 0,
            }
        };
        let out = batch.breed_population(parents, parent_costs, &mut buffers, breed, obj);
        assert_eq!(buffers, children, "every child bred in place");
        out
    }

    #[test]
    fn breed_population_matches_scores_at_any_thread_count() {
        let inst = random_instance(24, 4, 36);
        let k = inst.task_count() as u64;
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 6);
        let clones = children
            .iter()
            .zip(&descents)
            .filter(|(child, d)| match d {
                Descent::Clone { parent } | Descent::Suffix { parent, .. } => {
                    **child == parents[*parent]
                }
                Descent::Fresh => **child == parents[0],
            })
            .count() as u64;
        assert!(clones >= parents.len() as u64, "every parent has a clone");
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let obj = &kind;
            let mut scalar = Evaluator::new(&inst);
            let parent_costs: Vec<f64> =
                parents.iter().map(|s| scalar.objective_value(s, obj)).collect();
            let want = BatchEvaluator::new(&snap).scores(&children, obj);
            for threads in [1usize, 2, 8] {
                for slow in [None, Some(5)] {
                    let pool =
                        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                    let (got, batch_evals, stats) = pool.install(|| {
                        let mut batch = BatchEvaluator::new(&snap);
                        let got = breed_fixture(
                            &mut batch,
                            &parents,
                            &parent_costs,
                            &children,
                            &descents,
                            slow,
                            obj,
                        );
                        (got, batch.evaluations(), batch.scan_stats())
                    });
                    let label = format!("{}, {threads} threads, slow {slow:?}", kind.label());
                    assert_eq!(got, want, "{label}");
                    assert_eq!(batch_evals, children.len() as u64, "{label}");
                    let axes = ScanStats {
                        full_passes: children.len() as u64 - clones,
                        scored: 0,
                        clones,
                        clone_positions: clones * k,
                        population_positions: children.len() as u64 * k,
                    };
                    assert_eq!(stats, axes, "{label}");
                }
            }
        }
    }

    #[test]
    fn breed_population_propagates_panics_without_hanging() {
        struct Grenade;
        impl Objective for Grenade {
            fn finalize(&self, _: &ObjectiveState) -> f64 {
                panic!("objective boom");
            }
        }
        let inst = random_instance(20, 3, 38);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(39);
        let (parents, children, descents) = population_fixture(&inst, &mut rng, 4);
        let obj = ObjectiveKind::Makespan;
        let parent_costs = BatchEvaluator::new(&snap).scores(&parents, &obj);
        let want = BatchEvaluator::new(&snap).scores(&children, &obj);
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        };
        let n = children.len();
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                for at in [0, 1, n / 2, n - 1] {
                    let mut buffers = vec![parents[0].clone(); n];
                    let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let breed = |i: usize, child: &mut Solution| {
                            assert!(i != at, "breed boom at {i}");
                            child.clone_from(&children[i]);
                            0
                        };
                        batch.breed_population(&parents, &parent_costs, &mut buffers, breed, &obj)
                    }));
                    let msg = message(blast.expect_err("breeding panics"));
                    assert!(
                        msg.contains(&format!("breed boom at {at}")),
                        "{threads} threads: {msg}"
                    );
                }
                let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    breed_fixture(
                        &mut batch,
                        &parents,
                        &parent_costs,
                        &children,
                        &descents,
                        Some(3),
                        &Grenade,
                    )
                }));
                let msg = message(blast.expect_err("the objective panics"));
                assert!(msg.contains("objective boom"), "{threads} threads: {msg}");
                // The evaluator keeps serving, with the same bits.
                let got = breed_fixture(
                    &mut batch,
                    &parents,
                    &parent_costs,
                    &children,
                    &descents,
                    None,
                    &obj,
                );
                assert_eq!(got, want, "{threads} threads");
            });
        }
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
        let got = batch.score_task_moves(&base, &moves, &obj);
        let mut scalar = Evaluator::new(&inst);
        for (&(t, pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.objective_value(&cand, &obj), score);
        }
        // Scoring again over the recycled arenas gives the same answers
        // (primed bases are rebuilt per checkout).
        assert_eq!(batch.score_task_moves(&base, &moves, &obj), got);
    }

    #[test]
    fn move_scores_are_thread_invariant() {
        // Every thread count must produce the same bits.
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
            .install(|| BatchEvaluator::new(&snap).score_task_moves(&base, &moves, &obj));
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got =
                pool.install(|| BatchEvaluator::new(&snap).score_task_moves(&base, &moves, &obj));
            assert_eq!(got, baseline, "{threads} threads");
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let inst = random_instance(5, 2, 9);
        let snap = EvalSnapshot::new(&inst);
        let mut batch = BatchEvaluator::new(&snap);
        assert!(batch.scores(&[], &ObjectiveKind::Makespan).is_empty());
        assert_eq!(batch.evaluations(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let base = random_solution(&inst, &mut rng);
        assert_eq!(batch.best_task_move(&base, &[], None, 0.0, &ObjectiveKind::Makespan), None);
        // No machines, no positions, or nothing but the base's own cell.
        let t = TaskId::new(0);
        let (pos, m) = (base.position_of(t), base.machine_of(t));
        let obj = ObjectiveKind::Makespan;
        assert_eq!(batch.best_relocation(&base, t, pos..=pos, &[], &obj), None);
        assert_eq!(batch.best_relocation(&base, t, pos + 1..=pos, &[m], &obj), None);
        assert_eq!(batch.best_relocation(&base, t, pos..=pos, &[m], &obj), None);
        assert_eq!(batch.evaluations(), 0);
        assert_eq!(batch.scan_stats(), ScanStats::default());
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
            fn finalize(&self, state: &ObjectiveState) -> f64 {
                if state.tasks() > 3 {
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
        let moves: Vec<(TaskId, usize, MachineId)> =
            (lo..=hi).flat_map(|p| (0..3).map(move |m| (t, p, MachineId::new(m)))).collect();
        let obj = ObjectiveKind::Makespan;
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                // Warm the arena slots, then detonate a contained panic
                // mid-scan (the portfolio's catch_unwind shape).
                let want = batch.score_task_moves(&base, &moves, &obj);
                let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batch.score_task_moves(&base, &moves, &Grenade)
                }));
                assert!(blast.is_err(), "objective must panic");
                // The evaluator must still serve healthy scans, with the
                // same bits as before the panic.
                let got = batch.score_task_moves(&base, &moves, &obj);
                assert_eq!(got, want, "{threads} threads");
                let machines: Vec<MachineId> = (0..3).map(MachineId::new).collect();
                let best = batch.best_relocation(&base, t, lo..=hi, &machines, &obj);
                assert!(best.is_some(), "{threads} threads");
                let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batch.best_relocation(&base, t, lo..=hi, &machines, &Grenade)
                }));
                assert!(blast.is_err(), "objective must panic");
                assert_eq!(
                    batch.best_relocation(&base, t, lo..=hi, &machines, &obj),
                    best,
                    "{threads} threads"
                );
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
            let moves: Vec<(TaskId, usize, MachineId)> =
                (lo..=hi).flat_map(|p| (0..4).map(move |m| (t, p, MachineId::new(m)))).collect();
            let got = batch.score_task_moves(base, &moves, &obj);
            for (&(_, pos, m), &score) in moves.iter().zip(&got) {
                let mut cand = base.clone();
                cand.move_task(g, t, pos, m).unwrap();
                assert_eq!(scalar.makespan(&cand), score, "round {round}, move ({pos}, {m})");
            }
        }
    }

    #[test]
    fn floor_walk_stops_at_the_first_group_that_meets_the_floor() {
        // A chain 0 -> 1 of 100 + 100 on m0 sets the makespan; six
        // independent unit tasks run beside it on m1..m3. Relocating
        // task 7 to the head of m1, the grid's first cell, delays
        // nothing on the chain: it scores 200, the makespan of the
        // string without task 7. So the walk replays its first group of
        // 4 cells and the floor lane, and skips the other 7 run starts,
        // while the winner and the charged evaluations are those of the
        // full grid.
        let mut b = mshc_taskgraph::TaskGraphBuilder::new(8);
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        let exec = Matrix::from_fn(4, 8, |m, t| match (m, t) {
            (0, 0 | 1) => 100.0,
            (_, 0 | 1) => 1000.0,
            _ => 1.0,
        });
        let transfer = Matrix::from_fn(6, g.data_count(), |_, _| 5.0);
        let sys = HcSystem::with_anonymous_machines(4, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let order: Vec<TaskId> = [0, 2, 3, 1, 4, 5, 6, 7].map(TaskId::new).to_vec();
        let on: Vec<MachineId> = [0, 0, 1, 2, 3, 1, 2, 3].map(MachineId::new).to_vec();
        let base = Solution::from_order(inst.graph(), 4, &order, &on).unwrap();
        let snap = EvalSnapshot::new(&inst);
        let t = TaskId::new(7);
        let machines: Vec<MachineId> = [1, 2, 3, 0].map(MachineId::new).to_vec();
        let grid = relocation_grid(&base, t, 0..=7, &machines);
        let obj = ObjectiveKind::Makespan;
        let scores = BatchEvaluator::new(&snap).score_task_moves(&base, &grid, &obj);
        let want = first_min(&grid, &scores).expect("non-empty grid");
        assert_eq!(want, (0, MachineId::new(1), 200f64.to_bits()), "the first cell wins");
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.best_relocation(&base, t, 0..=7, &machines, &obj).expect("a winner");
        assert_eq!(cell(got), want);
        assert_eq!(batch.evaluations(), grid.len() as u64);
        assert_eq!(batch.scan_stats().scored, 4 + 1, "the first group and the floor lane");
        // Without a floor, the walk replays each of its 11 run starts.
        let mut batch = BatchEvaluator::new(&snap);
        let obj = ObjectiveKind::LoadBalance;
        batch.best_relocation(&base, t, 0..=7, &machines, &obj).expect("a winner");
        assert_eq!(batch.scan_stats().scored, 11);
    }

    #[test]
    fn nan_scores_follow_total_cmp_in_relocation_argmin() {
        // A custom objective emitting NaN for some candidates must not
        // poison the argmin: the fold follows total_cmp exactly like the
        // min_by fold this machinery replaced (-NaN smallest, +NaN
        // greatest — never "sticky first seen"), at any thread count.
        struct SqrtMargin(f64);
        impl Objective for SqrtMargin {
            fn finalize(&self, state: &ObjectiveState) -> f64 {
                // NaN whenever the schedule beats the threshold.
                (state.max_finish() - self.0).sqrt()
            }
        }
        let inst = random_instance(12, 3, 34);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let base = random_solution(&inst, &mut rng);
        let t = TaskId::new(6);
        let (lo, hi) = base.valid_range(g, t);
        let machines: Vec<MachineId> = (0..3).map(MachineId::new).collect();
        let moves = relocation_grid(&base, t, lo..=hi, &machines);
        let mut batch = BatchEvaluator::new(&snap);
        // Threshold at the median candidate makespan, so roughly half
        // the candidates go NaN.
        let mut makespans = batch.score_task_moves(&base, &moves, &ObjectiveKind::Makespan);
        makespans.sort_by(f64::total_cmp);
        let objective = SqrtMargin(makespans[makespans.len() / 2]);
        let scores = batch.score_task_moves(&base, &moves, &objective);
        assert!(scores.iter().any(|s| s.is_nan()), "test needs NaN candidates");
        assert!(scores.iter().any(|s| !s.is_nan()), "test needs finite candidates");
        let want = first_min(&moves, &scores).expect("non-empty grid");
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool
                .install(|| {
                    BatchEvaluator::new(&snap).best_relocation(
                        &base,
                        t,
                        lo..=hi,
                        &machines,
                        &objective,
                    )
                })
                .expect("non-empty grid");
            assert_eq!(cell(got), want, "{threads} threads");
        }
    }
}
