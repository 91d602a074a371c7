//! # mshc-schedule
//!
//! Solution substrate for MSHC: the paper's combined matching+scheduling
//! string encoding (§4.1), validity and valid-range machinery (§4.2/§4.5),
//! the analytic evaluator, Gantt extraction, and an independent
//! discrete-event replay simulator used to cross-check the evaluator.
//!
//! ## The evaluation core
//!
//! All evaluation rests on two shared pieces: [`EvalSnapshot`] — a
//! flattened, `Sync` copy of one instance (predecessor CSR + dense
//! `E`/`Tr` slabs, with a flat machine-pair table whose diagonal points
//! at an all-zero `Tr` row) that evaluators walk instead of the
//! pointer-rich [`mshc_platform::HcInstance`] — and [`Objective`] —
//! pluggable lower-is-better scoring (makespan, total/mean flowtime,
//! load balance, weighted blends), selected at run time through the
//! [`ObjectiveKind`] carried by [`RunBudget`], with an
//! incremental-accumulator interface ([`ObjectiveState`]: fold one
//! completed task, finalize) on top of the array-based one.
//!
//! On that base sits a **three-tier evaluation stack**; pick the lowest
//! tier whose shape matches the work:
//!
//! 1. **scalar** — [`Evaluator`]: one full O(k + p) left-to-right pass
//!    per solution. Right for one-off scoring, reports, and arbitrary
//!    (non-incremental) custom objectives.
//! 2. **batch** — [`BatchEvaluator`]: scores whole candidate sets in one
//!    call, fanned out over worker threads with reusable per-thread
//!    arenas; results come back in candidate order, bit-identical at any
//!    thread count. Right for independent candidate sets — arbitrary
//!    whole solutions with no shared lineage.
//! 3. **incremental** — [`IncrementalEvaluator`]: primes a base solution
//!    once, checkpoints frontier state every `⌈√k⌉` positions, and scores
//!    candidates sharing a prefix with the base by replaying only the
//!    disturbed suffix — exact (bit-identical to a full pass),
//!    asymptotically cheaper than tier 1 per candidate. Two entry
//!    shapes: *single-task moves*
//!    ([`score_move`](IncrementalEvaluator::score_move)) for move scans
//!    against a fixed base — tabu's sampled neighborhood, SA's proposal
//!    loop, and SE's allocation scan, which scores all allowed machines
//!    of one position in a single lockstep replay with a lane per
//!    machine ([`score_position`](IncrementalEvaluator::score_position))
//!    — and *arbitrary
//!    prefix-sharing candidates*
//!    ([`score_suffix`](IncrementalEvaluator::score_suffix)) for GA
//!    crossover offspring, which share a literal prefix with a parent
//!    up to their first divergence. The batch move-scoring and
//!    population-scoring ([`score_population`](BatchEvaluator::score_population))
//!    entry points route through per-thread incremental evaluators
//!    automatically, so tiers 2 and 3 compose: GA rides tier 3 like
//!    every other algorithm in the portfolio.
//!
//! *Why suffix replay cannot change fitness bits*: the replay starts
//! from checkpointed frontier state reached by walking exactly the
//! shared prefix (identical segments ⇒ identical floating-point state,
//! since the walk is deterministic and order-preserving), then replays
//! the child's own segments one by one with the same fold a full pass
//! would apply. No value is approximated, reordered, or recomputed
//! along a different association order, so every intermediate — and
//! hence the final objective value — is the same IEEE-754 bit pattern
//! the scalar evaluator produces. Selection pressure in roulette-style
//! algorithms depends on exact fitness values, which is why the
//! population path never engages bound pruning: every child gets its
//! exact score.
//!
//! Tier 3's **fast path** cuts the replay itself two ways, both exact.
//! It serves tabu's neighborhood argmin and SE's first-improvement
//! allocation; SE's best-fit scan runs on machine lanes, which score
//! every candidate to completion:
//!
//! * **Bound pruning**
//!   ([`score_move_bounded`](IncrementalEvaluator::score_move_bounded)):
//!   the caller's best-so-far score rides along, and the replay abandons
//!   a candidate the moment the objective's monotone
//!   [`lower bound`](Objective::lower_bound) reaches it.
//!   *Why this can never change a selection*: suppose the scan's
//!   incumbent scored `b` and a later candidate is pruned. Pruning
//!   required `lower_bound >= b`, and the true score is at least the
//!   lower bound, so the candidate's score is `>= b` — it either loses
//!   to the incumbent outright or ties it, and every scan in the suite
//!   commits strict improvements with earliest-index tie-breaking, so a
//!   tie loses to the earlier incumbent whether it was scored exactly
//!   or abandoned. The winner itself can never be pruned: every bound
//!   it is checked against comes from a strictly worse (or infinite)
//!   score, which its own lower bound cannot reach. Pruned candidates
//!   still count as one evaluation each, so evaluation counts are
//!   unchanged too.
//! * **Reconvergence splicing**: priming precomputes per-checkpoint
//!   suffix aggregates; when a replay's frontier bitwise re-converges
//!   with the base walk at a checkpoint boundary (past the disturbed
//!   window and every perturbed consumer), the tail is spliced from the
//!   aggregates instead of replayed — O(disturbed region) per move, not
//!   O(k − pos). Only exact merges are taken (`max` for makespan; the
//!   full-state identity splice otherwise), preserving bit-identity.
//!
//! ## The encoding
//!
//! A solution is a string of `k` segments, each pairing a subtask with a
//! machine. Pairing `s_i` with `m_j` assigns `s_i` to `m_j` (*matching*);
//! if `s_x` appears left of `s_y` and both are on the same machine, `s_x`
//! runs first (*scheduling*). The paper's §4.2 constructs initial strings
//! as topological orders and §4.5 only ever moves a task within its
//! *valid range*, so strings remain **global linear extensions** of the
//! DAG throughout. [`Solution`] enforces exactly that invariant.
//!
//! (The paper's Figure 2 prints a string whose global order is not a
//! linear extension — `s5` appears left of `s3` although `s3` precedes
//! `s5` — but the two sit on different machines, so the *schedule* it
//! denotes is the same one our canonical string `s0 s1 s2 s3 s4 s5 s6`
//! with the same assignment denotes. Keeping strings canonical linear
//! extensions loses no schedules: any precedence-feasible combination of
//! per-machine orders is induced by some linear extension.)
//!
//! ## Evaluation model
//!
//! The standard macro-dataflow model implied by §2: a task starts once
//! (a) its machine has finished every task earlier in that machine's
//! order and (b) every input data item has arrived; data item `d` sent
//! from `m_a` to `m_b` takes `Tr[{a,b}][d]` (zero if `a == b`); links are
//! contention-free and sends do not occupy the producer. The makespan is
//! the latest finish time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod encoding;
pub mod error;
pub mod eval;
pub mod faults;
pub mod gantt;
pub mod incremental;
pub mod init;
pub mod lower_bound;
pub mod objective;
pub mod replan;
pub mod runner;
pub mod sim;
pub mod snapshot;
pub mod steppable;

pub use batch::{BatchEvaluator, BestMove, Descent, Relocation};
pub use encoding::{Segment, Solution};
pub use error::ScheduleError;
pub use eval::{Evaluator, ScheduleReport};
pub use faults::{CellFault, FaultPlan, FAULT_PANIC_PREFIX};
pub use gantt::Gantt;
pub use incremental::{auto_stride, IncrementalEvaluator, MoveScore, ScanStats};
pub use init::random_solution;
pub use lower_bound::{next_up, InstanceBound};
pub use objective::{
    objective_from_report, BoundHints, EvalView, LoadBalance, Makespan, MeanFlowtime, Objective,
    ObjectiveKind, ObjectiveState, ObjectiveValues, SuffixView, TotalFlowtime, Weighted,
};
pub use replan::{
    Disturbance, DisturbanceKind, DisturbanceRecord, ReplanError, ReplanReport, Replanner,
};
pub use runner::{
    certified_gap, report_objective_value, CancelToken, RunBudget, RunResult, Scheduler,
    Termination,
};
pub use sim::{replay, replay_with, NetworkModel, SimError};
pub use snapshot::EvalSnapshot;
pub use steppable::{
    run_stepped, Incumbent, OneShotStep, SearchStep, StepVerdict, SteppableSearch,
};
