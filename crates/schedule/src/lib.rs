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
//! [`ObjectiveKind`] carried by [`RunBudget`]. Scoring has one rule:
//! every evaluator folds each finished task, in string order, into an
//! [`ObjectiveState`], and [`Objective::finalize`] scores the fold.
//! [`objective_from_report`] applies the same formulas to a
//! [`ScheduleReport`]. An objective declares which fold components its
//! score [reads](Objective::reads), and every scoring kernel folds only
//! those besides the latest finish and the task count (a makespan score
//! folds neither the finish-time sum nor the busy times); reports and
//! primes fold everything.
//!
//! On that base sits a **three-tier evaluation stack**; pick the lowest
//! tier whose shape matches the work:
//!
//! 1. **scalar** — [`Evaluator`]: one full O(k + p) left-to-right pass
//!    per solution. Right for one-off scoring and reports.
//! 2. **batch** — [`BatchEvaluator`]: scores whole candidate sets in one
//!    call, fanned out over worker threads with reusable per-thread
//!    arenas; results come back in candidate order, bit-identical at any
//!    thread count. Right for independent candidate sets — arbitrary
//!    whole solutions with no shared lineage — and for GA generations,
//!    which [`breed_population`](BatchEvaluator::breed_population) breeds
//!    on the calling thread while a worker scores each published child.
//! 3. **incremental** — [`IncrementalEvaluator`]: primes a base solution
//!    once, checkpoints frontier state every `⌈√k⌉` positions, and scores
//!    a single-task move of the base by replaying only the disturbed
//!    suffix — exact (bit-identical to a full pass), asymptotically
//!    cheaper than tier 1 per candidate. Two entry shapes:
//!    [`score_move`](IncrementalEvaluator::score_move), one candidate at
//!    a time, for tabu's sampled neighborhood and SA's proposal loop; and
//!    cell lanes ([`score_cells`](IncrementalEvaluator::score_cells)) for
//!    SE's allocation scan, which replays the base without the relocated
//!    task once, in lockstep, with a lane per cell of the grid, each lane
//!    inserting the task at its own position on its own machine. The
//!    task's producers precede every cell and its consumers follow every
//!    cell, and a lane whose insertion is still ahead holds exactly the
//!    values of the string without the task, so every lane is its own
//!    candidate's replay, op for op. The batch
//!    move-scoring entry points route through per-thread incremental
//!    evaluators automatically, so tiers 2 and 3 compose. GA offspring
//!    share no single-move shape with a parent: a generation
//!    ([`breed_population`](BatchEvaluator::breed_population)) gives exact
//!    clones their donor's cost and every other child one tier-1 pass.
//!
//! *Why suffix replay cannot change a score bit*: the replay starts
//! from checkpointed frontier state reached by walking exactly the
//! shared prefix (identical segments ⇒ identical floating-point state,
//! since the walk is deterministic and order-preserving), then replays
//! the candidate's own segments one by one, to the end of the string,
//! with the same fold a full pass would apply. No value is approximated,
//! reordered, or recomputed along a different association order, so
//! every intermediate — and hence the final objective value — is the
//! same IEEE-754 bit pattern the scalar evaluator produces.
//!
//! *Why SE's allocation scan may skip replays*: the kernel never inserts
//! a task into an idle gap; a task starts at the later of its data-ready
//! time and its machine's previous finish. A schedule is therefore fixed
//! by each machine's task sequence, not by how the string interleaves
//! machines. Sliding the relocated task past a task on another machine
//! keeps every sequence, so the two candidates share every finish time,
//! busy time and the latest finish, bit for bit; only the string-order
//! finish sum can round differently.
//! [`best_relocation`](BatchEvaluator::best_relocation) replays one cell
//! per run of such candidates, inline on the calling thread, and charges
//! every cell as an evaluation. Under an objective that
//! [reads](Objective::reads) that sum (the flowtime objectives, a
//! weighted blend with flowtime), it re-adds each other cell's sum from
//! the replayed lane's finish times in that cell's own string order, the
//! very adds the cell's own replay would fold. An insertion-based kernel
//! would break the fact, and every cell would need its own replay. The
//! kernel's steps are also monotone (`later` and `+` over non-negative
//! costs), so inserting the task can only delay the others: under an
//! objective that [never falls on
//! insertion](Objective::never_falls_on_insertion) (makespan), no cell
//! scores below the string without the task, which one more lane
//! replays, and the scan stops at the first pass whose minimum meets
//! that floor.
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
pub use incremental::{IncrementalEvaluator, MoveScore};
pub use init::{perturb, random_solution};
pub use lower_bound::{next_up, InstanceBound};
pub use objective::{
    objective_from_report, FoldReads, Objective, ObjectiveKind, ObjectiveState, ObjectiveValues,
};
pub use replan::{
    Disturbance, DisturbanceKind, DisturbanceRecord, ReplanError, ReplanReport, Replanner,
};
pub use runner::{
    certified_gap, CancelToken, RunBudget, RunResult, ScanStats, Scheduler, Termination,
};
pub use sim::{replay, replay_with, NetworkModel, SimError};
pub use snapshot::EvalSnapshot;
pub use steppable::{
    run_stepped, Incumbent, OneShotStep, RunLedger, SearchStep, StepVerdict, SteppableSearch,
};
