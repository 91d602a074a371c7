//! # mshc-obs — determinism-safe observability
//!
//! The workspace-wide metrics and tracing layer: a process-global
//! registry of atomic counters, max-gauges and log₂ duration histograms,
//! a JSONL event/span sink, and the [`Snapshot`] export format consumed
//! by `--metrics` and the bench harness.
//!
//! The registry does not count work itself. Each run keeps the one
//! record of its work in its `RunResult` (full passes, scorings,
//! population clones, iterations), and the run counters of the
//! deterministic plane are sums of those records: the run ledger adds a
//! slice's record when the slice closes, a one-shot heuristic its record
//! when it finishes, the tournament engine its cell tallies, the
//! replanner one per replan. No evaluator writes here.
//!
//! ## The two planes
//!
//! Every metric belongs to exactly one plane:
//!
//! * the **deterministic plane** ([`DeterministicPlane`]) holds
//!   algorithmic counters — full passes, move scorings, GA clones,
//!   early stops, iterations, cell completions — that are
//!   reproducible run-to-run and invariant across thread counts (the
//!   house invariant), every counter alike;
//! * the **timing plane** ([`TimingPlane`]) holds pool scheduling
//!   telemetry (steals, queue depths, wake epochs, per-worker chunk
//!   counts) and duration histograms, all of which vary with OS
//!   scheduling and wall clocks and are therefore **never** written
//!   into artifacts that CI byte-compares.
//!
//! ## Why instrumentation cannot change result bits
//!
//! The house invariant demands that enabling observability leaves
//! solutions, objective values, evaluation counts and trace records
//! bit-identical. The registry guarantees this structurally:
//!
//! 1. recording is *write-only*: no hot-path entry point returns a
//!    value that callers branch on, so no counter can feed back into
//!    chunking, move selection, or RNG draw order;
//! 2. recording is allocation-free and lock-free — a relaxed atomic
//!    add at a run, slice or cell boundary — so it cannot introduce
//!    synchronization that reorders work;
//! 3. the RNG streams never touch this crate: nothing here draws
//!    randomness or hands entropy to callers;
//! 4. event emission (which does take a mutex) happens only at coarse
//!    boundaries — cell finished, run ended — never inside evaluator
//!    loops, and emission failures are swallowed;
//! 5. when disabled (the default) every entry point is one relaxed
//!    load and a branch.
//!
//! CI enforces the claim end-to-end by byte-comparing leaderboards and
//! run outputs with metrics on vs off at 1 and 8 threads, and the
//! facade's property tests replay seeds × objectives × thread counts
//! both ways.
//!
//! ## Usage
//!
//! ```
//! use mshc_obs as obs;
//!
//! obs::reset();
//! obs::enable(true);
//! obs::add(obs::Counter::Evaluations, 1);
//! {
//!     let _span = obs::span("scan");
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.deterministic.evaluations, 1);
//! obs::enable(false);
//! let json = snap.to_json(); // the `--metrics` wire format
//! assert!(json.contains("\"schema_version\":3"));
//! ```

mod events;
mod registry;
mod snapshot;

pub use events::{
    emit_event, events_enabled, install_events_file, install_events_writer, record_duration,
    shutdown_events, span, timer, EventValue, HistTimer, Span,
};
pub use registry::{add, enable, enabled, observe, reset, snapshot, Counter, Hist};
pub use snapshot::{DeterministicPlane, Histogram, Snapshot, TimingPlane, BUCKETS, SCHEMA_VERSION};
