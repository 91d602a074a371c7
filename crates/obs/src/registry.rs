//! The process-wide metrics registry: metric identities and the sharded
//! atomic storage behind [`add`], [`gauge_max`] and [`observe`].
//!
//! Recording is **wait-free and allocation-free**: a counter bump is one
//! relaxed atomic add on a thread-sharded cache line, a gauge update is
//! one relaxed `fetch_max`, a histogram observation is one relaxed add
//! on a log₂ bucket. When the registry is disabled (the default) every
//! entry point is a single relaxed load and a predictable branch; with
//! the `noop` cargo feature the calls compile away entirely.
//!
//! None of this can perturb results: recording performs no allocation,
//! takes no lock, draws no randomness, and never feeds a value back
//! into any caller's control flow — see the crate docs for the full
//! determinism argument.

use crate::snapshot::{DeterministicPlane, Histogram, Snapshot, TimingPlane, BUCKETS};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Which artifact class a metric may flow into.
///
/// The split is the registry's load-bearing design decision, inherited
/// from the house invariant (bit-identical results at any thread
/// count):
///
/// * [`Plane::Deterministic`] metrics are reproducible run-to-run and
///   thread-count *invariant* — every counter, not just evaluations.
///   They may appear in artifacts that CI byte-compares.
/// * [`Plane::Timing`] metrics depend on wall clocks or OS scheduling
///   (steal totals, queue depths, span durations) and are **always
///   excluded** from deterministic artifacts — they live only in
///   `--metrics` exports and JSONL event streams, which are never
///   byte-compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Bit-stable at any thread count; safe for compared artifacts.
    Deterministic,
    /// Wall-clock / scheduling dependent; never byte-compared.
    Timing,
}

/// Monotonic counters of the deterministic plane.
///
/// Every variant counts *algorithmic events* — candidates scored, clones
/// served, cells finished — whose totals are reproducible at any thread
/// count. The scan axes mirror
/// [`ScanStats`](../../mshc_schedule/struct.ScanStats.html): the same
/// evaluator bump sites drive both the per-run struct and this registry,
/// so the two views cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Tier-1 full evaluation passes ([`Evaluator`] objective scorings).
    ///
    /// [`Evaluator`]: ../../mshc_schedule/struct.Evaluator.html
    Evaluations,
    /// Tier-3 move scorings (one per candidate, machine lanes included).
    ScanScored,
    /// Population children served by their parent's cost (exact clones).
    ScanClones,
    /// String positions of those clones, served without a pass.
    ScanClonePositions,
    /// Total string positions across population children scored.
    ScanPopulationPositions,
    /// Scheduler iterations (SE) / generations (GA) executed.
    Iterations,
    /// Runs that terminated early at a certified floor.
    EarlyStops,
    /// Tournament cells that completed.
    CellsCompleted,
    /// Tournament cells that panicked.
    CellsPanicked,
    /// Cell retry attempts after a panic (one per retry, not per cell).
    CellsRetried,
    /// Cells that completed only after at least one retry.
    CellsDegraded,
    /// Runs interrupted by a fired [`CancelToken`]; latched once per
    /// run, like `EarlyStops`.
    ///
    /// [`CancelToken`]: ../../mshc_schedule/struct.CancelToken.html
    Cancellations,
    /// Replanning passes executed after a disturbance.
    Replans,
}

/// Number of [`Counter`] variants (storage array length).
const COUNTERS: usize = Counter::Replans as usize + 1;

impl Counter {
    /// Every counter, in storage order.
    pub const ALL: [Counter; COUNTERS] = [
        Counter::Evaluations,
        Counter::ScanScored,
        Counter::ScanClones,
        Counter::ScanClonePositions,
        Counter::ScanPopulationPositions,
        Counter::Iterations,
        Counter::EarlyStops,
        Counter::CellsCompleted,
        Counter::CellsPanicked,
        Counter::CellsRetried,
        Counter::CellsDegraded,
        Counter::Cancellations,
        Counter::Replans,
    ];

    /// Stable wire name (the snapshot JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Evaluations => "evaluations",
            Counter::ScanScored => "scan_scored",
            Counter::ScanClones => "scan_clones",
            Counter::ScanClonePositions => "scan_clone_positions",
            Counter::ScanPopulationPositions => "scan_population_positions",
            Counter::Iterations => "iterations",
            Counter::EarlyStops => "early_stops",
            Counter::CellsCompleted => "cells_completed",
            Counter::CellsPanicked => "cells_panicked",
            Counter::CellsRetried => "cells_retried",
            Counter::CellsDegraded => "cells_degraded",
            Counter::Cancellations => "cancellations",
            Counter::Replans => "replans",
        }
    }

    /// Counters are deterministic-plane by construction.
    pub fn plane(self) -> Plane {
        Plane::Deterministic
    }
}

/// Maximum-tracking gauges (relaxed `fetch_max` semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Deepest pool ticket queue observed (bridged from the pool shim).
    QueueDepthHwm,
    /// Resident workers spawned (high-water; the crew never shrinks).
    SpawnedWorkers,
}

/// Number of [`Gauge`] variants (storage array length).
const GAUGES: usize = Gauge::SpawnedWorkers as usize + 1;

impl Gauge {
    /// Gauges track scheduling/pool state: timing plane.
    pub fn plane(self) -> Plane {
        Plane::Timing
    }
}

/// Log₂-bucketed duration histograms (microsecond samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Whole parallel move/population scan latency.
    ScanLatencyUs,
    /// Tournament cell wall time.
    CellUs,
    /// Generic named-span duration ([`crate::span`]).
    SpanUs,
    /// Replanning latency per disturbance (freeze + residual search).
    ReplanUs,
}

/// Number of [`Hist`] variants (storage array length).
const HISTS: usize = Hist::ReplanUs as usize + 1;

impl Hist {
    /// Histograms sample wall clocks: timing plane.
    pub fn plane(self) -> Plane {
        Plane::Timing
    }
}

/// Counter shards. More shards than typical worker counts would buy
/// nothing: the shard index is assigned round-robin per thread, so with
/// 8 shards the first 8 recording threads never contend at all.
const SHARDS: usize = 8;

/// One cache-line-aligned shard of every counter, so two threads
/// bumping different shards never share a line.
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; COUNTERS],
}

static SHARD_STORE: [Shard; SHARDS] =
    [const { Shard { counters: [const { AtomicU64::new(0) }; COUNTERS] } }; SHARDS];
static GAUGE_STORE: [AtomicU64; GAUGES] = [const { AtomicU64::new(0) }; GAUGES];
static HIST_STORE: [[AtomicU64; BUCKETS]; HISTS] =
    [const { [const { AtomicU64::new(0) }; BUCKETS] }; HISTS];

/// Whether recording is active (off by default; [`enable`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Round-robin shard assignment for recording threads.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard, assigned on first use.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

/// Turns recording on or off process-wide. Off (the default), every
/// recording entry point is a relaxed load and a branch; existing
/// counts are kept (pair with [`reset`] to start a clean window).
/// Under the `noop` feature this is itself a no-op and the registry
/// stays permanently disabled.
pub fn enable(on: bool) {
    if cfg!(feature = "noop") {
        return;
    }
    ENABLED.store(on, Relaxed);
}

/// Whether recording is currently active.
#[inline]
pub fn enabled() -> bool {
    !cfg!(feature = "noop") && ENABLED.load(Relaxed)
}

/// Adds `n` to a counter. Wait-free, allocation-free; a no-op while the
/// registry is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    SHARD_STORE[shard_index()].counters[counter as usize].fetch_add(n, Relaxed);
}

/// Folds `value` into a maximum-tracking gauge. A no-op while disabled.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    GAUGE_STORE[gauge as usize].fetch_max(value, Relaxed);
}

/// Records one sample (in the histogram's native unit, microseconds for
/// the built-in duration histograms) into a log₂ bucket. A no-op while
/// disabled.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if !enabled() {
        return;
    }
    HIST_STORE[hist as usize][Histogram::bucket_index(value)].fetch_add(1, Relaxed);
}

/// Reads one counter's current total across all shards. Mainly for
/// tests and in-process probes; exports use [`snapshot`].
pub fn counter_value(counter: Counter) -> u64 {
    SHARD_STORE.iter().map(|s| s.counters[counter as usize].load(Relaxed)).sum()
}

/// Assembles a consistent-enough view of every metric: counter totals
/// summed across shards, gauges and histograms as stored, and the pool
/// shim's telemetry bridged into the timing plane. ("Consistent
/// enough": concurrent recorders may land between two shard reads —
/// snapshots taken while the process is quiescent, as the CLI and bench
/// probes do, are exact.)
///
/// Snapshots reflect stored counts whether or not the registry is
/// enabled, so a disabled registry snapshots as zeros plus the always-on
/// pool telemetry.
pub fn snapshot() -> Snapshot {
    let mut det = DeterministicPlane::default();
    for c in Counter::ALL {
        *det.field_mut(c) = counter_value(c);
    }
    let pool = rayon::pool_stats();
    // The pool bridge routes through the gauge machinery (fetch_max,
    // like any other gauge) so `reset` semantics are uniform; bridging
    // bypasses the enabled check because it happens at snapshot time,
    // never on a hot path.
    GAUGE_STORE[Gauge::QueueDepthHwm as usize].fetch_max(pool.queue_depth_hwm, Relaxed);
    GAUGE_STORE[Gauge::SpawnedWorkers as usize].fetch_max(rayon::spawned_workers() as u64, Relaxed);
    let hist = |h: Hist| Histogram {
        buckets: HIST_STORE[h as usize].iter().map(|b| b.load(Relaxed)).collect(),
    };
    let timing = TimingPlane {
        steal_count: pool.steals,
        ops_submitted: pool.ops_submitted,
        chunk_claims: pool.chunk_claims,
        wake_epochs: pool.wake_epochs,
        queue_depth_hwm: GAUGE_STORE[Gauge::QueueDepthHwm as usize].load(Relaxed),
        spawned_workers: GAUGE_STORE[Gauge::SpawnedWorkers as usize].load(Relaxed),
        per_worker_chunks: pool.per_worker_chunks,
        foreign_chunks: pool.foreign_chunks,
        scan_latency_us: hist(Hist::ScanLatencyUs),
        cell_us: hist(Hist::CellUs),
        span_us: hist(Hist::SpanUs),
        replan_us: hist(Hist::ReplanUs),
    };
    Snapshot::assemble(det, timing)
}

/// Zeroes every counter, gauge and histogram, and the pool shim's
/// telemetry. Callers isolate measurement windows with
/// `reset(); ...; snapshot()`.
pub fn reset() {
    for shard in &SHARD_STORE {
        for c in &shard.counters {
            c.store(0, Relaxed);
        }
    }
    for g in &GAUGE_STORE {
        g.store(0, Relaxed);
    }
    for h in &HIST_STORE {
        for b in h {
            b.store(0, Relaxed);
        }
    }
    rayon::reset_pool_stats();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global registry is process state shared by every test in the
    /// binary, so each test works on deltas it produced itself via
    /// distinct counters, or serializes through this lock.
    pub(crate) static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = guard();
        reset();
        enable(false);
        add(Counter::Evaluations, 5);
        gauge_max(Gauge::QueueDepthHwm, 9);
        observe(Hist::SpanUs, 100);
        assert_eq!(counter_value(Counter::Evaluations), 0);
        let snap = snapshot();
        assert_eq!(snap.deterministic.evaluations, 0);
        assert_eq!(snap.timing.span_us.count(), 0);
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording is compiled out under the noop feature")]
    fn enabled_registry_sums_across_threads_and_shards() {
        if cfg!(feature = "noop") {
            return;
        }
        let _g = guard();
        reset();
        enable(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        add(Counter::ScanScored, 1);
                    }
                });
            }
        });
        add(Counter::ScanScored, 10);
        assert_eq!(counter_value(Counter::ScanScored), 4010);
        enable(false);
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording is compiled out under the noop feature")]
    fn gauges_keep_the_maximum() {
        if cfg!(feature = "noop") {
            return;
        }
        let _g = guard();
        reset();
        enable(true);
        gauge_max(Gauge::SpawnedWorkers, 3);
        gauge_max(Gauge::SpawnedWorkers, 7);
        gauge_max(Gauge::SpawnedWorkers, 5);
        let snap = snapshot();
        assert!(snap.timing.spawned_workers >= 7);
        enable(false);
    }

    #[test]
    fn reset_zeroes_every_store() {
        let _g = guard();
        enable(true);
        add(Counter::Iterations, 3);
        observe(Hist::CellUs, 17);
        reset();
        assert_eq!(counter_value(Counter::Iterations), 0);
        let snap = snapshot();
        assert_eq!(snap.timing.cell_us.count(), 0);
        assert_eq!(snap.deterministic.iterations, 0);
        enable(false);
    }

    #[test]
    fn counter_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        assert_eq!(Counter::Evaluations.plane(), Plane::Deterministic);
        assert_eq!(Gauge::QueueDepthHwm.plane(), Plane::Timing);
        assert_eq!(Hist::ScanLatencyUs.plane(), Plane::Timing);
    }
}
