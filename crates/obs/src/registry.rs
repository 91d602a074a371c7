//! The process-wide metrics registry: metric identities and the atomic
//! storage behind [`add`] and [`observe`].
//!
//! Recording is **wait-free and allocation-free**: one relaxed atomic
//! add per counter or histogram sample. Counters are written at run,
//! slice, cell and replan boundaries, never per evaluation, so one array
//! of atomics serves every thread. When the registry is disabled (the
//! default) every entry point is a single relaxed load and a branch.
//!
//! None of this can perturb results: recording performs no allocation,
//! takes no lock, draws no randomness, and never feeds a value back
//! into any caller's control flow — see the crate docs for the full
//! determinism argument.

use crate::snapshot::{DeterministicPlane, Histogram, Snapshot, TimingPlane, BUCKETS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Monotonic counters of the deterministic plane.
///
/// Every variant counts *algorithmic events* — candidates scored, clones
/// served, cells finished — whose totals are reproducible at any thread
/// count. The run counters (`Evaluations` through `Iterations`) are sums
/// of the runs' own records,
/// [`ScanStats`](../../mshc_schedule/struct.ScanStats.html) and the
/// iteration count, added by the run ledger per slice and by one-shot
/// heuristics per run, so the two views cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Full passes (`ScanStats::full_passes`): tier-1 walks of a whole
    /// solution that runs made to search. Not the runs' charged
    /// evaluations, which count candidates considered.
    Evaluations,
    /// Scorings (`ScanStats::scored`): tier-3 replays, one per candidate
    /// a suffix replay or a cell lane scores.
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
}

/// Maximum-tracking gauges (relaxed `fetch_max` semantics), bridged
/// from the pool shim at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum Gauge {
    /// Deepest pool ticket queue observed (bridged from the pool shim).
    QueueDepthHwm,
    /// Resident workers spawned (high-water; the crew never shrinks).
    SpawnedWorkers,
}

/// Number of [`Gauge`] variants (storage array length).
const GAUGES: usize = Gauge::SpawnedWorkers as usize + 1;

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

static COUNTER_STORE: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];
static GAUGE_STORE: [AtomicU64; GAUGES] = [const { AtomicU64::new(0) }; GAUGES];
static HIST_STORE: [[AtomicU64; BUCKETS]; HISTS] =
    [const { [const { AtomicU64::new(0) }; BUCKETS] }; HISTS];

/// Whether recording is active (off by default; [`enable`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off process-wide. Off (the default), every
/// recording entry point is a relaxed load and a branch; existing
/// counts are kept (pair with [`reset`] to start a clean window).
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether recording is currently active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Adds `n` to a counter. Wait-free, allocation-free; a no-op while the
/// registry is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    COUNTER_STORE[counter as usize].fetch_add(n, Relaxed);
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

/// Assembles a consistent-enough view of every metric: counter totals,
/// gauges and histograms as stored, and the pool shim's telemetry
/// bridged into the timing plane. ("Consistent enough": concurrent
/// recorders may land between two counter reads — snapshots taken while
/// the process is quiescent, as the CLI and bench probes do, are
/// exact.)
///
/// Snapshots reflect stored counts whether or not the registry is
/// enabled, so a disabled registry snapshots as zeros plus the always-on
/// pool telemetry.
pub fn snapshot() -> Snapshot {
    let mut det = DeterministicPlane::default();
    for c in Counter::ALL {
        *det.field_mut(c) = COUNTER_STORE[c as usize].load(Relaxed);
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
    for c in &COUNTER_STORE {
        c.store(0, Relaxed);
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
        observe(Hist::SpanUs, 100);
        let snap = snapshot();
        assert_eq!(snap.deterministic.evaluations, 0);
        assert_eq!(snap.timing.span_us.count(), 0);
    }

    #[test]
    fn enabled_registry_sums_across_threads() {
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
        assert_eq!(snapshot().deterministic.scan_scored, 4010);
        enable(false);
    }

    #[test]
    fn reset_zeroes_every_store() {
        let _g = guard();
        enable(true);
        add(Counter::Iterations, 3);
        observe(Hist::CellUs, 17);
        reset();
        let snap = snapshot();
        assert_eq!(snap.timing.cell_us.count(), 0);
        assert_eq!(snap.deterministic.iterations, 0);
        enable(false);
    }

    #[test]
    fn every_counter_has_its_own_field() {
        let _g = guard();
        reset();
        enable(true);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            add(c, 1 << i);
        }
        let mut det = snapshot().deterministic;
        enable(false);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*det.field_mut(c), 1 << i, "{c:?}");
        }
    }
}
