//! Point-in-time registry exports: the [`Snapshot`] struct, its two
//! planes, log₂ [`Histogram`]s, and the merge algebra used to combine
//! snapshots from measurement windows or tournament cells.

use crate::registry::Counter;
use serde::{Deserialize, Serialize};

/// Version stamp written into every exported snapshot (and into
/// `BENCH_eval.json`). Bump on any wire-incompatible change to
/// [`Snapshot`]; additive fields with `#[serde(default)]` do not
/// require a bump.
pub const SCHEMA_VERSION: u32 = 3;

/// Number of log₂ histogram buckets: bucket `b` (for `b ≥ 1`) counts
/// samples `v` with `2^(b-1) ≤ v < 2^b`; bucket 0 counts `v == 0`,
/// bucket 64 is reached only by `v ≥ 2^63`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucketing is `64 - leading_zeros(v)` — the bit width of the sample —
/// so bucket boundaries are exact powers of two and merging two
/// histograms is an elementwise sum (the merge is associative and
/// commutative, which the unit tests pin down).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket sample counts; length [`BUCKETS`] when populated,
    /// possibly empty for a default/zero histogram.
    #[serde(default)]
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// The bucket a sample lands in: its bit width (0 for 0, 64 for
    /// values at or above `2^63`).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower edge of a bucket (0 for buckets 0 and 1).
    pub fn bucket_floor(bucket: usize) -> u64 {
        match bucket {
            0 | 1 => 0,
            b => 1u64 << (b - 1),
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Elementwise-sum merge; tolerates differing (or empty) lengths.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }
}

/// The deterministic plane: counters that are reproducible run-to-run
/// and thread-count *invariant* — every one of them, not just the
/// evaluation counts (the house invariant). Field names match
/// [`Counter::name`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicPlane {
    /// Tier-1 full evaluation passes.
    #[serde(default)]
    pub evaluations: u64,
    /// Tier-3 move scorings: replays, not evaluations (mirrors
    /// `ScanStats::scored`, which says how the two differ).
    #[serde(default)]
    pub scan_scored: u64,
    /// Population children served by their parent's cost (exact clones).
    #[serde(default)]
    pub scan_clones: u64,
    /// String positions of those clones, served without a pass.
    #[serde(default)]
    pub scan_clone_positions: u64,
    /// Total string positions across population children scored.
    #[serde(default)]
    pub scan_population_positions: u64,
    /// Scheduler iterations / GA generations executed.
    #[serde(default)]
    pub iterations: u64,
    /// Runs that terminated early at a certified floor.
    #[serde(default)]
    pub early_stops: u64,
    /// Tournament cells completed.
    #[serde(default)]
    pub cells_completed: u64,
    /// Tournament cells that panicked.
    #[serde(default)]
    pub cells_panicked: u64,
    /// Cell retry attempts after a panic (one per retry, not per cell).
    #[serde(default)]
    pub cells_retried: u64,
    /// Cells that completed only after at least one retry.
    #[serde(default)]
    pub cells_degraded: u64,
    /// Runs interrupted by a fired cancel token.
    #[serde(default)]
    pub cancellations: u64,
    /// Replanning passes executed after a disturbance.
    #[serde(default)]
    pub replans: u64,
}

impl DeterministicPlane {
    /// Mutable access by counter identity (keeps the registry's
    /// snapshot assembly loop exhaustive by construction).
    pub(crate) fn field_mut(&mut self, c: Counter) -> &mut u64 {
        match c {
            Counter::Evaluations => &mut self.evaluations,
            Counter::ScanScored => &mut self.scan_scored,
            Counter::ScanClones => &mut self.scan_clones,
            Counter::ScanClonePositions => &mut self.scan_clone_positions,
            Counter::ScanPopulationPositions => &mut self.scan_population_positions,
            Counter::Iterations => &mut self.iterations,
            Counter::EarlyStops => &mut self.early_stops,
            Counter::CellsCompleted => &mut self.cells_completed,
            Counter::CellsPanicked => &mut self.cells_panicked,
            Counter::CellsRetried => &mut self.cells_retried,
            Counter::CellsDegraded => &mut self.cells_degraded,
            Counter::Cancellations => &mut self.cancellations,
            Counter::Replans => &mut self.replans,
        }
    }

    /// Fraction of population string positions served by exact clones
    /// (same definition as `ScanStats::prefix_reuse_fraction`).
    pub fn clone_fraction(&self) -> f64 {
        fraction(self.scan_clone_positions, self.scan_population_positions)
    }

    /// Sum merge: every deterministic counter is additive.
    pub fn merge(&mut self, other: &DeterministicPlane) {
        self.evaluations += other.evaluations;
        self.scan_scored += other.scan_scored;
        self.scan_clones += other.scan_clones;
        self.scan_clone_positions += other.scan_clone_positions;
        self.scan_population_positions += other.scan_population_positions;
        self.iterations += other.iterations;
        self.early_stops += other.early_stops;
        self.cells_completed += other.cells_completed;
        self.cells_panicked += other.cells_panicked;
        self.cells_retried += other.cells_retried;
        self.cells_degraded += other.cells_degraded;
        self.cancellations += other.cancellations;
        self.replans += other.replans;
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The timing plane: pool scheduling telemetry and duration histograms.
/// Everything here varies run-to-run (OS scheduling, wall clocks) and
/// is **never** written into artifacts that CI byte-compares.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingPlane {
    /// Tickets stolen from another worker's queue.
    #[serde(default)]
    pub steal_count: u64,
    /// Parallel operations submitted to the resident pool.
    #[serde(default)]
    pub ops_submitted: u64,
    /// Chunks claimed across all operations.
    #[serde(default)]
    pub chunk_claims: u64,
    /// Wake-epoch bumps (pool-wide wakeups signalled).
    #[serde(default)]
    pub wake_epochs: u64,
    /// Deepest per-worker ticket queue observed.
    #[serde(default)]
    pub queue_depth_hwm: u64,
    /// Resident workers spawned (high-water).
    #[serde(default)]
    pub spawned_workers: u64,
    /// Chunks claimed by each resident worker, indexed by worker.
    #[serde(default)]
    pub per_worker_chunks: Vec<u64>,
    /// Chunks claimed outside resident workers (the submitting thread
    /// engaging with its own operation).
    #[serde(default)]
    pub foreign_chunks: u64,
    /// Whole parallel-scan latencies, microseconds.
    #[serde(default)]
    pub scan_latency_us: Histogram,
    /// Tournament cell wall times, microseconds.
    #[serde(default)]
    pub cell_us: Histogram,
    /// Named span durations, microseconds.
    #[serde(default)]
    pub span_us: Histogram,
    /// Replanning latencies per disturbance, microseconds.
    #[serde(default)]
    pub replan_us: Histogram,
}

impl TimingPlane {
    /// Merge: counters sum, high-water marks take the max, per-worker
    /// chunk vectors sum elementwise (padding the shorter), histograms
    /// sum elementwise.
    pub fn merge(&mut self, other: &TimingPlane) {
        self.steal_count += other.steal_count;
        self.ops_submitted += other.ops_submitted;
        self.chunk_claims += other.chunk_claims;
        self.wake_epochs += other.wake_epochs;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.spawned_workers = self.spawned_workers.max(other.spawned_workers);
        if self.per_worker_chunks.len() < other.per_worker_chunks.len() {
            self.per_worker_chunks.resize(other.per_worker_chunks.len(), 0);
        }
        for (dst, src) in self.per_worker_chunks.iter_mut().zip(other.per_worker_chunks.iter()) {
            *dst += src;
        }
        self.foreign_chunks += other.foreign_chunks;
        self.scan_latency_us.merge(&other.scan_latency_us);
        self.cell_us.merge(&other.cell_us);
        self.span_us.merge(&other.span_us);
        self.replan_us.merge(&other.replan_us);
    }
}

/// A point-in-time export of the whole registry: schema stamp, the
/// deterministic plane, and the timing plane. This is the payload of
/// `--metrics <out.json>` and the input to `run --report`'s renderer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    #[serde(default)]
    pub schema_version: u32,
    /// Counters reproducible at any thread count.
    #[serde(default)]
    pub deterministic: DeterministicPlane,
    /// Scheduling/wall-clock telemetry, never byte-compared.
    #[serde(default)]
    pub timing: TimingPlane,
}

impl Snapshot {
    /// Builds a snapshot from already-collected planes, stamping the
    /// current [`SCHEMA_VERSION`].
    pub fn assemble(deterministic: DeterministicPlane, timing: TimingPlane) -> Snapshot {
        Snapshot { schema_version: SCHEMA_VERSION, deterministic, timing }
    }

    /// Plane-wise merge (deterministic counters sum; timing merges per
    /// [`TimingPlane::merge`]). Keeps the larger schema stamp.
    pub fn merge(&mut self, other: &Snapshot) {
        self.schema_version = self.schema_version.max(other.schema_version);
        self.deterministic.merge(&other.deterministic);
        self.timing.merge(&other.timing);
    }

    /// Serializes to the `--metrics` JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses the `--metrics` JSON wire format (the schema check used
    /// by CI and tests).
    pub fn from_json(s: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index((1 << 62) - 1), 62);
        assert_eq!(Histogram::bucket_index(1 << 62), 63);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every bucket index is in range, and floors are consistent
        // with indexing: a floor value lands in its own bucket.
        for b in 0..BUCKETS {
            let floor = Histogram::bucket_floor(b);
            if b >= 1 {
                assert_eq!(Histogram::bucket_index(floor.max(1)), b.max(1));
            }
            assert!(Histogram::bucket_index(floor) < BUCKETS);
        }
    }

    fn hist_of(samples: &[u64]) -> Histogram {
        let mut h = Histogram { buckets: vec![0; BUCKETS] };
        for &s in samples {
            h.buckets[Histogram::bucket_index(s)] += 1;
        }
        h
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let a = hist_of(&[0, 1, 5, 1000]);
        let b = hist_of(&[2, 2, 7]);
        let c = hist_of(&[u64::MAX, 63, 64]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
        assert_eq!(ab_c.count(), 10);
    }

    fn sample_snapshot(k: u64) -> Snapshot {
        let det = DeterministicPlane {
            evaluations: 10 * k,
            scan_scored: 8 * k,
            scan_clones: 2 * k,
            scan_clone_positions: 5 * k,
            scan_population_positions: 9 * k,
            iterations: k,
            early_stops: k % 2,
            cells_completed: k,
            cells_panicked: 0,
            cells_retried: k % 3,
            cells_degraded: k % 2,
            cancellations: k,
            replans: k,
        };
        let timing = TimingPlane {
            steal_count: k,
            ops_submitted: 2 * k,
            chunk_claims: 16 * k,
            wake_epochs: 4 * k,
            queue_depth_hwm: 3 + k,
            spawned_workers: 1 + k,
            per_worker_chunks: vec![k; (1 + k) as usize],
            foreign_chunks: k,
            scan_latency_us: hist_of(&[k, 10 * k, 100 * k]),
            cell_us: hist_of(&[1000 * k]),
            span_us: Histogram::default(),
            replan_us: hist_of(&[50 * k]),
        };
        Snapshot::assemble(det, timing)
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let (a, b, c) = (sample_snapshot(1), sample_snapshot(2), sample_snapshot(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.deterministic.evaluations, 60);
        assert_eq!(left.timing.queue_depth_hwm, 6);
        assert_eq!(left.timing.per_worker_chunks, vec![6, 6, 5, 3]);
    }

    #[test]
    fn fractions_match_scan_stats_definitions() {
        let det = sample_snapshot(2).deterministic;
        assert!((det.clone_fraction() - 10.0 / 18.0).abs() < 1e-12);
        let zero = DeterministicPlane::default();
        assert_eq!(zero.clone_fraction(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot(3);
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        // Defaults tolerate a bare document (forward compatibility).
        let minimal = Snapshot::from_json("{\"schema_version\":1}").expect("minimal");
        assert_eq!(minimal.deterministic, DeterministicPlane::default());
    }

    #[test]
    fn older_snapshots_migrate_forward() {
        // A schema-1 document (pre fault-tolerance counters) parses into
        // the current struct: missing counters default to zero, the replan
        // histogram defaults to empty, and the old stamp is preserved so
        // callers can detect the migration.
        let v1 = concat!(
            "{\"schema_version\":1,",
            "\"deterministic\":{\"evaluations\":42,\"iterations\":7,",
            "\"cells_completed\":3,\"cells_panicked\":1},",
            "\"timing\":{\"steal_count\":5,",
            "\"span_us\":{\"buckets\":[0,2]}}}"
        );
        let snap = Snapshot::from_json(v1).expect("v1 parses");
        assert_eq!(snap.schema_version, 1);
        assert_eq!(snap.deterministic.evaluations, 42);
        assert_eq!(snap.deterministic.cells_panicked, 1);
        assert_eq!(snap.deterministic.cells_retried, 0);
        assert_eq!(snap.deterministic.cells_degraded, 0);
        assert_eq!(snap.deterministic.cancellations, 0);
        assert_eq!(snap.deterministic.replans, 0);
        assert_eq!(snap.timing.replan_us, Histogram::default());
        // Merging a v1 snapshot into a current one keeps the newer stamp.
        let mut merged = Snapshot::assemble(DeterministicPlane::default(), TimingPlane::default());
        merged.merge(&snap);
        assert_eq!(merged.schema_version, SCHEMA_VERSION);
        assert_eq!(merged.deterministic.evaluations, 42);
        // A schema-2 document still carrying the retired scan_pruned,
        // scan_spliced and scan_suffixed counters parses too; the retired
        // keys are ignored.
        let v2 = concat!(
            "{\"schema_version\":2,",
            "\"deterministic\":{\"scan_scored\":9,\"scan_pruned\":5,\"scan_spliced\":2,",
            "\"scan_suffixed\":4}}"
        );
        let snap = Snapshot::from_json(v2).expect("v2 parses");
        assert_eq!(snap.schema_version, 2);
        assert_eq!(snap.deterministic, DeterministicPlane { scan_scored: 9, ..Default::default() });
    }
}
