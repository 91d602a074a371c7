//! The workload taxonomy and generator.

use mshc_platform::{HcInstance, HcSystem, Matrix};
use mshc_taskgraph::gen::{layered, LayeredConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Connectivity class (§5): how many data items the DAG carries relative
/// to its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Connectivity {
    /// Sparse DAG (edge probability ≈ 0.15).
    Low,
    /// Medium density (≈ 0.4).
    Medium,
    /// Dense DAG (≈ 0.8).
    High,
}

impl Connectivity {
    /// Edge probability between consecutive layers.
    pub fn edge_prob(self) -> f64 {
        match self {
            Connectivity::Low => 0.15,
            Connectivity::Medium => 0.4,
            Connectivity::High => 0.8,
        }
    }

    /// Stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Connectivity::Low => "low",
            Connectivity::Medium => "medium",
            Connectivity::High => "high",
        }
    }
}

/// Heterogeneity class (§5): how much execution times differ across
/// machines for the same subtask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heterogeneity {
    /// Near-homogeneous machines (`u ~ U(1, 1.25)`).
    Low,
    /// Moderate spread (`u ~ U(1, 2.5)`).
    Medium,
    /// Strong spread (`u ~ U(1, 8)`) — "highly heterogeneous" workloads
    /// where a task's best machine is ~8× faster than its worst.
    High,
}

impl Heterogeneity {
    /// Upper bound of the multiplicative factor range (lower bound is 1).
    pub fn factor_range(self) -> f64 {
        match self {
            Heterogeneity::Low => 1.25,
            Heterogeneity::Medium => 2.5,
            Heterogeneity::High => 8.0,
        }
    }

    /// Stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Heterogeneity::Low => "low",
            Heterogeneity::Medium => "medium",
            Heterogeneity::High => "high",
        }
    }
}

/// Upper bound of the base execution times the generators draw, `U(50,
/// 150)`.
pub(crate) const BASE_CEILING: f64 = 150.0;
/// Upper bound of the jitter a transfer time draws, `U(0.8, 1.2)`.
pub(crate) const JITTER_CEILING: f64 = 1.2;

/// Checks the platform parameters every generator reads: at least one
/// machine and a finite CCR of at least 0 whose `ceiling`, the largest
/// transfer time the generator can draw, is finite. The ceiling is the
/// generator's own product over [`BASE_CEILING`] and [`JITTER_CEILING`]:
/// rounding is monotone, so no drawn transfer exceeds it.
pub(crate) fn check_platform(machines: usize, ccr: f64, ceiling: f64) -> Result<(), String> {
    if machines == 0 {
        return Err("machines: must be at least 1".into());
    }
    if !ccr.is_finite() || ccr < 0.0 {
        return Err(format!("ccr: must be finite and at least 0, got {ccr}"));
    }
    if !ceiling.is_finite() {
        return Err(format!("ccr: {ccr:e} overflows the largest transfer time to infinity"));
    }
    Ok(())
}

/// The `Tr` matrix of `machines` machines: the entry of a machine pair
/// and data item `d` is `scale[d]` times a `U(0.8, 1.2)` jitter, drawn in
/// row-major order.
pub(crate) fn jittered_transfers(machines: usize, scale: &[f64], rng: &mut ChaCha8Rng) -> Matrix {
    let pairs = machines * (machines - 1) / 2;
    Matrix::from_fn(pairs, scale.len(), |_, d| scale[d] * rng.gen_range(0.8..JITTER_CEILING))
}

/// A fully specified random workload: one point of the paper's taxonomy
/// plus a seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of subtasks `k`.
    pub tasks: usize,
    /// Number of machines `l`.
    pub machines: usize,
    /// Connectivity class.
    pub connectivity: Connectivity,
    /// Heterogeneity class.
    pub heterogeneity: Heterogeneity,
    /// Target communication-to-cost ratio (paper uses 0.1 and 1.0).
    pub ccr: f64,
    /// RNG seed; generation is fully deterministic.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's "small size" default: 20 tasks on 5 machines.
    pub fn small(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            tasks: 20,
            machines: 5,
            connectivity: Connectivity::Medium,
            heterogeneity: Heterogeneity::Medium,
            ccr: 0.5,
            seed,
        }
    }

    /// The paper's "large size" comparison setting (§5.3): 100 tasks on
    /// 20 machines.
    pub fn large(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            tasks: 100,
            machines: 20,
            connectivity: Connectivity::Medium,
            heterogeneity: Heterogeneity::Medium,
            ccr: 0.5,
            seed,
        }
    }

    /// Builder-style setters.
    pub fn with_connectivity(mut self, c: Connectivity) -> WorkloadSpec {
        self.connectivity = c;
        self
    }

    /// Sets the heterogeneity class.
    pub fn with_heterogeneity(mut self, h: Heterogeneity) -> WorkloadSpec {
        self.heterogeneity = h;
        self
    }

    /// Sets the target CCR.
    pub fn with_ccr(mut self, ccr: f64) -> WorkloadSpec {
        self.ccr = ccr;
        self
    }

    /// A short tag for file names: `k100_l20_chigh_hlow_ccr0.1_s42`.
    pub fn tag(&self) -> String {
        format!(
            "k{}_l{}_c{}_h{}_ccr{}_s{}",
            self.tasks,
            self.machines,
            self.connectivity.name(),
            self.heterogeneity.name(),
            self.ccr,
            self.seed
        )
    }

    /// Checks the parameters [`generate`](Self::generate) needs: at least
    /// one task and one machine, and a finite CCR of at least 0 that
    /// keeps every transfer time it scales finite. An error names the
    /// field.
    pub fn validate(&self) -> Result<(), String> {
        if self.tasks == 0 {
            return Err("tasks: must be at least 1".into());
        }
        // The transfer of a data item is `ccr · mean_exec · jitter`, in
        // that order, with `mean_exec = base · mean_factor`.
        let mean_factor = (1.0 + self.heterogeneity.factor_range()) / 2.0;
        let ceiling = self.ccr * (BASE_CEILING * mean_factor) * JITTER_CEILING;
        check_platform(self.machines, self.ccr, ceiling)
    }

    /// Deterministically expands the spec into a full instance.
    ///
    /// # Panics
    /// Panics on a spec [`validate`](Self::validate) rejects.
    pub fn generate(&self) -> HcInstance {
        assert!(self.tasks >= 1, "need at least one task");
        assert!(self.machines >= 1, "need at least one machine");
        assert!(self.ccr.is_finite() && self.ccr >= 0.0, "CCR must be finite and >= 0");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // --- DAG ---
        let cfg = LayeredConfig {
            tasks: self.tasks,
            mean_width: (self.tasks / 10).clamp(2, 12).min(self.tasks),
            edge_prob: self.connectivity.edge_prob(),
            skip_prob: self.connectivity.edge_prob() / 8.0,
        };
        let graph = layered(&cfg, &mut rng).expect("tasks >= 1");

        // --- execution times (range-based heterogeneity) ---
        let hi = self.heterogeneity.factor_range();
        let base: Vec<f64> = (0..self.tasks).map(|_| rng.gen_range(50.0..BASE_CEILING)).collect();
        let exec =
            Matrix::from_fn(self.machines, self.tasks, |_, t| base[t] * rng.gen_range(1.0..=hi));

        // --- transfer times targeting the CCR ---
        // mean_exec(t) = base[t] * E[u] = base[t] * (1 + hi) / 2, and a data
        // item scales as ccr * mean_exec(producer).
        let mean_factor = (1.0 + hi) / 2.0;
        let scale: Vec<f64> =
            graph.edges().iter().map(|e| self.ccr * (base[e.src.index()] * mean_factor)).collect();
        let transfer = jittered_transfers(self.machines, &scale, &mut rng);

        let sys = HcSystem::with_anonymous_machines(self.machines, exec, transfer)
            .expect("generated matrices are valid by construction");
        HcInstance::new(graph, sys).expect("dimensions agree by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::InstanceMetrics;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::large(7);
        assert_eq!(spec.generate(), spec.generate());
        let other = WorkloadSpec { seed: 8, ..spec };
        assert_ne!(spec.generate(), other.generate());
    }

    #[test]
    fn sizes_match_spec() {
        let spec = WorkloadSpec::large(1);
        let inst = spec.generate();
        assert_eq!(inst.task_count(), 100);
        assert_eq!(inst.machine_count(), 20);
        let small = WorkloadSpec::small(1).generate();
        assert_eq!(small.task_count(), 20);
        assert_eq!(small.machine_count(), 5);
    }

    #[test]
    fn connectivity_orders_data_item_counts() {
        let base = WorkloadSpec::large(3);
        let lo = base.with_connectivity(Connectivity::Low).generate();
        let hi = base.with_connectivity(Connectivity::High).generate();
        assert!(
            hi.data_count() as f64 > 2.5 * lo.data_count() as f64,
            "high {} vs low {}",
            hi.data_count(),
            lo.data_count()
        );
    }

    #[test]
    fn heterogeneity_orders_measured_cv() {
        let base = WorkloadSpec::large(4);
        let measure =
            |h| InstanceMetrics::compute(&base.with_heterogeneity(h).generate()).heterogeneity;
        let (lo, mid, hi) = (
            measure(Heterogeneity::Low),
            measure(Heterogeneity::Medium),
            measure(Heterogeneity::High),
        );
        assert!(lo < mid && mid < hi, "CV ordering violated: {lo} {mid} {hi}");
        assert!(lo < 0.15, "low heterogeneity should be nearly homogeneous: {lo}");
        assert!(hi > 0.4, "high heterogeneity should spread widely: {hi}");
    }

    #[test]
    fn measured_ccr_tracks_target() {
        for target in [0.1, 0.5, 1.0] {
            let spec = WorkloadSpec::large(5).with_ccr(target);
            let m = InstanceMetrics::compute(&spec.generate());
            assert!(
                (m.ccr - target).abs() < target * 0.15 + 0.01,
                "target {target}, measured {}",
                m.ccr
            );
        }
    }

    #[test]
    fn zero_ccr_means_free_communication() {
        let inst = WorkloadSpec::small(6).with_ccr(0.0).generate();
        assert!(inst.system().transfer_matrix().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_machine_workload() {
        let spec = WorkloadSpec {
            tasks: 10,
            machines: 1,
            connectivity: Connectivity::Medium,
            heterogeneity: Heterogeneity::Low,
            ccr: 1.0,
            seed: 0,
        };
        let inst = spec.generate();
        assert_eq!(inst.machine_count(), 1);
        assert_eq!(inst.system().transfer_matrix().rows(), 0);
    }

    #[test]
    fn tag_is_filename_safe() {
        let tag = WorkloadSpec::large(42).with_connectivity(Connectivity::High).with_ccr(0.1).tag();
        assert_eq!(tag, "k100_l20_chigh_hmedium_ccr0.1_s42");
        assert!(!tag.contains(' ') && !tag.contains('/'));
    }

    #[test]
    fn validate_names_each_degenerate_field() {
        let spec = WorkloadSpec::small(0);
        assert_eq!(spec.validate(), Ok(()));
        for (bad, want) in [
            (WorkloadSpec { tasks: 0, ..spec }, "tasks: must be at least 1"),
            (WorkloadSpec { machines: 0, ..spec }, "machines: must be at least 1"),
            (spec.with_ccr(-1.0), "ccr: must be finite and at least 0, got -1"),
            (spec.with_ccr(f64::NAN), "ccr: must be finite and at least 0, got NaN"),
            (spec.with_ccr(f64::INFINITY), "ccr: must be finite and at least 0, got inf"),
            (spec.with_ccr(1e308), "ccr: 1e308 overflows the largest transfer time"),
        ] {
            let e = bad.validate().unwrap_err();
            assert!(e.starts_with(want), "{e}");
        }
        // The largest CCR that validates generates finite transfers under
        // every heterogeneity class.
        for h in [Heterogeneity::Low, Heterogeneity::Medium, Heterogeneity::High] {
            let spec = spec.with_heterogeneity(h);
            let ceiling = f64::MAX / (BASE_CEILING * (1.0 + h.factor_range()) / 2.0);
            let ccr = (ceiling / JITTER_CEILING) * 0.999_999;
            assert_eq!(spec.with_ccr(ccr).validate(), Ok(()), "{h:?}");
            spec.with_ccr(ccr).generate();
            assert!(spec.with_ccr(ccr * 1.001).validate().is_err(), "{h:?}");
        }
    }

    #[test]
    #[should_panic(expected = "CCR")]
    fn negative_ccr_rejected() {
        let _ = WorkloadSpec::small(0).with_ccr(-1.0).generate();
    }
}
