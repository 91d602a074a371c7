//! Structured application workloads: classic kernels from the
//! heterogeneous-scheduling literature paired with a generated platform.
//!
//! The paper's introduction motivates HC with scientific applications
//! whose subtasks favor different architectures (SIMD, MIMD, FFT engines,
//! §1–2). These constructors build such applications — FFT pipelines,
//! Gaussian elimination, wavefront stencils — on top of the same
//! range-based platform model as [`crate::WorkloadSpec`], and are used by
//! the examples.

use crate::spec::{
    check_platform, jittered_transfers, Heterogeneity, BASE_CEILING, JITTER_CEILING,
};
use mshc_platform::{HcInstance, HcSystem, Matrix};
use mshc_taskgraph::gen;
use mshc_taskgraph::TaskGraph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Checks the platform parameters [`with_platform`] needs: at least one
/// machine, and a finite CCR of at least 0 that keeps every transfer
/// time it scales finite. An error names the field.
pub(crate) fn validate_platform(
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
) -> Result<(), String> {
    // The transfer of a data item is `ccr · base · mean_factor · jitter`,
    // in that order.
    let mean_factor = (1.0 + heterogeneity.factor_range()) / 2.0;
    check_platform(machines, ccr, ccr * BASE_CEILING * mean_factor * JITTER_CEILING)
}

/// Attaches a random platform (range-based heterogeneity, CCR-targeted
/// transfers) to an arbitrary task graph.
pub fn with_platform(
    graph: TaskGraph,
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
    seed: u64,
) -> HcInstance {
    assert!(machines >= 1, "need at least one machine");
    assert!(ccr.is_finite() && ccr >= 0.0, "CCR must be finite and >= 0");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = graph.task_count();
    let hi = heterogeneity.factor_range();
    let base: Vec<f64> = (0..k).map(|_| rng.gen_range(50.0..BASE_CEILING)).collect();
    let exec = Matrix::from_fn(machines, k, |_, t| base[t] * rng.gen_range(1.0..=hi));
    let mean_factor = (1.0 + hi) / 2.0;
    let scale: Vec<f64> =
        graph.edges().iter().map(|e| ccr * base[e.src.index()] * mean_factor).collect();
    let transfer = jittered_transfers(machines, &scale, &mut rng);
    let sys = HcSystem::with_anonymous_machines(machines, exec, transfer)
        .expect("generated matrices valid");
    HcInstance::new(graph, sys).expect("dimensions agree")
}

/// FFT butterfly application on `2^m` points.
pub fn fft(
    m: u32,
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
    seed: u64,
) -> HcInstance {
    with_platform(gen::fft_butterfly(m).expect("m >= 1"), machines, heterogeneity, ccr, seed)
}

/// Gaussian elimination on an `n × n` matrix.
pub fn gaussian(
    n: usize,
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
    seed: u64,
) -> HcInstance {
    with_platform(gen::gaussian_elimination(n).expect("n >= 2"), machines, heterogeneity, ccr, seed)
}

/// Wavefront stencil (dynamic-programming dependence) on a grid.
pub fn stencil(
    rows: usize,
    cols: usize,
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
    seed: u64,
) -> HcInstance {
    with_platform(
        gen::diamond(rows, cols).expect("grid >= 1x1"),
        machines,
        heterogeneity,
        ccr,
        seed,
    )
}

/// Fork–join pipeline: `branches` parallel chains of `stage_len` stages.
pub fn fork_join(
    branches: usize,
    stage_len: usize,
    machines: usize,
    heterogeneity: Heterogeneity,
    ccr: f64,
    seed: u64,
) -> HcInstance {
    with_platform(
        gen::fork_join(branches, stage_len).expect("branches, stages >= 1"),
        machines,
        heterogeneity,
        ccr,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::InstanceMetrics;

    #[test]
    fn fft_workload_generates() {
        let inst = fft(3, 4, Heterogeneity::Medium, 0.5, 1);
        assert_eq!(inst.task_count(), 32);
        assert_eq!(inst.machine_count(), 4);
    }

    #[test]
    fn gaussian_workload_generates() {
        let inst = gaussian(5, 3, Heterogeneity::High, 1.0, 2);
        assert_eq!(inst.task_count(), 4 + 10); // n-1 pivots + n(n-1)/2 updates
    }

    #[test]
    fn stencil_ccr_tracks_target() {
        let inst = stencil(6, 6, 4, Heterogeneity::Low, 1.0, 3);
        let m = InstanceMetrics::compute(&inst);
        assert!((m.ccr - 1.0).abs() < 0.2, "measured {}", m.ccr);
    }

    #[test]
    fn fork_join_shape() {
        let inst = fork_join(4, 3, 4, Heterogeneity::Medium, 0.1, 4);
        assert_eq!(inst.task_count(), 2 + 12);
        assert_eq!(inst.graph().entry_tasks().len(), 1);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            fft(3, 4, Heterogeneity::Medium, 0.5, 9),
            fft(3, 4, Heterogeneity::Medium, 0.5, 9)
        );
    }
}
