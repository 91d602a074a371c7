//! Scenario grids for fleet-level experiments.
//!
//! A [`Scenario`] is one *workload class without a seed*: a DAG shape
//! (random layered or one of the structured kernels) crossed with a
//! platform configuration (machine count, [`Heterogeneity`], CCR). The
//! tournament engine (`mshc-portfolio`) races every algorithm on every
//! scenario × seed × objective cell; [`Scenario::generate`] expands a
//! scenario deterministically for a given replicate seed, so any cell
//! anywhere reproduces from its coordinates alone.
//!
//! [`suite`], [`small_suite`] and [`tiny_suite`] enumerate ready-made
//! grids (full taxonomy sweep, a quick cross-shape sample, and a
//! CI-smoke pair). Every scenario's [`tag`](Scenario::tag) is unique
//! within and across the built-in suites — the tag is the stable cell
//! coordinate used in leaderboards, CSV rows and file names.

use crate::spec::{Connectivity, Heterogeneity, WorkloadSpec};
use crate::structured;
use mshc_platform::HcInstance;
use serde::{Deserialize, Serialize};

/// The DAG family a scenario draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DagShape {
    /// Random layered DAG (the paper's §5 generator); `shape_a` = tasks,
    /// connectivity class applies.
    Layered,
    /// FFT butterfly on `2^shape_a` points.
    Fft,
    /// Gaussian elimination on a `shape_a × shape_a` matrix.
    Gaussian,
    /// Wavefront stencil on a `shape_a × shape_b` grid.
    Stencil,
    /// Fork–join: `shape_a` parallel chains of `shape_b` stages.
    ForkJoin,
}

impl DagShape {
    /// Short stable identifier used in tags.
    pub fn name(self) -> &'static str {
        match self {
            DagShape::Layered => "lay",
            DagShape::Fft => "fft",
            DagShape::Gaussian => "gauss",
            DagShape::Stencil => "sten",
            DagShape::ForkJoin => "fj",
        }
    }
}

/// One workload class of a scenario grid: DAG shape × platform
/// (machines, heterogeneity, CCR), minus the seed.
///
/// Kept flat (unit-variant shape enum + two generic shape parameters)
/// so it serializes with the vendored serde derive and stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// DAG family.
    pub shape: DagShape,
    /// Primary shape parameter (see [`DagShape`] variant docs).
    pub shape_a: usize,
    /// Secondary shape parameter; 0 when the shape has none.
    pub shape_b: usize,
    /// Machine count `l`.
    pub machines: usize,
    /// Connectivity class — only the [`DagShape::Layered`] generator
    /// reads it; structured kernels have fixed dependence structure.
    pub connectivity: Connectivity,
    /// Heterogeneity class of the platform's execution-time spread.
    pub heterogeneity: Heterogeneity,
    /// Target communication-to-cost ratio.
    pub ccr: f64,
}

impl Scenario {
    /// A random-layered-DAG scenario (the §5 taxonomy point).
    pub fn layered(
        tasks: usize,
        machines: usize,
        connectivity: Connectivity,
        heterogeneity: Heterogeneity,
        ccr: f64,
    ) -> Scenario {
        Scenario {
            shape: DagShape::Layered,
            shape_a: tasks,
            shape_b: 0,
            machines,
            connectivity,
            heterogeneity,
            ccr,
        }
    }

    /// A structured-kernel scenario. `connectivity` is recorded as
    /// [`Connectivity::Medium`] but unused by the generators.
    pub fn kernel(
        shape: DagShape,
        shape_a: usize,
        shape_b: usize,
        machines: usize,
        heterogeneity: Heterogeneity,
        ccr: f64,
    ) -> Scenario {
        debug_assert!(shape != DagShape::Layered, "use Scenario::layered");
        Scenario {
            shape,
            shape_a,
            shape_b,
            machines,
            connectivity: Connectivity::Medium,
            heterogeneity,
            ccr,
        }
    }

    /// The stable cell coordinate: filename- and CSV-safe, unique per
    /// distinct scenario (shape parameters, machines, classes and CCR
    /// are all encoded).
    pub fn tag(&self) -> String {
        let shape = match self.shape {
            DagShape::Layered => {
                format!("{}{}_c{}", self.shape.name(), self.shape_a, self.connectivity.name())
            }
            DagShape::Fft | DagShape::Gaussian => format!("{}{}", self.shape.name(), self.shape_a),
            DagShape::Stencil | DagShape::ForkJoin => {
                format!("{}{}x{}", self.shape.name(), self.shape_a, self.shape_b)
            }
        };
        format!("{shape}_l{}_h{}_ccr{}", self.machines, self.heterogeneity.name(), self.ccr)
    }

    /// Checks the parameters [`generate`](Self::generate) needs: the
    /// shape parameters its DAG generator asserts on, at least one
    /// machine, and a finite CCR of at least 0 that keeps every transfer
    /// time finite. An error names the field.
    pub fn validate(&self) -> Result<(), String> {
        let (a, b) = (self.shape_a, self.shape_b);
        // A two-parameter shape names `shape_b` when only it is at fault.
        let grid = if a == 0 { "shape_a" } else { "shape_b" };
        let (field, shape) = match self.shape {
            DagShape::Layered => return self.layered_spec(0).validate(),
            // `2^a (a + 1)` tasks must fit the 32-bit task ids.
            DagShape::Fft if !(1..=27).contains(&a) => {
                ("shape_a", format!("an FFT needs 1 to 27 ranks (2^shape_a points), got {a}"))
            }
            DagShape::Gaussian if a < 2 => (
                "shape_a",
                format!("Gaussian elimination needs a matrix of at least 2 x 2, got {a}"),
            ),
            DagShape::Stencil if a == 0 || b == 0 => {
                (grid, format!("a stencil needs at least 1 x 1 cells, got {a} x {b}"))
            }
            DagShape::ForkJoin if a == 0 || b == 0 => {
                (grid, format!("a fork-join needs at least 1 branch of 1 stage, got {a} of {b}"))
            }
            _ => return structured::validate_platform(self.machines, self.heterogeneity, self.ccr),
        };
        Err(format!("{field}: {shape}"))
    }

    /// The layered workload of this scenario for one seed.
    fn layered_spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            tasks: self.shape_a,
            machines: self.machines,
            connectivity: self.connectivity,
            heterogeneity: self.heterogeneity,
            ccr: self.ccr,
            seed,
        }
    }

    /// Deterministically expands the scenario for one replicate seed:
    /// same scenario + same seed → bit-identical instance, everywhere.
    ///
    /// # Panics
    /// On a scenario [`validate`](Self::validate) rejects. A tournament
    /// spec validates its scenarios before any cell runs.
    pub fn generate(&self, seed: u64) -> HcInstance {
        match self.shape {
            DagShape::Layered => self.layered_spec(seed).generate(),
            DagShape::Fft => structured::fft(
                self.shape_a as u32,
                self.machines,
                self.heterogeneity,
                self.ccr,
                seed,
            ),
            DagShape::Gaussian => structured::gaussian(
                self.shape_a,
                self.machines,
                self.heterogeneity,
                self.ccr,
                seed,
            ),
            DagShape::Stencil => structured::stencil(
                self.shape_a,
                self.shape_b,
                self.machines,
                self.heterogeneity,
                self.ccr,
                seed,
            ),
            DagShape::ForkJoin => structured::fork_join(
                self.shape_a,
                self.shape_b,
                self.machines,
                self.heterogeneity,
                self.ccr,
                seed,
            ),
        }
    }
}

/// The full tournament grid: 5 DAG shapes (two layered connectivity
/// classes plus three structured kernels) × CCR {0.1, 1.0} ×
/// heterogeneity {low, high} × machine count {4, 12} — 40 scenarios
/// spanning the paper's §5 taxonomy and the §1 structured applications.
pub fn suite() -> Vec<Scenario> {
    let mut out = Vec::new();
    for &machines in &[4usize, 12] {
        for &heterogeneity in &[Heterogeneity::Low, Heterogeneity::High] {
            for &ccr in &[0.1f64, 1.0] {
                out.push(Scenario::layered(48, machines, Connectivity::Medium, heterogeneity, ccr));
                out.push(Scenario::layered(48, machines, Connectivity::High, heterogeneity, ccr));
                out.push(Scenario::kernel(DagShape::Fft, 3, 0, machines, heterogeneity, ccr));
                out.push(Scenario::kernel(DagShape::Gaussian, 7, 0, machines, heterogeneity, ccr));
                out.push(Scenario::kernel(DagShape::ForkJoin, 6, 4, machines, heterogeneity, ccr));
            }
        }
    }
    out
}

/// A quick cross-shape sample: 4 shapes × CCR {0.1, 1.0} on one
/// 8-machine, high-heterogeneity platform — 8 scenarios.
pub fn small_suite() -> Vec<Scenario> {
    let mut out = Vec::new();
    for &ccr in &[0.1f64, 1.0] {
        out.push(Scenario::layered(30, 8, Connectivity::Medium, Heterogeneity::High, ccr));
        out.push(Scenario::kernel(DagShape::Fft, 3, 0, 8, Heterogeneity::High, ccr));
        out.push(Scenario::kernel(DagShape::Gaussian, 6, 0, 8, Heterogeneity::High, ccr));
        out.push(Scenario::kernel(DagShape::Stencil, 4, 5, 8, Heterogeneity::High, ccr));
    }
    out
}

/// The CI-smoke pair: one tiny layered workload and one tiny fork–join,
/// both on 3 machines — fast enough to race every algorithm per commit.
pub fn tiny_suite() -> Vec<Scenario> {
    vec![
        Scenario::layered(12, 3, Connectivity::Medium, Heterogeneity::Medium, 0.5),
        Scenario::kernel(DagShape::ForkJoin, 3, 2, 3, Heterogeneity::High, 1.0),
    ]
}

/// Looks up a built-in suite by name (`tiny`, `small`, `full`).
pub fn named_suite(name: &str) -> Option<Vec<Scenario>> {
    match name {
        "tiny" => Some(tiny_suite()),
        "small" => Some(small_suite()),
        "full" => Some(suite()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn suite_tags_are_unique_within_and_across_suites() {
        let mut seen = BTreeSet::new();
        for (name, scenarios) in
            [("tiny", tiny_suite()), ("small", small_suite()), ("full", suite())]
        {
            assert!(!scenarios.is_empty(), "{name} suite must not be empty");
            for s in &scenarios {
                let tag = s.tag();
                assert!(seen.insert(tag.clone()), "duplicate tag {tag} (in {name} suite)");
                assert!(
                    !tag.contains(' ') && !tag.contains(',') && !tag.contains('/'),
                    "tag {tag} must be filename- and CSV-safe"
                );
            }
        }
        assert_eq!(suite().len(), 40, "full grid is 5 shapes x 2 ccr x 2 het x 2 sizes");
    }

    #[test]
    fn named_suites_resolve() {
        assert_eq!(named_suite("tiny").unwrap().len(), tiny_suite().len());
        assert_eq!(named_suite("small").unwrap().len(), small_suite().len());
        assert_eq!(named_suite("full").unwrap().len(), suite().len());
        assert!(named_suite("galactic").is_none());
    }

    #[test]
    fn generation_is_seed_deterministic_for_every_suite_cell() {
        for s in tiny_suite().into_iter().chain(small_suite()) {
            let a = s.generate(11);
            let b = s.generate(11);
            assert_eq!(a, b, "{}: same seed must give bit-identical instances", s.tag());
            let c = s.generate(12);
            assert_ne!(a, c, "{}: different seeds must differ", s.tag());
            assert_eq!(a.machine_count(), s.machines, "{}", s.tag());
            assert!(a.task_count() >= 2, "{}", s.tag());
        }
    }

    #[test]
    fn full_suite_generates_valid_instances() {
        // Spot-check one scenario per shape from the full grid.
        let mut seen_shapes = BTreeSet::new();
        for s in suite() {
            if seen_shapes.insert(format!("{:?}", s.shape)) {
                let inst = s.generate(3);
                assert!(inst.task_count() >= 10, "{} too small", s.tag());
                assert_eq!(inst.machine_count(), s.machines);
            }
        }
        assert!(seen_shapes.len() >= 4, "full suite spans the shape families");
    }

    #[test]
    fn scenario_serde_roundtrips() {
        for s in tiny_suite().into_iter().chain(suite().into_iter().take(5)) {
            let json = serde_json::to_string(&s).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.tag(), s.tag());
        }
    }

    #[test]
    fn validate_names_each_degenerate_field() {
        for s in tiny_suite().into_iter().chain(small_suite()).chain(suite()) {
            assert_eq!(s.validate(), Ok(()), "{}", s.tag());
        }
        let lay = Scenario::layered(20, 4, Connectivity::Medium, Heterogeneity::Medium, 0.5);
        let kernel = |shape, a, b| Scenario::kernel(shape, a, b, 4, Heterogeneity::High, 1.0);
        for (bad, want) in [
            (Scenario { shape_a: 0, ..lay }, "tasks: must be at least 1"),
            (Scenario { machines: 0, ..lay }, "machines: must be at least 1"),
            (Scenario { ccr: -1.0, ..lay }, "ccr: must be finite and at least 0"),
            (Scenario { ccr: 1e308, ..lay }, "ccr: 1e308 overflows"),
            (kernel(DagShape::Fft, 0, 0), "shape_a: an FFT needs 1 to 27 ranks"),
            (kernel(DagShape::Fft, 64, 0), "shape_a: an FFT needs 1 to 27 ranks"),
            (kernel(DagShape::Gaussian, 1, 0), "shape_a: Gaussian elimination needs"),
            (kernel(DagShape::Stencil, 3, 0), "shape_b: a stencil needs at least 1 x 1"),
            (kernel(DagShape::ForkJoin, 2, 0), "shape_b: a fork-join needs at least 1 branch"),
            (kernel(DagShape::ForkJoin, 0, 2), "shape_a: a fork-join needs at least 1 branch"),
            (Scenario { machines: 0, ..kernel(DagShape::Fft, 2, 0) }, "machines: must be"),
            (Scenario { ccr: f64::NAN, ..kernel(DagShape::ForkJoin, 2, 2) }, "ccr: must be"),
            (Scenario { ccr: 1e308, ..kernel(DagShape::Gaussian, 3, 0) }, "ccr: 1e308 overflows"),
        ] {
            let e = bad.validate().unwrap_err();
            assert!(e.starts_with(want), "{}: {e}", bad.tag());
        }
    }

    #[test]
    fn layered_tag_encodes_connectivity() {
        let a = Scenario::layered(20, 4, Connectivity::Low, Heterogeneity::Medium, 0.5);
        let b = Scenario::layered(20, 4, Connectivity::High, Heterogeneity::Medium, 0.5);
        assert_ne!(a.tag(), b.tag());
        assert_eq!(a.tag(), "lay20_clow_l4_hmedium_ccr0.5");
    }
}
