//! Seeded disturbance-trace generation for dropout/replan experiments.
//!
//! A [`DisturbanceTrace`] is an ordered sequence of
//! [`Disturbance`] events (machine failures, slowdowns, task-duration
//! inflation) drawn deterministically from a seed — the disturbance
//! analogue of [`Scenario::generate`](crate::Scenario::generate): any
//! disturbed run anywhere reproduces from `(scenario, seed, trace
//! spec, trace seed)` alone. The replanner (`mshc-schedule`'s
//! [`Replanner`](mshc_schedule::Replanner)) consumes the events in
//! order, freezing the committed prefix at each event time and
//! re-searching the residual problem.
//!
//! Traces respect two structural constraints by construction:
//! event times are strictly increasing (the replanner rejects
//! out-of-order disturbances), and at most `machine_count - 1`
//! failures are drawn so at least one survivor always remains.

use mshc_schedule::{Disturbance, DisturbanceKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Declarative shape of a disturbance trace, minus the seed.
///
/// Kept flat (no nested enums with payloads) so it serializes with the
/// vendored serde derive, like [`Scenario`](crate::Scenario).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceTraceSpec {
    /// Number of events to draw.
    pub events: usize,
    /// Events are placed in `(0, horizon)`, strictly increasing. Use
    /// the baseline makespan (or an estimate) so events land inside
    /// the schedule; later events degenerate to no-op replans.
    pub horizon: f64,
    /// Machine count of the target platform; failure/slowdown events
    /// pick a machine in `0..machines`, and at most `machines - 1`
    /// failures are drawn overall.
    pub machines: u32,
    /// Relative weight of machine-failure events (the weights need not
    /// sum to anything; zero disables the kind).
    pub failure_weight: u32,
    /// Relative weight of machine-slowdown events.
    pub slowdown_weight: u32,
    /// Relative weight of task-inflation events.
    pub inflation_weight: u32,
}

impl DisturbanceTraceSpec {
    /// A balanced default: all three kinds equally likely.
    pub fn balanced(events: usize, horizon: f64, machines: u32) -> DisturbanceTraceSpec {
        DisturbanceTraceSpec {
            events,
            horizon,
            machines,
            failure_weight: 1,
            slowdown_weight: 1,
            inflation_weight: 1,
        }
    }

    /// Failures only — the paper-motivated dropout stress case.
    pub fn dropout(events: usize, horizon: f64, machines: u32) -> DisturbanceTraceSpec {
        DisturbanceTraceSpec {
            events,
            horizon,
            machines,
            failure_weight: 1,
            slowdown_weight: 0,
            inflation_weight: 0,
        }
    }
}

/// A seeded, reproducible sequence of disturbances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DisturbanceTrace {
    /// The seed the events were drawn from.
    pub seed: u64,
    /// Events in strictly increasing virtual-time order.
    pub events: Vec<Disturbance>,
}

impl DisturbanceTrace {
    /// Draws a trace from `spec` with `seed`. Deterministic: the same
    /// `(spec, seed)` always yields the same byte-identical trace.
    ///
    /// Kind choice, machine choice and factors come from a dedicated
    /// `ChaCha8` stream; event times are drawn up front and sorted so
    /// they are strictly increasing regardless of kind mix. Failure
    /// events stop being drawn once only one machine would remain
    /// (they fall back to slowdowns), so a generated trace can always
    /// be applied in full.
    pub fn generate(spec: &DisturbanceTraceSpec, seed: u64) -> DisturbanceTrace {
        assert!(spec.machines > 0, "disturbance trace needs at least one machine");
        assert!(
            spec.horizon.is_finite() && spec.horizon > 0.0,
            "disturbance horizon must be positive and finite"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD157_0000_0000_0000);
        // Draw times first, then de-duplicate by nudging: sorting
        // floats drawn from a continuous range collides with
        // probability ~0, but determinism must not hinge on "almost
        // never", so equal neighbours are separated explicitly.
        let mut times: Vec<f64> =
            (0..spec.events).map(|_| rng.gen_range(f64::EPSILON..spec.horizon)).collect();
        times.sort_by(f64::total_cmp);
        for i in 1..times.len() {
            if times[i] <= times[i - 1] {
                times[i] = mshc_schedule::next_up(times[i - 1]);
            }
        }

        let total = spec.failure_weight + spec.slowdown_weight + spec.inflation_weight;
        assert!(total > 0, "at least one disturbance kind must have positive weight");
        let mut failures_left = spec.machines.saturating_sub(1);
        let mut alive: Vec<u32> = (0..spec.machines).collect();
        let events = times
            .into_iter()
            .map(|time| {
                let mut roll = rng.gen_range(0..total);
                let mut kind = if roll < spec.failure_weight {
                    DisturbanceKind::MachineFailure
                } else {
                    roll -= spec.failure_weight;
                    if roll < spec.slowdown_weight {
                        DisturbanceKind::MachineSlowdown
                    } else {
                        DisturbanceKind::TaskInflation
                    }
                };
                if kind == DisturbanceKind::MachineFailure && failures_left == 0 {
                    kind = DisturbanceKind::MachineSlowdown;
                }
                match kind {
                    DisturbanceKind::MachineFailure => {
                        let pick = rng.gen_range(0..alive.len());
                        let machine = alive.swap_remove(pick);
                        failures_left -= 1;
                        Disturbance { kind, time, machine, factor: 1.0 }
                    }
                    DisturbanceKind::MachineSlowdown => {
                        let pick = rng.gen_range(0..alive.len());
                        let machine = alive[pick];
                        let factor = rng.gen_range(1.25..4.0);
                        Disturbance { kind, time, machine, factor }
                    }
                    DisturbanceKind::TaskInflation => {
                        let factor = rng.gen_range(1.05..2.0);
                        Disturbance { kind, time, machine: 0, factor }
                    }
                }
            })
            .collect();
        DisturbanceTrace { seed, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_ordered() {
        let spec = DisturbanceTraceSpec::balanced(16, 500.0, 4);
        let a = DisturbanceTrace::generate(&spec, 11);
        let b = DisturbanceTrace::generate(&spec, 11);
        assert_eq!(a, b);
        let c = DisturbanceTrace::generate(&spec, 12);
        assert_ne!(a, c, "different seeds draw different traces");
        assert_eq!(a.events.len(), 16);
        for w in a.events.windows(2) {
            assert!(w[0].time < w[1].time, "strictly increasing times");
        }
        for e in &a.events {
            assert!(e.time > 0.0 && e.time < 500.0);
            assert!(e.machine < 4);
            match e.kind {
                DisturbanceKind::MachineFailure => assert_eq!(e.factor, 1.0),
                DisturbanceKind::MachineSlowdown => assert!(e.factor > 1.0 && e.factor < 4.0),
                DisturbanceKind::TaskInflation => assert!(e.factor > 1.0 && e.factor < 2.0),
            }
        }
    }

    #[test]
    fn failures_always_leave_a_survivor() {
        // All-failure weighting on a 3-machine platform: at most 2
        // failures appear, the rest degrade to slowdowns, and no
        // machine fails twice.
        let spec = DisturbanceTraceSpec::dropout(10, 100.0, 3);
        let trace = DisturbanceTrace::generate(&spec, 99);
        let failed: Vec<u32> = trace
            .events
            .iter()
            .filter(|e| e.kind == DisturbanceKind::MachineFailure)
            .map(|e| e.machine)
            .collect();
        assert!(failed.len() <= 2, "at least one survivor: {failed:?}");
        let mut unique = failed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), failed.len(), "no machine fails twice");
        // Slowdown fallbacks never target a failed machine.
        let mut dead: Vec<u32> = Vec::new();
        for e in &trace.events {
            match e.kind {
                DisturbanceKind::MachineFailure => dead.push(e.machine),
                DisturbanceKind::MachineSlowdown => {
                    assert!(!dead.contains(&e.machine), "slowdown on dead machine");
                }
                DisturbanceKind::TaskInflation => {}
            }
        }
    }

    #[test]
    fn traces_round_trip_through_json() {
        let spec = DisturbanceTraceSpec::balanced(5, 50.0, 2);
        let trace = DisturbanceTrace::generate(&spec, 3);
        let json = serde_json::to_string(&trace).unwrap();
        let back: DisturbanceTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }
}
