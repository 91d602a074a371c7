//! Certified per-instance makespan lower bounds (the certificate stack).
//!
//! [`InstanceBound`] computes the classic communication-aware two-part
//! floor on the makespan of *any* feasible schedule of an instance:
//!
//! * **critical path** — the longest dependency chain when every task
//!   runs on its cheapest machine and every transfer is free (a valid
//!   relaxation: co-locating producer and consumer makes any individual
//!   transfer cost avoidable, so no certified floor may charge for it);
//! * **total work** — the sum of per-task cheapest execution times
//!   spread perfectly over all `l` machines, `Σ_t min_m E[m][t] / l`.
//!
//! The floor is `max` of the two. Both relaxations are *independent* of
//! the schedule, so the floor is a property of the instance alone — it
//! is computed once and certifies every leaderboard row, every `gap`
//! column and every early-stopped search in the suite.
//!
//! ## Rounding safety (the certificate contract)
//!
//! The floor is compared against makespans **computed in IEEE `f64`**,
//! not against real-arithmetic makespans, so a naively computed floor
//! could exceed a computed makespan by accumulated rounding and void
//! the certificate (`gap < 1`). Two regimes keep the floor sound:
//!
//! * **Integer-exact instances** (the common benchmark case): when every
//!   execution and transfer entry is a nonnegative integer and the sum
//!   of *all* entries fits in 2⁵² , every intermediate the evaluators
//!   compute — starts, arrivals, finishes, the makespan — is an exact
//!   integer (each is a max of sums of entries, bounded by the total
//!   sum, and `f64` adds of integers below 2⁵³ are exact). The floor is
//!   then certified *raw*, and the work term tightens to
//!   `⌈Σ min exec / l⌉` because an integer makespan at least a real
//!   quotient is at least its ceiling. This regime is what makes
//!   early termination actually fire: the floor is *reachable*.
//! * **General float instances**: the floor's whole magnitude is
//!   deflated by `1 − (2k + 16)·ε`, a conservative margin that dominates the
//!   relative error of both the floor computation (≤ k additions) and
//!   the evaluator's timing chain. A deflated floor sits strictly below
//!   every computed makespan, so the certificate holds; early stop then
//!   (correctly) almost never triggers, because no computed value can
//!   dip below it other than by matching the true optimum's error band.
//!
//! Either way the invariant consumers rely on is: **for every feasible
//! solution, `floor() <= computed makespan`**, hence `gap >= 1.0` — the
//! property the CI certificate-soundness gate asserts wholesale.
//!
//! ## Slack analysis
//!
//! The same cheapest-machine/zero-transfer relaxation yields per-task
//! earliest/latest start times ([`mshc_taskgraph::SlackAnalysis`]),
//! exposed here both directly and as [`placement_floor`] — a certified
//! floor on any schedule that places task `t` on a machine with a given
//! execution time.
//!
//! [`placement_floor`]: InstanceBound::placement_floor

use mshc_platform::HcInstance;
use mshc_taskgraph::{SlackAnalysis, TaskId};

/// Every computed schedule intermediate is bounded by the sum of all
/// matrix entries; below this cap, integer instances stay exact in `f64`
/// (2⁵², a factor-2 margin under the 2⁵³ integer-exactness limit, which
/// also certifies the `⌈Σ/l⌉` rounding of the work term).
const EXACT_SUM_CAP: f64 = 4_503_599_627_370_496.0; // 2^52

/// A certified makespan lower bound for one instance, with the slack
/// analysis of the relaxation it is derived from.
///
/// See the [module docs](self) for the bound formula and the rounding
/// contract. Construction is O(k·l + edges + transfer entries) — cheap
/// enough to compute once per run everywhere a run starts.
#[derive(Debug, Clone)]
pub struct InstanceBound {
    /// Critical-path term, raw (cheapest-machine weights, free
    /// transfers).
    critical_path: f64,
    /// Total cheapest work `Σ_t min_m E[m][t]`, raw (before the `/ l`).
    total_work: f64,
    /// The certified floor: `max(cp, work/l)`, ceil-tightened when
    /// [`is_exact`](Self::is_exact), deflated otherwise.
    floor: f64,
    /// Whether the instance is integer-exact (floor certified raw).
    exact: bool,
    /// Machine count the work term was spread over.
    machines: usize,
    /// Cheapest execution time per task (clamped to finite `>= 0`).
    min_exec: Vec<f64>,
    /// Earliest/latest start times under the relaxation.
    slack: SlackAnalysis,
}

impl InstanceBound {
    /// Computes the certified floor and slack analysis for `inst`.
    pub fn compute(inst: &HcInstance) -> InstanceBound {
        let g = inst.graph();
        let sys = inst.system();
        let k = inst.task_count();
        let l = inst.machine_count().max(1);
        let exec = sys.exec_matrix();
        let min_exec: Vec<f64> = (0..k)
            .map(|t| {
                let cheapest =
                    (0..exec.rows()).map(|m| exec.get(m, t)).fold(f64::INFINITY, f64::min);
                if cheapest.is_finite() {
                    cheapest.max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        // Transfers are charged nothing: the relaxation may co-locate
        // any producer/consumer pair, which zeroes that edge's cost.
        let slack = SlackAnalysis::compute(g, |t| min_exec[t.index()], |_, _| 0.0);
        let critical_path = slack.length;
        let total_work: f64 = min_exec.iter().sum();

        // Integer-exactness scan over *all* entries of both matrices:
        // nonnegative integers whose grand total stays below 2^52 keep
        // every evaluator intermediate exactly representable.
        let mut sum = 0.0f64;
        let mut exact = true;
        for &v in exec.as_slice().iter().chain(sys.transfer_matrix().as_slice()) {
            if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0) {
                exact = false;
                break;
            }
            sum += v;
            if sum > EXACT_SUM_CAP {
                exact = false;
                break;
            }
        }

        let raw = critical_path.max(total_work / l as f64);
        let floor = if exact {
            // An integer makespan >= work/l is >= ceil(work/l); the
            // critical path is itself an exact integer.
            critical_path.max((total_work / l as f64).ceil())
        } else {
            (raw * deflate(k)).max(0.0)
        };
        InstanceBound { critical_path, total_work, floor, exact, machines: l, min_exec, slack }
    }

    /// The certified floor: no feasible schedule of this instance can
    /// have a computed makespan below it.
    #[inline]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The raw critical-path term (cheapest machines, free transfers).
    #[inline]
    pub fn critical_path(&self) -> f64 {
        self.critical_path
    }

    /// The raw total cheapest work `Σ_t min_m E[m][t]` (before `/ l`).
    #[inline]
    pub fn total_work(&self) -> f64 {
        self.total_work
    }

    /// Whether the instance is integer-exact: the floor is certified
    /// without deflation (and the work term ceil-tightened), so early
    /// termination can genuinely reach it.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Optimality gap of a makespan against the floor: `value / floor`,
    /// or `None` when the floor is zero/non-positive (a zero-work
    /// instance certifies nothing — any makespan is infinitely far from
    /// a zero floor) or `value` is not finite.
    #[inline]
    pub fn gap(&self, value: f64) -> Option<f64> {
        if self.floor > 0.0 && value.is_finite() {
            Some(value / self.floor)
        } else {
            None
        }
    }

    /// Whether an incumbent objective value has reached the floor — the
    /// early-termination test: nothing below the floor exists, so the
    /// incumbent is provably optimal and the search may stop.
    #[inline]
    pub fn reached(&self, incumbent: f64) -> bool {
        incumbent.is_finite() && incumbent <= self.floor
    }

    /// Certified floor on any schedule that places task `t` on a machine
    /// whose execution time for `t` is `exec`: the task cannot start
    /// before its relaxed earliest start, and its longest descendant
    /// chain (cheapest machines, free transfers) still runs after it.
    /// Never below [`floor`](Self::floor).
    ///
    /// No library code reads it. Kept only because the benchmark under
    /// `perfbench/` orders its allocation-grid machines by it; delete it
    /// with that use at the next change to the benchmark.
    pub fn placement_floor(&self, t: TaskId, exec: f64) -> f64 {
        let i = t.index();
        let tail = self.slack.length - self.slack.latest[i] - self.min_exec[i];
        let raw = self.slack.earliest[i] + exec.max(0.0) + tail.max(0.0);
        let certified = if self.exact { raw } else { raw * deflate(self.min_exec.len()) };
        certified.max(self.floor)
    }

    /// Cheapest execution time of `t` over all machines (clamped to
    /// finite `>= 0`).
    #[inline]
    pub fn min_exec(&self, t: TaskId) -> f64 {
        self.min_exec[t.index()]
    }

    /// The relaxation's earliest/latest start-time analysis.
    #[inline]
    pub fn slack(&self) -> &SlackAnalysis {
        &self.slack
    }

    /// Machine count the work term was spread over.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }
}

/// The conservative whole-magnitude deflation factor `1 − (2k + 16)·ε`:
/// it dominates the relative rounding error of both the floor
/// computation and the evaluator's timing chain, so a deflated floor
/// never overshoots a computed makespan.
#[inline]
fn deflate(k: usize) -> f64 {
    1.0 - (2 * k + 16) as f64 * f64::EPSILON
}

/// The next `f64` strictly above `x` (one ulp up) for positive finite
/// `x`; returns `x` unchanged otherwise. Disturbance traces use it to
/// separate equal event times.
#[inline]
pub fn next_up(x: f64) -> f64 {
    if x.is_finite() && x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Solution;
    use crate::eval::Evaluator;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::{TaskGraphBuilder, TaskId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The Figure-1-style instance used across the evaluator tests.
    fn figure1_instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let exec = Matrix::from_rows(&[
            vec![400.0, 700.0, 500.0, 300.0, 800.0, 600.0, 200.0],
            vec![600.0, 500.0, 400.0, 900.0, 435.0, 450.0, 350.0],
        ]);
        let transfer = Matrix::from_rows(&[vec![120.0, 80.0, 200.0, 60.0, 90.0, 150.0]]);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    #[test]
    fn figure1_floor_is_hand_computed_work_bound() {
        let b = InstanceBound::compute(&figure1_instance());
        // min exec: 400 500 400 300 435 450 200 — sum 2685, over 2
        // machines 1342.5, ceil 1343 (integer-exact instance).
        // Critical path (free transfers): 0→2→5 = 400+400+450 = 1250.
        assert!(b.is_exact());
        assert_eq!(b.critical_path(), 1250.0);
        assert_eq!(b.total_work(), 2685.0);
        assert_eq!(b.floor(), 1343.0);
        assert_eq!(b.gap(2000.0), Some(2000.0 / 1343.0));
        assert!(b.gap(2000.0).unwrap() >= 1.0);
        assert!(!b.reached(1343.5));
        assert!(b.reached(1343.0));
    }

    #[test]
    fn fractional_entries_deflate_the_floor() {
        let mut bld = TaskGraphBuilder::new(2);
        bld.add_edge(0, 1).unwrap();
        let g = bld.build().unwrap();
        let exec = Matrix::from_rows(&[vec![3.5, 4.25], vec![5.0, 2.75]]);
        let transfer = Matrix::from_rows(&[vec![6.0]]);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let b = InstanceBound::compute(&inst);
        assert!(!b.is_exact());
        // cp = 3.5 + 2.75 = 6.25 dominates work (6.25 / 2).
        let raw = 6.25;
        assert!(b.floor() < raw, "deflation must bite");
        assert!(b.floor() > raw * 0.999999, "but only by ulps");
        // The deflated floor still certifies the best schedule (both
        // tasks on their cheapest machines, one transfer avoided by...
        // not avoidable here, so makespan >= 6.25 anyway).
        let mut eval = Evaluator::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let s = crate::init::random_solution(&inst, &mut rng);
            assert!(eval.makespan(&s) >= b.floor());
        }
    }

    #[test]
    fn single_task_floor_is_cheapest_exec() {
        let g = TaskGraphBuilder::new(1).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![5.0], vec![3.0]]),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let b = InstanceBound::compute(&inst);
        // cp = 3 beats ceil(3/2) = 2.
        assert_eq!(b.floor(), 3.0);
        assert!(b.is_exact());
        assert!(b.reached(3.0));
    }

    #[test]
    fn non_finite_values_yield_no_gap() {
        // HcSystem validation rejects non-positive executions, so a
        // validated instance always has floor > 0; the None arm of
        // gap() guards non-finite incumbents (and hand-built zero
        // floors from unvalidated paths).
        let b = InstanceBound::compute(&figure1_instance());
        assert!(b.floor() > 0.0);
        assert_eq!(b.gap(f64::INFINITY), None);
        assert_eq!(b.gap(f64::NAN), None);
        assert!(!b.reached(f64::NAN));
        assert!(!b.reached(f64::INFINITY));
    }

    #[test]
    fn huge_integer_sums_fall_back_to_deflation() {
        // Entries are integers but the grand total overflows the exact
        // cap, so the certificate must take the deflated route.
        let g = TaskGraphBuilder::new(2).build().unwrap();
        let big = 3.0e15; // 2 entries x 2 machines > 2^52 total
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 2, big),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let b = InstanceBound::compute(&inst);
        assert!(!b.is_exact());
        assert!(b.floor() < big && b.floor() > big * 0.999999);
    }

    #[test]
    fn placement_floor_never_undercuts_instance_floor() {
        let inst = figure1_instance();
        let b = InstanceBound::compute(&inst);
        let sys = inst.system();
        for t in inst.graph().tasks() {
            for m in sys.machine_ids() {
                let pf = b.placement_floor(t, sys.exec_time(m, t));
                assert!(pf >= b.floor(), "{t} on {m}");
            }
        }
        // Sink task t6: est 935 (0→1's chain 500+435), so an expensive
        // placement lifts the floor above the instance-wide one.
        assert_eq!(b.placement_floor(TaskId::new(6), 10_000.0), 10_935.0);
        // A cheap placement clamps back to the instance floor.
        assert_eq!(b.placement_floor(TaskId::new(6), 350.0), 1343.0);
    }

    #[test]
    fn placement_floor_certifies_forced_placements() {
        // Every feasible schedule placing t on m has makespan >=
        // placement_floor(t, E[m][t]) — check against random solutions.
        let inst = figure1_instance();
        let b = InstanceBound::compute(&inst);
        let mut eval = Evaluator::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..200 {
            let s = crate::init::random_solution(&inst, &mut rng);
            let mk = eval.makespan(&s);
            for t in inst.graph().tasks() {
                let m = s.machine_of(t);
                let pf = b.placement_floor(t, inst.system().exec_time(m, t));
                assert!(mk >= pf, "makespan {mk} under placement floor {pf} for {t}");
            }
        }
    }

    #[test]
    fn floor_never_exceeds_random_schedule_makespans() {
        // Seeded anti-over-bound sweep over random float instances (the
        // full 13-algorithm proptest lives in the portfolio crate).
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for round in 0..20 {
            let tasks = rng.gen_range(2..20);
            let machines = rng.gen_range(1..5);
            let cfg = mshc_taskgraph::gen::LayeredConfig {
                tasks,
                mean_width: 3,
                edge_prob: 0.5,
                skip_prob: 0.1,
            };
            let g = mshc_taskgraph::gen::layered(&cfg, &mut rng).unwrap();
            let integer = round % 2 == 0;
            let cell = |lo: f64, hi: f64, rng: &mut ChaCha8Rng| {
                let v = rng.gen_range(lo..hi);
                if integer {
                    v.round()
                } else {
                    v
                }
            };
            let exec = Matrix::from_fn(machines, tasks, |_, _| cell(1.0, 100.0, &mut rng));
            let pairs = machines * (machines - 1) / 2;
            let transfer = Matrix::from_fn(pairs, g.data_count(), |_, _| cell(1.0, 30.0, &mut rng));
            let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
            let inst = HcInstance::new(g, sys).unwrap();
            let b = InstanceBound::compute(&inst);
            assert_eq!(b.is_exact(), integer, "round {round}");
            let mut eval = Evaluator::new(&inst);
            for _ in 0..30 {
                let s = crate::init::random_solution(&inst, &mut rng);
                let mk = eval.makespan(&s);
                assert!(
                    mk >= b.floor(),
                    "round {round}: makespan {mk} below floor {} (exact={})",
                    b.floor(),
                    b.is_exact()
                );
                assert!(b.gap(mk).is_none_or(|gp| gp >= 1.0));
            }
        }
    }

    #[test]
    fn next_up_is_one_ulp() {
        let x = 1343.0f64;
        let up = next_up(x);
        assert!(up > x);
        assert_eq!(f64::from_bits(x.to_bits() + 1), up);
        assert_eq!(next_up(0.0), 0.0);
        assert_eq!(next_up(-1.0), -1.0);
        assert!(next_up(f64::INFINITY).is_infinite());
        assert!(next_up(f64::NAN).is_nan());
    }

    #[test]
    fn reusable_solution_floor_reachable_on_balanced_integer_instance() {
        // k independent unit-ish tasks over l machines: the work bound
        // ceil(sum/l) is achievable by perfect balancing, so an optimal
        // schedule *reaches* the exact-mode floor — the scenario that
        // makes early termination live.
        let g = TaskGraphBuilder::new(4).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 4, 6.0),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let b = InstanceBound::compute(&inst);
        assert_eq!(b.floor(), 12.0, "ceil(24/2)");
        // Balanced solution: two tasks per machine.
        use mshc_platform::MachineId;
        let order: Vec<TaskId> = (0..4).map(TaskId::new).collect();
        let ms = [MachineId::new(0), MachineId::new(1), MachineId::new(0), MachineId::new(1)];
        let s = Solution::from_order(inst.graph(), 2, &order, &ms).unwrap();
        let mk = Evaluator::new(&inst).makespan(&s);
        assert_eq!(mk, 12.0);
        assert!(b.reached(mk));
    }
}
