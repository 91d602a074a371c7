//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a declarative description of the faults to inject
//! into a run: panic at the Nth counted evaluation (which, when
//! the Nth evaluation lands inside a parallel batch chunk, doubles as
//! poisoned-arena injection), panic specific tournament cells on their
//! first attempt, and machine-dropout disturbances for `mshc replan`.
//! Plans are JSON documents loaded via `--faults plan.json`:
//!
//! ```json
//! {
//!   "panic_at_evaluations": 1000,
//!   "cell_panics": [
//!     { "algorithm": "se", "scenario": "lay12_cmedium_l3_hmedium_ccr0.5", "seed": 7 }
//!   ],
//!   "dropouts": [
//!     { "kind": "MachineFailure", "time": 12.5, "machine": 1, "factor": 1.0 }
//!   ]
//! }
//! ```
//!
//! Injection is **armed process-globally** ([`arm`]/[`disarm`]) so the
//! hooks sitting on the evaluator hot paths cost one relaxed load when
//! disarmed (the default). Cell panics are *consuming*: the first
//! attempt of a matching cell takes its fault and panics, the same-seed
//! retry finds the fault gone and succeeds — deterministically, at any
//! thread count, because faults are keyed by the cell's identity
//! `(algorithm, scenario, seed)` rather than by arrival order.
//!
//! Nothing in this module runs unless a plan is armed, and the chaos CI
//! job byte-compares fault-free lanes against a no-faults run to prove
//! the harness itself cannot perturb results.

use crate::replan::Disturbance;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// Prefix every injected panic message carries, so harnesses (and
/// humans reading leaderboards) can tell injected faults from real
/// bugs.
pub const FAULT_PANIC_PREFIX: &str = "fault injection:";

/// A cell-level fault: panic the *first* attempt of the tournament cell
/// identified by `(algorithm, scenario, seed)`. Consumed on use, so the
/// engine's deterministic same-seed retry succeeds and the cell lands
/// in the leaderboard marked `degraded` instead of being dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFault {
    /// The contestant's stable identifier (e.g. `"se"`, `"ga"`).
    pub algorithm: String,
    /// The scenario label the cell runs on.
    pub scenario: String,
    /// The cell's replicate seed.
    pub seed: u64,
}

/// A declarative fault-injection plan (see the module docs for the JSON
/// schema). Keys it does not name, such as the `"seed"` older plans
/// carry, are ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Panic when the process-wide tick reaches this value (1-based:
    /// `Some(1)` panics the very first tick, and `Some(0)` never fires,
    /// so the CLI rejects it). Every full pass and every move scoring (a
    /// replay, cell lanes included) ticks once, across every evaluator
    /// tier; a relocation scan's floor lane is a lane and ticks too.
    /// Cells a relocation scan charges as evaluations without replaying
    /// them do not tick: the other cells of a run of identical
    /// schedules, refolded ones included, and every cell after a floor
    /// walk meets its floor. When the Nth tick lands inside a batch chunk
    /// the panic poisons that worker's arena, which is the point.
    #[serde(default)]
    pub panic_at_evaluations: Option<u64>,
    /// Cells to panic on their first attempt (consumed on use).
    #[serde(default)]
    pub cell_panics: Vec<CellFault>,
    /// Machine-dropout / slowdown / inflation disturbances for
    /// `mshc replan --faults` (applied in ascending time order).
    #[serde(default)]
    pub dropouts: Vec<Disturbance>,
}

impl FaultPlan {
    /// Parses a plan from its JSON wire format.
    pub fn from_json(s: &str) -> Result<FaultPlan, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serializes a plan to its JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plan serialization is infallible")
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static EVAL_PANIC_AT: AtomicU64 = AtomicU64::new(0);
static EVAL_TICKS: AtomicU64 = AtomicU64::new(0);
static CELL_FAULTS: Mutex<Vec<CellFault>> = Mutex::new(Vec::new());

fn cell_faults() -> std::sync::MutexGuard<'static, Vec<CellFault>> {
    // A panic while holding the lock is exactly what this module
    // provokes on purpose; the list stays consistent (faults are
    // removed before the panic), so poisoning is benign.
    CELL_FAULTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `plan`'s panic injections process-globally and resets the
/// evaluation tick. Tests and the CLI pair this with [`disarm`];
/// arming is idempotent (the last plan wins).
pub fn arm(plan: &FaultPlan) {
    EVAL_TICKS.store(0, Ordering::Relaxed);
    EVAL_PANIC_AT.store(plan.panic_at_evaluations.unwrap_or(0), Ordering::Relaxed);
    *cell_faults() = plan.cell_panics.clone();
    ARMED.store(true, Ordering::Release);
}

/// Removes all armed injections (the default state).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    EVAL_PANIC_AT.store(0, Ordering::Relaxed);
    EVAL_TICKS.store(0, Ordering::Relaxed);
    cell_faults().clear();
}

/// Whether a fault plan is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The hook on every counted-evaluation site: one relaxed load when
/// disarmed, a tick (and possibly an injected panic) when armed.
#[inline]
pub fn eval_tick() {
    if ARMED.load(Ordering::Relaxed) {
        eval_tick_armed();
    }
}

#[cold]
fn eval_tick_armed() {
    let at = EVAL_PANIC_AT.load(Ordering::Relaxed);
    if at == 0 {
        return;
    }
    let tick = EVAL_TICKS.fetch_add(1, Ordering::Relaxed) + 1;
    if tick == at {
        panic!("{FAULT_PANIC_PREFIX} evaluation {at} poisoned by fault plan");
    }
}

/// Whether a panic payload is an injected fault: a `&str` or `String`
/// message starting with [`FAULT_PANIC_PREFIX`].
pub fn is_injected_panic(payload: &(dyn Any + Send)) -> bool {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    message.is_some_and(|m| m.starts_with(FAULT_PANIC_PREFIX))
}

/// Installs, once per process, a panic hook that drops the messages of
/// injected faults ([`is_injected_panic`]) and forwards every other
/// panic to the hook it replaced, so real panics stand out in the output
/// of a chaos run. Injected panics are still raised and caught exactly
/// as before; only their stderr report is suppressed.
pub fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected_panic(info.payload()) {
                previous(info);
            }
        }));
    });
}

/// Consumes (and reports) a pending cell fault for the cell identified
/// by `(algorithm, scenario, seed)`. Returns `true` exactly once per
/// matching fault — the caller is expected to panic its attempt; the
/// retry finds the fault consumed.
pub fn take_cell_fault(algorithm: &str, scenario: &str, seed: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut faults = cell_faults();
    if let Some(i) = faults
        .iter()
        .position(|f| f.algorithm == algorithm && f.scenario == scenario && f.seed == seed)
    {
        faults.swap_remove(i);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replan::DisturbanceKind;

    /// Serializes arm/disarm across tests (they share process globals).
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn plan_round_trips_and_defaults() {
        let plan = FaultPlan {
            panic_at_evaluations: Some(10),
            cell_panics: vec![CellFault {
                algorithm: "se".into(),
                scenario: "tiny".into(),
                seed: 7,
            }],
            dropouts: vec![Disturbance {
                kind: DisturbanceKind::MachineFailure,
                time: 12.5,
                machine: 1,
                factor: 1.0,
            }],
        };
        let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(back, plan);
        // An empty document is a valid, empty plan.
        let empty = FaultPlan::from_json("{}").expect("empty plan");
        assert_eq!(empty, FaultPlan::default());
        assert!(empty.panic_at_evaluations.is_none());
    }

    #[test]
    fn a_seed_key_loads_and_the_plan_fires_the_same_faults() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let body = r#""panic_at_evaluations": 2,
            "cell_panics": [{"algorithm": "se", "scenario": "tiny", "seed": 7}]"#;
        let seeded = FaultPlan::from_json(&format!(r#"{{"seed": 42, {body}}}"#)).expect("loads");
        assert_eq!(seeded, FaultPlan::from_json(&format!("{{{body}}}")).expect("loads"));
        arm(&seeded);
        assert!(take_cell_fault("se", "tiny", 7), "the cell fault fires");
        eval_tick();
        let err = std::panic::catch_unwind(eval_tick).expect_err("second tick panics");
        assert!(is_injected_panic(&*err));
        disarm();
    }

    #[test]
    fn disarmed_hooks_are_inert() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        assert!(!armed());
        eval_tick(); // must not panic or tick
        assert!(!take_cell_fault("se", "tiny", 1));
    }

    #[test]
    fn eval_tick_panics_at_the_nth_evaluation() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = FaultPlan { panic_at_evaluations: Some(3), ..FaultPlan::default() };
        arm(&plan);
        eval_tick();
        eval_tick();
        let err = std::panic::catch_unwind(eval_tick).expect_err("third tick panics");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with(FAULT_PANIC_PREFIX), "panic is identifiable: {msg}");
        assert!(is_injected_panic(&*err));
        // Ticks past the target are inert again.
        eval_tick();
        disarm();
    }

    #[test]
    fn injected_panics_are_recognised_by_payload() {
        let payloads: [(Box<dyn Any + Send>, bool); 6] = [
            (Box::new("fault injection: cell"), true),
            (Box::new(format!("{FAULT_PANIC_PREFIX} evaluation 3")), true),
            (Box::new("index out of bounds"), false),
            (Box::new(String::from("real bug: fault injection: quoted later")), false),
            (Box::new(String::new()), false),
            (Box::new(7u32), false),
        ];
        for (payload, injected) in payloads {
            assert_eq!(is_injected_panic(&*payload), injected, "{payload:?}");
        }
    }

    #[test]
    fn cell_faults_are_consumed_once() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let fault = CellFault { algorithm: "ga".into(), scenario: "tiny".into(), seed: 3 };
        let plan = FaultPlan { cell_panics: vec![fault], ..FaultPlan::default() };
        arm(&plan);
        assert!(!take_cell_fault("ga", "tiny", 4), "seed mismatch leaves the fault");
        assert!(!take_cell_fault("se", "tiny", 3), "algorithm mismatch leaves the fault");
        assert!(take_cell_fault("ga", "tiny", 3), "first attempt takes the fault");
        assert!(!take_cell_fault("ga", "tiny", 3), "the retry finds it consumed");
        disarm();
        assert!(!armed());
    }
}
