//! Typed errors for solution construction.

use mshc_taskgraph::TaskId;
use std::fmt;

/// Errors produced when constructing or mutating a [`crate::Solution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The string does not contain every task exactly once.
    NotAPermutation,
    /// The string order violates a precedence constraint: `later` appears
    /// before `earlier` although `earlier -> later` is an edge.
    PrecedenceViolation {
        /// The producing task.
        earlier: TaskId,
        /// The consuming task that appears too early in the string.
        later: TaskId,
    },
    /// A segment references a machine id `>= machine_count`.
    MachineOutOfRange {
        /// The offending machine index.
        machine: u32,
        /// Number of machines in the system.
        machine_count: usize,
    },
    /// The string length does not match the instance's task count.
    LengthMismatch {
        /// Segments in the string.
        got: usize,
        /// Tasks in the instance.
        expected: usize,
    },
    /// A move target position lies outside the task's valid range.
    OutOfValidRange {
        /// The task being moved.
        task: TaskId,
        /// Requested position.
        position: usize,
        /// Inclusive valid range.
        range: (usize, usize),
    },
    /// A [`crate::RunBudget`] with no stopping limit was handed to an
    /// iterative (anytime) scheduler, which would run forever.
    UnboundedBudget,
    /// A [`crate::RunBudget`] deadline that can never be meaningful: a
    /// zero evaluation-count deadline or a zero wall-clock deadline
    /// would fire before the first incumbent exists.
    InvalidDeadline {
        /// Which deadline axis was rejected (`"deadline_evals"` or
        /// `"deadline_wall"`).
        axis: &'static str,
    },
    /// A [`crate::CancelToken`] that had already fired was attached to a
    /// budget before the run started — almost certainly a reused token
    /// from a previous request; cancel tokens are one-shot.
    CancelledBeforeStart,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotAPermutation => {
                write!(f, "solution string must contain every task exactly once")
            }
            ScheduleError::PrecedenceViolation { earlier, later } => {
                write!(f, "precedence violation: {later} appears before its predecessor {earlier}")
            }
            ScheduleError::MachineOutOfRange { machine, machine_count } => {
                write!(f, "machine index {machine} out of range (system has {machine_count})")
            }
            ScheduleError::LengthMismatch { got, expected } => {
                write!(f, "string has {got} segments but the instance has {expected} tasks")
            }
            ScheduleError::OutOfValidRange { task, position, range } => write!(
                f,
                "position {position} for {task} outside valid range [{}, {}]",
                range.0, range.1
            ),
            ScheduleError::UnboundedBudget => write!(
                f,
                "iterative schedulers need a bounded run budget: set at least one of \
                 max_iterations, max_evaluations or max_wall"
            ),
            ScheduleError::InvalidDeadline { axis } => write!(
                f,
                "{axis} must be positive: a zero deadline would fire before the \
                 first incumbent exists and can never return a schedule"
            ),
            ScheduleError::CancelledBeforeStart => write!(
                f,
                "cancel token already fired before the run started: cancel tokens \
                 are one-shot, create a fresh CancelToken per request"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(ScheduleError::NotAPermutation.to_string().contains("exactly once"));
        let e =
            ScheduleError::PrecedenceViolation { earlier: TaskId::new(1), later: TaskId::new(4) };
        assert!(e.to_string().contains("s4"));
        assert!(e.to_string().contains("s1"));
        let e = ScheduleError::MachineOutOfRange { machine: 9, machine_count: 2 };
        assert!(e.to_string().contains('9'));
        let e = ScheduleError::LengthMismatch { got: 3, expected: 7 };
        assert!(e.to_string().contains('7'));
        let e = ScheduleError::OutOfValidRange { task: TaskId::new(2), position: 5, range: (1, 3) };
        assert!(e.to_string().contains("[1, 3]"));
        assert!(ScheduleError::UnboundedBudget.to_string().contains("bounded run budget"));
        let e = ScheduleError::InvalidDeadline { axis: "deadline_evals" };
        assert!(e.to_string().contains("deadline_evals"));
        assert!(e.to_string().contains("positive"));
        assert!(ScheduleError::CancelledBeforeStart.to_string().contains("one-shot"));
    }
}
