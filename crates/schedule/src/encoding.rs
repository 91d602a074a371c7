//! The combined matching + scheduling string (§4.1 of the paper).

use crate::error::ScheduleError;
use mshc_platform::MachineId;
use mshc_taskgraph::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// One segment of the solution string: subtask `task` is assigned to
/// machine `machine`; its position in the string orders it relative to the
/// other tasks on the same machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// The subtask.
    pub task: TaskId,
    /// The machine the subtask is matched to.
    pub machine: MachineId,
}

/// A complete candidate solution to MSHC.
///
/// Invariants, enforced by every constructor and mutator (a failed
/// [`rebuild`](Solution::rebuild) excepted, see there):
///
/// 1. the segment sequence contains every task exactly once;
/// 2. the task order is a linear extension of the DAG (every task after
///    all of its predecessors);
/// 3. every machine id is `< machine_count`.
///
/// Because of (2), the per-machine execution orders read off the string
/// are always precedence-consistent, and the makespan evaluator can run in
/// a single left-to-right pass.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    segments: Vec<Segment>,
    /// `position[t] = index of t's segment` — kept in sync with `segments`.
    position: Vec<u32>,
    machine_count: u32,
}

/// Written by hand because the derived `clone_from` is `*self =
/// source.clone()`, which replaces both buffers; this one copies into
/// them, so a reused solution (an arena scratch, a search's incumbent, a
/// GA child) keeps its allocations.
impl Clone for Solution {
    fn clone(&self) -> Solution {
        Solution {
            segments: self.segments.clone(),
            position: self.position.clone(),
            machine_count: self.machine_count,
        }
    }

    fn clone_from(&mut self, source: &Solution) {
        self.segments.clone_from(&source.segments);
        self.position.clone_from(&source.position);
        self.machine_count = source.machine_count;
    }
}

impl Solution {
    /// Validates and wraps a segment string.
    pub fn new(
        graph: &TaskGraph,
        machine_count: usize,
        segments: Vec<Segment>,
    ) -> Result<Solution, ScheduleError> {
        let mut sol = Solution { segments, position: Vec::new(), machine_count: 0 };
        sol.index(graph, machine_count)?;
        Ok(sol)
    }

    /// Replaces the segment string with `segments`, reusing both of this
    /// solution's buffers, and validates the result exactly as
    /// [`Solution::new`] does (permutation, machine range, precedence).
    /// The machine count is kept.
    ///
    /// On error the solution holds the rejected string and breaks the
    /// type's invariants: rebuild it again or drop it.
    pub fn rebuild(
        &mut self,
        graph: &TaskGraph,
        segments: impl IntoIterator<Item = Segment>,
    ) -> Result<(), ScheduleError> {
        self.segments.clear();
        self.segments.extend(segments);
        self.index(graph, self.machine_count())
    }

    /// The one validator: rebuilds `position` from `segments` and checks
    /// every invariant against `graph` and `machine_count`.
    fn index(&mut self, graph: &TaskGraph, machine_count: usize) -> Result<(), ScheduleError> {
        let k = graph.task_count();
        if self.segments.len() != k {
            return Err(ScheduleError::LengthMismatch { got: self.segments.len(), expected: k });
        }
        let position = &mut self.position;
        position.clear();
        position.resize(k, u32::MAX);
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.task.index() >= k || position[seg.task.index()] != u32::MAX {
                return Err(ScheduleError::NotAPermutation);
            }
            position[seg.task.index()] = i as u32;
            if seg.machine.index() >= machine_count {
                return Err(ScheduleError::MachineOutOfRange {
                    machine: seg.machine.raw(),
                    machine_count,
                });
            }
        }
        for e in graph.edges() {
            if position[e.src.index()] > position[e.dst.index()] {
                return Err(ScheduleError::PrecedenceViolation { earlier: e.src, later: e.dst });
            }
        }
        self.machine_count = machine_count as u32;
        Ok(())
    }

    /// Builds a solution from a task order and a per-task machine
    /// assignment (`assignment[t.index()]`).
    pub fn from_order(
        graph: &TaskGraph,
        machine_count: usize,
        order: &[TaskId],
        assignment: &[MachineId],
    ) -> Result<Solution, ScheduleError> {
        if assignment.len() != graph.task_count() {
            return Err(ScheduleError::LengthMismatch {
                got: assignment.len(),
                expected: graph.task_count(),
            });
        }
        let segments =
            order.iter().map(|&t| Segment { task: t, machine: assignment[t.index()] }).collect();
        Solution::new(graph, machine_count, segments)
    }

    /// Wraps segments **without validating** the linear-extension
    /// invariant. Only for tests and failure-injection experiments (e.g.
    /// demonstrating that the discrete-event replay detects deadlocks on
    /// inconsistent strings). Everything else must use [`Solution::new`].
    #[doc(hidden)]
    pub fn new_unchecked(machine_count: usize, segments: Vec<Segment>) -> Solution {
        let k = segments.len();
        let mut position = vec![u32::MAX; k];
        for (i, seg) in segments.iter().enumerate() {
            position[seg.task.index()] = i as u32;
        }
        Solution { segments, position, machine_count: machine_count as u32 }
    }

    /// Number of segments (= tasks).
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the string is empty (never true for a valid instance).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of machines this solution is dimensioned for.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.machine_count as usize
    }

    /// The segment string.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The segment at `position`.
    #[inline]
    pub fn segment_at(&self, position: usize) -> Segment {
        self.segments[position]
    }

    /// Machine assigned to `t`.
    #[inline]
    pub fn machine_of(&self, t: TaskId) -> MachineId {
        self.segments[self.position_of(t)].machine
    }

    /// Position of `t`'s segment in the string.
    #[inline]
    pub fn position_of(&self, t: TaskId) -> usize {
        self.position[t.index()] as usize
    }

    /// Task order (ignores machines).
    pub fn order(&self) -> impl ExactSizeIterator<Item = TaskId> + Clone + '_ {
        self.segments.iter().map(|s| s.task)
    }

    /// Execution order on machine `m`, left-to-right.
    pub fn machine_order(&self, m: MachineId) -> Vec<TaskId> {
        self.segments.iter().filter(|s| s.machine == m).map(|s| s.task).collect()
    }

    /// Per-task machine assignment as a dense vector.
    pub fn assignment(&self) -> Vec<MachineId> {
        let mut a = vec![MachineId::new(0); self.len()];
        for seg in &self.segments {
            a[seg.task.index()] = seg.machine;
        }
        a
    }

    /// The inclusive range of string positions at which `t`'s segment may
    /// sit without violating precedence: from just after its latest-placed
    /// predecessor to just before its earliest-placed successor (§4.2's
    /// "valid range of positions").
    ///
    /// Positions refer to the string *after* removing `t` and re-inserting
    /// it, which coincides with current positions for every target inside
    /// the range. The current position is always inside the range.
    pub fn valid_range(&self, graph: &TaskGraph, t: TaskId) -> (usize, usize) {
        let mut lo = 0usize;
        for p in graph.predecessors(t) {
            lo = lo.max(self.position_of(p) + 1);
        }
        let mut hi = self.len() - 1;
        for s in graph.successors(t) {
            hi = hi.min(self.position_of(s).saturating_sub(1));
        }
        debug_assert!(lo <= hi, "linear extension guarantees a non-empty range");
        (lo, hi)
    }

    /// Moves `t` to string position `new_pos` (remove-then-insert
    /// semantics) and assigns it to `new_machine`.
    ///
    /// Fails if `new_pos` is outside the valid range or the machine is out
    /// of range; on failure the solution is unchanged.
    pub fn move_task(
        &mut self,
        graph: &TaskGraph,
        t: TaskId,
        new_pos: usize,
        new_machine: MachineId,
    ) -> Result<(), ScheduleError> {
        if new_machine.index() >= self.machine_count() {
            return Err(ScheduleError::MachineOutOfRange {
                machine: new_machine.raw(),
                machine_count: self.machine_count(),
            });
        }
        let range = self.valid_range(graph, t);
        if new_pos < range.0 || new_pos > range.1 {
            return Err(ScheduleError::OutOfValidRange { task: t, position: new_pos, range });
        }
        let old_pos = self.position_of(t);
        let seg = Segment { task: t, machine: new_machine };
        self.segments.remove(old_pos);
        self.segments.insert(new_pos, seg);
        // Refresh positions over the disturbed span only.
        let (lo, hi) = (old_pos.min(new_pos), old_pos.max(new_pos));
        for i in lo..=hi {
            self.position[self.segments[i].task.index()] = i as u32;
        }
        Ok(())
    }

    /// Changes only the machine of `t`, keeping the order.
    pub fn reassign(&mut self, t: TaskId, machine: MachineId) -> Result<(), ScheduleError> {
        if machine.index() >= self.machine_count() {
            return Err(ScheduleError::MachineOutOfRange {
                machine: machine.raw(),
                machine_count: self.machine_count(),
            });
        }
        let p = self.position_of(t);
        self.segments[p].machine = machine;
        Ok(())
    }

    /// Checks the full invariant set against `graph` (used by property
    /// tests; ordinary code can rely on the constructors).
    pub fn check(&self, graph: &TaskGraph) -> Result<(), ScheduleError> {
        Solution::new(graph, self.machine_count(), self.segments.clone()).map(|_| ())
    }

    /// Renders the string in the paper's Figure-2 style:
    /// `s0:m0 | s1:m1 | ...`.
    pub fn display_string(&self) -> String {
        let parts: Vec<String> =
            self.segments.iter().map(|s| format!("{}:{}", s.task, s.machine)).collect();
        parts.join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_taskgraph::TaskGraphBuilder;

    fn figure1() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        b.build().unwrap()
    }

    fn seg(t: u32, m: u32) -> Segment {
        Segment { task: TaskId::new(t), machine: MachineId::new(m) }
    }

    /// The schedule the paper's Figure 2 denotes, in canonical (linear
    /// extension) form: m0 runs s0, s3, s4; m1 runs s1, s2, s5, s6.
    fn figure2_solution(g: &TaskGraph) -> Solution {
        Solution::new(
            g,
            2,
            vec![seg(0, 0), seg(1, 1), seg(2, 1), seg(3, 0), seg(4, 0), seg(5, 1), seg(6, 1)],
        )
        .unwrap()
    }

    #[test]
    fn figure2_machine_orders() {
        let g = figure1();
        let s = figure2_solution(&g);
        let m0: Vec<u32> = s.machine_order(MachineId::new(0)).iter().map(|t| t.raw()).collect();
        let m1: Vec<u32> = s.machine_order(MachineId::new(1)).iter().map(|t| t.raw()).collect();
        assert_eq!(m0, vec![0, 3, 4]);
        assert_eq!(m1, vec![1, 2, 5, 6]);
    }

    #[test]
    fn accessors() {
        let g = figure1();
        let s = figure2_solution(&g);
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.machine_of(TaskId::new(3)), MachineId::new(0));
        assert_eq!(s.position_of(TaskId::new(5)), 5);
        assert_eq!(s.segment_at(1), seg(1, 1));
        let asg = s.assignment();
        assert_eq!(asg[0], MachineId::new(0));
        assert_eq!(asg[2], MachineId::new(1));
        let order: Vec<u32> = s.order().map(|t| t.raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn display_string_format() {
        let g = figure1();
        let s = figure2_solution(&g);
        assert!(s.display_string().starts_with("s0:m0 | s1:m1"));
    }

    #[test]
    fn rejects_non_permutation() {
        let g = figure1();
        let mut segs: Vec<Segment> = (0..7).map(|i| seg(i, 0)).collect();
        segs[6] = seg(0, 0); // duplicate s0
        assert_eq!(Solution::new(&g, 2, segs).unwrap_err(), ScheduleError::NotAPermutation);
    }

    #[test]
    fn rejects_length_mismatch() {
        let g = figure1();
        let segs: Vec<Segment> = (0..5).map(|i| seg(i, 0)).collect();
        assert!(matches!(
            Solution::new(&g, 2, segs).unwrap_err(),
            ScheduleError::LengthMismatch { got: 5, expected: 7 }
        ));
    }

    #[test]
    fn rejects_precedence_violation() {
        let g = figure1();
        // s5 before its predecessor s2
        let segs =
            vec![seg(0, 0), seg(1, 0), seg(5, 0), seg(2, 0), seg(3, 0), seg(4, 0), seg(6, 0)];
        assert!(matches!(
            Solution::new(&g, 2, segs).unwrap_err(),
            ScheduleError::PrecedenceViolation { .. }
        ));
    }

    #[test]
    fn rejects_machine_out_of_range() {
        let g = figure1();
        let segs: Vec<Segment> = (0..7).map(|i| seg(i, if i == 3 { 5 } else { 0 })).collect();
        assert!(matches!(
            Solution::new(&g, 2, segs).unwrap_err(),
            ScheduleError::MachineOutOfRange { machine: 5, machine_count: 2 }
        ));
    }

    #[test]
    fn from_order_builds_same_solution() {
        let g = figure1();
        let order: Vec<TaskId> = (0..7).map(TaskId::new).collect();
        let assignment: Vec<MachineId> =
            [0, 1, 1, 0, 0, 1, 1].iter().map(|&m| MachineId::new(m)).collect();
        let s = Solution::from_order(&g, 2, &order, &assignment).unwrap();
        assert_eq!(s, figure2_solution(&g));
    }

    #[test]
    fn valid_range_figure1() {
        let g = figure1();
        let s = figure2_solution(&g);
        // s4 (pos 4): pred s1 at 1, succ s6 at 6 => [2, 5]
        assert_eq!(s.valid_range(&g, TaskId::new(4)), (2, 5));
        // s0 (pos 0): no preds, succs s2@2, s3@3 => [0, 1]
        assert_eq!(s.valid_range(&g, TaskId::new(0)), (0, 1));
        // s6 (pos 6): pred s4@4, no succs => [5, 6]
        assert_eq!(s.valid_range(&g, TaskId::new(6)), (5, 6));
    }

    #[test]
    fn valid_range_contains_current_position() {
        let g = figure1();
        let s = figure2_solution(&g);
        for t in g.tasks() {
            let (lo, hi) = s.valid_range(&g, t);
            let p = s.position_of(t);
            assert!(lo <= p && p <= hi, "{t}: pos {p} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn move_task_within_range() {
        let g = figure1();
        let mut s = figure2_solution(&g);
        // Move s4 from position 4 to position 2 on machine m1.
        s.move_task(&g, TaskId::new(4), 2, MachineId::new(1)).unwrap();
        assert_eq!(s.position_of(TaskId::new(4)), 2);
        assert_eq!(s.machine_of(TaskId::new(4)), MachineId::new(1));
        s.check(&g).unwrap();
        // Order now: s0 s1 s4 s2 s3 s5 s6
        let order: Vec<u32> = s.order().map(|t| t.raw()).collect();
        assert_eq!(order, vec![0, 1, 4, 2, 3, 5, 6]);
        // positions stay consistent for every task
        for t in g.tasks() {
            assert_eq!(s.segment_at(s.position_of(t)).task, t);
        }
    }

    #[test]
    fn move_task_to_same_position_changes_machine_only() {
        let g = figure1();
        let mut s = figure2_solution(&g);
        s.move_task(&g, TaskId::new(2), 2, MachineId::new(0)).unwrap();
        let order: Vec<u32> = s.order().map(|t| t.raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(s.machine_of(TaskId::new(2)), MachineId::new(0));
    }

    #[test]
    fn move_task_rejects_out_of_range_position() {
        let g = figure1();
        let mut s = figure2_solution(&g);
        let before = s.clone();
        let err = s.move_task(&g, TaskId::new(4), 6, MachineId::new(0)).unwrap_err();
        assert!(matches!(err, ScheduleError::OutOfValidRange { .. }));
        assert_eq!(s, before, "failed move must leave solution unchanged");
    }

    #[test]
    fn move_task_rejects_bad_machine() {
        let g = figure1();
        let mut s = figure2_solution(&g);
        let err = s.move_task(&g, TaskId::new(4), 3, MachineId::new(7)).unwrap_err();
        assert!(matches!(err, ScheduleError::MachineOutOfRange { .. }));
    }

    #[test]
    fn reassign_changes_machine() {
        let g = figure1();
        let mut s = figure2_solution(&g);
        s.reassign(TaskId::new(5), MachineId::new(0)).unwrap();
        assert_eq!(s.machine_of(TaskId::new(5)), MachineId::new(0));
        assert!(s.reassign(TaskId::new(5), MachineId::new(9)).is_err());
    }

    #[test]
    fn clone_from_reuses_both_buffers() {
        let g = figure1();
        let src = figure2_solution(&g);
        let mut dst = Solution::new(&g, 2, (0..7).map(|i| seg(i, 0)).collect()).unwrap();
        let (segments, position) = (dst.segments.as_ptr(), dst.position.as_ptr());
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.segments.as_ptr(), segments, "segment buffer reused");
        assert_eq!(dst.position.as_ptr(), position, "position buffer reused");
    }

    #[test]
    fn rebuild_validates_like_new_and_reuses_buffers() {
        let g = figure1();
        let want = figure2_solution(&g);
        let mut s = Solution::new(&g, 2, (0..7).map(|i| seg(i, 0)).collect()).unwrap();
        let (segments, position) = (s.segments.as_ptr(), s.position.as_ptr());
        s.rebuild(&g, want.segments().iter().copied()).unwrap();
        assert_eq!(s, want);
        assert_eq!(s.segments.as_ptr(), segments, "segment buffer reused");
        assert_eq!(s.position.as_ptr(), position, "position buffer reused");
        // The same rejections as `new`, in the same precedence.
        let bad: [(Vec<Segment>, ScheduleError); 3] = [
            (
                (0..5).map(|i| seg(i, 0)).collect(),
                ScheduleError::LengthMismatch { got: 5, expected: 7 },
            ),
            ((0..7).map(|i| seg(i.min(5), 0)).collect(), ScheduleError::NotAPermutation),
            (
                (0..7).map(|i| seg(i, if i == 3 { 5 } else { 0 })).collect(),
                ScheduleError::MachineOutOfRange { machine: 5, machine_count: 2 },
            ),
        ];
        for (segs, err) in bad {
            assert_eq!(Solution::new(&g, 2, segs.clone()).unwrap_err(), err);
            assert_eq!(s.rebuild(&g, segs).unwrap_err(), err);
        }
        let reversed: Vec<Segment> = (0..7).rev().map(|i| seg(i, 0)).collect();
        assert!(matches!(
            s.rebuild(&g, reversed).unwrap_err(),
            ScheduleError::PrecedenceViolation { .. }
        ));
        s.rebuild(&g, want.segments().iter().copied()).unwrap();
        assert_eq!(s, want, "a rejected string is repaired by the next rebuild");
    }

    #[test]
    fn moves_preserve_validity_under_stress() {
        use rand::{Rng, SeedableRng};
        let g = figure1();
        let mut s = figure2_solution(&g);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        for _ in 0..500 {
            let t = TaskId::new(rng.gen_range(0..7));
            let (lo, hi) = s.valid_range(&g, t);
            let pos = rng.gen_range(lo..=hi);
            let m = MachineId::new(rng.gen_range(0..2));
            s.move_task(&g, t, pos, m).unwrap();
        }
        s.check(&g).unwrap();
    }
}
