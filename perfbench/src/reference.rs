//! A fixed CPU kernel timed next to every end-to-end measurement, so that
//! the measurement can be scaled to a nominal host speed.
//!
//! On a shared host the same solve runs up to 70 % slower in spells of a
//! few seconds, and the level of a whole run drifts by a fifth or more
//! from one run to the next. A time `t` is therefore reported as
//! `t · NOMINAL_S / r`, where `r` is the mean of this kernel's times just
//! before and just after the measured call. The kernel is the benchmark's
//! own code and calls no library function, so a change to the library
//! moves the measured time and leaves the reference alone.
//!
//! The kernel is shaped like the measured code: insertion-based list
//! scheduling of a fixed random DAG (100 tasks, 20 machines) under 64
//! fixed machine assignments, with per-machine busy lists and a final sort
//! by finish time. Branchy, allocating code like this tracked the solvers'
//! slowdowns more closely than a tight arithmetic loop did.

use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time on a 2-vCPU x86-64 container, so that a scaled
/// time reads like wall time there.
pub const NOMINAL_S: f64 = 0.0125;
/// Rounds over the 64 assignments per measurement.
const ROUNDS: usize = 20;
const TASKS: usize = 100;
const MACHINES: usize = 20;
const ASSIGNMENTS: usize = 64;

pub struct Reference {
    /// Per task: `(predecessor, communication cost)`, predecessors earlier.
    preds: Vec<Vec<(usize, f64)>>,
    /// Row-major `TASKS × MACHINES` execution times.
    exec: Vec<f64>,
    assignments: Vec<Vec<usize>>,
    /// Reference time after the last measured call.
    last: f64,
}

/// xorshift64: the kernel's inputs are the same on every run.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Reference {
    /// Builds the kernel's inputs and takes the first reference time.
    pub fn new() -> Reference {
        let mut s = 0x9e37_79b9_7f4a_7c15;
        let preds = (0..TASKS)
            .map(|t| {
                let n = if t == 0 { 0 } else { next(&mut s) % 4 };
                (0..n)
                    .map(|_| ((next(&mut s) % t as u64) as usize, (next(&mut s) % 50) as f64))
                    .collect()
            })
            .collect();
        let exec = (0..TASKS * MACHINES).map(|_| 1.0 + (next(&mut s) % 100) as f64).collect();
        let assignments = (0..ASSIGNMENTS)
            .map(|_| (0..TASKS).map(|_| (next(&mut s) % MACHINES as u64) as usize).collect())
            .collect();
        let mut r = Reference { preds, exec, assignments, last: 0.0 };
        r.last = r.time();
        r
    }

    /// Wall seconds of one measurement of the kernel.
    fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..ROUNDS {
            for a in &self.assignments {
                acc += self.schedule(black_box(a));
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// Makespan of one assignment, tasks inserted into the earliest idle
    /// gap of their machine.
    fn schedule(&self, assignment: &[usize]) -> f64 {
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); MACHINES];
        let mut finish = vec![0.0f64; TASKS];
        for (t, &m) in assignment.iter().enumerate() {
            let ready = self.preds[t].iter().fold(0.0f64, |r, &(p, c)| {
                r.max(finish[p] + if assignment[p] == m { 0.0 } else { c })
            });
            let d = self.exec[t * MACHINES + m];
            let slots = &mut busy[m];
            let (mut start, mut at) = (ready, slots.len());
            for (j, &(s, e)) in slots.iter().enumerate() {
                if start + d <= s {
                    at = j;
                    break;
                }
                start = start.max(e);
            }
            slots.insert(at, (start, start + d));
            finish[t] = start + d;
        }
        let mut order: Vec<(f64, usize)> = finish.iter().copied().zip(0..).collect();
        order.sort_by(|x, y| x.0.total_cmp(&y.0));
        order[TASKS - 1].0
    }

    /// Scales `secs`, measured since the last call (or since `new`), to
    /// the nominal host speed, and takes the reference time that the next
    /// measurement starts from.
    pub fn normalize(&mut self, secs: f64) -> f64 {
        let before = self.last;
        self.last = self.time();
        secs * NOMINAL_S / (0.5 * (before + self.last))
    }
}
