//! Flattened, cache-friendly instance snapshot for the hot evaluation
//! path.
//!
//! [`HcInstance`] is the validated, serializable source of truth, but its
//! representation pays for generality on every lookup: `in_edges` chases
//! through boxed CSR arrays *and* materializes [`DataEdge`] values,
//! `exec_time`/`transfer_time` go through [`Matrix`] accessors, and
//! `transfer_time` re-derives the pair row each call. The evaluator runs
//! these lookups millions of times per SE run (§4.5 evaluates thousands
//! of candidate strings per iteration), so [`EvalSnapshot`] flattens
//! everything once into dense structure-of-arrays form:
//!
//! * predecessor CSR — `(src task, data item)` pairs per task, in the
//!   exact order `TaskGraph::in_edges` yields them (the evaluator's f64
//!   reduction order, and therefore its bit-exact results, depend on it).
//!   An edge's position in this CSR is its identity on the hot path;
//! * successor index — each task's outgoing edges as `(CSR position,
//!   consumer)` pairs, so a tier-3 move can find every edge it re-prices;
//! * the execution matrix `E` as one `l × k` row-major slab;
//! * the transfer matrix `Tr` as one `(l(l-1)/2 + 1) × p` row-major slab
//!   whose extra last row is all zeros, plus a flat `l × l` pair table
//!   holding each ordered machine pair's slab offset. The table's
//!   diagonal points at the zero row, so a co-located transfer is an
//!   ordinary lookup that reads `0.0` — no branch, no pair arithmetic.
//!
//! A snapshot is plain owned data (`Send + Sync`), so one snapshot can be
//! shared by any number of worker-thread evaluators — this is what
//! [`crate::BatchEvaluator`] fans out over.
//!
//! Every maximum the scheduling kernel takes goes through `later`, one
//! compare-select that returns `f64::max`'s bits on every time the
//! kernel folds.
//!
//! [`Matrix`]: mshc_platform::Matrix
//! [`DataEdge`]: mshc_taskgraph::DataEdge

use mshc_platform::{pair_count, pair_index, HcInstance, MachineId};
use mshc_taskgraph::{DataId, TaskId};
use std::ops::Range;

/// The later of the running maximum `acc` and the time `x`: the one
/// maximum of the scheduling kernel, in one compare-select.
///
/// For a non-NaN `acc` this returns exactly the bits of `acc.max(x)`
/// for every `x`, NaN included (both return `acc`), except on a tie of
/// zeros of opposite sign, where IEEE maxNum may return either zero and
/// this returns `acc`. `f64::max` pays for those cases: it compiles to a
/// max instruction plus a NaN fix-up (`cmpunord`, `and`, `andn`, `or`).
///
/// The kernel never reaches either case. Every accumulator starts at
/// `0.0` and only ever takes a value that compared greater, so it is
/// never NaN. Every time it folds is `0.0` (an idle machine's frontier)
/// or a sum of `finish + transfer` or `start + exec` terms, and
/// [`HcSystem`] admits only finite `E > 0` and finite `Tr >= 0`, at
/// construction and at deserialization. So each such sum is positive
/// (or `+inf` on overflow), never NaN and never `-0.0`, and a zero tie
/// is `+0.0` against `+0.0`. Fold operands keep `f64::max`'s order: the
/// accumulator first, the new time second.
///
/// One operand is `-inf` on purpose. A floor lane of
/// [`IncrementalEvaluator::score_cells`] never inserts the relocated
/// task, whose finish it holds at `-inf`, so each consumer folds
/// `-inf + Tr`, which is `-inf` for every finite `Tr`. `-inf > acc` is
/// false for every non-NaN `acc`, so `later` keeps the accumulator, as
/// `f64::max` does (`-inf` is no zero and no NaN): the arrival drops out
/// and the lane folds exactly the string without the task.
///
/// [`IncrementalEvaluator::score_cells`]: crate::IncrementalEvaluator::score_cells
///
/// [`HcSystem`]: mshc_platform::HcSystem
#[inline(always)]
pub(crate) fn later(acc: f64, x: f64) -> f64 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// Dense, immutable copy of everything the evaluator reads per pass.
///
/// Transfer costs are resolved through a flat `l × l` pair table whose
/// diagonal points at an all-zero `Tr` row, so every tier looks a cost
/// up the same way whether or not the endpoints share a machine. The
/// value read is the very `f64` stored in the instance's `Tr` matrix
/// (or `0.0` for a co-located pair, exactly what the model charges), so
/// the flat lookup cannot change any result bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSnapshot {
    k: usize,
    l: usize,
    p: usize,
    /// CSR offsets into `pred_src`/`pred_data`, indexed by task (`k + 1`).
    pred_offsets: Vec<u32>,
    /// Producing task per incoming edge, grouped by consumer.
    pred_src: Vec<u32>,
    /// Data item per incoming edge, grouped by consumer.
    pred_data: Vec<u32>,
    /// Offsets into `succ_edge`/`succ_dst`, indexed by task (`k + 1`).
    succ_offsets: Vec<u32>,
    /// Predecessor-CSR position of each outgoing edge, grouped by producer.
    succ_edge: Vec<u32>,
    /// Consuming task of each outgoing edge, grouped by producer.
    succ_dst: Vec<u32>,
    /// `E` as a row-major `l × k` slab: `exec[m * k + t]`.
    exec: Vec<f64>,
    /// `Tr` as a row-major `(l(l-1)/2 + 1) × p` slab:
    /// `transfer[pair * p + d]`, with an all-zero last row.
    transfer: Vec<f64>,
    /// `l × l`: slab offset of each ordered machine pair's `Tr` row,
    /// `pair_row[a * l + b] == pair_index(l, a, b) * p` off the diagonal
    /// and the zero row's offset on it.
    pair_row: Vec<usize>,
}

impl EvalSnapshot {
    /// Flattens `inst` into a snapshot. O(l·k + l²·p) one-time cost.
    pub fn new(inst: &HcInstance) -> EvalSnapshot {
        let g = inst.graph();
        let sys = inst.system();
        let (k, l, p) = (inst.task_count(), inst.machine_count(), inst.data_count());

        let mut pred_offsets = Vec::with_capacity(k + 1);
        let mut pred_src = Vec::with_capacity(p);
        let mut pred_data = Vec::with_capacity(p);
        pred_offsets.push(0u32);
        for t in g.tasks() {
            for e in g.in_edges(t) {
                pred_src.push(e.src.raw());
                pred_data.push(e.id.raw());
            }
            pred_offsets.push(pred_src.len() as u32);
        }

        // Successor index: counting sort of the predecessor CSR by
        // producer, so each task's outgoing edges sit contiguously.
        let mut succ_offsets = vec![0u32; k + 1];
        for &src in &pred_src {
            succ_offsets[src as usize + 1] += 1;
        }
        for t in 0..k {
            succ_offsets[t + 1] += succ_offsets[t];
        }
        let mut cursor = succ_offsets[..k].to_vec();
        let mut succ_edge = vec![0u32; pred_src.len()];
        let mut succ_dst = vec![0u32; pred_src.len()];
        for dst in 0..k {
            for e in pred_offsets[dst]..pred_offsets[dst + 1] {
                let src = pred_src[e as usize] as usize;
                let slot = cursor[src] as usize;
                succ_edge[slot] = e;
                succ_dst[slot] = dst as u32;
                cursor[src] += 1;
            }
        }

        // Both matrices are row-major with exactly the slabs' shapes, so
        // each slab is one slice copy.
        let exec = sys.exec_matrix().as_slice().to_vec();
        debug_assert_eq!(exec.len(), l * k, "E is l × k");
        let pairs = pair_count(l);
        let mut transfer = Vec::with_capacity((pairs + 1) * p);
        transfer.extend_from_slice(sys.transfer_matrix().as_slice());
        debug_assert_eq!(transfer.len(), pairs * p, "Tr is l(l-1)/2 × p");
        // The co-located row: the model charges nothing for data that
        // stays on its machine.
        transfer.resize((pairs + 1) * p, 0.0);
        let mut pair_row = vec![pairs * p; l * l];
        for a in 0..l {
            for b in (0..l).filter(|&b| b != a) {
                let row = pair_index(l, MachineId::from_usize(a), MachineId::from_usize(b));
                pair_row[a * l + b] = row * p;
            }
        }

        EvalSnapshot {
            k,
            l,
            p,
            pred_offsets,
            pred_src,
            pred_data,
            succ_offsets,
            succ_edge,
            succ_dst,
            exec,
            transfer,
            pair_row,
        }
    }

    /// Number of subtasks `k`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.k
    }

    /// Number of machines `l`.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.l
    }

    /// Number of data items `p`.
    #[inline]
    pub fn data_count(&self) -> usize {
        self.p
    }

    /// Number of DAG edges — the length of the predecessor CSR, whose
    /// positions identify edges on the hot path.
    #[inline]
    pub(crate) fn edge_count(&self) -> usize {
        self.pred_src.len()
    }

    /// `E[m][t]`: execution time of task `t` on machine `m`.
    #[inline]
    pub fn exec_time(&self, m: MachineId, t: TaskId) -> f64 {
        self.exec[m.index() * self.k + t.index()]
    }

    /// Time to move data item `d` between machines; zero when co-located.
    #[inline]
    pub fn transfer_time(&self, d: DataId, from: MachineId, to: MachineId) -> f64 {
        self.transfer[self.pair_row[from.index() * self.l + to.index()] + d.index()]
    }

    /// Slab offsets of the `Tr` rows of every pair `(x, to)`, indexed by
    /// `x` (the table is symmetric, so this is also every `(to, x)`).
    #[inline]
    pub(crate) fn pair_rows(&self, to: MachineId) -> &[usize] {
        &self.pair_row[to.index() * self.l..(to.index() + 1) * self.l]
    }

    /// The `Tr` slab: data item `d` over the pair whose slab offset is
    /// `row` (one of [`Self::pair_rows`]) costs `transfer_slab()[row + d]`.
    #[inline]
    pub(crate) fn transfer_slab(&self) -> &[f64] {
        &self.transfer
    }

    /// Transfer cost of the edge at predecessor-CSR position `e` over
    /// the pair whose slab offset is `row` (one of [`Self::pair_rows`]).
    #[inline]
    fn edge_transfer(&self, e: usize, row: usize) -> f64 {
        self.transfer[row + self.pred_data[e] as usize]
    }

    /// Predecessor-CSR positions of `t`'s incoming edges.
    #[inline]
    fn pred_edges(&self, t: TaskId) -> Range<usize> {
        self.pred_offsets[t.index()] as usize..self.pred_offsets[t.index() + 1] as usize
    }

    /// Incoming `(producer, data item)` pairs of `t`, in the same order
    /// `TaskGraph::in_edges` yields them.
    #[inline]
    pub fn preds(&self, t: TaskId) -> impl ExactSizeIterator<Item = (TaskId, DataId)> + Clone + '_ {
        self.pred_edges(t)
            .map(move |i| (TaskId::new(self.pred_src[i]), DataId::new(self.pred_data[i])))
    }

    /// Writes into `edge_cost` (indexed by predecessor-CSR position) the
    /// transfer cost of every edge into and out of `t`, with `t` on
    /// machine `m` and every other task on `machine[task]`. Edges not
    /// incident to `t` are untouched.
    pub(crate) fn resolve_task_edges(
        &self,
        t: TaskId,
        m: MachineId,
        machine: &[u32],
        edge_cost: &mut [f64],
    ) {
        let rows = self.pair_rows(m);
        for e in self.pred_edges(t) {
            edge_cost[e] = self.edge_transfer(e, rows[machine[self.pred_src[e] as usize] as usize]);
        }
        let succ = self.succ_offsets[t.index()] as usize..self.succ_offsets[t.index() + 1] as usize;
        for (&e, &dst) in self.succ_edge[succ.clone()].iter().zip(&self.succ_dst[succ]) {
            let e = e as usize;
            edge_cost[e] = self.edge_transfer(e, rows[machine[dst as usize] as usize]);
        }
    }

    /// One step of the left-to-right scheduling kernel: the
    /// `(start, finish)` times of task `t` placed on machine `m` with
    /// execution time `exec`, given the predecessor finish times, the
    /// machine-availability frontier, and `edge_cost(e, src, d)` — the
    /// transfer cost of the incoming edge at predecessor-CSR position `e`,
    /// carrying data item `d` from producer `src` to `m`.
    ///
    /// Every evaluation tier — the scalar full pass, the incremental
    /// evaluator's priming walk, and its checkpoint-resumed suffix
    /// replay — goes through this single definition; they differ only in
    /// where the edge cost comes from (one read of the `Tr` slab, or tier
    /// 3's per-edge cache of those same reads). The one other shape of
    /// the kernel is [`Self::lane_step`], which performs this same
    /// sequence once per cell lane; a lane's insertion of the relocated
    /// task calls [`Self::data_ready`] and finishes the step the same
    /// way. The bit-identity guarantee across tiers rests on these float
    /// operations happening in exactly this order: `start =
    /// later(ready, machine_avail[m])`, then `finish = start + exec`. Do
    /// not duplicate or reorder them.
    #[inline]
    pub(crate) fn schedule_step(
        &self,
        t: TaskId,
        m: MachineId,
        exec: f64,
        edge_cost: impl FnMut(usize, usize, usize) -> f64,
        finish: &[f64],
        machine_avail: &[f64],
    ) -> (f64, f64) {
        let ready = self.data_ready(t, edge_cost, finish);
        // Machine-order constraint: the machine must be free.
        let start = later(ready, machine_avail[m.index()]);
        (start, start + exec)
    }

    /// The data-arrival constraint of [`Self::schedule_step`]: `ready`
    /// starts at `0.0` and becomes `later(ready, finish[src] +
    /// edge_cost(e, src, d))` edge by edge, walking `t`'s zipped
    /// producer and data-item rows in predecessor-CSR order.
    #[inline]
    pub(crate) fn data_ready(
        &self,
        t: TaskId,
        mut edge_cost: impl FnMut(usize, usize, usize) -> f64,
        finish: &[f64],
    ) -> f64 {
        let edges = self.pred_edges(t);
        let preds = self.pred_src[edges.clone()].iter().zip(&self.pred_data[edges.clone()]);
        let mut ready = 0.0f64;
        for (e, (&src, &d)) in edges.zip(preds) {
            let src = src as usize;
            ready = later(ready, finish[src] + edge_cost(e, src, d as usize));
        }
        ready
    }

    /// The lane shape of [`Self::schedule_step`] — the second shape of
    /// the one scheduling kernel. Steps task `t` on machine `m` with
    /// execution time `exec` once per *lane*. The lanes are cells of one
    /// relocation grid: each replays the string without the relocated
    /// task, and lane `j` inserts that task at its own position on
    /// machine `lanes[j]`. `t` is never the relocated task itself: that
    /// one enters each lane through [`Self::data_ready`].
    /// `arrival(e, src)` says where the incoming edge at
    /// predecessor-CSR position `e` arrives from (see [`LaneArrival`]),
    /// `avail[j]` is `m`'s frontier in lane `j`, and `finish[j]`
    /// receives `t`'s finish time in lane `j`.
    ///
    /// Same op-order contract as [`Self::schedule_step`]: in every lane,
    /// `ready` starts at `0.0` and becomes `later(ready, finish + cost)`
    /// edge by edge in CSR order, then `start = later(ready, avail)` and
    /// `finish = start + exec`. A [`LaneArrival::Shared`] sum is the very
    /// `finish + cost` the scalar step adds, so each lane reproduces the
    /// scalar step of its own candidate bit for bit. A lane that has not
    /// inserted the relocated task yet gets the same inputs as every
    /// other such lane, so all of them hold the values of the string
    /// without it. The per-lane loops run over contiguous rows, which
    /// the compiler vectorizes.
    ///
    /// `W` is the lane count when it is known at compile time, and `0`
    /// for "the length of `lanes`". Every per-lane loop is element-wise,
    /// with no reduction across lanes, so `W` changes only how the
    /// compiler lays the loops out (a fixed trip count: no remainder
    /// loop, no trip-count checks), never an operation or its order.
    /// [`IncrementalEvaluator::score_cells`] compiles the widths of a
    /// floor walk's passes this way.
    ///
    /// [`IncrementalEvaluator::score_cells`]: crate::IncrementalEvaluator::score_cells
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lane_step<'a, const W: usize>(
        &self,
        t: TaskId,
        m: MachineId,
        exec: f64,
        lanes: &[MachineId],
        mut arrival: impl FnMut(usize, usize) -> LaneArrival<'a>,
        avail: &[f64],
        finish: &mut [f64],
    ) {
        debug_assert!(W == 0 || W == lanes.len(), "{} lanes in a {W}-lane step", lanes.len());
        let n = if W == 0 { lanes.len() } else { W };
        let (lanes, avail, ready) = (&lanes[..n], &avail[..n], &mut finish[..n]);
        ready.fill(0.0);
        let edges = self.pred_edges(t);
        let preds = self.pred_src[edges.clone()].iter().zip(&self.pred_data[edges.clone()]);
        for (e, (&src, &d)) in edges.zip(preds) {
            match arrival(e, src as usize) {
                LaneArrival::Shared(arrival) => {
                    for r in ready.iter_mut() {
                        *r = later(*r, arrival);
                    }
                }
                LaneArrival::Lanes(src_finish, cost) => {
                    for (r, &f) in ready.iter_mut().zip(&src_finish[..n]) {
                        *r = later(*r, f + cost);
                    }
                }
                LaneArrival::Moved(src_finish) => {
                    // The pair table is symmetric: row `x` of `m`'s rows
                    // is the `(x, m)` transfer row.
                    let (rows, d) = (self.pair_rows(m), d as usize);
                    for ((r, &f), &x) in ready.iter_mut().zip(&src_finish[..n]).zip(lanes) {
                        *r = later(*r, f + self.transfer[rows[x.index()] + d]);
                    }
                }
            }
        }
        for (r, &a) in ready.iter_mut().zip(avail) {
            *r = later(*r, a) + exec;
        }
    }
}

/// Where one incoming edge of a [`EvalSnapshot::lane_step`] arrives
/// from: the three cases a single-task relocation leaves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneArrival<'a> {
    /// A producer every lane shares (scheduled before the first cell's
    /// position): one `finish + edge cost`, broadcast to every lane.
    Shared(f64),
    /// A producer replayed in lanes over an edge not touching the
    /// relocated task: its per-lane finish times plus the edge's cached
    /// base cost.
    Lanes(&'a [f64], f64),
    /// The relocated task itself: its per-lane finish times, each over
    /// the transfer from that lane's machine to the consumer's. Its
    /// consumers come after every cell of a valid range, so each lane
    /// has inserted it by the time one of them reads it.
    Moved(&'a [f64]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::TaskGraphBuilder;
    use proptest::prelude::*;

    /// Signed zeros, the smallest and largest subnormals and normals,
    /// the extremes, both infinities and NaNs of both signs.
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1.0,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// Any `f64`: an edge case, a subnormal of either sign, or any bit
    /// pattern (NaNs included).
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..EDGES.len()).prop_map(|i| EDGES[i]),
            (1u64..1 << 52, any::<bool>())
                .prop_map(|(mantissa, neg)| f64::from_bits(mantissa | u64::from(neg) << 63)),
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `later` is `f64::max` bit for bit on every non-NaN
        /// accumulator and every new value, NaN included, except on a
        /// tie of zeros of opposite sign (where maxNum may return either
        /// zero and `later` keeps the accumulator). `later`'s doc shows
        /// the kernel never folds such a tie. The discrete-event
        /// `replay` keeps `f64::max`, so its agreement checks against
        /// the evaluators stay an independent oracle for this swap.
        #[test]
        fn later_is_f64_max_off_signed_zero_ties(acc in any_f64(), x in any_f64()) {
            // A NaN accumulator is outside the contract: fold it to
            // an infinity of its sign.
            let acc = if acc.is_nan() { f64::INFINITY.copysign(acc) } else { acc };
            let got = later(acc, x);
            if acc == 0.0 && x == 0.0 {
                prop_assert_eq!(got.to_bits(), acc.to_bits());
            } else {
                prop_assert_eq!(got.to_bits(), acc.max(x).to_bits(), "later({}, {})", acc, x);
            }
        }
    }

    fn instance() -> HcInstance {
        instance_on(3)
    }

    fn instance_on(machines: usize) -> HcInstance {
        let mut b = TaskGraphBuilder::new(4);
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let exec = Matrix::from_fn(machines, 4, |m, t| (m * 10 + t + 1) as f64);
        let transfer =
            Matrix::from_fn(pair_count(machines), 4, |pair, d| (pair * 100 + d + 1) as f64);
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    #[test]
    fn dimensions_and_lookups_match_instance() {
        let inst = instance();
        let snap = EvalSnapshot::new(&inst);
        assert_eq!(snap.task_count(), 4);
        assert_eq!(snap.machine_count(), 3);
        assert_eq!(snap.data_count(), 4);
        let sys = inst.system();
        for m in sys.machine_ids() {
            for t in inst.graph().tasks() {
                assert_eq!(snap.exec_time(m, t), sys.exec_time(m, t));
            }
        }
    }

    /// The slabs are the instance's row-major matrices: `E` verbatim,
    /// and `Tr` followed by the all-zero co-located row of `p` entries.
    #[test]
    fn slabs_copy_the_instance_matrices() {
        for machines in [1, 2, 5] {
            let inst = instance_on(machines);
            let snap = EvalSnapshot::new(&inst);
            let sys = inst.system();
            assert_eq!(snap.exec, sys.exec_matrix().as_slice(), "{machines} machines");
            let tr = sys.transfer_matrix().as_slice();
            assert_eq!(&snap.transfer[..tr.len()], tr, "{machines} machines");
            assert_eq!(snap.transfer[tr.len()..], vec![0.0; snap.data_count()]);
        }
    }

    /// The flat pair table reproduces the instance's transfer lookup for
    /// every `(d, a, b)` — co-located pairs included, which read the zero
    /// row — from a single machine (no `Tr` rows at all) upward.
    #[test]
    fn pair_table_lookups_match_instance() {
        for machines in [1, 2, 5] {
            let inst = instance_on(machines);
            let snap = EvalSnapshot::new(&inst);
            let sys = inst.system();
            for d in inst.graph().edges().iter().map(|e| e.id) {
                for a in sys.machine_ids() {
                    for b in sys.machine_ids() {
                        let want = sys.transfer_time(d, a, b);
                        assert_eq!(snap.transfer_time(d, a, b).to_bits(), want.to_bits());
                        assert_eq!(want == 0.0, a == b, "{machines} machines: ({d}, {a}, {b})");
                    }
                }
            }
        }
    }

    /// Every edge appears exactly once in the successor index, under its
    /// producer, pointing at its own predecessor-CSR position.
    #[test]
    fn successor_index_inverts_the_predecessor_csr() {
        let inst = instance();
        let snap = EvalSnapshot::new(&inst);
        let mut seen = vec![false; snap.edge_count()];
        for src in 0..snap.task_count() {
            let succ = snap.succ_offsets[src] as usize..snap.succ_offsets[src + 1] as usize;
            for (&e, &dst) in snap.succ_edge[succ.clone()].iter().zip(&snap.succ_dst[succ]) {
                let e = e as usize;
                assert!(!seen[e], "edge {e} indexed twice");
                seen[e] = true;
                assert_eq!(snap.pred_src[e] as usize, src);
                assert!(snap.pred_edges(TaskId::new(dst)).contains(&e));
            }
        }
        assert!(seen.iter().all(|&s| s), "every edge is indexed");
    }

    /// Resolving one task's edges writes exactly its incident edges, each
    /// with the instance's cost for the given placement.
    #[test]
    fn resolve_task_edges_touches_only_incident_edges() {
        let inst = instance();
        let snap = EvalSnapshot::new(&inst);
        let machine = [0u32, 1, 2, 0];
        let t = TaskId::new(1); // edges 0 -> 1 and 1 -> 3
        let m = MachineId::new(2);
        let mut cost = vec![-1.0; snap.edge_count()];
        snap.resolve_task_edges(t, m, &machine, &mut cost);
        let on = |u: TaskId| if u == t { m } else { MachineId::new(machine[u.index()]) };
        let mut e = 0;
        for dst in inst.graph().tasks() {
            for edge in inst.graph().in_edges(dst) {
                if edge.src == t || edge.dst == t {
                    let want = inst.system().transfer_time(edge.id, on(edge.src), on(edge.dst));
                    assert_eq!(cost[e], want, "{edge:?}");
                } else {
                    assert_eq!(cost[e], -1.0, "{edge:?} is not incident to {t}");
                }
                e += 1;
            }
        }
    }

    #[test]
    fn preds_match_in_edges_order() {
        let inst = instance();
        let snap = EvalSnapshot::new(&inst);
        for t in inst.graph().tasks() {
            let want: Vec<(TaskId, DataId)> =
                inst.graph().in_edges(t).map(|e| (e.src, e.id)).collect();
            let got: Vec<(TaskId, DataId)> = snap.preds(t).collect();
            assert_eq!(got, want, "{t}");
        }
    }
}
