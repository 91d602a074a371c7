//! Golden trajectory of SE at the paper's 100-task/20-machine scale.
//!
//! SE's best-fit allocation scan is a pure cost path: however it scores
//! the candidate grid, it must commit the same argmin, charge the same
//! evaluations and report the same scorings. These constants were
//! captured from the bounded-argmin scan that preceded the machine-lane
//! scan; any change to a scan that moves a solution, a score bit or a
//! count fails here. The scan's checkpoint stride is a cost knob too:
//! at this scale every grid commits the same cell with a checkpoint at
//! every position as at the auto stride.

use mshc::prelude::*;

/// FNV-1a over the solution string's `(task, machine)` pairs.
fn solution_hash(sol: &Solution) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for seg in sol.segments() {
        for word in [seg.task.raw(), seg.machine.raw()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

struct Golden {
    objective: ObjectiveKind,
    y_limit: Option<usize>,
    makespan_bits: u64,
    objective_bits: u64,
    evaluations: u64,
    scored: u64,
    hash: u64,
}

#[test]
fn se_trajectory_matches_the_pinned_run() {
    let inst = WorkloadSpec::large(7).generate();
    let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
    let golden = [
        Golden {
            objective: ObjectiveKind::Makespan,
            y_limit: None,
            makespan_bits: 0x40a5_361f_5ab5_f4dd,
            objective_bits: 0x40a5_361f_5ab5_f4dd,
            evaluations: 128_384,
            scored: 127_287,
            hash: 0x173e_5374_834f_149f,
        },
        Golden {
            objective: ObjectiveKind::TotalFlowtime,
            y_limit: None,
            makespan_bits: 0x40a5_d9d5_43cf_88d8,
            objective_bits: 0x40fe_72de_a83f_292a,
            evaluations: 120_106,
            scored: 119_125,
            hash: 0xfc4f_1e06_66ea_f2e9,
        },
        Golden {
            objective: weighted,
            y_limit: None,
            makespan_bits: 0x40a6_826e_b6b6_ed90,
            objective_bits: 0x40ac_192b_499a_619c,
            evaluations: 190_664,
            scored: 189_207,
            hash: 0x0c05_d582_6cdc_1dd0,
        },
        Golden {
            objective: ObjectiveKind::Makespan,
            y_limit: Some(5),
            makespan_bits: 0x40a5_f0f6_76f5_dff4,
            objective_bits: 0x40a5_f0f6_76f5_dff4,
            evaluations: 32_178,
            scored: 31_105,
            hash: 0x8005_54fe_d7ec_8545,
        },
    ];
    let runs: Vec<(String, RunResult)> = golden
        .iter()
        .map(|g| {
            let cfg = SeConfig {
                seed: 7,
                selection_bias: SeConfig::recommended_bias(inst.task_count()),
                y_limit: g.y_limit,
                ..SeConfig::default()
            };
            let budget = RunBudget::iterations(30).with_objective(g.objective);
            let r = SeScheduler::new(cfg).run(&inst, &budget, None);
            let label = format!("{} y {:?}", g.objective.label(), g.y_limit);
            println!(
                "{label}: makespan_bits: {:#x}, objective_bits: {:#x}, evaluations: {}, \
                 scored: {}, hash: {:#x}",
                r.makespan.to_bits(),
                r.objective_value.to_bits(),
                r.evaluations,
                r.scan.scored,
                solution_hash(&r.solution)
            );
            (label, r)
        })
        .collect();
    for (g, (label, r)) in golden.iter().zip(&runs) {
        assert_eq!(r.makespan.to_bits(), g.makespan_bits, "{label}: makespan");
        assert_eq!(r.objective_value.to_bits(), g.objective_bits, "{label}: objective");
        assert_eq!(r.evaluations, g.evaluations, "{label}: evaluations");
        assert_eq!(r.scan.scored, g.scored, "{label}: scorings");
        assert_eq!(solution_hash(&r.solution), g.hash, "{label}: solution");
    }
}

/// Tier 3 resumes from the nearest checkpoint and re-prices a moved
/// task's edges for every machine-changing candidate, so a checkpoint at
/// every position must score each grid exactly like the auto stride
/// `⌈√k⌉`: same cell, same score bits, same evaluations, same counters.
#[test]
fn allocation_scans_are_stride_invariant_at_paper_scale() {
    let inst = WorkloadSpec::large(7).generate();
    let cfg = SeConfig {
        seed: 7,
        selection_bias: SeConfig::recommended_bias(inst.task_count()),
        ..SeConfig::default()
    };
    let base = SeScheduler::new(cfg).run(&inst, &RunBudget::iterations(5), None).solution;
    let (g, snap) = (inst.graph(), EvalSnapshot::new(&inst));
    let mut auto = BatchEvaluator::new(&snap);
    let mut every = BatchEvaluator::new(&snap).with_stride(Some(1));
    for t in g.tasks() {
        let (lo, hi) = base.valid_range(g, t);
        let machines = inst.system().machine_ranking(t);
        let scan = |batch: &mut BatchEvaluator<'_>| {
            let cell = batch
                .best_relocation(g, &base, t, lo..=hi, &machines, &ObjectiveKind::Makespan)
                .expect("100x20 grids are never empty");
            (cell.pos, cell.machine, cell.score.to_bits())
        };
        assert_eq!(scan(&mut auto), scan(&mut every), "{t}: cell");
        assert_eq!(auto.evaluations(), every.evaluations(), "{t}: evaluations");
        assert_eq!(auto.scan_stats(), every.scan_stats(), "{t}: scan counters");
    }
    assert!(auto.scan_stats().scored > 0);
}
