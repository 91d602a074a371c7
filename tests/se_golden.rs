//! Golden trajectory of SE at the paper's 100-task/20-machine scale.
//!
//! SE's best-fit allocation scan is a pure cost path: however it scores
//! the candidate grid, it must commit the same argmin and charge the
//! same evaluations. These constants were captured from the
//! bounded-argmin scan that preceded the machine-lane scan; any change
//! to a scan that moves a solution, a score bit or an evaluation count
//! fails here. The mean-flowtime and load-balance rows were captured
//! before the scoring kernels began folding only what their objective
//! reads: the finish-time sum without the busy times, and the busy
//! times without the sum. `scored` counts replays, the scan's own cost:
//! the scan replays one cell per run of identical schedules (cells whose
//! positions differ only by tasks on other machines), so the load-balance
//! row replays 60,159 of the 477,410 cells behind its evaluations. Under
//! an objective that reads the finish-time sum the other cells of each
//! run are refolded from the replayed one, not replayed: the
//! total-flowtime, mean-flowtime and `weighted:1,0.5,0.25` rows replay
//! 14,991, 15,030 and 23,028 cells, down from 119,125, 119,524 and
//! 189,207 when every cell was replayed. Under makespan the scan also
//! stops once a cell scores the makespan of the string without the
//! relocated task, a floor no cell can go below, so the two makespan
//! rows replay 3,543 and 2,712 lanes (floor lanes included) for their
//! 128,384 and 32,178 evaluations, down from 16,497 and 4,086 when every
//! run was replayed.
//!
//! Every pinned objective value is also the evaluator's own score of
//! the run's solution, the string-order fold SE ranks its candidates
//! by; each row checks that too.

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
            scored: 3_543,
            hash: 0x173e_5374_834f_149f,
        },
        Golden {
            objective: ObjectiveKind::TotalFlowtime,
            y_limit: None,
            makespan_bits: 0x40a5_d9d5_43cf_88d8,
            objective_bits: 0x40fe_72de_a83f_2929,
            evaluations: 120_106,
            scored: 14_991,
            hash: 0xfc4f_1e06_66ea_f2e9,
        },
        Golden {
            objective: ObjectiveKind::MeanFlowtime,
            y_limit: None,
            makespan_bits: 0x40a5_d9d5_43cf_88d8,
            objective_bits: 0x4093_7e65_c878_3e65,
            evaluations: 120_507,
            scored: 15_030,
            hash: 0x3345_6a8f_4abd_e237,
        },
        Golden {
            objective: ObjectiveKind::LoadBalance,
            y_limit: None,
            makespan_bits: 0x40b5_10b0_5fb5_6a00,
            objective_bits: 0x4043_4eef_31f7_d000,
            evaluations: 477_410,
            scored: 60_159,
            hash: 0x9466_3494_5094_5a2c,
        },
        Golden {
            objective: weighted,
            y_limit: None,
            makespan_bits: 0x40a6_826e_b6b6_ed90,
            objective_bits: 0x40ac_192b_499a_619c,
            evaluations: 190_664,
            scored: 23_028,
            hash: 0x0c05_d582_6cdc_1dd0,
        },
        Golden {
            objective: ObjectiveKind::Makespan,
            y_limit: Some(5),
            makespan_bits: 0x40a5_f0f6_76f5_dff4,
            objective_bits: 0x40a5_f0f6_76f5_dff4,
            evaluations: 32_178,
            scored: 2_712,
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
        let fold = Evaluator::new(&inst).objective_value(&r.solution, &g.objective);
        assert_eq!(r.objective_value.to_bits(), fold.to_bits(), "{label}: the fold's score");
        assert_eq!(r.evaluations, g.evaluations, "{label}: evaluations");
        assert_eq!(r.scan.scored, g.scored, "{label}: scorings");
        assert_eq!(solution_hash(&r.solution), g.hash, "{label}: solution");
    }
}
