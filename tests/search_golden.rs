//! Golden trajectories of GA, SA and tabu at the paper's
//! 100-task/20-machine scale.
//!
//! Each search scores candidates through the evaluation stack's cost
//! paths (GA's population scoring, SA's incremental proposals, tabu's
//! neighborhood argmin). However those paths score, they must select the
//! same candidates, charge the same evaluations and stop at the same
//! iteration. These constants were captured before tier 3 lost its bound
//! pruning and reconvergence splicing, and GA its lineage scoring; any
//! change to a scoring path that moves a solution, a score bit or a
//! count fails here.

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
    algorithm: &'static str,
    objective: ObjectiveKind,
    makespan_bits: u64,
    objective_bits: u64,
    evaluations: u64,
    iterations: u64,
    hash: u64,
}

fn search(algorithm: &str) -> (Box<dyn Scheduler>, RunBudget) {
    match algorithm {
        "ga" => (Box::new(GaScheduler::with_seed(7)), RunBudget::iterations(40)),
        "sa" => (
            Box::new(SimulatedAnnealing::new(SaConfig { seed: 7, ..SaConfig::default() })),
            RunBudget::iterations(3_000),
        ),
        "tabu" => (
            Box::new(TabuSearch::new(TabuConfig { seed: 7, ..TabuConfig::default() })),
            RunBudget::iterations(150),
        ),
        other => unreachable!("no golden run for {other}"),
    }
}

#[test]
fn searches_match_their_pinned_runs() {
    let inst = WorkloadSpec::large(7).generate();
    let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
    let golden = [
        Golden {
            algorithm: "ga",
            objective: ObjectiveKind::Makespan,
            makespan_bits: 0x40a7_15b6_0ce8_18c8,
            objective_bits: 0x40a7_15b6_0ce8_18c8,
            evaluations: 2_050,
            iterations: 40,
            hash: 0x5bd0_02c0_e4b9_9b3a,
        },
        Golden {
            algorithm: "ga",
            objective: ObjectiveKind::TotalFlowtime,
            makespan_bits: 0x40a7_2533_58e0_145f,
            objective_bits: 0x40ff_de2c_27c4_1f00,
            evaluations: 2_050,
            iterations: 40,
            hash: 0x43a5_def4_bde8_8026,
        },
        Golden {
            algorithm: "ga",
            objective: weighted,
            makespan_bits: 0x40a6_cf97_84e4_3681,
            objective_bits: 0x40ac_bab5_6b8e_83e8,
            evaluations: 2_050,
            iterations: 40,
            hash: 0x915c_9b96_2244_b049,
        },
        Golden {
            algorithm: "sa",
            objective: ObjectiveKind::Makespan,
            makespan_bits: 0x40ae_b234_ece0_b179,
            objective_bits: 0x40ae_b234_ece0_b179,
            evaluations: 3_001,
            iterations: 3_000,
            hash: 0xae90_17fc_d291_9131,
        },
        Golden {
            algorithm: "sa",
            objective: ObjectiveKind::TotalFlowtime,
            makespan_bits: 0x40ad_811b_55da_217f,
            objective_bits: 0x4104_15af_3600_4208,
            evaluations: 3_001,
            iterations: 3_000,
            hash: 0xc546_17c2_f653_a12a,
        },
        Golden {
            algorithm: "sa",
            objective: weighted,
            makespan_bits: 0x40ac_dbdd_7707_6703,
            objective_bits: 0x40b2_54fb_c0a0_441b,
            evaluations: 3_001,
            iterations: 3_000,
            hash: 0xc3f2_d196_80b1_7981,
        },
        Golden {
            algorithm: "tabu",
            objective: ObjectiveKind::Makespan,
            makespan_bits: 0x40a7_7ce9_65dc_f1ff,
            objective_bits: 0x40a7_7ce9_65dc_f1ff,
            evaluations: 3_601,
            iterations: 150,
            hash: 0x4e7f_bdb1_9789_4781,
        },
        Golden {
            algorithm: "tabu",
            objective: ObjectiveKind::TotalFlowtime,
            makespan_bits: 0x40a6_566f_b06b_e4a4,
            objective_bits: 0x40ff_bb8f_0957_dcc6,
            evaluations: 3_601,
            iterations: 150,
            hash: 0xd55b_4416_d078_406e,
        },
        Golden {
            algorithm: "tabu",
            objective: weighted,
            makespan_bits: 0x40a8_ac9a_389f_2ccd,
            objective_bits: 0x40ae_7e6b_af15_1d3b,
            evaluations: 3_601,
            iterations: 150,
            hash: 0xa40c_d00c_4283_cd1c,
        },
    ];
    let runs: Vec<(String, RunResult)> = golden
        .iter()
        .map(|g| {
            let (mut scheduler, budget) = search(g.algorithm);
            let r = scheduler.run(&inst, &budget.with_objective(g.objective), None);
            let label = format!("{} {}", g.algorithm, g.objective.label());
            println!(
                "{label}: makespan_bits: {:#x}, objective_bits: {:#x}, evaluations: {}, \
                 iterations: {}, hash: {:#x}",
                r.makespan.to_bits(),
                r.objective_value.to_bits(),
                r.evaluations,
                r.iterations,
                solution_hash(&r.solution)
            );
            (label, r)
        })
        .collect();
    for (g, (label, r)) in golden.iter().zip(&runs) {
        assert_eq!(r.makespan.to_bits(), g.makespan_bits, "{label}: makespan");
        assert_eq!(r.objective_value.to_bits(), g.objective_bits, "{label}: objective");
        assert_eq!(r.evaluations, g.evaluations, "{label}: evaluations");
        assert_eq!(r.iterations, g.iterations, "{label}: iterations");
        assert_eq!(solution_hash(&r.solution), g.hash, "{label}: solution");
    }
}
