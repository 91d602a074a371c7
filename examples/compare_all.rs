//! Paper-style head-to-head: every scheduler in the suite on the §5.3
//! comparison workload (100 tasks, 20 machines), at a reduced budget so
//! the example finishes in seconds. The full-scale version is the
//! `figures` binary (`cargo run --release -p mshc-bench --bin figures`).
//!
//! ```text
//! cargo run --release --example compare_all
//! ```

use mshc::prelude::*;
use std::time::Duration;

fn main() {
    let inst = FigureWorkload::Fig5.spec(2001).generate();
    let m = InstanceMetrics::compute(&inst);
    println!(
        "workload fig5: {} tasks, {} machines | connectivity {:.2}, heterogeneity {:.2}, CCR {:.2}\n",
        m.tasks, m.machines, m.connectivity, m.heterogeneity, m.ccr
    );

    let wall = RunBudget::wall(Duration::from_secs(2));
    let one_shot = RunBudget::default();
    let seed = 2001u64;

    let mut rows: Vec<(&str, RunResult)> = Vec::new();
    let mut se = SeScheduler::new(SeConfig {
        seed,
        selection_bias: SeConfig::recommended_bias(inst.task_count()),
        ..SeConfig::default()
    });
    rows.push(("se", se.run(&inst, &wall, None)));
    let mut ga = GaScheduler::new(GaConfig { seed, ..GaConfig::default() });
    rows.push(("ga", ga.run(&inst, &wall, None)));
    let mut sa = SimulatedAnnealing::new(seed);
    rows.push(("sa", sa.run(&inst, &wall, None)));
    let mut tabu = TabuSearch::new(seed);
    rows.push(("tabu", tabu.run(&inst, &wall, None)));
    let mut random = RandomSearch::new(seed);
    rows.push(("random", random.run(&inst, &wall, None)));
    rows.push(("heft", HeftScheduler::new().run(&inst, &one_shot, None)));
    rows.push(("cpop", CpopScheduler::new().run(&inst, &one_shot, None)));
    for policy in ListPolicy::ALL {
        rows.push((policy.name(), ListScheduler::new(policy).run(&inst, &one_shot, None)));
    }

    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>9}",
        "algorithm", "makespan", "iterations", "evals", "secs"
    );
    for (name, r) in &rows {
        println!(
            "{:<10} {:>12.0} {:>12} {:>12} {:>9.2}",
            name,
            r.makespan,
            r.iterations,
            r.evaluations,
            r.elapsed.as_secs_f64()
        );
    }
    let (best, r) =
        rows.iter().min_by(|a, b| a.1.makespan.total_cmp(&b.1.makespan)).expect("non-empty");
    println!("\nwinner: {best} at {:.0}", r.makespan);
}
