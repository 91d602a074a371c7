//! Property tests for the DAG substrate.

use mshc_taskgraph::gen::{erdos_dag, layered, series_parallel, LayeredConfig};
use mshc_taskgraph::{GraphMetrics, Levels, SlackAnalysis, TaskGraph, TopoOrder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random DAG from one of the three random generators.
fn dag_strategy() -> impl Strategy<Value = TaskGraph> {
    (1usize..40, 0.0f64..1.0, any::<u64>(), 0u8..3).prop_map(|(k, p, seed, which)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match which {
            0 => erdos_dag(k, p, &mut rng).unwrap(),
            1 => layered(
                &LayeredConfig {
                    tasks: k,
                    mean_width: (k / 4).max(1),
                    edge_prob: p,
                    skip_prob: p / 10.0,
                },
                &mut rng,
            )
            .unwrap(),
            _ => series_parallel(k, &mut rng).unwrap(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both topological sorts emit linear extensions; positions invert.
    #[test]
    fn topo_orders_are_linear_extensions(g in dag_strategy(), seed in any::<u64>()) {
        let kahn = TopoOrder::kahn(&g);
        prop_assert!(g.is_linear_extension(kahn.as_slice()));
        let rnd = TopoOrder::random(&g, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert!(g.is_linear_extension(rnd.as_slice()));
        let pos = rnd.positions();
        for (i, &t) in rnd.as_slice().iter().enumerate() {
            prop_assert_eq!(pos[t.index()] as usize, i);
        }
    }

    /// Levels are consistent: every edge increases the level by >= 1, and
    /// level(t) == 0 iff t has no predecessors.
    #[test]
    fn levels_consistent(g in dag_strategy()) {
        let levels = Levels::compute(&g);
        for e in g.edges() {
            prop_assert!(levels.level(e.dst) > levels.level(e.src));
        }
        for t in g.tasks() {
            prop_assert_eq!(levels.level(t) == 0, g.in_degree(t) == 0);
        }
        let layers = levels.layers();
        prop_assert_eq!(layers.iter().map(Vec::len).sum::<usize>(), g.task_count());
        prop_assert_eq!(layers.len(), levels.max_level() as usize + 1);
    }

    /// The unit-weight critical-path length equals the depth metric, and
    /// some task finishes exactly there with zero slack.
    #[test]
    fn unit_slack_length_is_the_depth(g in dag_strategy()) {
        let sa = SlackAnalysis::compute(&g, |_| 1.0, |_, _| 0.0);
        let m = GraphMetrics::compute(&g);
        prop_assert_eq!(sa.length as usize, m.depth);
        let ends_critical = g
            .tasks()
            .any(|t| sa.earliest[t.index()] + 1.0 == sa.length && sa.slack(t) == 0.0);
        prop_assert!(ends_critical, "no zero-slack task ends the critical path");
    }

    /// Metrics are internally consistent.
    #[test]
    fn metrics_consistent(g in dag_strategy()) {
        let m = GraphMetrics::compute(&g);
        prop_assert_eq!(m.tasks, g.task_count());
        prop_assert_eq!(m.data_items, g.data_count());
        prop_assert!(m.width >= 1 && m.width <= m.tasks);
        prop_assert!(m.depth >= 1 && m.depth <= m.tasks);
        prop_assert!(m.entries >= 1 && m.exits >= 1);
        prop_assert!((0.0..=1.0).contains(&m.density));
    }
}
