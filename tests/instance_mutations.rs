//! Mutated instance files: a generated instance's JSON with one field
//! corrupted either fails to load, or loads as an instance on which
//! every scheduler returns a valid schedule that the discrete-event
//! replay agrees with and the certified floor bounds. No mutation
//! panics, in the load or in any run.
//!
//! The evaluation kernel relies on this gate: it folds its maxima with
//! one compare-select instead of `f64::max`, which is exact only
//! because every loaded instance has finite `E > 0` and finite
//! `Tr >= 0`, so no time it folds is NaN or `-0.0`.

use mshc::prelude::*;
use proptest::prelude::*;
use serde::Value;

/// One corruption of an instance file. The raw numbers are reduced
/// modulo the sizes of the file they are applied to.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// `rows` or `cols` of `E` or `Tr` moved off its true value.
    Shape { transfer: bool, cols: bool, delta: u64 },
    /// One entry of `E` or `Tr` set to zero or to its negation.
    Entry { transfer: bool, index: u64, negative: bool },
    /// One `pred_offsets` entry moved off its true value.
    Offset { index: u64, delta: u64 },
    /// One edge's data id moved off its position.
    EdgeId { index: u64, delta: u64 },
    /// One more edge between two tasks, either of them possibly out of
    /// range.
    ExtraEdge { src: u64, dst: u64 },
    /// One more edge reversing an existing one, which closes a cycle.
    Cycle { index: u64 },
}

/// Every kind of mutation, with the one that keeps a file valid (a zero
/// transfer cost) an alternative of its own, so that a few cases of a
/// run take the scheduling path.
fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<bool>(), any::<bool>(), any::<u64>())
            .prop_map(|(transfer, cols, delta)| Mutation::Shape { transfer, cols, delta }),
        (any::<u64>(), any::<bool>()).prop_map(|(index, negative)| Mutation::Entry {
            transfer: false,
            index,
            negative
        }),
        any::<u64>().prop_map(|index| Mutation::Entry { transfer: true, index, negative: true }),
        any::<u64>().prop_map(|index| Mutation::Entry { transfer: true, index, negative: false }),
        (any::<u64>(), any::<u64>()).prop_map(|(index, delta)| Mutation::Offset { index, delta }),
        (any::<u64>(), any::<u64>()).prop_map(|(index, delta)| Mutation::EdgeId { index, delta }),
        (any::<u64>(), any::<u64>()).prop_map(|(src, dst)| Mutation::ExtraEdge { src, dst }),
        any::<u64>().prop_map(|index| Mutation::Cycle { index }),
    ]
}

/// Instances of 4–12 tasks on 2–4 machines over the full taxonomy.
fn spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        4usize..13,
        2usize..5,
        prop_oneof![Just(Connectivity::Low), Just(Connectivity::Medium), Just(Connectivity::High)],
        prop_oneof![
            Just(Heterogeneity::Low),
            Just(Heterogeneity::Medium),
            Just(Heterogeneity::High)
        ],
        0.1f64..1.5,
        any::<u64>(),
    )
        .prop_map(|(tasks, machines, connectivity, heterogeneity, ccr, seed)| WorkloadSpec {
            tasks,
            machines,
            connectivity,
            heterogeneity,
            ccr,
            seed,
        })
}

fn field<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    let Value::Map(fields) = v else { panic!("{name}: the parent is not a map") };
    &mut fields.iter_mut().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no {name}")).1
}

fn seq(v: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(items) = v else { panic!("not a sequence") };
    items
}

fn uint(v: &Value) -> u64 {
    let Value::U64(n) = v else { panic!("not an unsigned integer: {v:?}") };
    *n
}

/// `orig` moved by `1 + delta % (orig + 2)` modulo `orig + 3`: any value
/// in `0..=orig + 2` except `orig` itself.
fn moved(orig: u64, delta: u64) -> u64 {
    (orig + 1 + delta % (orig + 2)) % (orig + 3)
}

fn edge(id: u64, src: u64, dst: u64) -> Value {
    Value::Map(vec![
        ("id".to_string(), Value::U64(id)),
        ("src".to_string(), Value::U64(src)),
        ("dst".to_string(), Value::U64(dst)),
    ])
}

/// Applies `m` to the instance file `file`; returns whether the file
/// still describes a valid instance (only a zero transfer cost does).
fn apply(m: Mutation, file: &mut Value) -> bool {
    let tasks = uint(field(field(file, "graph"), "task_count"));
    match m {
        Mutation::Shape { transfer, cols, delta } => {
            let matrix = field(field(file, "system"), if transfer { "transfer" } else { "exec" });
            let dim = field(matrix, if cols { "cols" } else { "rows" });
            *dim = Value::U64(moved(uint(dim), delta));
            false
        }
        Mutation::Entry { transfer, index, negative } => {
            let system = field(file, "system");
            // An edgeless graph has an empty `Tr`; corrupt `E` instead.
            let transfer = transfer && !seq(field(field(system, "transfer"), "data")).is_empty();
            let data =
                seq(field(field(system, if transfer { "transfer" } else { "exec" }), "data"));
            let i = (index % data.len() as u64) as usize;
            let Value::F64(x) = data[i] else { panic!("a cost is a float: {:?}", data[i]) };
            data[i] = Value::F64(if negative { -x } else { 0.0 });
            transfer && !negative
        }
        Mutation::Offset { index, delta } => {
            let offsets = seq(field(field(file, "graph"), "pred_offsets"));
            let i = (index % offsets.len() as u64) as usize;
            offsets[i] = Value::U64(moved(uint(&offsets[i]), delta));
            false
        }
        Mutation::EdgeId { index, delta } => {
            let edges = seq(field(field(file, "graph"), "edges"));
            if edges.is_empty() {
                edges.push(edge(1, 0, 1));
            } else {
                let i = (index % edges.len() as u64) as usize;
                let id = field(&mut edges[i], "id");
                *id = Value::U64(moved(uint(id), delta));
            }
            false
        }
        Mutation::ExtraEdge { src, dst } => {
            let edges = seq(field(field(file, "graph"), "edges"));
            let id = edges.len() as u64;
            edges.push(edge(id, src % (tasks + 1), dst % (tasks + 1)));
            false
        }
        Mutation::Cycle { index } => {
            let edges = seq(field(field(file, "graph"), "edges"));
            let (src, dst) = if edges.is_empty() {
                edges.push(edge(0, 0, 1));
                (0, 1)
            } else {
                let i = (index % edges.len() as u64) as usize;
                (uint(field(&mut edges[i], "src")), uint(field(&mut edges[i], "dst")))
            };
            let id = edges.len() as u64;
            edges.push(edge(id, dst, src));
            false
        }
    }
}

fn all_schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SeScheduler::new(SeConfig { seed, ..SeConfig::default() })),
        Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        Box::new(HeftScheduler::new()),
        Box::new(HeftScheduler::with_insertion()),
        Box::new(CpopScheduler::new()),
        Box::new(ListScheduler::new(ListPolicy::Met)),
        Box::new(ListScheduler::new(ListPolicy::Mct)),
        Box::new(ListScheduler::new(ListPolicy::Olb)),
        Box::new(ListScheduler::new(ListPolicy::MinMin)),
        Box::new(ListScheduler::new(ListPolicy::MaxMin)),
        Box::new(RandomSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(TabuSearch::new(seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A mutated file loads only when it still describes a valid
    /// instance, and then every scheduler's schedule passes
    /// `Solution::check`, agrees with the replay and has gap >= 1.
    #[test]
    fn mutated_instance_files_fail_to_load_or_schedule_soundly(
        spec in spec(),
        m in mutation(),
    ) {
        let inst = spec.generate();
        let mut file: Value = serde_json::from_str(&serde_json::to_string(&inst).unwrap()).unwrap();
        let valid = apply(m, &mut file);
        let text = serde_json::to_string(&file).unwrap();
        let loaded = serde_json::from_str::<HcInstance>(&text);
        prop_assert_eq!(loaded.is_ok(), valid, "{:?} on {}: {:?}", m, spec.tag(), loaded.err());
        let Ok(mutated) = loaded else { return Ok(()) };
        prop_assert!(mutated != inst, "{:?} changed nothing", m);
        let budget = RunBudget::iterations(5);
        for mut s in all_schedulers(spec.seed) {
            let r = s.run(&mutated, &budget, None);
            let what = format!("{} on {} after {m:?}", s.name(), spec.tag());
            prop_assert!(r.solution.check(mutated.graph()).is_ok(), "{}: invalid schedule", what);
            let sim = replay(&mutated, &r.solution).expect("valid schedules never deadlock");
            prop_assert!((sim.makespan - r.makespan).abs() < 1e-9, "{}: replay disagrees", what);
            let gap = r.gap.expect("a makespan run is certified");
            prop_assert!(gap >= 1.0, "{}: gap {} below 1", what, gap);
        }
    }
}
