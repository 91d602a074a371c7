//! Serialization round-trips: instances, solutions and traces survive
//! JSON (the CLI's persistence format) without loss.

use mshc::prelude::*;

#[test]
fn instance_roundtrips_through_json() {
    let spec = WorkloadSpec::small(3).with_connectivity(Connectivity::High).with_ccr(1.0);
    let inst = spec.generate();
    let json = serde_json::to_string(&inst).unwrap();
    let back: HcInstance = serde_json::from_str(&json).unwrap();
    assert_eq!(inst, back);
    // And the round-tripped instance behaves identically.
    let mk_a = HeftScheduler::new().run(&inst, &RunBudget::default(), None).makespan;
    let mk_b = HeftScheduler::new().run(&back, &RunBudget::default(), None).makespan;
    assert_eq!(mk_a, mk_b);
}

#[test]
fn figure1_roundtrips() {
    let inst = figure1();
    let json = serde_json::to_string(&inst).unwrap();
    let back: HcInstance = serde_json::from_str(&json).unwrap();
    assert_eq!(inst, back);
}

#[test]
fn solution_roundtrips_and_revalidates() {
    let inst = WorkloadSpec::small(4).generate();
    let mut se = SeScheduler::new(SeConfig { seed: 4, ..SeConfig::default() });
    let r = se.run(&inst, &RunBudget::iterations(10), None);
    let json = serde_json::to_string(&r.solution).unwrap();
    let back: Solution = serde_json::from_str(&json).unwrap();
    assert_eq!(r.solution, back);
    back.check(inst.graph()).unwrap();
    assert_eq!(Evaluator::new(&inst).makespan(&back), r.makespan);
}

#[test]
fn trace_roundtrips() {
    let inst = WorkloadSpec::small(5).generate();
    let mut trace = Trace::new();
    SeScheduler::new(SeConfig { seed: 5, ..SeConfig::default() }).run(
        &inst,
        &RunBudget::iterations(8),
        Some(&mut trace),
    );
    let json = serde_json::to_string(&trace).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
    assert_eq!(back.len(), 8);
}

#[test]
fn malformed_instance_json_is_rejected() {
    // A graph/system dimension mismatch must not deserialize into a
    // usable instance silently — serde rebuilds the struct fields, so we
    // verify the evaluator's debug assertions are not the only guard:
    // hand-corrupted JSON fails at the type level.
    let bad = r#"{"graph": "not a graph", "system": 3}"#;
    assert!(serde_json::from_str::<HcInstance>(bad).is_err());
    assert!(serde_json::from_str::<Solution>("[1,2,3]").is_err());
}

/// Instance files load through the validating constructors: a file
/// whose matrices `HcSystem::new` or `HcInstance::new` would reject, or
/// whose matrix data does not fill its shape, fails to load.
#[test]
fn invalid_instance_files_are_rejected() {
    let inst = WorkloadSpec { tasks: 4, machines: 2, ..WorkloadSpec::small(2001) }.generate();
    let json = serde_json::to_string(&inst).unwrap();
    let exec = inst.system().exec_matrix();
    let exec_json = serde_json::to_string(exec).unwrap();
    assert!(json.contains(&exec_json));
    let load = |text: &str| serde_json::from_str::<HcInstance>(text).map_err(|e| e.to_string());
    assert_eq!(load(&json).unwrap(), inst, "a generated file loads unchanged");

    let negated = Matrix::from_fn(exec.rows(), exec.cols(), |r, c| -exec.get(r, c));
    let negated = json.replace(&exec_json, &serde_json::to_string(&negated).unwrap());
    let e = load(&negated).unwrap_err();
    assert!(e.contains("system") && e.contains("execution times must be > 0"), "{e}");

    let narrowed = json.replace(&exec_json, &exec_json.replace("\"cols\":4", "\"cols\":3"));
    assert_ne!(narrowed, json);
    let e = load(&narrowed).unwrap_err();
    assert!(e.contains("exec") && e.contains("data holds 8 entries"), "{e}");
}

#[test]
fn workload_spec_roundtrips() {
    let spec = WorkloadSpec::large(9).with_heterogeneity(Heterogeneity::High).with_ccr(0.1);
    let json = serde_json::to_string(&spec).unwrap();
    let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    assert_eq!(spec.generate(), back.generate());
}
