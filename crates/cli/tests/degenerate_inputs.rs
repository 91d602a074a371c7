//! Degenerate workload parameters end `mshc` with exit code 2 and a
//! message naming the field, never with a panic.

use mshc_portfolio::TournamentSpec;
use mshc_workloads::{DagShape, Heterogeneity, Scenario};
use std::process::Command;

/// Runs `mshc` with `args`; returns its exit code and stderr.
fn mshc(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mshc")).args(args).output().expect("mshc starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn an_overflowing_ccr_exits_2_naming_the_flag() {
    for cmd in [&["generate"][..], &["run", "--algo", "heft", "--iters", "1"]] {
        let args = [cmd, &["--tasks", "8", "--machines", "2", "--ccr", "1e308"]].concat();
        let (code, stderr) = mshc(&args);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(code, Some(2), "{stderr}");
        assert!(stderr.contains("--ccr: 1e308 overflows"), "{stderr}");
    }
}

#[test]
fn a_degenerate_spec_scenario_exits_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("mshc_degenerate_spec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    let scenario = Scenario::kernel(DagShape::ForkJoin, 0, 2, 3, Heterogeneity::High, 1.0);
    let spec = TournamentSpec {
        algorithms: vec!["heft".into()],
        seeds: vec![1],
        iterations: 3,
        ..TournamentSpec::new("bad", vec![scenario])
    };
    let spec = serde_json::to_string(&spec).unwrap();
    std::fs::write(&path, spec).unwrap();
    let (code, stderr) = mshc(&["tournament", "--spec", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("scenarios[0].shape_a: a fork-join needs"), "{stderr}");
}

#[test]
fn a_fault_plan_its_command_cannot_fire_exits_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("mshc_unfireable_faults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = |name: &str, json: &str| {
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    };
    let evaluations = plan("evaluations.json", r#"{"panic_at_evaluations": 5}"#);
    let zero = plan("zero.json", r#"{"panic_at_evaluations": 0}"#);
    let dropout = r#"{"kind": "MachineFailure", "time": 10.0, "machine": 1, "factor": 1.0}"#;
    let dropouts = plan("dropouts.json", &format!(r#"{{"dropouts": [{dropout}]}}"#));
    let workload = ["--tasks", "10", "--machines", "3"];
    let tournament = ["tournament", "--suite", "tiny", "--seeds", "1", "--iters", "3"];
    let cases: Vec<(Vec<&str>, &str, &str)> = vec![
        // No harness catches an evaluation panic outside a tournament
        // cell, and generate and info never evaluate.
        (vec!["run", "--algo", "se", "--iters", "3"], &evaluations, "panic_at_evaluations"),
        (vec!["compare", "--iters", "3"], &evaluations, "panic_at_evaluations"),
        (
            vec!["replan", "--algo", "se", "--iters", "3", "--events", "2"],
            &evaluations,
            "panic_at_evaluations",
        ),
        (vec!["generate"], &evaluations, "panic_at_evaluations"),
        (vec!["info"], &evaluations, "panic_at_evaluations"),
        // The count is 1-based: zero never fires.
        (tournament.to_vec(), &zero, "panic_at_evaluations: 0"),
        // Dropouts disturb a replan and nothing else.
        (vec!["run", "--algo", "se", "--iters", "3"], &dropouts, "dropouts"),
        (vec!["generate"], &dropouts, "dropouts"),
        (tournament.to_vec(), &dropouts, "dropouts"),
    ];
    for (command, path, field) in cases {
        let sized = if command[0] == "tournament" { &[][..] } else { &workload[..] };
        let args = [&command[..], sized, &["--faults", path]].concat();
        let (code, stderr) = mshc(&args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("--faults {path}: {field}")), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
