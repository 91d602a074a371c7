//! Degenerate workload parameters and input files end `mshc` with exit
//! code 2 and a message naming the field, never with a panic.

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

#[test]
fn a_misspelled_key_in_an_input_file_exits_2_naming_it() {
    let dir = std::env::temp_dir().join(format!("mshc_misspelled_keys_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, json: &str| {
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    };
    let plan = file("plan.json", r#"{"panic_at_evalutions": 5}"#);
    let spec = TournamentSpec {
        algorithms: vec!["heft".into()],
        seeds: vec![1],
        iterations: 3,
        ..TournamentSpec::new("typo", mshc_workloads::tiny_suite())
    };
    let spec = serde_json::to_string(&spec).unwrap();
    // A defaulted key falls back to its default when it is missing, so a
    // misspelled one would go unseen; a scenario key likewise.
    let retries = file("retries.json", &spec.replacen("\"cell_retries\"", "\"cell_retires\"", 1));
    let ccr = file("ccr.json", &spec.replacen("\"ccr\"", "\"cr\"", 1));
    // A dropout's key, in a trace file and in a bare event array.
    let event = r#"{"kind": "MachineFailure", "time": 5.0, "machin": 1}"#;
    let trace = file("trace.json", &format!(r#"{{"seed": 1, "events": [{event}]}}"#));
    let events = file("events.json", &format!("[{event}]"));
    let seed = file("seed.json", r#"{"sede": 1, "events": []}"#);
    let replan = ["replan", "--algo", "sa", "--tasks", "10", "--machines", "3", "--iters", "3"];
    let tournament = ["tournament", "--suite", "tiny", "--seeds", "1", "--iters", "3"];
    let cases: Vec<(Vec<&str>, String, &str)> = vec![
        (
            [&tournament[..], &["--faults", &plan]].concat(),
            format!("--faults {plan}"),
            "panic_at_evalutions",
        ),
        (vec!["tournament", "--spec", &retries], retries.clone(), "cell_retires"),
        (vec!["tournament", "--spec", &ccr], ccr.clone(), "cr"),
        ([&replan[..], &["--disturb", &trace]].concat(), trace.clone(), "machin"),
        ([&replan[..], &["--disturb", &events]].concat(), events.clone(), "machin"),
        ([&replan[..], &["--disturb", &seed]].concat(), seed.clone(), "sede"),
    ];
    for (args, path, key) in cases {
        let (code, stderr) = mshc(&args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&path), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown field `{key}`")), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
