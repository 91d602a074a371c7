//! A reader that stops reading ends `mshc` quietly: the write into the
//! closed pipe fails with a broken pipe, which exits 0 without a panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    // The 300 × 16 instance is about 8 MB of JSON, far beyond any pipe
    // buffer, and the read end is closed before a byte is read.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mshc"))
        .args(["generate", "--tasks", "300", "--machines", "16"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mshc starts");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("stderr reads");
    let status = child.wait().expect("mshc exits");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "a closed stdout is not an error: {stderr}");
}
