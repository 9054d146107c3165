//! `xtask` writing into a pipe whose reader has already gone
//! (`xtask lint --help | head -0`) must exit cleanly, not panic.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `xtask ARGS` with its stdout read end closed before the child
/// writes; returns the exit code and the child's stderr.
fn run_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xtask");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (child.wait().expect("wait for xtask").code(), stderr)
}

#[test]
fn help_into_a_closed_pipe_exits_cleanly() {
    let (code, stderr) = run_into_closed_pipe(&["lint", "--help"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn explain_into_a_closed_pipe_exits_cleanly() {
    let (code, stderr) = run_into_closed_pipe(&["lint", "--explain", "persist-order"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
