//! The `aggsky` binary's output end: a reader that closes the pipe early
//! ends the output quietly.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_pipe_ends_the_output_quietly() {
    // About 400 KB of CSV: far more than a pipe buffers, so the binary is
    // still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_aggsky"))
        .args(["generate", "--dist", "anti", "--records", "5000", "--groups", "50", "--dim", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the aggsky binary starts");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the first bytes arrive");
    drop(stdout);
    let out = child.wait_with_output().expect("the binary exits");
    assert!(head.starts_with(b"class,"), "{}", String::from_utf8_lossy(&head));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
