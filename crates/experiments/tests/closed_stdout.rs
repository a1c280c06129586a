//! A reader that closes `experiments`' stdout (as `head -1` does) ends
//! the sweep quietly: exit status 0 and no panic on stderr.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_experiments_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--table1", "--no-cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    // Close the only read end before the sweep prints its first table.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
