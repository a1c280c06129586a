//! A reader that closes `howsim`'s stdout (as `head -1` does) ends the
//! run quietly: exit status 0 and no panic on stderr.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_howsim_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args([
            "--arch",
            "active",
            "--disks",
            "4",
            "--task",
            "select",
            "--no-cache",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn howsim");
    // Close the only read end before the run prints its report.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for howsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
