//! An argument `experiments` does not know is an error before anything
//! is simulated: exit status 2, nothing on stdout, and a usage line that
//! lists the flags.

use std::process::Command;

fn rejects(args: &[&str], bad: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    assert!(stderr.contains(&format!("`{bad}`")), "{stderr}");
    assert!(
        stderr.contains("usage: experiments") && stderr.contains("[--fig5]"),
        "{stderr}"
    );
}

#[test]
fn unknown_section_is_rejected() {
    rejects(&["--fig6", "--no-cache"], "--fig6");
}

#[test]
fn typo_beside_real_flags_is_rejected() {
    rejects(&["--quick", "--table2", "--quik"], "--quik");
}
