//! Out-of-range `--memory` and `--interconnect` values are rejected
//! while the command line is parsed: exit status 1 and a message naming
//! the flag, never a panic or an abort inside the simulator.

use std::process::Command;

/// Runs `howsim --arch active --disks 4 --task select <flag> <value>` and
/// requires a clean rejection that names `flag`.
fn rejects(flag: &str, value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(["--arch", "active", "--disks", "4", "--task", "select"])
        .args([flag, value, "--no-cache"])
        .output()
        .expect("run howsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
    assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    assert!(out.stdout.is_empty(), "{flag} {value}: nothing simulated");
}

#[test]
fn memory_below_the_diskos_footprint_is_rejected() {
    rejects("--memory", "1");
}

#[test]
fn zero_memory_is_rejected() {
    rejects("--memory", "0");
}

#[test]
fn memory_that_wraps_to_zero_bytes_is_rejected() {
    // 2^44 MB is 2^64 bytes: a shift wraps it to 0.
    rejects("--memory", "17592186044416");
}

#[test]
fn memory_past_64_bit_bytes_is_rejected() {
    rejects("--memory", "18446744073709551615");
}

#[test]
fn zero_interconnect_is_rejected() {
    rejects("--interconnect", "0");
}

#[test]
fn negative_interconnect_is_rejected() {
    rejects("--interconnect", "-5");
}

#[test]
fn nan_interconnect_is_rejected() {
    rejects("--interconnect", "nan");
}

#[test]
fn infinite_interconnect_is_rejected() {
    rejects("--interconnect", "inf");
}
