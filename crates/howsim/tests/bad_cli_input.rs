//! Out-of-range `--memory` and `--interconnect` values, and architecture
//! settings the chosen `--arch` does not have, are rejected while the
//! command line is parsed: exit status 1 and a message naming the flag,
//! never a panic, an abort inside the simulator or a silent no-op.

use std::process::Command;

/// Runs `howsim --arch <arch> --disks 4 --task select <args> --no-cache`
/// and requires a clean rejection whose message contains each of `names`.
fn rejects_on(arch: &str, args: &[&str], names: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(["--arch", arch, "--disks", "4", "--task", "select"])
        .args(args)
        .arg("--no-cache")
        .output()
        .expect("run howsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("--arch {arch} {}", args.join(" "));
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "{case}: {stderr}");
    }
    assert!(out.stdout.is_empty(), "{case}: nothing simulated");
}

/// Rejects `<flag> <value>` on `--arch active`, naming `flag`.
fn rejects(flag: &str, value: &str) {
    rejects_on("active", &[flag, value], &[flag]);
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

#[test]
fn memory_off_active_disks_is_rejected() {
    for arch in ["cluster", "smp"] {
        for mb in ["1", "64"] {
            rejects_on(arch, &["--memory", mb], &["--memory", "--arch active"]);
        }
    }
}

#[test]
fn interconnect_on_the_cluster_is_rejected() {
    let names = ["--interconnect", "--arch active", "--arch smp"];
    rejects_on("cluster", &["--interconnect", "400"], &names);
}

#[test]
fn no_direct_off_active_disks_is_rejected() {
    for arch in ["cluster", "smp"] {
        rejects_on(arch, &["--no-direct"], &["--no-direct", "--arch active"]);
    }
}

#[test]
fn fibre_switch_off_active_disks_is_rejected() {
    for arch in ["cluster", "smp"] {
        rejects_on(
            arch,
            &["--fibre-switch"],
            &["--fibre-switch", "--arch active"],
        );
    }
}
