//! Out-of-range `--memory` and `--interconnect` values, faults on nodes
//! the machine lacks, link faults too severe for the run's traffic to
//! fit the clock, and architecture settings the chosen `--arch` does not
//! have are rejected while the command line is parsed: exit status 1 and
//! a message naming the flag, never a panic, an abort inside the
//! simulator or a silent no-op.

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

#[test]
fn a_fault_on_a_node_past_the_last_is_rejected() {
    // disk:99 on 4 disks once exited 0 with the healthy report and no
    // `faults:` line: the simulator skips a fault on a missing node.
    for spec in ["disk:99@1s", "disk:4@1s", "slow:4@1s:128", "link:4@1s:0.5"] {
        for arch in ["active", "cluster", "smp"] {
            rejects_on(arch, &["--fault", spec], &["--fault", spec]);
        }
    }
}

/// Runs `howsim --arch <arch> --disks 4 --task <task> --interconnect
/// <rate> --no-cache`.
fn at_rate(arch: &str, task: &str, rate: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(["--arch", arch, "--disks", "4", "--task", task])
        .args(["--interconnect", rate, "--no-cache"])
        .output()
        .expect("run howsim")
}

#[test]
fn interconnect_too_slow_for_the_clock_is_rejected() {
    // Each of these once exited 0 with a wrapped clock: 1e-9 reported
    // 18,446,395,858 s, and the others the report of the default rate.
    for (task, rate) in [
        ("sort", "1e-9"),
        ("sort", "1e-12"),
        ("sort", "1e-300"),
        ("select", "1e-300"),
    ] {
        let out = at_rate("active", task, rate);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{task} at {rate}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{task} at {rate}: {stderr}");
        assert!(
            stderr.contains("--interconnect"),
            "{task} at {rate}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{task} at {rate}: nothing simulated");
    }
}

#[test]
fn link_severity_too_small_for_the_clock_is_rejected() {
    // A NIC cut to 1e-300 of its rate would take longer than the clock
    // lasts for one message. Two faults of 1e-3 on one host compound to
    // 1e-6, too slow for the sort's traffic, though either alone passes.
    for faults in [
        &["link:1@1s:1e-300"][..],
        &["link:1@1s:1e-3", "link:1@2s:1e-3"],
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_howsim"));
        cmd.args(["--arch", "cluster", "--disks", "4", "--task", "sort"]);
        for spec in faults {
            cmd.args(["--fault", spec]);
        }
        let out = cmd.arg("--no-cache").output().expect("run howsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{faults:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{faults:?}: {stderr}");
        assert!(stderr.contains("--fault link"), "{faults:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{faults:?}: nothing simulated");
    }
}

#[test]
fn a_default_interconnect_gets_the_verdict_of_no_flag() {
    // The last arrival is bounded between 2^63 and 2^64 ns. The check
    // reads only the interconnect's own traffic, so naming the default
    // rate changes neither the verdict nor the report.
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_howsim"))
            .args(["--arch", "active", "--disks", "4", "--mix", "select:1"])
            .args(["--load", "poisson:3e-9:1@7", "--no-cache"])
            .args(extra)
            .output()
            .expect("run howsim")
    };
    let plain = run(&[]);
    let named = run(&["--interconnect", "200"]);
    let stderr = String::from_utf8_lossy(&named.stderr);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(named.status.code(), Some(0), "{stderr}");
    assert_eq!(plain.stdout, named.stdout);
}
