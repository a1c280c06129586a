//! Deadlines and retry backoffs that parse but land past the end of the
//! simulated clock: a deadline that does not fit is never armed, and a
//! query whose restart does not fit ends `TimedOut` at the deadline that
//! expired. Neither may wrap the clock.

use std::process::{Command, Output};

fn howsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(args)
        .arg("--no-cache")
        .output()
        .expect("run howsim")
}

/// The per-query row of query `q` in a loaded run's table, split into
/// columns.
fn query_row(stdout: &str, q: u32) -> Vec<String> {
    stdout
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .find(|cols| cols.first().map(String::as_str) == Some(&q.to_string()))
        .unwrap_or_else(|| panic!("no row for query {q}: {stdout}"))
}

#[test]
fn deadline_past_the_clock_is_never_armed() {
    let out = howsim(&[
        "--arch",
        "active",
        "--disks",
        "4",
        "--load",
        "poisson:0.5:2@1",
        "--mix",
        "select",
        "--deadline",
        "18446744073709551615ns:0:0s",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for q in 0..2 {
        assert_eq!(query_row(&stdout, q)[2], "completed", "{stdout}");
    }
}

#[test]
fn restart_past_the_clock_times_out_at_the_deadline() {
    let out = howsim(&[
        "--arch",
        "active",
        "--disks",
        "4",
        "--load",
        "closed:1:1",
        "--mix",
        "select:1",
        "--deadline",
        "1s:1:18000000000s",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // query, task, status, arrival, latency, retries, timeouts, phases
    let row = query_row(&stdout, 0);
    assert_eq!(
        row[2..7],
        ["timed_out", "0.000", "1.000", "0", "1"],
        "{stdout}"
    );
}
