//! One op of every workload, checked against the seed-0 goldens.

use std::sync::Mutex;

use adbench::golden;
use adbench::record::Recorder;
use adbench::workloads::{self, NAMES};

/// The workloads share the process-wide result cache.
static SERIAL: Mutex<()> = Mutex::new(());

fn first_op_matches_golden(workload: &'static str) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    howsim::sweep::set_default_jobs(1);
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&tmp).unwrap();
    let goldens = golden::load(0).unwrap().expect("golden/seed-0.txt exists");
    let mut rec = Recorder::new(false);
    let mut w = workloads::setup(workload, 0, &mut rec, &tmp);
    w.warm_up(&mut rec);
    let mut ops = rec.take_ops();
    assert_eq!(ops.len(), 1, "the warm-up is one op");
    let mut failures = rec.failures.clone();
    Recorder::verify(&mut ops, &goldens[workload], &mut failures);
    assert!(failures.is_empty(), "{workload}: {failures:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn solo_scaleout() {
    first_op_matches_golden(NAMES[0]);
}

#[test]
fn paper_figures() {
    first_op_matches_golden(NAMES[1]);
}

#[test]
fn loaded_mix() {
    first_op_matches_golden(NAMES[2]);
}

#[test]
fn whatif_faults() {
    first_op_matches_golden(NAMES[3]);
}
