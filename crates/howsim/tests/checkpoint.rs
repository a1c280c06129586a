//! Checkpoint differential tests: snapshot a run mid-flight, restore it
//! (under either queue backend), run to completion, and the report — and
//! its serialized manifest — is byte-identical to simulating from scratch.

use arch::Architecture;
use datagen::zipf::Zipf;
use howsim::faults::{FaultPlan, RecoveryPolicy};
use howsim::manifest::RunManifest;
use howsim::{checkpoint, Simulation};
use proptest::prelude::*;
use simcore::state::{open, seal};
use simcore::{Duration, QueueBackend, SimTime};
use tasks::planner::apply_shuffle_skew;
use tasks::{CpuWork, PhasePlan, TaskKind, TaskPlan};

/// Every event-queue backend a checkpoint must restore under.
const BACKENDS: [QueueBackend; 2] = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("howsim-ckpt-it-{}-{name}.ckpt", std::process::id()))
}

/// The manifest JSON is the byte-comparison surface: every report field
/// serialized in exact integers, no host or wall-clock data attached.
fn manifest_bytes(arch: &Architecture, report: &howsim::Report) -> String {
    RunManifest::new(arch, report).to_json()
}

#[test]
fn restored_join_is_byte_identical_across_backends() {
    let arch = Architecture::cluster(4);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sim = Simulation::new(arch.clone()).with_seed(7);
    let scratch = sim.run_plan(&plan);
    let golden = manifest_bytes(&arch, &scratch);
    let elapsed = scratch.elapsed().as_secs_f64();
    let path = tmp("join");
    for frac in [0.1, 0.5, 0.9] {
        let at = SimTime::ZERO + Duration::from_secs_f64(elapsed * frac);
        let mut run = sim.start(&plan);
        run.run_until(at);
        assert!(!run.is_done(), "pause at {frac} of elapsed is mid-flight");
        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        for backend in BACKENDS {
            let loader = sim.clone().with_queue_backend(backend);
            let restored =
                checkpoint::read_file(&path, &loader, &plan).expect("valid checkpoint restores");
            let report = restored.finish();
            assert_eq!(report, scratch, "frac {frac} backend {backend:?}");
            assert_eq!(
                manifest_bytes(&arch, &report),
                golden,
                "manifest bytes at frac {frac} under {backend:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A 16-node cluster join whose repartitioning is skewed by hashing
/// Zipf(1.0) keys over 100 k distinct values: every shuffle message is
/// routed by the phase's weighted-fair schedule.
/// A pause in the last phase's positioning tail waits at the final
/// barrier, where a fail-stop that struck in the tail is applied: a
/// checkpoint there resumes to the scratch run's abort, with the merge
/// phase cut short at the abort clock.
#[test]
fn checkpoint_in_the_final_tail_resumes_to_the_tail_fault() {
    let arch = Architecture::active_disks(4);
    let plan = tasks::plan_task(TaskKind::Sort, &arch);
    let fault = FaultPlan::new().disk_fail_stop(1, Duration::from_millis(1_094_003));
    let sim = Simulation::new(arch)
        .with_fault_plan(fault)
        .with_recovery(RecoveryPolicy::FailStop);
    let scratch = sim.run_plan(&plan);
    assert!(scratch.aborted);
    assert_eq!(scratch.elapsed(), Duration::from_millis(1_094_503));
    let at = SimTime::ZERO + Duration::from_millis(1_094_001);
    let mut run = sim.start(&plan);
    run.run_until(at);
    assert!(!run.is_done(), "the run waits at its final barrier");
    let path = tmp("tail");
    checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
    let restored = checkpoint::read_file(&path, &sim, &plan).expect("valid checkpoint restores");
    assert_eq!(restored.finish(), scratch, "resumed");
    assert_eq!(run.finish(), scratch, "paused in memory");
    let _ = std::fs::remove_file(&path);
}

fn skewed_join() -> (Simulation, TaskPlan) {
    let arch = Architecture::cluster(16);
    let mut plan = tasks::plan_task(TaskKind::Join, &arch);
    apply_shuffle_skew(&mut plan, Zipf::new(100_000, 1.0).partition_weights(16));
    (Simulation::new(arch).with_seed(5), plan)
}

fn pause_at(elapsed: Duration, pct: u64) -> SimTime {
    SimTime::from_nanos(elapsed.as_nanos() * pct / 100)
}

#[test]
fn skewed_join_checkpoints_and_forks_match_scratch() {
    // Resuming a skewed shuffle must put every node back at its own
    // position in the phase's destination schedule: a restore that lost
    // or reset the positions would route the rest of the shuffle
    // differently.
    let (sim, plan) = skewed_join();
    let scratch = sim.run_plan(&plan);
    let elapsed = scratch.elapsed();
    let path = tmp("skewed-join");
    for pct in [10, 30, 50, 80] {
        let at = pause_at(elapsed, pct);
        let mut run = sim.start(&plan);
        run.run_until(at);
        assert!(!run.is_done(), "pause at {pct}% is mid-flight");
        assert_eq!(run.fork().finish(), scratch, "fork at {pct}%");

        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        let restored = checkpoint::read_file(&path, &sim, &plan).expect("valid checkpoint");
        checkpoint::write_file(&path, &sim, &plan, at, &restored).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            saved,
            "save -> load -> save at {pct}% is byte-identical"
        );
        assert_eq!(restored.finish(), scratch, "restore at {pct}%");

        // A disk failure a quarter of the way through the remaining run.
        let strike = at.since(SimTime::ZERO)
            + Duration::from_nanos((elapsed - at.since(SimTime::ZERO)).as_nanos() / 4);
        let faults = FaultPlan::new().disk_fail_stop(3, strike);
        let faulted = sim
            .clone()
            .with_fault_plan(faults.clone())
            .with_recovery(RecoveryPolicy::Redistribute)
            .run_plan(&plan);
        assert_eq!(faulted.faults_injected, 1, "the failure strikes at {pct}%");
        let forked = run
            .fork_with_faults(faults, RecoveryPolicy::Redistribute)
            .finish();
        assert_eq!(forked, faulted, "faulted fork at {pct}%");
    }
    let _ = std::fs::remove_file(&path);
}

/// Re-armors an edited checkpoint body with a fresh checksum, so only
/// the state codec stands between the edit and the resumed run.
fn rechecksum(text: &str, edit: impl FnOnce(Vec<String>) -> Vec<String>) -> String {
    let (key, body) = open(checkpoint::SCHEMA, text).expect("valid checkpoint");
    let lines = edit(body.lines().map(str::to_string).collect());
    seal(checkpoint::SCHEMA, key, &(lines.join("\n") + "\n"))
}

/// Rewrites the first line starting with `prefix` (a node's state).
fn edit_first(lines: &mut [String], prefix: &str, f: impl FnOnce(&str) -> String) {
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line"));
    *line = f(line);
}

#[test]
fn hostile_shuffle_credits_are_a_clean_miss() {
    let (sim, plan) = skewed_join();
    let at = pause_at(sim.run_plan(&plan).elapsed(), 10);
    let mut run = sim.start(&plan);
    run.run_until(at);
    let path = tmp("hostile");
    checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(
        saved.contains("\nhas_dst_credits 1\n"),
        "paused mid-shuffle"
    );

    let resumes = |text: &str| {
        std::fs::write(&path, text).unwrap();
        checkpoint::read_file(&path, &sim, &plan).is_some()
    };
    // The armor alone is not what rejects the edits below.
    assert!(
        resumes(&rechecksum(&saved, |l| l)),
        "re-checksummed original loads"
    );

    let credits = |f: fn(Vec<&str>) -> Vec<String>| {
        rechecksum(&saved, move |mut l| {
            edit_first(&mut l, "dst_credits ", |line| {
                let vals: Vec<&str> = line.split(' ').skip(1).collect();
                let mut out = vec!["dst_credits".to_string()];
                out.extend(f(vals));
                out.join(" ")
            });
            l
        })
    };
    let cases: Vec<(&str, String)> = vec![
        ("empty credit list", credits(|_| Vec::new())),
        (
            "short credit list",
            credits(|v| v[1..].iter().map(|s| s.to_string()).collect()),
        ),
        (
            "long credit list",
            credits(|v| v.iter().chain(&v[..1]).map(|s| s.to_string()).collect()),
        ),
        (
            "credits off the schedule",
            credits(|v| {
                let mut out: Vec<String> = v.iter().map(|s| s.to_string()).collect();
                out[0] = (v[0].parse::<u64>().unwrap() ^ 1).to_string();
                out
            }),
        ),
        (
            "credits past the picks the node's batches allow",
            rechecksum(&saved, |mut l| {
                edit_first(&mut l, "nstate ", |line| {
                    let mut v: Vec<&str> = line.split(' ').collect();
                    v[6] = "0"; // `processed`: no batch, so no pick yet
                    v.join(" ")
                });
                l
            }),
        ),
        (
            "round robin on a skewed phase",
            rechecksum(&saved, |mut l| {
                edit_first(&mut l, "has_dst_credits 1", |_| "has_dst_credits 0".into());
                let i = l
                    .iter()
                    .position(|x| x.starts_with("dst_credits "))
                    .unwrap();
                l.remove(i);
                l
            }),
        ),
    ];
    for (what, text) in cases {
        assert!(!resumes(&text), "{what} must be a clean miss");
    }

    // The converse: weighted credits on a phase that shuffles uniformly.
    let arch = Architecture::cluster(16);
    let uniform = tasks::plan_task(TaskKind::Join, &arch);
    let usim = Simulation::new(arch).with_seed(5);
    let mut run = usim.start(&uniform);
    run.run_until(at);
    checkpoint::write_file(&path, &usim, &uniform, at, &run).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.contains("\nhas_dst_credits 0\n"));
    let weighted = rechecksum(&saved, |mut l| {
        edit_first(&mut l, "has_dst_credits 0", |_| {
            format!("has_dst_credits 1\ndst_credits{}", " 0".repeat(16))
        });
        l
    });
    std::fs::write(&path, weighted).unwrap();
    assert!(
        checkpoint::read_file(&path, &usim, &uniform).is_none(),
        "weighted credits on a uniform phase must be a clean miss"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite property: a random plan, snapshotted at a random
    /// event boundary under one random backend and restored under
    /// another, finishes byte-identical to the from-scratch run.
    #[test]
    fn prop_random_snapshot_restores_byte_identical(
        read_mb in 1u64..64,
        shuffle_pct in 0u32..=100,
        write_pct in 0u32..=100,
        cpu_ns in 0.0f64..20.0,
        nodes in 1usize..6,
        arch_ix in 0usize..3,
        pause_frac in 0.0f64..1.05,
        save_backend in 0usize..2,
        load_backend in 0usize..2,
    ) {
        let mut phase = PhasePlan::new("random", read_mb << 20);
        phase.read_cpu = vec![CpuWork { tag: "work", ns_per_byte: cpu_ns }];
        phase.shuffle_factor = shuffle_pct as f64 / 100.0;
        phase.local_write_factor = write_pct as f64 / 100.0;
        if phase.shuffle_factor > 0.0 {
            phase.recv_cpu = vec![CpuWork { tag: "recv", ns_per_byte: cpu_ns / 2.0 }];
        }
        let plan = TaskPlan { task: "random", phases: vec![phase] };
        let arch = match arch_ix {
            0 => Architecture::active_disks(nodes),
            1 => Architecture::cluster(nodes),
            _ => Architecture::smp(nodes),
        };
        let sim = Simulation::new(arch.clone())
            .with_seed(read_mb ^ u64::from(shuffle_pct))
            .with_queue_backend(BACKENDS[save_backend]);
        let scratch = sim.run_plan(&plan);
        let at = SimTime::ZERO
            + Duration::from_secs_f64(scratch.elapsed().as_secs_f64() * pause_frac);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let path = tmp("prop");
        checkpoint::write_file(&path, &sim, &plan, at, &run).unwrap();
        let loader = sim.clone().with_queue_backend(BACKENDS[load_backend]);
        let restored = checkpoint::read_file(&path, &loader, &plan)
            .expect("valid checkpoint restores");
        let report = restored.finish();
        prop_assert_eq!(&report, &scratch);
        prop_assert_eq!(manifest_bytes(&arch, &report), manifest_bytes(&arch, &scratch));
        let _ = std::fs::remove_file(&path);
    }
}
