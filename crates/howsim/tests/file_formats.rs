//! The three on-disk file kinds — `.report` and `.load` cache entries and
//! `.ckpt` checkpoints — pinned by files an earlier revision wrote
//! (`tests/fixtures/`), and hostile edits of them that carry a valid
//! checksum, which must be clean misses rather than panics.
//!
//! The fixtures are `active_disks(4)` select (`.report`), a 3-query
//! closed workload on `active_disks(4)` (`.load`), that select paused at
//! half its elapsed time (`.ckpt`), and a faulted two-phase mview paused
//! between a disk failure and its detection (`.ckpt`). A format change
//! that does not bump its schema fails here.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use arch::Architecture;
use howsim::cache::{self, CacheStats};
use howsim::{
    checkpoint, AdmissionPolicy, DeadlinePolicy, FaultPlan, RecoveryPolicy, Simulation,
    WorkloadSpec,
};
use simcore::state::{fnv1a64, open, seal};
use simcore::{Duration, SimTime};
use tasks::{plan_task, TaskKind, TaskPlan};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("fixture present")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("howsim-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn select() -> (Simulation, TaskPlan) {
    let arch = Architecture::active_disks(4);
    let plan = plan_task(TaskKind::Select, &arch);
    (Simulation::new(arch), plan)
}

fn closed3() -> (Simulation, WorkloadSpec, AdmissionPolicy, DeadlinePolicy) {
    let w =
        WorkloadSpec::closed(2, 3).with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)]);
    let sim = Simulation::new(Architecture::active_disks(4));
    (
        sim,
        w,
        AdmissionPolicy::default(),
        DeadlinePolicy::default(),
    )
}

fn report_key(sim: &Simulation, plan: &TaskPlan) -> String {
    cache::key_material(
        sim.architecture(),
        plan,
        sim.degraded_disks(),
        sim.seed(),
        sim.fault_plan(),
        sim.recovery_policy(),
    )
}

/// Runs `run` through a fresh cache whose disk tier holds `bytes` as the
/// `.ext` entry for `key`. Returns what `run` served, the cache counters
/// after it, and the bytes a cold cache then writes for the same key.
fn through_cache<T>(
    key: &str,
    ext: &str,
    bytes: &str,
    run: impl Fn() -> T,
) -> (T, CacheStats, String) {
    // The cache is process-wide: tests using it take turns.
    static CACHE: Mutex<()> = Mutex::new(());
    let _guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir(ext);
    let entry = dir.join(format!("{:016x}.{ext}", fnv1a64(key.as_bytes())));
    std::fs::write(&entry, bytes).unwrap();
    cache::set_enabled(true);
    cache::set_disk_dir(Some(dir.clone()));
    cache::clear();
    cache::reset_stats();
    let served = run();
    let stats = cache::stats();
    std::fs::remove_file(&entry).unwrap();
    cache::clear();
    run();
    let written = std::fs::read_to_string(&entry).unwrap();
    cache::set_disk_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
    (served, stats, written)
}

/// Re-seals `text` under `schema` after editing its body, so only the
/// body decoder stands between the edit and the caller.
fn resealed(schema: &str, text: &str, edit: impl FnOnce(&str) -> String) -> String {
    let (key, body) = open(schema, text).expect("valid file");
    seal(schema, key, &edit(body))
}

/// Replaces the whole line starting with `prefix ` in `body`.
fn with_line(body: &str, prefix: &str, line: &str) -> String {
    let old = body
        .lines()
        .find(|l| l.starts_with(&format!("{prefix} ")))
        .unwrap_or_else(|| panic!("no `{prefix}` line"));
    body.replacen(&format!("{old}\n"), &format!("{line}\n"), 1)
}

#[test]
fn report_fixture_decodes_to_a_fresh_run_and_reencodes_identically() {
    let (sim, plan) = select();
    let bytes = fixture("select-active4.report");
    let (served, stats, written) =
        through_cache(&report_key(&sim, &plan), "report", &bytes, || {
            cache::run_sim(&sim, &plan)
        });
    assert_eq!(served, sim.run_plan(&plan), "decodes to a fresh run");
    assert_eq!(stats.disk_hits, 1, "served from the fixture");
    assert_eq!(written, bytes, "re-encodes byte-identically");
}

#[test]
fn load_fixture_decodes_to_a_fresh_run_and_reencodes_identically() {
    let (sim, w, adm, dl) = closed3();
    let bytes = fixture("closed3-active4.load");
    let key = cache::load_key_material(&sim, &w, adm, dl);
    let (served, stats, written) = through_cache(&key, "load", &bytes, || {
        cache::run_workload(&sim, &w, adm, dl)
    });
    assert_eq!(
        served,
        sim.run_workload(&w, adm, dl),
        "decodes to a fresh run"
    );
    assert_eq!(stats.disk_hits, 1, "served from the fixture");
    assert_eq!(written, bytes, "re-encodes byte-identically");
}

#[test]
fn ckpt_fixture_resumes_to_a_fresh_run_and_reencodes_identically() {
    let (sim, plan) = select();
    let at = SimTime::ZERO + Duration::from_nanos(sim.run_plan(&plan).elapsed().as_nanos() / 2);
    let bytes = fixture("select-active4-half.ckpt");
    let restored = checkpoint::read_file(&fixture_path("select-active4-half.ckpt"), &sim, &plan)
        .expect("fixture resumes");
    let mut paused = sim.start(&plan);
    paused.run_until(at);
    let out = scratch_dir("ckpt").join("again.ckpt");
    for (run, what) in [(&restored, "the decoded run"), (&paused, "a fresh pause")] {
        checkpoint::write_file(&out, &sim, &plan, at, run).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            bytes,
            "{what} re-encodes"
        );
    }
    assert_eq!(
        restored.finish(),
        sim.run_plan(&plan),
        "resumes to a fresh run"
    );
    let _ = std::fs::remove_dir_all(out.parent().unwrap());
}

/// The paused run of `howsim checkpoint --arch active --disks 4 --task
/// mview --fault disk:1@128s --recovery redistribute --at 128.25s`: one
/// finished phase, then mid-`merge-views` after node 1 failed at 128 s
/// and before its detection at 128.5 s, with the failed node's batches
/// pooled, the fault cursor past its one fault and the recovery kick
/// queued.
#[test]
fn faulted_ckpt_fixture_resumes_to_a_fresh_run_and_reencodes_identically() {
    let arch = Architecture::active_disks(4);
    let plan = plan_task(TaskKind::MaterializedView, &arch);
    let sim = Simulation::new(arch)
        .with_fault_plan(FaultPlan::parse_spec("disk:1@128s").unwrap())
        .with_recovery(RecoveryPolicy::Redistribute);
    let at = SimTime::ZERO + Duration::from_millis(128_250);
    let name = "mview-active4-fault.ckpt";
    let bytes = fixture(name);
    for (line, what) in [
        ("phases_done 1", "one finished phase"),
        ("midphase 1", "a mid-phase pause"),
        ("fr_injected 1", "the fault applied"),
        ("fr_pool 102", "the failed node's batches pooled"),
        ("fr_detected 0 0 0 0", "the failure not yet detected"),
    ] {
        assert!(
            bytes.contains(&format!("\n{line}\n")),
            "fixture holds {what}"
        );
    }
    assert!(
        bytes.contains(" rk 1 0\n"),
        "fixture queues the recovery kick"
    );
    let restored =
        checkpoint::read_file(&fixture_path(name), &sim, &plan).expect("fixture resumes");
    let mut paused = sim.start(&plan);
    paused.run_until(at);
    let out = scratch_dir("ckpt-fault").join("again.ckpt");
    for (run, what) in [(&restored, "the decoded run"), (&paused, "a fresh pause")] {
        checkpoint::write_file(&out, &sim, &plan, at, run).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            bytes,
            "{what} re-encodes"
        );
    }
    assert_eq!(
        restored.finish(),
        sim.run_plan(&plan),
        "resumes to a fresh run"
    );
    let _ = std::fs::remove_dir_all(out.parent().unwrap());
}

#[test]
fn hostile_report_count_is_a_clean_miss() {
    let (sim, plan) = select();
    let hostile = resealed(cache::SCHEMA, &fixture("select-active4.report"), |b| {
        with_line(b, "phases", &format!("phases {}", u64::MAX))
    });
    let (served, stats, _) = through_cache(&report_key(&sim, &plan), "report", &hostile, || {
        cache::run_sim(&sim, &plan)
    });
    assert_eq!(served, sim.run_plan(&plan));
    assert_eq!(
        (stats.disk_hits, stats.misses),
        (0, 1),
        "a miss, simulated afresh"
    );
}

#[test]
fn hostile_load_count_is_a_clean_miss() {
    let (sim, w, adm, dl) = closed3();
    let hostile = resealed(cache::LOAD_SCHEMA, &fixture("closed3-active4.load"), |b| {
        with_line(b, "queries", &format!("queries {}", u64::MAX))
    });
    let key = cache::load_key_material(&sim, &w, adm, dl);
    let (served, stats, _) = through_cache(&key, "load", &hostile, || {
        cache::run_workload(&sim, &w, adm, dl)
    });
    assert_eq!(served, sim.run_workload(&w, adm, dl));
    assert_eq!(
        (stats.disk_hits, stats.misses),
        (0, 1),
        "a miss, simulated afresh"
    );
}

/// Writes a re-sealed edit of the `.ckpt` fixture and tries to resume it.
fn resume_edited(tag: &str, edit: impl FnOnce(&str) -> String) -> bool {
    let (sim, plan) = select();
    let path = scratch_dir(tag).join("edited.ckpt");
    let edited = resealed(
        checkpoint::SCHEMA,
        &fixture("select-active4-half.ckpt"),
        edit,
    );
    std::fs::write(&path, edited).unwrap();
    let resumed = checkpoint::read_file(&path, &sim, &plan).is_some();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    resumed
}

#[test]
fn hostile_ckpt_queue_length_is_a_clean_miss() {
    assert!(
        resume_edited("ckpt-same", str::to_string),
        "the re-sealed original resumes"
    );
    assert!(!resume_edited("ckpt-qlen", |b| with_line(
        b,
        "q_len",
        &format!("q_len {}", u64::MAX)
    )));
}

#[test]
fn hostile_ckpt_event_node_is_a_clean_miss() {
    // The fixture's first queued event is a batch read on node 1 of 4.
    assert!(!resume_edited("ckpt-node", |b| {
        let qe = b.lines().find(|l| l.starts_with("qe ")).unwrap();
        assert!(
            qe.contains(" br 1 "),
            "fixture queue starts with `br 1`: {qe}"
        );
        b.replacen(qe, &qe.replacen(" br 1 ", " br 99 ", 1), 1)
    }));
}

#[test]
fn hostile_ckpt_control_event_is_a_clean_miss() {
    // `ad` (admit) is a multi-query control event; a single-query run
    // has no handler for it.
    assert!(!resume_edited("ckpt-control", |b| {
        let n: u64 = b
            .lines()
            .find_map(|l| l.strip_prefix("q_len "))
            .unwrap()
            .parse()
            .unwrap();
        let last = b.lines().rfind(|l| l.starts_with("qe ")).unwrap();
        let time = last.split(' ').nth(1).unwrap();
        let body = with_line(b, "q_len", &format!("q_len {}", n + 1));
        body.replacen(
            &format!("{last}\n"),
            &format!("{last}\nqe {time} ad 0\n"),
            1,
        )
    }));
}
