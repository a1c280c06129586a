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

/// Re-seals an edit of the faulted mview `.ckpt` fixture and tries to
/// resume it. Each edit below keeps every number in range but describes
/// a state no run reaches, whose resumption would panic, hang or finish
/// with a wrong report: each must be a miss.
fn resume_faulted_edit(tag: &str, edit: impl FnOnce(&str) -> String) -> bool {
    let arch = Architecture::active_disks(4);
    let plan = plan_task(TaskKind::MaterializedView, &arch);
    let sim = Simulation::new(arch)
        .with_fault_plan(FaultPlan::parse_spec("disk:1@128s").unwrap())
        .with_recovery(RecoveryPolicy::Redistribute);
    let path = scratch_dir(tag).join("edited.ckpt");
    let edited = resealed(
        checkpoint::SCHEMA,
        &fixture("mview-active4-fault.ckpt"),
        edit,
    );
    std::fs::write(&path, edited).unwrap();
    let resumed = checkpoint::read_file(&path, &sim, &plan).is_some();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    resumed
}

/// Sets field `field` of node `node`'s `nstate` line. The fields are
/// `bytes_total batches_total own_batches issued issued_bytes processed
/// last_batch_bytes dead fe_sent next_dst`.
fn with_nstate(body: &str, node: usize, field: usize, value: u64) -> String {
    let old = body
        .lines()
        .filter(|l| l.starts_with("nstate "))
        .nth(node)
        .expect("an nstate line per node");
    let mut fields: Vec<String> = old.split(' ').map(str::to_string).collect();
    fields[1 + field] = value.to_string();
    body.replacen(&format!("{old}\n"), &format!("{}\n", fields.join(" ")), 1)
}

/// Sets the bytes of the first `fr_poolent` line.
fn with_first_pool_bytes(body: &str, bytes: u64) -> String {
    let old = body
        .lines()
        .find(|l| l.starts_with("fr_poolent "))
        .expect("a pooled batch");
    body.replacen(old, &format!("fr_poolent 1 {bytes}"), 1)
}

/// Sets the bytes of the first queued batch read.
fn with_first_read_bytes(body: &str, bytes: u64) -> String {
    let old = body
        .lines()
        .find(|l| l.starts_with("qe ") && l.contains(" br "))
        .expect("a queued batch read");
    let (head, _) = old.split_once(" br ").unwrap();
    body.replacen(old, &format!("{head} br 0 {bytes} 0"), 1)
}

#[test]
fn faulted_ckpt_edit_issued_bytes_zero_is_a_miss() {
    assert!(
        resume_faulted_edit("fe-same", str::to_string),
        "the re-sealed original resumes"
    );
    assert!(!resume_faulted_edit("fe-ib", |b| with_nstate(b, 1, 4, 0)));
}

#[test]
fn faulted_ckpt_edit_issued_low_is_a_miss() {
    assert!(!resume_faulted_edit("fe-is10", |b| with_nstate(
        b, 0, 3, 10
    )));
}

#[test]
fn faulted_ckpt_edit_issued_high_is_a_miss() {
    assert!(!resume_faulted_edit("fe-is99", |b| with_nstate(
        b, 0, 3, 99_999
    )));
}

#[test]
fn faulted_ckpt_edit_batches_total_is_a_miss() {
    assert!(!resume_faulted_edit("fe-bt", |b| with_nstate(b, 0, 1, 1)));
}

#[test]
fn faulted_ckpt_edit_own_batches_is_a_miss() {
    assert!(!resume_faulted_edit("fe-ob", |b| with_nstate(
        b, 0, 2, 99_999
    )));
}

#[test]
fn faulted_ckpt_edit_last_batch_bytes_is_a_miss() {
    assert!(!resume_faulted_edit("fe-lb", |b| with_nstate(b, 0, 6, 0)));
}

#[test]
fn faulted_ckpt_edit_processed_past_issued_is_a_miss() {
    // Node 0 issued 3,732 batches; 3,815 processed is more.
    assert!(!resume_faulted_edit("fe-pr", |b| with_nstate(
        b, 0, 5, 3_815
    )));
}

#[test]
fn faulted_ckpt_edit_live_failed_node_is_a_miss() {
    // The machine lists node 1 as failed.
    assert!(!resume_faulted_edit("fe-dead", |b| with_nstate(b, 1, 7, 0)));
}

#[test]
fn faulted_ckpt_edit_any_dead_is_a_miss() {
    assert!(!resume_faulted_edit("fe-any", |b| with_line(
        b,
        "fr_any_dead",
        "fr_any_dead 0"
    )));
}

#[test]
fn faulted_ckpt_edit_empty_pooled_batch_is_a_miss() {
    assert!(!resume_faulted_edit("fe-pool0", |b| with_first_pool_bytes(
        b, 0
    )));
}

#[test]
fn faulted_ckpt_edit_huge_pooled_batch_is_a_miss() {
    assert!(!resume_faulted_edit("fe-poolmax", |b| {
        with_first_pool_bytes(b, u64::MAX)
    }));
}

#[test]
fn faulted_ckpt_edit_empty_queued_read_is_a_miss() {
    assert!(!resume_faulted_edit("fe-br0", |b| with_first_read_bytes(
        b, 0
    )));
}

#[test]
fn faulted_ckpt_edit_huge_queued_read_is_a_miss() {
    assert!(!resume_faulted_edit("fe-brmax", |b| with_first_read_bytes(
        b,
        u64::MAX
    )));
}

#[test]
fn faulted_ckpt_edit_phase_cursor_is_a_miss() {
    assert!(!resume_faulted_edit("fe-phase", |b| with_line(
        b,
        "phase_ix",
        "phase_ix 0"
    )));
}

#[test]
fn faulted_ckpt_edit_abort_clock_behind_the_phase_is_a_miss() {
    // Sets the abort clock at 0 s, before the open phase's 27.68 s start.
    assert!(!resume_faulted_edit("fe-abort", |b| with_line(
        b,
        "fr_abort_set",
        "fr_abort_set 1"
    )));
}
