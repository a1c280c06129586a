//! Checkpoint files (`.ckpt`): paused [`ExecRun`] state, written with
//! [`write_file`] and resumed with [`read_file`].
//!
//! A checkpoint captures a run at an exact event boundary — machine
//! state, fault state, finished-phase reports, and the live event
//! queue — so a later process can resume it (under either queue
//! backend) instead of re-simulating the prefix. Files carry the shared
//! armor of [`simcore::state`] (the result cache's too): a schema line,
//! an FNV-1a checksum, and the full key material stored verbatim, so a
//! truncated, bit-flipped, or mismatched file is a clean miss, never a
//! panic. The body decoder also rejects state no paused single-query
//! run can hold (events addressing missing nodes, control events,
//! counts beyond the input, and per-node counters, fault flags, batch
//! sizes or byte totals no run reaches; see [`ExecRun::load_state`]).
//! Publication is atomic (temp file, then rename).
//!
//! The checkpoint key deliberately excludes the queue backend: restored
//! queue state is renumbered into whatever backend the resuming
//! simulation configures, and the continuation's report is
//! field-identical either way. Everything else the paused state depends
//! on — architecture, plan, seed, fault plan, recovery policy, and the
//! pause boundary — is in the key, so two fault scenarios forked from one
//! prefix never alias.

use std::fs;
use std::io;
use std::path::Path;

use simcore::state::{self, StateReader, StateWriter};
use simcore::SimTime;
use tasks::plan::TaskPlan;

use crate::exec::{ExecRun, Simulation};

/// Checkpoint schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "howsim-ckpt/v1";

/// The configuration part of a checkpoint key: every input the paused
/// state depends on except the pause boundary. It is the result cache's
/// key for the same run ([`crate::cache::key_material`]) behind a
/// `ckpt | ` prefix, so the queue backend is deliberately absent (see
/// the module docs).
pub fn config_key(sim: &Simulation, plan: &TaskPlan) -> String {
    format!("ckpt | {}", crate::cache::sim_key(sim, plan))
}

/// The full checkpoint key: the configuration plus the pause boundary.
pub fn checkpoint_key(sim: &Simulation, plan: &TaskPlan, at: SimTime) -> String {
    format!("{} | at={}", config_key(sim, plan), at.as_nanos())
}

/// Atomically writes the checkpoint file for a paused run to `path`.
///
/// # Panics
///
/// Panics if the run is profiled (see [`ExecRun::save_state`]).
pub fn write_file(
    path: &Path,
    sim: &Simulation,
    plan: &TaskPlan,
    at: SimTime,
    run: &ExecRun<'_>,
) -> io::Result<()> {
    let mut w = StateWriter::new();
    run.save_state(&mut w);
    let text = state::seal(SCHEMA, &checkpoint_key(sim, plan, at), &w.finish());
    state::publish(path, &text)
}

/// Reads a checkpoint file written by [`write_file`], verifying it was
/// saved under this `sim`/`plan` configuration (the pause boundary in
/// the stored key is accepted as-is: the resumer does not need to know
/// it, the state body carries the clock). Corrupt or mismatched files
/// are a clean miss.
pub fn read_file<'p>(path: &Path, sim: &Simulation, plan: &'p TaskPlan) -> Option<ExecRun<'p>> {
    decode(&fs::read_to_string(path).ok()?, sim, plan)
}

/// Decodes checkpoint text: the armor must verify, the key must name
/// this configuration, and the body must rebuild a paused run with
/// nothing left over.
pub(crate) fn decode<'p>(text: &str, sim: &Simulation, plan: &'p TaskPlan) -> Option<ExecRun<'p>> {
    let (key, body) = state::open(SCHEMA, text)?;
    let (stored_config, at) = key.rsplit_once(" | at=")?;
    if stored_config != config_key(sim, plan) || at.parse::<u64>().is_err() {
        return None; // saved under a different configuration
    }
    let mut r = StateReader::new(body);
    let run = ExecRun::load_state(sim, plan, &mut r).ok()?;
    r.expect_done().ok()?;
    Some(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RecoveryPolicy};
    use arch::Architecture;
    use simcore::QueueBackend;
    use std::path::PathBuf;
    use tasks::{plan_task, TaskKind};

    fn tmp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("howsim-ckpt-{tag}-{}.ckpt", std::process::id()))
    }

    fn mid_run_pause(sim: &Simulation, plan: &TaskPlan) -> SimTime {
        // Pause mid-run: halfway through the full elapsed time.
        let full = sim.run_plan(plan);
        SimTime::ZERO + simcore::Duration::from_nanos(full.elapsed().as_nanos() / 2)
    }

    #[test]
    fn key_varies_with_every_input_but_not_queue_backend() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let sim = Simulation::new(arch.clone()).with_seed(7);
        let at = SimTime::from_nanos(1_000_000);
        let base = checkpoint_key(&sim, &plan, at);

        // The backend never participates: a checkpoint taken under the
        // wheel must be found by a heap-backed resumer.
        let heap = sim.clone().with_queue_backend(QueueBackend::BinaryHeap);
        assert_eq!(base, checkpoint_key(&heap, &plan, at));

        // Every real input does.
        let other_arch = Simulation::new(Architecture::cluster(4)).with_seed(7);
        assert_ne!(base, checkpoint_key(&other_arch, &plan, at));
        let other_plan = plan_task(TaskKind::Aggregate, &arch);
        assert_ne!(base, checkpoint_key(&sim, &other_plan, at));
        let other_seed = sim.clone().with_seed(8);
        assert_ne!(base, checkpoint_key(&other_seed, &plan, at));
        let burst = sim
            .clone()
            .with_fault_plan(FaultPlan::parse_spec("slow:0@0s:50").unwrap());
        assert_ne!(base, checkpoint_key(&burst, &plan, at));
        let failstop = sim.clone().with_recovery(RecoveryPolicy::FailStop);
        assert_ne!(base, checkpoint_key(&failstop, &plan, at));
        assert_ne!(
            base,
            checkpoint_key(&sim, &plan, SimTime::from_nanos(2_000_000))
        );
    }

    #[test]
    fn two_fault_plans_forked_from_one_prefix_do_not_alias() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let healthy = Simulation::new(arch);
        let at = mid_run_pause(&healthy, &plan);
        let a = healthy
            .clone()
            .with_fault_plan(FaultPlan::parse_spec("disk:0@1s").unwrap());
        let b = healthy
            .clone()
            .with_fault_plan(FaultPlan::parse_spec("disk:1@1s").unwrap());
        assert_ne!(checkpoint_key(&a, &plan, at), checkpoint_key(&b, &plan, at));
    }

    #[test]
    fn file_round_trip_resumes_identically_across_backends() {
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let sim = Simulation::new(arch).with_seed(3);
        let scratch = sim.run_plan(&plan);
        let at = mid_run_pause(&sim, &plan);

        let mut run = sim.start(&plan);
        run.run_until(at);
        let path = tmp_file("roundtrip");
        write_file(&path, &sim, &plan, at, &run).expect("write checkpoint");

        for backend in [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap] {
            let resumer = sim.clone().with_queue_backend(backend);
            let restored =
                read_file(&path, &resumer, &plan).expect("checkpoint hit under any backend");
            assert_eq!(restored.finish(), scratch, "backend {backend:?}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoints_are_clean_misses() {
        let arch = Architecture::active_disks(2);
        let plan = plan_task(TaskKind::Aggregate, &arch);
        let sim = Simulation::new(arch);
        let at = mid_run_pause(&sim, &plan);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let path = tmp_file("corrupt");
        write_file(&path, &sim, &plan, at, &run).expect("write checkpoint");
        assert!(
            read_file(&path, &sim, &plan).is_some(),
            "sanity: intact hit"
        );

        // Truncation: lop off the tail.
        let intact = fs::read_to_string(&path).expect("read entry");
        fs::write(&path, &intact[..intact.len() / 2]).expect("truncate");
        assert!(read_file(&path, &sim, &plan).is_none(), "truncated → miss");

        // Single bit flip in the body.
        let mut flipped = intact.clone().into_bytes();
        let ix = flipped.len() - 20;
        flipped[ix] ^= 0x01;
        fs::write(&path, flipped).expect("bit flip");
        assert!(read_file(&path, &sim, &plan).is_none(), "bit flip → miss");

        // Wrong schema line.
        fs::write(&path, intact.replace(SCHEMA, "howsim-ckpt/v0")).expect("schema");
        assert!(read_file(&path, &sim, &plan).is_none(), "bad schema → miss");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn file_round_trip_checks_the_configuration() {
        let arch = Architecture::cluster(4);
        let plan = plan_task(TaskKind::Join, &arch);
        let sim = Simulation::new(arch);
        let at = mid_run_pause(&sim, &plan);
        let mut run = sim.start(&plan);
        run.run_until(at);
        let dir = std::env::temp_dir().join(format!("howsim-ckpt-file-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("pause.ckpt");
        write_file(&path, &sim, &plan, at, &run).expect("write checkpoint");

        let restored = read_file(&path, &sim, &plan).expect("resume from file");
        assert_eq!(restored.finish(), sim.run_plan(&plan));

        // A different seed is a different configuration: miss.
        let other = sim.clone().with_seed(99);
        assert!(read_file(&path, &other, &plan).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
