//! The executor's one fault rule under the fail-stop policy: a solo run
//! and the same query run alone as a workload are one execution, so a
//! disk failing near any phase end ends both the same way, and never in
//! a panic.

use activedisks::arch::Architecture;
use activedisks::howsim::faults::{FaultPlan, RecoveryPolicy};
use activedisks::howsim::{AdmissionPolicy, DeadlinePolicy, QueryStatus, Simulation, WorkloadSpec};
use activedisks::simcore::{Duration, SimTime};
use activedisks::tasks::{plan_task, TaskKind};

/// Fail-stop times probing the edges of a healthy run with phases of
/// lengths `phases`: 1 ms and 0.3 s before the end of the first phase
/// and of the last, and 99.9% of the whole run, in time order.
fn probe_times(phases: &[Duration]) -> Vec<Duration> {
    let mut ends = Vec::new();
    let mut end = Duration::ZERO;
    for (i, &p) in phases.iter().enumerate() {
        end += p;
        if i == 0 || i + 1 == phases.len() {
            ends.push(end);
        }
    }
    let mut times: Vec<Duration> = ends
        .iter()
        .flat_map(|&e| {
            [
                e.saturating_sub(Duration::from_millis(1)),
                e.saturating_sub(Duration::from_millis(300)),
            ]
        })
        .chain([end.scale(0.999)])
        .collect();
    times.sort();
    times.dedup();
    times
}

/// Every task on every architecture at 4 disks, with node 1 failing at
/// each probe time under `failstop`: the run aborts without a panic, and
/// the solo report's elapsed time is the one-query workload's latency.
/// The solo runs fork one healthy prefix per task at each fault time.
#[test]
fn failstop_near_phase_ends_ends_solo_and_loaded_alike() {
    let mut cases = 0;
    for arch in [
        Architecture::active_disks(4),
        Architecture::cluster(4),
        Architecture::smp(4),
    ] {
        let healthy = Simulation::new(arch.clone());
        for task in TaskKind::ALL {
            let plan = plan_task(task, &arch);
            let run = healthy.run_plan(&plan);
            let lengths: Vec<Duration> = run.phases.iter().map(|p| p.elapsed).collect();
            let mut prefix = healthy.start(&plan);
            for t in probe_times(&lengths) {
                prefix.run_until(SimTime::ZERO + t);
                let faults = FaultPlan::new().disk_fail_stop(1, t);
                let solo = prefix
                    .fork_with_faults(faults.clone(), RecoveryPolicy::FailStop)
                    .finish();
                let sim = healthy
                    .clone()
                    .with_fault_plan(faults)
                    .with_recovery(RecoveryPolicy::FailStop);
                let load = sim.run_workload(
                    &WorkloadSpec::closed(1, 1).with_mix(vec![(task, 1)]),
                    AdmissionPolicy::default(),
                    DeadlinePolicy::default(),
                );
                let q = &load.outcomes[0];
                let case = format!("{} {} disk:1@{t}", arch.short_name(), task.name());
                assert!(solo.aborted, "{case}: the solo run aborts");
                assert_eq!(q.status, QueryStatus::Aborted, "{case}");
                assert_eq!(q.latency(), solo.elapsed(), "{case}: elapsed drifts");
                assert_eq!(q.phases.len() + 1, solo.phases.len(), "{case}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 102, "the probe grid's size");
}
