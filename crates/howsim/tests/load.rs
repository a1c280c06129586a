//! Integration tests for the loaded multi-query executor: report
//! identity across event-queue backends and sweep worker counts, and the
//! ISSUE's headline scenario — a disk fail-stop striking mid-load with
//! every per-query report intact and every per-query critical path
//! summing exactly to that query's execution time.

use arch::Architecture;
use howsim::faults::FaultPlan;
use howsim::{AdmissionPolicy, DeadlinePolicy, QueryStatus, Simulation, WorkloadSpec};
use simcore::{Duration, QueueBackend};
use tasks::TaskKind;

/// An overloaded workload derived from the healthy single-query elapsed
/// time, so arrivals, deadlines, and backoffs are deterministic for the
/// configuration regardless of absolute calibration.
fn overloaded(arch: &Architecture) -> (Simulation, WorkloadSpec, AdmissionPolicy, DeadlinePolicy) {
    let healthy = Simulation::new(arch.clone())
        .run(TaskKind::Select)
        .elapsed()
        .as_secs_f64();
    let workload = WorkloadSpec::poisson(1.5 / healthy, 5)
        .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)])
        .with_seed(7);
    let admission = AdmissionPolicy {
        max_concurrent: 1,
        queue_limit: 2,
    };
    let deadline = DeadlinePolicy {
        deadline: Some(Duration::from_secs_f64(healthy * 2.0)),
        max_retries: 1,
        backoff: Duration::from_secs_f64(healthy * 0.25),
    };
    (
        Simulation::new(arch.clone()).with_seed(7),
        workload,
        admission,
        deadline,
    )
}

/// The same overloaded workload must produce an identical `LoadReport` —
/// every outcome, phase boundary, retry count, and event count — on both
/// event-queue backends, and the serialized load manifest must be
/// byte-identical.
#[test]
fn load_report_is_identical_across_queue_backends() {
    let arch = Architecture::active_disks(8);
    let (sim, workload, admission, deadline) = overloaded(&arch);
    let backends = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];
    let reports: Vec<_> = backends
        .iter()
        .map(|&qb| {
            sim.clone()
                .with_queue_backend(qb)
                .run_workload(&workload, admission, deadline)
        })
        .collect();
    for (qb, r) in backends.iter().zip(&reports).skip(1) {
        assert_eq!(&reports[0], r, "backend {qb:?} diverged");
        assert_eq!(
            howsim::manifest::load_manifest_json(&reports[0], 7, "none", "redistribute"),
            howsim::manifest::load_manifest_json(r, 7, "none", "redistribute"),
        );
    }
    // The point of the overload: the admission and deadline layers fired.
    let r = &reports[0];
    assert_eq!(r.outcomes.len(), 5);
    assert!(r.completed() > 0, "some queries complete");
    assert!(
        r.shed() + r.timed_out() > 0,
        "overload sheds or times out something (completed {}, shed {}, timed out {})",
        r.completed(),
        r.shed(),
        r.timed_out()
    );
}

/// A batch of loaded points must produce identical reports at any sweep
/// worker count (the loaded executor shares no state across points).
#[test]
fn load_reports_are_identical_across_sweep_jobs() {
    let points: Vec<_> = [
        Architecture::active_disks(8),
        Architecture::cluster(8),
        Architecture::smp(8),
    ]
    .iter()
    .map(overloaded)
    .collect();
    let run = |p: &(Simulation, WorkloadSpec, AdmissionPolicy, DeadlinePolicy)| {
        p.0.run_workload(&p.1, p.2, p.3)
    };
    let serial = howsim::sweep::map_jobs(&points, 1, run);
    let parallel = howsim::sweep::map_jobs(&points, 8, run);
    assert_eq!(serial, parallel);
}

/// The headline robustness scenario: a disk fail-stops in the middle of
/// a loaded run under the redistribute policy. Every query must still
/// complete with its per-query report intact, and each completed query's
/// causal critical path must sum exactly — to the nanosecond — to its
/// execution time.
#[test]
fn midload_disk_fault_completes_with_exact_per_query_critical_paths() {
    let arch = Architecture::active_disks(8);
    let healthy = Simulation::new(arch.clone())
        .run(TaskKind::Select)
        .elapsed()
        .as_secs_f64();
    let workload = WorkloadSpec::closed(2, 4)
        .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)])
        .with_seed(7);
    let sim = Simulation::new(arch).with_seed(7).with_fault_plan(
        FaultPlan::new().disk_fail_stop(3, Duration::from_secs_f64(healthy * 0.5)),
    );
    let (report, trace) = sim.run_workload_profiled(
        &workload,
        AdmissionPolicy::default(),
        DeadlinePolicy::default(),
    );

    assert_eq!(report.faults_injected, 1);
    assert!(report.work_redistributed > 0, "survivors absorbed work");
    assert_eq!(report.completed(), 4, "every query survives the fault");
    for q in &report.outcomes {
        assert_eq!(q.status, QueryStatus::Completed);
        assert!(
            !q.phases.is_empty(),
            "query {} kept its phase report",
            q.query
        );
        let started = q.started.expect("completed query started");
        let executed = q.finished.since(started);
        let phase_sum: Duration = q.phases.iter().map(|p| p.elapsed).sum();
        assert_eq!(
            phase_sum, executed,
            "query {}: phases tile its execution exactly",
            q.query
        );
        let cp = trace
            .critical_path(q.query)
            .expect("profiled query has a critical path");
        assert_eq!(
            cp.total, executed,
            "query {}: critical path equals execution time exactly",
            q.query
        );
        let seg_sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(
            seg_sum, cp.total,
            "query {}: per-resource decomposition is exhaustive",
            q.query
        );
    }
    // The Chrome trace carries one pid lane per query.
    let json = trace.chrome_trace_json();
    for q in 0..4 {
        assert!(
            json.contains(&format!("\"pid\": {q}")),
            "trace has a lane for query {q}"
        );
    }
}
