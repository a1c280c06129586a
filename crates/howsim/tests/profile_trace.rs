//! Integration tests for causal span profiling: result invariance,
//! critical-path exactness on the paper's figure-2 join, and determinism
//! of the Chrome-trace export across queue backends.

use arch::Architecture;
use howsim::faults::FaultPlan;
use howsim::profile::UNATTRIBUTED;
use howsim::Simulation;
use simcore::{Duration, QueueBackend};
use tasks::TaskKind;

const BACKENDS: [QueueBackend; 2] = [QueueBackend::BinaryHeap, QueueBackend::CalendarWheel];

/// Profiling must not change simulation results: the report from a
/// profiled run is identical to a plain run, on every queue backend.
#[test]
fn profiling_is_result_invariant_across_backends() {
    let arch = Architecture::cluster(16);
    for backend in BACKENDS {
        let plain = Simulation::new(arch.clone())
            .with_queue_backend(backend)
            .run(TaskKind::Join);
        let (profiled, trace) = Simulation::new(arch.clone())
            .with_queue_backend(backend)
            .run_profiled(TaskKind::Join);
        assert_eq!(
            plain, profiled,
            "profiling perturbed results on {backend:?}"
        );
        assert!(!trace.arena.is_empty(), "profiled run recorded spans");
        assert_eq!(trace.arena.dropped(), 0, "default capacity must suffice");
        assert_eq!(trace.phases.len(), profiled.phases.len());
    }
}

/// The acceptance bar: on the 64-disk cluster join the critical path's
/// total equals the run's elapsed time exactly, in integer nanoseconds,
/// and the per-resource segments tile it with nothing unattributed.
#[test]
fn critical_path_total_equals_elapsed_on_64_disk_cluster_join() {
    let (report, trace) = Simulation::new(Architecture::cluster(64)).run_profiled(TaskKind::Join);
    let cp = trace.critical_path();
    assert_eq!(
        cp.total.as_nanos(),
        report.elapsed().as_nanos(),
        "critical path total must equal elapsed exactly"
    );
    let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
    assert_eq!(sum, cp.total, "segments tile the elapsed time exactly");
    assert!(
        cp.segments.iter().all(|s| s.resource != UNATTRIBUTED),
        "healthy runs leave no unattributed time: {:?}",
        cp.segments
    );
    // The join is disk-bound here (the attribution tests pin that), so
    // disk media must dominate its critical path too.
    assert_eq!(cp.segments[0].resource, "disk_media");
}

/// Exactness holds for every architecture and task shape we model —
/// scan-only, shuffle-heavy, multi-phase — not just the headline join.
#[test]
fn critical_path_is_exact_on_every_architecture_and_task() {
    let archs = [
        Architecture::active_disks(8),
        Architecture::cluster(8),
        Architecture::smp(8),
    ];
    for arch in archs {
        for task in [TaskKind::Select, TaskKind::Sort, TaskKind::Join] {
            let (report, trace) = Simulation::new(arch.clone()).run_profiled(task);
            let cp = trace.critical_path();
            assert_eq!(
                cp.total,
                report.elapsed(),
                "{task:?} on {}: critical path != elapsed",
                report.architecture
            );
            let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
            assert_eq!(sum, cp.total);
        }
    }
}

/// The Chrome-trace export is a pure function of the simulated run:
/// byte-identical across queue backends.
#[test]
fn chrome_export_is_byte_identical_across_backends() {
    let arch = Architecture::active_disks(8);
    let reference = Simulation::new(arch.clone())
        .with_queue_backend(BACKENDS[0])
        .run_profiled(TaskKind::Sort)
        .1
        .chrome_trace_json();
    assert!(reference.contains("\"ph\": \"B\""));
    for backend in &BACKENDS[1..] {
        let json = Simulation::new(arch.clone())
            .with_queue_backend(*backend)
            .run_profiled(TaskKind::Sort)
            .1
            .chrome_trace_json();
        assert_eq!(reference, json, "export differs on {backend:?}");
    }
}

/// Profiling a degraded run still tiles elapsed time exactly; recovery
/// re-reads surface on the critical path as the synthetic resources
/// rather than breaking the accounting.
#[test]
fn critical_path_stays_exact_under_faults() {
    let arch = Architecture::active_disks(16);
    let healthy = Simulation::new(arch.clone()).run(TaskKind::Sort).elapsed();
    let at = Duration::from_secs_f64(healthy.as_secs_f64() * 0.5);
    let (report, trace) = Simulation::new(arch)
        .with_seed(42)
        .with_fault_plan(FaultPlan::new().disk_fail_stop(3, at))
        .run_profiled(TaskKind::Sort);
    assert!(!report.aborted);
    assert_eq!(report.faults_injected, 1);
    let cp = trace.critical_path();
    assert_eq!(cp.total, report.elapsed());
    let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
    assert_eq!(sum, cp.total);
}
