//! Each recorder's output is the same whether it runs alone or beside the
//! others. One `run_plan_observed` keeping trace rows, sampled series and
//! spans must match three runs that each keep one of them, and its report
//! must match an unobserved run.

use arch::Architecture;
use howsim::faults::{FaultPlan, RecoveryPolicy};
use howsim::{MetricsBuilder, Simulation, Trace};
use simcore::Duration;
use tasks::{plan_task, TaskKind, TaskPlan};

fn check_recorders_are_independent(sim: &Simulation, plan: &TaskPlan) {
    let (mut trace, mut metrics) = (Trace::new(), MetricsBuilder::new());
    let (report, spans) = sim.run_plan_observed(plan, Some(&mut trace), Some(&mut metrics), true);
    let spans = spans.expect("a profiled run returns its spans");
    assert_eq!(report, sim.run_plan(plan));

    let mut trace_alone = Trace::new();
    sim.run_plan_observed(plan, Some(&mut trace_alone), None, false);
    assert_eq!(trace.to_csv(), trace_alone.to_csv());

    let mut metrics_alone = MetricsBuilder::new();
    sim.run_plan_observed(plan, None, Some(&mut metrics_alone), false);
    let (all, alone) = (metrics.finish(), metrics_alone.finish());
    assert_eq!(all.sample_interval, alone.sample_interval);
    assert_eq!(all.utilization, alone.utilization);
    assert_eq!(all.queue_depth, alone.queue_depth);
    assert!(!all.queue_depth.samples().is_empty());

    let (_, spans_alone) = sim.run_plan_observed(plan, None, None, true);
    let spans_alone = spans_alone.expect("a profiled run returns its spans");
    assert!(spans.chrome_trace_json() == spans_alone.chrome_trace_json());
    assert_eq!(spans.critical_path(), spans_alone.critical_path());
}

#[test]
fn recorders_are_independent_on_a_cluster_join() {
    let arch = Architecture::cluster(16);
    let plan = plan_task(TaskKind::Join, &arch);
    check_recorders_are_independent(&Simulation::new(arch), &plan);
}

#[test]
fn recorders_are_independent_on_a_faulted_smp_sort() {
    let arch = Architecture::smp(4);
    let plan = plan_task(TaskKind::Sort, &arch);
    let healthy = Simulation::new(arch.clone()).run_plan(&plan).elapsed();
    let at = Duration::from_nanos(healthy.as_nanos() / 5 * 2);
    let sim = Simulation::new(arch)
        .with_fault_plan(FaultPlan::new().disk_fail_stop(1, at))
        .with_recovery(RecoveryPolicy::Redistribute);
    let report = sim.run_plan(&plan);
    assert_eq!(report.faults_injected, 1);
    check_recorders_are_independent(&sim, &plan);
}
