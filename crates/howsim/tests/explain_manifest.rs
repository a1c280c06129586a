//! Integration tests for the observability layer: manifest determinism
//! and bottleneck attribution on the paper's figure-2 configurations.

use arch::Architecture;
use howsim::manifest::RunManifest;
use howsim::{Attribution, MetricsBuilder, Resource, Simulation, Trace};
use tasks::TaskKind;

/// Two runs of the same configuration and seed must serialize to
/// byte-identical manifests (the `host` section, the only wall-clock
/// data, defaults to `null`).
#[test]
fn identical_runs_produce_byte_identical_manifests() {
    let arch = Architecture::cluster(16);
    let make = || {
        let sim = Simulation::new(arch.clone());
        let plan = tasks::plan_task(TaskKind::Join, &arch);
        let mut trace = Trace::new();
        let mut metrics = MetricsBuilder::new();
        let (report, _) = sim.run_plan_observed(&plan, Some(&mut trace), Some(&mut metrics), false);
        RunManifest::new(&arch, &report)
            .with_seed(42)
            .with_metrics(metrics.finish())
            .with_trace(trace.summary())
            .to_json()
    };
    let a = make();
    let b = make();
    assert_eq!(a, b);
    assert!(a.contains("\"schema\": \"howsim-manifest/v1\""));
    assert!(a.contains("\"seed\": 42"));
    assert!(a.contains("\"sample_interval_ns\": 250000000"));
}

/// The fig2-style 64-disk cluster join must attribute a saturated
/// (≥90% busy) resource as its bottleneck.
#[test]
fn cluster_join_at_64_disks_has_a_saturated_bottleneck() {
    let report = Simulation::new(Architecture::cluster(64)).run(TaskKind::Join);
    let attr = Attribution::from_report(&report);
    let b = attr.bottleneck().expect("phases ran");
    assert!(
        b.peak_utilization >= 0.90,
        "bottleneck {:?} only {:.1}% utilized",
        b.resource,
        b.peak_utilization * 100.0
    );
    // The cluster join is disk-bound in this model: each host scans and
    // rescans its partitions at full media rate.
    assert_eq!(b.resource, Resource::DiskMedia);
}

/// On the 64-disk SMP the shared FC I/O loop is the wall — the paper's
/// explanation for why the server configurations stop scaling.
#[test]
fn smp_join_at_64_disks_saturates_the_interconnect() {
    let report = Simulation::new(Architecture::smp(64)).run(TaskKind::Join);
    let attr = Attribution::from_report(&report);
    let b = attr.bottleneck().expect("phases ran");
    assert_eq!(b.resource, Resource::Interconnect);
    assert!(b.peak_utilization >= 0.90);
}

/// Sampled metrics land on the simulated-time grid and cover every
/// resource the machine owns.
#[test]
fn instrumented_run_collects_utilization_series() {
    let arch = Architecture::smp(16);
    let sim = Simulation::new(arch.clone());
    let plan = tasks::plan_task(TaskKind::Select, &arch);
    let mut metrics = MetricsBuilder::new();
    let (report, _) = sim.run_plan_observed(&plan, None, Some(&mut metrics), false);
    let m = metrics.finish();
    assert!(report.events > 0);
    // SMP owns disk media, worker CPUs, front-end CPU, interconnect,
    // memory fabric, plus the (idle here) recovery lane.
    assert_eq!(m.utilization.len(), 6);
    let (resource, _, series) = &m.utilization[0];
    assert_eq!(*resource, Resource::DiskMedia);
    assert!(!series.samples().is_empty());
    assert!(series
        .samples()
        .iter()
        .all(|&(_, v)| (0.0..=1.0).contains(&v)));
    assert_eq!(m.queue_depth.samples().len(), series.samples().len());
}

/// Instrumentation must not change simulation results: the report from
/// an instrumented run is identical to a plain run.
#[test]
fn metrics_collection_is_result_invariant() {
    let arch = Architecture::active_disks(8);
    let plain = Simulation::new(arch.clone()).run(TaskKind::Sort);
    let sim = Simulation::new(arch.clone());
    let plan = tasks::plan_task(TaskKind::Sort, &arch);
    let mut metrics = MetricsBuilder::new();
    let (instrumented, _) = sim.run_plan_observed(&plan, None, Some(&mut metrics), false);
    assert_eq!(plain, instrumented);
}
