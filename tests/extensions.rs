//! End-to-end tests of the repository's extensions beyond the paper:
//! the FibreSwitch fabric, skewed repartitioning, data growth, the
//! embedded-processor evolution knob, and event tracing.

use activedisks::arch::{Architecture, ProcessorSpec};
use activedisks::datagen::zipf::Zipf;
use activedisks::howsim::{Simulation, Trace, TraceKind};
use activedisks::tasks::planner::apply_shuffle_skew;
use activedisks::tasks::{plan_task, plan_task_on, TaskKind};

fn secs(arch: Architecture, task: TaskKind) -> f64 {
    Simulation::new(arch).run(task).elapsed().as_secs_f64()
}

/// The paper's scaling recommendation, implemented and verified: a
/// FibreSwitch fabric un-pins the dual loop's repartition ceiling.
#[test]
fn fibre_switch_unpins_repartitioning() {
    let dual_128 = secs(Architecture::active_disks(128), TaskKind::Sort);
    let switch_128 = secs(
        Architecture::active_disks(128).with_fibre_switch(),
        TaskKind::Sort,
    );
    assert!(
        switch_128 < dual_128 / 2.0,
        "switched {switch_128:.1}s vs dual loop {dual_128:.1}s"
    );
    // And it keeps scaling: 256 disks halve the switched time again.
    let switch_256 = secs(
        Architecture::active_disks(256).with_fibre_switch(),
        TaskKind::Sort,
    );
    assert!(switch_256 < switch_128 / 1.5);
}

/// The switch changes nothing for tasks that barely communicate.
#[test]
fn fibre_switch_is_irrelevant_for_scans() {
    let dual = secs(Architecture::active_disks(64), TaskKind::Select);
    let switched = secs(
        Architecture::active_disks(64).with_fibre_switch(),
        TaskKind::Select,
    );
    let delta = (switched - dual).abs() / dual;
    assert!(
        delta < 0.05,
        "select should not care about the fabric: {delta:.3}"
    );
}

/// Zipf skew degrades repartitioning through the hot receiver.
#[test]
fn zipf_skew_creates_stragglers() {
    let arch = Architecture::active_disks(32);
    let uniform = secs(arch.clone(), TaskKind::Join);
    let mut plan = plan_task(TaskKind::Join, &arch);
    apply_shuffle_skew(&mut plan, Zipf::new(100_000, 1.0).partition_weights(32));
    let skewed = Simulation::new(arch)
        .run_plan(&plan)
        .elapsed()
        .as_secs_f64();
    assert!(
        skewed > uniform * 1.2,
        "uniform {uniform:.1}s, Zipf-skewed {skewed:.1}s"
    );
}

/// Growth: doubling the dataset doubles the time; the Active Disk farm's
/// advantage over the SMP is preserved at every scale.
#[test]
fn growth_preserves_the_architecture_ranking() {
    let base = TaskKind::Select.dataset();
    for scale in [1u64, 4] {
        let dataset = base.scaled_up(scale);
        let active = {
            let arch = Architecture::active_disks(64);
            let plan = plan_task_on(TaskKind::Select, &arch, &dataset);
            Simulation::new(arch)
                .run_plan(&plan)
                .elapsed()
                .as_secs_f64()
        };
        let smp = {
            let arch = Architecture::smp(64);
            let plan = plan_task_on(TaskKind::Select, &arch, &dataset);
            Simulation::new(arch)
                .run_plan(&plan)
                .elapsed()
                .as_secs_f64()
        };
        assert!(
            smp > 3.0 * active,
            "scale x{scale}: SMP {smp:.1}s vs Active {active:.1}s"
        );
    }
}

/// The evolution argument: a next-generation embedded processor helps the
/// CPU-bound tasks (dmine, sort) and leaves media-bound scans alone.
#[test]
fn embedded_cpu_evolution_helps_where_it_should() {
    let base = Architecture::active_disks(64);
    let evolved = base
        .clone()
        .with_embedded_cpu(ProcessorSpec::embedded_next_gen());
    let dmine_gain =
        1.0 - secs(evolved.clone(), TaskKind::DataMine) / secs(base.clone(), TaskKind::DataMine);
    let select_gain = 1.0 - secs(evolved, TaskKind::Select) / secs(base, TaskKind::Select);
    assert!(dmine_gain > 0.2, "dmine is CPU-bound: gain {dmine_gain:.2}");
    assert!(
        select_gain < 0.05,
        "select is media-bound: gain {select_gain:.2}"
    );
}

/// Event traces account for every byte the report claims.
#[test]
fn traces_reconcile_with_reports() {
    let sim = Simulation::new(Architecture::active_disks(16));
    let plan = plan_task(TaskKind::GroupBy, sim.architecture());
    let mut trace = Trace::new();
    let (report, _) = sim.run_plan_observed(&plan, Some(&mut trace), None, false);
    // Front-end deliveries in the trace match the report's byte count.
    let fe_bytes: u64 = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::FeArrive)
        .map(|e| e.bytes)
        .sum();
    assert_eq!(fe_bytes, report.frontend_bytes());
    // Reads cover the dataset.
    let read_bytes: u64 = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::ReadDone)
        .map(|e| e.bytes)
        .sum();
    let expected = TaskKind::GroupBy.dataset().total_bytes;
    let err = (read_bytes as f64 - expected as f64).abs() / expected as f64;
    assert!(err < 0.01, "trace reads {read_bytes} vs dataset {expected}");
}
