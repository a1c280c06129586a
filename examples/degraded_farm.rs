//! Failure injection: one sick drive in a healthy farm.
//!
//! Drives grow defects over their life; a remapped sector costs a detour
//! to the spare region. In a barrier-synchronized dataflow (every phase
//! ends with a global barrier) the sickest drive sets the pace for the
//! whole farm. This example quantifies that straggler effect and shows
//! how it surfaces in the disk service-time distribution — analysis the
//! simulator supports beyond the paper's healthy-hardware evaluation.
//!
//! The sick drive is a fault-plan media burst at t = 0, before its first
//! read: the same fault as `howsim --fault slow:0@0s:<defects>`, with
//! defect positions drawn from the run's seed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example degraded_farm
//! ```

use activedisks::arch::Architecture;
use activedisks::howsim::{FaultPlan, Simulation};
use activedisks::simcore::Duration;
use activedisks::tasks::TaskKind;

fn main() {
    let disks = 32;
    let task = TaskKind::Select;

    println!("select on {disks} Active Disks, one drive degraded:\n");
    println!(
        "{:>16}  {:>9} {:>10} {:>14} {:>14}",
        "grown defects", "time (s)", "slowdown", "p50 service", "max service"
    );
    let healthy = Simulation::new(Architecture::active_disks(disks)).run(task);
    let base = healthy.elapsed().as_secs_f64();
    for grown in [0, 100, 400, 1_000] {
        let report = Simulation::new(Architecture::active_disks(disks))
            .with_fault_plan(FaultPlan::new().media_burst(0, Duration::ZERO, grown))
            .run(task);
        let secs = report.elapsed().as_secs_f64();
        println!(
            "{grown:>16}  {secs:>9.2} {:>9.2}x {:>14} {:>14}",
            secs / base,
            format!("{}", report.disk_service.quantile(0.5)),
            format!("{}", report.disk_service.max()),
        );
    }

    println!(
        "\nThe farm runs at the pace of its sickest member: the mean barely\n\
         moves, but the phase ends when the degraded drive finishes — the\n\
         tail of the service distribution is the whole story."
    );
}
