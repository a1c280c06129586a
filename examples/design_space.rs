//! Design-space exploration for an Active Disk farm: the paper's
//! Sections 4.2–4.4 as one sweep.
//!
//! Varies, one at a time: I/O interconnect bandwidth, per-disk memory, and
//! the communication architecture (direct disk-to-disk vs through the
//! front-end), for a task of your choice.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space [task]
//! ```
//!
//! where `task` is one of `select`, `aggregate`, `groupby`, `dcube`,
//! `sort`, `join`, `dmine`, `mview` (default `sort` — the most
//! communication-hungry task).

use activedisks::arch::Architecture;
use activedisks::tasks::TaskKind;

// Routed through the result cache: the panels share their baselines
// (e.g. the stock configuration appears in panels 1 and 3), so each
// distinct configuration simulates once.
fn seconds(arch: Architecture, task: TaskKind) -> f64 {
    activedisks::howsim::cache::run(&arch, task)
        .elapsed()
        .as_secs_f64()
}

fn main() {
    let task = std::env::args()
        .nth(1)
        .and_then(|a| TaskKind::parse(&a))
        .unwrap_or(TaskKind::Sort);
    let sizes = [16usize, 32, 64, 128];

    println!("Design space for `{}`:\n", task.name());

    // Each panel is a parallel sweep over sizes; rows come back in size
    // order, so the output matches the serial loop exactly.
    println!("I/O interconnect bandwidth (dual FC loop, aggregate MB/s):");
    println!(
        "{:>7}  {:>9} {:>9} {:>9}",
        "disks", "200 MB/s", "400 MB/s", "speedup"
    );
    let rows = activedisks::howsim::sweep::map(&sizes, |&disks| {
        let base = seconds(Architecture::active_disks(disks), task);
        let fast = seconds(
            Architecture::active_disks(disks).with_interconnect_mb(400.0),
            task,
        );
        (disks, base, fast)
    });
    for (disks, base, fast) in rows {
        println!("{disks:>7}  {base:>9.1} {fast:>9.1} {:>8.2}x", base / fast);
    }

    println!("\nPer-disk memory:");
    println!(
        "{:>7}  {:>9} {:>9} {:>9} {:>11}",
        "disks", "32 MB", "64 MB", "128 MB", "64 MB gain"
    );
    let rows = activedisks::howsim::sweep::map(&sizes, |&disks| {
        let mem = |mb: u64| {
            seconds(
                Architecture::active_disks(disks).with_disk_memory(mb << 20),
                task,
            )
        };
        (disks, mem(32), mem(64), mem(128))
    });
    for (disks, m32, m64, m128) in rows {
        println!(
            "{disks:>7}  {m32:>9.1} {m64:>9.1} {m128:>9.1} {:>10.1}%",
            (1.0 - m64 / m32) * 100.0
        );
    }

    println!("\nCommunication architecture:");
    println!(
        "{:>7}  {:>10} {:>12} {:>9}",
        "disks", "direct d2d", "via frontend", "slowdown"
    );
    let rows = activedisks::howsim::sweep::map(&sizes, |&disks| {
        let direct = seconds(Architecture::active_disks(disks), task);
        let restricted = seconds(
            Architecture::active_disks(disks).with_direct_disk_to_disk(false),
            task,
        );
        (disks, direct, restricted)
    });
    for (disks, direct, restricted) in rows {
        println!(
            "{disks:>7}  {direct:>10.1} {restricted:>12.1} {:>8.2}x",
            restricted / direct
        );
    }
}
