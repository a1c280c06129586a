//! Extension experiment: the overnight-mining window under data growth.
//!
//! The paper's opening motivation quotes Greg Papadopolous: "customers are
//! doubling data storage every nine-to-twelve months and would like to
//! 'mine' this data overnight to shape their business practices." This
//! experiment plays that scenario forward: the dmine task (association-rule
//! mining, the paper's "mine") on a fixed 64-disk installation of each
//! architecture as the dataset doubles — ×1 (16 GB) through ×8 (128 GB).
//! The question is which architectures keep the job inside a fixed
//! overnight window, and for how many doublings. Active Disks hold the
//! advantage at every scale: their scan bandwidth is the media's, while
//! the SMP's is its I/O interconnect's.

use arch::Architecture;
use tasks::{plan_task_on, TaskKind};

use crate::{architectures, render_table};

/// One row: a dataset scale on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Architecture short name.
    pub arch: &'static str,
    /// Dataset scale factor (1 = Table 2's 16 GB).
    pub scale: u64,
    /// Dataset size in GB.
    pub dataset_gb: f64,
    /// Simulated hours for the mining run.
    pub hours: f64,
}

/// Runs the growth sweep on `disks`-node installations.
///
/// Swept in parallel over (architecture, scale) points; see
/// [`howsim::sweep`].
pub fn run_scales(disks: usize, scales: &[u64]) -> Vec<Row> {
    let base = TaskKind::DataMine.dataset();
    let points: Vec<(Architecture, u64)> = architectures(disks)
        .into_iter()
        .flat_map(|arch| scales.iter().map(move |&scale| (arch.clone(), scale)))
        .collect();
    howsim::sweep::map(&points, |(arch, scale)| {
        let dataset = base.scaled_up(*scale);
        let plan = plan_task_on(TaskKind::DataMine, arch, &dataset);
        let secs = howsim::cache::run_plan(arch, &plan).elapsed().as_secs_f64();
        Row {
            arch: arch.short_name(),
            scale: *scale,
            dataset_gb: dataset.total_bytes as f64 / 1e9,
            hours: secs / 3_600.0,
        }
    })
}

/// Runs the default sweep: 64 disks, ×1 to ×8.
pub fn run() -> Vec<Row> {
    run_scales(64, &[1, 2, 4, 8])
}

/// Renders the growth experiment.
pub fn render(rows: &[Row]) -> String {
    let header: Vec<String> = ["arch", "scale", "dataset (GB)", "mining run (h)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.arch.to_string(),
                format!("x{}", r.scale),
                format!("{:.0}", r.dataset_gb),
                format!("{:.3}", r.hours),
            ]
        })
        .collect();
    render_table(
        "Extension: the overnight-mining window under data growth \
         (dmine on fixed 64-node installations)",
        &header,
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mining_time_scales_linearly_with_data() {
        let rows = run_scales(16, &[1, 4]);
        for arch in ["Active", "Cluster", "SMP"] {
            let series: Vec<&Row> = rows.iter().filter(|r| r.arch == arch).collect();
            let ratio = series[1].hours / series[0].hours;
            assert!(
                (3.5..4.5).contains(&ratio),
                "{arch}: 4x the data should take ~4x the time, got {ratio:.2}"
            );
        }
    }

    #[test]
    fn active_disks_hold_the_window_longest() {
        // At 64 disks the SMP's loop is the mining bottleneck; its window
        // blows out while the Active Disk farm's scales with the media.
        let rows = run_scales(64, &[8]);
        let get = |arch: &str| rows.iter().find(|r| r.arch == arch).unwrap().hours;
        let active = get("Active");
        let smp = get("SMP");
        assert!(
            smp > 2.0 * active,
            "at 8 doublings the SMP ({smp:.2} h) is far outside Active Disks' window ({active:.2} h)"
        );
    }
}
