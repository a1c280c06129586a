//! Figure 1: performance of all eight tasks on comparable configurations
//! of Active Disks, clusters, and SMPs (16/32/64/128 disks), normalized to
//! the Active Disk configuration of the same size.

use arch::{Architecture, PAPER_SIZES};
use tasks::TaskKind;

use crate::{architectures, cell, render_table};

/// One cell of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Task name.
    pub task: &'static str,
    /// Architecture short name.
    pub arch: &'static str,
    /// Configuration size (disks).
    pub disks: usize,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Execution time normalized to Active Disks at the same size.
    pub normalized: f64,
}

/// Runs the full Figure 1 sweep (96 simulations).
pub fn run() -> Vec<Cell> {
    run_sizes(&PAPER_SIZES)
}

/// Runs Figure 1 for a subset of sizes (used by tests and quick modes).
///
/// The whole `sizes × tasks × architectures` grid maps
/// [`howsim::cache::run`] through [`howsim::sweep::map`]: points shared
/// with `manifests` and other sweeps are served from the result cache,
/// the rest simulate in parallel, and the cells come back in grid order,
/// so the output is identical to the serial loop.
pub fn run_sizes(sizes: &[usize]) -> Vec<Cell> {
    let points: Vec<(usize, TaskKind)> = sizes
        .iter()
        .flat_map(|&disks| TaskKind::ALL.into_iter().map(move |task| (disks, task)))
        .collect();
    let sims: Vec<(Architecture, TaskKind)> = points
        .iter()
        .flat_map(|&(disks, task)| architectures(disks).map(|arch| (arch, task)))
        .collect();
    let reports = howsim::sweep::map(&sims, |(arch, task)| howsim::cache::run(arch, *task));
    points
        .iter()
        .zip(reports.chunks(3))
        .flat_map(|(&(disks, task), archs)| {
            let active = archs[0].elapsed().as_secs_f64();
            archs.iter().map(move |r| Cell {
                task: task.name(),
                arch: r.architecture,
                disks,
                seconds: r.elapsed().as_secs_f64(),
                normalized: r.elapsed().as_secs_f64() / active,
            })
        })
        .collect()
}

/// Renders the four panels of Figure 1 as text tables.
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::new();
    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = cells.iter().map(|c| c.disks).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    for disks in sizes {
        let header = vec![
            "task".to_string(),
            "Active".to_string(),
            "Cluster".to_string(),
            "SMP".to_string(),
            "Active(s)".to_string(),
        ];
        let rows: Vec<Vec<String>> = TaskKind::ALL
            .iter()
            .map(|t| {
                let get = |arch: &str| {
                    cells
                        .iter()
                        .find(|c| c.task == t.name() && c.disks == disks && c.arch == arch)
                        .expect("cell present")
                };
                vec![
                    t.name().to_string(),
                    cell(get("Active").normalized),
                    cell(get("Cluster").normalized),
                    cell(get("SMP").normalized),
                    format!("{:.1}", get("Active").seconds),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &format!(
                "Figure 1: normalized execution time, {disks}-disk configurations \
                 (Active Disks = 1.00)"
            ),
            &header,
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_disk_architectures_are_comparable() {
        // Paper: "for the 16-disk configurations, the performance of all
        // three architectures is comparable."
        for c in run_sizes(&[16]) {
            assert!(
                (0.4..=2.2).contains(&c.normalized),
                "{} on {} at 16 disks: {:.2}× Active",
                c.task,
                c.arch,
                c.normalized
            );
        }
    }

    #[test]
    fn active_normalization_is_one() {
        for c in run_sizes(&[32]) {
            if c.arch == "Active" {
                assert!((c.normalized - 1.0).abs() < 1e-12);
            }
        }
    }
}
