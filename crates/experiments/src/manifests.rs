//! Sweep-level manifest aggregation: runs a grid of configurations and
//! collects one [`RunManifest`] per run into a single deterministic
//! `howsim-sweep/v1` JSON document.
//!
//! The grid maps [`howsim::cache::run`] through [`howsim::sweep::map`],
//! so runs are served from the result cache where they can be (the grid
//! overlaps Figure 1 point-for-point), execute in parallel, and aggregate
//! in configuration order — the output is byte-identical for any worker
//! count.

use arch::Architecture;
use howsim::manifest::{git_revision, RunManifest};
use tasks::TaskKind;

use crate::architectures;

/// Sweep manifest schema identifier.
pub const SCHEMA: &str = "howsim-sweep/v1";

/// Runs `tasks` × all three architectures × `sizes`, returning one
/// manifest per run in deterministic grid order (task-major, then
/// architecture, then size).
pub fn run_grid(tasks: &[TaskKind], sizes: &[usize]) -> Vec<RunManifest> {
    let mut configs: Vec<(Architecture, TaskKind)> = Vec::new();
    for &task in tasks {
        for &disks in sizes {
            for arch in architectures(disks) {
                configs.push((arch, task));
            }
        }
    }
    let reports = howsim::sweep::map(&configs, |(arch, task)| howsim::cache::run(arch, *task));
    configs
        .iter()
        .zip(&reports)
        .map(|((arch, _), report)| RunManifest::new(arch, report))
        .collect()
}

/// Serializes a sweep of manifests as one `howsim-sweep/v1` document:
/// a compact per-run summary table followed by the full manifests.
pub fn to_json(manifests: &[RunManifest]) -> String {
    let mut out = String::with_capacity(manifests.len() * 4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", git_revision()));
    out.push_str(&format!("  \"runs\": {},\n", manifests.len()));
    out.push_str("  \"summary\": [\n");
    for (ix, m) in manifests.iter().enumerate() {
        let (bottleneck, peak) = m
            .attribution
            .bottleneck()
            .map_or(("none", 0.0), |b| (b.resource.key(), b.peak_utilization));
        out.push_str(&format!(
            "    {{\"task\": \"{}\", \"architecture\": \"{}\", \"disks\": {}, \
             \"elapsed_s\": {:.9}, \"events\": {}, \"bottleneck\": \"{}\", \
             \"peak_utilization\": {:.6}}}{}\n",
            m.task,
            m.architecture,
            m.disks,
            m.elapsed.as_secs_f64(),
            m.events,
            bottleneck,
            peak,
            if ix + 1 < manifests.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"manifests\": [\n");
    for (ix, m) in manifests.iter().enumerate() {
        out.push_str(m.to_json().trim_end());
        out.push_str(if ix + 1 < manifests.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_deterministic_and_complete() {
        let ms = run_grid(&[TaskKind::Select], &[2, 4]);
        // 1 task × 2 sizes × 3 architectures.
        assert_eq!(ms.len(), 6);
        assert_eq!(ms[0].architecture, "Active");
        assert_eq!(ms[1].architecture, "Cluster");
        assert_eq!(ms[2].architecture, "SMP");
        assert_eq!(ms[0].disks, 2);
        assert_eq!(ms[3].disks, 4);
    }

    #[test]
    fn sweep_json_is_worker_count_invariant() {
        let a = {
            howsim::sweep::set_default_jobs(1);
            to_json(&run_grid(&[TaskKind::Select], &[2]))
        };
        let b = {
            howsim::sweep::set_default_jobs(4);
            to_json(&run_grid(&[TaskKind::Select], &[2]))
        };
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"howsim-sweep/v1\""));
        assert!(a.contains("\"runs\": 3,"));
        assert!(a.contains("\"bottleneck\": \""));
    }
}
