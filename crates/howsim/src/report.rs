//! Simulation reports: elapsed time, per-phase execution breakdowns, and
//! resource traffic — the raw material for every figure in the paper.

use std::collections::BTreeMap;
use std::fmt;

use simcore::state::{intern, StateError, StateReader, StateWriter};
use simcore::{Duration, Histogram};

use crate::metrics::{Resource, ResourceUsage};

/// Measurements for one executed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label (e.g. `"sort"`, `"merge"`).
    pub name: &'static str,
    /// Wall-clock (simulated) time of the phase.
    pub elapsed: Duration,
    /// Worker-CPU busy time per operator tag, summed over nodes.
    pub cpu_busy_by_tag: BTreeMap<&'static str, Duration>,
    /// Total worker-CPU busy time, summed over nodes.
    pub cpu_busy_total: Duration,
    /// Total disk busy time, summed over drives.
    pub disk_busy_total: Duration,
    /// Bytes that crossed the peer interconnect during this phase.
    pub interconnect_bytes: u64,
    /// Bytes delivered to the front-end during this phase.
    pub frontend_bytes: u64,
    /// Number of worker nodes.
    pub nodes: usize,
    /// Per-resource busy-time deltas for this phase, in the machine's
    /// stable resource order (see
    /// [`crate::machine::Machine::resource_usage`]).
    pub resources: Vec<ResourceUsage>,
}

impl PhaseReport {
    /// Aggregate CPU idle time: node-seconds not spent computing.
    pub fn cpu_idle(&self) -> Duration {
        (self.elapsed * self.nodes as u64).saturating_sub(self.cpu_busy_total)
    }

    /// Fraction of aggregate node time spent on `tag` (0..1).
    pub fn cpu_fraction(&self, tag: &str) -> f64 {
        let total = self.elapsed.as_secs_f64() * self.nodes as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.cpu_busy_by_tag
            .get(tag)
            .map_or(0.0, |d| d.as_secs_f64())
            / total
    }

    /// Fraction of aggregate node time the CPUs sat idle (0..1) — the
    /// "Idle" band of the paper's Figure 3.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.elapsed.as_secs_f64() * self.nodes as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.cpu_idle().as_secs_f64() / total
    }
}

/// The result of simulating one task on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Task name (paper spelling).
    pub task: &'static str,
    /// Architecture short name ("Active" / "Cluster" / "SMP").
    pub architecture: &'static str,
    /// Number of disks (= processors).
    pub disks: usize,
    /// Per-phase measurements, in execution order.
    pub phases: Vec<PhaseReport>,
    /// The merged per-request disk service-time distribution for the
    /// whole run.
    pub disk_service: Histogram,
    /// Total discrete events the executor processed — the simulator's
    /// self-profiling work counter (deterministic for a given plan).
    pub events: u64,
    /// Number of fault events that actually struck during the run.
    pub faults_injected: u64,
    /// Aggregate service time of recovery work (surviving-disk re-reads
    /// plus rebalance transfers) charged by the recovery policy.
    pub recovery_time: Duration,
    /// Bytes of the failed node's partition re-assigned to survivors.
    pub work_redistributed: u64,
    /// True if the run was cut short by the `FailStop` policy; the phase
    /// list stops at the aborted phase and later phases never ran.
    pub aborted: bool,
    /// Total disk downtime: failed-disk node-seconds through the end of
    /// the run.
    pub downtime: Duration,
}

impl Report {
    /// Total simulated execution time across all phases.
    pub fn elapsed(&self) -> Duration {
        self.phases.iter().map(|p| p.elapsed).sum()
    }

    /// Looks up a phase by name (first match).
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total bytes moved over the peer interconnect.
    pub fn interconnect_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.interconnect_bytes).sum()
    }

    /// Total bytes delivered to the front-end.
    pub fn frontend_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.frontend_bytes).sum()
    }

    /// Serializes the per-phase measurements as CSV
    /// (`task,arch,disks,phase,elapsed_s,cpu_busy_s,disk_busy_s,idle_frac,net_bytes,fe_bytes`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "task,arch,disks,phase,elapsed_s,cpu_busy_s,disk_busy_s,idle_frac,net_bytes,fe_bytes\n",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.6},{:.4},{},{}\n",
                self.task,
                self.architecture,
                self.disks,
                p.name,
                p.elapsed.as_secs_f64(),
                p.cpu_busy_total.as_secs_f64(),
                p.disk_busy_total.as_secs_f64(),
                p.idle_fraction(),
                p.interconnect_bytes,
                p.frontend_bytes
            ));
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} × {} disks: {:.2} s ({} phases)",
            self.task,
            self.architecture,
            self.disks,
            self.elapsed().as_secs_f64(),
            self.phases.len()
        )
    }
}

/// The phase codec shared by `.report` cache entries (every phase) and
/// checkpoints (the phases finished before the pause).
impl PhaseReport {
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.str_field("phase", self.name);
        w.field("elapsed_ns", self.elapsed.as_nanos());
        w.field("cpu_busy_ns", self.cpu_busy_total.as_nanos());
        w.field("disk_busy_ns", self.disk_busy_total.as_nanos());
        w.field("interconnect_bytes", self.interconnect_bytes);
        w.field("frontend_bytes", self.frontend_bytes);
        w.field("nodes", self.nodes);
        save_tag_map(&self.cpu_busy_by_tag, w);
        save_resources(&self.resources, w);
    }

    pub(crate) fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(PhaseReport {
            name: intern(r.field("phase")?),
            elapsed: Duration::from_nanos(r.num("elapsed_ns")?),
            cpu_busy_total: Duration::from_nanos(r.num("cpu_busy_ns")?),
            disk_busy_total: Duration::from_nanos(r.num("disk_busy_ns")?),
            interconnect_bytes: r.num("interconnect_bytes")?,
            frontend_bytes: r.num("frontend_bytes")?,
            nodes: r.num("nodes")?,
            cpu_busy_by_tag: load_tag_map(r)?,
            resources: load_resources(r)?,
        })
    }
}

/// Writes per-tag CPU time as `tags n`, then one `tag <ns> <name>` line
/// per tag in key order.
pub(crate) fn save_tag_map(map: &BTreeMap<&'static str, Duration>, w: &mut StateWriter) {
    w.field("tags", map.len());
    for (tag, d) in map {
        w.named("tag", d.as_nanos(), tag);
    }
}

pub(crate) fn load_tag_map(
    r: &mut StateReader<'_>,
) -> Result<BTreeMap<&'static str, Duration>, StateError> {
    let tags = r.counted("tags", |r| {
        let (ns, tag) = r.named("tag")?;
        Ok((intern(tag), Duration::from_nanos(ns)))
    })?;
    Ok(tags.into_iter().collect())
}

/// Writes per-resource usage as `resources n`, then one
/// `res <resource> <busy_ns> <wait_ns> <lanes>` line per resource.
pub(crate) fn save_resources(resources: &[ResourceUsage], w: &mut StateWriter) {
    w.field("resources", resources.len());
    for u in resources {
        w.str_field(
            "res",
            &format!(
                "{} {} {} {}",
                u.resource.key(),
                u.busy.as_nanos(),
                u.wait.as_nanos(),
                u.lanes
            ),
        );
    }
}

pub(crate) fn load_resources(r: &mut StateReader<'_>) -> Result<Vec<ResourceUsage>, StateError> {
    r.counted("resources", |r| {
        let raw = r.field("res")?;
        let bad = || {
            StateError::new(format!(
                "res: expected `<resource> <busy> <wait> <lanes>`, got {raw:?}"
            ))
        };
        let mut parts = raw.split(' ');
        let (Some(key), Some(busy), Some(wait), Some(lanes), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(bad());
        };
        Ok(ResourceUsage {
            resource: Resource::from_key(key).ok_or_else(bad)?,
            busy: Duration::from_nanos(busy.parse().map_err(|_| bad())?),
            wait: Duration::from_nanos(wait.parse().map_err(|_| bad())?),
            lanes: lanes.parse().map_err(|_| bad())?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_phase() -> PhaseReport {
        let mut tags = BTreeMap::new();
        tags.insert("sort", Duration::from_secs(10));
        tags.insert("merge", Duration::from_secs(5));
        PhaseReport {
            name: "p1",
            elapsed: Duration::from_secs(10),
            cpu_busy_by_tag: tags,
            cpu_busy_total: Duration::from_secs(15),
            disk_busy_total: Duration::from_secs(12),
            interconnect_bytes: 1_000,
            frontend_bytes: 10,
            nodes: 2,
            resources: vec![ResourceUsage {
                resource: Resource::DiskMedia,
                busy: Duration::from_secs(12),
                wait: Duration::ZERO,
                lanes: 2,
            }],
        }
    }

    #[test]
    fn idle_is_capacity_minus_busy() {
        let p = sample_phase();
        // 2 nodes × 10 s = 20 s capacity, 15 s busy → 5 s idle.
        assert_eq!(p.cpu_idle(), Duration::from_secs(5));
        assert!((p.idle_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fractions_sum_to_one_with_idle() {
        let p = sample_phase();
        let total = p.cpu_fraction("sort") + p.cpu_fraction("merge") + p.idle_fraction();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(p.cpu_fraction("absent"), 0.0);
    }

    fn sample_report() -> Report {
        Report {
            task: "sort",
            architecture: "Active",
            disks: 2,
            phases: vec![sample_phase(), sample_phase()],
            disk_service: Histogram::new(),
            events: 0,
            faults_injected: 0,
            recovery_time: Duration::ZERO,
            work_redistributed: 0,
            aborted: false,
            downtime: Duration::ZERO,
        }
    }

    #[test]
    fn report_sums_phases() {
        let r = sample_report();
        assert_eq!(r.elapsed(), Duration::from_secs(20));
        assert_eq!(r.interconnect_bytes(), 2_000);
        assert_eq!(r.frontend_bytes(), 20);
        assert!(r.phase("p1").is_some());
        assert!(r.phase("nope").is_none());
        assert!(format!("{r}").contains("sort on Active"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_phase() {
        let r = sample_report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("task,arch,disks,phase"));
        assert!(lines[1].starts_with("sort,Active,2,p1,"));
    }
}
