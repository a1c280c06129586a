//! Resource-level observability: per-resource utilization and bottleneck
//! attribution.
//!
//! The paper's analysis method is utilization accounting: a configuration
//! is bound by whichever resource — disk media, embedded/host CPUs, the
//! interconnect, or the front-end — runs out of headroom first. This
//! module makes that reasoning a first-class artifact. Two tiers:
//!
//! * **Always on.** Every [`crate::PhaseReport`] carries the per-phase
//!   busy-time delta of each [`Resource`] (a handful of counter reads per
//!   phase, no event-loop cost). [`Attribution`] reduces those deltas to
//!   a per-resource peak/overall utilization table and names the
//!   bottleneck.
//! * **Opt in.** A [`MetricsBuilder`] threaded through the executor
//!   samples busy-fraction time-series and event-queue depth on a
//!   simulated-time interval, yielding [`RunMetrics`]. Costs one branch
//!   per event when enabled, one `Option` check when not.

use std::sync::OnceLock;

use simcore::span::SpanResource;
use simcore::{Duration, GaugeSeries, SimTime, UtilizationSampler};

use crate::report::Report;

/// A contended resource class of a simulated machine.
///
/// Not every architecture has every resource: the SMP has a memory fabric
/// and no front-end link; Active Disk and cluster machines have the
/// reverse. [`crate::machine::Machine::resource_usage`] reports only the
/// resources its fabric actually owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// Disk media: heads, seeks, rotation — the drives themselves.
    DiskMedia,
    /// The per-node processors (embedded disk CPUs on Active Disks,
    /// host CPUs elsewhere).
    WorkerCpu,
    /// The front-end processor.
    FrontEndCpu,
    /// The peer interconnect (FC loop/switch lanes, worker NICs, or the
    /// SMP FC I/O loop).
    Interconnect,
    /// The front-end's attachment (its FC port or NIC pair).
    FrontEndLink,
    /// The SMP inter-board memory fabric (block-transfer engines).
    MemoryFabric,
    /// Fault-recovery work: surviving disks and interconnect time spent
    /// re-reading and re-shipping a failed node's partition.
    Recovery,
}

impl Resource {
    /// All resource classes, in stable report order.
    pub const ALL: [Resource; 7] = [
        Resource::DiskMedia,
        Resource::WorkerCpu,
        Resource::FrontEndCpu,
        Resource::Interconnect,
        Resource::FrontEndLink,
        Resource::MemoryFabric,
        Resource::Recovery,
    ];

    /// Stable machine-readable key used in manifests and JSON output.
    pub fn key(self) -> &'static str {
        match self {
            Resource::DiskMedia => "disk_media",
            Resource::WorkerCpu => "worker_cpu",
            Resource::FrontEndCpu => "front_end_cpu",
            Resource::Interconnect => "interconnect",
            Resource::FrontEndLink => "front_end_link",
            Resource::MemoryFabric => "memory_fabric",
            Resource::Recovery => "recovery",
        }
    }

    /// [`Resource::key`] as a span-arena handle, interned once per
    /// process.
    pub(crate) fn span_resource(self) -> SpanResource {
        static HANDLES: OnceLock<[SpanResource; 7]> = OnceLock::new();
        // `ALL` lists the variants in declaration order, so the
        // discriminant indexes it.
        HANDLES.get_or_init(|| Resource::ALL.map(|r| SpanResource::intern(r.key())))[self as usize]
    }

    /// The inverse of [`Resource::key`]; `None` for unknown keys.
    pub fn from_key(key: &str) -> Option<Resource> {
        Resource::ALL.into_iter().find(|r| r.key() == key)
    }

    /// Human-readable label; worker CPUs are "disk CPU" on the Active
    /// Disk architecture and "host CPU" elsewhere.
    pub fn label(self, architecture: &str) -> &'static str {
        match self {
            Resource::DiskMedia => "disk media",
            Resource::WorkerCpu => {
                if architecture == "Active" {
                    "disk CPU"
                } else {
                    "host CPU"
                }
            }
            Resource::FrontEndCpu => "front-end CPU",
            Resource::Interconnect => "interconnect",
            Resource::FrontEndLink => "front-end link",
            Resource::MemoryFabric => "memory fabric",
            Resource::Recovery => "recovery",
        }
    }
}

/// Busy time of one resource over some window, with the lane count that
/// normalizes it into a utilization.
///
/// In a [`crate::PhaseReport`] the busy time is the *delta* accumulated
/// during that phase; from
/// [`crate::machine::Machine::resource_usage`] it is cumulative since
/// machine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Which resource.
    pub resource: Resource,
    /// Busy time summed across the resource's lanes.
    pub busy: Duration,
    /// Time requests spent queued at the resource before service began
    /// (enqueue→dequeue), summed across lanes. Together with `busy` this
    /// decomposes per-request latency: latency = wait + service.
    pub wait: Duration,
    /// Parallel lanes (drives, CPUs, loops, NIC directions...).
    pub lanes: u32,
}

impl ResourceUsage {
    /// Busy fraction over `elapsed`: `busy / (elapsed × lanes)`, clamped
    /// to 1 (FIFO servers book service past the sample instant).
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (elapsed.as_secs_f64() * f64::from(self.lanes))).min(1.0)
    }
}

/// One resource's utilization summary across a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceAttribution {
    /// Which resource.
    pub resource: Resource,
    /// Lane count.
    pub lanes: u32,
    /// Whole-run busy time.
    pub busy: Duration,
    /// Whole-run queueing time (see [`ResourceUsage::wait`]).
    pub wait: Duration,
    /// Time-weighted busy fraction over the whole run.
    pub overall_utilization: f64,
    /// Highest single-phase busy fraction.
    pub peak_utilization: f64,
    /// The phase where the peak occurred.
    pub peak_phase: &'static str,
}

/// Per-resource utilization rollup with bottleneck attribution.
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::{Attribution, Simulation};
/// use tasks::TaskKind;
///
/// let report = Simulation::new(Architecture::smp(16)).run(TaskKind::Select);
/// let attr = Attribution::from_report(&report);
/// let b = attr.bottleneck().expect("phases ran");
/// assert!(b.peak_utilization > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Per-resource summaries, in the machine's stable resource order.
    pub resources: Vec<ResourceAttribution>,
}

impl Attribution {
    /// Rolls up the per-phase resource deltas of `report`.
    pub fn from_report(report: &Report) -> Self {
        let total_elapsed = report.elapsed();
        let Some(first) = report.phases.first() else {
            return Attribution {
                resources: Vec::new(),
            };
        };
        let resources = first
            .resources
            .iter()
            .enumerate()
            .map(|(ix, u0)| {
                let mut busy = Duration::ZERO;
                let mut wait = Duration::ZERO;
                let mut peak = 0.0f64;
                let mut peak_phase = first.name;
                for phase in &report.phases {
                    let u = phase.resources[ix];
                    debug_assert_eq!(u.resource, u0.resource);
                    busy += u.busy;
                    wait += u.wait;
                    let util = u.utilization(phase.elapsed);
                    if util > peak {
                        peak = util;
                        peak_phase = phase.name;
                    }
                }
                let overall = ResourceUsage {
                    resource: u0.resource,
                    busy,
                    wait,
                    lanes: u0.lanes,
                }
                .utilization(total_elapsed);
                ResourceAttribution {
                    resource: u0.resource,
                    lanes: u0.lanes,
                    busy,
                    wait,
                    overall_utilization: overall,
                    peak_utilization: peak,
                    peak_phase,
                }
            })
            .collect();
        Attribution { resources }
    }

    /// The resource with the highest peak-phase utilization — the one
    /// that saturates first. `None` only for an empty report.
    pub fn bottleneck(&self) -> Option<&ResourceAttribution> {
        self.resources.iter().max_by(|a, b| {
            a.peak_utilization
                .partial_cmp(&b.peak_utilization)
                .expect("utilizations are finite")
                // Deterministic tie-break on the stable resource order.
                .then(b.resource.cmp(&a.resource))
        })
    }

    /// Looks up one resource's summary.
    pub fn get(&self, resource: Resource) -> Option<&ResourceAttribution> {
        self.resources.iter().find(|r| r.resource == resource)
    }
}

/// Sampled time-series collected during an instrumented run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Simulated-time spacing between samples.
    pub sample_interval: Duration,
    /// Per-resource busy-fraction series `(resource, lanes, series)`.
    pub utilization: Vec<(Resource, u32, GaugeSeries)>,
    /// Event-queue depth at each sample instant.
    pub queue_depth: GaugeSeries,
    /// Total simulator events processed by the run.
    pub events: u64,
}

/// Accumulates [`RunMetrics`] as the executor hands it sample points.
///
/// The executor checks [`MetricsBuilder::due`] on every popped event (one
/// comparison) and calls [`MetricsBuilder::sample`] only when the
/// sampling interval has elapsed in simulated time, so the cost of
/// collection is independent of the event rate.
#[derive(Debug)]
pub struct MetricsBuilder {
    interval: Duration,
    next_due: SimTime,
    samplers: Vec<(Resource, UtilizationSampler)>,
    queue_depth: GaugeSeries,
}

impl Default for MetricsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsBuilder {
    /// Default sampling interval in simulated time.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

    /// A builder with the default interval and series capacity.
    pub fn new() -> Self {
        Self::with_interval(Self::DEFAULT_INTERVAL)
    }

    /// A builder sampling every `interval` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(interval: Duration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        MetricsBuilder {
            interval,
            next_due: SimTime::ZERO + interval,
            samplers: Vec::new(),
            queue_depth: GaugeSeries::new(GaugeSeries::DEFAULT_CAPACITY),
        }
    }

    /// True when the next sample instant has been reached.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Records one sample point: the machine's cumulative resource usage
    /// (differenced internally into busy fractions) and the event-queue
    /// depth.
    pub fn sample(&mut self, now: SimTime, usage: &[ResourceUsage], queue_len: usize) {
        if self.samplers.is_empty() {
            self.samplers = usage
                .iter()
                .map(|u| {
                    (
                        u.resource,
                        UtilizationSampler::new(u.lanes, GaugeSeries::DEFAULT_CAPACITY),
                    )
                })
                .collect();
        }
        for ((resource, sampler), u) in self.samplers.iter_mut().zip(usage) {
            debug_assert_eq!(*resource, u.resource, "resource order must be stable");
            sampler.sample(now, u.busy);
        }
        self.queue_depth.record(now, queue_len as f64);
        self.next_due = now + self.interval;
    }

    /// Finalizes into [`RunMetrics`]; `events` is the run's total
    /// processed-event count (see [`crate::Report::events`]).
    pub fn finish(self, events: u64) -> RunMetrics {
        RunMetrics {
            sample_interval: self.interval,
            utilization: self
                .samplers
                .into_iter()
                .map(|(r, s)| (r, s.lanes(), s.series().clone()))
                .collect(),
            queue_depth: self.queue_depth,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseReport;
    use simcore::Histogram;
    use std::collections::BTreeMap;

    #[test]
    fn span_handles_name_their_keys() {
        for r in Resource::ALL {
            assert_eq!(r.span_resource().name(), r.key());
        }
    }

    fn phase(name: &'static str, secs: u64, busy: &[(Resource, u64, u32)]) -> PhaseReport {
        PhaseReport {
            name,
            elapsed: Duration::from_secs(secs),
            cpu_busy_by_tag: BTreeMap::new(),
            cpu_busy_total: Duration::ZERO,
            disk_busy_total: Duration::ZERO,
            interconnect_bytes: 0,
            frontend_bytes: 0,
            nodes: 1,
            resources: busy
                .iter()
                .map(|&(resource, s, lanes)| ResourceUsage {
                    resource,
                    busy: Duration::from_secs(s),
                    wait: Duration::ZERO,
                    lanes,
                })
                .collect(),
        }
    }

    fn report(phases: Vec<PhaseReport>) -> Report {
        Report {
            task: "t",
            architecture: "Active",
            disks: 1,
            phases,
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
    fn utilization_normalizes_by_lanes_and_clamps() {
        let u = ResourceUsage {
            resource: Resource::Interconnect,
            busy: Duration::from_secs(10),
            wait: Duration::ZERO,
            lanes: 2,
        };
        assert!((u.utilization(Duration::from_secs(10)) - 0.5).abs() < 1e-12);
        assert_eq!(u.utilization(Duration::from_secs(1)), 1.0, "clamped");
        assert_eq!(u.utilization(Duration::ZERO), 0.0);
    }

    #[test]
    fn attribution_finds_peak_phase_and_bottleneck() {
        let r = report(vec![
            phase(
                "scan",
                10,
                &[(Resource::DiskMedia, 9, 1), (Resource::Interconnect, 2, 1)],
            ),
            phase(
                "shuffle",
                10,
                &[(Resource::DiskMedia, 3, 1), (Resource::Interconnect, 10, 1)],
            ),
        ]);
        let attr = Attribution::from_report(&r);
        let disk = attr.get(Resource::DiskMedia).unwrap();
        assert!((disk.peak_utilization - 0.9).abs() < 1e-12);
        assert_eq!(disk.peak_phase, "scan");
        assert!((disk.overall_utilization - 0.6).abs() < 1e-12);
        let b = attr.bottleneck().unwrap();
        assert_eq!(b.resource, Resource::Interconnect);
        assert_eq!(b.peak_phase, "shuffle");
        assert!((b.peak_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_no_bottleneck() {
        let attr = Attribution::from_report(&report(Vec::new()));
        assert!(attr.bottleneck().is_none());
        assert!(attr.resources.is_empty());
    }

    #[test]
    fn builder_samples_on_interval() {
        let mut mb = MetricsBuilder::with_interval(Duration::from_millis(10));
        assert!(!mb.due(SimTime::from_nanos(1)));
        let t1 = SimTime::ZERO + Duration::from_millis(10);
        assert!(mb.due(t1));
        let usage = [ResourceUsage {
            resource: Resource::DiskMedia,
            busy: Duration::from_millis(5),
            wait: Duration::ZERO,
            lanes: 1,
        }];
        mb.sample(t1, &usage, 7);
        assert!(!mb.due(t1), "next sample a full interval later");
        let t2 = t1 + Duration::from_millis(10);
        mb.sample(
            t2,
            &[ResourceUsage {
                resource: Resource::DiskMedia,
                busy: Duration::from_millis(15),
                wait: Duration::ZERO,
                lanes: 1,
            }],
            3,
        );
        let m = mb.finish(42);
        assert_eq!(m.events, 42);
        assert_eq!(m.queue_depth.samples(), &[(t1, 7.0), (t2, 3.0)]);
        let (resource, lanes, series) = &m.utilization[0];
        assert_eq!(*resource, Resource::DiskMedia);
        assert_eq!(*lanes, 1);
        // First window: 5 ms busy / 10 ms = 0.5; second: 10/10 = 1.0.
        assert!((series.samples()[0].1 - 0.5).abs() < 1e-12);
        assert!((series.samples()[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn keys_and_labels_are_stable() {
        assert_eq!(Resource::Interconnect.key(), "interconnect");
        assert_eq!(Resource::WorkerCpu.label("Active"), "disk CPU");
        assert_eq!(Resource::WorkerCpu.label("Cluster"), "host CPU");
        assert_eq!(Resource::Recovery.key(), "recovery");
        assert_eq!(Resource::ALL.len(), 7);
    }

    #[test]
    fn from_key_inverts_key() {
        for r in Resource::ALL {
            assert_eq!(Resource::from_key(r.key()), Some(r));
        }
        assert_eq!(Resource::from_key("floppy"), None);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        MetricsBuilder::with_interval(Duration::ZERO);
    }
}
