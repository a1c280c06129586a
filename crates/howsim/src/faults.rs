//! Deterministic fault injection and recovery policies.
//!
//! A [`FaultPlan`] schedules fault events against *simulated* time: disk
//! fail-stops, transient media slowdowns (grown-defect bursts remapped
//! through `diskmodel::defects`), and interconnect faults (FC-AL loop
//! drops, cluster link degradation). The plan is pure data; `exec.rs`
//! delivers the events through the simulation event loop so they
//! interleave exactly with phase execution, and the chosen
//! [`RecoveryPolicy`] decides what happens to the failed node's remaining
//! work.
//!
//! Determinism is the design constraint: a simulation configured with the
//! same seed and the same fault plan produces byte-identical reports at
//! any worker count. The plan therefore carries absolute simulated-time
//! offsets (not wall-clock anything), and all randomized choices (defect
//! placement) draw from the simulation's seeded generator.
//!
//! # Spec syntax
//!
//! The CLI and experiment drivers build plans from compact specs:
//!
//! ```text
//! disk:<node>@<time>            fail-stop of node <node>'s disk
//! slow:<node>@<time>:<defects>  grown-defect burst (<defects> sectors)
//! link:<node>@<time>:<factor>   interconnect fault touching <node>
//! ```
//!
//! `<time>` accepts `2.5s`, `750ms`, or a plain number of seconds.
//!
//! # Example
//!
//! ```
//! use howsim::faults::{FaultPlan, RecoveryPolicy};
//! let plan = FaultPlan::parse_spec("disk:3@2.5s").unwrap();
//! assert_eq!(plan.events().len(), 1);
//! assert_eq!(RecoveryPolicy::parse("redistribute"),
//!            Some(RecoveryPolicy::Redistribute));
//! ```

use simcore::Duration;

use crate::workload::duration_from_secs;

/// How long the system takes to *notice* a fail-stopped node: outstanding
/// requests to it time out after this interval and recovery begins.
pub const DETECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Penalty paid by an in-flight transfer addressed to a failed node
/// before it is retried against a survivor.
pub const RETRY_TIMEOUT: Duration = Duration::from_millis(250);

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node's disk fail-stops: it serves nothing from the fault time
    /// on, and its unfinished partition is handled per [`RecoveryPolicy`].
    DiskFailStop {
        /// Node whose disk fails.
        node: usize,
    },
    /// A transient media slowdown: a burst of grown defects is remapped
    /// to the spare region, so subsequent reads over the affected band
    /// pay extra seeks.
    MediaBurst {
        /// Node whose disk suffers the burst.
        node: usize,
        /// Number of defective sectors grown.
        defects: usize,
    },
    /// An interconnect fault near the node: an FC-AL loop drop (Active
    /// Disks, SMP I/O) or a degraded host link (cluster).
    LinkFault {
        /// Node whose interconnect attachment degrades.
        node: usize,
        /// Remaining bandwidth fraction in `(0, 1]` for degradable links.
        severity: f64,
    },
}

/// A fault scheduled at an absolute simulated-time offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, measured from simulation start.
    pub at: Duration,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events.
///
/// Plans are plain data: building one never touches a simulation. Events
/// are kept in chronological order (stable for equal times, preserving
/// insertion order) so delivery order is reproducible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: the healthy baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a disk fail-stop on `node` at offset `at`.
    #[must_use]
    pub fn disk_fail_stop(mut self, node: usize, at: Duration) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::DiskFailStop { node },
        });
        self
    }

    /// Schedules a grown-defect burst of `defects` sectors on `node`.
    #[must_use]
    pub fn media_burst(mut self, node: usize, at: Duration, defects: usize) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::MediaBurst { node, defects },
        });
        self
    }

    /// Schedules an interconnect fault touching `node`. `severity` is the
    /// remaining bandwidth fraction for degradable links.
    ///
    /// # Panics
    ///
    /// Panics unless `severity` is in `(0, 1]`.
    #[must_use]
    pub fn link_fault(mut self, node: usize, at: Duration, severity: f64) -> Self {
        assert!(
            severity > 0.0 && severity <= 1.0,
            "link fault severity must be in (0, 1], got {severity}"
        );
        self.push(FaultEvent {
            at,
            kind: FaultKind::LinkFault { node, severity },
        });
        self
    }

    fn push(&mut self, ev: FaultEvent) {
        // Insertion sort keeps events chronological while preserving
        // insertion order among equal times (delivery must be stable).
        let pos = self.events.partition_point(|e| e.at <= ev.at);
        self.events.insert(pos, ev);
    }

    /// The scheduled events in delivery order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan schedules nothing (healthy run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses a single fault spec (see module docs for syntax) into a
    /// one-event plan.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        Self::new().with_spec(spec)
    }

    /// Parses a fault spec and appends it to this plan.
    pub fn with_spec(self, spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec '{spec}' missing ':' (want kind:node@time)"))?;
        let (node_str, tail) = rest
            .split_once('@')
            .ok_or_else(|| format!("fault spec '{spec}' missing '@' (want kind:node@time)"))?;
        let node: usize = node_str
            .parse()
            .map_err(|_| format!("fault spec '{spec}': bad node '{node_str}'"))?;
        match kind {
            "disk" => {
                let at = parse_time(tail)
                    .ok_or_else(|| format!("fault spec '{spec}': bad time '{tail}'"))?;
                Ok(self.disk_fail_stop(node, at))
            }
            "slow" => {
                let (time_str, defects_str) = tail.split_once(':').ok_or_else(|| {
                    format!("fault spec '{spec}' missing defect count (want slow:node@time:count)")
                })?;
                let at = parse_time(time_str)
                    .ok_or_else(|| format!("fault spec '{spec}': bad time '{time_str}'"))?;
                let defects: usize = defects_str.parse().map_err(|_| {
                    format!("fault spec '{spec}': bad defect count '{defects_str}'")
                })?;
                Ok(self.media_burst(node, at, defects))
            }
            "link" => {
                let (time_str, sev_str) = tail.split_once(':').ok_or_else(|| {
                    format!("fault spec '{spec}' missing severity (want link:node@time:factor)")
                })?;
                let at = parse_time(time_str)
                    .ok_or_else(|| format!("fault spec '{spec}': bad time '{time_str}'"))?;
                let severity: f64 = sev_str
                    .parse()
                    .map_err(|_| format!("fault spec '{spec}': bad severity '{sev_str}'"))?;
                if !(severity > 0.0 && severity <= 1.0) {
                    return Err(format!(
                        "fault spec '{spec}': severity must be in (0, 1], got {severity}"
                    ));
                }
                Ok(self.link_fault(node, at, severity))
            }
            other => Err(format!(
                "fault spec '{spec}': unknown kind '{other}' (want disk, slow, or link)"
            )),
        }
    }

    /// A compact human-readable summary for manifests and `explain`.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|ev| match ev.kind {
                FaultKind::DiskFailStop { node } => {
                    format!("disk:{node}@{:.3}s", ev.at.as_secs_f64())
                }
                FaultKind::MediaBurst { node, defects } => {
                    format!("slow:{node}@{:.3}s:{defects}", ev.at.as_secs_f64())
                }
                FaultKind::LinkFault { node, severity } => {
                    format!("link:{node}@{:.3}s:{severity}", ev.at.as_secs_f64())
                }
            })
            .collect();
        parts.join(",")
    }
}

/// Parses `2.5s`, `750ms`, or a plain seconds number; `None` also when
/// the time does not fit the simulated clock.
fn parse_time(s: &str) -> Option<Duration> {
    let (num, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(secs) = s.strip_suffix('s') {
        (secs, 1.0)
    } else {
        (s, 1.0)
    };
    let value: f64 = num.parse().ok()?;
    duration_from_secs(value * scale)
}

/// What the system does about a fail-stopped node's unfinished work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort the run at failure detection and emit a partial report
    /// (availability experiments model "abort and rerun" from it).
    FailStop,
    /// Re-assign the failed node's remaining partition across survivors;
    /// each reassigned batch is read from a survivor's replica and shipped
    /// to the consuming node over the real interconnect.
    #[default]
    Redistribute,
    /// RAID-5-style reconstruction: every surviving disk reads its share
    /// of the stripe for each lost batch (read amplification on all
    /// survivors) before the batch is delivered.
    ReconstructRead,
}

impl RecoveryPolicy {
    /// Parses a CLI policy name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "failstop" => Some(Self::FailStop),
            "redistribute" => Some(Self::Redistribute),
            "reconstruct" => Some(Self::ReconstructRead),
            _ => None,
        }
    }

    /// The CLI-facing policy name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FailStop => "failstop",
            Self::Redistribute => "redistribute",
            Self::ReconstructRead => "reconstruct",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_healthy() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.summary(), "none");
    }

    #[test]
    fn events_sort_chronologically_and_stably() {
        let plan = FaultPlan::new()
            .disk_fail_stop(5, Duration::from_secs(3))
            .media_burst(1, Duration::from_secs(1), 64)
            .link_fault(2, Duration::from_secs(3), 0.5);
        let at: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(at, vec![1_000_000_000, 3_000_000_000, 3_000_000_000]);
        // Equal times preserve insertion order: disk before link.
        assert!(matches!(
            plan.events()[1].kind,
            FaultKind::DiskFailStop { node: 5 }
        ));
        assert!(matches!(
            plan.events()[2].kind,
            FaultKind::LinkFault { node: 2, .. }
        ));
    }

    #[test]
    fn spec_parses_all_kinds() {
        let plan = FaultPlan::parse_spec("disk:3@2.5s").unwrap();
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: Duration::from_millis(2_500),
                kind: FaultKind::DiskFailStop { node: 3 },
            }
        );
        let plan = FaultPlan::parse_spec("slow:0@750ms:128").unwrap();
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: Duration::from_millis(750),
                kind: FaultKind::MediaBurst {
                    node: 0,
                    defects: 128
                },
            }
        );
        let plan = FaultPlan::parse_spec("link:7@4:0.25").unwrap();
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: Duration::from_secs(4),
                kind: FaultKind::LinkFault {
                    node: 7,
                    severity: 0.25
                },
            }
        );
    }

    #[test]
    fn spec_round_trips_through_summary() {
        let plan = FaultPlan::parse_spec("disk:3@2.5s").unwrap();
        let reparsed = FaultPlan::parse_spec(&plan.summary()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "disk3@2.5s",
            "disk:3",
            "disk:x@1s",
            "disk:3@fast",
            "slow:3@1s",
            "slow:3@1s:many",
            "link:3@1s",
            "link:3@1s:0",
            "link:3@1s:1.5",
            "nuke:3@1s",
        ] {
            let err = FaultPlan::parse_spec(bad).unwrap_err();
            assert!(err.contains(bad), "error for '{bad}' lacks context: {err}");
        }
    }

    #[test]
    fn negative_time_is_rejected() {
        assert!(FaultPlan::parse_spec("disk:3@-1s").is_err());
    }

    #[test]
    fn time_past_the_clock_is_rejected() {
        // Saturated, 1e300 s would read as u64::MAX ns (`18446744073.710s`).
        assert!(FaultPlan::parse_spec("disk:1@1e300").is_err());
        assert!(FaultPlan::parse_spec("slow:1@18446744073710ms:4").is_err());
        assert!(FaultPlan::parse_spec("disk:1@18446744073s").is_ok());
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            RecoveryPolicy::FailStop,
            RecoveryPolicy::Redistribute,
            RecoveryPolicy::ReconstructRead,
        ] {
            assert_eq!(RecoveryPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(RecoveryPolicy::parse("raid6"), None);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Redistribute);
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn builder_rejects_zero_severity() {
        let _ = FaultPlan::new().link_fault(0, Duration::ZERO, 0.0);
    }
}
