//! Event tracing: a per-event record of a simulation run.
//!
//! The original Howsim consumed traces; this reproduction *produces* them
//! too, so that runs can be inspected, diffed, and post-processed (e.g.
//! building time-series of loop occupancy or per-node progress). Tracing
//! is off by default — it costs memory, not accuracy — and is bounded so
//! a 128-disk join cannot exhaust memory; the bound is surfaced (never a
//! silent cap) via [`Trace::truncated`] and [`Trace::dropped`].

use std::fmt;

use simcore::SimTime;

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A batch finished reading from disk.
    ReadDone,
    /// A node's CPU finished processing a scanned batch.
    BatchProcessed,
    /// A repartitioned batch arrived at a peer.
    PeerArrive,
    /// A peer finished receive-side work.
    RecvProcessed,
    /// Data arrived at the front-end.
    FeArrive,
    /// A local write reached media.
    WriteDone,
}

impl TraceKind {
    /// All kinds, for summary iteration.
    pub const ALL: [TraceKind; 6] = [
        TraceKind::ReadDone,
        TraceKind::BatchProcessed,
        TraceKind::PeerArrive,
        TraceKind::RecvProcessed,
        TraceKind::FeArrive,
        TraceKind::WriteDone,
    ];

    /// Stable name, used in CSV/JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::ReadDone => "ReadDone",
            TraceKind::BatchProcessed => "BatchProcessed",
            TraceKind::PeerArrive => "PeerArrive",
            TraceKind::RecvProcessed => "RecvProcessed",
            TraceKind::FeArrive => "FeArrive",
            TraceKind::WriteDone => "WriteDone",
        }
    }
}

/// The participant of a traced event: a worker node or the front-end.
///
/// Replaces the old `usize::MAX` front-end sentinel with a real type, so
/// nothing downstream can mistake the front-end for node 2^64-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// Worker node by index.
    Node(usize),
    /// The front-end host.
    FrontEnd,
}

impl NodeId {
    /// The worker index, or `None` for the front-end.
    pub fn index(self) -> Option<usize> {
        match self {
            NodeId::Node(i) => Some(i),
            NodeId::FrontEnd => None,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Node(i) => write!(f, "{i}"),
            NodeId::FrontEnd => write!(f, "fe"),
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub time: SimTime,
    /// Phase index within the task.
    pub phase: usize,
    /// Node involved (or the front-end).
    pub node: NodeId,
    /// Event kind.
    pub kind: TraceKind,
    /// Bytes involved.
    pub bytes: u64,
}

/// Aggregate statistics of a trace: totals, retention, and per-kind
/// counts (all counts include events dropped past the capacity bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events observed, including dropped ones.
    pub total: u64,
    /// Events retained in the buffer.
    pub retained: usize,
    /// Events counted but not retained.
    pub dropped: u64,
    /// True when the capacity bound dropped at least one event.
    pub truncated: bool,
    /// Per-kind totals, indexed like [`TraceKind::ALL`].
    pub counts: [u64; 6],
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events ({} retained, {} dropped{})",
            self.total,
            self.retained,
            self.dropped,
            if self.truncated { ", TRUNCATED" } else { "" }
        )
    }
}

/// A bounded event trace with total counts.
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::{Simulation, Trace, TraceKind};
/// use tasks::{plan_task, TaskKind};
///
/// let sim = Simulation::new(Architecture::active_disks(4));
/// let plan = plan_task(TaskKind::Aggregate, sim.architecture());
/// let mut trace = Trace::new();
/// let (report, _) = sim.run_plan_observed(&plan, Some(&mut trace), None, false);
/// assert!(trace.count(TraceKind::ReadDone) > 0);
/// assert!(!trace.truncated());
/// assert!(report.elapsed().as_secs_f64() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    dropped: u64,
    counts: [u64; 6],
    capacity: usize,
}

impl Trace {
    /// Default event capacity (enough for a 16-disk task end to end).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a trace with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a trace retaining at most `capacity` events (counts keep
    /// accumulating past the cap; the event list stops growing).
    fn with_capacity(capacity: usize) -> Self {
        Trace {
            // Traced runs almost always fill the buffer, so allocate it up
            // front (capped so a huge requested capacity doesn't reserve
            // gigabytes before the first event).
            events: Vec::with_capacity(capacity.min(Self::DEFAULT_CAPACITY)),
            dropped: 0,
            counts: [0; 6],
            capacity,
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.counts[ev.kind as usize] += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in the order they fired.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events counted but not retained (capacity overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when the capacity bound dropped at least one event — the
    /// retained buffer is then a prefix of the run, not the whole run.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Total events of `kind`, including dropped ones.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events observed, including dropped ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Aggregate statistics (totals, retention, truncation, per-kind
    /// counts).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            total: self.total(),
            retained: self.events.len(),
            dropped: self.dropped,
            truncated: self.truncated(),
            counts: self.counts,
        }
    }

    /// Serializes the retained events as CSV
    /// (`time_ns,phase,node,kind,bytes` with a header row; the front-end
    /// appears as node `fe`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ns,phase,node,kind,bytes\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.time.as_nanos(),
                e.phase,
                e.node,
                e.kind.name(),
                e.bytes
            ));
        }
        out
    }

    /// Serializes as JSON Lines: a summary object first, then one object
    /// per retained event. The summary line carries the truncation state,
    /// so consumers of a bounded trace know they got a prefix.
    pub fn to_jsonl(&self) -> String {
        let s = self.summary();
        let mut out = String::with_capacity(64 + 96 * self.events.len());
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"total\":{},\"retained\":{},\"dropped\":{},\"truncated\":{}",
            s.total, s.retained, s.dropped, s.truncated
        ));
        out.push_str(",\"counts\":{");
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", kind.name(), s.counts[i]));
        }
        out.push_str("}}\n");
        for e in &self.events {
            let node = match e.node {
                NodeId::Node(i) => i.to_string(),
                NodeId::FrontEnd => "\"fe\"".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"event\",\"time_ns\":{},\"phase\":{},\"node\":{},\"kind\":\"{}\",\"bytes\":{}}}\n",
                e.time.as_nanos(),
                e.phase,
                node,
                e.kind.name(),
                e.bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            phase: 0,
            node: NodeId::Node(1),
            kind,
            bytes: 64,
        }
    }

    #[test]
    fn records_and_counts() {
        let mut tr = Trace::new();
        tr.record(ev(1, TraceKind::ReadDone));
        tr.record(ev(2, TraceKind::ReadDone));
        tr.record(ev(3, TraceKind::FeArrive));
        assert_eq!(tr.count(TraceKind::ReadDone), 2);
        assert_eq!(tr.count(TraceKind::FeArrive), 1);
        assert_eq!(tr.count(TraceKind::WriteDone), 0);
        assert_eq!(tr.total(), 3);
        assert_eq!(tr.events().len(), 3);
        assert_eq!(tr.dropped(), 0);
        assert!(!tr.truncated());
    }

    #[test]
    fn capacity_bounds_retention_not_counts() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(ev(i, TraceKind::PeerArrive));
        }
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.dropped(), 3);
        assert!(tr.truncated());
        assert_eq!(tr.count(TraceKind::PeerArrive), 5);
        let s = tr.summary();
        assert_eq!(s.total, 5);
        assert_eq!(s.retained, 2);
        assert_eq!(s.dropped, 3);
        assert!(s.truncated);
        assert_eq!(s.counts[TraceKind::PeerArrive as usize], 5);
        assert!(format!("{s}").contains("TRUNCATED"));
    }

    #[test]
    fn node_id_distinguishes_front_end() {
        assert_eq!(NodeId::Node(7).index(), Some(7));
        assert_eq!(NodeId::FrontEnd.index(), None);
        assert_eq!(format!("{}", NodeId::Node(7)), "7");
        assert_eq!(format!("{}", NodeId::FrontEnd), "fe");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.record(ev(42, TraceKind::WriteDone));
        tr.record(TraceEvent {
            node: NodeId::FrontEnd,
            ..ev(43, TraceKind::FeArrive)
        });
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,phase,node,kind,bytes");
        assert!(lines[1].starts_with("42,0,1,WriteDone,64"));
        assert!(lines[2].starts_with("43,0,fe,FeArrive,64"));
    }

    #[test]
    fn jsonl_has_summary_line_then_events() {
        let mut tr = Trace::with_capacity(1);
        tr.record(ev(5, TraceKind::ReadDone));
        tr.record(TraceEvent {
            node: NodeId::FrontEnd,
            ..ev(6, TraceKind::FeArrive)
        });
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2, "summary + one retained event");
        assert!(lines[0].contains("\"type\":\"summary\""));
        assert!(lines[0].contains("\"truncated\":true"));
        assert!(lines[0].contains("\"ReadDone\":1"));
        assert!(lines[0].contains("\"FeArrive\":1"));
        assert!(lines[1].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"node\":1"));
        assert!(lines[1].contains("\"kind\":\"ReadDone\""));
    }
}
