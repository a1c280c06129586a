//! Causal profiling: critical-path analysis and Chrome-trace export over
//! the span arena recorded by a profiled run.
//!
//! The executor (see [`crate::Simulation::run_profiled`]) emits one
//! [`Span`] per unit of attributable work — a batch read, a CPU burst, a
//! wire transfer — each linked to the span whose completion caused it.
//! Because the event loop schedules every child at its parent's
//! completion time, walking the parent chain backward from the span that
//! ends a phase tiles the phase's elapsed time exactly: the per-resource
//! critical-path decomposition sums to the run's elapsed time in integer
//! nanoseconds, with any uncovered interval attributed to the synthetic
//! `"unattributed"` resource rather than silently dropped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simcore::span::{Span, SpanArena, SpanId, FRONT_END_NODE};
use simcore::{Duration, SimTime};
use tasks::TaskKind;

/// Synthetic critical-path resource for intervals no span covers (e.g. a
/// node idling for a straggler inside a phase when spans were dropped).
pub const UNATTRIBUTED: &str = "unattributed";

/// One phase's window and the span that determined its end.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpans {
    /// Phase name (paper spelling).
    pub name: &'static str,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (its barrier completed, or the abort clock).
    pub end: SimTime,
    /// The last span to finish in the phase — the barrier span on healthy
    /// phases — from which the critical path walks backward.
    pub anchor: SpanId,
}

/// The spans of one profiled run, grouped by phase.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    /// All recorded spans ([`SpanId`] indexes into the arena).
    pub arena: SpanArena,
    /// Per-phase windows and critical-path anchors, in execution order.
    pub phases: Vec<PhaseSpans>,
}

/// Time one resource contributed to the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Resource key (`"disk_media"`, `"barrier"`, [`UNATTRIBUTED`]...).
    pub resource: &'static str,
    /// Critical-path time attributed to the resource.
    pub time: Duration,
}

/// Per-resource decomposition of a run's elapsed time along the longest
/// dependency chain. `segments` always sums to `total` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The run's total elapsed simulated time.
    pub total: Duration,
    /// Per-resource critical-path time, longest first (ties broken by
    /// resource name for determinism).
    pub segments: Vec<PathSegment>,
}

impl SpanTrace {
    /// Walks the longest dependency chain of every phase and returns the
    /// per-resource critical-path decomposition.
    ///
    /// Within a phase the walk starts at the anchor span and follows
    /// parents backward, maintaining a time cursor that starts at the
    /// phase end. Each span claims the interval from its start to the
    /// cursor (clamped so overlapping ancestors never double-count);
    /// gaps between a child's start and its parent's end — which only
    /// appear when spans were dropped by a full arena — are charged to
    /// [`UNATTRIBUTED`]. The invariant that makes the total exact: every
    /// nanosecond of `[phase.start, phase.end]` is claimed exactly once.
    pub fn critical_path(&self) -> CriticalPath {
        critical_path_over(&self.arena, &self.phases)
    }

    /// The `k` longest spans, by duration descending (ties broken by
    /// record order, which is deterministic across queue backends).
    pub fn top_spans(&self, k: usize) -> Vec<(SpanId, &Span)> {
        let spans = self.arena.spans();
        let mut ix: Vec<usize> = (0..spans.len()).collect();
        ix.sort_by(|&a, &b| {
            spans[b]
                .duration()
                .cmp(&spans[a].duration())
                .then(a.cmp(&b))
        });
        ix.truncate(k);
        ix.into_iter()
            .map(|i| (SpanId::from_index(i), &spans[i]))
            .collect()
    }

    /// Serializes the arena as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load).
    ///
    /// Every span becomes a matched `B`/`E` pair; a span's `pid` is its
    /// query lane (0 for single-query runs), `tid` 0 is the front-end,
    /// worker node `n` is `tid` `n + 1`. Timestamps are microseconds
    /// with nanosecond precision (three decimals), emitted in
    /// nondecreasing order with `E` events sorted before `B` events at
    /// the same instant so stacks nest correctly. The bytes are a pure
    /// function of the arena, hence identical across queue backends,
    /// worker counts, and cache states.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }
}

/// Walks each phase's longest dependency chain — the shared body of
/// [`SpanTrace::critical_path`] and [`LoadSpanTrace::critical_path`].
fn critical_path_over(arena: &SpanArena, phases: &[PhaseSpans]) -> CriticalPath {
    let mut by_resource: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut total = Duration::ZERO;
    for phase in phases {
        total += phase.end.since(phase.start);
        let mut cursor = phase.end;
        let mut id = phase.anchor;
        while let Some(span) = arena.get(id) {
            if span.end < cursor {
                *by_resource.entry(UNATTRIBUTED).or_default() += cursor.since(span.end);
                cursor = span.end;
            }
            let claim_from = span.start.min(cursor);
            *by_resource.entry(span.resource.name()).or_default() += cursor.since(claim_from);
            cursor = claim_from;
            id = span.parent;
        }
        if cursor > phase.start {
            *by_resource.entry(UNATTRIBUTED).or_default() += cursor.since(phase.start);
        }
    }
    let mut segments: Vec<PathSegment> = by_resource
        .into_iter()
        .map(|(resource, time)| PathSegment { resource, time })
        .collect();
    // BTreeMap iteration is already name-sorted; a stable sort by
    // descending time keeps the name order as the tie-break.
    segments.sort_by_key(|s| std::cmp::Reverse(s.time));
    segments.retain(|s| !s.time.is_zero());
    CriticalPath { total, segments }
}

/// Chrome trace-event serialization shared by [`SpanTrace`] and
/// [`LoadSpanTrace`]: each span's `pid` is its query lane, so Perfetto
/// renders concurrent queries as separate processes.
fn chrome_trace_of(arena: &SpanArena) -> String {
    let spans = arena.spans();
    // (ts_ns, is_begin, span index): E sorts before B at equal ts;
    // among Es later spans close first (LIFO nesting), among Bs
    // earlier spans open first.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (ix, s) in spans.iter().enumerate() {
        events.push((s.start.as_nanos(), true, ix));
        events.push((s.end.as_nanos(), false, ix));
    }
    events.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.cmp(&b.1)) // false (E) < true (B)
            .then_with(|| if a.1 { a.2.cmp(&b.2) } else { b.2.cmp(&a.2) })
    });
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\": [\n");
    for (ix, &(ts, is_begin, span_ix)) in events.iter().enumerate() {
        let s = &spans[span_ix];
        let tid = trace_tid(s.node);
        if is_begin {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"B\", \
                 \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"span\": {}, \"parent\": {}, \"bytes\": {}}}}}",
                s.kind.name(),
                s.resource,
                ts / 1_000,
                ts % 1_000,
                s.query,
                tid,
                span_ix,
                s.parent
                    .index()
                    .map_or(-1i64, |p| i64::try_from(p).expect("span index fits i64")),
                s.bytes,
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"E\", \
                 \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}}}",
                s.kind.name(),
                s.resource,
                ts / 1_000,
                ts % 1_000,
                s.query,
                tid,
            );
        }
        out.push_str(if ix + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// One query's phase windows within a loaded run's shared span arena.
#[derive(Debug, Clone)]
pub struct QuerySpans {
    /// The query lane (index in arrival order).
    pub query: u32,
    /// The DSS task the query ran.
    pub task: TaskKind,
    /// Phase windows of the query's final attempt, in execution order.
    pub phases: Vec<PhaseSpans>,
}

/// The spans of one profiled multi-query run: a single shared arena
/// (every span stamped with its query lane) plus each query's phase
/// windows, so the critical path of any individual query can be walked
/// even though the queries interleaved on one machine.
#[derive(Debug, Clone, Default)]
pub struct LoadSpanTrace {
    /// All recorded spans across every query, in record order.
    pub arena: SpanArena,
    /// Per-query phase windows, indexed by query id.
    pub queries: Vec<QuerySpans>,
}

impl LoadSpanTrace {
    /// The critical-path decomposition of one query's final attempt.
    /// Sums exactly to the attempt's elapsed time — the same invariant
    /// as the single-query walker, per lane.
    pub fn critical_path(&self, query: u32) -> Option<CriticalPath> {
        self.queries
            .iter()
            .find(|q| q.query == query)
            .map(|q| critical_path_over(&self.arena, &q.phases))
    }

    /// Spans dropped from this query's lane by arena overflow.
    pub fn dropped_for(&self, query: u32) -> u64 {
        self.arena.dropped_for(query)
    }

    /// Chrome trace-event JSON with one `pid` per query, so Perfetto
    /// shows each concurrent query as its own process track.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }
}

/// Chrome-trace thread id for a span's node (front-end is thread 0,
/// worker `n` is thread `n + 1`).
fn trace_tid(node: u32) -> u64 {
    if node == FRONT_END_NODE {
        0
    } else {
        u64::from(node) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::span::SpanKind;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A two-phase trace: phase 0 is a read→cpu chain with a barrier,
    /// phase 1 a single cpu span ending at the phase end.
    fn sample() -> SpanTrace {
        let mut arena = SpanArena::with_capacity(16);
        let read = arena.record(
            SpanId::NONE,
            "disk_media",
            SpanKind::DiskRead,
            0,
            t(0),
            t(60),
            100,
        );
        let cpu = arena.record(read, "worker_cpu", SpanKind::Cpu, 0, t(60), t(90), 100);
        let barrier = arena.record(
            cpu,
            "barrier",
            SpanKind::Barrier,
            FRONT_END_NODE,
            t(90),
            t(100),
            0,
        );
        let cpu2 = arena.record(
            SpanId::NONE,
            "worker_cpu",
            SpanKind::Cpu,
            1,
            t(100),
            t(140),
            7,
        );
        SpanTrace {
            arena,
            phases: vec![
                PhaseSpans {
                    name: "scan",
                    start: t(0),
                    end: t(100),
                    anchor: barrier,
                },
                PhaseSpans {
                    name: "merge",
                    start: t(100),
                    end: t(140),
                    anchor: cpu2,
                },
            ],
        }
    }

    #[test]
    fn critical_path_total_equals_elapsed_and_decomposes() {
        let trace = sample();
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::from_nanos(140));
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, cp.total, "segments tile the elapsed time exactly");
        let get = |r: &str| {
            cp.segments
                .iter()
                .find(|s| s.resource == r)
                .map(|s| s.time.as_nanos())
        };
        assert_eq!(get("disk_media"), Some(60));
        assert_eq!(get("worker_cpu"), Some(70)); // 30 in scan + 40 in merge
        assert_eq!(get("barrier"), Some(10));
        assert_eq!(get(UNATTRIBUTED), None, "healthy chains leave no gap");
    }

    #[test]
    fn gaps_from_broken_chains_are_surfaced_not_lost() {
        let mut arena = SpanArena::with_capacity(4);
        // A lone span covering [40, 70] of a [0, 100] phase: the walker
        // must charge 30ns (tail) + 40ns (head) to UNATTRIBUTED.
        let lone = arena.record(
            SpanId::NONE,
            "worker_cpu",
            SpanKind::Cpu,
            0,
            t(40),
            t(70),
            0,
        );
        let trace = SpanTrace {
            arena,
            phases: vec![PhaseSpans {
                name: "scan",
                start: t(0),
                end: t(100),
                anchor: lone,
            }],
        };
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::from_nanos(100));
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, cp.total);
        assert!(cp
            .segments
            .iter()
            .any(|s| s.resource == UNATTRIBUTED && s.time == Duration::from_nanos(70)));
    }

    #[test]
    fn overlapping_ancestors_never_double_count() {
        let mut arena = SpanArena::with_capacity(4);
        // Parent [0, 80] overlaps child [50, 100]: the child claims
        // [50, 100], the parent only the uncovered [0, 50].
        let parent = arena.record(
            SpanId::NONE,
            "disk_media",
            SpanKind::DiskRead,
            0,
            t(0),
            t(80),
            0,
        );
        let child = arena.record(parent, "worker_cpu", SpanKind::Cpu, 0, t(50), t(100), 0);
        let trace = SpanTrace {
            arena,
            phases: vec![PhaseSpans {
                name: "scan",
                start: t(0),
                end: t(100),
                anchor: child,
            }],
        };
        let cp = trace.critical_path();
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, Duration::from_nanos(100));
        // Both claim exactly 50ns; the tie breaks by resource name.
        assert_eq!(cp.segments[0].resource, "disk_media");
        assert_eq!(cp.segments[0].time, Duration::from_nanos(50));
        assert_eq!(cp.segments[1].resource, "worker_cpu");
        assert_eq!(cp.segments[1].time, Duration::from_nanos(50));
    }

    #[test]
    fn top_spans_orders_by_duration_then_record_order() {
        let trace = sample();
        let top = trace.top_spans(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1.duration(), Duration::from_nanos(60)); // disk read
        assert_eq!(top[1].1.duration(), Duration::from_nanos(40)); // merge cpu
        assert!(trace.top_spans(0).is_empty());
        assert_eq!(trace.top_spans(99).len(), trace.arena.len());
    }

    #[test]
    fn chrome_export_is_sorted_with_matched_pairs() {
        let trace = sample();
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
        let begins = json.matches("\"ph\": \"B\"").count();
        let ends = json.matches("\"ph\": \"E\"").count();
        assert_eq!(begins, trace.arena.len());
        assert_eq!(ends, begins, "every B has a matching E");
        // ts values appear in nondecreasing order.
        let ts: Vec<f64> = json
            .lines()
            .filter_map(|l| {
                let rest = l.split("\"ts\": ").nth(1)?;
                rest.split(',').next()?.parse().ok()
            })
            .collect();
        assert_eq!(ts.len(), begins + ends);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted by ts");
        // Front-end barrier span runs on tid 0.
        assert!(json.contains("\"name\": \"barrier\""));
        assert!(json.contains("\"tid\": 0"));
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let trace = SpanTrace::default();
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::ZERO);
        assert!(cp.segments.is_empty());
        assert!(trace.top_spans(5).is_empty());
        let json = trace.chrome_trace_json();
        assert!(json.contains("\"traceEvents\": [\n]"));
    }
}
