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
use std::io;

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
        // A total order (no two indices tie), so selecting the first k
        // and sorting only those matches a full sort truncated to k.
        let longest_first = |&a: &usize, &b: &usize| {
            spans[b]
                .duration()
                .cmp(&spans[a].duration())
                .then(a.cmp(&b))
        };
        let mut ix: Vec<usize> = (0..spans.len()).collect();
        if k < ix.len() {
            ix.select_nth_unstable_by(k, longest_first);
            ix.truncate(k);
        }
        ix.sort_unstable_by(longest_first);
        ix.into_iter()
            .map(|i| (SpanId::from_index(i), &spans[i]))
            .collect()
    }

    /// Serializes the arena as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load).
    ///
    /// Every span becomes a `B`/`E` pair; a span's `pid` is its query
    /// lane (0 for single-query runs), `tid` 0 is the front-end, worker
    /// node `n` is `tid` `n + 1`. Timestamps are microseconds with
    /// nanosecond precision (three decimals), emitted in nondecreasing
    /// order; at one instant `E` events come before `B` events, `E`s
    /// latest span first and `B`s earliest span first. The bytes are a
    /// pure function of the arena, hence identical across queue
    /// backends, worker counts, and cache states.
    ///
    /// Known limitation: the events do not nest per `tid`. A node's
    /// overlapping reads, CPU bursts and transfers share its `tid`, so
    /// an `E` can close another span's `B` there, and a zero-duration
    /// span's `E` precedes its own `B`. Viewers that pair `B`/`E` by
    /// stack can draw such spans with the wrong extent; `args.span`
    /// names the span each `B` opens.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }

    /// Streams [`SpanTrace::chrome_trace_json`]'s bytes to `w` without
    /// holding the whole document in memory, then flushes `w`.
    pub fn write_chrome_trace(&self, mut w: impl io::Write) -> io::Result<()> {
        write_chrome_trace_of(&self.arena, &mut w)
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
/// [`LoadSpanTrace`], collected into one string. Each span's `pid` is
/// its query lane, so Perfetto renders concurrent queries as separate
/// processes.
fn chrome_trace_of(arena: &SpanArena) -> String {
    // Events average about 125 bytes on the 64-disk join; capacity that
    // is reserved but never written costs no memory.
    let mut out = Vec::with_capacity(arena.len() * 2 * 144 + 64);
    write_chrome_trace_of(arena, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the export is ASCII around UTF-8 names")
}

/// Bytes the export stages before handing them to its writer.
const CHUNK: usize = 1 << 16;

/// The export's one code path: sorts the `B`/`E` events and emits their
/// bytes by hand (no `core::fmt` per event) into a staging buffer that
/// is handed to `w` every [`CHUNK`] bytes. `w` is a trait object so that
/// this loop is compiled, with its helpers inlined, in this crate
/// whichever crate supplies the writer.
fn write_chrome_trace_of(arena: &SpanArena, w: &mut dyn io::Write) -> io::Result<()> {
    let spans = arena.spans();
    let keys = sorted_event_keys(spans);
    let mut out = Vec::with_capacity(CHUNK + 1024);
    out.extend_from_slice(b"{\"traceEvents\": [\n");
    for (n, &key) in keys.iter().enumerate() {
        let (begin, ix) = event_of(key);
        let s = &spans[ix];
        out.extend_from_slice(b"{\"name\": \"");
        out.extend_from_slice(s.kind.name().as_bytes());
        out.extend_from_slice(b"\", \"cat\": \"");
        out.extend_from_slice(s.resource.name().as_bytes());
        let ts = if begin {
            out.extend_from_slice(b"\", \"ph\": \"B\", \"ts\": ");
            s.start.as_nanos()
        } else {
            out.extend_from_slice(b"\", \"ph\": \"E\", \"ts\": ");
            s.end.as_nanos()
        };
        push_decimal(&mut out, ts / 1_000);
        push_sub_micros(&mut out, ts % 1_000);
        out.extend_from_slice(b", \"pid\": ");
        push_decimal(&mut out, u64::from(s.query));
        out.extend_from_slice(b", \"tid\": ");
        push_decimal(&mut out, trace_tid(s.node));
        if begin {
            out.extend_from_slice(b", \"args\": {\"span\": ");
            push_decimal(&mut out, ix as u64);
            out.extend_from_slice(b", \"parent\": ");
            match s.parent.index() {
                Some(p) => push_decimal(&mut out, p as u64),
                None => out.extend_from_slice(b"-1"),
            }
            out.extend_from_slice(b", \"bytes\": ");
            push_decimal(&mut out, s.bytes);
            out.extend_from_slice(b"}}");
        } else {
            out.push(b'}');
        }
        out.extend_from_slice(if n + 1 < keys.len() { b",\n" } else { b"\n" });
        if out.len() >= CHUNK {
            w.write_all(&out)?;
            out.clear();
        }
    }
    out.extend_from_slice(b"], \"displayTimeUnit\": \"ms\"}\n");
    w.write_all(&out)?;
    w.flush()
}

/// One sort key per `B`/`E` event, sorted into export order: timestamp,
/// then `E` before `B`, then span index — ascending among `B`s,
/// descending among `E`s (stored inverted), so equal-time `E`s close the
/// latest span first. Layout: `ts << 33 | is_begin << 32 | index`.
///
/// The keys are first dealt by timestamp into about one bucket per eight
/// events (a counting pass and a placing pass over the spans), so
/// `sort_unstable` only orders each small bucket: on the 64-disk joins
/// that takes about 40% less time than one sort of all the keys.
fn sorted_event_keys(spans: &[Span]) -> Vec<u128> {
    let n = u32::try_from(spans.len()).expect("span indices fit u32");
    let (lo, hi) = spans
        .iter()
        .flat_map(|s| [s.start.as_nanos(), s.end.as_nanos()])
        .fold((u64::MAX, 0), |(lo, hi), ts| (lo.min(ts), hi.max(ts)));
    // At least two buckets, so that the shift below stays under 64.
    let bucket_bits = (spans.len() / 4).max(2).ilog2();
    let shift = (u64::BITS - hi.saturating_sub(lo).leading_zeros()).saturating_sub(bucket_bits);
    let bucket = |ts: SimTime| ((ts.as_nanos() - lo) >> shift) as usize;
    // `next[b]` starts as bucket b's first slot and ends as its last + 1.
    let mut next = vec![0; (1 << bucket_bits) + 1];
    for s in spans {
        next[bucket(s.start) + 1] += 1;
        next[bucket(s.end) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut keys = vec![0; spans.len() * 2];
    let mut place = |ts: SimTime, key: u128| {
        let slot = &mut next[bucket(ts)];
        keys[*slot] = key;
        *slot += 1;
    };
    for (ix, s) in (0..n).zip(spans) {
        place(
            s.start,
            u128::from(s.start.as_nanos()) << 33 | 1 << 32 | u128::from(ix),
        );
        place(s.end, u128::from(s.end.as_nanos()) << 33 | u128::from(!ix));
    }
    let mut from = 0;
    for &to in &next[..next.len() - 1] {
        keys[from..to].sort_unstable();
        from = to;
    }
    keys
}

/// Splits an event key into (is it a `B`, span index).
fn event_of(key: u128) -> (bool, usize) {
    let begin = key & 1 << 32 != 0;
    let low = key as u32; // the index field, by design of the layout
    (begin, if begin { low } else { !low } as usize)
}

/// `"00"`, `"01"`, ..., `"99"`: two ASCII digits per entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `n` in decimal, two digits per division.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `.nnn`, the `ns < 1000` nanoseconds below a microsecond stamp.
fn push_sub_micros(out: &mut Vec<u8>, ns: u64) {
    debug_assert!(ns < 1_000);
    let pair = (ns % 100) as usize * 2;
    out.extend_from_slice(&[
        b'.',
        b'0' + (ns / 100) as u8,
        DIGIT_PAIRS[pair],
        DIGIT_PAIRS[pair + 1],
    ]);
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
    /// shows each concurrent query as its own process track (the format
    /// and its limits are [`SpanTrace::chrome_trace_json`]'s).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }

    /// Streams [`LoadSpanTrace::chrome_trace_json`]'s bytes to `w`,
    /// then flushes `w`.
    pub fn write_chrome_trace(&self, mut w: impl io::Write) -> io::Result<()> {
        write_chrome_trace_of(&self.arena, &mut w)
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
    use proptest::prelude::*;
    use simcore::span::SpanKind;
    use std::fmt::Write as _;

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

    /// The exporter as it was written with `write!`: the reference the
    /// byte emitter must match exactly.
    fn chrome_trace_oracle(arena: &SpanArena) -> String {
        let spans = arena.spans();
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
        let mut out = String::new();
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

    /// Both entry points of the export, checked to agree.
    fn exported(arena: &SpanArena) -> String {
        let trace = SpanTrace {
            arena: arena.clone(),
            phases: Vec::new(),
        };
        let json = trace.chrome_trace_json();
        let mut streamed = Vec::new();
        trace
            .write_chrome_trace(&mut streamed)
            .expect("a Vec accepts every write");
        assert_eq!(json.as_bytes(), streamed, "streamed bytes differ");
        json
    }

    #[test]
    fn chrome_export_bytes_are_pinned() {
        let mut arena = SpanArena::with_capacity(8);
        // Starts below 1 µs; a root, so its parent is -1.
        let read = arena.record(
            SpanId::NONE,
            "disk_media",
            SpanKind::DiskRead,
            0,
            t(7),
            t(1_000),
            4096,
        );
        // Two Bs at the read's E: the E comes first, then the Bs by
        // ascending index; both end together, so their Es come by
        // descending index.
        let cpu = arena.record(
            read,
            "worker_cpu",
            SpanKind::Cpu,
            0,
            t(1_000),
            t(2_000),
            4096,
        );
        arena.record(
            read,
            "net_link",
            SpanKind::Transfer,
            1,
            t(1_000),
            t(2_000),
            512,
        );
        // Zero-duration front-end span: its E precedes its own B.
        arena.record(
            cpu,
            "barrier",
            SpanKind::Barrier,
            FRONT_END_NODE,
            t(2_000),
            t(2_000),
            0,
        );
        // Query lane 3 becomes pid 3.
        arena.set_query(3);
        arena.record(
            SpanId::NONE,
            "worker_cpu",
            SpanKind::Cpu,
            2,
            t(1_500),
            t(123_456_789),
            1_234_567_890_123,
        );
        let expected = concat!(
            "{\"traceEvents\": [\n",
            "{\"name\": \"disk-read\", \"cat\": \"disk_media\", \"ph\": \"B\", \"ts\": 0.007, \"pid\": 0, \"tid\": 1, \"args\": {\"span\": 0, \"parent\": -1, \"bytes\": 4096}},\n",
            "{\"name\": \"disk-read\", \"cat\": \"disk_media\", \"ph\": \"E\", \"ts\": 1.000, \"pid\": 0, \"tid\": 1},\n",
            "{\"name\": \"cpu\", \"cat\": \"worker_cpu\", \"ph\": \"B\", \"ts\": 1.000, \"pid\": 0, \"tid\": 1, \"args\": {\"span\": 1, \"parent\": 0, \"bytes\": 4096}},\n",
            "{\"name\": \"transfer\", \"cat\": \"net_link\", \"ph\": \"B\", \"ts\": 1.000, \"pid\": 0, \"tid\": 2, \"args\": {\"span\": 2, \"parent\": 0, \"bytes\": 512}},\n",
            "{\"name\": \"cpu\", \"cat\": \"worker_cpu\", \"ph\": \"B\", \"ts\": 1.500, \"pid\": 3, \"tid\": 3, \"args\": {\"span\": 4, \"parent\": -1, \"bytes\": 1234567890123}},\n",
            "{\"name\": \"barrier\", \"cat\": \"barrier\", \"ph\": \"E\", \"ts\": 2.000, \"pid\": 0, \"tid\": 0},\n",
            "{\"name\": \"transfer\", \"cat\": \"net_link\", \"ph\": \"E\", \"ts\": 2.000, \"pid\": 0, \"tid\": 2},\n",
            "{\"name\": \"cpu\", \"cat\": \"worker_cpu\", \"ph\": \"E\", \"ts\": 2.000, \"pid\": 0, \"tid\": 1},\n",
            "{\"name\": \"barrier\", \"cat\": \"barrier\", \"ph\": \"B\", \"ts\": 2.000, \"pid\": 0, \"tid\": 0, \"args\": {\"span\": 3, \"parent\": 1, \"bytes\": 0}},\n",
            "{\"name\": \"cpu\", \"cat\": \"worker_cpu\", \"ph\": \"E\", \"ts\": 123456.789, \"pid\": 3, \"tid\": 3}\n",
            "], \"displayTimeUnit\": \"ms\"}\n",
        );
        assert_eq!(exported(&arena), expected);
        assert_eq!(chrome_trace_oracle(&arena), expected);
        let load = LoadSpanTrace {
            arena,
            queries: Vec::new(),
        };
        assert_eq!(load.chrome_trace_json(), expected);
        let mut streamed = Vec::new();
        load.write_chrome_trace(&mut streamed)
            .expect("a Vec accepts every write");
        assert_eq!(streamed, expected.as_bytes());
    }

    /// Four raw random words: one span's worth of [`arena_from`] input.
    type SpanWords = ((u64, u64), (u64, u64));

    /// An arena drawn from raw random words, rich in the export's edge
    /// cases: stamps below 1 µs, on whole µs, near `u64::MAX` and tied
    /// with earlier stamps; zero-duration spans; front-end spans; several
    /// query lanes; root spans; and byte counts near `u64::MAX`.
    fn arena_from(words: &[SpanWords]) -> SpanArena {
        const KINDS: [(&str, SpanKind); 4] = [
            ("disk_media", SpanKind::DiskRead),
            ("worker_cpu", SpanKind::Cpu),
            ("interconnect", SpanKind::Transfer),
            ("barrier", SpanKind::Barrier),
        ];
        let mut arena = SpanArena::with_capacity(words.len());
        let mut stamps = vec![0u64];
        for (i, &((a, b), (c, d))) in words.iter().enumerate() {
            let earlier = |w: u64| stamps[(w % stamps.len() as u64) as usize];
            let start = match a % 5 {
                0 => (a >> 8) % 1_000,
                1 => (a >> 8) % 1_000_000 * 1_000,
                2 => u64::MAX - (a >> 8) % 4_000,
                3 => earlier(a >> 8),
                _ => a >> 8,
            };
            let end = match b % 4 {
                0 => start,
                1 => start.saturating_add((b >> 8) % 3_000),
                2 => earlier(b >> 8).max(start),
                _ => start.saturating_add(b >> 8),
            };
            stamps.extend([start, end]);
            let node = if c % 5 == 0 {
                FRONT_END_NODE
            } else {
                (c >> 8) as u32 % 70
            };
            let (resource, kind) = KINDS[(c >> 16) as usize % KINDS.len()];
            arena.set_query((c >> 32) as u32 % 4);
            let parent = match d % 3 {
                0 => SpanId::NONE,
                _ => SpanId::from_index((d >> 8) as usize % i.max(1)),
            };
            let bytes = match d % 4 {
                0 => 0,
                1 => u64::MAX - (d >> 8) % 10,
                _ => d >> 2,
            };
            arena.record(parent, resource, kind, node, t(start), t(end), bytes);
        }
        arena
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The byte emitter reproduces the `write!` exporter exactly.
        #[test]
        fn chrome_export_matches_the_write_oracle(
            words in proptest::collection::vec(
                ((0u64..u64::MAX, 0u64..u64::MAX), (0u64..u64::MAX, 0u64..u64::MAX)),
                0..200,
            ),
        ) {
            let arena = arena_from(&words);
            prop_assert_eq!(exported(&arena), chrome_trace_oracle(&arena));
        }

        /// Selecting the top k matches a full sort truncated to k.
        #[test]
        fn top_spans_matches_a_full_sort(
            words in proptest::collection::vec(
                ((0u64..u64::MAX, 0u64..u64::MAX), (0u64..u64::MAX, 0u64..u64::MAX)),
                0..200,
            ),
        ) {
            let trace = SpanTrace {
                arena: arena_from(&words),
                phases: Vec::new(),
            };
            let spans = trace.arena.spans();
            let mut all: Vec<usize> = (0..spans.len()).collect();
            all.sort_by(|&a, &b| {
                spans[b]
                    .duration()
                    .cmp(&spans[a].duration())
                    .then(a.cmp(&b))
            });
            let n = spans.len();
            for k in [0, 1, 10, n, n + 5] {
                let top: Vec<usize> = trace
                    .top_spans(k)
                    .iter()
                    .map(|(id, _)| id.index().expect("a recorded span"))
                    .collect();
                prop_assert_eq!(&top[..], &all[..k.min(n)], "k = {}", k);
            }
        }
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
