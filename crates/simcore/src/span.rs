//! Causal simulated-time spans.
//!
//! A [`Span`] records one unit of attributable simulated work — a batch
//! read, a CPU burst, a wire transfer — as a `[start, end]` interval on a
//! named resource, linked to the span that caused it. The executor emits
//! spans at batch granularity; because every child event in the
//! discrete-event loop is scheduled at its parent's completion time, the
//! parent chain of the last span to finish telescopes exactly into the
//! run's elapsed time, which is what makes critical-path analysis exact
//! in integer nanoseconds.
//!
//! Spans accumulate in a [`SpanArena`]: bounded (overflow increments a
//! surfaced drop counter, never panics or reallocates) and zero-cost when
//! disabled (no backing allocation, one branch per record call).
//!
//! Enabled, recording is dominated by memory traffic rather than
//! bookkeeping: every span is written once into fresh arena memory, so
//! the first touch of each page (a fault plus zeroing) costs about twice
//! the write itself, and both scale with the span's size. Resource names
//! are therefore interned to one byte ([`SpanResource`]), which keeps a
//! [`Span`] at 40 bytes instead of the 56 a `&'static str` field needs.

use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::time::SimTime;

/// Sentinel node index identifying the front-end host (worker nodes use
/// their ordinal).
pub const FRONT_END_NODE: u32 = u32::MAX;

/// Handle to a recorded span: its index in the arena, or a sentinel for
/// "no span" (tracing disabled, arena full, or a root with no parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The "no span" sentinel: roots use it as their parent, and every
    /// record call returns it when tracing is off or the arena is full.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this handle refers to a recorded span.
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }

    /// The id of the span at arena index `ix` (record order is id
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `ix` does not fit the id space (arenas are capped far
    /// below it).
    pub fn from_index(ix: usize) -> SpanId {
        let raw = u32::try_from(ix).expect("span index fits u32");
        assert_ne!(raw, u32::MAX, "index collides with the NONE sentinel");
        SpanId(raw)
    }

    /// The arena index, if this is a real span.
    pub fn index(self) -> Option<usize> {
        if self.is_some() {
            Some(self.0 as usize)
        } else {
            None
        }
    }
}

/// Most distinct resource names one process can intern.
const MAX_RESOURCES: usize = 256;

/// Interned resource names, indexed by [`SpanResource`]. Each slot is
/// written once, under [`INTERNED`]; reads take no lock.
static NAMES: [OnceLock<&'static str>; MAX_RESOURCES] = [const { OnceLock::new() }; MAX_RESOURCES];

/// How many slots of [`NAMES`] are assigned; the lock serializes interning.
static INTERNED: Mutex<usize> = Mutex::new(0);

/// A resource name (`"disk_media"`, `"worker_cpu"`, ...) interned to one
/// byte. The same name always yields the same handle within a process;
/// handles are never persisted, only their names.
///
/// ```
/// use simcore::span::SpanResource;
///
/// let disk = SpanResource::intern("disk_media");
/// assert_eq!(disk, SpanResource::from("disk_media"));
/// assert_eq!(disk.name(), "disk_media");
/// assert_eq!(disk.to_string(), "disk_media");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SpanResource(u8);

impl SpanResource {
    /// Interns `name`. Takes a lock and scans the names interned so far,
    /// so hot paths intern once and keep the handle.
    ///
    /// # Panics
    ///
    /// Panics past 256 distinct names.
    pub fn intern(name: &'static str) -> SpanResource {
        // The only panic under the lock (the capacity assert) comes before
        // any update, so a poisoned table is still consistent.
        let mut assigned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        let known = NAMES[..*assigned]
            .iter()
            .position(|slot| slot.get() == Some(&name));
        let ix = known.unwrap_or_else(|| {
            assert!(
                *assigned < MAX_RESOURCES,
                "more than {MAX_RESOURCES} distinct span resources"
            );
            NAMES[*assigned].set(name).expect("unassigned name slot");
            *assigned += 1;
            *assigned - 1
        });
        SpanResource(u8::try_from(ix).expect("index below MAX_RESOURCES"))
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        NAMES[usize::from(self.0)]
            .get()
            .expect("handles come from intern")
    }
}

impl From<&'static str> for SpanResource {
    fn from(name: &'static str) -> Self {
        SpanResource::intern(name)
    }
}

impl fmt::Debug for SpanResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name(), f)
    }
}

impl fmt::Display for SpanResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A batch read from disk media into node memory.
    DiskRead,
    /// A batch write from node memory onto disk media.
    DiskWrite,
    /// A CPU burst (scan, receive-side processing, messaging toll).
    Cpu,
    /// A wire transfer between peers or to the front-end.
    Transfer,
    /// Front-end CPU work absorbing delivered results.
    FrontEnd,
    /// A synthetic span covering a phase's global barrier.
    Barrier,
    /// A synthetic span covering out-of-band disk positioning at the end
    /// of a phase (e.g. merge run switches).
    Positioning,
}

impl SpanKind {
    /// Stable lowercase name (trace-export event names).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DiskRead => "disk-read",
            SpanKind::DiskWrite => "disk-write",
            SpanKind::Cpu => "cpu",
            SpanKind::Transfer => "transfer",
            SpanKind::FrontEnd => "front-end",
            SpanKind::Barrier => "barrier",
            SpanKind::Positioning => "positioning",
        }
    }
}

/// One recorded span. `start` is when the work was causally initiated
/// (its parent's completion time), `end` when it finished; the interval
/// includes any queueing at the resource, so chained spans tile time with
/// no gaps. The wait/service split within the interval comes from the
/// resource models' wait accounting, not from the span itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The span whose completion caused this one ([`SpanId::NONE`] for
    /// phase roots).
    pub parent: SpanId,
    /// The resource the work ran on (an interned key, e.g.
    /// `"disk_media"`).
    pub resource: SpanResource,
    /// The kind of work.
    pub kind: SpanKind,
    /// Worker node ordinal, or [`FRONT_END_NODE`].
    pub node: u32,
    /// When the work was initiated.
    pub start: SimTime,
    /// When the work completed (`>= start`; equality is a zero-duration
    /// span, which is legal).
    pub end: SimTime,
    /// Payload bytes the span moved or processed (0 for synthetic spans).
    pub bytes: u64,
    /// Query lane the span belongs to (0 for single-query runs; the
    /// multi-query executor stamps each span with its query's id so
    /// concurrent queries stay distinguishable in trace exports).
    pub query: u32,
}

impl Span {
    /// The span's length (zero for instantaneous spans).
    pub fn duration(&self) -> crate::time::Duration {
        self.end.since(self.start)
    }
}

/// Default arena capacity: 2 Mi spans (80 MiB reserved when enabled, paged
/// in only as spans are written), enough for the largest figure
/// configurations in this repository with headroom.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 21;

/// A bounded arena of spans.
///
/// Disabled (the default for plain runs), the arena owns no allocation
/// and every record call is a single branch. Enabled, the full backing
/// store is allocated up front, so recording never reallocates; once
/// capacity is reached further spans are counted in [`SpanArena::dropped`]
/// and otherwise discarded — never a panic.
///
/// # Example
///
/// ```
/// use simcore::span::{SpanArena, SpanId, SpanKind};
/// use simcore::SimTime;
///
/// let mut arena = SpanArena::enabled();
/// let root = arena.record(
///     SpanId::NONE, "disk_media", SpanKind::DiskRead, 0,
///     SimTime::ZERO, SimTime::from_nanos(100), 4096,
/// );
/// let child = arena.record(
///     root, "worker_cpu", SpanKind::Cpu, 0,
///     SimTime::from_nanos(100), SimTime::from_nanos(150), 4096,
/// );
/// assert!(child.is_some());
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanArena {
    spans: Vec<Span>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
    /// Current query lane, stamped on every recorded span.
    query: u32,
    /// Overflow drops per query lane, sorted by lane (touched only on the
    /// cold drop path, so the hot record path stays allocation-free).
    dropped_by_query: Vec<(u32, u64)>,
}

impl SpanArena {
    /// A disabled arena: no backing allocation, record calls are no-ops.
    pub fn disabled() -> Self {
        SpanArena::default()
    }

    /// An enabled arena with the default capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled arena bounded at `capacity` spans (allocated up front).
    pub fn with_capacity(capacity: usize) -> Self {
        SpanArena {
            spans: Vec::with_capacity(capacity),
            capacity,
            enabled: true,
            dropped: 0,
            query: 0,
            dropped_by_query: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Selects the query lane stamped on subsequently recorded spans
    /// (lane 0 is the default and what single-query runs use).
    #[inline]
    pub fn set_query(&mut self, query: u32) {
        self.query = query;
    }

    /// The current query lane.
    pub fn query(&self) -> u32 {
        self.query
    }

    /// Records a complete span; returns its id, or [`SpanId::NONE`] when
    /// disabled or full. A `&'static str` resource is interned on every
    /// call; hot paths pass a [`SpanResource`] interned once.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record(
        &mut self,
        parent: SpanId,
        resource: impl Into<SpanResource>,
        kind: SpanKind,
        node: u32,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            match self
                .dropped_by_query
                .binary_search_by_key(&self.query, |&(q, _)| q)
            {
                Ok(i) => self.dropped_by_query[i].1 += 1,
                Err(i) => self.dropped_by_query.insert(i, (self.query, 1)),
            }
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            parent,
            resource: resource.into(),
            kind,
            node,
            start,
            end,
            bytes,
            query: self.query,
        });
        id
    }

    /// Opens a span whose end is not yet known (recorded with
    /// `end == start` until [`SpanArena::close`]).
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        parent: SpanId,
        resource: impl Into<SpanResource>,
        kind: SpanKind,
        node: u32,
        start: SimTime,
        bytes: u64,
    ) -> SpanId {
        self.record(parent, resource, kind, node, start, start, bytes)
    }

    /// Closes an open span at `end`. Closing [`SpanId::NONE`] (a dropped
    /// or untraced span) is a no-op; spans may close in any order
    /// relative to their parents.
    pub fn close(&mut self, id: SpanId, end: SimTime) {
        if let Some(ix) = id.index() {
            let span = &mut self.spans[ix];
            debug_assert!(end >= span.start, "span closes before it starts");
            span.end = end;
        }
    }

    /// The recorded spans, in record order ([`SpanId`] indexes into it).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Looks a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        id.index().and_then(|ix| self.spans.get(ix))
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans have been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans discarded because the arena was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans discarded while `query` was the current lane.
    pub fn dropped_for(&self, query: u32) -> u64 {
        self.dropped_by_query
            .binary_search_by_key(&query, |&(q, _)| q)
            .map(|i| self.dropped_by_query[i].1)
            .unwrap_or(0)
    }

    /// Overflow drops per query lane, sorted by lane (empty when nothing
    /// was dropped).
    pub fn dropped_by_query(&self) -> &[(u32, u64)] {
        &self.dropped_by_query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn disabled_arena_records_nothing() {
        let mut a = SpanArena::disabled();
        let id = a.record(
            SpanId::NONE,
            "cpu",
            SpanKind::Cpu,
            0,
            SimTime::ZERO,
            SimTime::from_nanos(5),
            1,
        );
        assert!(!id.is_some());
        assert_eq!(a.len(), 0);
        assert_eq!(a.dropped(), 0);
        assert!(!a.is_enabled());
    }

    #[test]
    fn zero_duration_spans_are_legal() {
        let mut a = SpanArena::with_capacity(4);
        let t = SimTime::from_nanos(42);
        let id = a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 3, t, t, 0);
        let s = a.get(id).expect("recorded");
        assert_eq!(s.duration(), Duration::ZERO);
        assert_eq!(s.node, 3);
    }

    #[test]
    fn spans_close_out_of_parent_order() {
        let mut a = SpanArena::with_capacity(4);
        let parent = a.open(
            SpanId::NONE,
            "disk_media",
            SpanKind::DiskRead,
            0,
            SimTime::ZERO,
            100,
        );
        let child = a.open(parent, "worker_cpu", SpanKind::Cpu, 0, SimTime::ZERO, 100);
        // Parent closes first — legal: slots are independent.
        a.close(parent, SimTime::from_nanos(10));
        a.close(child, SimTime::from_nanos(30));
        assert_eq!(a.get(parent).unwrap().end, SimTime::from_nanos(10));
        assert_eq!(a.get(child).unwrap().end, SimTime::from_nanos(30));
        assert_eq!(a.get(child).unwrap().parent, parent);
    }

    #[test]
    fn overflow_drops_and_counts_without_panicking() {
        let mut a = SpanArena::with_capacity(2);
        let t = SimTime::ZERO;
        for i in 0..10u64 {
            let id = a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 0, t, t, i);
            assert_eq!(id.is_some(), i < 2);
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped(), 8);
        // Closing a dropped span's NONE id is harmless.
        a.close(SpanId::NONE, SimTime::from_nanos(99));
    }

    #[test]
    fn drops_are_accounted_per_query_lane() {
        let mut a = SpanArena::with_capacity(1);
        let t = SimTime::ZERO;
        a.set_query(7);
        let kept = a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 0, t, t, 0);
        assert_eq!(a.get(kept).unwrap().query, 7);
        // Lane 7 then lane 2 overflow; lane 0 never drops.
        a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 0, t, t, 0);
        a.set_query(2);
        a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 0, t, t, 0);
        a.record(SpanId::NONE, "cpu", SpanKind::Cpu, 0, t, t, 0);
        assert_eq!(a.dropped(), 3);
        assert_eq!(a.dropped_for(7), 1);
        assert_eq!(a.dropped_for(2), 2);
        assert_eq!(a.dropped_for(0), 0);
        assert_eq!(a.dropped_by_query(), &[(2, 2), (7, 1)]);
    }

    #[test]
    fn interned_resources_round_trip_and_keep_spans_small() {
        let a = SpanResource::intern("span_test_a");
        let b = SpanResource::intern("span_test_b");
        assert_ne!(a, b);
        assert_eq!(SpanResource::intern("span_test_a"), a);
        assert_eq!((a.name(), b.name()), ("span_test_a", "span_test_b"));
        assert_eq!(format!("{a} {a:?}"), "span_test_a \"span_test_a\"");
        let mut arena = SpanArena::with_capacity(2);
        let id = arena.record(
            SpanId::NONE,
            "span_test_b",
            SpanKind::Cpu,
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            0,
        );
        assert_eq!(arena.get(id).unwrap().resource, b);
        assert_eq!(std::mem::size_of::<Span>(), 40);
    }

    #[test]
    fn record_order_is_id_order() {
        let mut a = SpanArena::with_capacity(8);
        let ids: Vec<SpanId> = (0..5)
            .map(|i| {
                a.record(
                    SpanId::NONE,
                    "cpu",
                    SpanKind::Cpu,
                    i,
                    SimTime::from_nanos(u64::from(i)),
                    SimTime::from_nanos(u64::from(i) + 1),
                    0,
                )
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), Some(i));
        }
        assert_eq!(a.spans().len(), 5);
    }
}
