//! The event queue: a priority queue over simulated time with deterministic
//! FIFO tie-breaking.
//!
//! # Scheduler structure
//!
//! The default backend is a **hierarchical calendar queue** (timing
//! wheel): a circular array of buckets, each covering a fixed slice of
//! simulated time, plus a binary-heap *overflow* level for events
//! scheduled beyond the wheel's horizon. Pushing an event within the
//! horizon appends to its bucket (O(1)); popping scans a bitmap for the
//! next occupied bucket and drains it in `(time, seq)` order. Overflow
//! events migrate into the wheel as the cursor approaches their bucket,
//! so the far-future heap stays small and the hot path is array traffic
//! instead of heap rebalancing.
//!
//! ## Arena bucket store
//!
//! Buckets do not own `Vec`s of events. Every pending in-horizon event
//! lives in one reusable slab of slots (`Wheel::slots`), and a bucket is
//! just a `(head, tail)` pair of `u32` slot indices forming an intrusive
//! singly-linked chain through the slab. Pushing links a slot onto its
//! bucket's tail; popping returns the slot to a freelist threaded through
//! the same `next` fields. Steady-state push/pop therefore performs
//! **zero allocation** — the slab and the drain buffer grow to the
//! queue's high-water depth and are reused forever after.
//!
//! ## Bucket drains and same-instant fusion
//!
//! When the cursor first reaches an occupied bucket, its chain is
//! *gathered* into a reusable drain buffer of `(time, seq, slot)` keys
//! and sorted ascending once (a sortedness scan skips the sort for the
//! common already-ordered chain — in particular any same-instant tie
//! burst, which is chained in push order). Pops then walk the buffer
//! with a cursor; a tie burst of N events pops as one contiguous scan.
//!
//! Events pushed *into the bucket being drained* (the executor's
//! completion storms schedule millions of these) are not inserted into
//! the sorted buffer. They are **fused into pending runs**: one `(time,
//! head, tail)` chain per distinct timestamp, appended O(1), and merged
//! against the drain buffer at pop. On a time tie the buffer wins — its
//! events predate every pending push, so `(time, seq)` order is
//! preserved exactly. This replaces the per-push binary-search insertion
//! of the previous revision with an O(1) append plus an O(1) two-way
//! merge step at pop.
//!
//! ## Bucket-width heuristic
//!
//! Each bucket spans `2^BUCKET_SHIFT` nanoseconds (currently 2^19 ns ≈
//! 524 µs). That width sits between the executor's two natural time
//! scales: per-batch CPU costs (tens of microseconds — so simultaneous
//! and near-simultaneous completions share a bucket instead of
//! scattering across thousands) and per-batch disk service times
//! (milliseconds — so a pipeline window of in-flight reads spreads over
//! many buckets instead of piling into one). Measured on the executor's
//! cluster join, 2^19 beats both 2^18 and 2^20: a few events per bucket
//! amortizes the bucket-transition scan without inflating the in-bucket
//! sort.
//!
//! ## Fixed horizon
//!
//! The wheel always has `WHEEL_BUCKETS` = 8192 buckets, a horizon of
//! 8192 × 524 µs ≈ 4.3 s, whatever capacity hint the queue was built
//! with. How far ahead the executor schedules depends on simulated disk
//! and CPU backlogs, not on the node count the hint is derived from. On
//! the twelve Zipf-skewed 64–128-disk joins and sorts of the scale-out
//! benchmark (5.13 M pushes) scheduling distances run from 4.6 µs to
//! 257 s:
//!
//! | distance | share of pushes |
//! |---|---|
//! | under 1 ms | 8.8% |
//! | 1–10 ms | 30.7% |
//! | 10–100 ms | 12.2% |
//! | 100–537 ms | 27.6% |
//! | 537 ms–4.3 s | 16.1% |
//! | 4.3–10 s | 0.4% |
//! | 10–100 s | 4.2% |
//! | 100–257 s | 0.06% |
//!
//! So 20.8% of pushes land beyond 537 ms and 4.7% beyond 4.3 s. On
//! Figure 1's grid (8 tasks × 3 architectures × 16–128 disks, 21.9 M
//! pushes) the shares are 11.0% and 1.6%. The queue's tests and the
//! `executor_spread` micro benchmark draw from this histogram. A horizon
//! derived from the hint (134 ms at 16 disks, 537 ms at 64, 1.07 s at
//! 128) sent about a fifth of the scale-out pushes through the overflow
//! heap and back.
//!
//! A sweep of fixed bucket counts on those scale-out runs (median pass
//! time over four alternated seeds, 2-core Xeon host, with the other
//! hot-path changes of the same revision in place): hint-derived 0.966
//! s, 2048 buckets 0.954 s, 4096 0.921 s, 8192 0.923 s, 16384 0.912 s,
//! 65536 0.909 s. From 4096 buckets up the differences sit inside the
//! run-to-run spread (≈ 0.05–0.1 s); 8192 keeps all but 5% of those
//! pushes in the wheel at 8 bytes per bucket (≈ 64 KB per live queue,
//! against 512 KB at 65536). The price is paid on sparse far-future
//! traffic, where a pop scans more bitmap words. The rare longer-range
//! event (a deeply queued disk or a saturated interconnect) takes the
//! overflow heap and migrates back in.
//!
//! Determinism is unchanged from the classic heap: ties fire in push
//! order via the per-event sequence number, whatever mixture of
//! bucket/overflow placements the events took. The reference
//! [`QueueBackend::BinaryHeap`] backend is kept as the differential
//! oracle: the tests, CI's report byte-diffs (`--queue heap`), and the
//! benchmarks run it against the wheel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (2^19 ns ≈ 524 µs).
const BUCKET_SHIFT: u32 = 19;
/// Buckets per wheel: 8192 × 2^19 ns ≈ 4.3 s horizon (see the module
/// docs for the measured distances and the sweep behind the number).
const WHEEL_BUCKETS: usize = 1 << 13;

/// Null slot index terminating arena chains and the freelist.
const NIL: u32 = u32::MAX;

/// A pending event: fires at `time`, carrying `payload`.
///
/// Events scheduled for the same instant fire in the order they were pushed
/// (FIFO), which makes simulations deterministic regardless of scheduler
/// internals.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Which scheduler implementation an [`EventQueue`] runs on.
///
/// Both backends produce byte-identical pop sequences; the wheel is the
/// default, the heap is retained as the differential-testing and
/// benchmarking reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Arena-backed calendar-queue / timing-wheel scheduler (the default).
    #[default]
    CalendarWheel,
    /// The classic binary-heap scheduler.
    BinaryHeap,
}

/// One slot of the arena slab: an event's key and payload plus the
/// intrusive `next` link (bucket chain, pending run, or freelist).
#[derive(Debug, Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// A fused run of same-instant pushes into the bucket being drained:
/// a chain of slots all scheduled for `time`, in push (= seq) order.
#[derive(Debug, Clone)]
struct Run {
    time: SimTime,
    head: u32,
    tail: u32,
}

/// The arena-backed calendar-wheel scheduler level structure.
#[derive(Debug, Clone)]
struct Wheel<E> {
    /// The arena slab holding every in-horizon event.
    slots: Vec<Slot<E>>,
    /// Freelist head threaded through `Slot::next` (`NIL` = empty).
    free: u32,
    /// Per-bucket chain heads; slot = `abs & (len - 1)` where
    /// `abs = time_ns >> BUCKET_SHIFT`. `NIL` = empty.
    heads: Vec<u32>,
    /// Per-bucket chain tails (`NIL` = empty).
    tails: Vec<u32>,
    /// One bit per bucket: set iff the bucket holds events.
    occupied: Vec<u64>,
    /// Events currently held in buckets (excludes overflow).
    count: usize,
    /// Absolute bucket index of the wheel's current position. Invariant:
    /// every bucketed event has `abs` in `[cursor, cursor + nbuckets)`.
    cursor: u64,
    /// Whether `drain_buf`/`pending` describe the cursor's bucket.
    draining: bool,
    /// The gathered `(time, seq, slot)` keys of the bucket being
    /// drained, ascending; `pos` is the next entry to pop.
    drain_buf: Vec<(SimTime, u64, u32)>,
    pos: usize,
    /// Same-instant runs pushed into the bucket being drained, sorted
    /// ascending by time (a handful of distinct timestamps at most).
    pending: Vec<Run>,
    /// Far-future events beyond the wheel horizon, earliest-first.
    overflow: BinaryHeap<Scheduled<E>>,
}

impl<E> Wheel<E> {
    fn new(slot_capacity: usize) -> Self {
        Wheel {
            slots: Vec::with_capacity(slot_capacity),
            free: NIL,
            heads: vec![NIL; WHEEL_BUCKETS],
            tails: vec![NIL; WHEEL_BUCKETS],
            occupied: vec![0u64; WHEEL_BUCKETS / 64],
            count: 0,
            cursor: 0,
            draining: false,
            drain_buf: Vec::with_capacity(slot_capacity),
            pos: 0,
            pending: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    fn abs_of(time: SimTime) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    fn nbuckets(&self) -> u64 {
        WHEEL_BUCKETS as u64
    }

    fn mask(&self) -> u64 {
        WHEEL_BUCKETS as u64 - 1
    }

    fn len(&self) -> usize {
        self.count + self.overflow.len()
    }

    /// Takes a slot from the freelist, or grows the slab.
    fn alloc(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let s = &mut self.slots[idx as usize];
            self.free = s.next;
            s.time = time;
            s.seq = seq;
            s.next = NIL;
            s.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "event arena exhausted u32 indices");
            self.slots.push(Slot {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            idx as u32
        }
    }

    /// Returns a slot's contents and links it onto the freelist.
    fn release(&mut self, idx: u32) -> Scheduled<E> {
        let s = &mut self.slots[idx as usize];
        let time = s.time;
        let seq = s.seq;
        let payload = s.payload.take().expect("live arena slot");
        s.next = self.free;
        self.free = idx;
        Scheduled { time, seq, payload }
    }

    fn push(&mut self, ev: Scheduled<E>) {
        let abs = Self::abs_of(ev.time);
        if abs >= self.cursor + self.nbuckets() {
            self.overflow.push(ev);
        } else {
            debug_assert!(abs >= self.cursor, "bucketed event behind the cursor");
            self.place(ev.time, ev.seq, ev.payload, abs);
        }
    }

    /// Puts an in-horizon event into its bucket chain, or — for pushes
    /// into the bucket currently being drained — fuses it into the
    /// pending runs.
    fn place(&mut self, time: SimTime, seq: u64, payload: E, abs: u64) {
        let idx = self.alloc(time, seq, payload);
        let slot = (abs & self.mask()) as usize;
        if abs == self.cursor && self.draining {
            // Same-instant fusion: O(1) append to the run for this
            // timestamp. Chains are in push order, which is seq order —
            // the global sequence counter is monotonic.
            match self.pending.binary_search_by_key(&time, |r| r.time) {
                Ok(i) => {
                    let tail = self.pending[i].tail;
                    self.slots[tail as usize].next = idx;
                    self.pending[i].tail = idx;
                }
                Err(i) => self.pending.insert(
                    i,
                    Run {
                        time,
                        head: idx,
                        tail: idx,
                    },
                ),
            }
        } else {
            let tail = self.tails[slot];
            if tail == NIL {
                self.heads[slot] = idx;
            } else {
                self.slots[tail as usize].next = idx;
            }
            self.tails[slot] = idx;
        }
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.count += 1;
    }

    /// Moves overflow events whose bucket entered the horizon into the
    /// wheel. Must run before any pop selection: an overflow event can be
    /// earlier than every bucketed one.
    ///
    /// Migration can never target the bucket being drained: by the time a
    /// bucket is gathered, every overflow event destined for it has
    /// already migrated (the pop that advanced the cursor onto the bucket
    /// ran `migrate` first, and its horizon covered the bucket).
    fn migrate(&mut self) {
        let horizon = self.cursor + self.nbuckets();
        while let Some(top) = self.overflow.peek() {
            let abs = Self::abs_of(top.time);
            if abs >= horizon {
                break;
            }
            debug_assert!(
                !(self.draining && abs == self.cursor),
                "overflow migration into a bucket mid-drain"
            );
            let ev = self.overflow.pop().expect("peeked entry");
            self.place(ev.time, ev.seq, ev.payload, abs);
        }
    }

    /// Physical index of the first occupied bucket at or circularly after
    /// the cursor slot. Buckets only hold events within the horizon, so
    /// the first set bit in cursor order is also the earliest bucket.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.cursor & self.mask()) as usize;
        let words = self.occupied.len();
        let mut w = start >> 6;
        let mut word = self.occupied[w] & (!0u64 << (start & 63));
        // `words + 1` iterations: the wrap re-checks the starting word's
        // low bits (its high bits were already seen empty).
        for _ in 0..=words {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == words {
                w = 0;
            }
            word = self.occupied[w];
        }
        None
    }

    /// Absolute bucket index of physical `slot`, relative to the cursor.
    fn abs_at(&self, slot: usize) -> u64 {
        self.cursor + ((slot as u64).wrapping_sub(self.cursor) & self.mask())
    }

    /// Gathers a bucket's chain into the drain buffer, sorting ascending
    /// by `(time, seq)` unless the chain is already ordered (direct
    /// pushes are — seq is monotonic; only an interleaved overflow
    /// migration can weave an older seq behind a newer one).
    fn gather(&mut self, slot: usize) {
        debug_assert!(self.pos == self.drain_buf.len() && self.pending.is_empty());
        self.drain_buf.clear();
        self.pos = 0;
        let mut h = self.heads[slot];
        let mut sorted = true;
        let mut prev = (SimTime::ZERO, 0u64);
        while h != NIL {
            let s = &self.slots[h as usize];
            let key = (s.time, s.seq);
            sorted &= key >= prev;
            prev = key;
            self.drain_buf.push((s.time, s.seq, h));
            h = s.next;
        }
        if !sorted {
            self.drain_buf.sort_unstable_by_key(|&(t, q, _)| (t, q));
        }
        self.heads[slot] = NIL;
        self.tails[slot] = NIL;
        self.draining = true;
    }

    /// Pops the earliest event of the bucket being drained: a two-way
    /// merge of the sorted drain buffer against the fused pending runs.
    /// On a time tie the buffer wins — its events predate every pending
    /// push, so they carry older seqs.
    fn pop_current(&mut self) -> Scheduled<E> {
        let buf = self.drain_buf.get(self.pos).copied();
        let idx = match (buf, self.pending.first().map(|r| r.time)) {
            (Some((bt, _, _)), Some(pt)) if pt < bt => self.pop_pending(),
            (Some((_, _, idx)), _) => {
                self.pos += 1;
                idx
            }
            (None, Some(_)) => self.pop_pending(),
            (None, None) => unreachable!("occupied bucket with no drain state"),
        };
        self.count -= 1;
        if self.pos == self.drain_buf.len() && self.pending.is_empty() {
            let slot = (self.cursor & self.mask()) as usize;
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        self.release(idx)
    }

    /// Unlinks the head of the earliest pending run.
    fn pop_pending(&mut self) -> u32 {
        let run = &mut self.pending[0];
        let idx = run.head;
        let next = self.slots[idx as usize].next;
        if next == NIL {
            self.pending.remove(0);
        } else {
            run.head = next;
        }
        idx
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        // Fast path: the bucket being drained still holds events. They
        // all precede every other bucket (later `abs`) and every
        // overflow event (beyond some past horizon ≥ cursor + 1), so no
        // bitmap scan or migration check is needed.
        if self.draining && (self.pos < self.drain_buf.len() || !self.pending.is_empty()) {
            return Some(self.pop_current());
        }
        if self.count == 0 {
            // Wheel empty: jump the cursor to the overflow's earliest
            // bucket so migration can land it.
            let abs = Self::abs_of(self.overflow.peek()?.time);
            self.cursor = abs;
            self.draining = false;
        }
        self.migrate();
        let slot = self.next_occupied().expect("wheel holds events");
        self.cursor = self.abs_at(slot);
        self.gather(slot);
        Some(self.pop_current())
    }

    /// The time of the earliest pending event, without mutating the
    /// wheel (the cursor must only advance on actual pops: it pins the
    /// legal range of future pushes).
    fn peek_time(&self) -> Option<SimTime> {
        // Fast path, mirroring `pop`: live drain state precedes every
        // other bucket and every overflow event, so no bitmap scan or
        // overflow comparison is needed.
        if self.draining {
            let buf = self.drain_buf.get(self.pos).map(|&(t, _, _)| t);
            let pend = self.pending.first().map(|r| r.time);
            if let Some(t) = buf.into_iter().chain(pend).min() {
                return Some(t);
            }
        }
        // Untouched bucket: min-scan its chain.
        let mut bucket: Option<SimTime> = None;
        if self.count > 0 {
            let mut h = self.heads[self.next_occupied().expect("wheel holds events")];
            while h != NIL {
                let s = &self.slots[h as usize];
                bucket = Some(bucket.map_or(s.time, |b| b.min(s.time)));
                h = s.next;
            }
        }
        // An overflow event just outside a stale horizon can precede
        // every bucketed one, so always compare against the overflow top.
        let over = self.overflow.peek().map(|s| s.time);
        bucket.into_iter().chain(over).min()
    }

    /// Events the wheel can hold without any allocation growing.
    fn capacity(&self) -> usize {
        self.slots.capacity() + self.overflow.capacity()
    }
}

/// The scheduler backing an [`EventQueue`].
#[derive(Debug, Clone)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// A discrete-event queue ordered by simulated time.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(30), 'c');
/// q.push(SimTime::from_nanos(10), 'a');
/// q.push(SimTime::from_nanos(10), 'b'); // same time: FIFO order
/// let order: Vec<char> = q.drain().map(|(_, e)| e).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    popped: u64,
    last_popped: SimTime,
}

/// A backend-independent snapshot of an [`EventQueue`]'s logical state:
/// the pending events in exact pop order plus the pop-side counters.
///
/// Sequence numbers are deliberately *not* captured. Restoring assigns
/// fresh seqs `0..n` in pop order, which preserves every observable
/// property: relative order among the pending events is unchanged, and
/// events pushed after the restore receive larger seqs than all pending
/// ones — exactly as they would have in the uninterrupted run. Dropping
/// the seqs is what makes the snapshot byte-identical across backends
/// (a wheel's freelist layout, pending runs, and overflow split are all
/// re-normalized away).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    /// Pending events in exact pop order.
    pub events: Vec<(SimTime, E)>,
    /// Lifetime pop count at the snapshot point.
    pub popped: u64,
    /// Time of the most recently popped event (the simulation clock).
    pub last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_backend_capacity(backend, 0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// Event-loop hot paths (one simulation pushes millions of events)
    /// pre-size the queue to its steady-state depth so the backing
    /// buffers never reallocate mid-run. On the wheel the hint
    /// pre-reserves only the arena slab and the drain buffer: the bucket
    /// count is fixed at 8192 (a ≈ 4.3 s horizon, see the
    /// module docs), because how far ahead events land depends on the
    /// simulated backlogs, not on the depth the hint describes. The
    /// overflow heap grows on demand for the far tail.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_backend_capacity(QueueBackend::default(), capacity)
    }

    /// [`EventQueue::with_capacity`] on an explicit backend.
    pub fn with_backend_capacity(backend: QueueBackend, capacity: usize) -> Self {
        let backend = match backend {
            QueueBackend::CalendarWheel => Backend::Wheel(Wheel::new(capacity)),
            QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::with_capacity(capacity)),
        };
        EventQueue {
            backend,
            next_seq: 0,
            popped: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Number of events the queue can hold without reallocating (summed
    /// over the arena slab and overflow level on the wheel).
    pub fn capacity(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.capacity(),
            Backend::Heap(h) => h.capacity(),
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a
    /// simulation logic error.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the time of the last popped event.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled { time, seq, payload };
        match &mut self.backend {
            Backend::Wheel(w) => w.push(ev),
            Backend::Heap(h) => h.push(ev),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = match &mut self.backend {
            Backend::Wheel(w) => w.pop()?,
            Backend::Heap(h) => h.pop()?,
        };
        self.popped += 1;
        self.last_popped = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Pops every pending event in firing order.
    ///
    /// The iterator borrows the queue mutably; events pushed after it is
    /// dropped are unaffected.
    ///
    /// # Example
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_nanos(2), 'b');
    /// q.push(SimTime::from_nanos(1), 'a');
    /// assert_eq!(q.drain().map(|(_, e)| e).collect::<Vec<_>>(), vec!['a', 'b']);
    /// assert!(q.is_empty());
    /// ```
    pub fn drain(&mut self) -> Drain<'_, E> {
        Drain { queue: self }
    }

    /// Total events popped over the queue's lifetime (the simulator's
    /// self-profiling events-processed counter).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek_time(),
            Backend::Heap(h) => h.peek().map(|s| s.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

impl<E: Clone> EventQueue<E> {
    /// Captures the queue's logical state without disturbing it.
    ///
    /// The snapshot lists pending events in exact pop order (obtained by
    /// draining a clone), so it is identical whatever backend the queue
    /// runs on. Restore it with [`EventQueue::load_snapshot`] — into the
    /// same backend or a different one.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        let mut copy = self.clone();
        QueueSnapshot {
            events: copy.drain().collect(),
            popped: self.popped,
            last_popped: self.last_popped,
        }
    }

    /// Restores a snapshot into this (empty, freshly configured) queue.
    ///
    /// Call after `with_backend_capacity`: the wheel, freelist, and
    /// pending-run structures are rebuilt from scratch by ordinary
    /// pushes, so a restored wheel is bit-equivalent to one that reached
    /// this state live. Pending events are assigned
    /// fresh sequence numbers `0..n` in pop order (see [`QueueSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the queue already holds events or has popped any.
    pub fn load_snapshot(&mut self, snap: QueueSnapshot<E>) {
        assert!(
            self.is_empty() && self.popped == 0,
            "snapshot must load into a fresh queue"
        );
        for (time, payload) in snap.events {
            debug_assert!(time >= snap.last_popped, "pending event behind the clock");
            self.push(time, payload);
        }
        self.popped = snap.popped;
        self.last_popped = snap.last_popped;
    }
}

/// Draining iterator over an [`EventQueue`]; see [`EventQueue::drain`].
#[derive(Debug)]
pub struct Drain<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<E> Iterator for Drain<'_, E> {
    type Item = (SimTime, E);

    fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.queue.len();
        (len, Some(len))
    }
}

impl<E> ExactSizeIterator for Drain<'_, E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];

    fn queue_u64(backend: QueueBackend) -> EventQueue<u64> {
        EventQueue::with_backend(backend)
    }

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = queue_u64(backend);
            for &t in &[50u64, 10, 30, 20, 40] {
                q.push(SimTime::from_nanos(t), t);
            }
            let out: Vec<u64> = q.drain().map(|(_, e)| e).collect();
            assert_eq!(out, vec![10, 20, 30, 40, 50], "{backend:?}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100u32 {
                q.push(SimTime::from_nanos(7), i);
            }
            let popped: Vec<u32> = q.drain().map(|(_, e)| e).collect();
            let expected: Vec<u32> = (0..100).collect();
            assert_eq!(popped, expected, "{backend:?}");
        }
    }

    #[test]
    fn ties_break_fifo_across_wheel_and_overflow() {
        // Same-time events split between the bucket array and the
        // overflow heap (the queue's position moves between the pushes)
        // must still fire in push order after migration.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos((WHEEL_BUCKETS as u64 + 1) << super::BUCKET_SHIFT);
        // Interleave: a near event, then far-future ties pushed both
        // before and after the cursor advances past the near event.
        q.push(far, 0u32);
        q.push(SimTime::from_nanos(1), 100);
        q.push(far, 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(100));
        q.push(far, 2);
        let rest: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_nanos(42), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
            let (t, ()) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_nanos(42));
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn wheel_rejects_past_events_after_cursor_advance() {
        // The wheel path specifically: advance the cursor far past the
        // first bucket (through the overflow level), then schedule behind
        // it. The push must panic, not corrupt the wheel.
        let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let far = SimTime::from_nanos((WHEEL_BUCKETS as u64 + 7) << super::BUCKET_SHIFT);
        q.push(far, ());
        q.pop();
        q.push(SimTime::from_nanos(far.as_nanos() - 1), ());
    }

    #[test]
    fn len_and_empty_track_contents() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert!(q.is_empty());
            q.push(SimTime::from_nanos(1), ());
            q.push(SimTime::from_nanos(2), ());
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn with_capacity_presizes_and_behaves_like_new() {
        // The hint pre-reserves the arena slab: a steady-state load
        // spread across the horizon must not grow any allocation.
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let before = q.capacity();
        for i in 0..64u64 {
            // One event per bucket, pushed in reverse bucket order.
            q.push(SimTime::from_nanos((63 - i) << super::BUCKET_SHIFT), i);
        }
        assert_eq!(q.capacity(), before, "pre-sized queue must not reallocate");
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
        assert_eq!(q.capacity(), before, "popping must not reallocate either");
    }

    #[test]
    fn popped_counts_lifetime_pops() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.popped(), 0);
            for t in 0..5u64 {
                q.push(SimTime::from_nanos(t), t);
            }
            q.pop();
            q.pop();
            assert_eq!(q.popped(), 2);
            while q.pop().is_some() {}
            assert_eq!(q.popped(), 5);
            // Popping an empty queue does not inflate the counter.
            assert!(q.pop().is_none());
            assert_eq!(q.popped(), 5);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_nanos(9), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn drain_reports_length_and_interleaves_with_pushes() {
        let mut q = EventQueue::new();
        for t in 0..10u64 {
            q.push(SimTime::from_nanos(t), t);
        }
        {
            let mut d = q.drain();
            assert_eq!(d.len(), 10);
            assert_eq!(d.next().map(|(_, e)| e), Some(0));
            assert_eq!(d.len(), 9);
        }
        // The queue stays usable after a partial drain.
        q.push(SimTime::from_nanos(100), 100);
        assert_eq!(q.len(), 10);
        assert_eq!(q.drain().count(), 10);
    }

    // ----- Wheel edge cases -------------------------------------------

    /// An event exactly on the overflow-horizon boundary
    /// (`abs == cursor + nbuckets`) must take the overflow heap, and one
    /// just inside must take a bucket; both pop in global order.
    #[test]
    fn horizon_boundary_event_splits_correctly() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let edge_in = SimTime::from_nanos(((WHEEL_BUCKETS as u64) << super::BUCKET_SHIFT) - 1);
        let edge_out = SimTime::from_nanos((WHEEL_BUCKETS as u64) << super::BUCKET_SHIFT);
        q.push(edge_out, 2);
        q.push(edge_in, 1);
        q.push(SimTime::ZERO, 0);
        assert_eq!(q.len(), 3);
        let out: Vec<(SimTime, u32)> = q.drain().collect();
        assert_eq!(out, vec![(SimTime::ZERO, 0), (edge_in, 1), (edge_out, 2)]);
    }

    /// Cursor wrap-around through the bitmap: pushes that land physically
    /// behind the cursor's slot, in the low bits of the word the scan
    /// starts from, while staying ahead of it in absolute time.
    #[test]
    fn cursor_wraps_through_full_bitmap_word() {
        let nb = WHEEL_BUCKETS as u64;
        let at = |abs: u64| SimTime::from_nanos(abs << super::BUCKET_SHIFT);

        // A lone event in the cursor's own word: after bucket 10 drains,
        // abs 10 + nb - 5 maps to physical slot 5. The scan must walk
        // every other word and come back to re-check word 0's low bits.
        let mut q: EventQueue<u64> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        q.push(at(10), 10);
        assert_eq!(q.pop(), Some((at(10), 10)));
        let wrapped = 10 + nb - 5;
        q.push(at(wrapped), wrapped);
        assert_eq!(
            overflow_len(&q),
            0,
            "the wrapped event is inside the horizon"
        );
        assert_eq!(q.pop(), Some((at(wrapped), wrapped)));
        assert_eq!(q.pop(), None);

        // Every bucket of the wheel occupied. Pop the first 10, then
        // refill the wrapped slots: abs nb..nb + 10 map to physical slots
        // 0..10, behind the cursor slot (the last one lands just past the
        // horizon, in the overflow).
        let mut q: EventQueue<u64> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        for i in 0..nb {
            q.push(at(i), i);
        }
        let mut out = Vec::new();
        for _ in 0..10 {
            out.push(q.pop().unwrap().1);
        }
        for i in nb..nb + 10 {
            q.push(at(i), i);
        }
        out.extend(q.drain().map(|(_, e)| e));
        let expected: Vec<u64> = (0..nb + 10).collect();
        assert_eq!(out, expected);
    }

    /// Events held in the wheel's overflow heap (0 on other backends).
    fn overflow_len<E>(q: &EventQueue<E>) -> usize {
        match &q.backend {
            Backend::Wheel(w) => w.overflow.len(),
            _ => 0,
        }
    }

    /// The executor's measured scheduling distances (module docs): per
    /// band `[lo, hi)` ns, the pushes per 10 000 that landed in it.
    const EXECUTOR_DISTANCES: [(u64, u64, u64); 10] = [
        (4_600, 10_000, 240),
        (10_000, 100_000, 222),
        (100_000, 1_000_000, 416),
        (1_000_000, 10_000_000, 3_065),
        (10_000_000, 100_000_000, 1_225),
        (100_000_000, 537_000_000, 2_757),
        (537_000_000, 4_295_000_000, 1_609),
        (4_295_000_000, 10_000_000_000, 44),
        (10_000_000_000, 100_000_000_000, 416),
        (100_000_000_000, 257_000_000_000, 6),
    ];

    /// A scheduling distance drawn from [`EXECUTOR_DISTANCES`]: a band by
    /// its measured share, then log-uniform within the band.
    fn executor_distance(rng: &mut SplitMix64) -> u64 {
        let mut r = rng.next_below(10_000);
        for (lo, hi, share) in EXECUTOR_DISTANCES {
            if r < share {
                let (lo, hi) = ((lo as f64).ln(), (hi as f64).ln());
                return (lo + rng.next_f64() * (hi - lo)).exp() as u64;
            }
            r -= share;
        }
        unreachable!("band shares sum to 10 000")
    }

    /// The horizon is fixed: whatever capacity hint built the queue,
    /// every event scheduled less than the wheel's span ahead of the
    /// clock takes a bucket, never the overflow heap.
    #[test]
    fn events_within_the_horizon_never_overflow() {
        // An event `d` ahead of the clock lands at most `d` plus one
        // bucket past the cursor's bucket.
        let span = (WHEEL_BUCKETS as u64 - 1) << BUCKET_SHIFT;
        for hint in [0, 1, 1 << 20] {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(hint);
            let mut rng = SplitMix64::new(hint as u64 ^ 0x5EED);
            for i in 0..4_000u64 {
                let d = executor_distance(&mut rng) % span;
                q.push(q.now() + crate::time::Duration::from_nanos(d), i);
                assert_eq!(overflow_len(&q), 0, "hint {hint}: {d} ns overflowed");
                if i % 2 == 1 {
                    q.pop();
                }
            }
            let mut last = q.now();
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        }
    }

    /// On the executor's measured distance mix — whose 4.7% tail passes
    /// the horizon and migrates back — plus bursts of same-instant ties,
    /// the wheel pops exactly the heap backend's sequence.
    #[test]
    fn executor_spread_matches_heap() {
        let mut rng = SplitMix64::new(0xD15_7A4CE);
        let mut ops: Vec<(u8, u64)> = Vec::with_capacity(6_000);
        for _ in 0..6_000 {
            // Push twice per pop, with bursts of same-instant ties.
            let op = rng.next_below(3) as u8;
            let dt = if rng.next_below(8) == 0 {
                0
            } else {
                executor_distance(&mut rng)
            };
            ops.push((op, dt));
        }
        differential(&ops);
    }

    /// Overflow migration racing a same-time in-bucket insertion: a
    /// far-future event migrates into a bucket that already holds a
    /// *newer-seq* event at the same instant. The gather sort must
    /// restore seq order (the chain alone is not sorted).
    #[test]
    fn migration_races_same_time_insertion() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos((WHEEL_BUCKETS as u64 + 5) << super::BUCKET_SHIFT);
        q.push(t, 0); // beyond horizon: overflow (seq 0)
        q.push(SimTime::from_nanos(1), 99);
        // Advancing past the near event pulls the horizon forward.
        assert_eq!(q.pop().map(|(_, e)| e), Some(99));
        // Now `t` is within the horizon: this lands in the bucket chain
        // directly (seq 2), while seq 0 is still in overflow until the
        // next pop migrates it — behind seq 2 in the chain.
        q.push(t, 1);
        let rest: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1], "older seq must still pop first");
    }

    /// Pushes into the current bucket mid-drain of a tie burst: the
    /// burst's remainder (older seqs) fires first, then the fused
    /// same-instant pushes in their own push order, then later times.
    #[test]
    fn push_into_current_bucket_during_tie_burst_drain() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos(1_000);
        for i in 0..100 {
            q.push(t, i);
        }
        let mut out = Vec::new();
        for _ in 0..50 {
            out.push(q.pop().unwrap().1);
        }
        // Mid-drain pushes: same instant (fused runs), plus a later time
        // in the same bucket.
        let t2 = SimTime::from_nanos(2_000);
        q.push(t2, 300);
        for i in 100..120 {
            q.push(t, i);
        }
        q.push(t2, 301);
        out.extend(q.drain().map(|(_, e)| e));
        let mut expected: Vec<u32> = (0..120).collect();
        expected.extend([300, 301]);
        assert_eq!(out, expected);
    }

    /// Drives every backend pair with the same operation sequence and
    /// asserts identical observable behavior at every step.
    fn differential(ops: &[(u8, u64)]) {
        let mut queues: Vec<EventQueue<u64>> = BACKENDS.iter().map(|&b| queue_u64(b)).collect();
        let mut payload = 0u64;
        for &(op, t) in ops {
            if op % 3 != 0 {
                // Push twice as often as popping so the queues fill up.
                let time = queues[0].now() + crate::time::Duration::from_nanos(t);
                for q in &mut queues {
                    q.push(time, payload);
                }
                payload += 1;
            } else {
                let expect = queues[0].pop();
                for q in &mut queues[1..] {
                    assert_eq!(q.pop(), expect);
                }
            }
            let (peek, len, now) = (queues[0].peek_time(), queues[0].len(), queues[0].now());
            for q in &queues[1..] {
                assert_eq!(q.peek_time(), peek);
                assert_eq!(q.len(), len);
                assert_eq!(q.now(), now);
            }
        }
        // Conservation: every backend drains the same residue, and every
        // pushed payload was popped exactly once across the run.
        let rest: Vec<Vec<(SimTime, u64)>> =
            queues.iter_mut().map(|q| q.drain().collect()).collect();
        for r in &rest[1..] {
            assert_eq!(r, &rest[0]);
        }
        for q in &queues {
            assert_eq!(q.popped(), payload);
        }
    }

    /// Applies `ops` to `q`, recording pops into `pops`. Pushes draw
    /// payloads from `payload` (shared so interrupted and uninterrupted
    /// runs see the same values).
    fn apply_ops(
        q: &mut EventQueue<u64>,
        ops: &[(u8, u64)],
        payload: &mut u64,
        pops: &mut Vec<(SimTime, u64)>,
    ) {
        for &(op, t) in ops {
            if op % 3 != 0 {
                let time = q.now() + crate::time::Duration::from_nanos(t);
                q.push(time, *payload);
                *payload += 1;
            } else if let Some(p) = q.pop() {
                pops.push(p);
            }
        }
    }

    /// Snapshot/restore differential harness: run `ops[..cut]`, snapshot,
    /// restore into every backend, finish `ops[cut..]` on each — the full
    /// pop sequence must be identical to the uninterrupted run's.
    fn snapshot_differential(ops: &[(u8, u64)], cut: usize) {
        for src in BACKENDS {
            // Uninterrupted reference on the source backend.
            let mut reference = queue_u64(src);
            let mut ref_payload = 0u64;
            let mut ref_pops = Vec::new();
            apply_ops(&mut reference, ops, &mut ref_payload, &mut ref_pops);
            let ref_rest: Vec<(SimTime, u64)> = reference.drain().collect();

            // Interrupted run: pause at `cut`, snapshot, restore into
            // each destination backend (including cross-backend moves).
            let mut base = queue_u64(src);
            let mut base_payload = 0u64;
            let mut base_pops = Vec::new();
            apply_ops(&mut base, &ops[..cut], &mut base_payload, &mut base_pops);
            let snap = base.snapshot();
            assert_eq!(snap.events.len(), base.len(), "snapshot is non-destructive");

            for dst in BACKENDS {
                let mut restored = queue_u64(dst);
                restored.load_snapshot(snap.clone());
                assert_eq!(restored.len(), base.len());
                assert_eq!(restored.popped(), base.popped());
                assert_eq!(restored.now(), base.now());

                let mut payload = base_payload;
                let mut pops = base_pops.clone();
                apply_ops(&mut restored, &ops[cut..], &mut payload, &mut pops);
                pops.extend(restored.drain());
                let mut expected = ref_pops.clone();
                expected.extend(ref_rest.iter().copied());
                assert_eq!(pops, expected, "src {src:?} -> dst {dst:?} cut {cut}");
                assert_eq!(restored.popped(), reference.popped(), "{src:?}->{dst:?}");
            }
        }
    }

    #[test]
    fn snapshot_of_empty_queue_round_trips() {
        let q: EventQueue<u64> = EventQueue::new();
        let snap = q.snapshot();
        assert!(snap.events.is_empty());
        let mut restored: EventQueue<u64> = EventQueue::new();
        restored.load_snapshot(snap);
        assert!(restored.is_empty());
        assert_eq!(restored.popped(), 0);
    }

    #[test]
    #[should_panic(expected = "fresh queue")]
    fn load_snapshot_rejects_used_queue() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_nanos(1), 1);
        let snap = q.snapshot();
        q.load_snapshot(snap);
    }

    #[test]
    fn snapshot_mid_tie_burst_preserves_fifo() {
        // The hardest internal state: a wheel mid-drain with fused
        // pending runs. Snapshot must linearize it exactly.
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos(1_000);
        for i in 0..40 {
            q.push(t, i);
        }
        for _ in 0..20 {
            q.pop();
        }
        for i in 40..50 {
            q.push(t, i); // fused same-instant pushes mid-drain
        }
        let snap = q.snapshot();
        let mut restored: EventQueue<u32> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        restored.load_snapshot(snap);
        let a: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        let b: Vec<u32> = restored.drain().map(|(_, e)| e).collect();
        assert_eq!(a, b);
        assert_eq!(a, (20..50).collect::<Vec<u32>>());
    }

    #[test]
    fn differential_same_time_bursts() {
        // Lockstep bursts (64 nodes completing simultaneously) with
        // occasional jumps past the wheel horizon.
        let mut ops = Vec::new();
        for round in 0..40u64 {
            for _ in 0..64 {
                ops.push((1u8, (round % 3) * (1 << BUCKET_SHIFT)));
            }
            // A couple of far-future stragglers each round.
            ops.push((1, (WHEEL_BUCKETS as u64 + 3) << BUCKET_SHIFT));
            for _ in 0..60 {
                ops.push((0, 0));
            }
        }
        differential(&ops);
    }

    proptest! {
        /// Popped event times are non-decreasing for any insertion order.
        #[test]
        fn prop_pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            for backend in BACKENDS {
                let mut q = queue_u64(backend);
                for &t in &times {
                    q.push(SimTime::from_nanos(t), t);
                }
                let mut last = 0u64;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_nanos() >= last);
                    last = t.as_nanos();
                }
            }
        }

        /// Every pushed event is popped exactly once.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            for backend in BACKENDS {
                let mut q = EventQueue::with_backend(backend);
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut seen: Vec<usize> = q.drain().map(|(_, e)| e).collect();
                seen.sort_unstable();
                let expected: Vec<usize> = (0..times.len()).collect();
                prop_assert_eq!(seen, expected);
            }
        }

        /// Snapshot differential: a random workload paused at a random
        /// boundary, snapshotted, and restored into every backend (all
        /// source × destination pairs) finishes byte-identical to the
        /// uninterrupted run.
        #[test]
        fn prop_snapshot_restore_is_transparent(seed in 0u64..120, cut_frac in 0u64..100) {
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            let mut ops: Vec<(u8, u64)> = Vec::with_capacity(200);
            for _ in 0..200 {
                let op = rng.next_below(3) as u8;
                let dt = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(1 << BUCKET_SHIFT),
                    2 => rng.next_below((WHEEL_BUCKETS as u64) << BUCKET_SHIFT),
                    _ => rng.next_below((4 * WHEEL_BUCKETS as u64) << BUCKET_SHIFT),
                };
                ops.push((op, dt));
            }
            let cut = (ops.len() as u64 * cut_frac / 100) as usize;
            snapshot_differential(&ops, cut);
        }

        /// Differential: random interleaved push/pop workloads produce
        /// identical pop sequences (order, FIFO ties, and conservation)
        /// on the arena wheel and the reference heap.
        #[test]
        fn prop_wheel_matches_heap(seed in 0u64..400) {
            let mut rng = SplitMix64::new(seed);
            let mut ops: Vec<(u8, u64)> = Vec::with_capacity(400);
            for _ in 0..400 {
                let op = rng.next_below(3) as u8;
                // Mix of scheduling distances: same-instant ties, intra-
                // bucket, cross-bucket, and beyond-horizon overflow.
                let dt = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(1 << BUCKET_SHIFT),
                    2 => rng.next_below((WHEEL_BUCKETS as u64) << BUCKET_SHIFT),
                    _ => rng.next_below((4 * WHEEL_BUCKETS as u64) << BUCKET_SHIFT),
                };
                ops.push((op, dt));
            }
            differential(&ops);
        }
    }
}
