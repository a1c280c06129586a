//! Queueing servers used to model contended resources.
//!
//! The paper's Howsim models I/O interconnects with "a simple queue-based
//! model that has parameters for startup latency, transfer speed and the
//! capacity of the interconnect". [`FifoServer`] is that model: a
//! single-capacity resource that serves jobs in arrival order. A job offered
//! at time `t` begins service at `max(t, free_at)` and completes after its
//! service time; the server records busy time per job *tag* so execution-time
//! breakdowns (paper Figure 3) fall out of the accounting.

use crate::state::{intern, StateError, StateReader, StateWriter};
use crate::time::{Duration, SimTime};

/// A single-capacity FIFO queueing server (one CPU, one disk arm, one link).
///
/// # Example
///
/// ```
/// use simcore::{FifoServer, SimTime, Duration};
///
/// let mut cpu = FifoServer::new();
/// let a = cpu.offer(SimTime::ZERO, Duration::from_micros(10), "sort");
/// let b = cpu.offer(SimTime::ZERO, Duration::from_micros(5), "merge");
/// assert_eq!(a.end.as_micros(), 10);
/// // Second job queues behind the first.
/// assert_eq!(b.start.as_micros(), 10);
/// assert_eq!(b.end.as_micros(), 15);
/// assert_eq!(cpu.busy_for("sort"), Duration::from_micros(10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    free_at: SimTime,
    busy_total: Duration,
    /// Cumulative time jobs spent queued before entering service
    /// (enqueue→dequeue). Together with `busy_total` (the service time)
    /// this decomposes every job's latency: wait + service.
    wait_total: Duration,
    /// Per-tag busy time, kept sorted by tag. A server sees a handful of
    /// distinct `&'static str` tags over millions of offers, so a sorted
    /// vec with a last-tag hint beats a `BTreeMap` on the event-loop hot
    /// path (no per-offer node traversal or allocation).
    busy_by_tag: Vec<(&'static str, Duration)>,
    /// Index of the most recently charged tag — consecutive offers
    /// usually share a tag, so this hit avoids the search entirely.
    last_tag: usize,
    jobs: u64,
}

/// The scheduled occupancy of a server by one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (>= offer time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Time spent waiting plus being served, measured from `offered`.
    #[must_use]
    pub fn latency(self, offered: SimTime) -> Duration {
        self.end.since(offered)
    }
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a job at time `now` requiring `service` time, accounted under
    /// `tag`. Returns when the job starts and completes.
    #[inline]
    pub fn offer(&mut self, now: SimTime, service: Duration, tag: &'static str) -> Grant {
        let start = now.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy_total += service;
        self.wait_total += start.since(now);
        self.charge_tag(tag, service);
        self.jobs += 1;
        Grant { start, end }
    }

    /// Offers a run of back-to-back jobs, each accounted under its own
    /// tag. Bit-identical with offering the parts one at a time at `now`:
    /// the first part starts at `max(now, free_at)`, the rest queue
    /// immediately behind it. The returned grant spans the whole run.
    /// An empty run leaves the server untouched.
    pub fn offer_run(
        &mut self,
        now: SimTime,
        parts: impl IntoIterator<Item = (Duration, &'static str)>,
    ) -> Grant {
        let start = now.max(self.free_at);
        let mut end = start;
        let mut any = false;
        for (service, tag) in parts {
            any = true;
            end += service;
            self.busy_total += service;
            self.charge_tag(tag, service);
            self.jobs += 1;
        }
        if any {
            self.free_at = end;
            // Only the head of the run waits; the rest ride back-to-back.
            self.wait_total += start.since(now);
        }
        Grant { start, end }
    }

    #[inline]
    fn charge_tag(&mut self, tag: &'static str, service: Duration) {
        if let Some(&mut (t, ref mut d)) = self.busy_by_tag.get_mut(self.last_tag) {
            // Static tags are almost always the same literal, so pointer
            // identity settles the common case without a comparison walk.
            if std::ptr::eq(t, tag) {
                *d += service;
                return;
            }
        }
        // Tags are interned literals, so pointer identity also finds
        // entries charged under a different tag last time; the
        // content-comparing search below only runs the first time a
        // distinct literal address shows up.
        if let Some(i) = self
            .busy_by_tag
            .iter()
            .position(|&(t, _)| std::ptr::eq(t, tag))
        {
            self.busy_by_tag[i].1 += service;
            self.last_tag = i;
            return;
        }
        match self.busy_by_tag.binary_search_by(|&(t, _)| t.cmp(tag)) {
            Ok(i) => {
                self.busy_by_tag[i].1 += service;
                self.last_tag = i;
            }
            Err(i) => {
                self.busy_by_tag.insert(i, (tag, service));
                self.last_tag = i;
            }
        }
    }

    /// The earliest time a new job could begin service.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time this server has been (or is scheduled to be) busy.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Total time jobs spent queued before their service began. Zero on a
    /// server that never made a job wait.
    pub fn wait_total(&self) -> Duration {
        self.wait_total
    }

    /// Busy time attributed to `tag`.
    pub fn busy_for(&self, tag: &str) -> Duration {
        self.busy_by_tag
            .binary_search_by(|&(t, _)| t.cmp(tag))
            .map(|i| self.busy_by_tag[i].1)
            .unwrap_or(Duration::ZERO)
    }

    /// Iterates over `(tag, busy time)` pairs in tag order.
    pub fn busy_breakdown(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.busy_by_tag.iter().map(|&(t, d)| (t, d))
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of `elapsed` this server was busy (clamped to [0, 1]).
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy_total.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }

    /// Serializes the server for checkpointing (all times in exact
    /// nanoseconds; per-tag breakdown in tag order).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("free_at", self.free_at.as_nanos());
        w.field("busy", self.busy_total.as_nanos());
        w.field("wait", self.wait_total.as_nanos());
        w.field("jobs", self.jobs);
        w.field("tags", self.busy_by_tag.len());
        for &(tag, d) in &self.busy_by_tag {
            w.named("tag", d.as_nanos(), tag);
        }
    }

    /// Reconstructs a server from checkpoint text.
    ///
    /// Tag names are re-interned: content equality is preserved and the
    /// accounting path falls back from pointer identity to content
    /// comparison, so restored servers charge tags identically.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let free_at = SimTime::from_nanos(r.num("free_at")?);
        let busy_total = Duration::from_nanos(r.num("busy")?);
        let wait_total = Duration::from_nanos(r.num("wait")?);
        let jobs = r.num("jobs")?;
        let busy_by_tag = r.counted("tags", |r| {
            let (ns, name) = r.named("tag")?;
            Ok((intern(name), Duration::from_nanos(ns)))
        })?;
        Ok(FifoServer {
            free_at,
            busy_total,
            wait_total,
            busy_by_tag,
            // The hint is a pure perf cache; 0 is always a valid value.
            last_tag: 0,
            jobs,
        })
    }
}

/// A bank of `k` identical FIFO servers with join-shortest-completion
/// dispatch, modelling resources with internal parallelism (an I/O subsystem
/// with several I/O nodes, a striped disk group's bus set, etc.).
///
/// # Example
///
/// ```
/// use simcore::{MultiServer, SimTime, Duration};
///
/// let mut xio = MultiServer::new(2);
/// let a = xio.offer(SimTime::ZERO, Duration::from_micros(10), "io");
/// let b = xio.offer(SimTime::ZERO, Duration::from_micros(10), "io");
/// // Two channels: both jobs run concurrently.
/// assert_eq!(a.end, b.end);
/// ```
#[derive(Debug, Clone)]
pub struct MultiServer {
    lanes: Vec<FifoServer>,
}

impl MultiServer {
    /// Creates a bank of `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "MultiServer requires at least one lane");
        MultiServer {
            lanes: vec![FifoServer::new(); k],
        }
    }

    /// Offers a job to the lane that will complete it earliest.
    pub fn offer(&mut self, now: SimTime, service: Duration, tag: &'static str) -> Grant {
        let lane = self
            .lanes
            .iter_mut()
            .min_by_key(|l| l.free_at())
            .expect("MultiServer has at least one lane");
        lane.offer(now, service, tag)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total busy time across all lanes.
    pub fn busy_total(&self) -> Duration {
        self.lanes.iter().map(FifoServer::busy_total).sum()
    }

    /// Total queueing (wait) time across all lanes.
    pub fn wait_total(&self) -> Duration {
        self.lanes.iter().map(FifoServer::wait_total).sum()
    }

    /// Aggregate utilization across lanes over `elapsed`.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let cap = elapsed.as_secs_f64() * self.lanes.len() as f64;
        (self.busy_total().as_secs_f64() / cap).min(1.0)
    }

    /// Serializes the bank for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("lanes", self.lanes.len());
        for lane in &self.lanes {
            lane.save_state(w);
        }
    }

    /// Reconstructs a bank from checkpoint text.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input or a zero lane count.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let lanes = r.counted("lanes", FifoServer::load_state)?;
        if lanes.is_empty() {
            return Err(StateError::new("MultiServer with zero lanes"));
        }
        Ok(MultiServer { lanes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let g = s.offer(SimTime::from_nanos(100), Duration::from_nanos(50), "t");
        assert_eq!(g.start, SimTime::from_nanos(100));
        assert_eq!(g.end, SimTime::from_nanos(150));
    }

    #[test]
    fn busy_server_queues() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(100), "a");
        let g = s.offer(SimTime::from_nanos(10), Duration::from_nanos(5), "b");
        assert_eq!(g.start, SimTime::from_nanos(100));
        assert_eq!(g.end, SimTime::from_nanos(105));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(10), "a");
        s.offer(SimTime::from_nanos(100), Duration::from_nanos(10), "a");
        assert_eq!(s.busy_total(), Duration::from_nanos(20));
        assert_eq!(s.free_at(), SimTime::from_nanos(110));
    }

    #[test]
    fn tag_accounting_separates_operators() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(7), "partition");
        s.offer(SimTime::ZERO, Duration::from_nanos(3), "sort");
        s.offer(SimTime::ZERO, Duration::from_nanos(5), "partition");
        assert_eq!(s.busy_for("partition"), Duration::from_nanos(12));
        assert_eq!(s.busy_for("sort"), Duration::from_nanos(3));
        assert_eq!(s.busy_for("absent"), Duration::ZERO);
        let tags: Vec<_> = s.busy_breakdown().map(|(t, _)| t).collect();
        assert_eq!(tags, vec!["partition", "sort"]);
    }

    #[test]
    fn wait_accounting_decomposes_latency() {
        let mut s = FifoServer::new();
        // First job starts immediately: no wait.
        s.offer(SimTime::ZERO, Duration::from_nanos(100), "a");
        assert_eq!(s.wait_total(), Duration::ZERO);
        // Second job offered at t=20 waits until t=100.
        s.offer(SimTime::from_nanos(20), Duration::from_nanos(10), "a");
        assert_eq!(s.wait_total(), Duration::from_nanos(80));
        // A run offered at t=50 queues behind everything as one unit.
        let g = s.offer_run(
            SimTime::from_nanos(50),
            [
                (Duration::from_nanos(5), "a"),
                (Duration::from_nanos(5), "b"),
            ],
        );
        assert_eq!(g.start, SimTime::from_nanos(110));
        assert_eq!(s.wait_total(), Duration::from_nanos(140));
        // An empty run neither serves nor waits.
        let before = s.wait_total();
        s.offer_run(SimTime::ZERO, std::iter::empty());
        assert_eq!(s.wait_total(), before);
    }

    #[test]
    fn multiserver_wait_sums_lanes() {
        let mut m = MultiServer::new(2);
        for _ in 0..3 {
            m.offer(SimTime::ZERO, Duration::from_nanos(10), "x");
        }
        // Two jobs ran immediately; the third waited a full service time.
        assert_eq!(m.wait_total(), Duration::from_nanos(10));
    }

    #[test]
    fn latency_includes_queueing() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(100), "a");
        let offered = SimTime::from_nanos(20);
        let g = s.offer(offered, Duration::from_nanos(10), "a");
        assert_eq!(g.latency(offered), Duration::from_nanos(90));
    }

    #[test]
    fn utilization_is_clamped_and_sane() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(50), "a");
        assert!((s.utilization(Duration::from_nanos(100)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(Duration::ZERO), 0.0);
    }

    #[test]
    fn multiserver_parallelism() {
        let mut m = MultiServer::new(3);
        let ends: Vec<_> = (0..3)
            .map(|_| m.offer(SimTime::ZERO, Duration::from_nanos(10), "x").end)
            .collect();
        assert!(ends.iter().all(|&e| e == SimTime::from_nanos(10)));
        // Fourth job must queue.
        let g = m.offer(SimTime::ZERO, Duration::from_nanos(10), "x");
        assert_eq!(g.end, SimTime::from_nanos(20));
        assert_eq!(m.lanes(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn multiserver_rejects_zero_lanes() {
        let _ = MultiServer::new(0);
    }

    #[test]
    fn fifo_state_round_trips_and_continues_identically() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, Duration::from_nanos(7), "partition");
        s.offer(SimTime::ZERO, Duration::from_nanos(3), "sort");
        s.offer(SimTime::from_nanos(2), Duration::from_nanos(5), "partition");

        let mut w = crate::state::StateWriter::new();
        s.save_state(&mut w);
        let text = w.finish();
        let mut r = crate::state::StateReader::new(&text);
        let mut restored = FifoServer::load_state(&mut r).unwrap();
        assert!(r.done());

        assert_eq!(restored.free_at(), s.free_at());
        assert_eq!(restored.busy_total(), s.busy_total());
        assert_eq!(restored.wait_total(), s.wait_total());
        assert_eq!(restored.jobs(), s.jobs());
        assert_eq!(restored.busy_for("partition"), s.busy_for("partition"));

        // Continuation is bit-identical: the next offer schedules the same.
        let a = s.offer(SimTime::from_nanos(9), Duration::from_nanos(4), "sort");
        let b = restored.offer(SimTime::from_nanos(9), Duration::from_nanos(4), "sort");
        assert_eq!(a, b);
        assert_eq!(restored.busy_for("sort"), s.busy_for("sort"));
    }

    #[test]
    fn multiserver_state_round_trips() {
        let mut m = MultiServer::new(3);
        for i in 0..5u64 {
            m.offer(SimTime::from_nanos(i), Duration::from_nanos(10 + i), "x");
        }
        let mut w = crate::state::StateWriter::new();
        m.save_state(&mut w);
        let text = w.finish();
        let mut r = crate::state::StateReader::new(&text);
        let mut restored = MultiServer::load_state(&mut r).unwrap();
        assert!(r.done());
        assert_eq!(restored.lanes(), 3);
        assert_eq!(restored.busy_total(), m.busy_total());
        let a = m.offer(SimTime::from_nanos(20), Duration::from_nanos(6), "x");
        let b = restored.offer(SimTime::from_nanos(20), Duration::from_nanos(6), "x");
        assert_eq!(a, b);
    }

    proptest! {
        /// Service is conserved: total busy equals the sum of offered service
        /// times, and completion times never precede start times.
        #[test]
        fn prop_fifo_conserves_service(jobs in proptest::collection::vec((0u64..1000, 1u64..100), 1..50)) {
            let mut s = FifoServer::new();
            let mut offered = Duration::ZERO;
            let mut sorted = jobs.clone();
            sorted.sort(); // offers must be in nondecreasing time order
            for (t, d) in sorted {
                let g = s.offer(SimTime::from_nanos(t), Duration::from_nanos(d), "j");
                offered += Duration::from_nanos(d);
                prop_assert!(g.end >= g.start);
                prop_assert!(g.start >= SimTime::from_nanos(t));
            }
            prop_assert_eq!(s.busy_total(), offered);
        }

        /// A MultiServer with k lanes is never slower than a FifoServer and
        /// never faster than service/k in aggregate.
        #[test]
        fn prop_multiserver_bounds(k in 1usize..8, n in 1u64..40, svc in 1u64..100) {
            let mut m = MultiServer::new(k);
            let mut last_end = SimTime::ZERO;
            for _ in 0..n {
                let g = m.offer(SimTime::ZERO, Duration::from_nanos(svc), "x");
                last_end = last_end.max(g.end);
            }
            let total = svc * n;
            let lower = total.div_ceil(k as u64);
            prop_assert!(last_end.as_nanos() >= lower);
            prop_assert!(last_end.as_nanos() <= total);
        }
    }
}
