//! The discrete-event executor: runs a task's phase plans on a machine.

use std::collections::{BTreeMap, VecDeque};

use arch::Architecture;
use simcore::span::{SpanArena, SpanId, SpanKind, SpanResource, FRONT_END_NODE};
use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Duration, EventQueue, QueueBackend, QueueSnapshot, SimTime, SplitMix64};
use tasks::plan::{CpuWork, PhasePlan, TaskPlan};
use tasks::{plan_task, TaskKind};

use crate::faults::{
    FaultEvent, FaultKind, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT, RETRY_TIMEOUT,
};
use crate::machine::Machine;
use crate::metrics::{MetricsBuilder, Resource, ResourceUsage};
use crate::profile::{PhaseSpans, SpanTrace};
use crate::report::{load_resources, load_tag_map, save_resources, save_tag_map};
use crate::report::{PhaseReport, Report};
use crate::trace::{NodeId, Trace, TraceEvent, TraceKind};
use crate::BATCH_BYTES;

/// Synthetic critical-path resource for phase-boundary barriers.
pub(crate) const BARRIER_RESOURCE: &str = "barrier";
/// Synthetic critical-path resource for out-of-band disk positioning at
/// phase end (merge run switches).
pub(crate) const POSITIONING_RESOURCE: &str = "disk_positioning";

/// A configured simulation: one architecture, ready to run tasks.
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::Simulation;
/// use tasks::TaskKind;
///
/// let sim = Simulation::new(Architecture::cluster(16));
/// let report = sim.run(TaskKind::Aggregate);
/// assert_eq!(report.architecture, "Cluster");
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    arch: Architecture,
    degraded: Vec<(usize, u64)>,
    queue_backend: QueueBackend,
    seed: u64,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
}

/// Events of the phase executor. The `span` on each work event is the
/// span that completes when the event fires ([`SpanId::NONE`] unless the
/// run is profiled) — the causal parent of whatever the handler does
/// next. The `query` field attributes every work event to the query it
/// belongs to: single-query runs use lane 0, the multi-query executor
/// ([`crate::mqexec`]) interleaves many lanes on one queue. Payload
/// fields never affect the `(time, seq)` pop order, so threading the
/// query id leaves single-query reports byte-identical.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A batch finished reading from disk at a node.
    BatchRead {
        node: usize,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A node's CPU finished processing a scanned batch.
    BatchProcessed {
        node: usize,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A repartitioned batch arrived at a peer.
    PeerArrive {
        src: usize,
        dst: usize,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A peer finished its receive-side CPU work on a batch.
    RecvProcessed {
        node: usize,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// Data arrived at the front-end.
    FeArrive {
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// The failure of `node` is detected (its request timeouts expired):
    /// recovery of its remaining partition begins for `query`.
    RecoveryKick { node: usize, query: u32 },
    /// Control events of the multi-query executor (never seen by the
    /// single-query phase loop): a query arrives at the admission
    /// controller.
    Admit { query: u32 },
    /// A query's phase barrier completed; start its next phase (or
    /// finish). Tagged with the attempt so stale barriers of a cancelled
    /// attempt are ignored.
    PhaseStart { query: u32, attempt: u32 },
    /// A query attempt's deadline expired.
    Deadline { query: u32, attempt: u32 },
    /// A cancelled query's backoff elapsed; restart when its in-flight
    /// events have drained.
    Retry { query: u32 },
}

impl Ev {
    /// The query a *work* event belongs to (None for control events —
    /// they carry no machine work and are not counted as outstanding).
    #[inline]
    pub(crate) fn work_query(&self) -> Option<u32> {
        match *self {
            Ev::BatchRead { query, .. }
            | Ev::BatchProcessed { query, .. }
            | Ev::PeerArrive { query, .. }
            | Ev::RecvProcessed { query, .. }
            | Ev::FeArrive { query, .. }
            | Ev::RecoveryKick { query, .. } => Some(query),
            Ev::Admit { .. } | Ev::PhaseStart { .. } | Ev::Deadline { .. } | Ev::Retry { .. } => {
                None
            }
        }
    }
}

/// Push sink over the event queue that optionally counts each query's
/// outstanding work events (the multi-query executor's phase-completion
/// signal). The single-query path passes `counts: None` — one `Option`
/// check per push, the same off-cost pattern as tracing and metrics.
pub(crate) struct EvQ<'a> {
    pub(crate) q: &'a mut EventQueue<Ev>,
    pub(crate) counts: Option<&'a mut Vec<u64>>,
}

impl EvQ<'_> {
    #[inline]
    pub(crate) fn push(&mut self, t: SimTime, ev: Ev) {
        if let Some(c) = self.counts.as_deref_mut() {
            if let Some(q) = ev.work_query() {
                c[q as usize] += 1;
            }
        }
        self.q.push(t, ev);
    }
}

/// Span-recording runtime of one profiled run: the arena plus the
/// last-ending span of the current phase (the critical-path anchor).
/// The multi-query executor swaps `last`/`last_end` per query around
/// each event so every query keeps its own anchor chain.
#[derive(Clone)]
pub(crate) struct SpanRt {
    pub(crate) arena: SpanArena,
    /// Last-ending retained span of the current phase; later records at
    /// the same end time win, which is deterministic because record
    /// order follows the (backend-invariant) event pop order.
    pub(crate) last: SpanId,
    pub(crate) last_end: SimTime,
    pub(crate) phases: Vec<PhaseSpans>,
}

impl SpanRt {
    pub(crate) fn new() -> Self {
        SpanRt {
            arena: SpanArena::enabled(),
            last: SpanId::NONE,
            last_end: SimTime::ZERO,
            phases: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        parent: SpanId,
        resource: impl Into<SpanResource>,
        kind: SpanKind,
        node: u32,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        let id = self
            .arena
            .record(parent, resource, kind, node, start, end, bytes);
        if id.is_some() && end >= self.last_end {
            self.last = id;
            self.last_end = end;
        }
        id
    }
}

/// Records a span if profiling is enabled — one `Option` check per site
/// when it is not.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn span(
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    resource: Resource,
    kind: SpanKind,
    node: u32,
    start: SimTime,
    end: SimTime,
    bytes: u64,
) -> SpanId {
    match spans {
        Some(s) => s.record(
            parent,
            resource.span_resource(),
            kind,
            node,
            start,
            end,
            bytes,
        ),
        None => SpanId::NONE,
    }
}

/// Costs that are identical for every full-sized batch of a phase,
/// computed once at phase start instead of per event. Almost every batch
/// the executor handles is exactly [`BATCH_BYTES`], so the hot loop reads
/// these precomputed durations and only falls back to the float math for
/// odd-sized tail batches. The cached values are produced by the *same*
/// expressions as the fallback path, so results are bit-identical.
#[derive(Clone)]
pub(crate) struct PhaseCosts {
    /// OS issue+complete+dispatch per batch, already scaled by CPU perf.
    os_batch: Duration,
    /// Per-work-item CPU cost of scanning one full batch (`read_cpu`).
    read_batch: Vec<Duration>,
    /// Per-work-item CPU cost of receiving one full batch (`recv_cpu`).
    recv_batch: Vec<Duration>,
    /// Messaging-library CPU cost of sending one full batch.
    msg_batch: Duration,
    /// Front-end CPU cost of absorbing one full batch.
    fe_batch: Duration,
    /// Node CPU relative performance.
    perf: f64,
    /// Front-end CPU relative performance.
    fe_perf: f64,
}

impl PhaseCosts {
    pub(crate) fn new(m: &Machine, phase: &PhasePlan) -> Self {
        let perf = m.node_cpu().relative_perf;
        let fe_perf = m.fe_cpu_spec().relative_perf;
        let os_per_batch = m.os().io_issue() + m.os().io_complete() + diskos::DISPATCH_OVERHEAD;
        let batch_cost = |work: &[CpuWork]| -> Vec<Duration> {
            work.iter()
                .map(|w| cpu_cost(w.ns_per_byte, BATCH_BYTES, perf))
                .collect()
        };
        PhaseCosts {
            os_batch: os_per_batch.scale(1.0 / perf),
            read_batch: batch_cost(&phase.read_cpu),
            recv_batch: batch_cost(&phase.recv_cpu),
            msg_batch: m.msg_cost(BATCH_BYTES).scale(1.0 / perf),
            fe_batch: cpu_cost(phase.frontend_cpu_ns_per_byte, BATCH_BYTES, fe_perf),
            perf,
            fe_perf,
        }
    }

    /// Messaging CPU cost for `bytes`, cached for full batches.
    fn msg_cost(&self, m: &Machine, bytes: u64) -> Duration {
        if bytes == BATCH_BYTES {
            self.msg_batch
        } else {
            m.msg_cost(bytes).scale(1.0 / self.perf)
        }
    }
}

/// CPU time to process `bytes` at `ns_per_byte` on a CPU of relative
/// performance `perf`. The single source of the executor's cost formula:
/// cached batch costs and the odd-size fallback both call this.
pub(crate) fn cpu_cost(ns_per_byte: f64, bytes: u64, perf: f64) -> Duration {
    Duration::from_secs_f64(ns_per_byte * bytes as f64 / 1e9 / perf)
}

/// Per-node executor state within one phase.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// Bytes this node reads in the phase (the plan total split across
    /// nodes, remainder distributed so no byte is dropped).
    pub(crate) bytes_total: u64,
    pub(crate) batches_total: u64,
    /// Batches served from this node's own disk; `batches_total` exceeds
    /// this when recovery work for a failed peer has been assigned here.
    pub(crate) own_batches: u64,
    pub(crate) issued: u64,
    pub(crate) issued_bytes: u64,
    pub(crate) processed: u64,
    pub(crate) last_batch_bytes: u64,
    /// Batch sizes of recovery work (a failed peer's partition) assigned
    /// to this node, read via the surviving disks.
    pub(crate) recovery_pending: VecDeque<u64>,
    /// The node's disk has fail-stopped: it issues no reads, loses
    /// in-flight work, and drops arriving messages.
    pub(crate) dead: bool,
    /// The final front-end/reduction message has been sent (guards
    /// against re-sending when recovery work re-arms `finished`).
    pub(crate) fe_sent: bool,
    pub(crate) next_dst: usize,
    /// Weighted-fair picks this node has taken in the phase: its next
    /// destination on a skewed shuffle is the phase [`DstSchedule`]'s
    /// entry at this index (unused under uniform round robin).
    pub(crate) dst_picks: usize,
    pub(crate) write_credit: f64,
    pub(crate) shuffle_credit: f64,
    pub(crate) frontend_credit: f64,
}

impl NodeState {
    /// Picks the next shuffle destination: the phase schedule's next
    /// weighted-fair entry on a skewed shuffle, else uniform round robin.
    fn pick_dst(&mut self, sched: Option<&mut DstSchedule>, n: usize) -> usize {
        match sched {
            Some(s) => {
                let dst = s.pick(self.dst_picks);
                self.dst_picks += 1;
                dst
            }
            None => {
                let dst = self.next_dst;
                self.next_dst = (self.next_dst + 1) % n;
                dst
            }
        }
    }
}

/// The weighted-fair destination sequence of one skewed shuffle phase
/// (one per query and phase, built next to [`PhaseCosts`]).
///
/// Weighted-fair dispatch credits every destination `w[i] / Σw` per
/// message, sends to the most-credited one (the last on a tie), and
/// charges it one credit. Every sender starts from zero credits under
/// the same weights, so all senders walk the same sequence: the phase
/// computes it once, one O(n) step whenever the first node reaches a
/// new index, and each node keeps only its pick count
/// ([`NodeState::dst_picks`]). The float operations are those of a
/// per-node credit vector, in the same order, so every pick is
/// bit-identical to one.
#[derive(Debug, Clone)]
pub(crate) struct DstSchedule {
    /// Per-pick credit increments `w[i] / Σw` (the sum taken once, left
    /// to right).
    inc: Vec<f64>,
    /// Credits after `picks.len()` picks.
    credits: Vec<f64>,
    /// Destinations picked so far, in order.
    picks: Vec<usize>,
}

impl DstSchedule {
    /// The schedule of `phase` on `n` nodes; `None` when the phase
    /// shuffles uniformly (round robin).
    ///
    /// # Panics
    ///
    /// Panics if the phase's weights do not cover exactly `n` nodes.
    pub(crate) fn for_phase(phase: &PhasePlan, n: usize) -> Option<Self> {
        let w = phase.shuffle_weights.as_ref()?;
        assert_eq!(w.len(), n, "shuffle weights must cover every node");
        let total: f64 = w.iter().sum();
        Some(DstSchedule {
            inc: w.iter().map(|wi| wi / total).collect(),
            credits: vec![0.0; n],
            picks: Vec::new(),
        })
    }

    /// Number of destinations (nodes).
    fn nodes(&self) -> usize {
        self.inc.len()
    }

    /// The `j`-th destination. A node asks for its picks in order, so
    /// `j` is at most one past the computed prefix.
    fn pick(&mut self, j: usize) -> usize {
        debug_assert!(j <= self.picks.len(), "pick {j} skips ahead");
        if j == self.picks.len() {
            let dst = credit_step(&mut self.credits, &self.inc, None);
            self.picks.push(dst);
        }
        self.picks[j]
    }

    /// The credit vectors of nodes that have taken `counts[i]` picks
    /// (each at most the computed prefix): the per-node state a
    /// checkpoint stores. One replay along the schedule serves every
    /// node, copying each vector out as the walk reaches its count.
    fn credits_at(&self, counts: &[usize]) -> Vec<Vec<f64>> {
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| counts[i]);
        let mut out = vec![Vec::new(); counts.len()];
        let mut replay = vec![0.0; self.nodes()];
        let mut j = 0;
        for i in order {
            for &dst in &self.picks[j..counts[i]] {
                credit_step(&mut replay, &self.inc, Some(dst));
            }
            j = counts[i];
            out[i].clone_from(&replay);
        }
        out
    }

    /// Maps stored `(credits, bound)` pairs back to pick counts in one
    /// walk along the schedule: each gets the smallest `j <= bound`
    /// whose replayed credits equal its vector bit for bit. Equal
    /// credits mean an equal future (each pick is a function of the
    /// credit vector alone), so the smallest match resumes exactly.
    /// `None` when some vector matches nothing up to its bound; the walk
    /// never goes past the largest bound.
    fn counts_of(&mut self, stored: &[(Vec<f64>, usize)]) -> Option<Vec<usize>> {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let mut counts: Vec<Option<usize>> = vec![None; stored.len()];
        let mut open = stored.len();
        let last = stored.iter().map(|&(_, bound)| bound).max().unwrap_or(0);
        let mut replay = vec![0.0; self.nodes()];
        for j in 0..=last {
            for ((credits, bound), count) in stored.iter().zip(&mut counts) {
                if count.is_none() && j <= *bound && same(&replay, credits) {
                    *count = Some(j);
                    open -= 1;
                }
            }
            if open == 0 || j == last {
                break;
            }
            let dst = self.pick(j);
            credit_step(&mut replay, &self.inc, Some(dst));
        }
        counts.into_iter().collect()
    }
}

/// One weighted-fair step: credits every destination its increment,
/// then charges one credit to `dst` — or, when `None`, to the
/// most-credited destination (`max_by` keeps the last of equal maxima).
/// Returns the charged destination.
fn credit_step(credits: &mut [f64], inc: &[f64], dst: Option<usize>) -> usize {
    for (c, i) in credits.iter_mut().zip(inc) {
        *c += i;
    }
    let dst = dst.unwrap_or_else(|| {
        credits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite credits"))
            .map(|(i, _)| i)
            .expect("at least one destination")
    });
    credits[dst] -= 1.0;
    dst
}

/// Fault-injection runtime: persists across phases of one run, applying
/// scheduled faults as simulated time reaches them and steering recovery.
/// The multi-query executor keeps one *global* `FaultRt` for the shared
/// fault schedule and machine effects, plus one empty-schedule `FaultRt`
/// per query carrying that query's recovery bookkeeping (pool, detection
/// view, round-robin cursor).
#[derive(Clone)]
pub(crate) struct FaultRt {
    /// Scheduled faults in chronological order (absolute offsets).
    pub(crate) events: Vec<FaultEvent>,
    /// Index of the first not-yet-applied fault.
    pub(crate) next: usize,
    pub(crate) policy: RecoveryPolicy,
    /// Whether a node's fail-stop has been *detected* (request timeouts
    /// expired); until then peers keep sending to it and pay retries.
    pub(crate) detected: Vec<bool>,
    /// Lost batches awaiting reassignment, as `(origin node, bytes)`.
    /// Entries stay pooled until the origin's failure is detected.
    pub(crate) pool: Vec<(usize, u64)>,
    /// Round-robin cursor spreading recovery batches over survivors.
    pub(crate) rr: usize,
    pub(crate) rng: SplitMix64,
    pub(crate) injected: u64,
    /// Fail-stop policy: the run aborts when the clock reaches this.
    pub(crate) abort_at: Option<SimTime>,
    /// Fast-path guard: true once any disk has fail-stopped.
    pub(crate) any_dead: bool,
}

impl FaultRt {
    pub(crate) fn new(plan: &FaultPlan, policy: RecoveryPolicy, seed: u64, nodes: usize) -> Self {
        FaultRt {
            events: plan.events().to_vec(),
            next: 0,
            policy,
            detected: vec![false; nodes],
            pool: Vec::new(),
            rr: 0,
            rng: SplitMix64::new(seed),
            injected: 0,
            abort_at: None,
            any_dead: false,
        }
    }

    /// Whether any scheduled fault has not been applied yet.
    #[inline]
    pub(crate) fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Applies machine-level effects of one fault at its due time `t`.
    /// Returns the failed node index for fail-stops so the caller can do
    /// the executor-side bookkeeping (which differs at phase start vs
    /// mid-phase).
    pub(crate) fn apply_machine(
        &mut self,
        m: &mut Machine,
        ev: FaultEvent,
        t: SimTime,
    ) -> Option<usize> {
        match ev.kind {
            FaultKind::DiskFailStop { node } => {
                if node >= m.nodes() || m.disk_failed(node) {
                    return None;
                }
                m.fail_disk(node, t);
                self.any_dead = true;
                self.injected += 1;
                if self.policy == RecoveryPolicy::FailStop {
                    let abort = t + DETECT_TIMEOUT;
                    self.abort_at = Some(self.abort_at.map_or(abort, |prev| prev.min(abort)));
                }
                Some(node)
            }
            FaultKind::MediaBurst { node, defects } => {
                if node < m.nodes() && !m.disk_failed(node) {
                    m.degrade_disk_seeded(node, defects as u64, &mut self.rng);
                    self.injected += 1;
                }
                None
            }
            FaultKind::LinkFault { node, severity } => {
                if node < m.nodes() {
                    m.interconnect_fault(node, severity);
                    self.injected += 1;
                }
                None
            }
        }
    }

    /// Applies every fault due at or before `start` (the phase boundary is
    /// a synchronization point, so failures surfacing in the barrier gap
    /// are already *detected* when the next phase begins).
    fn apply_phase_start(&mut self, m: &mut Machine, start: SimTime) {
        while self.pending() {
            let ev = self.events[self.next];
            let t = SimTime::ZERO + ev.at;
            if t > start {
                break;
            }
            self.next += 1;
            if let Some(node) = self.apply_machine(m, ev, t) {
                self.detected[node] = true;
            }
        }
    }

    /// Reassigns every pooled batch whose origin's failure is detected,
    /// round-robin over survivors. Returns the indices of survivors that
    /// received work (empty when nothing was assignable). Sets the abort
    /// clock if no survivor remains.
    pub(crate) fn assign_detected(&mut self, nodes: &mut [NodeState], now: SimTime) -> Vec<usize> {
        let mut touched = Vec::new();
        let healthy: Vec<usize> = (0..nodes.len()).filter(|&i| !nodes[i].dead).collect();
        let mut i = 0;
        while i < self.pool.len() {
            let (origin, bytes) = self.pool[i];
            if !self.detected[origin] {
                i += 1;
                continue;
            }
            if healthy.is_empty() {
                self.abort_at = Some(self.abort_at.map_or(now, |a| a.min(now)));
                return touched;
            }
            self.pool.remove(i);
            let target = healthy[self.rr % healthy.len()];
            self.rr += 1;
            nodes[target].batches_total += 1;
            nodes[target].recovery_pending.push_back(bytes);
            if !touched.contains(&target) {
                touched.push(target);
            }
        }
        touched
    }

    /// Applies every fault due at or before `now` mid-phase. A fail-stop
    /// pools the node's unissued work and (under a recovering policy)
    /// schedules its detection; in-flight work is lost lazily as its
    /// events pop.
    fn apply_due(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        nodes: &mut [NodeState],
        now: SimTime,
    ) {
        while self.pending() {
            let ev = self.events[self.next];
            let t = SimTime::ZERO + ev.at;
            if t > now {
                break;
            }
            self.next += 1;
            if let Some(node) = self.apply_machine(m, ev, t) {
                let st = &mut nodes[node];
                st.dead = true;
                // Its unissued own partition must be re-read elsewhere.
                for j in st.issued..st.own_batches {
                    let bytes = if j == st.own_batches - 1 {
                        st.last_batch_bytes
                    } else {
                        BATCH_BYTES
                    };
                    self.pool.push((node, bytes));
                }
                st.batches_total = st.issued;
                st.own_batches = st.issued;
                // Recovery work it had been assigned goes back too.
                while let Some(bytes) = st.recovery_pending.pop_front() {
                    self.pool.push((node, bytes));
                }
                if self.policy != RecoveryPolicy::FailStop {
                    q.push(
                        (t + DETECT_TIMEOUT).max(now),
                        Ev::RecoveryKick { node, query: 0 },
                    );
                }
            }
        }
    }
}

/// The first surviving node after `from` (wrapping), if any.
fn next_healthy(nodes: &[NodeState], from: usize) -> Option<usize> {
    let n = nodes.len();
    (1..=n).map(|k| (from + k) % n).find(|&i| !nodes[i].dead)
}

/// Tops survivors' pipelines back up to the read window after recovery
/// work lands on them (their own pipeline may already have drained, in
/// which case no `BatchProcessed` event would ever re-prime them).
#[allow(clippy::too_many_arguments)]
fn refill(
    m: &mut Machine,
    q: &mut EvQ,
    nodes: &mut [NodeState],
    touched: &[usize],
    now: SimTime,
    window: u64,
    region: usize,
    phase_writes: bool,
    policy: RecoveryPolicy,
    spans: &mut Option<&mut SpanRt>,
    qid: u32,
) {
    for &node in touched {
        while !nodes[node].dead
            && nodes[node].issued < nodes[node].batches_total
            && nodes[node].issued.saturating_sub(nodes[node].processed) < window
        {
            // Recovery-driven refills are rooted at the detection event,
            // not a prior span; the walker surfaces any gap they leave as
            // "unattributed".
            issue_read(
                m,
                q,
                nodes,
                node,
                now,
                region,
                phase_writes,
                policy,
                spans,
                SpanId::NONE,
                qid,
            );
        }
    }
}

impl Simulation {
    /// Creates a simulation of `arch`.
    pub fn new(arch: Architecture) -> Self {
        Simulation {
            arch,
            degraded: Vec::new(),
            queue_backend: QueueBackend::default(),
            seed: 0,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Seeds the simulation's random streams (today: media-burst defect
    /// placement). Part of a run's cache identity.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules deterministic fault injection for every run of this
    /// simulation. Fault times are absolute simulated-time offsets.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects how the system reacts when a disk fail-stops mid-run.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The configured RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The configured recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Selects the event-scheduler backend (differential testing and
    /// benchmarking; every backend produces byte-identical reports).
    #[must_use]
    pub fn with_queue_backend(mut self, backend: QueueBackend) -> Self {
        self.queue_backend = backend;
        self
    }

    /// Injects `grown_defects` remapped sectors into `node`'s drive before
    /// each run (straggler studies: one sick drive in a healthy farm).
    #[must_use]
    pub fn with_degraded_disk(mut self, node: usize, grown_defects: u64) -> Self {
        self.degraded.push((node, grown_defects));
        self
    }

    /// The architecture being simulated.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The configured event-scheduler backend.
    pub(crate) fn queue_backend(&self) -> QueueBackend {
        self.queue_backend
    }

    /// The injected per-node drive degradations, as `(node, grown_defects)`
    /// pairs in injection order (part of a run's cache identity).
    pub fn degraded_disks(&self) -> &[(usize, u64)] {
        &self.degraded
    }

    /// Plans and runs one of the eight workload tasks.
    pub fn run(&self, task: TaskKind) -> Report {
        let plan = plan_task(task, &self.arch);
        self.run_plan(&plan)
    }

    /// Runs an explicit phase plan (for custom workloads).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan(&self, plan: &TaskPlan) -> Report {
        self.run_plan_core(plan, None, None, false).0
    }

    /// Starts a pausable, forkable run of `plan` (see [`ExecRun`]): the
    /// copy-on-fork entry point. The run advances only when driven via
    /// [`ExecRun::run_until`] / [`ExecRun::finish`]; a run driven
    /// straight to completion produces a report bit-identical to
    /// [`Simulation::run_plan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn start<'p>(&self, plan: &'p TaskPlan) -> ExecRun<'p> {
        ExecRun::start_inner(self, plan, false)
    }

    /// Starts a pausable run with causal span profiling enabled; finish
    /// it with [`ExecRun::finish_profiled`]. Forks carry the prefix's
    /// span arena, so a forked continuation's critical path is identical
    /// to a from-scratch profiled run.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn start_profiled<'p>(&self, plan: &'p TaskPlan) -> ExecRun<'p> {
        ExecRun::start_inner(self, plan, true)
    }

    /// Plans and runs a task with causal span profiling enabled.
    pub fn run_profiled(&self, task: TaskKind) -> (Report, SpanTrace) {
        let plan = plan_task(task, &self.arch);
        self.run_plan_profiled(&plan)
    }

    /// Runs an explicit phase plan with causal span profiling enabled:
    /// the returned [`SpanTrace`] supports critical-path analysis
    /// ([`SpanTrace::critical_path`]) and Chrome-trace export
    /// ([`SpanTrace::chrome_trace_json`]). The report is bit-identical
    /// to an unprofiled run.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_profiled(&self, plan: &TaskPlan) -> (Report, SpanTrace) {
        let (report, spans) = self.run_plan_core(plan, None, None, true);
        (report, spans.expect("profiled run returns a span trace"))
    }

    /// Runs a plan with any combination of event tracing, metrics
    /// sampling, and (when `profiled`) span recording, in a single
    /// simulation pass. The report is bit-identical whatever
    /// instrumentation is attached.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_observed(
        &self,
        plan: &TaskPlan,
        trace: Option<&mut Trace>,
        metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (Report, Option<SpanTrace>) {
        self.run_plan_core(plan, trace, metrics, profiled)
    }

    /// All non-pausable run entry points funnel here: drive an
    /// [`ExecRun`] straight to completion. From-scratch runs and forked
    /// continuations therefore share one event loop by construction.
    fn run_plan_core(
        &self,
        plan: &TaskPlan,
        mut trace: Option<&mut Trace>,
        mut metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (Report, Option<SpanTrace>) {
        let mut run = ExecRun::start_inner(self, plan, profiled);
        run.step(None, &mut trace, &mut metrics);
        run.into_parts()
    }
}

/// Records a trace event if tracing is enabled.
fn record(
    trace: &mut Option<&mut Trace>,
    time: SimTime,
    phase: usize,
    node: NodeId,
    kind: TraceKind,
    bytes: u64,
) {
    if let Some(t) = trace {
        t.record(TraceEvent {
            time,
            phase,
            node,
            kind,
            bytes,
        });
    }
}

/// Snapshot of cumulative machine counters, for per-phase deltas.
#[derive(Clone)]
struct PhaseSnapshot {
    cpu_by_tag: BTreeMap<&'static str, Duration>,
    cpu_total: Duration,
    disk_total: Duration,
    interconnect: u64,
    frontend: u64,
    resources: Vec<ResourceUsage>,
}

impl PhaseSnapshot {
    fn take(m: &Machine) -> Self {
        PhaseSnapshot {
            cpu_by_tag: m.cpu_busy_by_tag(),
            cpu_total: m.cpu_busy_total(),
            disk_total: m.disk_busy_total(),
            interconnect: m.interconnect_bytes(),
            frontend: m.frontend_bytes(),
            resources: m.resource_usage(),
        }
    }

    fn delta(
        &self,
        after: &PhaseSnapshot,
        name: &'static str,
        elapsed: Duration,
        nodes: usize,
    ) -> PhaseReport {
        let mut tags = BTreeMap::new();
        for (&tag, &busy) in &after.cpu_by_tag {
            let before = self.cpu_by_tag.get(tag).copied().unwrap_or(Duration::ZERO);
            let d = busy.saturating_sub(before);
            if !d.is_zero() {
                tags.insert(tag, d);
            }
        }
        let resources = after
            .resources
            .iter()
            .zip(&self.resources)
            .map(|(a, b)| {
                debug_assert_eq!(a.resource, b.resource);
                ResourceUsage {
                    resource: a.resource,
                    busy: a.busy.saturating_sub(b.busy),
                    wait: a.wait.saturating_sub(b.wait),
                    lanes: a.lanes,
                }
            })
            .collect();
        PhaseReport {
            name,
            elapsed,
            cpu_busy_by_tag: tags,
            cpu_busy_total: after.cpu_total.saturating_sub(self.cpu_total),
            disk_busy_total: after.disk_total.saturating_sub(self.disk_total),
            interconnect_bytes: after.interconnect - self.interconnect,
            frontend_bytes: after.frontend - self.frontend,
            nodes,
            resources,
        }
    }
}

/// Charges `prefix` (the OS or messaging toll) followed by a list of
/// tagged CPU work items for `bytes` to a node's CPU, as one fused
/// queueing round; returns the completion time of the run. Full batches
/// use the phase's precomputed costs; tail batches pay the float math.
#[allow(clippy::too_many_arguments)]
fn charge_cpu(
    m: &mut Machine,
    node: usize,
    now: SimTime,
    prefix: (Duration, &'static str),
    bytes: u64,
    work: &[CpuWork],
    batch_cost: &[Duration],
    perf: f64,
) -> SimTime {
    let head = std::iter::once(prefix);
    if bytes == BATCH_BYTES {
        m.node_cpu_run(
            node,
            now,
            head.chain(work.iter().zip(batch_cost).map(|(w, &cost)| (cost, w.tag))),
        )
    } else {
        m.node_cpu_run(
            node,
            now,
            head.chain(
                work.iter()
                    .map(|w| (cpu_cost(w.ns_per_byte, bytes, perf), w.tag)),
            ),
        )
    }
}

/// The read-allocator region of a phase: base data or the intermediate
/// runs written by a previous phase.
#[inline]
pub(crate) fn phase_region(phase: &PhasePlan) -> usize {
    usize::from(phase.reads_intermediate)
}

/// Whether the phase carries a substantial write stream — disk-group
/// separation (SMP, NOW-sort style) only pays off when it does.
#[inline]
pub(crate) fn phase_writes(phase: &PhasePlan) -> bool {
    phase.local_write_factor >= 0.25 || phase.write_received
}

/// Builds the per-node executor state for a phase starting at `start`:
/// splits the plan's read bytes across nodes (survivors only for
/// intermediate data), pools a dead node's fixed-placement share as
/// recovery work, and reassigns whatever failure is already detected.
/// Also returns the phase's weighted-fair shuffle schedule (`None` for
/// round robin) and the abort clock when no survivor remains to take
/// the pooled work.
pub(crate) fn init_phase_nodes(
    m: &Machine,
    phase: &PhasePlan,
    fr: &mut FaultRt,
    start: SimTime,
) -> (Vec<NodeState>, Option<DstSchedule>, Option<SimTime>) {
    let n = m.nodes();
    let sched = DstSchedule::for_phase(phase, n);
    // Split the plan's read bytes across nodes without dropping the
    // division remainder: the first `remainder` nodes read one extra byte.
    // Intermediate data (runs written in a previous phase) lives on the
    // surviving disks, so those phases split across survivors only; base
    // data has fixed placement, so a dead node's share becomes recovery
    // work pooled for the survivors below.
    let failed_now = m.failed_count();
    let healthy_split = failed_now > 0 && phase.reads_intermediate;
    let split_n = if healthy_split { n - failed_now } else { n } as u64;
    let base_per_node = phase.read_bytes_total / split_n;
    let remainder = (phase.read_bytes_total % split_n) as usize;
    let mut rank = 0usize;
    let mut nodes: Vec<NodeState> = (0..n)
        .map(|i| {
            let dead = failed_now > 0 && m.disk_failed(i);
            let bytes_total = if healthy_split && dead {
                0
            } else {
                let r = if healthy_split {
                    let r = rank;
                    rank += 1;
                    r
                } else {
                    i
                };
                base_per_node + u64::from(r < remainder)
            };
            let batches = if bytes_total == 0 {
                0
            } else {
                bytes_total.div_ceil(BATCH_BYTES)
            };
            let last = if batches == 0 {
                0
            } else {
                bytes_total - (batches - 1) * BATCH_BYTES.min(bytes_total)
            };
            NodeState {
                bytes_total,
                batches_total: batches,
                own_batches: batches,
                issued: 0,
                issued_bytes: 0,
                processed: 0,
                last_batch_bytes: last,
                recovery_pending: VecDeque::new(),
                dead,
                fe_sent: false,
                next_dst: (i + 1) % n,
                dst_picks: 0,
                write_credit: 0.0,
                shuffle_credit: 0.0,
                frontend_credit: 0.0,
            }
        })
        .collect();

    // A dead node's fixed-placement share becomes pooled recovery work.
    if failed_now > 0 && !healthy_split {
        for (i, st) in nodes.iter_mut().enumerate() {
            if st.dead && st.bytes_total > 0 {
                for j in 0..st.batches_total {
                    let bytes = if j == st.batches_total - 1 {
                        st.last_batch_bytes
                    } else {
                        BATCH_BYTES
                    };
                    fr.pool.push((i, bytes));
                }
                st.bytes_total = 0;
                st.batches_total = 0;
                st.own_batches = 0;
                st.last_batch_bytes = 0;
            }
        }
        fr.assign_detected(&mut nodes, start);
        if let Some(abort) = fr.abort_at {
            let abort = abort.max(start);
            return (nodes, sched, Some(abort));
        }
    }
    (nodes, sched, None)
}

/// Mid-phase executor state of a paused [`ExecRun`]: the live event
/// queue, per-node progress, and the phase-start counter snapshot.
#[derive(Clone)]
struct PhaseRun {
    /// Precomputed per-batch costs — a pure function of the machine
    /// configuration and the phase plan, recomputed (never serialized)
    /// on checkpoint restore.
    costs: PhaseCosts,
    /// The skewed shuffle's destination schedule (`None` = round
    /// robin); like `costs`, rebuilt on restore, with each node's
    /// position recovered from its stored credits.
    sched: Option<DstSchedule>,
    q: EventQueue<Ev>,
    /// An event popped but not yet processed: `run_until` pauses
    /// *before* processing the first event at or past the limit, and
    /// the event (already sequenced by its pop) waits here so every
    /// continuation replays the exact pop order.
    pending: Option<(SimTime, Ev)>,
    nodes: Vec<NodeState>,
    horizon: SimTime,
    before: PhaseSnapshot,
}

/// How one phase's event loop ended.
enum EventsOutcome {
    /// The time limit struck; the run is paused at an event boundary.
    Paused,
    /// The phase completed (queue drained, or the run aborted) at `end`.
    PhaseDone { end: SimTime, aborted: bool },
}

/// How starting a phase went.
enum PhaseStart {
    /// The phase is live; the mid-phase state is installed.
    Running,
    /// The phase ended before its first event (fault abort at or before
    /// the phase barrier).
    Aborted { before: PhaseSnapshot, end: SimTime },
}

/// A pausable, forkable, serializable execution of one plan on one
/// [`Simulation`]: the copy-on-fork checkpointing engine. Create one
/// with [`Simulation::start`], advance it with [`run_until`]
/// (processing every event strictly before the limit), branch what-if
/// continuations with [`fork`] / [`fork_with_faults`] — each fork
/// shares the simulated prefix instead of re-running it — and complete
/// any branch with [`finish`]. Reports from forked continuations are
/// field-identical to from-scratch runs: both paths drive this same
/// stepper.
///
/// [`run_until`]: ExecRun::run_until
/// [`fork`]: ExecRun::fork
/// [`fork_with_faults`]: ExecRun::fork_with_faults
/// [`finish`]: ExecRun::finish
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::Simulation;
/// use simcore::SimTime;
/// use tasks::{plan_task, TaskKind};
///
/// let sim = Simulation::new(Architecture::active_disks(4));
/// let plan = plan_task(TaskKind::Select, sim.architecture());
/// let scratch = sim.run_plan(&plan);
///
/// // Pause after the first simulated millisecond, fork, finish both.
/// let mut prefix = sim.start(&plan);
/// prefix.run_until(SimTime::from_nanos(1_000_000));
/// let forked = prefix.fork().finish();
/// assert_eq!(forked, scratch);
/// assert_eq!(prefix.finish(), scratch);
/// ```
#[derive(Clone)]
pub struct ExecRun<'p> {
    sim: Simulation,
    plan: &'p TaskPlan,
    machine: Machine,
    fr: FaultRt,
    phases: Vec<PhaseReport>,
    clock: SimTime,
    events: u64,
    aborted: bool,
    phase_ix: usize,
    cur: Option<PhaseRun>,
    done: bool,
    spans: Option<SpanRt>,
}

impl<'p> ExecRun<'p> {
    fn start_inner(sim: &Simulation, plan: &'p TaskPlan, profiled: bool) -> Self {
        plan.validate().expect("invalid task plan");
        let mut machine = Machine::new(&sim.arch);
        for &(node, count) in &sim.degraded {
            machine.degrade_disk(node, count);
        }
        let fr = FaultRt::new(&sim.faults, sim.recovery, sim.seed, machine.nodes());
        ExecRun {
            sim: sim.clone(),
            plan,
            machine,
            fr,
            phases: Vec::with_capacity(plan.phases.len()),
            clock: SimTime::ZERO,
            events: 0,
            aborted: false,
            phase_ix: 0,
            cur: None,
            done: false,
            spans: if profiled { Some(SpanRt::new()) } else { None },
        }
    }

    /// Advances the run until the simulation clock reaches `t`:
    /// processes every event firing strictly before `t` and every phase
    /// boundary falling before `t`, then pauses at an exact event
    /// boundary. Pausing and resuming never changes the final report.
    pub fn run_until(&mut self, t: SimTime) {
        self.step(Some(t), &mut None, &mut None);
    }

    /// Whether the run has completed (its report is final).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The simulation clock at the current pause point: the stashed
    /// event's pop time when paused mid-phase (everything strictly
    /// before it is simulated), else the last phase boundary.
    pub fn paused_at(&self) -> SimTime {
        match &self.cur {
            Some(cur) => match &cur.pending {
                Some((t, _)) => *t,
                None => cur.horizon.max(self.clock),
            },
            None => self.clock,
        }
    }

    /// Events processed so far (the report's `events` once done),
    /// including the in-flight phase.
    pub fn events_so_far(&self) -> u64 {
        self.events + self.cur.as_ref().map_or(0, |c| c.q.popped())
    }

    /// Forks the run at the current pause point: an independent
    /// continuation sharing the already-simulated prefix.
    #[must_use]
    pub fn fork(&self) -> ExecRun<'p> {
        self.clone()
    }

    /// Forks the run and swaps in a fresh fault schedule and recovery
    /// policy for the continuation: the fork-at-fault-time primitive.
    /// The healthy prefix is simulated once; each fault scenario replays
    /// only its suffix.
    ///
    /// # Panics
    ///
    /// Panics if the prefix already consumed fault state (a fault was
    /// applied or the schedule cursor moved) — a continuation under a
    /// different schedule would then diverge from a from-scratch run.
    #[must_use]
    pub fn fork_with_faults(&self, faults: FaultPlan, recovery: RecoveryPolicy) -> ExecRun<'p> {
        assert!(
            self.fr.injected == 0 && self.fr.next == 0,
            "cannot swap fault plans: the prefix already consumed fault state"
        );
        debug_assert!(self.fr.pool.is_empty() && self.fr.abort_at.is_none());
        let mut run = self.clone();
        run.fr = FaultRt::new(&faults, recovery, run.sim.seed, run.machine.nodes());
        run.sim.faults = faults;
        run.sim.recovery = recovery;
        run
    }

    /// Runs to completion and returns the report — field-identical to
    /// [`Simulation::run_plan`] on the same configuration.
    pub fn finish(mut self) -> Report {
        self.step(None, &mut None, &mut None);
        self.into_parts().0
    }

    /// Runs to completion and returns the report plus the span trace.
    ///
    /// # Panics
    ///
    /// Panics if the run was not started with profiling
    /// ([`Simulation::start_profiled`]).
    pub fn finish_profiled(mut self) -> (Report, SpanTrace) {
        self.step(None, &mut None, &mut None);
        let (report, spans) = self.into_parts();
        (report, spans.expect("run was started without profiling"))
    }

    /// The single event loop shared by from-scratch runs, paused runs,
    /// and forked continuations. `limit = None` runs to completion.
    fn step(
        &mut self,
        limit: Option<SimTime>,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) {
        while !self.done {
            if self.cur.is_none() {
                if self.phase_ix >= self.plan.phases.len() {
                    self.done = true;
                    break;
                }
                // Pause before starting a phase whose barrier-start
                // clock has reached the limit.
                if limit.is_some_and(|l| self.clock >= l) {
                    return;
                }
                if let PhaseStart::Aborted { before, end } = self.start_phase() {
                    self.finish_phase(before, end, 0, true);
                    continue;
                }
            }
            match self.run_events(limit, trace, metrics) {
                EventsOutcome::Paused => return,
                EventsOutcome::PhaseDone { end, aborted } => {
                    let cur = self.cur.take().expect("phase state present");
                    self.finish_phase(cur.before, end, cur.q.popped(), aborted);
                }
            }
        }
    }

    /// Opens the phase at `phase_ix`: applies barrier-due faults, builds
    /// the queue and per-node state, and primes every read pipeline.
    fn start_phase(&mut self) -> PhaseStart {
        let plan = self.plan;
        let phase = &plan.phases[self.phase_ix];
        let start = self.clock;
        let region = phase_region(phase);
        self.machine.begin_phase(region);
        if let Some(rt) = self.spans.as_mut() {
            rt.last = SpanId::NONE;
            rt.last_end = start;
        }
        let before = PhaseSnapshot::take(&self.machine);
        let m = &mut self.machine;
        let fr = &mut self.fr;
        let n = m.nodes();
        // Faults due at or before the barrier strike before any work starts.
        if fr.pending() {
            fr.apply_phase_start(m, start);
        }
        if let Some(abort) = fr.abort_at {
            if abort <= start || m.failed_count() == n {
                return PhaseStart::Aborted {
                    before,
                    end: abort.max(start),
                };
            }
        }
        if m.failed_count() == n {
            return PhaseStart::Aborted { before, end: start };
        }
        // Disk-group separation (SMP, NOW-sort style) only pays off when
        // the write stream is substantial.
        let phase_writes = phase_writes(phase);
        let costs = PhaseCosts::new(m, phase);

        let window = m.window() as u64;
        // Steady state holds `window` in-flight reads per node plus the
        // messages they fan out into; pre-size the queue to that depth.
        let mut q: EventQueue<Ev> =
            EventQueue::with_backend_capacity(self.sim.queue_backend, n * (window as usize + 4));
        let (mut nodes, sched, init_abort) = init_phase_nodes(m, phase, fr, start);
        if let Some(abort) = init_abort {
            return PhaseStart::Aborted { before, end: abort };
        }

        // Prime each node's pipeline: the phase fan-out schedules every
        // node's full read window in one batched push (same event order
        // as pushing one by one, so sequence numbers — and reports — are
        // unchanged).
        let mut spans = self.spans.as_mut();
        let mut primed: Vec<(SimTime, Ev)> = Vec::with_capacity(n * window as usize);
        for node in 0..n {
            let to_issue = window.min(nodes[node].batches_total);
            for _ in 0..to_issue {
                if let Some(ev) = prepare_read(
                    m,
                    &mut nodes,
                    node,
                    start,
                    region,
                    phase_writes,
                    fr.policy,
                    &mut spans,
                    SpanId::NONE,
                    0,
                ) {
                    primed.push(ev);
                }
            }
        }
        q.push_many(primed);
        self.cur = Some(PhaseRun {
            costs,
            sched,
            q,
            pending: None,
            nodes,
            horizon: start,
            before,
        });
        PhaseStart::Running
    }

    /// Pops and dispatches events of the current phase until the queue
    /// drains, the run aborts, or the limit strikes.
    fn run_events(
        &mut self,
        limit: Option<SimTime>,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) -> EventsOutcome {
        let plan = self.plan;
        let phase = &plan.phases[self.phase_ix];
        let phase_ix = self.phase_ix;
        let region = phase_region(phase);
        let phase_writes = phase_writes(phase);
        let cur = self.cur.as_mut().expect("phase state present");
        let m = &mut self.machine;
        let fr = &mut self.fr;
        let mut spans = self.spans.as_mut();
        let window = m.window() as u64;
        loop {
            let (now, ev) = match cur.pending.take() {
                Some(next) => next,
                None => match cur.q.pop() {
                    Some(next) => next,
                    None => break,
                },
            };
            if limit.is_some_and(|l| now >= l) {
                // Pause *before* processing: the event keeps its pop
                // sequencing and waits in the pending slot.
                cur.pending = Some((now, ev));
                return EventsOutcome::Paused;
            }
            cur.horizon = cur.horizon.max(now);
            // Faults-off cost: one bounds check per event.
            if fr.pending() {
                fr.apply_due(m, &mut cur.q, &mut cur.nodes, now);
            }
            if let Some(abort) = fr.abort_at {
                if now >= abort {
                    return EventsOutcome::PhaseDone {
                        end: abort,
                        aborted: true,
                    };
                }
            }
            // Metrics-off cost: one `Option` discriminant check per event.
            if let Some(mb) = metrics.as_deref_mut() {
                if mb.due(now) {
                    mb.sample(now, &m.resource_usage(), cur.q.len());
                }
            }
            handle_ev(
                m,
                &mut EvQ {
                    q: &mut cur.q,
                    counts: None,
                },
                &mut PhaseCtx {
                    phase,
                    costs: &cur.costs,
                    sched: cur.sched.as_mut(),
                    nodes: &mut cur.nodes,
                    horizon: &mut cur.horizon,
                    region,
                    phase_writes,
                    phase_ix,
                    window,
                    qid: 0,
                },
                fr,
                trace,
                &mut spans,
                now,
                ev,
            );
        }

        // Fail-stop policy with the abort clock beyond the last event:
        // the survivors drained their queues, but the failed partition
        // was never re-read — the run still aborts at the detection time.
        if let Some(abort) = fr.abort_at {
            return EventsOutcome::PhaseDone {
                end: abort,
                aborted: true,
            };
        }

        // Byte conservation: the nodes together must have issued exactly
        // the plan's read bytes — the per-node split drops nothing, and
        // recovery re-issues every batch a failed node left behind.
        let issued: u64 = cur.nodes.iter().map(|s| s.issued_bytes).sum();
        assert_eq!(
            issued, phase.read_bytes_total,
            "phase '{}' issued {issued} B of {} B planned",
            phase.name, phase.read_bytes_total
        );

        // Out-of-band disk positioning penalty (e.g. merge run switches):
        // per-node and overlapped across nodes, so it extends the phase once.
        let end = cur.horizon + phase.extra_disk_busy_per_node;
        if phase.extra_disk_busy_per_node > simcore::Duration::ZERO {
            if let Some(rt) = spans {
                let parent = rt.last;
                rt.record(
                    parent,
                    POSITIONING_RESOURCE,
                    SpanKind::Positioning,
                    FRONT_END_NODE,
                    cur.horizon,
                    end,
                    0,
                );
            }
        }
        EventsOutcome::PhaseDone {
            end,
            aborted: false,
        }
    }

    /// Closes the phase at `phase_ix`: the barrier, the phase report,
    /// and the clock advance.
    fn finish_phase(
        &mut self,
        before: PhaseSnapshot,
        end: SimTime,
        phase_events: u64,
        phase_aborted: bool,
    ) {
        let plan = self.plan;
        let phase = &plan.phases[self.phase_ix];
        self.events += phase_events;
        let after = PhaseSnapshot::take(&self.machine);
        // Every phase boundary is a global barrier (no node starts the
        // next phase before all have finished this one). An aborted
        // phase ends at the abort clock: there is no barrier because
        // there is no next phase.
        let pre_barrier = end;
        let end = if phase_aborted {
            end
        } else {
            end + self.machine.barrier_costs().barrier(self.machine.nodes())
        };
        if let Some(rt) = self.spans.as_mut() {
            if !phase_aborted {
                // The barrier span chains onto the phase's last span
                // (which ends exactly at `pre_barrier` on healthy runs),
                // making it the critical-path anchor.
                let parent = rt.last;
                rt.record(
                    parent,
                    BARRIER_RESOURCE,
                    SpanKind::Barrier,
                    FRONT_END_NODE,
                    pre_barrier,
                    end,
                    0,
                );
            }
            rt.phases.push(PhaseSpans {
                name: phase.name,
                start: self.clock,
                end,
                anchor: rt.last,
            });
        }
        self.phases.push(before.delta(
            &after,
            phase.name,
            end.since(self.clock),
            self.machine.nodes(),
        ));
        self.clock = end;
        self.phase_ix += 1;
        if phase_aborted {
            self.aborted = true;
            self.done = true;
        }
    }

    /// Builds the final report (and span trace, when profiled) from a
    /// completed run.
    fn into_parts(self) -> (Report, Option<SpanTrace>) {
        debug_assert!(self.done, "into_parts on an unfinished run");
        let report = Report {
            task: self.plan.task,
            architecture: self.sim.arch.short_name(),
            disks: self.machine.nodes(),
            phases: self.phases,
            disk_service: self.machine.disk_service_histogram(),
            events: self.events,
            faults_injected: self.fr.injected,
            recovery_time: self.machine.recovery_busy(),
            work_redistributed: self.machine.work_redistributed(),
            aborted: self.aborted,
            downtime: self.machine.disk_downtime(self.clock),
        };
        let spans = self.spans.map(|rt| SpanTrace {
            arena: rt.arena,
            phases: rt.phases,
        });
        (report, spans)
    }
}

impl ExecRun<'_> {
    /// Serializes the paused run — clock, machine, fault runtime,
    /// finished-phase reports, and (mid-phase) the live event queue,
    /// pending event, per-node progress, and phase-start counter
    /// snapshot — in the exact-integer state codec. Per-batch costs and
    /// queue configuration are recomputed on load, never stored.
    ///
    /// # Panics
    ///
    /// Panics if the run is profiled: the span arena is not captured on
    /// disk (fork in memory to keep profiling across a branch point).
    pub fn save_state(&self, w: &mut StateWriter) {
        assert!(
            self.spans.is_none(),
            "profiled runs cannot be checkpointed to disk"
        );
        w.field("clock_ns", self.clock.as_nanos());
        w.field("events", self.events);
        w.flag("aborted", self.aborted);
        w.field("phase_ix", self.phase_ix);
        w.flag("done", self.done);
        self.machine.save_state(w);
        self.fr.save_state(w);
        w.field("phases_done", self.phases.len());
        for p in &self.phases {
            p.save_state(w);
        }
        w.flag("midphase", self.cur.is_some());
        if let Some(cur) = &self.cur {
            w.flag("pending", cur.pending.is_some());
            if let Some((t, ev)) = &cur.pending {
                w.str_field("pending_ev", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
            }
            let snap = cur.q.snapshot();
            w.field("q_popped", snap.popped);
            w.field("q_last_ns", snap.last_popped.as_nanos());
            w.field("q_len", snap.events.len());
            for (t, ev) in &snap.events {
                w.str_field("qe", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
            }
            w.field("horizon_ns", cur.horizon.as_nanos());
            w.field("nodes_n", cur.nodes.len());
            let credits = cur.sched.as_ref().map(|s| {
                let picks: Vec<usize> = cur.nodes.iter().map(|st| st.dst_picks).collect();
                s.credits_at(&picks)
            });
            for (i, st) in cur.nodes.iter().enumerate() {
                save_node_state(st, credits.as_ref().map(|c| &c[i][..]), w);
            }
            cur.before.save_state(w);
        }
    }
}

impl<'p> ExecRun<'p> {
    /// Rebuilds a paused run from [`ExecRun::save_state`] output. `sim`
    /// and `plan` must be the configuration the state was saved under
    /// (the checkpoint key guarantees this; a mismatched machine shape,
    /// an event or recovery entry naming a node the machine lacks, or a
    /// multi-query control event is also caught here as an error). The
    /// restored queue is freshly built for `sim`'s backend and replays
    /// the saved pop order exactly, so a checkpoint taken under one
    /// backend resumes bit-identically under the other.
    pub fn load_state(
        sim: &Simulation,
        plan: &'p TaskPlan,
        r: &mut StateReader<'_>,
    ) -> Result<Self, StateError> {
        if plan.validate().is_err() {
            return Err(StateError::new("invalid task plan"));
        }
        let mut run = ExecRun::start_inner(sim, plan, false);
        run.clock = SimTime::from_nanos(r.num("clock_ns")?);
        run.events = r.num("events")?;
        run.aborted = r.flag("aborted")?;
        run.phase_ix = r.num("phase_ix")?;
        run.done = r.flag("done")?;
        if run.phase_ix > plan.phases.len() {
            return Err(StateError::new("phase cursor out of range"));
        }
        run.machine.load_state(r)?;
        run.fr.load_state(r)?;
        run.phases = r.counted("phases_done", PhaseReport::load_state)?;
        if run.phases.len() > plan.phases.len() {
            return Err(StateError::new("finished-phase count out of range"));
        }
        if r.flag("midphase")? {
            if run.phase_ix >= plan.phases.len() {
                return Err(StateError::new("mid-phase state past the last phase"));
            }
            let phase = &plan.phases[run.phase_ix];
            let n = run.machine.nodes();
            let pending = if r.flag("pending")? {
                let (t, ev) = parse_timed_ev(r.field("pending_ev")?)?;
                check_solo_ev(&ev, n)?;
                Some((t, ev))
            } else {
                None
            };
            let popped: u64 = r.num("q_popped")?;
            let last_popped = SimTime::from_nanos(r.num("q_last_ns")?);
            let events = r.counted("q_len", |r| {
                let (t, ev) = parse_timed_ev(r.field("qe")?)?;
                check_solo_ev(&ev, n)?;
                if t < last_popped {
                    return Err(StateError::new("queued event behind the clock"));
                }
                Ok((t, ev))
            })?;
            let window = run.machine.window() as u64;
            let mut q: EventQueue<Ev> =
                EventQueue::with_backend_capacity(sim.queue_backend, n * (window as usize + 4));
            q.load_snapshot(QueueSnapshot {
                events,
                popped,
                last_popped,
            });
            let horizon = SimTime::from_nanos(r.num("horizon_ns")?);
            let nodes_n: usize = r.num("nodes_n")?;
            if nodes_n != n {
                return Err(StateError::new("node-state count mismatch"));
            }
            if phase.shuffle_weights.as_ref().is_some_and(|w| w.len() != n) {
                return Err(StateError::new("shuffle weights do not cover every node"));
            }
            let mut sched = DstSchedule::for_phase(phase, n);
            let mut nodes = Vec::with_capacity(n);
            let mut stored = Vec::new();
            for _ in 0..n {
                let (st, credits) = load_node_state(r, sched.is_some(), n)?;
                if let Some(credits) = credits {
                    if credits.len() != n {
                        return Err(StateError::new("dst_credits: expected one credit per node"));
                    }
                    stored.push((credits, max_dst_picks(&st, phase, n)));
                }
                nodes.push(st);
            }
            if let Some(s) = sched.as_mut() {
                let counts = s.counts_of(&stored).ok_or_else(|| {
                    StateError::new("dst_credits: not on the phase's shuffle schedule")
                })?;
                for (st, j) in nodes.iter_mut().zip(counts) {
                    st.dst_picks = j;
                }
            }
            let before = PhaseSnapshot::load_state(r)?;
            let costs = PhaseCosts::new(&run.machine, phase);
            run.cur = Some(PhaseRun {
                costs,
                sched,
                q,
                pending,
                nodes,
                horizon,
                before,
            });
        }
        Ok(run)
    }
}

impl FaultRt {
    /// Serializes the runtime state (not the schedule, which is rebuilt
    /// from the fault plan on load).
    fn save_state(&self, w: &mut StateWriter) {
        w.field("fr_next", self.next);
        w.list("fr_detected", self.detected.iter().map(|&b| u8::from(b)));
        w.field("fr_pool", self.pool.len());
        for &(origin, bytes) in &self.pool {
            w.list("fr_poolent", [origin as u64, bytes]);
        }
        w.field("fr_rr", self.rr);
        w.field("fr_rng", self.rng.state());
        w.field("fr_injected", self.injected);
        w.flag("fr_abort_set", self.abort_at.is_some());
        w.field(
            "fr_abort_ns",
            self.abort_at.unwrap_or(SimTime::ZERO).as_nanos(),
        );
        w.flag("fr_any_dead", self.any_dead);
    }

    /// Restores runtime state into a `FaultRt` freshly built from the
    /// same plan, policy, seed, and node count.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let next: usize = r.num("fr_next")?;
        if next > self.events.len() {
            return Err(StateError::new("fault cursor out of range"));
        }
        self.next = next;
        let det: Vec<u8> = r.nums("fr_detected")?;
        if det.len() != self.detected.len() {
            return Err(StateError::new("detected-flag count mismatch"));
        }
        self.detected = det.iter().map(|&b| b != 0).collect();
        let nodes = self.detected.len();
        self.pool = r.counted("fr_pool", |r| match r.nums::<u64>("fr_poolent")?[..] {
            [origin, bytes] if origin < nodes as u64 => Ok((origin as usize, bytes)),
            _ => Err(StateError::new(
                "fr_poolent: expected `<origin node> <bytes>`",
            )),
        })?;
        self.rr = r.num("fr_rr")?;
        self.rng = SplitMix64::new(r.num("fr_rng")?);
        self.injected = r.num("fr_injected")?;
        let abort_set = r.flag("fr_abort_set")?;
        let abort_ns: u64 = r.num("fr_abort_ns")?;
        self.abort_at = abort_set.then(|| SimTime::from_nanos(abort_ns));
        self.any_dead = r.flag("fr_any_dead")?;
        Ok(())
    }
}

impl PhaseSnapshot {
    fn save_state(&self, w: &mut StateWriter) {
        save_tag_map(&self.cpu_by_tag, w);
        w.field("cpu_total_ns", self.cpu_total.as_nanos());
        w.field("disk_total_ns", self.disk_total.as_nanos());
        w.field("interconnect", self.interconnect);
        w.field("frontend", self.frontend);
        save_resources(&self.resources, w);
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let cpu_by_tag = load_tag_map(r)?;
        let cpu_total = Duration::from_nanos(r.num("cpu_total_ns")?);
        let disk_total = Duration::from_nanos(r.num("disk_total_ns")?);
        let interconnect: u64 = r.num("interconnect")?;
        let frontend: u64 = r.num("frontend")?;
        let resources = load_resources(r)?;
        Ok(PhaseSnapshot {
            cpu_by_tag,
            cpu_total,
            disk_total,
            interconnect,
            frontend,
            resources,
        })
    }
}

/// Encodes one executor event (without its span — checkpoints capture
/// unprofiled runs, where every span is [`SpanId::NONE`]).
fn encode_ev(ev: &Ev) -> String {
    match *ev {
        Ev::BatchRead {
            node, bytes, query, ..
        } => format!("br {node} {bytes} {query}"),
        Ev::BatchProcessed {
            node, bytes, query, ..
        } => format!("bp {node} {bytes} {query}"),
        Ev::PeerArrive {
            src,
            dst,
            bytes,
            query,
            ..
        } => format!("pa {src} {dst} {bytes} {query}"),
        Ev::RecvProcessed {
            node, bytes, query, ..
        } => format!("rp {node} {bytes} {query}"),
        Ev::FeArrive { bytes, query, .. } => format!("fe {bytes} {query}"),
        Ev::RecoveryKick { node, query } => format!("rk {node} {query}"),
        Ev::Admit { query } => format!("ad {query}"),
        Ev::PhaseStart { query, attempt } => format!("ps {query} {attempt}"),
        Ev::Deadline { query, attempt } => format!("dl {query} {attempt}"),
        Ev::Retry { query } => format!("rt {query}"),
    }
}

/// Parses [`encode_ev`] output.
fn decode_ev(s: &str) -> Result<Ev, StateError> {
    fn num(
        it: &mut std::str::SplitWhitespace<'_>,
        tag: &str,
        what: &str,
    ) -> Result<u64, StateError> {
        it.next()
            .ok_or_else(|| StateError::new(format!("event `{tag}`: missing {what}")))?
            .parse()
            .map_err(|_| StateError::new(format!("event `{tag}`: bad {what}")))
    }
    let mut it = s.split_whitespace();
    let tag = it.next().ok_or_else(|| StateError::new("empty event"))?;
    let ev = match tag {
        "br" => Ev::BatchRead {
            node: num(&mut it, tag, "node")? as usize,
            bytes: num(&mut it, tag, "bytes")?,
            span: SpanId::NONE,
            query: num(&mut it, tag, "query")? as u32,
        },
        "bp" => Ev::BatchProcessed {
            node: num(&mut it, tag, "node")? as usize,
            bytes: num(&mut it, tag, "bytes")?,
            span: SpanId::NONE,
            query: num(&mut it, tag, "query")? as u32,
        },
        "pa" => Ev::PeerArrive {
            src: num(&mut it, tag, "src")? as usize,
            dst: num(&mut it, tag, "dst")? as usize,
            bytes: num(&mut it, tag, "bytes")?,
            span: SpanId::NONE,
            query: num(&mut it, tag, "query")? as u32,
        },
        "rp" => Ev::RecvProcessed {
            node: num(&mut it, tag, "node")? as usize,
            bytes: num(&mut it, tag, "bytes")?,
            span: SpanId::NONE,
            query: num(&mut it, tag, "query")? as u32,
        },
        "fe" => Ev::FeArrive {
            bytes: num(&mut it, tag, "bytes")?,
            span: SpanId::NONE,
            query: num(&mut it, tag, "query")? as u32,
        },
        "rk" => Ev::RecoveryKick {
            node: num(&mut it, tag, "node")? as usize,
            query: num(&mut it, tag, "query")? as u32,
        },
        "ad" => Ev::Admit {
            query: num(&mut it, tag, "query")? as u32,
        },
        "ps" => Ev::PhaseStart {
            query: num(&mut it, tag, "query")? as u32,
            attempt: num(&mut it, tag, "attempt")? as u32,
        },
        "dl" => Ev::Deadline {
            query: num(&mut it, tag, "query")? as u32,
            attempt: num(&mut it, tag, "attempt")? as u32,
        },
        "rt" => Ev::Retry {
            query: num(&mut it, tag, "query")? as u32,
        },
        other => return Err(StateError::new(format!("unknown event tag `{other}`"))),
    };
    if it.next().is_some() {
        return Err(StateError::new(format!("event `{tag}`: trailing fields")));
    }
    Ok(ev)
}

/// Parses a `<nanos> <event>` line.
fn parse_timed_ev(s: &str) -> Result<(SimTime, Ev), StateError> {
    let (t, rest) = s
        .split_once(' ')
        .ok_or_else(|| StateError::new("event: expected `<ns> <event>`"))?;
    let ns: u64 = t
        .parse()
        .map_err(|_| StateError::new("event: bad timestamp"))?;
    Ok((SimTime::from_nanos(ns), decode_ev(rest)?))
}

/// Checks an event restored into a single-query run: a work event on
/// query lane 0 (control events belong to the multi-query executor)
/// whose nodes exist on the `n`-node machine.
fn check_solo_ev(ev: &Ev, n: usize) -> Result<(), StateError> {
    if ev.work_query() != Some(0) {
        return Err(StateError::new("event is not single-query work"));
    }
    let nodes = match *ev {
        Ev::BatchRead { node, .. }
        | Ev::BatchProcessed { node, .. }
        | Ev::RecvProcessed { node, .. }
        | Ev::RecoveryKick { node, .. } => [node, node],
        Ev::PeerArrive { src, dst, .. } => [src, dst],
        _ => [0, 0],
    };
    if nodes.iter().any(|&i| i >= n) {
        return Err(StateError::new("event addresses a node the machine lacks"));
    }
    Ok(())
}

/// Writes one node's phase progress. On a skewed shuffle the node's
/// position in the phase schedule is stored as `dst_credits`, the credit
/// vector a per-node picker would hold there, so the format does not
/// depend on how the picks are computed.
fn save_node_state(st: &NodeState, dst_credits: Option<&[f64]>, w: &mut StateWriter) {
    w.list(
        "nstate",
        [
            st.bytes_total,
            st.batches_total,
            st.own_batches,
            st.issued,
            st.issued_bytes,
            st.processed,
            st.last_batch_bytes,
            u64::from(st.dead),
            u64::from(st.fe_sent),
            st.next_dst as u64,
        ],
    );
    w.list("recovery_pending", st.recovery_pending.iter().copied());
    w.list(
        "credits",
        [
            st.write_credit.to_bits(),
            st.shuffle_credit.to_bits(),
            st.frontend_credit.to_bits(),
        ],
    );
    w.flag("has_dst_credits", dst_credits.is_some());
    if let Some(c) = dst_credits {
        w.list("dst_credits", c.iter().map(|f| f.to_bits()));
    }
}

/// The most weighted-fair picks a node can have taken in `phase`: each
/// processed batch emits at most `ceil(shuffle_factor)` full messages
/// plus one flush, and no node processes more batches than it was
/// assigned or than the phase holds. Bounds the search that maps a
/// stored credit vector back to a pick count, so a hostile checkpoint
/// cannot make it walk further than an honest phase could.
fn max_dst_picks(st: &NodeState, phase: &PhasePlan, n: usize) -> usize {
    let phase_batches = phase.read_bytes_total.div_ceil(BATCH_BYTES) + n as u64;
    let batches = st.processed.min(st.batches_total).min(phase_batches);
    let per_batch = phase.shuffle_factor.ceil() as u64 + 1;
    usize::try_from(batches.saturating_mul(per_batch)).unwrap_or(usize::MAX)
}

/// Reads one node's phase progress on an `n`-node machine, plus its
/// stored weighted-fair credits (present exactly when the phase is
/// `weighted`; the caller maps them back to a pick count).
fn load_node_state(
    r: &mut StateReader<'_>,
    weighted: bool,
    n: usize,
) -> Result<(NodeState, Option<Vec<f64>>), StateError> {
    let v: Vec<u64> = r.nums("nstate")?;
    if v.len() != 10 {
        return Err(StateError::new("nstate: expected 10 fields"));
    }
    if v[9] >= n as u64 {
        return Err(StateError::new("nstate: next destination is not a node"));
    }
    let recovery_pending: Vec<u64> = r.nums("recovery_pending")?;
    let credits: Vec<u64> = r.nums("credits")?;
    if credits.len() != 3 {
        return Err(StateError::new("credits: expected 3 fields"));
    }
    let dst_credits = match (r.flag("has_dst_credits")?, weighted) {
        (false, false) => None,
        (true, true) => Some(
            r.nums::<u64>("dst_credits")?
                .into_iter()
                .map(f64::from_bits)
                .collect(),
        ),
        _ => {
            return Err(StateError::new(
                "has_dst_credits: disagrees with the phase's shuffle weights",
            ))
        }
    };
    let st = NodeState {
        bytes_total: v[0],
        batches_total: v[1],
        own_batches: v[2],
        issued: v[3],
        issued_bytes: v[4],
        processed: v[5],
        last_batch_bytes: v[6],
        recovery_pending: recovery_pending.into(),
        dead: v[7] != 0,
        fe_sent: v[8] != 0,
        next_dst: v[9] as usize,
        dst_picks: 0,
        write_credit: f64::from_bits(credits[0]),
        shuffle_credit: f64::from_bits(credits[1]),
        frontend_credit: f64::from_bits(credits[2]),
    };
    Ok((st, dst_credits))
}

/// Per-phase execution context threaded into [`handle_ev`]: the plan,
/// its precomputed costs, per-node progress, and the phase cursors. The
/// single-query loop materializes one per pop over its locals; the
/// multi-query executor materializes one per event from the owning
/// query's state.
pub(crate) struct PhaseCtx<'a> {
    pub(crate) phase: &'a PhasePlan,
    pub(crate) costs: &'a PhaseCosts,
    pub(crate) sched: Option<&'a mut DstSchedule>,
    pub(crate) nodes: &'a mut Vec<NodeState>,
    pub(crate) horizon: &'a mut SimTime,
    pub(crate) region: usize,
    pub(crate) phase_writes: bool,
    pub(crate) phase_ix: usize,
    pub(crate) window: u64,
    pub(crate) qid: u32,
}

/// Dispatches one popped *work* event against the machine: the phase
/// executor's single state machine, shared verbatim by [`run_phase`]
/// and the multi-query executor so one query's machine effects are
/// identical in both. Control events are dispatched before this point
/// and never reach here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_ev(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    fr: &mut FaultRt,
    trace: &mut Option<&mut Trace>,
    spans: &mut Option<&mut SpanRt>,
    now: SimTime,
    ev: Ev,
) {
    let PhaseCtx {
        phase,
        costs,
        sched,
        nodes,
        horizon,
        region,
        phase_writes,
        phase_ix,
        window,
        qid,
    } = ctx;
    let (phase, costs) = (*phase, *costs);
    let nodes = &mut **nodes;
    let horizon = &mut **horizon;
    let (region, phase_writes, phase_ix, window, qid) =
        (*region, *phase_writes, *phase_ix, *window, *qid);
    match ev {
        Ev::BatchRead {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            if fr.any_dead && nodes[node].dead {
                // The batch died with its node: un-issue and pool it.
                nodes[node].issued_bytes -= bytes;
                fr.pool.push((node, bytes));
                if fr.detected[node] {
                    let touched = fr.assign_detected(nodes, now);
                    refill(
                        m,
                        q,
                        nodes,
                        &touched,
                        now,
                        window,
                        region,
                        phase_writes,
                        fr.policy,
                        spans,
                        qid,
                    );
                }
                return;
            }
            record(
                trace,
                now,
                phase_ix,
                NodeId::Node(node),
                TraceKind::ReadDone,
                bytes,
            );
            let done = charge_cpu(
                m,
                node,
                now,
                (costs.os_batch, "os"),
                bytes,
                &phase.read_cpu,
                &costs.read_batch,
                costs.perf,
            );
            let cpu_span = span(
                spans,
                ev_span,
                Resource::WorkerCpu,
                SpanKind::Cpu,
                node as u32,
                now,
                done.max(now),
                bytes,
            );
            q.push(
                done.max(now),
                Ev::BatchProcessed {
                    node,
                    bytes,
                    span: cpu_span,
                    query: qid,
                },
            );
        }
        Ev::BatchProcessed {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            if fr.any_dead && nodes[node].dead {
                // Processed output lost with the node: a survivor
                // must re-read the underlying batch.
                nodes[node].issued_bytes -= bytes;
                fr.pool.push((node, bytes));
                if fr.detected[node] {
                    let touched = fr.assign_detected(nodes, now);
                    refill(
                        m,
                        q,
                        nodes,
                        &touched,
                        now,
                        window,
                        region,
                        phase_writes,
                        fr.policy,
                        spans,
                        qid,
                    );
                }
                return;
            }
            record(
                trace,
                now,
                phase_ix,
                NodeId::Node(node),
                TraceKind::BatchProcessed,
                bytes,
            );
            nodes[node].processed += 1;
            *horizon = (*horizon).max(now);
            // Keep the pipeline full.
            if nodes[node].issued < nodes[node].batches_total {
                issue_read(
                    m,
                    q,
                    nodes,
                    node,
                    now,
                    region,
                    phase_writes,
                    fr.policy,
                    spans,
                    ev_span,
                    qid,
                );
            }
            // Route the outputs.
            nodes[node].shuffle_credit += bytes as f64 * phase.shuffle_factor;
            nodes[node].frontend_credit += bytes as f64 * phase.frontend_factor;
            nodes[node].write_credit += bytes as f64 * phase.local_write_factor;
            let finished = nodes[node].processed == nodes[node].batches_total;
            drain_outputs(
                m,
                q,
                nodes,
                costs,
                fr,
                node,
                now,
                finished,
                horizon,
                region,
                phase_writes,
                sched.as_deref_mut(),
                spans,
                ev_span,
                qid,
            );
            if finished && phase.frontend_bytes_per_node > 0 && !nodes[node].fe_sent {
                nodes[node].fe_sent = true;
                if phase.frontend_combinable && node != 0 && !m.restricted_peer_routing() {
                    // Combinable partials flow up a reduction tree
                    // (the messaging library's global reduce) instead
                    // of funnelling every node's copy into the
                    // front-end link.
                    let mut parent = (node - 1) / 2;
                    if fr.any_dead {
                        // Route around dead ancestors; if the root is
                        // gone, go straight to the front-end.
                        while parent != 0 && nodes[parent].dead {
                            parent = (parent - 1) / 2;
                        }
                    }
                    if fr.any_dead && nodes[parent].dead {
                        send_frontend(
                            m,
                            q,
                            costs,
                            node,
                            now,
                            phase.frontend_bytes_per_node,
                            spans,
                            ev_span,
                            qid,
                        );
                    } else {
                        send_peer(
                            m,
                            q,
                            costs,
                            node,
                            parent,
                            now,
                            phase.frontend_bytes_per_node,
                            spans,
                            ev_span,
                            qid,
                        );
                    }
                } else {
                    send_frontend(
                        m,
                        q,
                        costs,
                        node,
                        now,
                        phase.frontend_bytes_per_node,
                        spans,
                        ev_span,
                        qid,
                    );
                }
            }
        }
        Ev::PeerArrive {
            src,
            dst,
            bytes,
            span: ev_span,
            ..
        } => {
            if fr.any_dead && nodes[dst].dead {
                // Receiver gone: the sender times out and re-sends to
                // the next survivor (unless it has since died too).
                if !nodes[src].dead {
                    if let Some(dst2) = next_healthy(nodes, dst) {
                        let arrival = m.peer_transfer(now + RETRY_TIMEOUT, src, dst2, bytes);
                        // The retry span covers the timeout plus the
                        // re-shipment so the causal chain stays gapless.
                        let retry_span = span(
                            spans,
                            ev_span,
                            Resource::Interconnect,
                            SpanKind::Transfer,
                            dst2 as u32,
                            now,
                            arrival.max(now),
                            bytes,
                        );
                        q.push(
                            arrival.max(now),
                            Ev::PeerArrive {
                                src,
                                dst: dst2,
                                bytes,
                                span: retry_span,
                                query: qid,
                            },
                        );
                    }
                }
                return;
            }
            record(
                trace,
                now,
                phase_ix,
                NodeId::Node(dst),
                TraceKind::PeerArrive,
                bytes,
            );
            let msg_cost = costs.msg_cost(m, bytes);
            let done = charge_cpu(
                m,
                dst,
                now,
                (msg_cost, "net-recv"),
                bytes,
                &phase.recv_cpu,
                &costs.recv_batch,
                costs.perf,
            );
            let recv_span = span(
                spans,
                ev_span,
                Resource::WorkerCpu,
                SpanKind::Cpu,
                dst as u32,
                now,
                done.max(now),
                bytes,
            );
            q.push(
                done.max(now),
                Ev::RecvProcessed {
                    node: dst,
                    bytes,
                    span: recv_span,
                    query: qid,
                },
            );
        }
        Ev::RecvProcessed {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            if fr.any_dead && nodes[node].dead {
                return;
            }
            record(
                trace,
                now,
                phase_ix,
                NodeId::Node(node),
                TraceKind::RecvProcessed,
                bytes,
            );
            *horizon = (*horizon).max(now);
            if phase.write_received {
                let aligned = align_sectors(bytes);
                let done = m.write(node, now, aligned, region, phase_writes);
                record(
                    trace,
                    done,
                    phase_ix,
                    NodeId::Node(node),
                    TraceKind::WriteDone,
                    aligned,
                );
                span(
                    spans,
                    ev_span,
                    Resource::DiskMedia,
                    SpanKind::DiskWrite,
                    node as u32,
                    now,
                    done,
                    aligned,
                );
                *horizon = (*horizon).max(done);
            }
        }
        Ev::FeArrive {
            bytes,
            span: ev_span,
            ..
        } => {
            record(
                trace,
                now,
                phase_ix,
                NodeId::FrontEnd,
                TraceKind::FeArrive,
                bytes,
            );
            let cost = if bytes == BATCH_BYTES {
                costs.fe_batch
            } else {
                cpu_cost(phase.frontend_cpu_ns_per_byte, bytes, costs.fe_perf)
            };
            let done = m.fe_cpu_work(now, cost, "frontend");
            span(
                spans,
                ev_span,
                Resource::FrontEndCpu,
                SpanKind::FrontEnd,
                FRONT_END_NODE,
                now,
                done,
                bytes,
            );
            *horizon = (*horizon).max(done);
        }
        Ev::RecoveryKick { node, .. } => {
            // Request timeouts on the failed node expired: its loss
            // is now globally known and its partition is reassigned.
            fr.detected[node] = true;
            let touched = fr.assign_detected(nodes, now);
            refill(
                m,
                q,
                nodes,
                &touched,
                now,
                window,
                region,
                phase_writes,
                fr.policy,
                spans,
                qid,
            );
        }
        Ev::Admit { .. } | Ev::PhaseStart { .. } | Ev::Deadline { .. } | Ev::Retry { .. } => {
            unreachable!("control events never reach the phase executor")
        }
    }
}

/// Charges one batch read against the machine and returns the completion
/// event to schedule, or `None` if the node has nothing left to read.
/// Callers either push immediately ([`issue_read`]) or collect a batch
/// for [`EventQueue::push_many`] (phase priming).
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_read(
    m: &mut Machine,
    nodes: &mut [NodeState],
    node: usize,
    now: SimTime,
    region: usize,
    phase_writes: bool,
    policy: RecoveryPolicy,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    qid: u32,
) -> Option<(SimTime, Ev)> {
    let st = &mut nodes[node];
    if st.dead {
        return None;
    }
    if st.bytes_total > 0 && st.issued < st.own_batches {
        let is_last = st.issued == st.own_batches - 1;
        let bytes = if is_last {
            st.last_batch_bytes
        } else {
            BATCH_BYTES
        };
        st.issued += 1;
        st.issued_bytes += bytes;
        let aligned = align_sectors(bytes);
        let ready = m.read(node, now, aligned, region, phase_writes);
        let read_span = span(
            spans,
            parent,
            Resource::DiskMedia,
            SpanKind::DiskRead,
            node as u32,
            now,
            ready.max(now),
            aligned,
        );
        Some((
            ready.max(now),
            Ev::BatchRead {
                node,
                bytes,
                span: read_span,
                query: qid,
            },
        ))
    } else if let Some(bytes) = st.recovery_pending.pop_front() {
        // A failed peer's batch: re-read it from the surviving disks
        // (mirror or parity reconstruction) and ship it here.
        st.issued += 1;
        st.issued_bytes += bytes;
        let aligned = align_sectors(bytes);
        let ready = m.recovery_read(policy, node, now, aligned, region, phase_writes);
        let read_span = span(
            spans,
            parent,
            Resource::Recovery,
            SpanKind::DiskRead,
            node as u32,
            now,
            ready.max(now),
            aligned,
        );
        Some((
            ready.max(now),
            Ev::BatchRead {
                node,
                bytes,
                span: read_span,
                query: qid,
            },
        ))
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn issue_read(
    m: &mut Machine,
    q: &mut EvQ,
    nodes: &mut [NodeState],
    node: usize,
    now: SimTime,
    region: usize,
    phase_writes: bool,
    policy: RecoveryPolicy,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    qid: u32,
) {
    if let Some((t, ev)) = prepare_read(
        m,
        nodes,
        node,
        now,
        region,
        phase_writes,
        policy,
        spans,
        parent,
        qid,
    ) {
        q.push(t, ev);
    }
}

#[allow(clippy::too_many_arguments)]
fn drain_outputs(
    m: &mut Machine,
    q: &mut EvQ,
    nodes: &mut [NodeState],
    costs: &PhaseCosts,
    fr: &FaultRt,
    node: usize,
    now: SimTime,
    flush: bool,
    horizon: &mut SimTime,
    region: usize,
    phase_writes: bool,
    mut sched: Option<&mut DstSchedule>,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    qid: u32,
) {
    let n = nodes.len();
    // Shuffle: emit batch-sized messages round-robin over peers. Once a
    // peer's failure is detected, senders skip it; before detection they
    // still send and pay the retry at arrival.
    loop {
        let st = &mut nodes[node];
        let emit = if st.shuffle_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.shuffle_credit >= 1.0 {
            st.shuffle_credit as u64
        } else {
            break;
        };
        st.shuffle_credit -= emit as f64;
        let mut dst = st.pick_dst(sched.as_deref_mut(), n);
        if fr.any_dead && nodes[dst].dead && fr.detected[dst] {
            match next_healthy(nodes, dst) {
                Some(d) => dst = d,
                None => continue,
            }
        }
        send_peer(m, q, costs, node, dst, now, emit, spans, parent, qid);
    }
    // Front-end stream.
    loop {
        let st = &mut nodes[node];
        let emit = if st.frontend_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.frontend_credit >= 1.0 {
            st.frontend_credit as u64
        } else {
            break;
        };
        st.frontend_credit -= emit as f64;
        send_frontend(m, q, costs, node, now, emit, spans, parent, qid);
    }
    // Local writes.
    loop {
        let st = &mut nodes[node];
        let emit = if st.write_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.write_credit >= 1.0 {
            st.write_credit as u64
        } else {
            break;
        };
        st.write_credit -= emit as f64;
        let aligned = align_sectors(emit);
        let done = m.write(node, now, aligned, region, phase_writes);
        span(
            spans,
            parent,
            Resource::DiskMedia,
            SpanKind::DiskWrite,
            node as u32,
            now,
            done,
            aligned,
        );
        *horizon = (*horizon).max(done);
    }
}

#[allow(clippy::too_many_arguments)]
fn send_peer(
    m: &mut Machine,
    q: &mut EvQ,
    costs: &PhaseCosts,
    src: usize,
    dst: usize,
    now: SimTime,
    bytes: u64,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    qid: u32,
) {
    let msg_cost = costs.msg_cost(m, bytes);
    let send_done = m.node_cpu_work(src, now, msg_cost, "net-send");
    let arrival = m.peer_transfer(send_done, src, dst, bytes);
    let send_span = span(
        spans,
        parent,
        Resource::WorkerCpu,
        SpanKind::Cpu,
        src as u32,
        now,
        send_done,
        bytes,
    );
    let wire_span = span(
        spans,
        send_span,
        Resource::Interconnect,
        SpanKind::Transfer,
        dst as u32,
        send_done,
        arrival.max(now),
        bytes,
    );
    q.push(
        arrival.max(now),
        Ev::PeerArrive {
            src,
            dst,
            bytes,
            span: wire_span,
            query: qid,
        },
    );
}

#[allow(clippy::too_many_arguments)]
fn send_frontend(
    m: &mut Machine,
    q: &mut EvQ,
    costs: &PhaseCosts,
    src: usize,
    now: SimTime,
    bytes: u64,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    qid: u32,
) {
    let msg_cost = costs.msg_cost(m, bytes);
    let send_done = m.node_cpu_work(src, now, msg_cost, "net-send");
    let arrival = m.fe_transfer(send_done, src, bytes);
    let send_span = span(
        spans,
        parent,
        Resource::WorkerCpu,
        SpanKind::Cpu,
        src as u32,
        now,
        send_done,
        bytes,
    );
    let wire_span = span(
        spans,
        send_span,
        Resource::FrontEndLink,
        SpanKind::Transfer,
        FRONT_END_NODE,
        send_done,
        arrival.max(now),
        bytes,
    );
    q.push(
        arrival.max(now),
        Ev::FeArrive {
            bytes,
            span: wire_span,
            query: qid,
        },
    );
}

/// Rounds a byte count up to whole sectors (disk requests must be
/// sector-aligned).
fn align_sectors(bytes: u64) -> u64 {
    bytes.div_ceil(512).max(1) * 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any well-formed random plan executes on every architecture with
        /// the core invariants intact: positive elapsed time, CPU busy
        /// bounded by capacity, and bit-for-bit determinism.
        #[test]
        fn prop_random_plans_hold_invariants(
            read_mb in 1u64..256,
            shuffle_pct in 0u32..=100,
            fe_pct in 0u32..=20,
            write_pct in 0u32..=100,
            cpu_ns in 0.0f64..40.0,
            nodes in 1usize..10,
            arch_ix in 0usize..3,
        ) {
            let mut phase = PhasePlan::new("random", read_mb << 20);
            phase.read_cpu = vec![CpuWork { tag: "work", ns_per_byte: cpu_ns }];
            phase.shuffle_factor = shuffle_pct as f64 / 100.0;
            phase.frontend_factor = fe_pct as f64 / 100.0;
            phase.local_write_factor = write_pct as f64 / 100.0;
            if phase.shuffle_factor > 0.0 {
                phase.recv_cpu = vec![CpuWork { tag: "recv", ns_per_byte: cpu_ns / 2.0 }];
                phase.write_received = write_pct.is_multiple_of(2);
            }
            let plan = TaskPlan { task: "random", phases: vec![phase] };
            let arch = match arch_ix {
                0 => Architecture::active_disks(nodes),
                1 => Architecture::cluster(nodes),
                _ => Architecture::smp(nodes),
            };
            let sim = Simulation::new(arch);
            let a = sim.run_plan(&plan);
            let b = sim.run_plan(&plan);
            prop_assert_eq!(&a, &b, "determinism");
            prop_assert!(a.elapsed().as_nanos() > 0);
            for p in &a.phases {
                let capacity = p.elapsed * p.nodes as u64;
                prop_assert!(p.cpu_busy_total <= capacity);
            }
        }

        /// Doubling the dataset at fixed hardware never speeds a plan up.
        #[test]
        fn prop_more_data_is_never_faster(read_mb in 1u64..128, nodes in 1usize..8) {
            let build = |mb: u64| {
                let mut phase = PhasePlan::new("scan", mb << 20);
                phase.read_cpu = vec![CpuWork { tag: "w", ns_per_byte: 5.0 }];
                TaskPlan { task: "scan", phases: vec![phase] }
            };
            let sim = Simulation::new(Architecture::active_disks(nodes));
            let small = sim.run_plan(&build(read_mb)).elapsed();
            let large = sim.run_plan(&build(read_mb * 2)).elapsed();
            prop_assert!(large >= small);
        }
    }

    /// The per-node weighted-fair picker the shared schedule replaced,
    /// kept as the differential oracle: re-sums the weights, credits
    /// every destination, and charges the most-credited (the last of
    /// equal maxima).
    fn per_node_pick(credits: &mut [f64], w: &[f64]) -> usize {
        let total: f64 = w.iter().sum();
        for (c, wi) in credits.iter_mut().zip(w) {
            *c += wi / total;
        }
        let dst = credits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite credits"))
            .map(|(i, _)| i)
            .expect("at least one destination");
        credits[dst] -= 1.0;
        dst
    }

    /// Random shuffle weights over `n` nodes drawn to stress the tie
    /// rule: some zeros, runs of exactly equal weights, and a few
    /// heavy hitters (always at least one positive weight).
    fn tie_prone_weights(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = simcore::SplitMix64::new(seed);
        let mut w: Vec<f64> = (0..n)
            .map(|_| match rng.next_below(4) {
                0 => 0.0,
                1 => 1.0,
                2 => 0.25 * (1 + rng.next_below(4)) as f64,
                _ => rng.next_f64() * 10.0,
            })
            .collect();
        if w.iter().all(|&x| x == 0.0) {
            w[rng.next_below(n as u64) as usize] = 1.0;
        }
        w
    }

    fn skewed_phase(w: Vec<f64>) -> PhasePlan {
        let mut phase = PhasePlan::new("skewed", 1 << 20);
        phase.shuffle_factor = 1.0;
        phase.shuffle_weights = Some(w);
        phase
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shared schedule walks exactly the per-node picker's
        /// sequence, and its replayed credits are the per-node credits
        /// bit for bit at every pick count, so checkpoints keep their
        /// bytes and map back to a pick count with the same future.
        #[test]
        fn prop_shared_schedule_matches_per_node_picker(seed in 0u64..1_000_000, n in 1usize..=130) {
            let w = tie_prone_weights(seed, n);
            let mut sched = DstSchedule::for_phase(&skewed_phase(w.clone()), n).unwrap();
            let mut credits = vec![0.0; n];
            let picks = 4 * n + 7;
            let bits = |c: &[f64]| c.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let mut oracle = Vec::with_capacity(picks);
            let mut oracle_credits = vec![bits(&credits)];
            for j in 0..picks {
                oracle.push(per_node_pick(&mut credits, &w));
                oracle_credits.push(bits(&credits));
                prop_assert_eq!(sched.pick(j), oracle[j], "pick {}", j);
                let replayed = sched.credits_at(&[j + 1]).remove(0);
                prop_assert_eq!(bits(&replayed), bits(&credits), "credits after {} picks", j + 1);
                if j % (n + 3) == 0 {
                    let k = sched.counts_of(&[(credits.clone(), j + 1)]).expect("on the schedule")[0];
                    prop_assert!(k <= j + 1);
                    let ahead: Vec<usize> = (0..n).map(|i| sched.pick(k + i)).collect();
                    let mut c = credits.clone();
                    let truth: Vec<usize> = (0..n).map(|_| per_node_pick(&mut c, &w)).collect();
                    prop_assert_eq!(ahead, truth, "future after count {}", k);
                }
            }
            // A checkpoint replays every node's vector in one walk: pick
            // counts in any order, with repeats, zero and the full count.
            let mut rng = simcore::SplitMix64::new(seed ^ 0xC4ED);
            let mut counts: Vec<usize> =
                (0..n).map(|_| rng.next_below(picks as u64 + 1) as usize).collect();
            counts.extend([0, picks, counts[0]]);
            for (c, replayed) in counts.iter().zip(sched.credits_at(&counts)) {
                prop_assert_eq!(&bits(&replayed), &oracle_credits[*c], "credits after {} picks", c);
            }
        }
    }

    #[test]
    fn align_rounds_up() {
        assert_eq!(align_sectors(1), 512);
        assert_eq!(align_sectors(512), 512);
        assert_eq!(align_sectors(513), 1024);
    }

    #[test]
    fn aggregate_runs_and_is_deterministic() {
        let sim = Simulation::new(Architecture::active_disks(4));
        let a = sim.run(TaskKind::Aggregate);
        let b = sim.run(TaskKind::Aggregate);
        assert_eq!(a.elapsed(), b.elapsed(), "simulation is deterministic");
        assert!(a.elapsed().as_secs_f64() > 1.0);
    }

    #[test]
    fn wheel_and_heap_backends_produce_identical_reports() {
        use simcore::QueueBackend;
        let cases = [
            (Architecture::active_disks(8), TaskKind::Sort),
            (Architecture::cluster(4), TaskKind::Join),
            (Architecture::smp(4), TaskKind::DataMine),
        ];
        for (arch, task) in cases {
            let wheel = Simulation::new(arch.clone())
                .with_queue_backend(QueueBackend::CalendarWheel)
                .run(task);
            let heap = Simulation::new(arch.clone())
                .with_queue_backend(QueueBackend::BinaryHeap)
                .run(task);
            assert_eq!(wheel, heap, "{task:?}: backends must agree field-for-field");
        }
    }

    #[test]
    fn select_scales_with_disks() {
        let t16 = Simulation::new(Architecture::active_disks(16))
            .run(TaskKind::Select)
            .elapsed();
        let t64 = Simulation::new(Architecture::active_disks(64))
            .run(TaskKind::Select)
            .elapsed();
        let speedup = t16.as_secs_f64() / t64.as_secs_f64();
        assert!(
            (2.5..4.5).contains(&speedup),
            "4× disks give near-linear speedup, got {speedup}"
        );
    }

    #[test]
    fn sort_has_two_phases_with_breakdown() {
        let r = Simulation::new(Architecture::active_disks(16)).run(TaskKind::Sort);
        assert_eq!(r.phases.len(), 2);
        let p1 = &r.phases[0];
        assert!(p1.cpu_busy_by_tag.contains_key("partitioner"));
        assert!(p1.cpu_busy_by_tag.contains_key("sort"));
        let p2 = &r.phases[1];
        assert!(p2.cpu_busy_by_tag.contains_key("merge"));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let sim = Simulation::new(Architecture::active_disks(8));
        let plain = sim.run(TaskKind::GroupBy);
        let plan = plan_task(TaskKind::GroupBy, sim.architecture());
        let mut trace = Trace::new();
        let (traced, _) = sim.run_plan_observed(&plan, Some(&mut trace), None, false);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        assert!(trace.total() > 0);
        // Every read produced a processed event.
        assert_eq!(
            trace.count(crate::trace::TraceKind::ReadDone),
            trace.count(crate::trace::TraceKind::BatchProcessed)
        );
        // Events fire in nondecreasing time order per the event loop.
        let evs = trace.events();
        assert!(evs.windows(2).all(|w| w[0].phase < w[1].phase
            || w[0].time <= w[1].time
            || w[1].kind == crate::trace::TraceKind::WriteDone));
    }

    #[test]
    fn trace_counts_shuffle_arrivals() {
        let sim = Simulation::new(Architecture::active_disks(8));
        let plan = plan_task(TaskKind::Sort, sim.architecture());
        let mut trace = Trace::new();
        sim.run_plan_observed(&plan, Some(&mut trace), None, false);
        // Sort repartitions everything: arrivals ~= 16 GB / 256 KB.
        let arrivals = trace.count(crate::trace::TraceKind::PeerArrive);
        let expected = 16_000_000_000 / super::BATCH_BYTES;
        let err = (arrivals as f64 - expected as f64).abs() / expected as f64;
        assert!(err < 0.05, "arrivals {arrivals} vs expected ~{expected}");
        assert!(trace.count(crate::trace::TraceKind::WriteDone) > 0);
    }

    #[test]
    fn degraded_disk_creates_a_straggler() {
        let healthy = Simulation::new(Architecture::active_disks(8)).run(TaskKind::Select);
        let degraded = Simulation::new(Architecture::active_disks(8))
            .with_degraded_disk(0, 1_000)
            .run(TaskKind::Select);
        // The whole phase waits for the sick drive.
        assert!(
            degraded.elapsed().as_secs_f64() > healthy.elapsed().as_secs_f64() * 1.03,
            "healthy {}, degraded {}",
            healthy.elapsed(),
            degraded.elapsed()
        );
        // The tail shows in the service-time distribution.
        assert!(degraded.disk_service.max() >= healthy.disk_service.max());
    }

    #[test]
    fn skewed_shuffle_slows_the_task() {
        use tasks::planner::apply_shuffle_skew;
        let arch = Architecture::active_disks(8);
        let uniform = Simulation::new(arch.clone()).run(TaskKind::Sort);
        let mut skewed_plan = tasks::plan_task(TaskKind::Sort, &arch);
        // One node receives half of everything.
        let mut w = vec![0.5 / 7.0; 8];
        w[0] = 0.5;
        apply_shuffle_skew(&mut skewed_plan, w);
        let skewed = Simulation::new(arch).run_plan(&skewed_plan);
        assert!(
            skewed.elapsed().as_secs_f64() > uniform.elapsed().as_secs_f64() * 1.3,
            "hot receiver must slow the sort: uniform {}, skewed {}",
            uniform.elapsed(),
            skewed.elapsed()
        );
    }

    #[test]
    fn smp_moves_everything_over_the_loop() {
        let r = Simulation::new(Architecture::smp(16)).run(TaskKind::Select);
        // Reads cross the I/O interconnect on an SMP.
        assert!(
            r.phases[0].interconnect_bytes >= TaskKind::Select.dataset().total_bytes,
            "got {}",
            r.phases[0].interconnect_bytes
        );
        // Active Disks filter at the disk: only results move.
        let a = Simulation::new(Architecture::active_disks(16)).run(TaskKind::Select);
        assert!(a.frontend_bytes() < r.phases[0].interconnect_bytes / 10);
    }
}
