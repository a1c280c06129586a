//! The discrete-event executor: one per-query phase engine under one
//! driver.
//!
//! `PhaseEngine` holds one query's progress through its plan: the phase
//! cursor, per-node read and output state, the phase's per-batch costs
//! and shuffle schedule, the query's recovery view of failed nodes, its
//! count of work events in flight, its critical-path span anchors and
//! the reports of the phases it has ended. Its methods are the phase
//! state machine, each implemented once: open a phase (`begin`, then
//! `prime`), handle a work event (`handle`), tear down a node that
//! fail-stops mid-phase (`fail_node`) and close a drained phase
//! (`close`). The engine never knows who drives it.
//!
//! [`crate::mqexec`] holds the one driver. It runs every configuration:
//! a solo run is a one-query workload on it. [`ExecRun`] (this module)
//! is the solo façade over a one-query driver: it keeps the pausable,
//! forkable run API, the solo [`Report`] and the `howsim-ckpt/v1` state
//! codec. Every solo entry point of [`Simulation`] runs through it.

use std::collections::{BTreeMap, VecDeque};

use arch::Architecture;
use simcore::span::{SpanArena, SpanId, SpanKind, FRONT_END_NODE};
use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Duration, EventQueue, QueueBackend, QueueSnapshot, SimTime, SplitMix64};
use tasks::plan::{CpuWork, PhasePlan, TaskPlan};
use tasks::{plan_task, TaskKind};

use crate::faults::{
    FaultEvent, FaultKind, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT, RETRY_TIMEOUT,
};
use crate::machine::Machine;
use crate::metrics::{MetricsBuilder, Resource, ResourceUsage};
use crate::mqexec::{query_slots, Mq, QState, QueryRun, QueryStatus, MAX_QUEUE_HINT};
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
    queue_backend: QueueBackend,
    seed: u64,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
}

/// Events of the executor. The `span` on each work event is the span
/// that completes when the event fires ([`SpanId::NONE`] unless the run
/// is profiled) — the causal parent of whatever the handler does next.
/// The `query` field names the engine that pushed a work event: a solo
/// run is query 0, a loaded run interleaves many queries on one queue.
/// Payload fields never affect the `(time, seq)` pop order.
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
    /// Control events of the driver (never seen by a phase engine): a
    /// query arrives at the admission controller.
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
    /// they carry no machine work and are not counted in flight).
    #[inline]
    pub(crate) fn work_query(&self) -> Option<u32> {
        match *self {
            Ev::BatchRead { query, .. }
            | Ev::BatchProcessed { query, .. }
            | Ev::PeerArrive { query, .. }
            | Ev::RecvProcessed { query, .. }
            | Ev::FeArrive { query, .. }
            | Ev::RecoveryKick { query, .. } => Some(query),
            _ => None,
        }
    }
}

/// Costs that are identical for every full-sized batch of a phase,
/// computed once at phase start instead of per event. Almost every batch
/// the executor handles is exactly [`BATCH_BYTES`], so the hot loop reads
/// these precomputed durations and only falls back to the float math for
/// odd-sized tail batches. The cached values are produced by the *same*
/// expressions as the fallback path, so results are bit-identical.
#[derive(Clone, Default)]
struct PhaseCosts {
    /// OS issue+complete+dispatch per batch, already scaled by CPU perf.
    os_batch: Duration,
    /// The scan's work items (`read_cpu`), each with its cost for one
    /// full batch.
    read: Vec<(CpuWork, Duration)>,
    /// The receive side's work items (`recv_cpu`), each with its cost for
    /// one full batch.
    recv: Vec<(CpuWork, Duration)>,
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
    fn new(m: &Machine, phase: &PhasePlan) -> Self {
        let perf = m.node_cpu().relative_perf;
        let fe_perf = m.fe_cpu_spec().relative_perf;
        let os_per_batch = m.os().io_issue() + m.os().io_complete() + diskos::DISPATCH_OVERHEAD;
        let stage = |work: &[CpuWork]| -> Vec<(CpuWork, Duration)> {
            work.iter()
                .map(|&w| (w, cpu_cost(w.ns_per_byte, BATCH_BYTES, perf)))
                .collect()
        };
        PhaseCosts {
            os_batch: os_per_batch.scale(1.0 / perf),
            read: stage(&phase.read_cpu),
            recv: stage(&phase.recv_cpu),
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

/// Charges `prefix` (the OS or messaging toll) followed by a stage's
/// tagged CPU work for `bytes` to a node's CPU, as one fused queueing
/// round; returns the completion time of the run. Full batches use the
/// phase's precomputed costs; tail batches pay the float math.
fn charge_cpu(
    m: &mut Machine,
    node: usize,
    now: SimTime,
    prefix: (Duration, &'static str),
    bytes: u64,
    work: &[(CpuWork, Duration)],
    perf: f64,
) -> SimTime {
    let head = std::iter::once(prefix);
    if bytes == BATCH_BYTES {
        m.node_cpu_run(
            node,
            now,
            head.chain(work.iter().map(|&(w, cost)| (cost, w.tag))),
        )
    } else {
        m.node_cpu_run(
            node,
            now,
            head.chain(
                work.iter()
                    .map(|&(w, _)| (cpu_cost(w.ns_per_byte, bytes, perf), w.tag)),
            ),
        )
    }
}

/// Per-node executor state within one phase.
#[derive(Debug, Clone)]
struct NodeState {
    /// Bytes this node reads in the phase (the plan total split across
    /// nodes, remainder distributed so no byte is dropped).
    bytes_total: u64,
    batches_total: u64,
    /// Batches served from this node's own disk; `batches_total` exceeds
    /// this when recovery work for a failed peer has been assigned here.
    own_batches: u64,
    issued: u64,
    issued_bytes: u64,
    processed: u64,
    last_batch_bytes: u64,
    /// Batch sizes of recovery work (a failed peer's partition) assigned
    /// to this node, read via the surviving disks.
    recovery_pending: VecDeque<u64>,
    /// The node's disk has fail-stopped: it issues no reads, loses
    /// in-flight work, and drops arriving messages.
    dead: bool,
    /// The final front-end/reduction message has been sent (guards
    /// against re-sending when recovery work re-arms `finished`).
    fe_sent: bool,
    next_dst: usize,
    /// Weighted-fair picks this node has taken in the phase: its next
    /// destination on a skewed shuffle is the phase [`DstSchedule`]'s
    /// entry at this index (unused under uniform round robin).
    dst_picks: usize,
    write_credit: f64,
    shuffle_credit: f64,
    frontend_credit: f64,
}

impl NodeState {
    /// Sizes of the node's own batches from index `from` on (the last
    /// one may be short).
    fn own_batch_sizes(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        (from..self.own_batches).map(move |j| {
            if j + 1 == self.own_batches {
                self.last_batch_bytes
            } else {
                BATCH_BYTES
            }
        })
    }

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
struct DstSchedule {
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
    fn for_phase(phase: &PhasePlan, n: usize) -> Option<Self> {
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

/// The run's fault schedule and what it has done so far: the driver's
/// half of fault injection. The driver ([`crate::mqexec`]) applies every
/// scheduled fault to the shared machine in time order and owns the one
/// abort clock; each [`PhaseEngine`] keeps only its recovery view.
#[derive(Clone)]
pub(crate) struct Faults {
    /// Scheduled faults in chronological order (absolute offsets).
    events: Vec<FaultEvent>,
    /// Index of the first not-yet-applied fault.
    pub(crate) next: usize,
    pub(crate) policy: RecoveryPolicy,
    /// Places the defects of media bursts.
    rng: SplitMix64,
    pub(crate) injected: u64,
    /// The abort clock: the run halts when the clock reaches it.
    pub(crate) abort_at: Option<SimTime>,
}

impl Faults {
    pub(crate) fn new(plan: &FaultPlan, policy: RecoveryPolicy, seed: u64) -> Self {
        Faults {
            events: plan.events().to_vec(),
            next: 0,
            policy,
            rng: SplitMix64::new(seed),
            injected: 0,
            abort_at: None,
        }
    }

    /// Applies the next scheduled fault to the machine if it is due at
    /// or before `now`. Returns its time and, for a fail-stop, the failed
    /// node; `None` once no fault is due. Under the fail-stop policy a
    /// fail-stop sets the abort clock `DETECT_TIMEOUT` after it.
    #[inline]
    pub(crate) fn apply_next(
        &mut self,
        m: &mut Machine,
        now: SimTime,
    ) -> Option<(SimTime, Option<usize>)> {
        let ev = *self.events.get(self.next)?;
        let t = SimTime::ZERO + ev.at;
        if t > now {
            return None;
        }
        self.next += 1;
        let failed = match ev.kind {
            FaultKind::DiskFailStop { node } if node < m.nodes() && !m.disk_failed(node) => {
                m.fail_disk(node, t);
                self.injected += 1;
                if self.policy == RecoveryPolicy::FailStop {
                    self.abort(t + DETECT_TIMEOUT);
                }
                Some(node)
            }
            FaultKind::MediaBurst { node, defects } if node < m.nodes() && !m.disk_failed(node) => {
                m.degrade_disk_seeded(node, defects as u64, &mut self.rng);
                self.injected += 1;
                None
            }
            FaultKind::LinkFault { node, severity } if node < m.nodes() => {
                m.interconnect_fault(node, severity);
                self.injected += 1;
                None
            }
            _ => None,
        };
        Some((t, failed))
    }

    /// Sets the abort clock to `at` unless it is already earlier.
    pub(crate) fn abort(&mut self, at: SimTime) {
        self.abort_at = Some(self.abort_at.map_or(at, |prev| prev.min(at)));
    }
}

/// An engine found lost work whose failure is detected and no surviving
/// node to take it: the run must abort now.
pub(crate) struct NoSurvivor;

/// The first surviving node after `from` (wrapping), if any.
fn next_healthy(nodes: &[NodeState], from: usize) -> Option<usize> {
    let n = nodes.len();
    (1..=n).map(|k| (from + k) % n).find(|&i| !nodes[i].dead)
}

impl Simulation {
    /// Creates a simulation of `arch`.
    pub fn new(arch: Architecture) -> Self {
        Simulation {
            arch,
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

    /// The architecture being simulated.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The configured event-scheduler backend.
    pub(crate) fn queue_backend(&self) -> QueueBackend {
        self.queue_backend
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
        self.run_plan_observed(plan, None, None, false).0
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
        let (report, spans) = self.run_plan_observed(plan, None, None, true);
        (report, spans.expect("profiled run returns a span trace"))
    }

    /// Runs a plan with any combination of event tracing, metrics
    /// sampling, and (when `profiled`) span recording, in a single
    /// simulation pass. The report is bit-identical whatever
    /// instrumentation is attached. Every non-pausable run entry point
    /// funnels here and drives an [`ExecRun`] straight to completion, so
    /// from-scratch runs, forked continuations and loaded runs share one
    /// event loop by construction.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_observed(
        &self,
        plan: &TaskPlan,
        mut trace: Option<&mut Trace>,
        mut metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (Report, Option<SpanTrace>) {
        let mut run = ExecRun::start_inner(self, plan, profiled);
        run.mq.run(None, &mut trace, &mut metrics);
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
#[derive(Clone, Default)]
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

/// A pausable, forkable, serializable execution of one plan on one
/// [`Simulation`]: a one-query workload on the executor's one driver.
/// Create one with [`Simulation::start`], advance it with [`run_until`]
/// (processing every event strictly before the limit), branch what-if
/// continuations with [`fork`] / [`fork_with_faults`] — each fork
/// shares the simulated prefix instead of re-running it — and complete
/// any branch with [`finish`]. Reports from forked continuations are
/// field-identical to from-scratch runs: both paths drive this same
/// loop.
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
    /// The driver, with the run as its query 0.
    mq: Mq,
}

impl<'p> ExecRun<'p> {
    fn start_inner(sim: &Simulation, plan: &'p TaskPlan, profiled: bool) -> Self {
        plan.validate().expect("invalid task plan");
        ExecRun {
            sim: sim.clone(),
            plan,
            mq: Mq::one_query(sim, plan, profiled),
        }
    }

    /// The run's one query.
    fn query(&self) -> &QueryRun {
        &self.mq.runs[0]
    }

    /// Advances the run until the simulation clock reaches `t`:
    /// processes every event firing strictly before `t` and every phase
    /// boundary falling before `t`, then pauses at an exact event
    /// boundary. Pausing and resuming never changes the final report.
    pub fn run_until(&mut self, t: SimTime) {
        self.mq.run(Some(t), &mut None, &mut None);
    }

    /// Whether the run has completed (its report is final).
    pub fn is_done(&self) -> bool {
        self.query().state == QState::Done
    }

    /// The simulation clock at the current pause point: the stashed
    /// event's pop time when one waits (everything strictly before it is
    /// simulated), else the last phase boundary.
    pub fn paused_at(&self) -> SimTime {
        match &self.mq.pending {
            Some((t, _)) => *t,
            None => self.query().eng.boundary(),
        }
    }

    /// Events processed so far (the report's `events` once done),
    /// including a popped event waiting at the pause point.
    pub fn events_so_far(&self) -> u64 {
        self.mq.popped_work()
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
        let f = &self.mq.faults;
        assert!(
            f.injected == 0 && f.next == 0,
            "cannot swap fault plans: the prefix already consumed fault state"
        );
        debug_assert!(self.query().eng.pool.is_empty() && f.abort_at.is_none());
        let mut run = self.clone();
        run.mq.faults = Faults::new(&faults, recovery, run.sim.seed);
        run.mq.runs[0].eng.policy = recovery;
        run.sim.faults = faults;
        run.sim.recovery = recovery;
        run
    }

    /// Runs to completion and returns the report — field-identical to
    /// [`Simulation::run_plan`] on the same configuration.
    pub fn finish(self) -> Report {
        self.into_parts().0
    }

    /// Runs to completion and returns the report plus the span trace.
    ///
    /// # Panics
    ///
    /// Panics if the run was not started with profiling
    /// ([`Simulation::start_profiled`]).
    pub fn finish_profiled(self) -> (Report, SpanTrace) {
        let (report, spans) = self.into_parts();
        (report, spans.expect("run was started without profiling"))
    }

    /// Runs to completion and builds the report (and span trace, when
    /// profiled).
    fn into_parts(mut self) -> (Report, Option<SpanTrace>) {
        self.mq.run(None, &mut None, &mut None);
        let mq = self.mq;
        let m = &mq.machine;
        let q = mq.runs.into_iter().next().expect("the run's query");
        let report = Report {
            task: self.plan.task,
            architecture: self.sim.arch.short_name(),
            disks: m.nodes(),
            phases: q.eng.phases,
            disk_service: m.disk_service_histogram(),
            events: mq.work_popped,
            faults_injected: mq.faults.injected,
            recovery_time: m.recovery_busy(),
            work_redistributed: m.work_redistributed(),
            aborted: q.status == QueryStatus::Aborted,
            downtime: m.disk_downtime(q.finished),
        };
        let phases = q.eng.phase_spans;
        let spans = mq.spans.map(|arena| SpanTrace { arena, phases });
        (report, spans)
    }
}

impl ExecRun<'_> {
    /// Serializes the paused run — clock, machine, fault state,
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
            self.mq.spans.is_none(),
            "profiled runs cannot be checkpointed to disk"
        );
        let q = self.query();
        let eng = &q.eng;
        let open = q.state == QState::Running;
        // The format counts the open phase's pops apart from the rest.
        let before_phase = if open {
            q.popped_at_open
        } else {
            self.mq.popped_work()
        };
        w.field("clock_ns", eng.boundary().as_nanos());
        w.field("events", before_phase);
        w.flag("aborted", q.status == QueryStatus::Aborted);
        w.field("phase_ix", eng.phase_ix);
        w.flag("done", q.state == QState::Done);
        self.mq.machine.save_state(w);
        // The fault state: the driver's schedule cursor, RNG, injected
        // count and abort clock, with the query's recovery view.
        let f = &self.mq.faults;
        w.field("fr_next", f.next);
        w.list("fr_detected", eng.detected.iter().map(|&b| u8::from(b)));
        w.field("fr_pool", eng.pool.len());
        for &(origin, bytes) in &eng.pool {
            w.list("fr_poolent", [origin as u64, bytes]);
        }
        w.field("fr_rr", eng.rr);
        w.field("fr_rng", f.rng.state());
        w.field("fr_injected", f.injected);
        w.flag("fr_abort_set", f.abort_at.is_some());
        let abort_ns = f.abort_at.unwrap_or(SimTime::ZERO).as_nanos();
        w.field("fr_abort_ns", abort_ns);
        w.flag("fr_any_dead", eng.any_dead);
        w.field("phases_done", eng.phases.len());
        for p in &eng.phases {
            p.save_state(w);
        }
        w.flag("midphase", open);
        if open {
            w.flag("pending", self.mq.pending.is_some());
            if let Some((t, ev)) = &self.mq.pending {
                w.str_field("pending_ev", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
            }
            let snap = self.mq.q.snapshot();
            w.field("q_popped", self.mq.popped_work() - before_phase);
            w.field("q_last_ns", snap.last_popped.as_nanos());
            w.field("q_len", snap.events.len());
            for (t, ev) in &snap.events {
                w.str_field("qe", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
            }
            w.field("horizon_ns", eng.horizon.as_nanos());
            w.field("nodes_n", eng.nodes.len());
            let credits = eng.sched.as_ref().map(|s| {
                let picks: Vec<usize> = eng.nodes.iter().map(|st| st.dst_picks).collect();
                s.credits_at(&picks)
            });
            for (i, st) in eng.nodes.iter().enumerate() {
                save_node_state(st, credits.as_ref().map(|c| &c[i][..]), w);
            }
            eng.before.save_state(w);
        }
    }
}

impl<'p> ExecRun<'p> {
    /// Rebuilds a paused run from [`ExecRun::save_state`] output. `sim`
    /// and `plan` must be the configuration the state was saved under
    /// (the checkpoint key guarantees this; a mismatched machine shape,
    /// an event or recovery entry naming a node the machine lacks, a
    /// clock that disagrees with the finished phases, a multi-query
    /// control event, an abort clock behind the open phase, or any other
    /// state no run reaches (`open_phase_reachable`) is also caught
    /// here as an error). The restored
    /// queue is freshly built for `sim`'s backend and replays the saved
    /// pop order exactly, so a checkpoint taken under one backend
    /// resumes bit-identically under the other.
    pub fn load_state(
        sim: &Simulation,
        plan: &'p TaskPlan,
        r: &mut StateReader<'_>,
    ) -> Result<Self, StateError> {
        if plan.validate().is_err() {
            return Err(StateError::new("invalid task plan"));
        }
        let mut run = ExecRun::start_inner(sim, plan, false);
        let clock = SimTime::from_nanos(r.num("clock_ns")?);
        let events: u64 = r.num("events")?;
        let aborted = r.flag("aborted")?;
        let phase_ix: usize = r.num("phase_ix")?;
        let done = r.flag("done")?;
        if phase_ix > plan.phases.len() {
            return Err(StateError::new("phase cursor out of range"));
        }
        let mq = &mut run.mq;
        mq.machine.load_state(r)?;
        let n = mq.machine.nodes();
        let (f, q) = (&mut mq.faults, &mut mq.runs[0]);
        f.next = r.num("fr_next")?;
        if f.next > f.events.len() {
            return Err(StateError::new("fault cursor out of range"));
        }
        let det: Vec<u8> = r.nums("fr_detected")?;
        if det.len() != n {
            return Err(StateError::new("detected-flag count mismatch"));
        }
        q.eng.detected = det.iter().map(|&b| b != 0).collect();
        q.eng.pool = r.counted("fr_pool", |r| match r.nums::<u64>("fr_poolent")?[..] {
            [origin, bytes] if origin < n as u64 => Ok((origin as usize, bytes)),
            _ => Err(StateError::new(
                "fr_poolent: expected `<origin node> <bytes>`",
            )),
        })?;
        q.eng.rr = r.num("fr_rr")?;
        f.rng = SplitMix64::new(r.num("fr_rng")?);
        f.injected = r.num("fr_injected")?;
        let abort_set = r.flag("fr_abort_set")?;
        let abort_ns: u64 = r.num("fr_abort_ns")?;
        f.abort_at = abort_set.then(|| SimTime::from_nanos(abort_ns));
        q.eng.any_dead = r.flag("fr_any_dead")?;
        q.eng.phases = r.counted("phases_done", PhaseReport::load_state)?;
        if q.eng.phases.len() != phase_ix {
            return Err(StateError::new(
                "finished-phase count disagrees with phase_ix",
            ));
        }
        let ended = q
            .eng
            .phases
            .iter()
            .try_fold(0u64, |sum, p| sum.checked_add(p.elapsed.as_nanos()));
        if ended != Some(clock.as_nanos()) {
            return Err(StateError::new("clock disagrees with the finished phases"));
        }
        let cap = query_slots(&mq.machine).min(MAX_QUEUE_HINT);
        mq.q = EventQueue::with_backend_capacity(sim.queue_backend, cap);
        mq.work_popped = events;
        q.eng.phase_ix = phase_ix;
        q.popped_at_open = events;
        mq.running = usize::from(!done);
        let midphase = r.flag("midphase")?;
        // A finished run has no open phase: its reader stops short of
        // mid-phase fields, which then fail the file as left over.
        if done {
            q.state = QState::Done;
            q.finished = clock;
            if aborted {
                q.status = QueryStatus::Aborted;
            }
        } else if !midphase {
            // Between phases, the last one's barrier open until the clock.
            // A phase closes holding no batch, so nothing is pooled.
            if !q.eng.pool.is_empty() {
                return Err(StateError::new("batches pooled between phases"));
            }
            let last = q.eng.phases.last().map_or(0, |p| p.elapsed.as_nanos());
            q.eng.start = SimTime::from_nanos(clock.as_nanos() - last);
            q.state = QState::Barrier;
            mq.q.push(
                clock,
                Ev::PhaseStart {
                    query: 0,
                    attempt: 0,
                },
            );
        } else {
            if phase_ix >= plan.phases.len() {
                return Err(StateError::new("mid-phase state past the last phase"));
            }
            let phase = &plan.phases[phase_ix];
            let pending = if r.flag("pending")? {
                let (t, ev) = parse_timed_ev(r.field("pending_ev")?)?;
                check_solo_ev(&ev, n)?;
                Some((t, ev))
            } else {
                None
            };
            let popped: u64 = r.num("q_popped")?;
            let last_popped = SimTime::from_nanos(r.num("q_last_ns")?);
            let queued = r.counted("q_len", |r| {
                let (t, ev) = parse_timed_ev(r.field("qe")?)?;
                check_solo_ev(&ev, n)?;
                if t < last_popped {
                    return Err(StateError::new("queued event behind the clock"));
                }
                Ok((t, ev))
            })?;
            let inflight = queued.len() as u64 + u64::from(pending.is_some());
            // A batch read or its processing carries 1 B to a batch, a
            // message at most the larger of a batch and the phase's
            // per-node front-end partial.
            let mut batches_in_flight = vec![0u64; n];
            let message = BATCH_BYTES.max(phase.frontend_bytes_per_node);
            for (_, ev) in pending.iter().chain(&queued) {
                let (bytes, max) = match *ev {
                    Ev::BatchRead { node, bytes, .. } | Ev::BatchProcessed { node, bytes, .. } => {
                        batches_in_flight[node] += 1;
                        (bytes, BATCH_BYTES)
                    }
                    Ev::PeerArrive { bytes, .. }
                    | Ev::RecvProcessed { bytes, .. }
                    | Ev::FeArrive { bytes, .. } => (bytes, message),
                    _ => continue,
                };
                if !(1..=max).contains(&bytes) {
                    return Err(StateError::new("event carries bytes no run sends"));
                }
            }
            mq.q.load_snapshot(QueueSnapshot {
                events: queued,
                popped,
                last_popped,
            });
            mq.work_popped = events
                .checked_add(popped)
                .and_then(|all| all.checked_sub(u64::from(pending.is_some())))
                .ok_or_else(|| StateError::new("event counts out of range"))?;
            mq.pending = pending;
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
            let (eng, m) = (&q.eng, &mq.machine);
            let planned = phase.read_bytes_total;
            if !open_phase_reachable(
                &nodes,
                &eng.pool,
                &batches_in_flight,
                eng.any_dead,
                m,
                planned,
            ) {
                return Err(StateError::new("an open phase no run reaches"));
            }
            // Costs and the phase's derived settings are recomputed,
            // never stored.
            let eng = &mut q.eng;
            eng.before = PhaseSnapshot::load_state(r)?;
            eng.enter(plan, clock);
            eng.costs = PhaseCosts::new(&mq.machine, phase);
            eng.sched = sched;
            eng.nodes = nodes;
            eng.horizon = horizon;
            eng.inflight = inflight;
            q.state = QState::Running;
        }
        if !done && f.abort_at.is_some_and(|at| at < q.eng.start) {
            return Err(StateError::new("abort clock behind the open phase"));
        }
        Ok(run)
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

/// Parses [`encode_ev`] output: a tag and the event's fields, each a
/// number, with nothing left over.
fn decode_ev(s: &str) -> Result<Ev, StateError> {
    let mut it = s.split_whitespace();
    let tag = it.next().ok_or_else(|| StateError::new("empty event"))?;
    let f: Vec<u64> = it
        .map(|v| v.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| StateError::new(format!("event `{tag}`: bad field")))?;
    let span = SpanId::NONE;
    // A query lane past `u32` reads as `u32::MAX`, which no run has.
    let node = |i: usize| f[i] as usize;
    let q = |i: usize| u32::try_from(f[i]).unwrap_or(u32::MAX);
    Ok(match (tag, f.len()) {
        ("br", 3) => Ev::BatchRead {
            node: node(0),
            bytes: f[1],
            span,
            query: q(2),
        },
        ("bp", 3) => Ev::BatchProcessed {
            node: node(0),
            bytes: f[1],
            span,
            query: q(2),
        },
        ("pa", 4) => Ev::PeerArrive {
            src: node(0),
            dst: node(1),
            bytes: f[2],
            span,
            query: q(3),
        },
        ("rp", 3) => Ev::RecvProcessed {
            node: node(0),
            bytes: f[1],
            span,
            query: q(2),
        },
        ("fe", 2) => Ev::FeArrive {
            bytes: f[0],
            span,
            query: q(1),
        },
        ("rk", 2) => Ev::RecoveryKick {
            node: node(0),
            query: q(1),
        },
        ("ad", 1) => Ev::Admit { query: q(0) },
        ("ps", 2) => Ev::PhaseStart {
            query: q(0),
            attempt: q(1),
        },
        ("dl", 2) => Ev::Deadline {
            query: q(0),
            attempt: q(1),
        },
        ("rt", 1) => Ev::Retry { query: q(0) },
        _ => {
            return Err(StateError::new(format!(
                "event `{s}`: unknown tag or field count"
            )))
        }
    })
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

/// Whether a restored open phase is one a run can reach; resuming any
/// other could panic, hang or end with a wrong report. Per node:
/// `processed ≤ issued ≤ batches_total` and `own_batches ≤
/// batches_total`; the unissued batches are the unissued own ones plus
/// the pending recovery; a live node has every issued, unprocessed batch
/// in flight (`in_flight` counts its queued reads and processing), a dead
/// one at most those; and `dead` is the machine's fail flag. Every
/// pooled, pending-recovery and unissued own batch holds 1 B to a batch,
/// `any_dead` says whether any node failed, and the issued, unissued own,
/// pending and pooled bytes add up to the phase's `planned` bytes (the
/// conservation [`PhaseEngine::close`] asserts).
fn open_phase_reachable(
    nodes: &[NodeState],
    pool: &[(usize, u64)],
    in_flight: &[u64],
    any_dead: bool,
    m: &Machine,
    planned: u64,
) -> bool {
    let batch = |b: &u64| (1..=BATCH_BYTES).contains(b);
    let mut bytes: u128 = pool.iter().map(|&(_, b)| u128::from(b)).sum();
    let nodes_ok = nodes.iter().enumerate().all(|(i, st)| {
        // Own batches go first; a node with no share has none to issue.
        let own = if st.bytes_total > 0 {
            st.own_batches.saturating_sub(st.issued)
        } else {
            0
        };
        if own > 0 {
            bytes +=
                u128::from(own - 1) * u128::from(BATCH_BYTES) + u128::from(st.last_batch_bytes);
        }
        let pending: u128 = st.recovery_pending.iter().map(|&b| u128::from(b)).sum();
        bytes += u128::from(st.issued_bytes) + pending;
        let unissued = st.batches_total.checked_sub(st.issued).map(u128::from);
        let unprocessed = st.issued.checked_sub(st.processed);
        st.own_batches <= st.batches_total
            && unissued == Some(u128::from(own) + st.recovery_pending.len() as u128)
            && unprocessed.is_some_and(|u| in_flight[i] == u || (st.dead && in_flight[i] < u))
            && st.dead == m.disk_failed(i)
            && (own == 0 || batch(&st.last_batch_bytes))
            && st.recovery_pending.iter().all(batch)
    });
    nodes_ok
        && pool.iter().all(|(_, b)| batch(b))
        && any_dead == (m.failed_count() > 0)
        && bytes == u128::from(planned)
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

/// One query's phase engine: everything a query holds while its phases
/// run on a machine, and the phase state machine over it. The driver
/// ([`crate::mqexec`]) runs one engine per query on a shared machine
/// and event queue; a solo run is its one query. Opening a phase
/// ([`begin`], then [`prime`]), handling its work events ([`handle`]),
/// tearing down a node that fail-stops mid-phase ([`fail_node`]) and
/// closing it ([`close`]) each have this one implementation. When
/// faults strike, when a failure counts as detected at a phase start,
/// and how a run ends are the driver's.
///
/// [`begin`]: PhaseEngine::begin
/// [`prime`]: PhaseEngine::prime
/// [`handle`]: PhaseEngine::handle
/// [`fail_node`]: PhaseEngine::fail_node
/// [`close`]: PhaseEngine::close
#[derive(Clone)]
pub(crate) struct PhaseEngine {
    /// Query lane stamped on every event and span the engine emits (0 in
    /// a solo run).
    qid: u32,
    /// Index in the plan of the open phase (of the next one between
    /// phases).
    pub(crate) phase_ix: usize,
    /// The query's recovery view: the policy, the failures it has
    /// detected (peers keep sending to an undetected one), lost batches
    /// pooled for survivors as `(origin node, bytes)`, the round-robin
    /// survivor cursor, and a guard set once it has seen a fail-stop.
    policy: RecoveryPolicy,
    detected: Vec<bool>,
    pool: Vec<(usize, u64)>,
    rr: usize,
    any_dead: bool,
    /// Per-node progress through the open phase.
    nodes: Vec<NodeState>,
    /// Per-batch costs of the open phase: a pure function of the machine
    /// configuration and the phase plan, recomputed (never serialized)
    /// on checkpoint restore.
    costs: PhaseCosts,
    /// The skewed shuffle's destination schedule (`None` = round robin);
    /// like `costs`, rebuilt on restore, with each node's position
    /// recovered from its stored credits.
    sched: Option<DstSchedule>,
    /// The open phase's read-allocator region: base data, or the
    /// intermediate runs written by a previous phase.
    region: usize,
    /// Whether the open phase carries a substantial write stream —
    /// disk-group separation (SMP, NOW-sort style) only pays off when it
    /// does.
    writes: bool,
    /// When the open phase began (its barrier-start clock).
    start: SimTime,
    /// Machine counters when the open phase began.
    before: PhaseSnapshot,
    /// The latest completion the open phase has produced.
    horizon: SimTime,
    /// Work events this engine has pushed that have not popped yet.
    pub(crate) inflight: u64,
    /// Last-ending retained span of the open phase (the critical-path
    /// anchor) and its end. Later records at the same end win, which is
    /// deterministic because record order follows the event pop order.
    last: SpanId,
    last_end: SimTime,
    /// Span window and anchor of every phase ended so far (profiled runs
    /// only).
    pub(crate) phase_spans: Vec<PhaseSpans>,
    /// Report of every phase ended so far.
    pub(crate) phases: Vec<PhaseReport>,
}

impl PhaseEngine {
    /// An engine on query lane `qid` of an `nodes`-node machine, before
    /// its first phase.
    pub(crate) fn new(qid: u32, policy: RecoveryPolicy, nodes: usize) -> Self {
        PhaseEngine {
            qid,
            phase_ix: 0,
            policy,
            detected: vec![false; nodes],
            pool: Vec::new(),
            rr: 0,
            any_dead: false,
            nodes: Vec::new(),
            costs: PhaseCosts::default(),
            sched: None,
            region: 0,
            writes: false,
            start: SimTime::ZERO,
            before: PhaseSnapshot::default(),
            horizon: SimTime::ZERO,
            inflight: 0,
            last: SpanId::NONE,
            last_end: SimTime::ZERO,
            phase_spans: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Where the query's phases so far end: the sum of their lengths,
    /// which is the clock of the boundary a solo run stands at between
    /// phases (its phases run back to back from time zero).
    pub(crate) fn boundary(&self) -> SimTime {
        SimTime::ZERO + self.phases.iter().map(|p| p.elapsed).sum()
    }

    /// Counts every failed node of `m` as detected: a phase start is a
    /// synchronization point, so no failure is news there.
    pub(crate) fn detect_failed(&mut self, m: &Machine) {
        self.any_dead = m.failed_count() > 0;
        for (i, d) in self.detected.iter_mut().enumerate() {
            *d = m.disk_failed(i);
        }
    }

    /// Reassigns every pooled batch whose origin's failure is detected,
    /// round-robin over survivors. Returns the survivors that received
    /// work.
    fn assign_detected(&mut self) -> Result<Vec<usize>, NoSurvivor> {
        let mut touched = Vec::new();
        let healthy: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].dead)
            .collect();
        let mut i = 0;
        while i < self.pool.len() {
            let (origin, bytes) = self.pool[i];
            if !self.detected[origin] {
                i += 1;
                continue;
            }
            if healthy.is_empty() {
                return Err(NoSurvivor);
            }
            self.pool.remove(i);
            let target = healthy[self.rr % healthy.len()];
            self.rr += 1;
            self.nodes[target].batches_total += 1;
            self.nodes[target].recovery_pending.push_back(bytes);
            if !touched.contains(&target) {
                touched.push(target);
            }
        }
        Ok(touched)
    }

    /// Points the engine at phase `phase_ix` of `plan`, opened at
    /// `start`: the part of opening a phase that leaves the machine
    /// alone, which a restored checkpoint redoes.
    fn enter(&mut self, plan: &TaskPlan, start: SimTime) {
        let phase = &plan.phases[self.phase_ix];
        self.region = usize::from(phase.reads_intermediate);
        self.writes = phase.local_write_factor >= 0.25 || phase.write_received;
        self.start = start;
        self.horizon = start;
        self.last = SpanId::NONE;
        self.last_end = start;
    }

    /// Opens phase `phase_ix` of `plan` at `at`, its barrier-start clock:
    /// resets the machine's extent cursors, the phase clocks and the
    /// span anchor, and snapshots the machine counters. The driver then
    /// applies its failure-detection rule and calls
    /// [`PhaseEngine::prime`].
    pub(crate) fn begin(&mut self, m: &mut Machine, plan: &TaskPlan, at: SimTime) {
        self.enter(plan, at);
        m.begin_phase(self.region);
        self.before = PhaseSnapshot::take(m);
    }

    /// Lays the open phase's reads out over the nodes and fills every
    /// node's read window at `at`. The plan's bytes split across nodes
    /// without dropping the division remainder: the first `remainder`
    /// nodes read one extra byte. Intermediate data (runs written in a
    /// previous phase) lives on the surviving disks, so those phases
    /// split across survivors only; base data has fixed placement, so a
    /// dead node's share is pooled and whatever of the pool is already
    /// detected goes to survivors. Under the fail-stop policy such a
    /// phase issues nothing: its lost share is never re-read, so it
    /// waits for the abort clock. Fails when no survivor remains.
    pub(crate) fn prime(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        plan: &TaskPlan,
        at: SimTime,
    ) -> Result<(), NoSurvivor> {
        let phase = &plan.phases[self.phase_ix];
        let n = m.nodes();
        let failed_now = m.failed_count();
        if failed_now == n {
            return Err(NoSurvivor);
        }
        self.sched = DstSchedule::for_phase(phase, n);
        let healthy_split = failed_now > 0 && phase.reads_intermediate;
        let split_n = if healthy_split { n - failed_now } else { n } as u64;
        let base_per_node = phase.read_bytes_total / split_n;
        let remainder = (phase.read_bytes_total % split_n) as usize;
        let mut rank = 0usize;
        self.nodes = (0..n)
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
                let batches = bytes_total.div_ceil(BATCH_BYTES);
                let last = bytes_total - batches.saturating_sub(1) * BATCH_BYTES;
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
        if failed_now > 0 && !healthy_split {
            for (i, st) in self.nodes.iter_mut().enumerate() {
                if st.dead && st.bytes_total > 0 {
                    self.pool.extend(st.own_batch_sizes(0).map(|b| (i, b)));
                    st.bytes_total = 0;
                    st.batches_total = 0;
                    st.own_batches = 0;
                    st.last_batch_bytes = 0;
                }
            }
            self.assign_detected()?;
            if self.policy == RecoveryPolicy::FailStop {
                return Ok(());
            }
        }
        self.costs = PhaseCosts::new(m, phase);
        let window = m.window() as u64;
        for node in 0..n {
            for _ in 0..window.min(self.nodes[node].batches_total) {
                self.issue_read(m, q, spans, node, at, SpanId::NONE);
            }
        }
        Ok(())
    }

    /// Handles one popped work event of this engine: the phase's single
    /// state machine. Control events belong to the driver and never
    /// reach here. Fails when recovery finds no survivor. Inlined into
    /// the driver's event loop: called out of line, `sweep_bench`'s
    /// admission probe (a one-query loaded 64-disk cluster join against
    /// the solo run) read 9-11% instead of 2-3%.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        trace: &mut Option<&mut Trace>,
        plan: &TaskPlan,
        (now, ev): (SimTime, Ev),
    ) -> Result<(), NoSurvivor> {
        self.inflight -= 1;
        self.horizon = self.horizon.max(now);
        let phase = &plan.phases[self.phase_ix];
        let phase_ix = self.phase_ix;
        match ev {
            Ev::BatchRead {
                node,
                bytes,
                span: ev_span,
                ..
            } => {
                if self.any_dead && self.nodes[node].dead {
                    return self.lose(m, q, spans, node, bytes, now);
                }
                record(
                    trace,
                    now,
                    phase_ix,
                    NodeId::Node(node),
                    TraceKind::ReadDone,
                    bytes,
                );
                let c = &self.costs;
                let done = charge_cpu(m, node, now, (c.os_batch, "os"), bytes, &c.read, c.perf);
                let done = done.max(now);
                let cpu_span = self.span(
                    spans,
                    ev_span,
                    Resource::WorkerCpu,
                    SpanKind::Cpu,
                    node as u32,
                    now,
                    done,
                    bytes,
                );
                let ev = Ev::BatchProcessed {
                    node,
                    bytes,
                    span: cpu_span,
                    query: self.qid,
                };
                self.push(q, done, ev);
            }
            Ev::BatchProcessed {
                node,
                bytes,
                span: ev_span,
                ..
            } => {
                if self.any_dead && self.nodes[node].dead {
                    // Processed output lost with the node: a survivor
                    // must re-read the underlying batch.
                    return self.lose(m, q, spans, node, bytes, now);
                }
                record(
                    trace,
                    now,
                    phase_ix,
                    NodeId::Node(node),
                    TraceKind::BatchProcessed,
                    bytes,
                );
                self.nodes[node].processed += 1;
                // Keep the pipeline full.
                if self.nodes[node].issued < self.nodes[node].batches_total {
                    self.issue_read(m, q, spans, node, now, ev_span);
                }
                // Route the outputs.
                let st = &mut self.nodes[node];
                st.shuffle_credit += bytes as f64 * phase.shuffle_factor;
                st.frontend_credit += bytes as f64 * phase.frontend_factor;
                st.write_credit += bytes as f64 * phase.local_write_factor;
                self.drain_outputs(m, q, spans, node, now, ev_span);
                let st = &self.nodes[node];
                if st.processed == st.batches_total
                    && phase.frontend_bytes_per_node > 0
                    && !st.fe_sent
                {
                    self.nodes[node].fe_sent = true;
                    let bytes = phase.frontend_bytes_per_node;
                    // Combinable partials flow up a reduction tree (the
                    // messaging library's global reduce) instead of
                    // funnelling every node's copy into the front-end
                    // link. Dead ancestors are routed around; if the root
                    // is gone, the partial goes straight to the front-end.
                    let up =
                        (phase.frontend_combinable && node != 0 && !m.restricted_peer_routing())
                            .then(|| {
                                let mut parent = (node - 1) / 2;
                                while self.any_dead && parent != 0 && self.nodes[parent].dead {
                                    parent = (parent - 1) / 2;
                                }
                                parent
                            })
                            .filter(|&p| !(self.any_dead && self.nodes[p].dead));
                    match up {
                        Some(parent) => {
                            self.send_peer(m, q, spans, node, parent, now, bytes, ev_span)
                        }
                        None => self.send_frontend(m, q, spans, node, now, bytes, ev_span),
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
                if self.any_dead && self.nodes[dst].dead {
                    // Receiver gone: the sender times out and re-sends to
                    // the next survivor (unless it has since died too).
                    if self.nodes[src].dead {
                        return Ok(());
                    }
                    if let Some(dst2) = next_healthy(&self.nodes, dst) {
                        let arrival = m.peer_transfer(now + RETRY_TIMEOUT, src, dst2, bytes);
                        let arrival = arrival.max(now);
                        // The retry span covers the timeout plus the
                        // re-shipment so the causal chain stays gapless.
                        let retry_span = self.span(
                            spans,
                            ev_span,
                            Resource::Interconnect,
                            SpanKind::Transfer,
                            dst2 as u32,
                            now,
                            arrival,
                            bytes,
                        );
                        let ev = Ev::PeerArrive {
                            src,
                            dst: dst2,
                            bytes,
                            span: retry_span,
                            query: self.qid,
                        };
                        self.push(q, arrival, ev);
                    }
                    return Ok(());
                }
                record(
                    trace,
                    now,
                    phase_ix,
                    NodeId::Node(dst),
                    TraceKind::PeerArrive,
                    bytes,
                );
                let c = &self.costs;
                let prefix = (c.msg_cost(m, bytes), "net-recv");
                let done = charge_cpu(m, dst, now, prefix, bytes, &c.recv, c.perf).max(now);
                let recv_span = self.span(
                    spans,
                    ev_span,
                    Resource::WorkerCpu,
                    SpanKind::Cpu,
                    dst as u32,
                    now,
                    done,
                    bytes,
                );
                let ev = Ev::RecvProcessed {
                    node: dst,
                    bytes,
                    span: recv_span,
                    query: self.qid,
                };
                self.push(q, done, ev);
            }
            Ev::RecvProcessed {
                node,
                bytes,
                span: ev_span,
                ..
            } => {
                if self.any_dead && self.nodes[node].dead {
                    return Ok(());
                }
                record(
                    trace,
                    now,
                    phase_ix,
                    NodeId::Node(node),
                    TraceKind::RecvProcessed,
                    bytes,
                );
                if phase.write_received {
                    let aligned = align_sectors(bytes);
                    let done = m.write(node, now, aligned, self.region, self.writes);
                    record(
                        trace,
                        done,
                        phase_ix,
                        NodeId::Node(node),
                        TraceKind::WriteDone,
                        aligned,
                    );
                    self.span(
                        spans,
                        ev_span,
                        Resource::DiskMedia,
                        SpanKind::DiskWrite,
                        node as u32,
                        now,
                        done,
                        aligned,
                    );
                    self.horizon = self.horizon.max(done);
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
                    self.costs.fe_batch
                } else {
                    cpu_cost(phase.frontend_cpu_ns_per_byte, bytes, self.costs.fe_perf)
                };
                let done = m.fe_cpu_work(now, cost, "frontend");
                self.span(
                    spans,
                    ev_span,
                    Resource::FrontEndCpu,
                    SpanKind::FrontEnd,
                    FRONT_END_NODE,
                    now,
                    done,
                    bytes,
                );
                self.horizon = self.horizon.max(done);
            }
            Ev::RecoveryKick { node, .. } => {
                // Request timeouts on the failed node expired: its loss
                // is now globally known and its partition is reassigned.
                self.detected[node] = true;
                return self.reassign(m, q, spans, now);
            }
            Ev::Admit { .. } | Ev::PhaseStart { .. } | Ev::Deadline { .. } | Ev::Retry { .. } => {
                unreachable!("control events never reach the phase engine")
            }
        }
        Ok(())
    }

    /// Tears down `node`, which fail-stopped at `t`, as the driver
    /// applies the fault at `now`. The node issues nothing more; its
    /// unissued own batches and any recovery work it held are pooled for
    /// survivors, and unless the policy is fail-stop its detection is
    /// scheduled `DETECT_TIMEOUT` after the failure. Work it had in
    /// flight is lost lazily, as its events pop.
    pub(crate) fn fail_node(
        &mut self,
        q: &mut EventQueue<Ev>,
        node: usize,
        t: SimTime,
        now: SimTime,
    ) {
        self.any_dead = true;
        let st = &mut self.nodes[node];
        if st.dead {
            return;
        }
        st.dead = true;
        self.pool
            .extend(st.own_batch_sizes(st.issued).map(|b| (node, b)));
        self.pool
            .extend(st.recovery_pending.drain(..).map(|b| (node, b)));
        st.batches_total = st.issued;
        st.own_batches = st.issued;
        if self.policy != RecoveryPolicy::FailStop {
            let kick = Ev::RecoveryKick {
                node,
                query: self.qid,
            };
            self.push(q, (t + DETECT_TIMEOUT).max(now), kick);
        }
    }

    /// Closes the open phase once its work has drained and returns the
    /// end of its barrier. Checks byte conservation, extends the phase by
    /// its out-of-band positioning tail, adds the global barrier (no node
    /// starts the next phase before all have finished this one), records
    /// both on the critical path and advances the plan cursor.
    pub(crate) fn close(
        &mut self,
        m: &Machine,
        spans: &mut Option<&mut SpanArena>,
        plan: &TaskPlan,
    ) -> SimTime {
        let phase = &plan.phases[self.phase_ix];
        // Byte conservation: the nodes together must have issued exactly
        // the plan's read bytes — the per-node split drops nothing, and
        // recovery re-issues every batch a failed node left behind.
        let issued: u64 = self.nodes.iter().map(|s| s.issued_bytes).sum();
        assert_eq!(
            issued, phase.read_bytes_total,
            "query {} phase '{}' issued {issued} B of {} B planned",
            self.qid, phase.name, phase.read_bytes_total
        );
        // Out-of-band disk positioning penalty (e.g. merge run switches):
        // per-node and overlapped across nodes, so it extends the phase
        // once.
        let end = self.horizon + phase.extra_disk_busy_per_node;
        if phase.extra_disk_busy_per_node > Duration::ZERO {
            let horizon = self.horizon;
            self.synthetic_span(
                spans,
                POSITIONING_RESOURCE,
                SpanKind::Positioning,
                horizon,
                end,
            );
        }
        // The barrier span chains onto the phase's last span (which ends
        // exactly at `end` on healthy runs), making it the anchor.
        let barrier_end = end + m.barrier_costs().barrier(m.nodes());
        self.synthetic_span(spans, BARRIER_RESOURCE, SpanKind::Barrier, end, barrier_end);
        self.end_phase(m, spans.is_some(), plan, barrier_end);
        barrier_end
    }

    /// Ends the open phase at `end`: records its report (the machine's
    /// counters since the phase began) and, when profiled, its span
    /// window, then advances the plan cursor. [`PhaseEngine::close`]
    /// ends a drained phase here; the abort clock ends an open phase
    /// here directly, with no barrier.
    pub(crate) fn end_phase(&mut self, m: &Machine, profiled: bool, plan: &TaskPlan, end: SimTime) {
        let name = plan.phases[self.phase_ix].name;
        if profiled {
            self.phase_spans.push(PhaseSpans {
                name,
                start: self.start,
                end,
                anchor: self.last,
            });
        }
        let after = PhaseSnapshot::take(m);
        let elapsed = end.since(self.start);
        self.phases
            .push(self.before.delta(&after, name, elapsed, m.nodes()));
        self.phase_ix += 1;
    }

    /// Cuts the last ended phase short at `end`: the abort clock struck
    /// in its positioning tail or barrier, which count as part of it.
    pub(crate) fn cut_tail(&mut self, end: SimTime) {
        if let Some(p) = self.phases.last_mut() {
            p.elapsed = end.since(self.start);
        }
        if let Some(w) = self.phase_spans.last_mut() {
            w.end = end;
        }
    }

    /// Schedules one of this engine's work events, counting it in flight.
    #[inline]
    fn push(&mut self, q: &mut EventQueue<Ev>, t: SimTime, ev: Ev) {
        self.inflight += 1;
        q.push(t, ev);
    }

    /// Records a span if profiling is enabled — one `Option` check per
    /// site when it is not — on this engine's query lane.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn span(
        &mut self,
        spans: &mut Option<&mut SpanArena>,
        parent: SpanId,
        resource: Resource,
        kind: SpanKind,
        node: u32,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        match spans {
            Some(arena) => {
                arena.set_query(self.qid);
                let id = arena.record(
                    parent,
                    resource.span_resource(),
                    kind,
                    node,
                    start,
                    end,
                    bytes,
                );
                self.anchor(id, end)
            }
            None => SpanId::NONE,
        }
    }

    /// Records a synthetic front-end span (a positioning tail or a
    /// barrier) chained onto the current anchor.
    fn synthetic_span(
        &mut self,
        spans: &mut Option<&mut SpanArena>,
        resource: &'static str,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(arena) = spans {
            arena.set_query(self.qid);
            let id = arena.record(self.last, resource, kind, FRONT_END_NODE, start, end, 0);
            self.anchor(id, end);
        }
    }

    /// Makes a retained span ending at or after the anchor the new anchor.
    fn anchor(&mut self, id: SpanId, end: SimTime) -> SpanId {
        if id.is_some() && end >= self.last_end {
            self.last = id;
            self.last_end = end;
        }
        id
    }

    /// Un-issues a batch lost with its dead node and pools it for a
    /// survivor to re-read, at once if the failure is already detected.
    fn lose(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        node: usize,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), NoSurvivor> {
        self.nodes[node].issued_bytes -= bytes;
        self.pool.push((node, bytes));
        if self.detected[node] {
            return self.reassign(m, q, spans, now);
        }
        Ok(())
    }

    /// Hands every pooled batch whose origin's failure is detected to the
    /// survivors, then tops their pipelines back up to the read window:
    /// a survivor's own pipeline may already have drained, in which case
    /// no `BatchProcessed` event would ever re-prime it. The refills are
    /// rooted at the detection, not at a prior span; the critical-path
    /// walker surfaces any gap they leave as "unattributed".
    fn reassign(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        now: SimTime,
    ) -> Result<(), NoSurvivor> {
        let window = m.window() as u64;
        for node in self.assign_detected()? {
            while !self.nodes[node].dead
                && self.nodes[node].issued < self.nodes[node].batches_total
                && self.nodes[node]
                    .issued
                    .saturating_sub(self.nodes[node].processed)
                    < window
            {
                self.issue_read(m, q, spans, node, now, SpanId::NONE);
            }
        }
        Ok(())
    }

    /// Issues `node`'s next batch read against the machine and schedules
    /// its completion: its own partition first, then recovery work for
    /// failed peers, re-read from the surviving disks (mirror or parity
    /// reconstruction) and shipped here. A dead or finished node issues
    /// nothing.
    fn issue_read(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        node: usize,
        now: SimTime,
        parent: SpanId,
    ) {
        let st = &mut self.nodes[node];
        if st.dead {
            return;
        }
        let own = st.bytes_total > 0 && st.issued < st.own_batches;
        let bytes = if own {
            st.own_batch_sizes(st.issued)
                .next()
                .expect("an unissued own batch")
        } else {
            match st.recovery_pending.pop_front() {
                Some(bytes) => bytes,
                None => return,
            }
        };
        st.issued += 1;
        st.issued_bytes += bytes;
        let aligned = align_sectors(bytes);
        let (ready, resource) = if own {
            let ready = m.read(node, now, aligned, self.region, self.writes);
            (ready, Resource::DiskMedia)
        } else {
            let ready = m.recovery_read(self.policy, node, now, aligned, self.region, self.writes);
            (ready, Resource::Recovery)
        };
        let ready = ready.max(now);
        let read_span = self.span(
            spans,
            parent,
            resource,
            SpanKind::DiskRead,
            node as u32,
            now,
            ready,
            aligned,
        );
        let ev = Ev::BatchRead {
            node,
            bytes,
            span: read_span,
            query: self.qid,
        };
        self.push(q, ready, ev);
    }

    /// Emits `node`'s banked outputs in batch-sized pieces — shuffle
    /// messages to peers, front-end messages, local writes — and, once
    /// the node has processed its last batch, flushes the remainders.
    fn drain_outputs(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        node: usize,
        now: SimTime,
        parent: SpanId,
    ) {
        let n = self.nodes.len();
        let flush = self.nodes[node].processed == self.nodes[node].batches_total;
        // Shuffle. Once a peer's failure is detected, senders skip it;
        // before detection they still send and pay the retry at arrival.
        while let Some(emit) = take_batch(&mut self.nodes[node].shuffle_credit, flush) {
            let mut dst = self.nodes[node].pick_dst(self.sched.as_mut(), n);
            if self.any_dead && self.nodes[dst].dead && self.detected[dst] {
                match next_healthy(&self.nodes, dst) {
                    Some(d) => dst = d,
                    None => continue,
                }
            }
            self.send_peer(m, q, spans, node, dst, now, emit, parent);
        }
        while let Some(emit) = take_batch(&mut self.nodes[node].frontend_credit, flush) {
            self.send_frontend(m, q, spans, node, now, emit, parent);
        }
        while let Some(emit) = take_batch(&mut self.nodes[node].write_credit, flush) {
            let aligned = align_sectors(emit);
            let done = m.write(node, now, aligned, self.region, self.writes);
            self.span(
                spans,
                parent,
                Resource::DiskMedia,
                SpanKind::DiskWrite,
                node as u32,
                now,
                done,
                aligned,
            );
            self.horizon = self.horizon.max(done);
        }
    }

    /// Sends `bytes` from `src` to peer `dst`: the messaging CPU toll,
    /// then the wire.
    #[allow(clippy::too_many_arguments)]
    fn send_peer(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        src: usize,
        dst: usize,
        now: SimTime,
        bytes: u64,
        parent: SpanId,
    ) {
        let send_done = m.node_cpu_work(src, now, self.costs.msg_cost(m, bytes), "net-send");
        let arrival = m.peer_transfer(send_done, src, dst, bytes).max(now);
        let send_span = self.span(
            spans,
            parent,
            Resource::WorkerCpu,
            SpanKind::Cpu,
            src as u32,
            now,
            send_done,
            bytes,
        );
        let wire_span = self.span(
            spans,
            send_span,
            Resource::Interconnect,
            SpanKind::Transfer,
            dst as u32,
            send_done,
            arrival,
            bytes,
        );
        let ev = Ev::PeerArrive {
            src,
            dst,
            bytes,
            span: wire_span,
            query: self.qid,
        };
        self.push(q, arrival, ev);
    }

    /// Sends `bytes` from `src` to the front-end: the messaging CPU toll,
    /// then the front-end link.
    #[allow(clippy::too_many_arguments)]
    fn send_frontend(
        &mut self,
        m: &mut Machine,
        q: &mut EventQueue<Ev>,
        spans: &mut Option<&mut SpanArena>,
        src: usize,
        now: SimTime,
        bytes: u64,
        parent: SpanId,
    ) {
        let send_done = m.node_cpu_work(src, now, self.costs.msg_cost(m, bytes), "net-send");
        let arrival = m.fe_transfer(send_done, src, bytes).max(now);
        let send_span = self.span(
            spans,
            parent,
            Resource::WorkerCpu,
            SpanKind::Cpu,
            src as u32,
            now,
            send_done,
            bytes,
        );
        let wire_span = self.span(
            spans,
            send_span,
            Resource::FrontEndLink,
            SpanKind::Transfer,
            FRONT_END_NODE,
            send_done,
            arrival,
            bytes,
        );
        let ev = Ev::FeArrive {
            bytes,
            span: wire_span,
            query: self.qid,
        };
        self.push(q, arrival, ev);
    }
}

/// Takes one emission off a node's output credit: a full batch while one
/// is banked, else (when flushing) the remainder, if at least one byte.
fn take_batch(credit: &mut f64, flush: bool) -> Option<u64> {
    let emit = if *credit >= BATCH_BYTES as f64 {
        BATCH_BYTES
    } else if flush && *credit >= 1.0 {
        *credit as u64
    } else {
        return None;
    };
    *credit -= emit as f64;
    Some(emit)
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
            .with_fault_plan(FaultPlan::parse_spec("slow:0@0s:1000").unwrap())
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
