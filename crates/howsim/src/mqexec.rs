//! The executor's one driver: many task plans interleaved
//! deterministically on one shared [`Machine`], wrapped in an
//! overload-robustness control plane. A solo run is a one-query workload
//! on it ([`crate::ExecRun`] is its façade).
//!
//! Each query runs on its own `PhaseEngine` from [`crate::exec`]: the
//! same code opens, handles, fails and closes every phase. `Mq` owns the
//! shared machine and event queue, dispatches each work event to the
//! engine of the query it names, and closes a phase once that engine has
//! no work in flight. Around that it adds the control plane:
//!
//! - **Admission control** ([`AdmissionPolicy`]): at most `max_concurrent`
//!   queries execute at once; up to `queue_limit` wait in FIFO order; any
//!   further arrival is *shed* — counted in its [`QueryOutcome`], never
//!   silently dropped.
//! - **Deadlines with bounded retry** ([`DeadlinePolicy`]): a query that
//!   misses its deadline (measured from admission for the first attempt,
//!   from the restart for retries) is torn down, waits a seeded
//!   exponential backoff, and restarts from its first phase; after
//!   `max_retries` timeouts it finishes as [`QueryStatus::TimedOut`] with
//!   the phases it completed preserved as a partial report. A deadline
//!   past the end of the clock is never armed, and a query whose restart
//!   would fall past it ends `TimedOut` at the deadline that expired.
//! - **Faults**: one fault schedule drives the shared machine under one
//!   rule, written once in the driver's event loop (`Mq::run`):
//!   1. Faults act in time order. Before it handles any popped event,
//!      control events included, the driver applies every fault due by
//!      then and tears the failed node down in each query that has a
//!      phase open. A query in a positioning tail or barrier meets the
//!      failure at its next phase start.
//!   2. A phase start detects failures: a query opening a phase counts
//!      every failed node as detected. A failure that strikes mid-phase
//!      is detected `DETECT_TIMEOUT` after it strikes.
//!   3. An abort clock halts the run. A `failstop` fail-stop sets it at
//!      the fault time plus `DETECT_TIMEOUT`; an engine that finds no
//!      survivor reports it and the clock is set at once. Once it is set
//!      no phase closes and no query completes. At the clock every live
//!      query ends `Aborted`, its open phase (a tail and barrier count as
//!      open) ending there.
//!
//! # Determinism
//!
//! Everything is driven by one event queue ordered by exact
//! `(time, sequence)` — control events (admission, deadlines, retries)
//! ride the same queue as disk and network completions, so the full
//! interleaving is a pure function of the workload spec and seed. The
//! report is byte-identical across `--jobs`, both queue backends, and
//! cache states.
//!
//! # Simplifications (documented, deliberate)
//!
//! - The machine's per-phase extent allocators are shared: every query
//!   phase start calls `begin_phase`, resetting the layout cursors
//!   exactly as a solo run does. Concurrent queries therefore contend for
//!   disk arms, CPU, and links but not for disk capacity layout.
//! - A query in backoff keeps its admission slot until it finishes: its
//!   stale in-flight events must drain from the shared machine before the
//!   retry restarts, and modelling the slot as released mid-drain would
//!   let the admission gate overcommit the machine.

use std::collections::VecDeque;

use simcore::span::SpanArena;
use simcore::{Duration, EventQueue, SimTime, SplitMix64};
use tasks::plan::TaskPlan;
use tasks::{plan_task, TaskKind};

use crate::exec::{Ev, Faults, PhaseEngine, Simulation};
use crate::machine::Machine;
use crate::metrics::MetricsBuilder;
use crate::profile::{LoadSpanTrace, QuerySpans};
use crate::trace::Trace;
use crate::workload::{AdmissionPolicy, ArrivalProcess, DeadlinePolicy, WorkloadSpec};

/// Terminal status of one query in a loaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion (possibly after retries).
    Completed,
    /// Rejected at admission: the wait queue was already full.
    Shed,
    /// Missed its deadline with no retries left, or timed out while
    /// still waiting for an execution slot.
    TimedOut,
    /// Killed by the fail-stop recovery policy or by losing every node.
    Aborted,
}

impl QueryStatus {
    /// Stable lower-case name for manifests and tables.
    pub fn name(self) -> &'static str {
        match self {
            QueryStatus::Completed => "completed",
            QueryStatus::Shed => "shed",
            QueryStatus::TimedOut => "timed_out",
            QueryStatus::Aborted => "aborted",
        }
    }

    /// Inverse of [`QueryStatus::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "completed" => Some(QueryStatus::Completed),
            "shed" => Some(QueryStatus::Shed),
            "timed_out" => Some(QueryStatus::TimedOut),
            "aborted" => Some(QueryStatus::Aborted),
            _ => None,
        }
    }
}

/// One completed phase of a query's final attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPhase {
    /// Phase name (paper spelling).
    pub name: &'static str,
    /// Wall time from the phase start to its barrier completion.
    pub elapsed: Duration,
}

/// The per-query record of a loaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Index in arrival order (the span arena's query lane).
    pub query: u32,
    /// The DSS task this query ran.
    pub task: TaskKind,
    /// When the query arrived at the admission gate.
    pub arrival: SimTime,
    /// When its first attempt began executing (`None` if shed or timed
    /// out while still queued).
    pub started: Option<SimTime>,
    /// When the query reached its terminal status.
    pub finished: SimTime,
    /// Terminal status.
    pub status: QueryStatus,
    /// Retries consumed (timeouts that led to a restart).
    pub retries: u32,
    /// Deadline expirations observed (retried or terminal).
    pub timeouts: u32,
    /// Phases the final attempt completed — partial when the query
    /// timed out or aborted mid-plan.
    pub phases: Vec<QueryPhase>,
    /// Work events attributed to this query (all attempts).
    pub events: u64,
}

impl QueryOutcome {
    /// Arrival-to-finish latency (includes queueing and backoff).
    pub fn latency(&self) -> Duration {
        self.finished.since(self.arrival)
    }
}

/// Report of one loaded multi-query run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Architecture short name ("Active", "Cluster", "SMP").
    pub architecture: &'static str,
    /// Node/disk count.
    pub disks: usize,
    /// Workload spec summary (round-trips through the cache).
    pub workload: String,
    /// Admission policy summary.
    pub admission: String,
    /// Deadline policy summary.
    pub deadline: String,
    /// Per-query outcomes in arrival order.
    pub outcomes: Vec<QueryOutcome>,
    /// Makespan: the latest query finish time.
    pub elapsed: Duration,
    /// Total discrete events processed (work + control).
    pub events: u64,
    /// Faults injected by the global schedule.
    pub faults_injected: u64,
    /// Batches re-read by survivors under recovery.
    pub work_redistributed: u64,
    /// Aggregate failed-disk downtime over the run.
    pub downtime: Duration,
}

impl LoadReport {
    /// Number of queries with the given terminal status.
    pub fn count(&self, status: QueryStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Queries that completed.
    pub fn completed(&self) -> usize {
        self.count(QueryStatus::Completed)
    }

    /// Queries shed at admission.
    pub fn shed(&self) -> usize {
        self.count(QueryStatus::Shed)
    }

    /// Queries that timed out terminally.
    pub fn timed_out(&self) -> usize {
        self.count(QueryStatus::TimedOut)
    }

    /// Queries aborted by fault recovery.
    pub fn aborted(&self) -> usize {
        self.count(QueryStatus::Aborted)
    }

    /// Total retries consumed across all queries.
    pub fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// Total deadline expirations across all queries.
    pub fn timeouts(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.timeouts)).sum()
    }

    /// Sorted arrival-to-finish latencies of the completed queries.
    pub fn completed_latencies(&self) -> Vec<Duration> {
        let mut v: Vec<Duration> = self
            .outcomes
            .iter()
            .filter(|o| o.status == QueryStatus::Completed)
            .map(QueryOutcome::latency)
            .collect();
        v.sort();
        v
    }

    /// Nearest-rank percentile (`p` in 0..=100) of completed-query
    /// latency; `None` when nothing completed. Exact integer selection —
    /// no interpolation — so the value is a latency that actually
    /// occurred and is bit-stable.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        let lats = self.completed_latencies();
        if lats.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * lats.len() as f64).ceil() as usize;
        Some(lats[rank.clamp(1, lats.len()) - 1])
    }

    /// Completed queries per second of makespan.
    pub fn goodput_qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }
}

/// Control-plane state of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QState {
    /// Arrival event not yet popped.
    Pending,
    /// Admitted to the wait queue, no execution slot yet.
    Waiting,
    /// A phase is open on the machine.
    Running,
    /// The open phase closed; its positioning tail and barrier run
    /// until the query's `PhaseStart`.
    Barrier,
    /// Timed out; waiting for backoff to elapse and stale in-flight
    /// events to drain before restarting.
    AwaitRetry,
    /// Terminal.
    Done,
}

/// One query of a run: its phase engine plus its control-plane
/// bookkeeping.
#[derive(Clone)]
pub(crate) struct QueryRun {
    plan_ix: usize,
    arrival: SimTime,
    started: Option<SimTime>,
    attempt: u32,
    /// The query's phase engine, holding the query's recovery view of
    /// failed nodes; the driver's [`Faults`] drive the shared machine.
    pub(crate) eng: PhaseEngine,
    pub(crate) state: QState,
    pub(crate) status: QueryStatus,
    retry_armed: bool,
    retries: u32,
    timeouts: u32,
    pub(crate) finished: SimTime,
    events: u64,
    /// Work events the run had popped when the open phase began.
    pub(crate) popped_at_open: u64,
    /// The abort clock ended the query's last phase: its outcome lists
    /// only the phases before it.
    cut: bool,
}

/// The executor's one driver: one shared machine, one event queue, one
/// phase engine per query, and one event loop ([`Mq::run`]). A solo run
/// is a one-query workload on it. `Clone` is the fork primitive: a warm
/// prefix is cloned once per what-if continuation (see [`WarmStart`]).
#[derive(Clone)]
pub(crate) struct Mq {
    pub(crate) machine: Machine,
    pub(crate) q: EventQueue<Ev>,
    /// An event popped but not yet processed: a pause stops *before*
    /// processing the first event at or past its limit, and the event
    /// (already sequenced by its pop) waits here so every continuation
    /// replays the exact pop order.
    pub(crate) pending: Option<(SimTime, Ev)>,
    pub(crate) runs: Vec<QueryRun>,
    /// Each plan with its task kind (`None` for an explicit plan), so
    /// later queries reuse the plan of a kind already planned.
    plans: Vec<(Option<TaskKind>, TaskPlan)>,
    /// The fault schedule driving the shared machine, and the abort
    /// clock.
    pub(crate) faults: Faults,
    adm: AdmissionPolicy,
    dl: DeadlinePolicy,
    pub(crate) running: usize,
    waiting: VecDeque<u32>,
    /// Next query a closed-loop client issues when one finishes.
    next_closed: usize,
    closed: bool,
    backoff_rng: SplitMix64,
    pub(crate) spans: Option<SpanArena>,
    /// Work events popped so far, not counting one that waits in
    /// `pending`.
    pub(crate) work_popped: u64,
    /// Set when the abort clock strikes: every query is terminal and the
    /// remaining queue contents are stale, so `run` must not resume.
    halted: bool,
}

/// Most events an [`Mq`] queue reserves room for up front. Every
/// configuration of the paper's sweeps asks for far fewer; a run that
/// needs more grows its queue as it goes.
pub(crate) const MAX_QUEUE_HINT: usize = 1 << 20;

/// Queue slots one running query holds in steady state: a full read
/// window per node plus its fan-out. Saturates, so a huge DiskOS buffer
/// pool asks for [`MAX_QUEUE_HINT`] rather than wrapping.
pub(crate) fn query_slots(m: &Machine) -> usize {
    m.nodes().saturating_mul(m.window().saturating_add(4))
}

/// The queue capacity hint for `queries` queries on `m`, at most
/// `concurrent` of them running at once: each running query's steady
/// state, plus at most one control event of each kind per query.
fn queue_hint(m: &Machine, concurrent: usize, queries: usize) -> usize {
    concurrent
        .min(queries)
        .saturating_mul(query_slots(m))
        .saturating_add(queries.saturating_mul(2))
        .saturating_add(64)
        .min(MAX_QUEUE_HINT)
}

impl Mq {
    /// A driver on a fresh machine for `sim`, with nothing queued; its
    /// queue is sized for `queries` queries.
    fn new(
        sim: &Simulation,
        adm: AdmissionPolicy,
        dl: DeadlinePolicy,
        queries: usize,
        profiled: bool,
    ) -> Mq {
        let machine = Machine::new(sim.architecture());
        let cap = queue_hint(&machine, adm.max_concurrent, queries);
        Mq {
            q: EventQueue::with_backend_capacity(sim.queue_backend(), cap),
            machine,
            pending: None,
            runs: Vec::with_capacity(queries),
            plans: Vec::new(),
            faults: Faults::new(sim.fault_plan(), sim.recovery_policy(), sim.seed()),
            adm,
            dl,
            running: 0,
            waiting: VecDeque::new(),
            next_closed: 0,
            closed: false,
            // Decorrelate the backoff jitter stream from the machine's
            // seeded models without a second seed knob.
            backoff_rng: SplitMix64::new(sim.seed() ^ 0x9E37_79B9_7F4A_7C15),
            spans: profiled.then(SpanArena::enabled),
            work_popped: 0,
            halted: false,
        }
    }

    /// A driver with `workload`'s arrivals queued but nothing processed.
    fn workload(
        sim: &Simulation,
        workload: &WorkloadSpec,
        adm: AdmissionPolicy,
        dl: DeadlinePolicy,
        profiled: bool,
    ) -> Mq {
        assert!(workload.queries > 0, "workload needs at least one query");
        let mut mq = Mq::new(sim, adm, dl, workload.queries as usize, profiled);
        mq.add_workload(sim, workload, Duration::ZERO);
        mq
    }

    /// A driver with `plan` as its one query, arriving at time zero: the
    /// shape of every solo run.
    pub(crate) fn one_query(sim: &Simulation, plan: &TaskPlan, profiled: bool) -> Mq {
        let (adm, dl) = (AdmissionPolicy::default(), DeadlinePolicy::default());
        let mut mq = Mq::new(sim, adm, dl, 1, profiled);
        mq.plans.push((None, plan.clone()));
        mq.push_query(0, SimTime::ZERO);
        mq.q.push(SimTime::ZERO, Ev::Admit { query: 0 });
        mq
    }

    /// The run's one event loop: processes events until the queue drains
    /// or, with a `limit`, until the next event is at or past it. Trace
    /// rows come from the engines' work events and metrics samples are
    /// taken before each work event; both observers are optional. The
    /// module docs give the fault rule it applies.
    pub(crate) fn run(
        &mut self,
        limit: Option<SimTime>,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) {
        if self.halted {
            return;
        }
        while let Some((now, ev)) = self.pending.take().or_else(|| self.q.pop()) {
            if limit.is_some_and(|l| now >= l) {
                self.pending = Some((now, ev));
                return;
            }
            // Faults-off cost: one bounds check per event.
            while let Some((t, failed)) = self.faults.apply_next(&mut self.machine, now) {
                if let Some(node) = failed {
                    for run in &mut self.runs {
                        if run.state == QState::Running {
                            run.eng.fail_node(&mut self.q, node, t, now);
                        }
                    }
                }
            }
            if let Some(abort) = self.faults.abort_at {
                if now >= abort {
                    self.work_popped += u64::from(ev.work_query().is_some());
                    self.abort_all(abort);
                    return;
                }
            }
            match ev {
                Ev::Admit { query } => self.on_admit(query as usize, now),
                Ev::PhaseStart { query, attempt } => {
                    self.on_phase_start(query as usize, attempt, now)
                }
                Ev::Deadline { query, attempt } => self.on_deadline(query as usize, attempt, now),
                Ev::Retry { query } => self.on_retry(query as usize, now),
                ev => {
                    // Metrics-off cost: one `Option` check per event.
                    if let Some(mb) = metrics.as_deref_mut() {
                        if mb.due(now) {
                            mb.sample(now, &self.machine.resource_usage(), self.q.len());
                        }
                    }
                    self.on_work(now, ev, trace);
                }
            }
        }
        // The queue drained before the abort clock: the run still
        // aborts there.
        if let Some(abort) = self.faults.abort_at {
            self.abort_all(abort);
        }
        debug_assert!(
            self.runs.iter().all(|r| r.state == QState::Done),
            "event queue drained with live queries"
        );
    }

    /// Work events popped so far, one waiting in `pending` included.
    pub(crate) fn popped_work(&self) -> u64 {
        let waiting = self.pending.as_ref().and_then(|(_, ev)| ev.work_query());
        self.work_popped + u64::from(waiting.is_some())
    }

    /// Ends every live query `Aborted` at the abort clock, with its open
    /// phase — or the tail and barrier of its last one — ending there.
    fn abort_all(&mut self, abort: SimTime) {
        self.halted = true;
        for run in &mut self.runs {
            match run.state {
                QState::Done => continue,
                QState::Running => {
                    let plan = &self.plans[run.plan_ix].1;
                    let profiled = self.spans.is_some();
                    run.eng.end_phase(&self.machine, profiled, plan, abort);
                }
                QState::Barrier => run.eng.cut_tail(abort),
                QState::Pending | QState::Waiting | QState::AwaitRetry => {}
            }
            run.cut = matches!(run.state, QState::Running | QState::Barrier);
            run.state = QState::Done;
            run.status = QueryStatus::Aborted;
            run.finished = abort.max(run.arrival);
        }
    }

    /// Queues attempt `attempt`'s deadline, `from` plus the policy's
    /// deadline. A deadline past the end of the clock is never armed.
    fn arm_deadline(&mut self, qid: usize, attempt: u32, from: SimTime) {
        if let Some(at) = self.dl.deadline.and_then(|d| from.checked_add(d)) {
            let query = qid as u32;
            self.q.push(at, Ev::Deadline { query, attempt });
        }
    }

    fn on_admit(&mut self, qid: usize, now: SimTime) {
        debug_assert_eq!(self.runs[qid].state, QState::Pending);
        if self.running < self.adm.max_concurrent {
            self.arm_deadline(qid, 0, now);
            self.running += 1;
            self.start_attempt(qid, now);
        } else if self.waiting.len() < self.adm.queue_limit {
            // The first attempt's deadline runs from admission, so time
            // spent waiting for a slot counts against it.
            self.arm_deadline(qid, 0, now);
            self.runs[qid].state = QState::Waiting;
            self.waiting.push_back(qid as u32);
        } else {
            // Shed: counted, never silent.
            self.finalize(qid, QueryStatus::Shed, now);
        }
    }

    /// Begins attempt `runs[qid].attempt` at `at`: fresh plan cursor,
    /// fresh deadline for retries (attempt 0 was armed at admission).
    fn start_attempt(&mut self, qid: usize, at: SimTime) {
        let run = &mut self.runs[qid];
        run.started = run.started.or(Some(at));
        run.eng.phase_ix = 0;
        run.eng.phase_spans.clear();
        run.eng.phases.clear();
        let attempt = run.attempt;
        if attempt > 0 {
            self.arm_deadline(qid, attempt, at);
        }
        self.start_phase(qid, at);
    }

    /// Opens the query's next phase on the shared machine. A phase start
    /// detects failures: every failed node counts as detected. When no
    /// survivor remains the abort clock strikes at once.
    fn start_phase(&mut self, qid: usize, at: SimTime) {
        let run = &mut self.runs[qid];
        run.state = QState::Running;
        run.popped_at_open = self.work_popped;
        let plan = &self.plans[run.plan_ix].1;
        run.eng.begin(&mut self.machine, plan, at);
        run.eng.detect_failed(&self.machine);
        let spans = &mut self.spans.as_mut();
        if run
            .eng
            .prime(&mut self.machine, &mut self.q, spans, plan, at)
            .is_err()
        {
            self.faults.abort(at);
        } else if run.eng.inflight == 0 && self.faults.abort_at.is_none() {
            // Degenerate phase (nothing to read): complete immediately.
            self.complete_phase(qid);
        }
    }

    /// Hands one popped work event to the engine of the query it names.
    #[inline]
    fn on_work(&mut self, now: SimTime, ev: Ev, trace: &mut Option<&mut Trace>) {
        let qid = ev.work_query().expect("work event carries a query") as usize;
        self.work_popped += 1;
        let run = &mut self.runs[qid];
        run.events += 1;
        match run.state {
            QState::Running => {
                let plan = &self.plans[run.plan_ix].1;
                let spans = &mut self.spans.as_mut();
                let m = &mut self.machine;
                if run
                    .eng
                    .handle(m, &mut self.q, spans, trace, plan, (now, ev))
                    .is_err()
                {
                    self.faults.abort(now);
                }
                // Under a set abort clock no phase closes: a drained
                // phase waits for the clock.
                if run.eng.inflight == 0 && self.faults.abort_at.is_none() {
                    self.complete_phase(qid);
                }
            }
            QState::AwaitRetry | QState::Done => {
                // Stale drain from a torn-down attempt, dropped; machine
                // charges already accrued (wasted work is real under
                // overload). An armed retry restarts once it is over.
                run.eng.inflight -= 1;
                if run.eng.inflight == 0 && run.retry_armed {
                    run.attempt += 1;
                    run.retry_armed = false;
                    self.start_attempt(qid, now);
                }
            }
            QState::Pending | QState::Waiting | QState::Barrier => {
                unreachable!("work event for a query with no phase open")
            }
        }
    }

    /// Closes the query's drained phase and schedules the `PhaseStart`
    /// that opens its next phase (or finishes the plan) at the end of
    /// the barrier.
    fn complete_phase(&mut self, qid: usize) {
        let run = &mut self.runs[qid];
        let plan = &self.plans[run.plan_ix].1;
        let end = run.eng.close(&self.machine, &mut self.spans.as_mut(), plan);
        run.state = QState::Barrier;
        self.q.push(
            end,
            Ev::PhaseStart {
                query: qid as u32,
                attempt: run.attempt,
            },
        );
    }

    fn on_phase_start(&mut self, qid: usize, attempt: u32, now: SimTime) {
        let run = &self.runs[qid];
        // Stale barrier from a torn-down attempt.
        if run.state != QState::Barrier || run.attempt != attempt {
            return;
        }
        if run.eng.phase_ix < self.plans[run.plan_ix].1.phases.len() {
            self.start_phase(qid, now);
        } else if self.faults.abort_at.is_none() {
            self.finalize(qid, QueryStatus::Completed, now);
        }
        // Under a set abort clock no query completes: this one ends at
        // the clock with its barrier still open.
    }

    fn on_deadline(&mut self, qid: usize, attempt: u32, now: SimTime) {
        let run = &mut self.runs[qid];
        match run.state {
            QState::Waiting if attempt == 0 => {
                // Deadline expired before a slot ever freed.
                run.timeouts += 1;
                if let Some(pos) = self.waiting.iter().position(|&x| x as usize == qid) {
                    self.waiting.remove(pos);
                }
                self.finalize(qid, QueryStatus::TimedOut, now);
            }
            QState::Running | QState::Barrier if run.attempt == attempt => {
                run.timeouts += 1;
                let restart = (run.attempt < self.dl.max_retries)
                    .then(|| self.dl.backoff_for(run.attempt + 1, &mut self.backoff_rng))
                    .flatten()
                    .and_then(|wait| now.checked_add(wait));
                match restart {
                    Some(at) => {
                        run.retries += 1;
                        run.state = QState::AwaitRetry;
                        run.retry_armed = false;
                        self.q.push(at, Ev::Retry { query: qid as u32 });
                    }
                    // Retry budget exhausted, or the restart falls past
                    // the end of the clock: finish with the partial phase
                    // report intact.
                    None => self.finalize(qid, QueryStatus::TimedOut, now),
                }
            }
            // Stale deadline (attempt already retired) — ignore.
            _ => {}
        }
    }

    fn on_retry(&mut self, qid: usize, now: SimTime) {
        let run = &mut self.runs[qid];
        if run.state != QState::AwaitRetry {
            return;
        }
        if run.eng.inflight == 0 {
            run.attempt += 1;
            run.retry_armed = false;
            self.start_attempt(qid, now);
        } else {
            // Stale in-flight events still draining; the last drain pop
            // (necessarily at or after this clock) restarts the attempt.
            run.retry_armed = true;
        }
    }

    /// Retires a query, frees its admission slot, promotes the next
    /// waiter, and — in closed-loop mode — issues the client's next
    /// query.
    fn finalize(&mut self, qid: usize, status: QueryStatus, at: SimTime) {
        let run = &mut self.runs[qid];
        let held_slot = matches!(
            run.state,
            QState::Running | QState::Barrier | QState::AwaitRetry
        );
        run.state = QState::Done;
        run.status = status;
        run.finished = at;
        if held_slot {
            self.running -= 1;
            if let Some(next) = self.waiting.pop_front() {
                self.running += 1;
                // Its attempt-0 deadline was armed at admission.
                self.start_attempt(next as usize, at);
            }
        }
        if self.closed && self.next_closed < self.runs.len() {
            let nq = self.next_closed;
            self.next_closed += 1;
            self.runs[nq].arrival = at;
            self.q.push(at, Ev::Admit { query: nq as u32 });
        }
    }

    /// Appends `spec`'s queries, their arrivals shifted by `shift`, and
    /// queues their admissions: every Poisson arrival at once, or the
    /// first `clients` queries of a closed loop (each completion then
    /// admits the next).
    ///
    /// # Panics
    ///
    /// Panics if a shifted arrival falls past the end of the clock.
    fn add_workload(&mut self, sim: &Simulation, spec: &WorkloadSpec, shift: Duration) {
        let base = self.runs.len();
        for (task, arrival) in spec.tasks().into_iter().zip(spec.arrival_times()) {
            let plan_ix = self.plan_of(sim, task);
            let arrival = arrival
                .checked_add(shift)
                .expect("shifted arrival past the end of the clock");
            self.push_query(plan_ix, arrival);
        }
        let first = match spec.arrival {
            ArrivalProcess::Poisson { .. } => spec.queries as usize,
            ArrivalProcess::Closed { clients } => (clients as usize).min(spec.queries as usize),
        };
        for i in base..base + first {
            self.q
                .push(self.runs[i].arrival, Ev::Admit { query: i as u32 });
        }
        self.next_closed = base + first;
        self.closed = matches!(spec.arrival, ArrivalProcess::Closed { .. });
    }

    /// The index in `plans` of `task`'s plan, planning it on first use.
    fn plan_of(&mut self, sim: &Simulation, task: TaskKind) -> usize {
        self.plans
            .iter()
            .position(|(k, _)| *k == Some(task))
            .unwrap_or_else(|| {
                let plan = plan_task(task, sim.architecture());
                plan.validate().expect("invalid task plan");
                self.plans.push((Some(task), plan));
                self.plans.len() - 1
            })
    }

    /// Appends one pending query running `plans[plan_ix]`, arriving at
    /// `arrival`.
    fn push_query(&mut self, plan_ix: usize, arrival: SimTime) {
        let n = self.machine.nodes();
        let policy = self.faults.policy;
        self.runs.push(QueryRun {
            plan_ix,
            arrival,
            started: None,
            attempt: 0,
            eng: PhaseEngine::new(self.runs.len() as u32, policy, n),
            state: QState::Pending,
            status: QueryStatus::Completed,
            retry_armed: false,
            retries: 0,
            timeouts: 0,
            finished: SimTime::ZERO,
            events: 0,
            popped_at_open: 0,
            cut: false,
        });
    }
}

impl Simulation {
    /// Runs a multi-query workload under the given admission and
    /// deadline policies. Deterministic: the report is a pure function
    /// of the simulation config and the workload spec.
    pub fn run_workload(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> LoadReport {
        self.run_workload_observed(workload, admission, deadline, false)
            .0
    }

    /// Like [`Simulation::run_workload`], also collecting the causal
    /// span trace with per-query lanes.
    pub fn run_workload_profiled(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> (LoadReport, LoadSpanTrace) {
        let (report, trace) = self.run_workload_observed(workload, admission, deadline, true);
        (report, trace.expect("profiled run returns a span trace"))
    }

    /// The loaded run behind [`Simulation::run_workload`] and
    /// [`Simulation::run_workload_profiled`].
    fn run_workload_observed(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
        profiled: bool,
    ) -> (LoadReport, Option<LoadSpanTrace>) {
        let mut mq = Mq::workload(self, workload, admission, deadline, profiled);
        mq.run(None, &mut None, &mut None);
        self.collect_load(mq, workload.summary(), admission, deadline)
    }

    /// Turns a drained driver into its report (and span trace, when
    /// profiled).
    fn collect_load(
        &self,
        mq: Mq,
        workload_summary: String,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> (LoadReport, Option<LoadSpanTrace>) {
        let n = mq.machine.nodes();
        let end = mq
            .runs
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        let task = |r: &QueryRun| {
            mq.plans[r.plan_ix]
                .0
                .expect("workload queries run planned tasks")
        };
        // An outcome lists the phases that completed: not one the abort
        // clock ended.
        let completed = |r: &QueryRun| r.eng.phases.len() - usize::from(r.cut);
        let outcomes = mq
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| QueryOutcome {
                query: i as u32,
                task: task(r),
                arrival: r.arrival,
                started: r.started,
                finished: r.finished,
                status: r.status,
                retries: r.retries,
                timeouts: r.timeouts,
                phases: r.eng.phases[..completed(r)]
                    .iter()
                    .map(|p| QueryPhase {
                        name: p.name,
                        elapsed: p.elapsed,
                    })
                    .collect(),
                events: r.events,
            })
            .collect();
        let report = LoadReport {
            architecture: self.architecture().short_name(),
            disks: n,
            workload: workload_summary,
            admission: admission.summary(),
            deadline: deadline.summary(),
            outcomes,
            elapsed: end.since(SimTime::ZERO),
            events: mq.q.popped(),
            faults_injected: mq.faults.injected,
            work_redistributed: mq.machine.work_redistributed(),
            downtime: mq.machine.disk_downtime(end),
        };
        let trace = mq.spans.map(|arena| LoadSpanTrace {
            arena,
            queries: mq
                .runs
                .iter()
                .enumerate()
                .map(|(i, r)| QuerySpans {
                    query: i as u32,
                    task: task(r),
                    phases: r.eng.phase_spans[..completed(r)].to_vec(),
                })
                .collect(),
        });
        (report, trace)
    }
}

impl Simulation {
    /// Starts a loaded run with `warmup`'s arrivals queued but nothing
    /// simulated, returning a forkable [`WarmStart`]. Drive the warmup
    /// with [`WarmStart::run_to_idle`], then [`WarmStart::fork`] once
    /// per what-if continuation and [`WarmStart::extend`] each fork with
    /// its measured workload — the warm prefix is simulated exactly
    /// once, and every continuation's report is field-identical to a
    /// from-scratch run of the same warmup + extension.
    pub fn start_workload(
        &self,
        warmup: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> WarmStart {
        WarmStart {
            mq: Mq::workload(self, warmup, admission, deadline, false),
            sim: self.clone(),
            workload: warmup.summary(),
            admission,
            deadline,
            measured_from: warmup.queries as usize,
        }
    }
}

/// A loaded run paused after its warmup segment, cheap to fork.
///
/// The warmup's machine state, event history, and admission bookkeeping
/// are shared by every fork (a fork is one `Clone`), so a rate ladder
/// pays for its common ramp-up once instead of once per point.
#[derive(Clone)]
pub struct WarmStart {
    sim: Simulation,
    mq: Mq,
    workload: String,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    measured_from: usize,
}

impl WarmStart {
    /// Drains every queued arrival and its consequences — the warmup
    /// segment runs to completion and the clock parks at its last event.
    pub fn run_to_idle(&mut self) {
        self.mq.run(None, &mut None, &mut None);
    }

    /// The fork origin: the time of the last processed event. Extended
    /// arrivals land strictly after it.
    pub fn origin(&self) -> SimTime {
        self.mq.q.now()
    }

    /// Forks the paused run: an independent continuation sharing this
    /// prefix's full state.
    pub fn fork(&self) -> WarmStart {
        self.clone()
    }

    /// Queries in the warmup segment (the measured slice of the final
    /// report's outcomes starts here).
    pub fn measured_from(&self) -> usize {
        self.measured_from
    }

    /// Appends `spec`'s queries to the run, their arrival clocks shifted
    /// to land strictly after [`WarmStart::origin`] (each arrival moves
    /// by `origin + 1ns`). Because the warmup queue is idle at the
    /// origin, the continuation's event interleaving is identical
    /// whether the prefix was simulated in this process or forked.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has no queries or a shifted arrival falls past
    /// the end of the clock.
    pub fn extend(&mut self, spec: &WorkloadSpec) {
        assert!(spec.queries > 0, "extension needs at least one query");
        let shift = self
            .mq
            .q
            .now()
            .checked_add(Duration::from_nanos(1))
            .expect("warm prefix ends at the end of the clock")
            .since(SimTime::ZERO);
        self.mq.add_workload(&self.sim, spec, shift);
        self.workload = format!("{} + {}", self.workload, spec.summary());
    }

    /// Runs the continuation to completion and returns its report
    /// (warmup and extended queries both included, in arrival order —
    /// slice `outcomes` at [`WarmStart::measured_from`] for the measured
    /// segment).
    pub fn finish(mut self) -> LoadReport {
        self.mq.run(None, &mut None, &mut None);
        let (report, _) =
            self.sim
                .collect_load(self.mq, self.workload, self.admission, self.deadline);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Architecture;

    fn one_query(task: TaskKind) -> WorkloadSpec {
        WorkloadSpec::closed(1, 1).with_mix(vec![(task, 1)])
    }

    /// A one-query workload runs the solo run's phases to the
    /// nanosecond, healthy and under fail-stop, media-burst and link
    /// faults struck at 25-75% of the healthy run, under every recovery
    /// policy on every architecture. Where a fail-stop policy aborts, the
    /// solo report keeps the aborted phase and the loaded query ends
    /// `Aborted` at the same clock. Then one row per case the one fault
    /// rule moved, each pinned to its value.
    #[test]
    fn one_query_workload_matches_solo_run() {
        use crate::faults::{FaultPlan, RecoveryPolicy, DETECT_TIMEOUT};
        let tasks = [TaskKind::Sort, TaskKind::Join, TaskKind::DataMine];
        let policies = [
            RecoveryPolicy::FailStop,
            RecoveryPolicy::Redistribute,
            RecoveryPolicy::ReconstructRead,
        ];
        let fracs = [0.25, 0.5, 0.75];
        let mut aborts = 0;
        for (a, arch) in [
            Architecture::active_disks(4),
            Architecture::cluster(4),
            Architecture::smp(4),
        ]
        .into_iter()
        .enumerate()
        {
            let healthy = Simulation::new(arch.clone());
            let mut elapsed = Vec::new();
            for task in tasks {
                let solo = healthy.run(task);
                let load = healthy.run_workload(
                    &one_query(task),
                    AdmissionPolicy::default(),
                    DeadlinePolicy::default(),
                );
                assert_same_run(&solo, &load.outcomes[0], "healthy");
                elapsed.push(solo.elapsed());
            }
            for (p, policy) in policies.into_iter().enumerate() {
                for kind in 0..3 {
                    let t = (p + kind) % tasks.len();
                    let (task, frac) = (tasks[t], fracs[(a + p + 2 * kind) % fracs.len()]);
                    let at = elapsed[t].scale(frac);
                    let plan = match kind {
                        0 => FaultPlan::new().disk_fail_stop(1, at),
                        1 => FaultPlan::new().media_burst(1, at, 2_000),
                        _ => FaultPlan::new().link_fault(1, at, 0.25),
                    };
                    let sim = healthy.clone().with_fault_plan(plan).with_recovery(policy);
                    let solo = sim.run(task);
                    let load = sim.run_workload(
                        &one_query(task),
                        AdmissionPolicy::default(),
                        DeadlinePolicy::default(),
                    );
                    let case = format!("{arch:?} {task:?} {policy:?} kind {kind} at {frac}");
                    assert_same_run(&solo, &load.outcomes[0], &case);
                    aborts += usize::from(solo.aborted);
                }
            }
        }
        assert!(aborts > 0, "the grid must exercise fail-stop aborts");

        // Where the one fault rule moved a one-query workload: each row
        // runs as the solo run does, to the value pinned here.
        let end_of = |arch: Architecture, task| Simulation::new(arch).run(task).elapsed();
        let ms = Duration::from_millis;
        let drained = end_of(Architecture::smp(4), TaskKind::Aggregate) - ms(1);
        let unissued = end_of(Architecture::cluster(4), TaskKind::Select) - ms(300);
        let tail = ms(1_094_003);
        let rows = [
            // A fail-stop at t = 0 is detected when the first phase opens.
            (
                Architecture::active_disks(4),
                TaskKind::Sort,
                FaultPlan::new().disk_fail_stop(1, Duration::ZERO),
                RecoveryPolicy::Redistribute,
                QueryStatus::Completed,
                Duration::from_nanos(1_874_463_546_221),
            ),
            // The survivors drain before the failure is detected: no
            // query completes once the abort clock is set.
            (
                Architecture::smp(4),
                TaskKind::Aggregate,
                FaultPlan::new().disk_fail_stop(1, drained),
                RecoveryPolicy::FailStop,
                QueryStatus::Aborted,
                drained + DETECT_TIMEOUT,
            ),
            // The failed node still has unissued reads when the
            // survivors drain: the phase stays open until the abort
            // clock, so byte conservation is never checked short.
            (
                Architecture::cluster(4),
                TaskKind::Select,
                FaultPlan::new().disk_fail_stop(1, unissued),
                RecoveryPolicy::FailStop,
                QueryStatus::Aborted,
                unissued + DETECT_TIMEOUT,
            ),
            // Every node lost: the engine that finds no survivor sets the
            // abort clock at once.
            (
                Architecture::active_disks(2),
                TaskKind::Select,
                FaultPlan::new()
                    .disk_fail_stop(0, ms(1_000))
                    .disk_fail_stop(1, ms(2_000)),
                RecoveryPolicy::Redistribute,
                QueryStatus::Aborted,
                ms(2_500),
            ),
            // A fault after the last phase's last event, in its
            // positioning tail: applied at the barrier, ending the merge
            // phase at the abort clock.
            (
                Architecture::active_disks(4),
                TaskKind::Sort,
                FaultPlan::new().disk_fail_stop(1, tail),
                RecoveryPolicy::FailStop,
                QueryStatus::Aborted,
                tail + DETECT_TIMEOUT,
            ),
        ];
        for (arch, task, plan, policy, status, latency) in rows {
            let case = format!(
                "{} {task:?} {policy:?} {}",
                arch.short_name(),
                plan.summary()
            );
            let sim = Simulation::new(arch)
                .with_fault_plan(plan)
                .with_recovery(policy);
            let solo = sim.run(task);
            let load = sim.run_workload(
                &one_query(task),
                AdmissionPolicy::default(),
                DeadlinePolicy::default(),
            );
            assert_same_run(&solo, &load.outcomes[0], &case);
            assert_eq!(
                (load.outcomes[0].status, solo.elapsed()),
                (status, latency),
                "{case}"
            );
            assert!(solo.faults_injected > 0, "{case}: the fault is injected");
        }
    }

    /// One solo report and the outcome of the same query run alone under
    /// load agree: elapsed time, and every completed phase by name and
    /// length.
    fn assert_same_run(solo: &crate::report::Report, q: &QueryOutcome, case: &str) {
        assert_eq!(q.latency(), solo.elapsed(), "{case}: elapsed drifts");
        let completed = if solo.aborted {
            assert_eq!(q.status, QueryStatus::Aborted, "{case}");
            solo.phases.len() - 1
        } else {
            assert_eq!(q.status, QueryStatus::Completed, "{case}");
            solo.phases.len()
        };
        assert_eq!(q.phases.len(), completed, "{case}: phase count");
        for (qp, sp) in q.phases.iter().zip(&solo.phases) {
            assert_eq!((qp.name, qp.elapsed), (sp.name, sp.elapsed), "{case}");
        }
    }

    /// A `failstop` fail-stop in a two-query workload that strikes while
    /// the first query still has unissued reads on the failed node, and
    /// the survivors drain before the failure is detected: no phase
    /// closes, and both queries end `Aborted` at the abort clock.
    #[test]
    fn failstop_with_unissued_reads_aborts_a_two_query_workload() {
        use crate::faults::{FaultPlan, RecoveryPolicy, DETECT_TIMEOUT};
        let healthy = Simulation::new(Architecture::cluster(4));
        let w = WorkloadSpec::closed(2, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let (adm, dl) = (AdmissionPolicy::default(), DeadlinePolicy::default());
        let end = healthy.run_workload(&w, adm, dl).elapsed;
        let at = end - Duration::from_millis(300);
        let sim = healthy
            .with_fault_plan(FaultPlan::new().disk_fail_stop(1, at))
            .with_recovery(RecoveryPolicy::FailStop);
        let report = sim.run_workload(&w, adm, dl);
        assert_eq!(report.aborted(), 2, "{report:?}");
        for q in &report.outcomes {
            assert_eq!(q.finished, SimTime::ZERO + at + DETECT_TIMEOUT);
            assert!(q.phases.is_empty(), "no phase closes: {q:?}");
        }
        assert_eq!(report.faults_injected, 1);
    }

    /// An admission limit far beyond the workload sizes the event queue
    /// by the queries that exist, not by the limit.
    #[test]
    fn admission_limit_past_the_workload_runs() {
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(1, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy {
            max_concurrent: usize::MAX,
            queue_limit: 0,
        };
        let report = sim.run_workload(&w, adm, DeadlinePolicy::default());
        assert_eq!(report.completed(), 2);
    }

    /// The queue's capacity hint keeps its size on the paper's largest
    /// configuration and saturates to a cap, instead of wrapping or asking
    /// for terabytes, for a buffer pool no disk has.
    #[test]
    fn queue_hint_is_capped() {
        let paper = Machine::new(&Architecture::active_disks(128).with_disk_memory(128 << 20));
        assert_eq!(query_slots(&paper), 128 * (64 + 4));
        assert_eq!(queue_hint(&paper, 4, 10), 4 * 128 * 68 + 2 * 10 + 64);
        let huge = Machine::new(&Architecture::active_disks(4).with_disk_memory(u64::MAX));
        assert!(query_slots(&huge) > MAX_QUEUE_HINT);
        assert_eq!(queue_hint(&huge, 1, 1), MAX_QUEUE_HINT);
        assert_eq!(queue_hint(&paper, usize::MAX, usize::MAX), MAX_QUEUE_HINT);
    }

    #[test]
    fn shed_at_full_queue_is_counted() {
        // 1 slot, zero-length wait queue: with 3 simultaneous closed-loop
        // clients, two arrivals shed at time zero.
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(3, 3).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy {
            max_concurrent: 1,
            queue_limit: 0,
        };
        let report = sim.run_workload(&w, adm, DeadlinePolicy::default());
        assert_eq!(report.shed(), 2);
        assert_eq!(report.completed(), 1);
        for o in &report.outcomes {
            if o.status == QueryStatus::Shed {
                assert_eq!(o.finished, o.arrival, "shed is decided at admission");
                assert!(o.started.is_none());
                assert!(o.phases.is_empty());
            }
        }
    }

    #[test]
    fn deadline_expires_while_still_queued() {
        // Two clients, one slot, deep queue: the second query's deadline
        // (shorter than the first query's runtime) fires while it waits.
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(2, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy {
            max_concurrent: 1,
            queue_limit: 8,
        };
        let dl = DeadlinePolicy {
            deadline: Some(Duration::from_millis(1)),
            max_retries: 3,
            backoff: Duration::from_millis(1),
        };
        let report = sim.run_workload(&w, adm, dl);
        let timed_out: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.status == QueryStatus::TimedOut && o.started.is_none())
            .collect();
        assert_eq!(
            timed_out.len(),
            1,
            "queued query must time out without starting: {report:?}"
        );
        assert!(timed_out[0].phases.is_empty());
        // No retries for a query that never got a slot.
        assert_eq!(timed_out[0].retries, 0);
        assert_eq!(timed_out[0].timeouts, 1);
    }

    #[test]
    fn retry_exhaustion_keeps_partial_phases() {
        // A deadline long enough to finish sort's first phase but not the
        // whole task: every attempt times out mid-plan, retries exhaust,
        // and the partial phase report survives.
        let sim = Simulation::new(Architecture::active_disks(2));
        let solo = sim.run(TaskKind::Sort);
        let first_phase = solo.phases[0].elapsed;
        let w = one_query(TaskKind::Sort);
        let dl = DeadlinePolicy {
            deadline: Some(first_phase + Duration::from_millis(10)),
            max_retries: 2,
            backoff: Duration::from_millis(5),
        };
        let report = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        let q = &report.outcomes[0];
        assert_eq!(q.status, QueryStatus::TimedOut);
        assert_eq!(q.retries, 2, "both retries consumed");
        assert_eq!(q.timeouts, 3, "initial attempt + 2 retries all timed out");
        assert_eq!(q.phases.len(), 1, "first phase completed on final attempt");
        assert_eq!(q.phases[0].name, solo.phases[0].name);
        assert!(report.completed_latencies().is_empty());
        assert_eq!(report.latency_percentile(50.0), None);
    }

    #[test]
    fn backoff_schedule_is_seeded_and_deterministic() {
        let sim = Simulation::new(Architecture::cluster(2)).with_seed(7);
        let w = WorkloadSpec::poisson(0.05, 6)
            .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)])
            .with_seed(11);
        let dl = DeadlinePolicy {
            deadline: Some(Duration::from_secs(5)),
            max_retries: 2,
            backoff: Duration::from_secs(1),
        };
        let a = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        let b = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        assert_eq!(a, b, "same seed must reproduce the identical report");
    }

    #[test]
    fn forked_continuations_match_from_scratch_runs() {
        // One warm prefix, three what-if continuations (a rate ladder
        // plus a closed point): each fork's report must be
        // field-identical to re-simulating warmup + extension from
        // scratch, including under a different queue backend.
        let sim = Simulation::new(Architecture::active_disks(4)).with_seed(3);
        let adm = AdmissionPolicy {
            max_concurrent: 2,
            queue_limit: 8,
        };
        let dl = DeadlinePolicy::default();
        let mix = vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)];
        let warmup = WorkloadSpec::closed(2, 3)
            .with_mix(mix.clone())
            .with_seed(7);
        let mut prefix = sim.start_workload(&warmup, adm, dl);
        prefix.run_to_idle();
        let origin = prefix.origin();
        assert!(origin > SimTime::ZERO);

        let extensions = [
            WorkloadSpec::poisson(0.05, 4)
                .with_mix(mix.clone())
                .with_seed(11),
            WorkloadSpec::poisson(0.2, 4)
                .with_mix(mix.clone())
                .with_seed(11),
            WorkloadSpec::closed(2, 4)
                .with_mix(mix.clone())
                .with_seed(11),
        ];
        for spec in &extensions {
            let mut fork = prefix.fork();
            fork.extend(spec);
            assert_eq!(fork.measured_from(), 3);
            let warm = fork.finish();

            let scratch_sim = sim
                .clone()
                .with_queue_backend(simcore::QueueBackend::BinaryHeap);
            let mut scratch = scratch_sim.start_workload(&warmup, adm, dl);
            scratch.run_to_idle();
            assert_eq!(scratch.origin(), origin, "shared prefix drifts");
            scratch.extend(spec);
            assert_eq!(
                warm,
                scratch.finish(),
                "fork vs scratch: {}",
                spec.summary()
            );
        }
        // The un-extended prefix itself still finishes to the plain
        // warmup report.
        let solo = sim.run_workload(&warmup, adm, dl);
        assert_eq!(prefix.finish(), solo);
    }

    #[test]
    fn goodput_and_percentiles_reflect_completions() {
        let sim = Simulation::new(Architecture::active_disks(4));
        let w = WorkloadSpec::poisson(0.02, 5).with_mix(vec![(TaskKind::Select, 1)]);
        let report = sim.run_workload(&w, AdmissionPolicy::default(), DeadlinePolicy::default());
        assert_eq!(report.completed(), 5);
        let p50 = report.latency_percentile(50.0).unwrap();
        let p99 = report.latency_percentile(99.0).unwrap();
        assert!(p50 <= p99);
        let lats = report.completed_latencies();
        assert_eq!(p99, *lats.last().unwrap());
        assert!(report.goodput_qps() > 0.0);
    }
}
