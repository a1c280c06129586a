//! Multi-query executor: many task plans interleaved deterministically on
//! one shared [`Machine`], wrapped in an overload-robustness control plane.
//!
//! The phase executor itself is the single-query state machine from
//! [`crate::exec`] (`handle_ev`, `prepare_read`, `init_phase_nodes`) —
//! this module adds the control plane around it:
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
//!   the phases it completed preserved as a partial report.
//! - **Fault interaction**: one global fault schedule drives the shared
//!   machine; each running query observes a failure through its own
//!   per-query recovery state, so a mid-load disk fault triggers the
//!   PR 5 recovery policies for every query it touches without
//!   corrupting the others.
//!
//! # Determinism
//!
//! Everything is driven by one event queue ordered by exact
//! `(time, sequence)` — control events (admission, deadlines, retries)
//! ride the same queue as disk and network completions, so the full
//! interleaving is a pure function of the workload spec and seed. The
//! report is byte-identical across `--jobs`, all four queue backends,
//! and cache states.
//!
//! # Simplifications (documented, deliberate)
//!
//! - The machine's per-phase extent allocators are shared: every query
//!   phase start calls `begin_phase`, resetting the layout cursors
//!   exactly as the single-query path does. Concurrent queries therefore
//!   contend for disk arms, CPU, and links but not for disk capacity
//!   layout; a one-query workload is bit-identical to `run_plan`.
//! - A query in backoff keeps its admission slot until it finishes: its
//!   stale in-flight events must drain from the shared machine before the
//!   retry restarts, and modelling the slot as released mid-drain would
//!   let the admission gate overcommit the machine.
//! - Fault detection under load is clock-based (`DETECT_TIMEOUT` after
//!   injection) for every query, whereas an idle single-query run may
//!   observe a pre-phase fault at its barrier; faulted loaded runs are
//!   deterministic but not required to match a faulted solo run.

use std::collections::VecDeque;

use simcore::span::{SpanId, SpanKind, FRONT_END_NODE};
use simcore::{Duration, EventQueue, SimTime, SplitMix64};
use tasks::plan::TaskPlan;
use tasks::{plan_task, TaskKind};

use crate::exec::{
    handle_ev, init_phase_nodes, phase_region, phase_writes, prepare_read, DstSchedule, Ev, EvQ,
    FaultRt, NodeState, PhaseCosts, PhaseCtx, Simulation, SpanRt, BARRIER_RESOURCE,
    POSITIONING_RESOURCE,
};
use crate::faults::{FaultPlan, RecoveryPolicy, DETECT_TIMEOUT};
use crate::machine::Machine;
use crate::profile::{LoadSpanTrace, PhaseSpans, QuerySpans};
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
enum QState {
    /// Arrival event not yet popped.
    Pending,
    /// Admitted to the wait queue, no execution slot yet.
    Waiting,
    /// Executing phases on the machine.
    Running,
    /// Timed out; waiting for backoff to elapse and stale in-flight
    /// events to drain before restarting.
    AwaitRetry,
    /// Terminal.
    Done,
}

/// Per-query executor state: the single-query locals of `run_phase`,
/// lifted into a struct so many queries can hold a phase open at once.
#[derive(Clone)]
struct QueryRun {
    task: TaskKind,
    plan_ix: usize,
    arrival: SimTime,
    started: Option<SimTime>,
    attempt: u32,
    phase_ix: usize,
    nodes: Vec<NodeState>,
    costs: Option<PhaseCosts>,
    sched: Option<DstSchedule>,
    /// Per-query recovery view (empty fault schedule; the global
    /// schedule in [`Mq::fs`] drives the shared machine).
    fr: FaultRt,
    horizon: SimTime,
    phase_start: SimTime,
    state: QState,
    status: QueryStatus,
    retry_armed: bool,
    retries: u32,
    timeouts: u32,
    finished: SimTime,
    events: u64,
    phases_done: Vec<QueryPhase>,
    /// Saved span-chain anchors, swapped into the shared [`SpanRt`]
    /// whenever this query's events are handled.
    span_last: SpanId,
    span_last_end: SimTime,
    phase_spans: Vec<PhaseSpans>,
}

/// The multi-query driver: one shared machine, one event queue, N query
/// state machines. `Clone` is the fork primitive: a warm prefix is
/// cloned once per what-if continuation (see [`WarmStart`]).
#[derive(Clone)]
struct Mq {
    machine: Machine,
    q: EventQueue<Ev>,
    runs: Vec<QueryRun>,
    plans: Vec<TaskPlan>,
    /// Task kind of each entry in `plans`, so [`WarmStart::extend`] can
    /// reuse plans for kinds the warmup already planned.
    kinds: Vec<TaskKind>,
    /// In-flight work events per query — the phase-completion gate.
    outstanding: Vec<u64>,
    /// Global fault schedule driving the shared machine.
    fs: FaultRt,
    /// Per-node detection clock (fault time + `DETECT_TIMEOUT`).
    detect_at: Vec<Option<SimTime>>,
    adm: AdmissionPolicy,
    dl: DeadlinePolicy,
    running: usize,
    waiting: VecDeque<u32>,
    /// Next query a closed-loop client issues when one finishes.
    next_closed: usize,
    closed: bool,
    backoff_rng: SplitMix64,
    spans: Option<SpanRt>,
    /// Time of the last processed event — the fork origin.
    clock: SimTime,
    /// Set by a global fail-stop abort: every query is terminal and the
    /// remaining queue contents are stale, so `step` must not resume.
    halted: bool,
}

impl Mq {
    /// Processes every queued event and its consequences until the
    /// queue drains.
    fn run_to_idle(&mut self) {
        if self.halted {
            return;
        }
        while let Some((now, ev)) = self.q.pop() {
            self.clock = now;
            if self.fs.pending() {
                self.apply_global_faults(now);
            }
            if let Some(abort) = self.fs.abort_at {
                if now >= abort {
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
                ev => self.on_work(now, ev),
            }
        }
        // Fail-stop abort clock beyond the last event: the queue drained
        // before the detection fired, but the run still aborts there.
        if let Some(abort) = self.fs.abort_at {
            self.abort_all(abort);
        }
        debug_assert!(
            self.runs.iter().all(|r| r.state == QState::Done),
            "event queue drained with live queries"
        );
    }

    /// Applies globally-scheduled faults due at or before `now` to the
    /// shared machine, then fans the damage out to every running query's
    /// recovery view.
    fn apply_global_faults(&mut self, now: SimTime) {
        while self.fs.next < self.fs.events.len() {
            let ev = self.fs.events[self.fs.next];
            let t = SimTime::ZERO + ev.at;
            if t > now {
                break;
            }
            self.fs.next += 1;
            let Some(node) = self.fs.apply_machine(&mut self.machine, ev, t) else {
                continue;
            };
            // A whole-disk loss: survivors detect it DETECT_TIMEOUT after
            // injection, for every query alike.
            let detect = t + DETECT_TIMEOUT;
            self.detect_at[node] = Some(detect);
            for qid in 0..self.runs.len() {
                let run = &mut self.runs[qid];
                if run.state != QState::Running {
                    continue;
                }
                run.fr.any_dead = true;
                let st = &mut run.nodes[node];
                if st.dead {
                    continue;
                }
                st.dead = true;
                // Pool the batches the dead node had not issued yet plus
                // any recovery work it had been assigned — exactly the
                // single-query mid-phase teardown.
                for j in st.issued..st.own_batches {
                    let bytes = if j == st.own_batches - 1 {
                        st.last_batch_bytes
                    } else {
                        crate::BATCH_BYTES
                    };
                    run.fr.pool.push((node, bytes));
                }
                while let Some(bytes) = st.recovery_pending.pop_front() {
                    run.fr.pool.push((node, bytes));
                }
                st.batches_total = st.issued;
                st.own_batches = st.issued;
                if run.fr.policy != RecoveryPolicy::FailStop {
                    self.outstanding[qid] += 1;
                    self.q.push(
                        detect.max(now),
                        Ev::RecoveryKick {
                            node,
                            query: qid as u32,
                        },
                    );
                }
            }
        }
    }

    /// Terminates every live query at the global fail-stop abort clock.
    fn abort_all(&mut self, abort: SimTime) {
        self.halted = true;
        for run in &mut self.runs {
            if run.state != QState::Done {
                run.state = QState::Done;
                run.status = QueryStatus::Aborted;
                run.finished = abort.max(run.arrival);
            }
        }
    }

    fn on_admit(&mut self, qid: usize, now: SimTime) {
        debug_assert_eq!(self.runs[qid].state, QState::Pending);
        if self.running < self.adm.max_concurrent {
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    now + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: 0,
                    },
                );
            }
            self.running += 1;
            self.start_attempt(qid, now);
        } else if self.waiting.len() < self.adm.queue_limit {
            // The first attempt's deadline runs from admission, so time
            // spent waiting for a slot counts against it.
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    now + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: 0,
                    },
                );
            }
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
        run.state = QState::Running;
        run.started = run.started.or(Some(at));
        run.phase_ix = 0;
        run.phases_done.clear();
        run.phase_spans.clear();
        if run.attempt > 0 {
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    at + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: run.attempt,
                    },
                );
            }
        }
        self.start_phase(qid, at);
    }

    /// Opens phase `runs[qid].phase_ix` on the shared machine and primes
    /// its read pipeline — the phase-setup half of `run_phase`.
    fn start_phase(&mut self, qid: usize, at: SimTime) {
        let n = self.machine.nodes();
        if self.machine.failed_count() == n {
            self.finalize(qid, QueryStatus::Aborted, at);
            return;
        }
        let run = &mut self.runs[qid];
        let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
        let region = phase_region(phase);
        let writes = phase_writes(phase);
        self.machine.begin_phase(region);
        run.phase_start = at;
        run.horizon = at;
        // Sync this query's failure view with the shared machine: a
        // failure is detected here once its detection clock has passed
        // (phase starts are per-query sync points, like barriers in the
        // single-query path).
        run.fr.any_dead = self.machine.failed_count() > 0;
        for i in 0..n {
            run.fr.detected[i] =
                self.machine.disk_failed(i) && self.detect_at[i].is_some_and(|t| t <= at);
        }
        let (nodes, sched, abort) = init_phase_nodes(&self.machine, phase, &mut run.fr, at);
        run.nodes = nodes;
        run.sched = sched;
        if let Some(t) = abort {
            self.finalize(qid, QueryStatus::Aborted, t);
            return;
        }
        run.costs = Some(PhaseCosts::new(&self.machine, phase));
        if let Some(rt) = self.spans.as_mut() {
            rt.last = SpanId::NONE;
            rt.last_end = at;
            rt.arena.set_query(qid as u32);
        }
        let window = self.machine.window() as u64;
        let policy = run.fr.policy;
        let mut sp = self.spans.as_mut();
        {
            let mut evq = EvQ {
                q: &mut self.q,
                counts: Some(&mut self.outstanding),
            };
            for node in 0..n {
                let to_issue = window.min(run.nodes[node].batches_total);
                for _ in 0..to_issue {
                    if let Some((t, ev)) = prepare_read(
                        &mut self.machine,
                        &mut run.nodes,
                        node,
                        at,
                        region,
                        writes,
                        policy,
                        &mut sp,
                        SpanId::NONE,
                        qid as u32,
                    ) {
                        evq.push(t, ev);
                    }
                }
            }
            // Failures not yet detected at this phase's start get their
            // recovery kick at the detection clock.
            if run.fr.any_dead && policy != RecoveryPolicy::FailStop {
                for i in 0..n {
                    if self.machine.disk_failed(i) && !run.fr.detected[i] {
                        if let Some(t) = self.detect_at[i] {
                            evq.push(
                                t.max(at),
                                Ev::RecoveryKick {
                                    node: i,
                                    query: qid as u32,
                                },
                            );
                        }
                    }
                }
            }
        }
        if let Some(rt) = sp {
            run.span_last = rt.last;
            run.span_last_end = rt.last_end;
        }
        if self.outstanding[qid] == 0 {
            // Degenerate phase (nothing to read): complete immediately.
            self.complete_phase(qid, at);
        }
    }

    /// Handles one popped work event for its owning query.
    fn on_work(&mut self, now: SimTime, ev: Ev) {
        let qid = ev.work_query().expect("work event carries a query") as usize;
        self.outstanding[qid] -= 1;
        let run = &mut self.runs[qid];
        run.events += 1;
        match run.state {
            QState::Running => {
                run.horizon = run.horizon.max(now);
                if let Some(rt) = self.spans.as_mut() {
                    rt.last = run.span_last;
                    rt.last_end = run.span_last_end;
                    rt.arena.set_query(qid as u32);
                }
                let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
                let window = self.machine.window() as u64;
                let mut ctx = PhaseCtx {
                    phase,
                    costs: run.costs.as_ref().expect("phase opened"),
                    sched: run.sched.as_mut(),
                    nodes: &mut run.nodes,
                    horizon: &mut run.horizon,
                    region: phase_region(phase),
                    phase_writes: phase_writes(phase),
                    phase_ix: run.phase_ix,
                    window,
                    qid: qid as u32,
                };
                let mut sp = self.spans.as_mut();
                handle_ev(
                    &mut self.machine,
                    &mut EvQ {
                        q: &mut self.q,
                        counts: Some(&mut self.outstanding),
                    },
                    &mut ctx,
                    &mut run.fr,
                    &mut None,
                    &mut sp,
                    now,
                    ev,
                );
                if let Some(rt) = sp {
                    run.span_last = rt.last;
                    run.span_last_end = rt.last_end;
                }
                if self.outstanding[qid] == 0 {
                    self.complete_phase(qid, now);
                }
            }
            QState::AwaitRetry => {
                // Stale drain from the torn-down attempt; machine charges
                // already accrued (wasted work is real under overload).
                if self.outstanding[qid] == 0 && run.retry_armed {
                    run.attempt += 1;
                    run.retry_armed = false;
                    self.start_attempt(qid, now);
                }
            }
            QState::Done => {
                // Stale drain past a terminal timeout/abort: dropped.
            }
            QState::Pending | QState::Waiting => {
                unreachable!("work event for a query that never started")
            }
        }
    }

    /// Closes the current phase: positioning tail, barrier, and the
    /// `PhaseStart` control event that opens the next phase (or finishes
    /// the plan) — the phase-teardown half of `run_phase`.
    fn complete_phase(&mut self, qid: usize, _now: SimTime) {
        let run = &mut self.runs[qid];
        let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
        // Byte conservation per query, exactly as in the solo path.
        let issued: u64 = run.nodes.iter().map(|s| s.issued_bytes).sum();
        assert_eq!(
            issued, phase.read_bytes_total,
            "query {qid} phase '{}' issued {issued} B of {} B planned",
            phase.name, phase.read_bytes_total
        );
        let end = run.horizon + phase.extra_disk_busy_per_node;
        let barrier_end = end + self.machine.barrier_costs().barrier(self.machine.nodes());
        if let Some(rt) = self.spans.as_mut() {
            rt.last = run.span_last;
            rt.last_end = run.span_last_end;
            rt.arena.set_query(qid as u32);
            if phase.extra_disk_busy_per_node > Duration::ZERO {
                let parent = rt.last;
                rt.record(
                    parent,
                    POSITIONING_RESOURCE,
                    SpanKind::Positioning,
                    FRONT_END_NODE,
                    run.horizon,
                    end,
                    0,
                );
            }
            let parent = rt.last;
            rt.record(
                parent,
                BARRIER_RESOURCE,
                SpanKind::Barrier,
                FRONT_END_NODE,
                end,
                barrier_end,
                0,
            );
            run.phase_spans.push(PhaseSpans {
                name: phase.name,
                start: run.phase_start,
                end: barrier_end,
                anchor: rt.last,
            });
            run.span_last = rt.last;
            run.span_last_end = rt.last_end;
        }
        run.phases_done.push(QueryPhase {
            name: phase.name,
            elapsed: barrier_end.since(run.phase_start),
        });
        run.phase_ix += 1;
        let attempt = run.attempt;
        self.q.push(
            barrier_end,
            Ev::PhaseStart {
                query: qid as u32,
                attempt,
            },
        );
    }

    fn on_phase_start(&mut self, qid: usize, attempt: u32, now: SimTime) {
        let run = &self.runs[qid];
        // Stale barrier from a torn-down attempt.
        if run.state != QState::Running || run.attempt != attempt {
            return;
        }
        if run.phase_ix == self.plans[run.plan_ix].phases.len() {
            self.finalize(qid, QueryStatus::Completed, now);
        } else {
            self.start_phase(qid, now);
        }
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
            QState::Running if run.attempt == attempt => {
                run.timeouts += 1;
                if run.attempt < self.dl.max_retries {
                    run.retries += 1;
                    run.state = QState::AwaitRetry;
                    run.retry_armed = false;
                    let wait = self.dl.backoff_for(run.attempt + 1, &mut self.backoff_rng);
                    self.q.push(now + wait, Ev::Retry { query: qid as u32 });
                } else {
                    // Retry budget exhausted: finish with the partial
                    // phase report intact.
                    self.finalize(qid, QueryStatus::TimedOut, now);
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
        if self.outstanding[qid] == 0 {
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
        let held_slot = matches!(run.state, QState::Running | QState::AwaitRetry);
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
        let mut mq = self.mq_setup(workload, admission, deadline, profiled);
        mq.run_to_idle();
        self.collect_load(mq, workload.summary(), admission, deadline)
    }

    /// Builds the multi-query driver with `workload`'s arrivals queued
    /// but nothing processed.
    fn mq_setup(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
        profiled: bool,
    ) -> Mq {
        assert!(workload.queries > 0, "workload needs at least one query");
        let tasks = workload.tasks();
        let arrivals = workload.arrival_times();
        let mut machine = Machine::new(self.architecture());
        for &(node, count) in self.degraded_disks() {
            machine.degrade_disk(node, count);
        }
        let n = machine.nodes();
        let fs = FaultRt::new(self.fault_plan(), self.recovery_policy(), self.seed(), n);

        // One plan per distinct task kind; queries index into it.
        let mut plans: Vec<TaskPlan> = Vec::new();
        let mut kinds: Vec<TaskKind> = Vec::new();
        let plan_of: Vec<usize> = tasks
            .iter()
            .map(|&t| {
                kinds.iter().position(|&k| k == t).unwrap_or_else(|| {
                    let plan = plan_task(t, self.architecture());
                    plan.validate().expect("invalid task plan");
                    plans.push(plan);
                    kinds.push(t);
                    kinds.len() - 1
                })
            })
            .collect();

        let window = machine.window();
        // Steady state: every running query holds a full read window per
        // node plus its fan-out, and each query owns at most one control
        // event of each kind.
        let cap = admission.max_concurrent * n * (window + 4) + 2 * tasks.len() + 64;
        let q: EventQueue<Ev> = EventQueue::with_backend_capacity(self.queue_backend(), cap);

        let runs: Vec<QueryRun> = tasks
            .iter()
            .zip(&arrivals)
            .enumerate()
            .map(|(i, (&task, &arrival))| QueryRun {
                task,
                plan_ix: plan_of[i],
                arrival,
                started: None,
                attempt: 0,
                phase_ix: 0,
                nodes: Vec::new(),
                costs: None,
                sched: None,
                fr: FaultRt::new(&FaultPlan::new(), self.recovery_policy(), self.seed(), n),
                horizon: SimTime::ZERO,
                phase_start: SimTime::ZERO,
                state: QState::Pending,
                status: QueryStatus::Completed,
                retry_armed: false,
                retries: 0,
                timeouts: 0,
                finished: SimTime::ZERO,
                events: 0,
                phases_done: Vec::new(),
                span_last: SpanId::NONE,
                span_last_end: SimTime::ZERO,
                phase_spans: Vec::new(),
            })
            .collect();

        let closed = matches!(workload.arrival, ArrivalProcess::Closed { .. });
        let queries = runs.len();
        let mut mq = Mq {
            machine,
            q,
            runs,
            plans,
            kinds,
            outstanding: vec![0; queries],
            fs,
            detect_at: vec![None; n],
            adm: admission,
            dl: deadline,
            running: 0,
            waiting: VecDeque::new(),
            next_closed: queries,
            closed,
            // Decorrelate the backoff jitter stream from the machine's
            // seeded models without a second seed knob.
            backoff_rng: SplitMix64::new(self.seed() ^ 0x9E37_79B9_7F4A_7C15),
            spans: profiled.then(SpanRt::new),
            clock: SimTime::ZERO,
            halted: false,
        };
        match workload.arrival {
            ArrivalProcess::Poisson { .. } => {
                for (i, &at) in arrivals.iter().enumerate() {
                    mq.q.push(at, Ev::Admit { query: i as u32 });
                }
            }
            ArrivalProcess::Closed { clients } => {
                let first = (clients as usize).min(queries);
                for i in 0..first {
                    mq.q.push(SimTime::ZERO, Ev::Admit { query: i as u32 });
                }
                mq.next_closed = first;
            }
        }
        mq
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
        let outcomes = mq
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| QueryOutcome {
                query: i as u32,
                task: r.task,
                arrival: r.arrival,
                started: r.started,
                finished: r.finished,
                status: r.status,
                retries: r.retries,
                timeouts: r.timeouts,
                phases: r.phases_done.clone(),
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
            faults_injected: mq.fs.injected,
            work_redistributed: mq.machine.work_redistributed(),
            downtime: mq.machine.disk_downtime(end),
        };
        let trace = mq.spans.map(|rt| LoadSpanTrace {
            arena: rt.arena,
            queries: mq
                .runs
                .iter()
                .enumerate()
                .map(|(i, r)| QuerySpans {
                    query: i as u32,
                    task: r.task,
                    phases: r.phase_spans.clone(),
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
            mq: self.mq_setup(warmup, admission, deadline, false),
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
        self.mq.run_to_idle();
    }

    /// The fork origin: the time of the last processed event. Extended
    /// arrivals land strictly after it.
    pub fn origin(&self) -> SimTime {
        self.mq.clock
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
    pub fn extend(&mut self, spec: &WorkloadSpec) {
        assert!(spec.queries > 0, "extension needs at least one query");
        let origin = self.mq.clock;
        let shift = origin.since(SimTime::ZERO) + Duration::from_nanos(1);
        let tasks = spec.tasks();
        let arrivals: Vec<SimTime> = spec
            .arrival_times()
            .into_iter()
            .map(|at| at + shift)
            .collect();
        let base = self.mq.runs.len();
        let n = self.mq.machine.nodes();
        for (&task, &arrival) in tasks.iter().zip(&arrivals) {
            let plan_ix = self
                .mq
                .kinds
                .iter()
                .position(|&k| k == task)
                .unwrap_or_else(|| {
                    let plan = plan_task(task, self.sim.architecture());
                    plan.validate().expect("invalid task plan");
                    self.mq.plans.push(plan);
                    self.mq.kinds.push(task);
                    self.mq.kinds.len() - 1
                });
            self.mq.runs.push(QueryRun {
                task,
                plan_ix,
                arrival,
                started: None,
                attempt: 0,
                phase_ix: 0,
                nodes: Vec::new(),
                costs: None,
                sched: None,
                fr: FaultRt::new(
                    &FaultPlan::new(),
                    self.sim.recovery_policy(),
                    self.sim.seed(),
                    n,
                ),
                horizon: SimTime::ZERO,
                phase_start: SimTime::ZERO,
                state: QState::Pending,
                status: QueryStatus::Completed,
                retry_armed: false,
                retries: 0,
                timeouts: 0,
                finished: SimTime::ZERO,
                events: 0,
                phases_done: Vec::new(),
                span_last: SpanId::NONE,
                span_last_end: SimTime::ZERO,
                phase_spans: Vec::new(),
            });
            self.mq.outstanding.push(0);
        }
        match spec.arrival {
            ArrivalProcess::Poisson { .. } => {
                for (i, &at) in arrivals.iter().enumerate() {
                    self.mq.q.push(
                        at,
                        Ev::Admit {
                            query: (base + i) as u32,
                        },
                    );
                }
                // Closed-loop issuance (if the warmup was closed) must
                // not re-admit the Poisson extension.
                self.mq.next_closed = self.mq.runs.len();
                self.mq.closed = false;
            }
            ArrivalProcess::Closed { clients } => {
                let first = (clients as usize).min(tasks.len());
                for (i, &at) in arrivals.iter().take(first).enumerate() {
                    self.mq.q.push(
                        at,
                        Ev::Admit {
                            query: (base + i) as u32,
                        },
                    );
                }
                self.mq.next_closed = base + first;
                self.mq.closed = true;
            }
        }
        self.workload = format!("{} + {}", self.workload, spec.summary());
    }

    /// Runs the continuation to completion and returns its report
    /// (warmup and extended queries both included, in arrival order —
    /// slice `outcomes` at [`WarmStart::measured_from`] for the measured
    /// segment).
    pub fn finish(mut self) -> LoadReport {
        self.mq.run_to_idle();
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

    #[test]
    fn one_query_workload_matches_solo_run() {
        for arch in [
            Architecture::active_disks(4),
            Architecture::cluster(4),
            Architecture::smp(4),
        ] {
            let sim = Simulation::new(arch);
            let solo = sim.run(TaskKind::Aggregate);
            let load = sim.run_workload(
                &one_query(TaskKind::Aggregate),
                AdmissionPolicy::default(),
                DeadlinePolicy::default(),
            );
            assert_eq!(load.outcomes.len(), 1);
            let q = &load.outcomes[0];
            assert_eq!(q.status, QueryStatus::Completed);
            assert_eq!(q.latency(), solo.elapsed(), "loaded 1-query elapsed drifts");
            assert_eq!(q.phases.len(), solo.phases.len());
            for (qp, sp) in q.phases.iter().zip(&solo.phases) {
                assert_eq!(qp.name, sp.name);
            }
        }
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
