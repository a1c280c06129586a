//! The four workloads.
//!
//! Each is a closed loop: one op at a time from one process, the next
//! issued when the previous returns. Set-up builds every input from the
//! seed; a pass repeats the same ops on the same inputs, so every pass of
//! a run must produce the same digests. The seed changes which inputs a
//! run sees but, by construction, hardly how much work they are, so runs
//! with different seeds stay comparable.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use arch::{Architecture, PAPER_SIZES};
use datagen::zipf::Zipf;
use experiments::{csv, fig1, fig2, fig3, fig4, fig5};
use howsim::{
    cache, checkpoint, AdmissionPolicy, ArrivalProcess, DeadlinePolicy, FaultPlan, LoadReport,
    QueryStatus, RecoveryPolicy, Report, Simulation, WarmStart, WorkloadSpec,
};
use simcore::{Duration, SimTime};
use tasks::planner::apply_shuffle_skew;
use tasks::{plan_task, TaskKind, TaskPlan};

use crate::digest;
use crate::ledger::{self, Ledger};
use crate::record::{timed, Op, Recorder};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "solo_scaleout",
    "paper_figures",
    "loaded_mix",
    "whatif_faults",
];

/// A per-layer metric of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One workload: an untimed warm-up op, then identical timed passes.
pub trait Workload {
    /// Runs the warm-up op: the first op of a pass.
    fn warm_up(&mut self, rec: &mut Recorder);
    /// Runs one pass of ops.
    fn pass(&mut self, rec: &mut Recorder);
    /// The per-layer metrics this workload is home to, from the ops and
    /// counters of one traced pass; may run extra traced work and add its
    /// replayed span streams to `ledger`.
    fn layer_metrics(&mut self, ops: &[Op], rec: &mut Recorder, ledger: &mut Ledger)
        -> Vec<Metric>;
}

/// Builds workload `name` (one of [`NAMES`]) with its inputs drawn from
/// `seed`. Scratch files go under `tmp`.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder, tmp: &Path) -> Box<dyn Workload> {
    match name {
        "solo_scaleout" => Box::new(Solo::new(seed, rec)),
        "paper_figures" => Box::new(Figures::new(seed, rec, tmp)),
        "loaded_mix" => Box::new(Loaded::new(seed, rec)),
        "whatif_faults" => Box::new(WhatIf::new(seed, rec, tmp)),
        _ => panic!("unknown workload `{name}`"),
    }
}

/// A well-mixed value derived from `seed` for the use named by `salt`
/// (one SplitMix64 step).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `tasks::plan_task`, timed into the `tasks.*` counters.
fn plan(rec: &mut Recorder, task: TaskKind, arch: &Architecture) -> TaskPlan {
    let (plan, ns) = timed(|| plan_task(task, arch));
    rec.add("tasks.plan_calls", 1.0);
    rec.add("tasks.plan_s", ns as f64 / 1e9);
    plan
}

fn label(arch: &Architecture, task: TaskKind) -> String {
    format!(
        "{}-{}-{}",
        arch.short_name().to_lowercase(),
        arch.disks(),
        task.name()
    )
}

fn report_out(r: &Report) -> (u64, u64) {
    (digest::of_report(r), r.events)
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

fn per(total: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        total / count
    }
}

/// The three architectures at `disks`, in the paper's order.
fn architectures(disks: usize) -> [Architecture; 3] {
    [
        Architecture::active_disks(disks),
        Architecture::cluster(disks),
        Architecture::smp(disks),
    ]
}

// ---------------------------------------------------------------------
// solo_scaleout

/// Healthy solo simulations at scale: the event loop, queue, machine,
/// disk, fabric and FIFO-server layers do nearly all the work; the
/// cache, multi-query, checkpoint and span layers do none.
struct Solo {
    points: Vec<(String, Simulation, TaskPlan)>,
}

impl Solo {
    fn new(seed: u64, rec: &mut Recorder) -> Self {
        cache::set_enabled(false);
        let mut points = Vec::new();
        for arch_ix in 0..3 {
            for disks in [64, 128] {
                // Zipf(θ = 0.5) over 100 k keys, hashed rank-major onto
                // the nodes; the seed picks which node is hot.
                let mut weights = Zipf::new(100_000, 0.5).partition_weights(disks);
                weights.rotate_right((mix(seed, 1) % disks as u64) as usize);
                let arch = architectures(disks)[arch_ix].clone();
                for task in [TaskKind::Join, TaskKind::Sort] {
                    let mut p = plan(rec, task, &arch);
                    apply_shuffle_skew(&mut p, weights.clone());
                    points.push((label(&arch, task), Simulation::new(arch.clone()), p));
                }
            }
        }
        Solo { points }
    }

    fn run(&self, rec: &mut Recorder, i: usize) {
        let (label, sim, plan) = &self.points[i];
        rec.op(
            "howsim.exec",
            label.clone(),
            || sim.run_plan(plan),
            report_out,
        );
    }
}

impl Workload for Solo {
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.run(rec, 0);
    }

    fn pass(&mut self, rec: &mut Recorder) {
        for i in 0..self.points.len() {
            self.run(rec, i);
        }
    }

    fn layer_metrics(
        &mut self,
        ops: &[Op],
        rec: &mut Recorder,
        ledger: &mut Ledger,
    ) -> Vec<Metric> {
        // Rerun each point profiled: its span stream feeds the replay
        // ledger, and its wall time against the plain run's is the
        // tracing overhead.
        let mut own = Ledger::default();
        let mut profiled_ns = 0u64;
        for ((label, sim, plan), op) in self.points.iter().zip(ops) {
            let traced = rec.op(
                "howsim.profile",
                format!("{label}/profiled"),
                || sim.run_plan_profiled(plan),
                |(r, _)| report_out(r),
            );
            profiled_ns += rec.last().ns;
            if let Some((report, trace)) = traced {
                rec.check(
                    digest::of_report(&report) == op.digest,
                    "profiled report differs from the plain one",
                );
                own.merge(&ledger::replay(
                    sim.architecture(),
                    trace.arena.spans(),
                    op.ns,
                ));
            }
        }
        ledger.merge(&own);
        let events: u64 = ops.iter().map(|o| o.events).sum();
        let busy: u64 = ops.iter().map(|o| o.ns).sum();
        vec![
            metric("exec.calls", "count", ops.len() as f64),
            metric("exec.events", "count", events as f64),
            metric("exec.busy_s", "s", secs(busy as f64)),
            metric("exec.ns_per_event", "ns", per(busy as f64, events as f64)),
            metric(
                "exec.self_ns_per_event",
                "ns",
                per(busy as f64 - own.replayed_ns() as f64, events as f64),
            ),
            metric(
                "trace.overhead_frac",
                "ratio",
                profiled_ns as f64 / busy as f64 - 1.0,
            ),
        ]
    }
}

// ---------------------------------------------------------------------
// paper_figures

/// Figures 1–5 at full size, cold and then read back from the on-disk
/// cache tier, plus direct spot-check simulations of figure points.
struct Figures {
    /// The order the figures are read back in (1-based numbers), drawn
    /// from the seed. The cold figures run in paper order: whichever runs
    /// first simulates the points figures share, so permuting them would
    /// move work between ops from seed to seed.
    order: Vec<usize>,
    dir: PathBuf,
    spots: Vec<(String, Architecture, TaskPlan)>,
}

/// The sizes each figure's `run()` covers; each size is one op.
fn figure_sizes(fig: usize) -> &'static [usize] {
    match fig {
        2 => &[64, 128],
        5 => &[32, 64, 128],
        _ => &PAPER_SIZES,
    }
}

/// Figure `fig` at one size, as the CSV the `experiments` binary writes.
fn figure_csv(fig: usize, disks: usize) -> String {
    match fig {
        1 => csv::fig1(&fig1::run_sizes(&[disks])),
        2 => csv::fig2(&fig2::run_sizes(&[disks])),
        3 => csv::fig3(&fig3::run_sizes(&[disks])),
        4 => csv::fig4(&fig4::run_memory(&[disks], 64)),
        5 => csv::fig5(&fig5::run_sizes(&[disks])),
        _ => unreachable!("five figures"),
    }
}

/// How often each pass simulates the spot-check points afresh: the spot
/// checks are the workload's only simulation calls that report events, so
/// they alone give its `events_per_s` and `sim_ms_p50`.
const SPOT_ROUNDS: usize = 3;

const FIG_COUNTERS: [&str; 5] = [
    "experiments.fig1_s",
    "experiments.fig2_s",
    "experiments.fig3_s",
    "experiments.fig4_s",
    "experiments.fig5_s",
];

impl Figures {
    fn new(seed: u64, rec: &mut Recorder, tmp: &Path) -> Self {
        cache::set_enabled(true);
        let mut order: Vec<usize> = (1..=5).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (mix(seed, 10 + i as u64) % (i as u64 + 1)) as usize);
        }
        // The 16-disk column of Figure 1, whatever the seed, so the
        // spot checks cost the same in every run.
        let spots = TaskKind::ALL
            .into_iter()
            .flat_map(|task| architectures(16).map(|arch| (task, arch)))
            .map(|(task, arch)| (label(&arch, task), arch.clone(), plan(rec, task, &arch)))
            .collect();
        Figures {
            order,
            dir: tmp.join("simcache"),
            spots,
        }
    }

    /// Empties both cache tiers.
    fn reset(&self) {
        cache::clear();
        let _ = fs::remove_dir_all(&self.dir);
        fs::create_dir_all(&self.dir).expect("create the cache directory");
        cache::set_disk_dir(Some(self.dir.clone()));
    }

    fn figure(&self, rec: &mut Recorder, fig: usize, disks: usize, phase: &str) -> Option<String> {
        rec.op(
            "experiments",
            format!("fig{fig}@{disks}/{phase}"),
            || figure_csv(fig, disks),
            |csv| (digest::of_text(csv), 0),
        )
    }
}

impl Workload for Figures {
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.reset();
        self.figure(rec, 1, figure_sizes(1)[0], "cold");
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.reset();
        let before = cache::stats();
        let mut cold = BTreeMap::new();
        for fig in 1..=5 {
            for &disks in figure_sizes(fig) {
                cold.insert((fig, disks), self.figure(rec, fig, disks, "cold"));
                rec.add(FIG_COUNTERS[fig - 1], secs(rec.last().ns as f64));
            }
        }
        // Clear the memory tier only: every point now comes back from
        // disk and must decode to the same figure bytes.
        cache::clear();
        for &fig in &self.order {
            for &disks in figure_sizes(fig) {
                let warm = self.figure(rec, fig, disks, "warm");
                rec.add("cache.warm_read_s", secs(rec.last().ns as f64));
                rec.check(
                    warm.is_some() && warm == cold[&(fig, disks)],
                    "disk-tier read-back differs from the cold figure",
                );
            }
        }
        let after = cache::stats();
        rec.add("cache.hits", (after.hits - before.hits) as f64);
        rec.add("cache.misses", (after.misses - before.misses) as f64);
        rec.add(
            "cache.disk_hits",
            (after.disk_hits - before.disk_hits) as f64,
        );
        // A fresh simulation of a figure point must equal the report the
        // cache served from disk.
        for _ in 0..SPOT_ROUNDS {
            for (label, arch, plan) in &self.spots {
                let fresh = rec.op(
                    "howsim.exec",
                    format!("spot/{label}"),
                    || Simulation::new(arch.clone()).run_plan(plan),
                    report_out,
                );
                let cached = cache::run_plan(arch, plan);
                rec.check(
                    fresh.as_ref() == Some(&cached),
                    "fresh simulation differs from the cached report",
                );
            }
        }
    }

    fn layer_metrics(&mut self, _: &[Op], rec: &mut Recorder, _: &mut Ledger) -> Vec<Metric> {
        let (hits, misses) = (rec.sum("cache.hits"), rec.sum("cache.misses"));
        let mut out: Vec<Metric> = FIG_COUNTERS
            .iter()
            .map(|&name| metric(name, "s", rec.sum(name)))
            .collect();
        out.extend([
            metric("cache.hits", "count", hits),
            metric("cache.misses", "count", misses),
            metric("cache.disk_hits", "count", rec.sum("cache.disk_hits")),
            metric("cache.hit_frac", "ratio", per(hits, hits + misses)),
            metric("cache.warm_read_s", "s", rec.sum("cache.warm_read_s")),
        ]);
        out
    }
}

// ---------------------------------------------------------------------
// loaded_mix

const LOAD_ADMISSION: AdmissionPolicy = AdmissionPolicy {
    max_concurrent: 2,
    queue_limit: 8,
};
/// Offered load as multiples of the estimated single-query capacity.
const LOAD_RATES: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Queries per load point and in the warm-up: one of each of the mix's
/// eight tasks.
const LOAD_QUERIES: u32 = 8;

/// How far the last arrival of a Poisson spec may land from where its
/// nominal rate puts it, as a share of that time.
const ARRIVAL_SPAN_TOLERANCE: f64 = 0.05;

/// `spec` seeded from `seed`, redrawn until no task of its mix appears
/// more often than an even share allows and, for a Poisson spec, until its
/// queries arrive over the span its nominal rate gives them. Seeds then
/// change the order and arrival times of the queries but hardly the load
/// they add up to, so runs with different seeds stay comparable.
fn balanced(spec: WorkloadSpec, seed: u64, salt: u64) -> WorkloadSpec {
    let share = (spec.queries as usize).div_ceil(spec.mix.len());
    (0u64..)
        .map(|draw| spec.clone().with_seed(mix(seed, salt + (draw << 16))))
        .find(|s| {
            let tasks = s.tasks();
            let even = s
                .mix
                .iter()
                .all(|(t, _)| tasks.iter().filter(|&q| q == t).count() <= share);
            even && match s.arrival {
                ArrivalProcess::Poisson { qps } => {
                    let last = s
                        .arrival_times()
                        .last()
                        .map_or(0.0, |t| t.since(SimTime::ZERO).as_secs_f64());
                    (last * qps / f64::from(s.queries) - 1.0).abs() <= ARRIVAL_SPAN_TOLERANCE
                }
                ArrivalProcess::Closed { .. } => true,
            }
        })
        .expect("an even draw exists")
}

/// One architecture's load ladder: a shared warm-up, forked per point.
struct LoadGroup {
    arch: String,
    sim: Simulation,
    warmup: WorkloadSpec,
    deadline: DeadlinePolicy,
    points: Vec<(String, WorkloadSpec)>,
}

/// Multi-query runs under admission control, deadlines and retries,
/// each load point forked from one warm prefix.
struct Loaded {
    groups: Vec<LoadGroup>,
}

impl Loaded {
    fn new(seed: u64, rec: &mut Recorder) -> Self {
        cache::set_enabled(false);
        let all: Vec<(TaskKind, u32)> = TaskKind::ALL.into_iter().map(|t| (t, 1)).collect();
        let groups = [Architecture::active_disks(16), Architecture::cluster(16)]
            .into_iter()
            .map(|arch| {
                // Capacity, deadline and backoff derive from the mean
                // healthy solo time of the mix, as in the load sweep.
                let sim = Simulation::new(arch.clone());
                let mean_secs = TaskKind::ALL
                    .into_iter()
                    .map(|t| sim.run_plan(&plan(rec, t, &arch)).elapsed().as_secs_f64())
                    .sum::<f64>()
                    / TaskKind::ALL.len() as f64;
                let capacity = 1.0 / mean_secs;
                let mut points: Vec<(String, WorkloadSpec)> = LOAD_RATES
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| {
                        let spec =
                            WorkloadSpec::poisson(capacity * x, LOAD_QUERIES).with_mix(all.clone());
                        let spec = balanced(spec, seed, 100 + k as u64);
                        (format!("{x:.1}x"), spec)
                    })
                    .collect();
                let closed = WorkloadSpec::closed(4, LOAD_QUERIES).with_mix(all.clone());
                points.push(("closed:4".into(), balanced(closed, seed, 110)));
                LoadGroup {
                    arch: arch.short_name().to_lowercase(),
                    sim,
                    warmup: balanced(
                        WorkloadSpec::closed(2, LOAD_QUERIES).with_mix(all.clone()),
                        seed,
                        99,
                    ),
                    deadline: DeadlinePolicy {
                        deadline: Some(Duration::from_secs_f64(mean_secs * 4.0)),
                        max_retries: 1,
                        backoff: Duration::from_secs_f64(mean_secs * 0.25),
                    },
                    points,
                }
            })
            .collect();
        Loaded { groups }
    }

    /// The shared warm prefix of group `g`, and the events it processed.
    fn warm(&self, rec: &mut Recorder, g: &LoadGroup) -> Option<(WarmStart, u64)> {
        let warm = rec.op(
            "howsim.mqexec",
            format!("{}/warmup", g.arch),
            || {
                let mut w = g.sim.start_workload(&g.warmup, LOAD_ADMISSION, g.deadline);
                w.run_to_idle();
                w
            },
            |w| {
                let r = w.fork().finish();
                (digest::of_load_report(&r), r.events)
            },
        )?;
        Some((warm, rec.last().events))
    }
}

impl Workload for Loaded {
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.warm(rec, &self.groups[0]);
    }

    fn pass(&mut self, rec: &mut Recorder) {
        for g in &self.groups {
            let Some((warm, warm_events)) = self.warm(rec, g) else {
                continue;
            };
            rec.add("mqexec.warmup_s", secs(rec.last().ns as f64));
            for (load, spec) in &g.points {
                let (fork, fork_ns) = timed(|| warm.fork());
                rec.add("mqexec.forks", 1.0);
                rec.add("mqexec.fork_ns", fork_ns as f64);
                let report = rec.op(
                    "howsim.mqexec",
                    format!("{}/{load}", g.arch),
                    move || {
                        let mut run = fork;
                        run.extend(spec);
                        run.finish()
                    },
                    |r: &LoadReport| (digest::of_load_report(r), r.events - warm_events),
                );
                let Some(report) = report else { continue };
                rec.check(
                    report.outcomes.len() == warm.measured_from() + spec.queries as usize,
                    "a query is missing from the report",
                );
                let measured = &report.outcomes[warm.measured_from().min(report.outcomes.len())..];
                let count = |s: QueryStatus| measured.iter().filter(|o| o.status == s).count();
                rec.add("mqexec.calls", 1.0);
                rec.add("mqexec.busy_ns", rec.last().ns as f64);
                rec.add("mqexec.queries", measured.len() as f64);
                rec.add("mqexec.completed", count(QueryStatus::Completed) as f64);
                rec.add("mqexec.shed", count(QueryStatus::Shed) as f64);
                rec.add("mqexec.timed_out", count(QueryStatus::TimedOut) as f64);
                let retries: u32 = measured.iter().map(|o| o.retries).sum();
                rec.add("mqexec.retries", f64::from(retries));
            }
        }
    }

    fn layer_metrics(
        &mut self,
        ops: &[Op],
        rec: &mut Recorder,
        ledger: &mut Ledger,
    ) -> Vec<Metric> {
        // The warm fork has no profiled mode, so the span stream of each
        // load point comes from a from-scratch run of its workload.
        for g in &self.groups {
            for (load, spec) in &g.points {
                let plain = rec.op(
                    "howsim.mqexec",
                    format!("{}/{load}/scratch", g.arch),
                    || g.sim.run_workload(spec, LOAD_ADMISSION, g.deadline),
                    |r| (digest::of_load_report(r), r.events),
                );
                let plain_ns = rec.last().ns;
                let traced = rec.op(
                    "howsim.profile",
                    format!("{}/{load}/profiled", g.arch),
                    || {
                        g.sim
                            .run_workload_profiled(spec, LOAD_ADMISSION, g.deadline)
                    },
                    |(r, _)| (digest::of_load_report(r), r.events),
                );
                if let Some((report, trace)) = traced {
                    rec.check(
                        plain.as_ref() == Some(&report),
                        "profiled loaded report differs from the plain one",
                    );
                    ledger.merge(&ledger::replay(
                        g.sim.architecture(),
                        trace.arena.spans(),
                        plain_ns,
                    ));
                }
            }
        }
        let events: u64 = ops
            .iter()
            .filter(|o| !o.label.ends_with("/warmup"))
            .map(|o| o.events)
            .sum();
        let queries = rec.sum("mqexec.queries");
        vec![
            metric("mqexec.calls", "count", rec.sum("mqexec.calls")),
            metric("mqexec.events", "count", events as f64),
            metric(
                "mqexec.ns_per_event",
                "ns",
                per(rec.sum("mqexec.busy_ns"), events as f64),
            ),
            metric("mqexec.warmup_s", "s", rec.sum("mqexec.warmup_s")),
            metric(
                "mqexec.fork_ns",
                "ns",
                per(rec.sum("mqexec.fork_ns"), rec.sum("mqexec.forks")),
            ),
            metric("mqexec.queries", "count", queries),
            metric(
                "mqexec.completed_frac",
                "ratio",
                per(rec.sum("mqexec.completed"), queries),
            ),
            metric("mqexec.shed", "count", rec.sum("mqexec.shed")),
            metric("mqexec.timed_out", "count", rec.sum("mqexec.timed_out")),
            metric("mqexec.retries", "count", rec.sum("mqexec.retries")),
        ]
    }
}

// ---------------------------------------------------------------------
// whatif_faults

/// Which fault a scenario injects.
#[derive(Clone, Copy)]
enum Fault {
    FailStop,
    MediaBurst,
    Link,
}

/// The availability study's twelve scenarios, sorted by the fraction of
/// the healthy run at which the fault strikes (the fork point).
const SCENARIOS: [(&str, f64, Fault, RecoveryPolicy); 12] = [
    (
        "media-burst@25%",
        0.25,
        Fault::MediaBurst,
        RecoveryPolicy::Redistribute,
    ),
    (
        "disk-fail@50%",
        0.50,
        Fault::FailStop,
        RecoveryPolicy::Redistribute,
    ),
    (
        "disk-fail@50%/reconstruct",
        0.50,
        Fault::FailStop,
        RecoveryPolicy::ReconstructRead,
    ),
    (
        "disk-fail@50%/abort",
        0.50,
        Fault::FailStop,
        RecoveryPolicy::FailStop,
    ),
    (
        "media-burst@50%",
        0.50,
        Fault::MediaBurst,
        RecoveryPolicy::Redistribute,
    ),
    (
        "link-fault@50%",
        0.50,
        Fault::Link,
        RecoveryPolicy::Redistribute,
    ),
    (
        "disk-fail@75%",
        0.75,
        Fault::FailStop,
        RecoveryPolicy::Redistribute,
    ),
    (
        "disk-fail@75%/reconstruct",
        0.75,
        Fault::FailStop,
        RecoveryPolicy::ReconstructRead,
    ),
    (
        "disk-fail@75%/abort",
        0.75,
        Fault::FailStop,
        RecoveryPolicy::FailStop,
    ),
    (
        "media-burst@75%",
        0.75,
        Fault::MediaBurst,
        RecoveryPolicy::Redistribute,
    ),
    (
        "link-fault@75%",
        0.75,
        Fault::Link,
        RecoveryPolicy::Redistribute,
    ),
    (
        "disk-fail@90%",
        0.90,
        Fault::FailStop,
        RecoveryPolicy::Redistribute,
    ),
];

/// The fraction of the healthy run at which the checkpoint round trip
/// happens.
const CHECKPOINT_AT: f64 = 0.5;

struct WhatIfPoint {
    label: String,
    /// Healthy simulation, seeded for defect placement.
    sim: Simulation,
    plan: TaskPlan,
    /// The node every scenario of this point faults.
    node: usize,
    /// Whether to profile the healthy run as well.
    profile: bool,
}

/// What-if fault studies forked from one healthy prefix per point, with
/// a checkpoint round trip and, on joins, causal profiling.
struct WhatIf {
    points: Vec<WhatIfPoint>,
    ckpt: PathBuf,
}

impl WhatIf {
    fn new(seed: u64, rec: &mut Recorder, tmp: &Path) -> Self {
        cache::set_enabled(false);
        let mut points = Vec::new();
        for arch in architectures(64) {
            for task in [TaskKind::Select, TaskKind::Sort, TaskKind::Join] {
                let i = points.len() as u64;
                points.push(WhatIfPoint {
                    label: label(&arch, task),
                    sim: Simulation::new(arch.clone()).with_seed(mix(seed, 200 + i)),
                    plan: plan(rec, task, &arch),
                    node: (mix(seed, 300 + i) % arch.disks() as u64) as usize,
                    profile: task == TaskKind::Join,
                });
            }
        }
        WhatIf {
            points,
            ckpt: tmp.join("whatif.ckpt"),
        }
    }

    fn healthy(rec: &mut Recorder, p: &WhatIfPoint) -> Option<Report> {
        rec.op(
            "howsim.exec",
            format!("{}/healthy", p.label),
            || p.sim.run_plan(&p.plan),
            report_out,
        )
    }

    /// The twelve forked scenarios and the checkpoint round trip.
    fn forks(&self, rec: &mut Recorder, p: &WhatIfPoint, healthy: &Report) {
        let h_secs = healthy.elapsed().as_secs_f64();
        let (mut prefix, _) = timed(|| p.sim.start(&p.plan));
        rec.add("exec.prefix_runs", 1.0);
        let mut paused = 0.0;
        for &(name, frac, fault, policy) in &SCENARIOS {
            let at = SimTime::ZERO + Duration::from_secs_f64(h_secs * frac);
            let before = prefix.events_so_far();
            if frac > paused {
                paused = frac;
                rec.op(
                    "howsim.exec",
                    format!("{}/advance@{:.0}%", p.label, frac * 100.0),
                    || {
                        prefix.run_until(at);
                        (prefix.paused_at(), prefix.events_so_far())
                    },
                    |&(t, events)| (digest::of_text(&t.as_nanos().to_string()), events - before),
                );
                if frac == CHECKPOINT_AT {
                    self.round_trip(rec, p, at, &prefix, healthy);
                }
            }
            let plan = match fault {
                Fault::FailStop => FaultPlan::new().disk_fail_stop(p.node, at.since(SimTime::ZERO)),
                Fault::MediaBurst => {
                    FaultPlan::new().media_burst(p.node, at.since(SimTime::ZERO), 2_000)
                }
                Fault::Link => FaultPlan::new().link_fault(p.node, at.since(SimTime::ZERO), 0.5),
            };
            let (fork, fork_ns) = timed(|| prefix.fork_with_faults(plan, policy));
            rec.add("exec.fork_calls", 1.0);
            rec.add("exec.fork_ns", fork_ns as f64);
            let from = prefix.events_so_far();
            let report = rec.op(
                "howsim.exec",
                format!("{}/{name}", p.label),
                move || fork.finish(),
                |r| (digest::of_report(r), r.events - from),
            );
            rec.add("exec.continuation_s", secs(rec.last().ns as f64));
            if let Some(r) = report {
                rec.check(r.faults_injected > 0 || r.aborted, "the fault never struck");
            }
        }
    }

    /// Writes the paused prefix as a checkpoint, reads it back, and runs
    /// the restored copy to the end: it must finish as the healthy run.
    fn round_trip(
        &self,
        rec: &mut Recorder,
        p: &WhatIfPoint,
        at: SimTime,
        prefix: &howsim::ExecRun<'_>,
        healthy: &Report,
    ) {
        let written = rec.op(
            "howsim.checkpoint",
            format!("{}/ckpt-write", p.label),
            || checkpoint::write_file(&self.ckpt, &p.sim, &p.plan, at, prefix).is_ok(),
            |&ok| (digest::of_text(&ok.to_string()), 0),
        );
        let write_ns = rec.last().ns;
        rec.check(written == Some(true), "checkpoint write failed");
        let bytes = fs::metadata(&self.ckpt).map_or(0, |m| m.len());
        let restored = rec.op(
            "howsim.checkpoint",
            format!("{}/ckpt-read", p.label),
            || checkpoint::read_file(&self.ckpt, &p.sim, &p.plan),
            |r| {
                let at = r.as_ref().map(|r| r.paused_at().as_nanos());
                (digest::of_text(&format!("{at:?}")), 0)
            },
        );
        let read_ns = rec.last().ns;
        let Some(Some(restored)) = restored else {
            rec.check(false, "checkpoint read back as a miss");
            return;
        };
        rec.add("checkpoint.round_trips", 1.0);
        rec.add("checkpoint.bytes", bytes as f64);
        rec.add("checkpoint.write_ns", write_ns as f64);
        rec.add("checkpoint.read_ns", read_ns as f64);
        let from = restored.events_so_far();
        let resumed = rec.op(
            "howsim.exec",
            format!("{}/ckpt-resume", p.label),
            move || restored.finish(),
            |r| (digest::of_report(r), r.events - from),
        );
        rec.check(
            resumed.as_ref() == Some(healthy),
            "restored checkpoint finishes differently from the healthy run",
        );
    }

    /// Causal profiling of the healthy run: the report, its critical
    /// path, and its Chrome trace.
    fn profile(rec: &mut Recorder, p: &WhatIfPoint, healthy: &Report, healthy_ns: u64) {
        let traced = rec.op(
            "howsim.profile",
            format!("{}/profiled", p.label),
            || p.sim.run_plan_profiled(&p.plan),
            |(r, _)| report_out(r),
        );
        let profiled_ns = rec.last().ns;
        let Some((report, trace)) = traced else {
            return;
        };
        rec.check(
            &report == healthy,
            "profiled report differs from the plain one",
        );
        rec.add("profile.runs", 1.0);
        rec.add("profile.spans", trace.arena.len() as f64);
        rec.add("profile.extra_ns", profiled_ns as f64 - healthy_ns as f64);
        let cp = rec.op(
            "howsim.profile",
            format!("{}/critical_path", p.label),
            || trace.critical_path(),
            |cp| (digest::of_critical_path(cp), 0),
        );
        rec.add("profile.critical_path_ns", rec.last().ns as f64);
        if let Some(cp) = cp {
            let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
            rec.check(
                cp.total == healthy.elapsed() && sum == cp.total,
                "critical path does not add up to elapsed",
            );
        }
        let chrome = rec.op(
            "howsim.profile",
            format!("{}/chrome", p.label),
            || trace.chrome_trace_json(),
            |json| (digest::of_text(json), 0),
        );
        rec.add("profile.chrome_ns", rec.last().ns as f64);
        rec.add("profile.chrome_bytes", chrome.map_or(0, |j| j.len()) as f64);
    }
}

impl Workload for WhatIf {
    fn warm_up(&mut self, rec: &mut Recorder) {
        Self::healthy(rec, &self.points[0]);
    }

    fn pass(&mut self, rec: &mut Recorder) {
        for p in &self.points {
            let Some(healthy) = Self::healthy(rec, p) else {
                continue;
            };
            let healthy_ns = rec.last().ns;
            self.forks(rec, p, &healthy);
            if p.profile {
                Self::profile(rec, p, &healthy, healthy_ns);
            }
        }
        let _ = fs::remove_file(&self.ckpt);
    }

    fn layer_metrics(&mut self, _: &[Op], rec: &mut Recorder, _: &mut Ledger) -> Vec<Metric> {
        let mb = rec.sum("checkpoint.bytes") / 1e6;
        let runs = rec.sum("profile.runs");
        let chrome_mb = rec.sum("profile.chrome_bytes") / 1e6;
        vec![
            metric("exec.prefix_runs", "count", rec.sum("exec.prefix_runs")),
            metric("exec.fork_calls", "count", rec.sum("exec.fork_calls")),
            metric(
                "exec.fork_ns",
                "ns",
                per(rec.sum("exec.fork_ns"), rec.sum("exec.fork_calls")),
            ),
            metric("exec.continuation_s", "s", rec.sum("exec.continuation_s")),
            metric(
                "checkpoint.round_trips",
                "count",
                rec.sum("checkpoint.round_trips"),
            ),
            metric("checkpoint.bytes", "bytes", rec.sum("checkpoint.bytes")),
            metric(
                "checkpoint.write_mb_per_s",
                "MB/s",
                per(mb, secs(rec.sum("checkpoint.write_ns"))),
            ),
            metric(
                "checkpoint.read_mb_per_s",
                "MB/s",
                per(mb, secs(rec.sum("checkpoint.read_ns"))),
            ),
            metric("profile.runs", "count", runs),
            metric("profile.spans", "count", rec.sum("profile.spans")),
            metric(
                "profile.span_ns",
                "ns",
                per(rec.sum("profile.extra_ns"), rec.sum("profile.spans")),
            ),
            metric(
                "profile.critical_path_ns",
                "ns",
                per(rec.sum("profile.critical_path_ns"), runs),
            ),
            metric(
                "profile.chrome_bytes",
                "bytes",
                rec.sum("profile.chrome_bytes"),
            ),
            metric(
                "profile.chrome_mb_per_s",
                "MB/s",
                per(chrome_mb, secs(rec.sum("profile.chrome_ns"))),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-size ops of a figure add up to exactly its `run()`.
    #[test]
    fn figure_sizes_cover_each_figure_run() {
        howsim::sweep::set_default_jobs(1);
        let whole = [
            csv::fig1(&fig1::run()),
            csv::fig2(&fig2::run()),
            csv::fig3(&fig3::run()),
            csv::fig4(&fig4::run()),
            csv::fig5(&fig5::run()),
        ];
        for (fig, whole) in (1..=5).zip(whole) {
            let mut parts = figure_sizes(fig).iter().map(|&d| figure_csv(fig, d));
            let mut joined = parts.next().expect("at least one size");
            for part in parts {
                // Every part repeats the CSV header line.
                joined.push_str(part.split_once('\n').expect("header").1);
            }
            assert_eq!(joined, whole, "figure {fig}");
        }
    }

    #[test]
    fn load_specs_run_each_task_once_at_their_rate() {
        let all: Vec<(TaskKind, u32)> = TaskKind::ALL.into_iter().map(|t| (t, 1)).collect();
        for seed in 0..4 {
            let poisson = WorkloadSpec::poisson(2.0, LOAD_QUERIES).with_mix(all.clone());
            let closed = WorkloadSpec::closed(2, LOAD_QUERIES).with_mix(all.clone());
            for spec in [balanced(poisson, seed, 100), balanced(closed, seed, 99)] {
                let tasks = spec.tasks();
                for task in TaskKind::ALL {
                    assert_eq!(tasks.iter().filter(|&&t| t == task).count(), 1);
                }
                if let ArrivalProcess::Poisson { qps } = spec.arrival {
                    let last = spec.arrival_times()[LOAD_QUERIES as usize - 1];
                    let span = last.since(SimTime::ZERO).as_secs_f64() * qps;
                    assert!((span / f64::from(LOAD_QUERIES) - 1.0).abs() <= ARRIVAL_SPAN_TOLERANCE);
                }
            }
        }
    }

    #[test]
    fn seeds_permute_the_figures() {
        let orders: Vec<Vec<usize>> = (0..8)
            .map(|seed| Figures::new(seed, &mut Recorder::new(false), Path::new(".")).order)
            .collect();
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
        }
        assert!(orders.iter().any(|o| *o != orders[0]));
    }
}
