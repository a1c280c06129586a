//! Degraded-mode availability experiment.
//!
//! The paper evaluates healthy hardware only, but a 64-disk decision
//! support machine spends a meaningful fraction of its life with
//! something broken. This experiment measures how each architecture
//! degrades when faults strike mid-query: disk fail-stops at 25–90%
//! of the healthy run (under the redistribute and reconstruct-read
//! recovery policies, plus the abort-and-rerun baseline), grown-defect
//! media bursts, and interconnect faults. Every scenario reports the
//! slowdown relative to the healthy run of the same (task, architecture)
//! point.
//!
//! Fault times are derived from the *healthy simulated elapsed time* of
//! the same point, so the schedule is fully deterministic: same seed,
//! same table, at any `--jobs` count.
//!
//! Every fault scenario at one point shares the identical healthy prefix
//! up to its fault time, so the sweep runs through the checkpoint fork
//! API: one shared prefix run pauses at each fault fraction in turn and
//! [`howsim::ExecRun::fork_with_faults`] branches a continuation per
//! scenario. Each scenario goes through [`howsim::cache::run_sim_with`]
//! under the key a from-scratch run of it would have, so a cached
//! scenario is served without a fork, and the prefix starts only when a
//! point's first scenario misses. Forked reports are field-identical to
//! from-scratch runs (enforced by test against [`run_configs_scratch`]);
//! the healthy prefix is simulated at most once per (arch, task) point
//! instead of once per scenario.

use arch::Architecture;
use howsim::faults::{FaultPlan, RecoveryPolicy};
use howsim::{Report, Simulation};
use simcore::{Duration, SimTime};
use tasks::{plan_task, TaskKind, TaskPlan};

use crate::{architectures, render_table};

/// The seed every availability run uses (defect placement draws on it).
pub const SEED: u64 = 42;

/// One row of the availability table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Task name.
    pub task: &'static str,
    /// Architecture label.
    pub arch: &'static str,
    /// Fault scenario label.
    pub scenario: &'static str,
    /// Simulated seconds (for abort-and-rerun: aborted run + full rerun).
    pub seconds: f64,
    /// Normalized to the healthy run of the same (task, arch) point.
    pub slowdown: f64,
    /// Fault events that struck.
    pub faults: u64,
}

/// A fault scenario: a label plus the plan/policy it runs under, built
/// from the healthy elapsed time of the point it applies to.
struct Scenario {
    label: &'static str,
    policy: RecoveryPolicy,
    /// Abort-and-rerun scenarios add the healthy elapsed time on top of
    /// the aborted run (the query restarts from scratch on the survivors'
    /// next maintenance window).
    rerun: bool,
    /// Fraction of the healthy elapsed time at which the fault strikes —
    /// the fork boundary of the shared prefix run.
    frac: f64,
    plan: fn(f64) -> FaultPlan,
}

impl Scenario {
    /// The scenario's from-scratch simulation on `arch`, with faults
    /// timed from the point's healthy elapsed seconds `healthy`.
    fn sim(&self, arch: &Architecture, healthy: f64) -> Simulation {
        Simulation::new(arch.clone())
            .with_seed(SEED)
            .with_fault_plan((self.plan)(healthy))
            .with_recovery(self.policy)
    }
}

/// The fault scenarios, each a function of the healthy elapsed seconds.
/// Ordered by fault fraction so the shared prefix run pauses at each
/// boundary exactly once on its way forward.
fn scenarios() -> Vec<Scenario> {
    fn at(frac: f64, healthy: f64) -> Duration {
        Duration::from_secs_f64(healthy * frac)
    }
    vec![
        Scenario {
            label: "media-burst@25%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.25,
            plan: |h| FaultPlan::new().media_burst(1, at(0.25, h), 2_000),
        },
        Scenario {
            label: "disk-fail@50%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.50,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.50, h)),
        },
        Scenario {
            label: "disk-fail@50%/reconstruct",
            policy: RecoveryPolicy::ReconstructRead,
            rerun: false,
            frac: 0.50,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.50, h)),
        },
        Scenario {
            label: "disk-fail@50%/abort+rerun",
            policy: RecoveryPolicy::FailStop,
            rerun: true,
            frac: 0.50,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.50, h)),
        },
        Scenario {
            label: "media-burst@50%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.50,
            plan: |h| FaultPlan::new().media_burst(1, at(0.50, h), 2_000),
        },
        Scenario {
            label: "link-fault@50%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.50,
            plan: |h| FaultPlan::new().link_fault(1, at(0.50, h), 0.5),
        },
        Scenario {
            label: "disk-fail@75%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.75,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.75, h)),
        },
        Scenario {
            label: "disk-fail@75%/reconstruct",
            policy: RecoveryPolicy::ReconstructRead,
            rerun: false,
            frac: 0.75,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.75, h)),
        },
        Scenario {
            label: "disk-fail@75%/abort+rerun",
            policy: RecoveryPolicy::FailStop,
            rerun: true,
            frac: 0.75,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.75, h)),
        },
        Scenario {
            label: "media-burst@75%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.75,
            plan: |h| FaultPlan::new().media_burst(1, at(0.75, h), 2_000),
        },
        Scenario {
            label: "link-fault@75%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.75,
            plan: |h| FaultPlan::new().link_fault(1, at(0.75, h), 0.5),
        },
        Scenario {
            label: "disk-fail@90%",
            policy: RecoveryPolicy::Redistribute,
            rerun: false,
            frac: 0.90,
            plan: |h| FaultPlan::new().disk_fail_stop(1, at(0.90, h)),
        },
    ]
}

/// How much simulation the sweep actually performed (fork-path
/// accounting, asserted by test: the healthy prefix re-runs once per
/// point, never once per scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounts {
    /// Shared healthy-prefix runs (at most one per (arch, task) point;
    /// zero when every scenario of the point was cached).
    pub prefix_runs: u64,
    /// Forked fault-scenario continuations simulated (cache misses).
    pub forked_runs: u64,
}

/// Runs the availability sweep for `disks`-node configurations of every
/// architecture over `tasks` via fork-at-fault-time.
pub fn run_configs(disks: usize, tasks: &[TaskKind]) -> Vec<Row> {
    run_configs_counting(disks, tasks).0
}

/// [`run_configs`] plus the simulated-run accounting.
///
/// The healthy baselines come first (their elapsed times parameterize
/// the fault schedules and are the `healthy` rows). Then, per point, one
/// shared prefix run pauses at each fault fraction and forks a
/// continuation per uncached scenario; each continuation is
/// field-identical to a from-scratch faulted run and is cached under the
/// same key [`run_configs_scratch`] would use.
pub fn run_configs_counting(disks: usize, tasks: &[TaskKind]) -> (Vec<Row>, RunCounts) {
    let (points, healthy) = healthy_points(disks, tasks);
    let scens = scenarios();
    let indices: Vec<usize> = (0..points.len()).collect();
    let per_point: Vec<(Vec<Row>, RunCounts)> = howsim::sweep::map(&indices, |&ix| {
        let (arch, task) = &points[ix];
        run_point(arch, *task, &healthy[ix], &scens)
    });

    let mut rows = Vec::with_capacity(points.len() * (1 + scens.len()));
    let mut counts = RunCounts::default();
    for (point_rows, c) in per_point {
        rows.extend(point_rows);
        counts.prefix_runs += c.prefix_runs;
        counts.forked_runs += c.forked_runs;
    }
    (rows, counts)
}

/// The sweep's (arch, task) points, task-major, and each point's healthy
/// report, served through the result cache.
fn healthy_points(
    disks: usize,
    tasks: &[TaskKind],
) -> (Vec<(Architecture, TaskKind)>, Vec<Report>) {
    let points: Vec<(Architecture, TaskKind)> = tasks
        .iter()
        .flat_map(|&task| architectures(disks).map(|arch| (arch, task)))
        .collect();
    let healthy = howsim::sweep::map(&points, |(arch, task)| {
        let sim = Simulation::new(arch.clone()).with_seed(SEED);
        howsim::cache::run_sim(&sim, &plan_task(*task, arch))
    });
    (points, healthy)
}

/// One (arch, task) point of the fork-path sweep: the healthy row plus
/// every fault scenario, sharing a single healthy prefix run.
fn run_point(
    arch: &Architecture,
    task: TaskKind,
    healthy: &Report,
    scens: &[Scenario],
) -> (Vec<Row>, RunCounts) {
    debug_assert!(
        scens.windows(2).all(|w| w[0].frac <= w[1].frac),
        "sorted by frac"
    );
    let plan = plan_task(task, arch);
    let h_secs = healthy.elapsed().as_secs_f64();
    let mut prefix = None;
    let mut counts = RunCounts::default();
    let reports: Vec<Report> = scens
        .iter()
        .map(|s| {
            howsim::cache::run_sim_with(&s.sim(arch, h_secs), &plan, || {
                // One shared prefix run, started on the point's first
                // miss and paused at each fault fraction in turn
                // (scenarios are sorted by fraction). Each fork swaps in
                // its scenario's fault plan and recovery policy; the
                // prefix itself never consumes fault state, so the swap
                // is exact.
                let prefix = prefix.get_or_insert_with(|| {
                    counts.prefix_runs = 1;
                    Simulation::new(arch.clone()).with_seed(SEED).start(&plan)
                });
                prefix.run_until(SimTime::ZERO + Duration::from_secs_f64(h_secs * s.frac));
                counts.forked_runs += 1;
                prefix.fork_with_faults((s.plan)(h_secs), s.policy).finish()
            })
        })
        .collect();
    (point_rows(arch, task, h_secs, scens, &reports), counts)
}

/// One point's rows: the healthy row, then one per scenario from its
/// report (`reports` in scenario order).
fn point_rows(
    arch: &Architecture,
    task: TaskKind,
    h_secs: f64,
    scens: &[Scenario],
    reports: &[Report],
) -> Vec<Row> {
    let name = arch.short_name();
    let mut rows = Vec::with_capacity(1 + scens.len());
    rows.push(Row {
        task: task.name(),
        arch: name,
        scenario: "healthy",
        seconds: h_secs,
        slowdown: 1.0,
        faults: 0,
    });
    for (s, r) in scens.iter().zip(reports) {
        debug_assert_eq!(r.aborted, s.rerun, "{name}/{}/{}", task.name(), s.label);
        let secs = r.elapsed().as_secs_f64() + if s.rerun { h_secs } else { 0.0 };
        rows.push(Row {
            task: task.name(),
            arch: name,
            scenario: s.label,
            seconds: secs,
            slowdown: secs / h_secs,
            faults: r.faults_injected,
        });
    }
    rows
}

/// The pre-fork reference implementation: every fault scenario simulated
/// from t=0 through the result cache. Kept as the differential baseline
/// (fork-path rows must be field-identical) and as the benchmark's
/// scratch side.
pub fn run_configs_scratch(disks: usize, tasks: &[TaskKind]) -> Vec<Row> {
    let (points, healthy) = healthy_points(disks, tasks);
    let scens = scenarios();
    let faulted: Vec<(Simulation, TaskPlan)> = points
        .iter()
        .zip(&healthy)
        .flat_map(|((arch, task), h)| {
            let plan = plan_task(*task, arch);
            let h_secs = h.elapsed().as_secs_f64();
            scens
                .iter()
                .map(move |s| (s.sim(arch, h_secs), plan.clone()))
        })
        .collect();
    let reports = howsim::sweep::map(&faulted, |(sim, plan)| howsim::cache::run_sim(sim, plan));
    points
        .iter()
        .zip(&healthy)
        .zip(reports.chunks(scens.len()))
        .flat_map(|(((arch, task), h), reports)| {
            point_rows(arch, *task, h.elapsed().as_secs_f64(), &scens, reports)
        })
        .collect()
}

/// Runs the default availability table (16 disks; select, sort, join).
pub fn run() -> Vec<Row> {
    run_configs(16, &[TaskKind::Select, TaskKind::Sort, TaskKind::Join])
}

/// Renders the availability experiment.
pub fn render(rows: &[Row]) -> String {
    let header: Vec<String> = ["task", "arch", "scenario", "seconds", "slowdown", "faults"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.task.to_string(),
                r.arch.to_string(),
                r.scenario.to_string(),
                format!("{:.1}", r.seconds),
                format!("{:.2}x", r.slowdown),
                r.faults.to_string(),
            ]
        })
        .collect();
    render_table(
        "Extension: degraded-mode availability (faults injected mid-query; \
         slowdown vs the healthy run of the same point)",
        &header,
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redistribute_beats_abort_and_rerun() {
        let rows = run_configs(8, &[TaskKind::Sort]);
        let pick = |arch: &str, scenario: &str| -> &Row {
            rows.iter()
                .find(|r| r.arch == arch && r.scenario == scenario)
                .unwrap()
        };
        for arch in ["Active", "Cluster", "SMP"] {
            let healthy = pick(arch, "healthy");
            let redist = pick(arch, "disk-fail@50%");
            let rerun = pick(arch, "disk-fail@50%/abort+rerun");
            assert!((healthy.slowdown - 1.0).abs() < 1e-9);
            if arch != "SMP" {
                // The SMP stripes every read over the whole array, so a
                // mid-merge disk loss restripes over survivors at almost
                // no cost — its redistribute slowdown can be ~1.0. The
                // per-node-partitioned architectures must pay.
                assert!(
                    redist.slowdown > 1.0,
                    "{arch}: losing a disk must cost time, got {:.3}x",
                    redist.slowdown
                );
            }
            assert!(
                redist.slowdown > 0.999,
                "{arch}: recovery cannot beat healthy, got {:.3}x",
                redist.slowdown
            );
            assert!(
                rerun.slowdown > redist.slowdown,
                "{arch}: abort+rerun ({:.2}x) should be worse than \
                 redistribute ({:.2}x)",
                rerun.slowdown,
                redist.slowdown
            );
            assert_eq!(redist.faults, 1);
        }
    }

    #[test]
    fn every_scenario_emits_one_row_per_point() {
        let rows = run_configs(4, &[TaskKind::Select]);
        // 3 architectures × (1 healthy + 12 fault scenarios).
        assert_eq!(rows.len(), 3 * 13);
        assert!(rows.iter().all(|r| r.seconds > 0.0 && r.slowdown > 0.0));
        // Media bursts and link faults degrade without killing anything.
        for r in rows.iter().filter(|r| r.scenario == "media-burst@25%") {
            assert!(r.slowdown >= 1.0, "{}: {}", r.arch, r.slowdown);
        }
    }

    #[test]
    fn fork_path_matches_scratch_and_shares_the_prefix() {
        let _guard = crate::CACHE_TOGGLE_LOCK.lock().unwrap();
        // Unique config (2 disks, Aggregate) so this test's cache keys are
        // cold regardless of what the other tests have populated.
        let (rows, counts) = run_configs_counting(2, &[TaskKind::Aggregate]);
        // The healthy prefix simulated exactly once per (arch, task)
        // point — not once per scenario.
        assert_eq!(counts.prefix_runs, 3, "one shared prefix per point");
        assert_eq!(counts.forked_runs, 3 * 12, "one fork per scenario");
        // Field-identical to actually simulating every scenario from
        // t=0: the cache is disabled for the scratch pass so nothing is
        // served from the entries the fork path inserted.
        howsim::cache::set_enabled(false);
        let scratch = run_configs_scratch(2, &[TaskKind::Aggregate]);
        howsim::cache::set_enabled(true);
        assert_eq!(rows, scratch);
        // Re-running the fork path is all cache hits: no prefix re-run.
        let (again, recounts) = run_configs_counting(2, &[TaskKind::Aggregate]);
        assert_eq!(again, rows);
        assert_eq!(recounts, RunCounts::default());
    }
}
