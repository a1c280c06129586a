//! Content-addressed simulation result cache.
//!
//! Every simulation is a pure function of `(architecture, plan, seed,
//! fault plan, recovery policy)`, so its
//! [`Report`] can be memoized; a loaded run's [`LoadReport`] likewise,
//! with the workload, admission, and deadline specs in place of the
//! plan. The cache key is that tuple's canonical representation (the
//! `*_key_material` functions). Each entry point serves the entry under
//! its key, or computes the value once and records it there: [`run`],
//! [`run_plan`], [`run_sim`] and [`run_workload`] compute by simulating
//! from scratch, while [`run_sim_with`] and [`run_warm_with`] take the
//! computation from the caller, so a fork path can pass the continuation
//! of a shared prefix and still leave hit, miss and record to the cache.
//!
//! Two tiers, one implementation for both stored types:
//!
//! * **In-memory** (always available, on by default): a process-wide
//!   map from key material to value, so overlapping points across figure
//!   sweeps in one `experiments` invocation simulate once.
//! * **On-disk** (opt-in via [`set_disk_dir`], `--cache` in the
//!   binaries): `<hash>.report` and `<hash>.load` entries under
//!   `results/.simcache/`, named by the key's FNV-1a hash
//!   ([`simcore::state::fnv1a64`]), persist across invocations. Each file
//!   is the shared armor of [`simcore::state`] around an exact-integer
//!   body, stores the full key material and is verified against it on
//!   lookup, and is published atomically; any unreadable, truncated,
//!   bit-flipped, or colliding entry is treated as a miss. Wipe the cache
//!   by deleting the directory.
//!
//! Because cached reports are bit-identical to fresh ones (exact integer
//! serialization, no floats), cache-on and cache-off outputs are
//! byte-identical; callers fan points out through the deterministic
//! [`crate::sweep`] engine, so that holds for any worker count. The
//! event-queue backend is deliberately *not* part of the key: every
//! backend produces identical reports (enforced by test), so they share
//! entries.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use arch::Architecture;
use simcore::state::{self, fnv1a64, intern, StateError, StateReader, StateWriter};
use simcore::{Duration, Histogram, SimTime};
use tasks::{plan_task, TaskKind, TaskPlan};

use crate::exec::Simulation;
use crate::faults::{FaultPlan, RecoveryPolicy};
use crate::mqexec::{LoadReport, QueryOutcome, QueryPhase, QueryStatus};
use crate::report::{PhaseReport, Report};
use crate::workload::{AdmissionPolicy, DeadlinePolicy, WorkloadSpec};

/// On-disk entry schema identifier, bumped on breaking layout changes
/// (v2 added the checksum line and the seed/fault-plan key fields; v3
/// added per-resource wait time to the report `res` lines, so v2
/// entries no longer parse and read as misses).
pub const SCHEMA: &str = "howsim-simcache/v3";

/// On-disk schema for loaded-run entries (`.load` files). Separate from
/// [`SCHEMA`] because [`crate::LoadReport`] has its own layout.
pub const LOAD_SCHEMA: &str = "howsim-loadcache/v1";

/// Lifetime hit/miss counters for the process-wide cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served without simulating.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// The subset of `hits` that came from the on-disk tier.
    pub disk_hits: u64,
}

/// Key material → value.
type Tier<T> = HashMap<String, T>;

struct CacheState {
    enabled: bool,
    disk_dir: Option<PathBuf>,
    reports: Tier<Report>,
    loads: Tier<LoadReport>,
    stats: CacheStats,
}

/// A value the cache memoizes: its on-disk schema and file extension,
/// its exact-integer body codec, and its in-memory tier.
trait Entry: Clone + Sized {
    const SCHEMA: &'static str;
    const EXT: &'static str;
    fn save_state(&self, w: &mut StateWriter);
    fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError>;
    fn tier(st: &mut CacheState) -> &mut Tier<Self>;
}

impl Entry for Report {
    const SCHEMA: &'static str = SCHEMA;
    const EXT: &'static str = "report";

    fn save_state(&self, w: &mut StateWriter) {
        w.str_field("task", self.task);
        w.str_field("arch", self.architecture);
        w.field("disks", self.disks);
        w.field("events", self.events);
        w.field("faults_injected", self.faults_injected);
        w.field("recovery_ns", self.recovery_time.as_nanos());
        w.field("work_redistributed", self.work_redistributed);
        w.flag("aborted", self.aborted);
        w.field("downtime_ns", self.downtime.as_nanos());
        let h = &self.disk_service;
        w.field("hist_total_ns", h.total().as_nanos());
        w.field("hist_max_ns", h.max().as_nanos());
        w.list("hist_buckets", h.bucket_counts());
        w.field("phases", self.phases.len());
        for p in &self.phases {
            p.save_state(w);
        }
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let task = intern(r.field("task")?);
        let architecture = intern(r.field("arch")?);
        let disks = r.num("disks")?;
        let events = r.num("events")?;
        let faults_injected = r.num("faults_injected")?;
        let recovery_time = Duration::from_nanos(r.num("recovery_ns")?);
        let work_redistributed = r.num("work_redistributed")?;
        let aborted = r.flag("aborted")?;
        let downtime = Duration::from_nanos(r.num("downtime_ns")?);
        let total = Duration::from_nanos(r.num("hist_total_ns")?);
        let max = Duration::from_nanos(r.num("hist_max_ns")?);
        let buckets: [u64; 64] = r
            .nums("hist_buckets")?
            .try_into()
            .map_err(|_| StateError::new("hist_buckets: expected 64 counts"))?;
        let disk_service = Histogram::from_raw(buckets, total, max)
            .ok_or_else(|| StateError::new("hist_buckets: counts overflow"))?;
        Ok(Report {
            task,
            architecture,
            disks,
            phases: r.counted("phases", PhaseReport::load_state)?,
            disk_service,
            events,
            faults_injected,
            recovery_time,
            work_redistributed,
            aborted,
            downtime,
        })
    }

    fn tier(st: &mut CacheState) -> &mut Tier<Self> {
        &mut st.reports
    }
}

impl Entry for LoadReport {
    const SCHEMA: &'static str = LOAD_SCHEMA;
    const EXT: &'static str = "load";

    fn save_state(&self, w: &mut StateWriter) {
        w.str_field("arch", self.architecture);
        w.field("disks", self.disks);
        w.str_field("workload", &self.workload);
        w.str_field("admission", &self.admission);
        w.str_field("deadline", &self.deadline);
        w.field("elapsed_ns", self.elapsed.as_nanos());
        w.field("events", self.events);
        w.field("faults_injected", self.faults_injected);
        w.field("work_redistributed", self.work_redistributed);
        w.field("downtime_ns", self.downtime.as_nanos());
        w.field("queries", self.outcomes.len());
        for o in &self.outcomes {
            w.field("query", o.query);
            w.str_field("qtask", o.task.name());
            w.str_field("status", o.status.name());
            w.field("arrival_ns", o.arrival.as_nanos());
            match o.started {
                Some(t) => w.field("started_ns", t.as_nanos()),
                None => w.field("started_ns", "none"),
            }
            w.field("finished_ns", o.finished.as_nanos());
            w.field("retries", o.retries);
            w.field("timeouts", o.timeouts);
            w.field("qevents", o.events);
            w.field("qphases", o.phases.len());
            for p in &o.phases {
                w.named("qphase", p.elapsed.as_nanos(), p.name);
            }
        }
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let architecture = intern(r.field("arch")?);
        let disks = r.num("disks")?;
        let workload = r.field("workload")?.to_string();
        let admission = r.field("admission")?.to_string();
        let deadline = r.field("deadline")?.to_string();
        let elapsed = Duration::from_nanos(r.num("elapsed_ns")?);
        let events = r.num("events")?;
        let faults_injected = r.num("faults_injected")?;
        let work_redistributed = r.num("work_redistributed")?;
        let downtime = Duration::from_nanos(r.num("downtime_ns")?);
        let outcomes = r.counted("queries", |r| {
            let query = r.num("query")?;
            let name = r.field("qtask")?;
            let task = TaskKind::parse(name)
                .ok_or_else(|| StateError::new(format!("qtask: unknown task {name:?}")))?;
            let name = r.field("status")?;
            let status = QueryStatus::parse(name)
                .ok_or_else(|| StateError::new(format!("status: unknown status {name:?}")))?;
            let arrival = SimTime::from_nanos(r.num("arrival_ns")?);
            let started = match r.field("started_ns")? {
                "none" => None,
                ns => Some(SimTime::from_nanos(ns.parse().map_err(|_| {
                    StateError::new(format!("started_ns: bad value {ns:?}"))
                })?)),
            };
            Ok(QueryOutcome {
                query,
                task,
                arrival,
                started,
                finished: SimTime::from_nanos(r.num("finished_ns")?),
                status,
                retries: r.num("retries")?,
                timeouts: r.num("timeouts")?,
                events: r.num("qevents")?,
                phases: r.counted("qphases", |r| {
                    let (ns, name) = r.named("qphase")?;
                    Ok(QueryPhase {
                        name: intern(name),
                        elapsed: Duration::from_nanos(ns),
                    })
                })?,
            })
        })?;
        Ok(LoadReport {
            architecture,
            disks,
            workload,
            admission,
            deadline,
            outcomes,
            elapsed,
            events,
            faults_injected,
            work_redistributed,
            downtime,
        })
    }

    fn tier(st: &mut CacheState) -> &mut Tier<Self> {
        &mut st.loads
    }
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(CacheState {
            enabled: true,
            disk_dir: None,
            reports: HashMap::new(),
            loads: HashMap::new(),
            stats: CacheStats::default(),
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, CacheState> {
    state().lock().expect("cache lock")
}

/// Enables or disables the cache process-wide (`--no-cache` sets false).
/// Disabled, every `run_*` call simulates directly and no stats move.
pub fn set_enabled(on: bool) {
    lock().enabled = on;
}

/// Whether the cache is consulted at all.
pub fn enabled() -> bool {
    lock().enabled
}

/// Sets the on-disk tier directory (`None` keeps the cache
/// memory-only). The binaries' `--cache` flag passes
/// [`default_disk_dir`].
pub fn set_disk_dir(dir: Option<PathBuf>) {
    lock().disk_dir = dir;
}

/// The conventional on-disk cache location, next to the experiment CSVs.
pub fn default_disk_dir() -> PathBuf {
    PathBuf::from("results/.simcache")
}

/// Drops every in-memory entry (the on-disk tier is untouched).
pub fn clear() {
    let mut st = lock();
    st.reports.clear();
    st.loads.clear();
}

/// Lifetime hit/miss counters.
pub fn stats() -> CacheStats {
    lock().stats
}

/// Zeroes the hit/miss counters.
pub fn reset_stats() {
    lock().stats = CacheStats::default();
}

/// The full cache key for one simulation: every input the result depends
/// on, in canonical representation. Hashed with FNV-1a for addressing and
/// stored verbatim for collision-proof verification. The fixed
/// `degraded=[]` field keeps the key bytes of entries written when a
/// pre-run degraded-disk set was part of the key (media bursts are now
/// fault-plan events).
pub fn key_material(
    arch: &Architecture,
    plan: &TaskPlan,
    seed: u64,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
) -> String {
    format!(
        "arch={arch:?} | plan={plan:?} | degraded=[] | seed={seed} | faults={} | recovery={}",
        faults.summary(),
        recovery.name(),
    )
}

fn entry_path<T: Entry>(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.{}", fnv1a64(key.as_bytes()), T::EXT))
}

/// Decodes an on-disk entry: the armor must verify under `T`'s schema
/// and carry exactly `key`, and the body must decode with nothing left
/// over. Anything else is a miss.
fn decode<T: Entry>(text: &str, key: &str) -> Option<T> {
    let (stored, body) = state::open(T::SCHEMA, text)?;
    if stored != key {
        return None; // hash collision with a different config
    }
    let mut r = StateReader::new(body);
    let value = T::load_state(&mut r).ok()?;
    r.expect_done().ok()?;
    Some(value)
}

/// The on-disk bytes of `value` stored under `key`.
fn encode<T: Entry>(value: &T, key: &str) -> String {
    let mut w = StateWriter::new();
    value.save_state(&mut w);
    state::seal(T::SCHEMA, key, &w.finish())
}

/// Looks `key` up in both tiers, counting one hit or one miss.
fn probe<T: Entry>(key: &str) -> Option<T> {
    let disk = {
        let mut st = lock();
        if let Some(found) = T::tier(&mut st).get(key).cloned() {
            st.stats.hits += 1;
            return Some(found);
        }
        st.disk_dir.clone()
    };
    // File I/O happens outside the lock.
    let found = disk.and_then(|dir| {
        let text = fs::read_to_string(entry_path::<T>(&dir, key)).ok()?;
        decode::<T>(&text, key)
    });
    let mut st = lock();
    match found {
        Some(value) => {
            st.stats.hits += 1;
            st.stats.disk_hits += 1;
            T::tier(&mut st).insert(key.to_string(), value.clone());
            Some(value)
        }
        None => {
            st.stats.misses += 1;
            None
        }
    }
}

/// Records a freshly computed value under `key` in both tiers.
fn insert<T: Entry>(key: &str, value: &T) {
    let disk = {
        let mut st = lock();
        T::tier(&mut st).insert(key.to_string(), value.clone());
        st.disk_dir.clone()
    };
    if let Some(dir) = disk {
        // Best effort: a full disk or unwritable directory degrades to
        // memory-only caching rather than failing the sweep.
        let _ = state::publish(&entry_path::<T>(&dir, key), &encode(value, key));
    }
}

/// Serves `key` from the cache, or calls `compute` once and records the
/// result; `compute` alone when the cache is off.
fn memoized<T: Entry>(key: impl FnOnce() -> String, compute: impl FnOnce() -> T) -> T {
    if !enabled() {
        return compute();
    }
    let key = key();
    if let Some(value) = probe(&key) {
        return value;
    }
    let value = compute();
    insert(&key, &value);
    value
}

/// Plans and runs `task` on `arch` through the cache.
pub fn run(arch: &Architecture, task: TaskKind) -> Report {
    run_sim(&Simulation::new(arch.clone()), &plan_task(task, arch))
}

/// Runs an explicit plan on `arch` through the cache.
pub fn run_plan(arch: &Architecture, plan: &TaskPlan) -> Report {
    run_sim(&Simulation::new(arch.clone()), plan)
}

/// The cache key for a configured [`Simulation`] and plan.
pub(crate) fn sim_key(sim: &Simulation, plan: &TaskPlan) -> String {
    key_material(
        sim.architecture(),
        plan,
        sim.seed(),
        sim.fault_plan(),
        sim.recovery_policy(),
    )
}

/// Runs `plan` on a configured [`Simulation`] through the cache (the
/// seed, fault plan, and recovery policy all participate in the key).
pub fn run_sim(sim: &Simulation, plan: &TaskPlan) -> Report {
    run_sim_with(sim, plan, || sim.run_plan(plan))
}

/// [`run_sim`] with the report computed by `compute` on a miss: the
/// availability fork path passes the continuation of a shared healthy
/// prefix. `compute` must return the report `sim.run_plan(plan)` would,
/// since the entry is recorded under [`run_sim`]'s key.
pub fn run_sim_with(sim: &Simulation, plan: &TaskPlan, compute: impl FnOnce() -> Report) -> Report {
    memoized(|| sim_key(sim, plan), compute)
}

/// The full cache key for one loaded run: the single-query key inputs
/// minus the plan (the workload enumerates its tasks) plus the workload,
/// admission, and deadline specs — so two load scenarios can never alias
/// to one entry.
pub fn load_key_material(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> String {
    format!(
        "arch={:?} | degraded=[] | seed={} | faults={} | recovery={} | workload={} | admission={} | deadline={}",
        sim.architecture(),
        sim.seed(),
        sim.fault_plan().summary(),
        sim.recovery_policy().name(),
        workload.summary(),
        admission.summary(),
        deadline.summary(),
    )
}

/// The cache key for a warm-start composite run (a warmup segment run
/// to idle, then `measured` grafted on via [`crate::WarmStart::extend`]):
/// the measured-load key plus the warmup spec, so a composite run can
/// never alias a plain [`run_workload`] entry or a composite with a
/// different ramp-up.
pub fn warm_key_material(
    sim: &Simulation,
    warmup: &WorkloadSpec,
    measured: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> String {
    format!(
        "{} | warmup={}",
        load_key_material(sim, measured, admission, deadline),
        warmup.summary(),
    )
}

/// Runs a warm-start composite (a `warmup` segment run to idle, then
/// `measured` grafted on) through the cache, under
/// [`warm_key_material`]. On a miss `compute` supplies the report: the
/// load sweep forks it off a warm prefix shared by every point of one
/// (architecture, mix) pair, or re-simulates the prefix per point.
/// Either way it must be the report of simulating the composite from
/// t=0, since every caller shares the entry.
pub fn run_warm_with(
    sim: &Simulation,
    warmup: &WorkloadSpec,
    measured: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    compute: impl FnOnce() -> LoadReport,
) -> LoadReport {
    memoized(
        || warm_key_material(sim, warmup, measured, admission, deadline),
        compute,
    )
}

/// Runs a multi-query workload through the cache. The key covers the
/// workload, admission, and deadline specs on top of the simulation
/// config, and cached reports round-trip bit-exactly (all-integer
/// serialization), so cache-on and cache-off outputs are byte-identical.
pub fn run_workload(
    sim: &Simulation,
    workload: &WorkloadSpec,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
) -> LoadReport {
    memoized(
        || load_key_material(sim, workload, admission, deadline),
        || sim.run_workload(workload, admission, deadline),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cache state is process-global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh_cache() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_disk_dir(None);
        clear();
        reset_stats();
        guard
    }

    #[test]
    fn cached_report_is_field_identical_to_fresh() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(4);
        let fresh = Simulation::new(arch.clone()).run(TaskKind::Select);
        let first = run(&arch, TaskKind::Select);
        let second = run(&arch, TaskKind::Select);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn key_separates_configs_and_media_bursts() {
        let _guard = fresh_cache();
        let arch = Architecture::cluster(2);
        let plan = plan_task(TaskKind::Select, &arch);
        let none = FaultPlan::new();
        let policy = RecoveryPolicy::default();
        let base = key_material(&arch, &plan, 0, &none, policy);
        assert_ne!(
            base,
            key_material(&Architecture::cluster(4), &plan, 0, &none, policy)
        );
        assert_ne!(base, key_material(&arch, &plan, 1, &none, policy));
        let failing = FaultPlan::parse_spec("disk:0@1s").unwrap();
        assert_ne!(base, key_material(&arch, &plan, 0, &failing, policy));
        let burst = FaultPlan::parse_spec("slow:0@0s:50").unwrap();
        assert_ne!(base, key_material(&arch, &plan, 0, &burst, policy));
        assert_ne!(
            base,
            key_material(&arch, &plan, 0, &none, RecoveryPolicy::FailStop)
        );
        let degraded = Simulation::new(arch.clone()).with_fault_plan(burst);
        let plain = run_sim(&Simulation::new(arch), &plan);
        let slow = run_sim(&degraded, &plan);
        assert!(slow.elapsed() > plain.elapsed(), "degraded run not shared");
        assert_eq!(stats().misses, 2);
    }

    #[test]
    fn different_seeds_miss_each_other() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(2);
        let plan = plan_task(TaskKind::Select, &arch);
        // Seed matters once faults draw randomized placements from it: two
        // seeds must never share an entry.
        let burst = FaultPlan::parse_spec("slow:0@0s:500").unwrap();
        let a = run_sim(
            &Simulation::new(arch.clone())
                .with_seed(1)
                .with_fault_plan(burst.clone()),
            &plan,
        );
        let b = run_sim(
            &Simulation::new(arch.clone())
                .with_seed(2)
                .with_fault_plan(burst.clone()),
            &plan,
        );
        assert_eq!(stats().misses, 2, "distinct seeds simulate separately");
        assert_eq!(stats().hits, 0);
        // Re-running seed 1 hits its own entry and reproduces its report.
        let a2 = run_sim(
            &Simulation::new(arch).with_seed(1).with_fault_plan(burst),
            &plan,
        );
        assert_eq!(a, a2);
        assert_eq!(stats().hits, 1);
        let _ = b;
    }

    #[test]
    fn fault_plan_and_policy_separate_entries() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Select, &arch);
        let healthy = run_sim(&Simulation::new(arch.clone()), &plan);
        let failing = FaultPlan::parse_spec("disk:1@0.05s").unwrap();
        let redistributed = run_sim(
            &Simulation::new(arch.clone()).with_fault_plan(failing.clone()),
            &plan,
        );
        let aborted = run_sim(
            &Simulation::new(arch)
                .with_fault_plan(failing)
                .with_recovery(RecoveryPolicy::FailStop),
            &plan,
        );
        assert_eq!(stats().misses, 3, "three configs, three entries");
        assert!(!healthy.aborted);
        assert!(redistributed.elapsed() > healthy.elapsed());
        assert!(aborted.aborted);
    }

    #[test]
    fn run_sim_with_computes_each_miss_once() {
        let _guard = fresh_cache();
        let arch = Architecture::smp(2);
        let plan = plan_task(TaskKind::Aggregate, &arch);
        let sim = Simulation::new(arch);
        let mut calls = 0;
        let computed = run_sim_with(&sim, &plan, || {
            calls += 1;
            sim.run_plan(&plan)
        });
        assert_eq!(calls, 1, "a miss computes once");
        assert_eq!(stats().misses, 1);
        // The entry sits under run_sim's key: a plain run is a hit...
        assert_eq!(run_sim(&sim, &plan), computed);
        // ...and a hit never calls `compute`.
        let served = run_sim_with(&sim, &plan, || unreachable!("hit computed"));
        assert_eq!(served, computed);
        let s = stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    /// A warm-start composite's inputs: a 2-disk cluster, a one-query
    /// warmup and a two-query measured segment.
    fn warm_inputs() -> (Simulation, WorkloadSpec, WorkloadSpec) {
        let mix = vec![(TaskKind::Select, 1)];
        (
            Simulation::new(Architecture::cluster(2)),
            WorkloadSpec::closed(1, 1).with_mix(mix.clone()),
            WorkloadSpec::poisson(0.05, 2).with_mix(mix),
        )
    }

    /// Simulates a warm-start composite from t=0, default policies.
    fn warm_scratch(
        sim: &Simulation,
        warmup: &WorkloadSpec,
        measured: &WorkloadSpec,
    ) -> LoadReport {
        let mut run = sim.start_workload(
            warmup,
            AdmissionPolicy::default(),
            DeadlinePolicy::default(),
        );
        run.run_to_idle();
        run.extend(measured);
        run.finish()
    }

    #[test]
    fn run_warm_with_computes_each_miss_once() {
        let _guard = fresh_cache();
        let (sim, warmup, measured) = warm_inputs();
        let (adm, dl) = (AdmissionPolicy::default(), DeadlinePolicy::default());
        let mut calls = 0;
        let computed = run_warm_with(&sim, &warmup, &measured, adm, dl, || {
            calls += 1;
            warm_scratch(&sim, &warmup, &measured)
        });
        assert_eq!(calls, 1, "a miss computes once");
        assert_eq!(stats().misses, 1);
        let served = run_warm_with(&sim, &warmup, &measured, adm, dl, || {
            unreachable!("hit computed")
        });
        assert_eq!(served, computed);
        let s = stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn with_entries_compute_every_time_when_off() {
        let _guard = fresh_cache();
        set_enabled(false);
        let arch = Architecture::active_disks(2);
        let plan = plan_task(TaskKind::Select, &arch);
        let sim = Simulation::new(arch);
        let mut calls = 0;
        for _ in 0..2 {
            run_sim_with(&sim, &plan, || {
                calls += 1;
                sim.run_plan(&plan)
            });
        }
        let (sim, warmup, measured) = warm_inputs();
        let (adm, dl) = (AdmissionPolicy::default(), DeadlinePolicy::default());
        for _ in 0..2 {
            run_warm_with(&sim, &warmup, &measured, adm, dl, || {
                calls += 1;
                warm_scratch(&sim, &warmup, &measured)
            });
        }
        set_enabled(true);
        assert_eq!(calls, 4, "every call computes when the cache is off");
        assert_eq!(stats(), CacheStats::default(), "no stats move when off");
    }

    #[test]
    fn disabled_cache_simulates_directly() {
        let _guard = fresh_cache();
        set_enabled(false);
        let arch = Architecture::active_disks(2);
        let a = run(&arch, TaskKind::Select);
        let b = run(&arch, TaskKind::Select);
        assert_eq!(a, b);
        assert_eq!(stats(), CacheStats::default(), "no stats move when off");
        set_enabled(true);
    }

    #[test]
    fn disk_tier_round_trips_and_rejects_corruption() {
        let _guard = fresh_cache();
        let dir = std::env::temp_dir().join(format!("howsim-simcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::cluster(4);
        let fresh = run(&arch, TaskKind::Sort);
        assert_eq!(stats().misses, 1);
        let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        assert!(entry.to_string_lossy().ends_with(".report"));

        // Drop the memory tier: the next lookup must come from disk.
        clear();
        let warm = run(&arch, TaskKind::Sort);
        assert_eq!(warm, fresh, "disk round trip is field-identical");
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        // A corrupt entry is a miss, not an error or a wrong answer.
        clear();
        fs::write(&entry, "garbage\n").unwrap();
        let recomputed = run(&arch, TaskKind::Sort);
        assert_eq!(recomputed, fresh);
        assert_eq!(stats().misses, 2);

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_entries_are_misses() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-simcache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::active_disks(4);
        let fresh = run(&arch, TaskKind::Select);
        let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let intact = fs::read(&entry).unwrap();

        // Truncation (a crash mid-write on a non-atomic filesystem, or a
        // partial copy): checksum fails, entry is recomputed.
        clear();
        reset_stats();
        fs::write(&entry, &intact[..intact.len() / 2]).unwrap();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 1), "truncated entry must miss");

        // A single flipped bit in the payload: checksum fails.
        clear();
        reset_stats();
        let mut flipped = intact.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs::write(&entry, &flipped).unwrap();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 1), "bit-flipped entry must miss");

        // The rewritten (intact) entry loads again.
        clear();
        reset_stats();
        assert_eq!(run(&arch, TaskKind::Select), fresh);
        let s = stats();
        assert_eq!((s.hits, s.disk_hits, s.misses), (1, 1, 0));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_load_specs_never_alias_one_entry() {
        let _guard = fresh_cache();
        let arch = Architecture::active_disks(2);
        let sim = Simulation::new(arch);
        let mix = vec![(TaskKind::Select, 1)];
        let a_spec = WorkloadSpec::poisson(0.05, 3).with_mix(mix.clone());
        let b_spec = WorkloadSpec::poisson(0.10, 3).with_mix(mix.clone());
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy::default();
        // Every dimension of the load scenario separates keys.
        let base = load_key_material(&sim, &a_spec, adm, dl);
        assert_ne!(base, load_key_material(&sim, &b_spec, adm, dl));
        assert_ne!(
            base,
            load_key_material(&sim, &a_spec.clone().with_seed(9), adm, dl)
        );
        assert_ne!(
            base,
            load_key_material(
                &sim,
                &a_spec,
                AdmissionPolicy {
                    max_concurrent: 1,
                    queue_limit: 0
                },
                dl
            )
        );
        assert_ne!(
            base,
            load_key_material(
                &sim,
                &a_spec,
                adm,
                DeadlinePolicy {
                    deadline: Some(simcore::Duration::from_secs(1)),
                    max_retries: 0,
                    backoff: simcore::Duration::from_secs(1)
                }
            )
        );
        // Two different arrival rates must simulate separately...
        let a = run_workload(&sim, &a_spec, adm, dl);
        let b = run_workload(&sim, &b_spec, adm, dl);
        assert_eq!(stats().misses, 2, "distinct load specs miss each other");
        assert_ne!(a, b, "different arrival schedules, different reports");
        // ...and re-running one hits its own entry bit-exactly.
        let a2 = run_workload(&sim, &a_spec, adm, dl);
        assert_eq!(a, a2);
        assert_eq!(stats().hits, 1);
    }

    #[test]
    fn load_report_round_trips_through_disk_tier() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-loadcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let sim = Simulation::new(Architecture::cluster(2)).with_seed(3);
        let w = WorkloadSpec::closed(2, 4).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy::default();
        let dl = DeadlinePolicy {
            deadline: Some(simcore::Duration::from_secs(600)),
            max_retries: 1,
            backoff: simcore::Duration::from_secs(1),
        };
        let cold = run_workload(&sim, &w, adm, dl);
        assert_eq!(stats().misses, 1);
        assert!(fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .path()
            .to_string_lossy()
            .ends_with(".load")));

        // Drop the memory tier: the next lookup must come from disk,
        // bit-for-bit — per-query outcomes, phases, statuses and all.
        clear();
        let warm = run_workload(&sim, &w, adm, dl);
        assert_eq!(warm, cold, "disk round trip is field-identical");
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_report_round_trips_through_disk_tier() {
        let _guard = fresh_cache();
        let dir =
            std::env::temp_dir().join(format!("howsim-simcache-faults-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_disk_dir(Some(dir.clone()));
        let arch = Architecture::active_disks(4);
        let plan = plan_task(TaskKind::Sort, &arch);
        let sim = Simulation::new(arch)
            .with_seed(7)
            .with_fault_plan(FaultPlan::parse_spec("disk:2@0.1s").unwrap());
        let cold = run_sim(&sim, &plan);
        assert!(cold.faults_injected > 0);
        assert!(cold.recovery_time > simcore::Duration::ZERO);

        // Drop the memory tier: the fault fields must survive the disk
        // round trip bit-for-bit.
        clear();
        let warm = run_sim(&sim, &plan);
        assert_eq!(warm, cold);
        let s = stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));

        set_disk_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_phase_reports_round_trip_bit_exactly() {
        let arch = Architecture::cluster(4);
        let report = Simulation::new(arch).run(TaskKind::Sort);
        assert!(report.phases.len() > 1);
        let text = encode(&report, "k");
        assert_eq!(decode::<Report>(&text, "k"), Some(report.clone()));
        assert_eq!(decode::<Report>(&text, "other key"), None);
        let back = decode::<Report>(&text, "k").unwrap();
        assert_eq!(encode(&back, "k"), text, "serialization is stable");
    }

    /// Valid files of each kind (written by an earlier revision; see
    /// `tests/file_formats.rs`): the seeds every mutation starts from.
    const FILES: [&str; 3] = [
        include_str!("../tests/fixtures/select-active4.report"),
        include_str!("../tests/fixtures/closed3-active4.load"),
        include_str!("../tests/fixtures/select-active4-half.ckpt"),
    ];
    const SCHEMAS: [&str; 3] = [SCHEMA, LOAD_SCHEMA, crate::checkpoint::SCHEMA];

    /// Decodes `text` as file kind `kind` (an index into [`FILES`])
    /// through that kind's one open + decode path, under the
    /// configuration its fixture was written for.
    fn decodes(kind: usize, text: &str) -> bool {
        let arch = Architecture::active_disks(4);
        let sim = Simulation::new(arch.clone());
        let plan = plan_task(TaskKind::Select, &arch);
        match kind {
            0 => decode::<Report>(text, &sim_key(&sim, &plan)).is_some(),
            1 => {
                let w = WorkloadSpec::closed(2, 3)
                    .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)]);
                let key = load_key_material(
                    &sim,
                    &w,
                    AdmissionPolicy::default(),
                    DeadlinePolicy::default(),
                );
                decode::<LoadReport>(text, &key).is_some()
            }
            _ => crate::checkpoint::decode(text, &sim, &plan).is_some(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Bit flips, truncations, splices of two valid files, and
        /// arbitrary bytes decode to nothing unless they spell a valid
        /// file — and never panic.
        #[test]
        fn prop_damaged_files_are_clean_misses(
            kind in 0usize..3,
            damage in 0u8..4,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            donor in 0usize..3,
        ) {
            let file = FILES[kind].as_bytes();
            let bytes: Vec<u8> = match damage {
                0 => {
                    let mut v = file.to_vec();
                    v[(a % file.len() as u64) as usize] ^= 1 << (b % 8);
                    v
                }
                1 => file[..(a % (file.len() as u64 + 1)) as usize].to_vec(),
                2 => {
                    let tail = FILES[donor].as_bytes();
                    let mut v = file[..(a % file.len() as u64) as usize].to_vec();
                    v.extend_from_slice(&tail[(b % tail.len() as u64) as usize..]);
                    v
                }
                _ => {
                    let mut rng = simcore::SplitMix64::new(a);
                    (0..b % 4096).map(|_| rng.next_below(256) as u8).collect()
                }
            };
            // Files are read with `read_to_string`: invalid UTF-8 never
            // reaches a decoder.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                proptest::prop_assert_eq!(
                    decodes(kind, text),
                    text == FILES[kind],
                    "damage {} of file {}",
                    damage,
                    kind
                );
            }
        }

        /// Body edits behind a valid checksum — a number set to
        /// `u64::MAX` or replaced by a non-number, a line dropped or
        /// duplicated — never panic the decoder. Every reader takes
        /// its lines in order, checks each key and ends at the body's
        /// end, so a dropped or duplicated line is always a miss.
        #[test]
        fn prop_resealed_body_edits_never_panic(
            kind in 0usize..3,
            edit in 0u8..4,
            line in 0usize..100_000,
            token in 0usize..100,
        ) {
            let (key, body) = state::open(SCHEMAS[kind], FILES[kind]).expect("valid fixture");
            let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
            let i = line % lines.len();
            match edit {
                0 | 1 => {
                    let mut words: Vec<String> =
                        lines[i].split(' ').map(str::to_string).collect();
                    let numbers: Vec<usize> = (0..words.len())
                        .filter(|&j| words[j].parse::<u64>().is_ok())
                        .collect();
                    if !numbers.is_empty() {
                        let j = numbers[token % numbers.len()];
                        words[j] = if edit == 0 { u64::MAX.to_string() } else { "x".into() };
                    }
                    lines[i] = words.join(" ");
                }
                2 => {
                    lines.remove(i);
                }
                _ => {
                    let dup = lines[i].clone();
                    lines.insert(i, dup);
                }
            }
            let text = state::seal(SCHEMAS[kind], key, &(lines.join("\n") + "\n"));
            let decoded = decodes(kind, &text);
            if edit >= 2 {
                proptest::prop_assert!(!decoded, "edit {} of line {} in file {}", edit, i, kind);
            }
        }
    }

    /// A body that is empty, cut short, or followed by more lines is a
    /// miss even behind a valid checksum: each decoder reads the whole
    /// body and nothing past it.
    #[test]
    fn resealed_bodies_must_be_whole() {
        for kind in 0..3 {
            let (key, body) = state::open(SCHEMAS[kind], FILES[kind]).expect("valid fixture");
            let reseal = |body: &str| state::seal(SCHEMAS[kind], key, body);
            let lines: Vec<&str> = body.lines().collect();
            let half = lines[..lines.len() / 2].join("\n") + "\n";
            let last = lines[lines.len() - 1];
            assert!(decodes(kind, &reseal(body)), "file {kind} re-sealed as is");
            assert!(!decodes(kind, &reseal("")), "file {kind}: empty body");
            assert!(!decodes(kind, &reseal(&half)), "file {kind}: half a body");
            assert!(
                !decodes(kind, &reseal(&format!("{body}{last}\n"))),
                "file {kind}: last line twice"
            );
            assert!(
                !decodes(kind, &reseal(&format!("{body}junk trailing\n"))),
                "file {kind}: junk"
            );
        }
    }
}
