//! The simulator's steady state asks the allocator for nothing per
//! request: a healthy event loop past its warm-up allocates almost never;
//! the calendar wheel's push/pop churn, a disabled span arena's record
//! path, and a degraded machine's reads, writes and recovery reads
//! allocate not at all.
//!
//! Allocations are counted per thread by this binary's global allocator,
//! because the test harness runs tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arch::Architecture;
use howsim::machine::Machine;
use howsim::{RecoveryPolicy, Simulation};
use simcore::span::{SpanArena, SpanId, SpanKind};
use simcore::{EventQueue, QueueBackend, SimTime, SplitMix64};
use tasks::{plan_task, TaskKind};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations on the
/// calling thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The counter sees allocations when they happen, so the zero counts
/// below are not vacuous.
#[test]
fn counter_sees_allocations() {
    let (_, n) = counted(|| std::hint::black_box(vec![1u8; 4096]));
    assert!(n >= 1, "expected at least one allocation, saw {n}");
}

/// Steady-state churn on the calendar wheel performs zero heap
/// allocations: every slot comes from the freelist the warm-up phase
/// populated.
#[test]
fn arena_wheel_steady_state_allocates_nothing() {
    let mut rng = SplitMix64::new(7);
    let mut q = EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, 512);
    let mut t = 0u64;
    // Warm up: reach steady depth and let every bucket, slab and
    // scratch buffer grow to its working size.
    for i in 0..512u64 {
        q.push(SimTime::from_nanos(t + rng.next_below(1 << 22)), i);
    }
    for i in 0..20_000u64 {
        let (now, _) = q.pop().expect("queue stays full");
        t = now.as_nanos();
        q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
    }
    let (_, n) = counted(|| {
        let mut sum = 0u64;
        for i in 0..20_000u64 {
            let (now, e) = q.pop().expect("queue stays full");
            t = now.as_nanos();
            sum = sum.wrapping_add(e);
            q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
        }
        sum
    });
    assert_eq!(n, 0, "the wheel allocated {n} times in steady state");
}

/// With tracing off, the span record path retains and allocates
/// nothing: the whole subsystem costs one branch per site.
#[test]
fn tracing_off_allocates_nothing() {
    let mut arena = SpanArena::disabled();
    let (len, n) = counted(|| {
        for i in 0..1_000_000u64 {
            arena.record(
                SpanId::NONE,
                "disk_media",
                SpanKind::DiskRead,
                0,
                SimTime::ZERO,
                SimTime::from_nanos(i),
                i,
            );
        }
        arena.len()
    });
    assert_eq!(len, 0, "disabled arena must retain nothing");
    assert_eq!(n, 0, "disabled span arena must not allocate");
}

fn architectures(disks: usize) -> [Architecture; 3] {
    [
        Architecture::active_disks(disks),
        Architecture::cluster(disks),
        Architecture::smp(disks),
    ]
}

#[test]
fn a_healthy_run_past_its_midpoint_allocates_at_most_twice_per_thousand_events() {
    for arch in architectures(16) {
        for task in TaskKind::ALL {
            let plan = plan_task(task, &arch);
            let sim = Simulation::new(arch.clone());
            let whole = sim.run_plan(&plan);
            let mut run = sim.start(&plan);
            run.run_until(SimTime::ZERO + whole.elapsed() / 2);
            let at_half = run.events_so_far();
            let (report, allocs) = counted(|| run.finish());
            assert_eq!(report, whole, "{arch:?} {task:?}");
            let events = report.events - at_half;
            assert!(
                allocs * 1_000 <= 2 * events,
                "{} {}: {allocs} allocations over {events} events",
                arch.short_name(),
                task.name()
            );
        }
    }
}

#[test]
fn a_degraded_machine_reads_writes_and_recovers_without_allocating() {
    const BATCH: u64 = 256 * 1024;
    for arch in architectures(16) {
        for policy in [
            RecoveryPolicy::Redistribute,
            RecoveryPolicy::ReconstructRead,
        ] {
            for phase_writes in [false, true] {
                let mut m = Machine::new(&arch);
                m.begin_phase(0);
                m.fail_disk(5, SimTime::ZERO);
                m.fail_disk(12, SimTime::ZERO);
                let mut t = SimTime::ZERO;
                let mut step = |m: &mut Machine, i: u64| {
                    let node = [0, 3, 8, 15][(i % 4) as usize];
                    t = m.read(node, t, BATCH, 0, phase_writes);
                    t = m.write(node, t, BATCH, 0, phase_writes);
                    let consumer = [5, 12, 1][(i % 3) as usize];
                    t = m.recovery_read(policy, consumer, t, BATCH, 0, phase_writes);
                };
                // The first calls may grow per-tag tables and cache
                // segment lists; after that nothing may allocate.
                for i in 0..32 {
                    step(&mut m, i);
                }
                let ((), allocs) = counted(|| {
                    for i in 32..232 {
                        step(&mut m, i);
                    }
                });
                assert_eq!(
                    allocs,
                    0,
                    "{} under {} (phase writes: {phase_writes})",
                    arch.short_name(),
                    policy.name()
                );
            }
        }
    }
}
