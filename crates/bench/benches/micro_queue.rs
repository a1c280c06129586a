//! Head-to-head microbenchmarks of the event-queue backends: the
//! arena-backed calendar wheel (default), the sharded wheel at one and
//! four shards, and the binary heap they replaced.
//!
//! All backends run the same workloads so a single report shows the
//! wheel's advantage (or any regression) directly:
//!
//! - `push_pop_10k`: bulk load of uniformly random timestamps followed
//!   by a full drain — the worst case for the wheel's bucket sort.
//! - `steady_churn_depth_512`: the executor's working regime — a queue
//!   held at steady-state depth while events churn through an advancing
//!   window of disk-service-time-scale delays, spread across many
//!   wheel buckets. This is where the wheel's O(1) bucket indexing
//!   pays off over the heap's O(log n) sift.
//! - `narrow_churn_depth_512`: the wheel's adversarial regime — the
//!   same churn squeezed into a window narrower than one bucket, so
//!   every event lands in the same bucket and the wheel degrades to
//!   its lazy in-bucket sort.
//! - `executor_spread_depth_512`: the scale-out executor's measured
//!   scheduling distances (the histogram in `simcore::queue`'s module
//!   docs, 4.6 µs to 257 s), so 95.3% of events land within the
//!   wheel's ≈ 4.3 s horizon and a 4.7% tail takes the overflow heap
//!   and migrates back.
//! - `far_horizon_5k`: events past the wheel's span, exercising the
//!   overflow heap and bucket migration.
//!
//! Before the criterion runs, the harness prints an allocations/event
//! table for the steady-churn workload (this binary registers
//! [`bench::CountingAlloc`]): every backend's steady state performs
//! zero heap allocations at constant depth — the arena wheel reaches
//! that without ever freeing a slot back to the allocator, recycling
//! them through its freelist instead.
//!
//! End-to-end scheduler cost on a real workload is measured separately
//! by `sweep_bench` (the 64-disk cluster join in `BENCH_PR6.json`).

use criterion::{criterion_group, Criterion};
use simcore::{EventQueue, QueueBackend, SimTime, SplitMix64};
use std::hint::black_box;

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc;

const BACKENDS: [(QueueBackend, &str); 4] = [
    (QueueBackend::CalendarWheel, "wheel"),
    (QueueBackend::ShardedWheel { shards: 1 }, "sharded1"),
    (QueueBackend::ShardedWheel { shards: 4 }, "sharded4"),
    (QueueBackend::BinaryHeap, "heap"),
];

fn push_pop_10k(c: &mut Criterion) {
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_push_pop_10k"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(1);
                let mut q = EventQueue::with_backend(backend);
                for i in 0..10_000u64 {
                    q.push(SimTime::from_nanos(rng.next_below(1 << 30)), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
}

/// Steady-state churn at depth 512 with delays drawn by `delay`.
fn churn(c: &mut Criterion, label: &str, delay: fn(&mut SplitMix64) -> u64) {
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_{label}_depth_512"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(2);
                let mut q = EventQueue::with_backend_capacity(backend, 512);
                let mut t = 0u64;
                for i in 0..512u64 {
                    q.push(SimTime::from_nanos(t + delay(&mut rng)), i);
                }
                let mut sum = 0u64;
                for i in 0..20_000u64 {
                    let (now, e) = q.pop().expect("queue stays full");
                    t = now.as_nanos();
                    sum = sum.wrapping_add(e);
                    q.push(SimTime::from_nanos(t + 1 + delay(&mut rng)), i);
                }
                black_box(sum)
            })
        });
    }
}

fn steady_churn(c: &mut Criterion) {
    // Delays up to ~4 ms — the scale of disk service times and network
    // transfers, spread across many ~524 µs wheel buckets.
    churn(c, "steady_churn", |rng| rng.next_below(1 << 22));
}

fn narrow_churn(c: &mut Criterion) {
    // Delays up to 1 µs — far narrower than one bucket, so the wheel
    // falls back to sorting a single hot bucket.
    churn(c, "narrow_churn", |rng| rng.next_below(1 << 10));
}

/// The executor's measured scheduling distances on 64–128-disk skewed
/// joins and sorts (`simcore::queue` module docs): per band `[lo, hi)`
/// ns, the pushes per 10 000 that landed in it.
const EXECUTOR_DISTANCES: [(u64, u64, u64); 10] = [
    (4_600, 10_000, 240),
    (10_000, 100_000, 222),
    (100_000, 1_000_000, 416),
    (1_000_000, 10_000_000, 3_065),
    (10_000_000, 100_000_000, 1_225),
    (100_000_000, 537_000_000, 2_757),
    (537_000_000, 4_295_000_000, 1_609),
    (4_295_000_000, 10_000_000_000, 44),
    (10_000_000_000, 100_000_000_000, 416),
    (100_000_000_000, 257_000_000_000, 6),
];

fn executor_spread(c: &mut Criterion) {
    // A band by its measured share, then log-uniform within the band:
    // disk and CPU backlogs push a long tail far past any one service
    // time.
    churn(c, "executor_spread", |rng| {
        let mut r = rng.next_below(10_000);
        for (lo, hi, share) in EXECUTOR_DISTANCES {
            if r < share {
                let (lo, hi) = ((lo as f64).ln(), (hi as f64).ln());
                return (lo + rng.next_f64() * (hi - lo)).exp() as u64;
            }
            r -= share;
        }
        unreachable!("band shares sum to 10 000")
    });
}

fn far_horizon_overflow(c: &mut Criterion) {
    // Events beyond the wheel's horizon land in the overflow heap and
    // migrate into buckets as time advances; this measures that path
    // against the plain heap, which treats all horizons alike.
    for (backend, name) in BACKENDS {
        c.bench_function(&format!("queue/{name}_far_horizon_5k"), |b| {
            b.iter(|| {
                let mut rng = SplitMix64::new(3);
                let mut q = EventQueue::with_backend(backend);
                for i in 0..5_000u64 {
                    // Spread across 2^42 ns ≈ 73 minutes — far past the
                    // wheel's ≈ 4.3 s span.
                    q.push(SimTime::from_nanos(rng.next_below(1 << 42)), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
}

/// Print allocations/event for the steady-churn workload, per backend.
///
/// Warm-up matches the measured window so every arena, bucket, and
/// scratch buffer reaches its working size first; the count that
/// follows is pure steady state.
fn report_allocs_per_event() {
    const EVENTS: u64 = 20_000;
    println!("allocations/event, steady_churn_depth_512 ({EVENTS} events after warm-up):");
    for (backend, name) in BACKENDS {
        let mut rng = SplitMix64::new(2);
        let mut q = EventQueue::with_backend_capacity(backend, 512);
        let mut t = 0u64;
        for i in 0..512u64 {
            q.push(SimTime::from_nanos(t + rng.next_below(1 << 22)), i);
        }
        for i in 0..EVENTS {
            let (now, _) = q.pop().expect("queue stays full");
            t = now.as_nanos();
            q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
        }
        let (_, allocs) = bench::count_allocs(|| {
            let mut sum = 0u64;
            for i in 0..EVENTS {
                let (now, e) = q.pop().expect("queue stays full");
                t = now.as_nanos();
                sum = sum.wrapping_add(e);
                q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
            }
            black_box(sum)
        });
        println!(
            "  {name:<9} {allocs:>6} allocs  ({:.4} allocs/event)",
            allocs as f64 / EVENTS as f64
        );
    }
    println!();
}

criterion_group!(
    benches,
    push_pop_10k,
    steady_churn,
    narrow_churn,
    executor_spread,
    far_horizon_overflow
);

fn main() {
    report_allocs_per_event();
    benches();
}
