//! Criterion benchmark harness crate; see the `benches/` directory.
//!
//! The library half hosts [`CountingAlloc`], an allocation-counting
//! wrapper around the system allocator. Binaries that want per-thread
//! allocation counts register it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bench::CountingAlloc = bench::CountingAlloc;
//! ```
//!
//! and then measure with [`count_allocs`]. `micro_queue` uses this to
//! report allocations/event for each queue backend and to prove the
//! arena wheel's steady state performs **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts allocations per thread.
///
/// Counting uses `thread_local` cells accessed via `try_with`, so
/// allocations made while thread-local storage is being constructed or
/// torn down are served correctly (they just go uncounted). `dealloc`
/// is not counted: the interesting signal for a steady-state event
/// loop is how often it asks the allocator for new memory.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + grown));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations performed on this thread since it started.
pub fn allocs_so_far() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes requested from the allocator on this thread since it started.
pub fn alloc_bytes_so_far() -> u64 {
    ALLOC_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Run `f` and return its result together with the number of heap
/// allocations it performed on the current thread.
///
/// Only meaningful in a binary that registered [`CountingAlloc`] as its
/// `#[global_allocator]`; otherwise the count is always zero.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs_so_far();
    let out = f();
    (out, allocs_so_far() - before)
}

#[cfg(test)]
mod tests {
    use simcore::{EventQueue, QueueBackend, SimTime, SplitMix64};

    #[global_allocator]
    static ALLOC: super::CountingAlloc = super::CountingAlloc;

    /// Steady-state churn on the arena-backed wheel performs zero heap
    /// allocations: every slot comes from the freelist the warm-up
    /// phase populated.
    #[test]
    fn arena_wheel_steady_state_allocates_nothing() {
        let mut rng = SplitMix64::new(7);
        let mut q = EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, 512);
        let mut t = 0u64;
        // Warm up: reach steady depth and let every bucket, slab,
        // and scratch buffer grow to its working size.
        for i in 0..512u64 {
            q.push(SimTime::from_nanos(t + rng.next_below(1 << 22)), i);
        }
        for i in 0..20_000u64 {
            let (now, _) = q.pop().expect("queue stays full");
            t = now.as_nanos();
            q.push(SimTime::from_nanos(t + 1 + rng.next_below(1 << 22)), i);
        }
        // Steady state: churn must be allocation-free.
        let (_, n) = super::count_allocs(|| {
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

    /// The counter itself observes allocations when they do happen.
    #[test]
    fn counter_sees_allocations() {
        let (_, n) = super::count_allocs(|| std::hint::black_box(vec![1u8; 4096]));
        assert!(n >= 1, "expected at least one allocation, saw {n}");
    }
}
