//! Deterministic parallel sweep engine.
//!
//! Experiment sweeps run hundreds of independent simulations (Figure 1
//! alone is 96). Each simulation is a pure function of its inputs, so the
//! sweep parallelizes trivially — but the *outputs* must stay in sweep
//! order so tables and CSV files are byte-identical regardless of worker
//! count. [`map`] guarantees exactly that: workers pull job indices from a
//! shared atomic counter and results are reassembled in item order, so
//! `--jobs 1` and `--jobs 8` produce the same bytes, only faster.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be overridden process-wide (`experiments --jobs N` calls
//! [`set_default_jobs`]) or per call with [`map_jobs`].
//!
//! # Example
//!
//! ```
//! let squares = howsim::sweep::map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default worker count; 0 means "auto" (available
/// parallelism).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count for [`map`]. `0` restores
/// the auto default (the machine's available parallelism).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count [`map`] will use: the last [`set_default_jobs`] value,
/// or the machine's available parallelism if unset.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Applies `f` to every item, in parallel across [`default_jobs`] workers,
/// returning the results **in item order**.
///
/// Deterministic by construction: `f` runs on disjoint items with no
/// shared state, and the output vector is assembled by item index, so the
/// result is identical to `items.iter().map(f).collect()` for any worker
/// count.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync + Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_jobs(items, default_jobs(), f)
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`map`] with an explicit worker count.
///
/// # Panics
///
/// Panics if any invocation of `f` panics. The panic is caught per point
/// and re-raised from the calling thread naming the lowest panicked sweep
/// index and its item, so a 300-point sweep that dies on point 217 says
/// so instead of unwinding anonymously through a worker join.
pub fn map_jobs<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync + Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(&items[i])));
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| match run(i) {
                Ok(r) => r,
                Err(p) => panic!(
                    "sweep point {i} (item: {item:?}) panicked: {}",
                    panic_message(p.as_ref())
                ),
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match run(i) {
                            Ok(r) => done.push((i, r)),
                            Err(p) => {
                                // Record and stop pulling work: the sweep
                                // is going to fail, so don't waste cores.
                                let msg = panic_message(p.as_ref());
                                panics.lock().expect("panic list").push((i, msg));
                                break;
                            }
                        }
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("sweep worker thread died") {
                slots[i] = Some(r);
            }
        }
    });
    let panicked = panics.into_inner().expect("panic list");
    if let Some((i, msg)) = panicked.into_iter().min_by_key(|&(i, _)| i) {
        panic!("sweep point {i} (item: {:?}) panicked: {msg}", items[i]);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every sweep job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_jobs(&items, 8, |&x| x * 3);
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_matches_serial_under_uneven_load() {
        // Jobs with wildly different run times still land in order.
        let items: Vec<u64> = (0..40).collect();
        let work = |&x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        assert_eq!(map_jobs(&items, 1, work), map_jobs(&items, 8, work));
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(map_jobs(&empty, 8, |&x| x), Vec::<u32>::new());
        assert_eq!(map_jobs(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = map_jobs(&[1u32, 2, 3], 64, |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "sweep point 4 (item: 4) panicked: boom")]
    fn worker_panics_name_the_point() {
        // Indices are handed out in order, so the lowest panicking index
        // (4) is always the one reported, at any worker count.
        let items: Vec<u32> = (0..8).collect();
        let _ = map_jobs(&items, 2, |&x| {
            assert!(x < 4, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "sweep point 2 (item: 2) panicked: serial boom")]
    fn serial_panics_name_the_point_too() {
        let items: Vec<u32> = (0..4).collect();
        let _ = map_jobs(&items, 1, |&x| {
            assert!(x != 2, "serial boom");
            x
        });
    }
}
