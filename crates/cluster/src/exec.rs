//! Deterministic parallel execution over scoped threads.
//!
//! Both helpers guarantee the same observable result as a serial run:
//! work items are independent, results land in input order, and all
//! cross-item aggregation happens in the (serial) caller. Only the
//! *timing* varies with `jobs`, never the output.
//!
//! The two schedule differently. [`parallel_map`]'s workers pull items
//! off a shared atomic counter, so long and short items (whole
//! experiment runs) mix freely. [`for_each_mut`] hands each worker one
//! contiguous chunk of its slice, fixed before any item runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `jobs` worker threads, returning
/// results in input order. `f` receives the item's index alongside the
/// item, so callers can seed per-item RNGs deterministically.
///
/// `jobs <= 1` (or a single item) runs serially on the caller's
/// thread; the output is identical either way.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker thread.
///
/// # Example
///
/// ```
/// let serial: Vec<u64> = (0u64..32).map(|x| x * x).collect();
/// let parallel = cluster::exec::parallel_map(4, (0u64..32).collect(), |_, x| x * x);
/// assert_eq!(parallel, serial);
/// ```
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Each slot is taken exactly once (the atomic counter hands every
    // index to exactly one worker), so the Mutexes never contend.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("no poisoned slot")
                    .take()
                    .expect("each index is handed out once");
                let r = f(i, item);
                *results[i].lock().expect("no poisoned result") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned result")
                .expect("every index was processed")
        })
        .collect()
}

/// Runs `f` on every element of `items` in place, splitting the slice
/// into contiguous chunks across up to `jobs` threads. `f` receives
/// each element's index in the full slice.
///
/// Used by [`crate::fleet::Fleet`] to advance all hosts one control
/// epoch concurrently: each host is touched by exactly one thread, and
/// the caller aggregates afterwards in index order.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker thread.
///
/// # Example
///
/// ```
/// let mut xs = vec![1u64, 2, 3, 4, 5];
/// cluster::exec::for_each_mut(2, &mut xs, |i, x| *x += i as u64);
/// assert_eq!(xs, vec![1, 3, 5, 7, 9]);
/// ```
pub fn for_each_mut<T, F>(jobs: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (c, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (off, item) in slice.iter_mut().enumerate() {
                    f(c * chunk + off, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_serial_for_any_job_count() {
        let work = |i: usize, x: u64| -> u64 { x.wrapping_mul(31).wrapping_add(i as u64) };
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(1, items.clone(), work);
        for jobs in [2, 3, 4, 8, 100, 1000] {
            assert_eq!(
                parallel_map(jobs, items.clone(), work),
                serial,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(parallel_map(4, vec![7], |_, x: u32| x + 1), vec![8]);
    }

    #[test]
    fn for_each_mut_touches_every_index_once() {
        let mut hits = vec![0u32; 23];
        for_each_mut(4, &mut hits, |_, h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));

        let mut tagged = vec![0usize; 23];
        for_each_mut(5, &mut tagged, |i, t| *t = i);
        assert_eq!(tagged, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn results_keep_input_order() {
        // Make early items slow so completion order inverts input order.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(8, items, |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, (0..16).collect::<Vec<u64>>());
    }
}
