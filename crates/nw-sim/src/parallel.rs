//! Scoped-thread parallel sweep runner.
//!
//! Topology sweeps, PE-pool design-space exploration and multi-point
//! experiment grids are embarrassingly parallel: every point builds its own
//! platform, so points share nothing and the per-point simulation stays
//! bit-deterministic. [`parallel_map`] fans a work list out over a bounded
//! pool of `std::thread::scope` workers and returns results **in input
//! order**, so a sweep table rendered from the output is byte-identical to
//! the serial loop it replaces.
//!
//! No work queue, channels or external crates: items are dealt round-robin
//! by index (worker `w` takes items `w, w + n_workers, …`), which keeps the
//! schedule deterministic and the implementation dependency-free.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// Default worker-pool size: the `NANOWALL_SWEEP_THREADS` environment
/// variable (read once per process — mutating the environment at runtime is
/// not thread-safe), else the machine's available parallelism. Always at
/// least 1. A caller that wants another size passes it to
/// [`parallel_map_with`]; nothing in the process can change this one.
pub fn sweep_threads() -> usize {
    // nw-analyze: allow(ND03): write-once env cache of the pool-size setting; sweep results
    // return in input order and are independent of the worker count by construction.
    static FROM_ENV: OnceLock<Option<usize>> = OnceLock::new();
    let env = *FROM_ENV.get_or_init(|| {
        std::env::var("NANOWALL_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
    });
    env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning the results in input order.
///
/// `f` runs once per item; panics in a worker propagate to the caller once
/// the scope joins. With `threads <= 1` (or one item) the map degenerates to
/// the plain serial loop.
///
/// # Examples
///
/// ```
/// use nw_sim::parallel_map_with;
///
/// let squares = parallel_map_with(4, (0u64..32).collect(), |x| x * x);
/// assert_eq!(squares[5], 25);
/// assert_eq!(squares.len(), 32);
/// ```
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Slots are pre-addressed by item index so workers never contend on
    // ordering; the mutex only guards slot ownership hand-off.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let slots = &slots;
            let work = &work;
            scope.spawn(move || {
                let mut i = w;
                while i < n {
                    let item = work[i]
                        .lock()
                        .expect("work mutex poisoned")
                        .take()
                        .expect("each item is taken exactly once");
                    let r = f(item);
                    *slots[i].lock().expect("slot mutex poisoned") = Some(r);
                    i += workers;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot mutex poisoned")
                .expect("every slot is filled by its worker")
        })
        .collect()
}

/// [`parallel_map_with`] at the default [`sweep_threads`] pool size.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(sweep_threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map_with(8, (0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map_with(1, items.clone(), |x| x.wrapping_mul(2654435761));
        let parallel = parallel_map_with(4, items, |x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u8> = parallel_map_with(4, Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        let one = parallel_map_with(4, vec![7u8], |x| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn sweep_threads_is_positive() {
        assert!(sweep_threads() >= 1);
    }
}
