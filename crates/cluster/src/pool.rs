//! The one worker pool. The servers stage, [`run_replications`] and the
//! experiment sweeps all run their independent items through
//! [`for_each`], item `k` on worker `k mod T` with that worker's reused
//! state. A pool started on a pool worker runs inline, so nested
//! parallelism (a sweep, its replications, each run's servers) never
//! multiplies threads: a program runs at most one pool's worth at a time.
//!
//! [`run_replications`]: crate::run_replications

use std::cell::Cell;

thread_local! {
    /// Set on the threads [`for_each`] spawns.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count for `requested` threads: `requested` if nonzero,
/// else a positive `MEMLAT_THREADS`, else the available parallelism; 1
/// on a pool worker, where a nested pool runs inline.
#[must_use]
pub fn threads(requested: usize) -> usize {
    let env = || std::env::var("MEMLAT_THREADS").ok()?.trim().parse().ok();
    if ON_WORKER.get() {
        1
    } else if requested > 0 {
        requested
    } else if let Some(n) = env().filter(|&n| n > 0) {
        n
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Runs `f(workers[k mod T], k, item)` for every item `k`, on
/// `T = workers.len()` threads, or inline when `T = 1` or on a pool
/// worker. Results go in place: pair each input with its output slot.
///
/// # Errors
///
/// Each worker stops at its first failing item; the error of the lowest
/// failing index is returned, at every worker count.
///
/// # Panics
///
/// Panics if `workers` is empty; a panic inside `f` resumes here.
pub fn for_each<S: Send, I: Send, E: Send>(
    workers: &mut [S],
    items: impl IntoIterator<Item = I>,
    f: impl Fn(&mut S, usize, I) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let t = workers.len();
    if t <= 1 || ON_WORKER.get() {
        let state = &mut workers[0];
        let mut items = items.into_iter().enumerate();
        return items.try_for_each(|(k, item)| f(state, k, item));
    }
    let mut lanes: Vec<Vec<(usize, I)>> = (0..t).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        lanes[k % t].push((k, item));
    }
    let f = &f;
    let failed = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(workers)
            .map(|(lane, state)| {
                scope.spawn(move || {
                    ON_WORKER.set(true);
                    let mut lane = lane.into_iter();
                    lane.find_map(|(k, item)| f(state, k, item).err().map(|e| (k, e)))
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .min_by_key(|&(k, _)| k)
    });
    failed.map_or(Ok(()), |(_, e)| Err(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn items_go_round_robin_and_results_land_in_place() {
        for t in [1, 3] {
            let mut workers = vec![Vec::new(); t];
            let mut out = vec![0usize; 10];
            for_each(
                &mut workers,
                out.iter_mut().enumerate(),
                |seen, k, (i, slot)| {
                    assert_eq!(k, i);
                    seen.push(k);
                    *slot = k * k;
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
            assert_eq!(out, (0..10).map(|k| k * k).collect::<Vec<_>>());
            for (w, seen) in workers.iter().enumerate() {
                assert_eq!(*seen, (w..10).step_by(t).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn nested_pools_run_on_at_most_one_pools_threads() {
        // Sweep → replications → servers, each level asking for more
        // threads than the last: only the outer pool may spawn.
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let outer = 3;
        let mut sweep = vec![(); outer];
        for_each(&mut sweep, 0..7, |(), _, _| {
            let mut reps = vec![(); threads(4)];
            for_each(&mut reps, 0..5, |(), _, _| {
                let mut servers = vec![(); threads(8)];
                for_each(&mut servers, 0..6, |(), _, _| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    Ok::<(), ()>(())
                })
            })
        })
        .unwrap();
        let ids = ids.into_inner().unwrap();
        assert!(
            !ids.is_empty() && ids.len() <= outer,
            "{} threads",
            ids.len()
        );
        assert!(!ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn lowest_failing_index_wins_at_every_thread_count() {
        // Items 6 and 9 fail. At 4 threads, worker 2 (items 2, 6, 10)
        // stops at its second item and worker 1 (1, 5, 9) at its third;
        // whichever finishes first, 6 is the run's error.
        for t in [1, 4] {
            let mut workers = vec![0usize; t];
            let err = for_each(&mut workers, 0..12, |ran, k, _| {
                *ran += 1;
                if [6, 9].contains(&k) {
                    Err(k)
                } else {
                    Ok(())
                }
            });
            assert_eq!(err, Err(6), "{t} threads");
            // Each worker stopped at its own first failure.
            if t == 1 {
                assert_eq!(workers, [7]);
            } else {
                assert_eq!(workers, [3, 3, 2, 3]);
            }
        }
    }

    #[test]
    fn memlat_threads_env_override() {
        // Tests share one process; only exercise the override when the
        // ambient environment leaves the variable free to mutate. Other
        // tests that read it meanwhile see another thread count, which
        // changes none of their outputs.
        if std::env::var_os("MEMLAT_THREADS").is_some() {
            return;
        }
        std::env::set_var("MEMLAT_THREADS", "3");
        assert_eq!(threads(0), 3);
        assert_eq!(threads(2), 2);
        // Zero and garbage fall back to auto-detection.
        for bad in ["0", "many"] {
            std::env::set_var("MEMLAT_THREADS", bad);
            assert!(threads(0) >= 1);
        }
        std::env::remove_var("MEMLAT_THREADS");
    }
}
