//! A std-only scoped worker pool for certification and evaluation sweeps.
//!
//! No crates.io threading runtime is available in this build environment,
//! so parallelism is built from `std::thread::scope` directly: an
//! index-claiming [`parallel_map`] for embarrassingly parallel job lists,
//! and a shared-stack [`WorkQueue`] for branch-and-bound style workloads
//! where workers both produce and consume items (every worker can pop —
//! i.e. steal — any pending box, whoever pushed it).
//!
//! The worker count comes from the `CANOPY_THREADS` environment variable
//! when set (a positive integer; `1` forces sequential execution), and
//! defaults to [`std::thread::available_parallelism`]. Call sites that
//! need a per-call override (e.g. tests comparing thread counts inside
//! one process) pass `Some(n)` instead of consulting the environment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The pool-wide worker count: `CANOPY_THREADS` if set and valid,
/// otherwise the machine's available parallelism (at least 1).
pub fn thread_count() -> usize {
    match std::env::var("CANOPY_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
        Err(_) => None,
    }
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves an optional per-call override against the environment default.
pub fn resolve_threads(override_threads: Option<usize>) -> usize {
    override_threads
        .filter(|&n| n >= 1)
        .unwrap_or_else(thread_count)
}

/// Maps `f` over `items` on up to `threads` scoped workers, preserving
/// input order in the result. Falls back to a plain sequential map when
/// one worker (or one item) makes spawning pointless, so results are
/// identical — bit for bit — at every thread count.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(&mut vec![(); threads.max(1)], items, |(), item| f(item))
}

/// [`parallel_map`] with one caller-owned state per worker — scratch
/// buffers that outlive the call. At most `states.len()` workers run;
/// a sequential map uses `states[0]`. `f`'s result must not depend on
/// which state it was handed.
///
/// # Panics
///
/// Panics if `states` is empty.
pub fn parallel_map_with<S, T, U, F>(states: &mut [S], items: &[T], f: F) -> Vec<U>
where
    S: Send,
    T: Sync,
    U: Send,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = states.len().min(items.len()).max(1);
    if threads <= 1 {
        let state = &mut states[0];
        return items.iter().map(|item| f(state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let (next, f) = (&next, &f);
        let handles: Vec<_> = states[..threads]
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(state, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("pool worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// A shared LIFO work queue with a pending-work counter for termination
/// detection: `pending` counts scheduled-but-unfinished items, so workers
/// exit exactly when the queue is empty *and* nothing is in flight.
pub struct WorkQueue<T> {
    items: Mutex<Vec<T>>,
    pending: AtomicUsize,
}

impl<T: Send> WorkQueue<T> {
    /// A queue seeded with initial work.
    pub fn new(initial: Vec<T>) -> WorkQueue<T> {
        let pending = AtomicUsize::new(initial.len());
        WorkQueue {
            items: Mutex::new(initial),
            pending,
        }
    }

    /// Pops one item, or `None` if the queue is momentarily empty (which
    /// does **not** mean the workload is done — see [`is_done`](Self::is_done)).
    pub fn pop(&self) -> Option<T> {
        self.items.lock().expect("work queue poisoned").pop()
    }

    /// Schedules follow-up items produced while processing a popped item.
    /// Must be called *before* [`complete_one`](Self::complete_one) so the
    /// pending count never understates remaining work.
    pub fn push_children(&self, children: impl IntoIterator<Item = T>) {
        let mut q = self.items.lock().expect("work queue poisoned");
        let mut added = 0;
        for c in children {
            q.push(c);
            added += 1;
        }
        self.pending.fetch_add(added, Ordering::Release);
    }

    /// Marks one popped item as fully processed.
    pub fn complete_one(&self) {
        self.pending.fetch_sub(1, Ordering::Release);
    }

    /// Whether every scheduled item has been fully processed.
    pub fn is_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Runs `process` over the queue on `threads` scoped workers until the
    /// workload drains. `process` handles one item, pushing any follow-up
    /// work through the queue handle it receives, and returns the item's
    /// finished outputs, which are collected (in no particular order).
    pub fn drain<U, F>(self, threads: usize, process: F) -> Vec<U>
    where
        U: Send,
        F: Fn(&WorkQueue<T>, T) -> Vec<U> + Sync,
    {
        let threads = threads.max(1);
        if threads == 1 {
            let mut out = Vec::new();
            while let Some(item) = self.pop() {
                out.extend(process(&self, item));
                self.complete_one();
            }
            return out;
        }
        let mut results: Vec<U> = Vec::new();
        std::thread::scope(|scope| {
            let queue = &self;
            let process = &process;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            match queue.pop() {
                                Some(item) => {
                                    local.extend(process(queue, item));
                                    queue.complete_one();
                                }
                                None => {
                                    if queue.is_done() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().expect("pool worker panicked"));
            }
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Sequential fallback produces the identical result.
        assert_eq!(doubled, parallel_map(&items, 1, |&x| x * 2));
        assert!(parallel_map::<usize, usize, _>(&[], 4, |&x| x).is_empty());
    }

    #[test]
    fn work_queue_drains_recursive_workloads() {
        // Count the leaves of a binary recursion of depth 6 (2^6 = 64),
        // at several thread counts.
        for threads in [1, 2, 4] {
            let queue = WorkQueue::new(vec![0usize]);
            let mut leaves = queue.drain(threads, |q, depth| {
                if depth >= 6 {
                    vec![depth]
                } else {
                    q.push_children([depth + 1, depth + 1]);
                    Vec::new()
                }
            });
            leaves.sort_unstable();
            assert_eq!(leaves.len(), 64, "threads {threads}");
            assert!(leaves.iter().all(|&d| d == 6));
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), thread_count());
    }
}
