//! A std-only scoped worker pool for certification and evaluation sweeps.
//!
//! No crates.io threading runtime is available in this build environment,
//! so parallelism is built from `std::thread::scope` directly: one
//! index-claiming fork–join, `parallel_map_with` (and its stateless
//! wrapper [`parallel_map`]), in which the calling thread is itself worker
//! zero and only `threads − 1` helpers are spawned. Workers share nothing
//! but the claim counter: each owns its state and its results, so there is
//! no queue, no lock and no cross-thread free. Workloads that grow as they
//! run (branch-and-bound refinement) fork once over coarse items and let
//! each worker run its item to exhaustion.
//!
//! The worker count comes from the `CANOPY_THREADS` environment variable
//! when set (a positive integer; `1` forces sequential execution), and
//! defaults to [`std::thread::available_parallelism`]. Call sites that
//! need a per-call override (e.g. tests comparing thread counts inside
//! one process) pass `Some(n)` instead of consulting the environment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `CANOPY_THREADS` as the environment states it: `Ok(None)` when unset,
/// the worker count when it is a positive integer, and an error naming the
/// value otherwise. Binaries report the error; `thread_count` falls back
/// to the machine's parallelism.
pub fn env_threads() -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os("CANOPY_THREADS") else {
        return Ok(None);
    };
    let value = raw.to_string_lossy();
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("CANOPY_THREADS: bad value `{value}`")),
    }
}

/// The pool-wide worker count: `CANOPY_THREADS` if set and valid,
/// otherwise the machine's available parallelism (at least 1). The
/// variable is read on every call; the machine's parallelism once per
/// process, since [`std::thread::available_parallelism`] reads the cgroup
/// quota files each time it is asked.
pub(crate) fn thread_count() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    env_threads().ok().flatten().unwrap_or_else(|| {
        *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
/// buffers that outlive the call. At most `states.len()` workers run:
/// the calling thread works on `states[0]` and one scoped helper is
/// spawned per further state, so a fan-out costs `threads − 1` spawns and
/// a sequential map none. `f`'s result must not depend on which state it
/// was handed.
///
/// # Panics
///
/// Panics if `states` is empty.
pub(crate) fn parallel_map_with<S, T, U, F>(states: &mut [S], items: &[T], f: F) -> Vec<U>
where
    S: Send,
    T: Sync,
    U: Send,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = states.len().min(items.len()).max(1);
    // Every caller passes at least one: `parallel_map` sizes its states
    // `threads.max(1)`, the plan and the adaptive verifier a
    // `resolve_threads` count, which is never 0.
    let (caller, helpers) = states[..threads]
        .split_first_mut()
        .expect("callers pass at least one worker state");
    if helpers.is_empty() {
        return items.iter().map(|item| f(caller, item)).collect();
    }
    // Relaxed: the counter only hands out indices; results are published
    // by the joins.
    let next = AtomicUsize::new(0);
    let work = |state: &mut S| {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break local;
            }
            local.push((i, f(state, &items[i])));
        }
    };
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        let mut indexed = work(caller);
        // A worker that panicked re-raises its own panic here, so the
        // caller sees `f`'s message rather than a second one.
        for h in handles {
            indexed.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        indexed
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
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

    /// Two items meet on a barrier, so each must run on its own thread:
    /// one of them is the caller's, and no more threads than states run.
    #[test]
    fn the_calling_thread_is_a_worker() {
        use std::collections::HashSet;
        use std::sync::Barrier;

        let barrier = Barrier::new(2);
        let mut states = [0usize; 2];
        let ran_on = parallel_map_with(&mut states, &[(), ()], |runs, ()| {
            *runs += 1;
            barrier.wait();
            std::thread::current().id()
        });
        assert_eq!(states, [1, 1], "one item per state");
        assert!(ran_on.contains(&std::thread::current().id()));
        assert_ne!(ran_on[0], ran_on[1]);

        // More items than states: still only `states.len()` threads.
        let items: Vec<usize> = (0..64).collect();
        let ids = parallel_map_with(&mut states, &items, |_, _| std::thread::current().id());
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() <= states.len(), "{distinct:?}");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), thread_count());
    }
}
