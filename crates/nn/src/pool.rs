//! The workspace's one worker pool: persistent helper threads behind the
//! certification sweeps, the evaluation matrices, the CEM batches and the
//! two lanes of a TD3 update.
//!
//! No crates.io threading runtime is available in this build environment,
//! so the pool is built from `std::thread` directly: one set of helpers
//! per process, created lazily by the first fork that asks for them (never
//! by a constructor) and grown to the largest count any fork has asked
//! for. After a job a helper spins on its mailbox for `SPIN` (0.5 ms),
//! then parks until the next job wakes it, so a fork that follows soon
//! after another costs about a microsecond, and an idle pool holds no
//! core.
//!
//! Two forks sit on it. [`parallel_map_with`] (and its stateless wrapper
//! [`parallel_map`]) is an index-claiming fork–join in which the calling
//! thread is itself worker zero and only `threads − 1` helpers take part.
//! Workers share nothing but the claim counter: each owns its state and
//! its results, so there is no queue and no cross-thread free. Workloads
//! that grow as they run (branch-and-bound refinement) fork once over
//! coarse items and let each worker run its item to exhaustion. [`join`]
//! runs one closure on the calling thread and one on a helper.
//!
//! **Inline rule.** One fork at a time holds the helpers. A fork issued
//! from inside a job (nested parallelism), or while another thread holds
//! the helpers, runs inline on its own thread: the caller's part first,
//! then every other part in order. No fork ever waits for the helpers, so
//! nesting cannot deadlock, and since results are collected by index they
//! are the same — bit for bit — at every thread count and whichever way a
//! fork ran. A panic in any part is re-raised in the forking thread with
//! its own payload once every part has finished, and the pool stays usable.
//!
//! The worker count comes from the `CANOPY_THREADS` environment variable
//! when set (a positive integer; `1` forces sequential execution), and
//! defaults to [`std::thread::available_parallelism`]. Call sites that
//! need a per-call override (e.g. tests comparing thread counts inside
//! one process) pass `Some(n)` instead of consulting the environment.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle helper — or a caller waiting for its helpers — spins
/// before it parks: 0.5 ms, longer than the widest gap between two TD3
/// updates' forks (≈ 0.15 ms on a 2-core VM), so a training run does not
/// pay a park's wake-up (≈ 14 µs there, against 0.4 µs when spinning).
const SPIN: Duration = Duration::from_nanos(500_000);

/// What a panicking job left behind.
type Payload = Box<dyn Any + Send>;

/// A job as a helper holds it: a closure on the forking thread's stack,
/// its lifetime erased by [`fork`].
type Job = &'static mut (dyn FnMut() + Send);

/// One helper's side of a hand-off.
#[derive(Default)]
struct Mailbox {
    /// Set by the forking thread once it has posted a job; cleared by the
    /// helper once the job has returned and nothing refers to it any more.
    busy: AtomicBool,
    slot: Mutex<Slot>,
}

#[derive(Default)]
struct Slot {
    /// The posted job and the thread to wake when it is done.
    job: Option<(Job, Thread)>,
    /// The payload of a job that panicked, until the forking thread takes it.
    panic: Option<Payload>,
}

impl Mailbox {
    fn slot(&self) -> MutexGuard<'_, Slot> {
        // No code panics while holding the slot (jobs run outside it).
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Helper {
    mailbox: Arc<Mailbox>,
    thread: Thread,
}

/// The process's helpers. A fork holds this lock from its first hand-off
/// until its last helper is done; a fork that finds it held runs inline.
static HELPERS: Mutex<Vec<Helper>> = Mutex::new(Vec::new());

/// Spins on `done` for up to [`SPIN`], then parks until it holds.
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        if start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

fn spawn_helper(index: usize) -> Helper {
    let mailbox = Arc::new(Mailbox::default());
    let inbox = Arc::clone(&mailbox);
    let handle = thread::Builder::new()
        .name(format!("canopy-pool-{index}"))
        .spawn(move || loop {
            wait_until(|| inbox.busy.load(Ordering::Acquire));
            let (job, caller) = inbox.slot().job.take().expect("a busy mailbox holds a job");
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                inbox.slot().panic = Some(payload);
            }
            inbox.busy.store(false, Ordering::Release);
            caller.unpark();
        })
        .expect("the OS can start a pool helper");
    // Detached: a helper lives as long as the process.
    let thread = handle.thread().clone();
    Helper { mailbox, thread }
}

/// Runs `local` on the calling thread and each of `remote` on a helper of
/// its own, and returns `local`'s result once every part has finished. If
/// another fork holds the helpers (this one is nested in a job, or runs
/// beside another thread's), everything runs inline: `local`, then
/// `remote` in order. A panic in any part is re-raised here with its own
/// payload, the caller's first, and never before every helper handed a
/// part has finished with it.
fn fork<R, J: FnMut() + Send>(local: impl FnOnce() -> R, remote: &mut [J]) -> R {
    let mut guard = match HELPERS.try_lock() {
        Ok(guard) => guard,
        // Only a failed spawn poisons the lock, and the set it leaves
        // holds working helpers only.
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let result = local();
            remote.iter_mut().for_each(|job| job());
            return result;
        }
    };
    while guard.len() < remote.len() {
        let index = guard.len() + 1;
        guard.push(spawn_helper(index));
    }
    let helpers = &guard[..remote.len()];
    let caller = thread::current();
    for (helper, job) in helpers.iter().zip(remote.iter_mut()) {
        let job: &mut (dyn FnMut() + Send + '_) = job;
        // SAFETY: only the lifetime changes. The reference goes to one
        // helper, which drops it before it clears `busy`, and this
        // function neither returns nor unwinds before every helper it
        // posted to has cleared `busy`: `local` runs under `catch_unwind`,
        // and nothing between here and the wait below can panic. So the
        // job never outlives the borrow it was made from — the argument
        // of the standard library's scoped threads.
        let job: Job = unsafe { std::mem::transmute::<&mut (dyn FnMut() + Send + '_), Job>(job) };
        helper.mailbox.slot().job = Some((job, caller.clone()));
        helper.mailbox.busy.store(true, Ordering::Release);
        helper.thread.unpark();
    }
    let result = panic::catch_unwind(AssertUnwindSafe(local));
    let mut raised = None;
    for helper in helpers {
        wait_until(|| !helper.mailbox.busy.load(Ordering::Acquire));
        if let Some(payload) = helper.mailbox.slot().panic.take() {
            raised.get_or_insert(payload);
        }
    }
    drop(guard);
    match (result, raised) {
        (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
        (Ok(result), None) => result,
    }
}

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
fn thread_count() -> usize {
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

/// Runs `a` on the calling thread and `b` on a helper, and returns both
/// results. At one worker (`CANOPY_THREADS=1`), inside a job, or while
/// another thread holds the helpers, both run on the calling thread, `a`
/// first. `a` never leaves the calling thread, so it need not be `Send`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    join_at(thread_count(), a, b)
}

/// [`join`] at an explicit worker count.
fn join_at<A, B, RA, RB>(workers: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if workers < 2 {
        let ra = a();
        return (ra, b());
    }
    let mut b = Some(b);
    let mut rb = None;
    let ra = fork(a, &mut [|| rb = b.take().map(|b| b())]);
    (ra, rb.expect("fork runs every part"))
}

/// Maps `f` over `items` on up to `threads` workers, preserving input
/// order in the result. Falls back to a plain sequential map when one
/// worker (or one item) makes a fork pointless, so results are identical
/// — bit for bit — at every thread count.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(&mut vec![(); threads.max(1)], items, |(), item| f(item))
}

/// [`parallel_map`] with one caller-owned state per worker — scratch
/// buffers that outlive the call. At most `states.len()` workers run: the
/// calling thread works on `states[0]` and one helper on each further
/// state, so a sequential map involves no helper. `f`'s result must not
/// depend on which state it was handed.
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
    // by the fork's hand-back.
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
    let mut outs: Vec<Vec<(usize, U)>> = Vec::new();
    outs.resize_with(helpers.len(), Vec::new);
    let mut jobs: Vec<_> = helpers
        .iter_mut()
        .zip(&mut outs)
        .map(|(state, out)| {
            let work = &work;
            move || *out = work(state)
        })
        .collect();
    let mut indexed = fork(|| work(caller), &mut jobs);
    drop(jobs);
    indexed.extend(outs.into_iter().flatten());
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    /// Only this module forks in this test binary; a test that needs the
    /// helpers to itself, or counts them, holds this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn helper_count() -> usize {
        HELPERS.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    #[test]
    fn parallel_map_preserves_order() {
        let _serial = serial();
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
        let _serial = serial();
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

    /// A fork inside a job — on the caller's part and on a helper's —
    /// runs inline instead of waiting for helpers its parent holds.
    #[test]
    fn a_fork_nested_in_a_job_runs_inline() {
        let _serial = serial();
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (1..=16).collect();
        let sums = parallel_map(&outer, 2, |&x| {
            let (left, right) = join(
                || parallel_map(&inner, 2, |&y| x * y).iter().sum::<u64>(),
                || parallel_map(&inner, 3, |&y| x + y).iter().sum::<u64>(),
            );
            left + right
        });
        let expected: Vec<u64> = outer.iter().map(|&x| x * 136 + (16 * x + 136)).collect();
        assert_eq!(sums, expected);
    }

    /// Two OS threads fork at once: one gets the helpers, the other runs
    /// inline, and both get their own results in order.
    #[test]
    fn concurrent_forks_from_two_threads_stay_ordered() {
        fn run(offset: u64, barrier: &Barrier) {
            let items: Vec<u64> = (0..2_000).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * x + offset).collect();
            barrier.wait();
            for _ in 0..20 {
                assert_eq!(parallel_map(&items, 2, |&x| x * x + offset), expected);
            }
        }

        let _serial = serial();
        let barrier = Arc::new(Barrier::new(2));
        let other = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || run(7, &barrier))
        };
        run(1, &barrier);
        other.join().expect("the other thread's forks are correct");
    }

    /// A helper's panic reaches the forking thread with its own message,
    /// and the next forks still run on the helpers.
    #[test]
    fn a_panicking_job_reraises_its_message_and_the_pool_survives() {
        let _serial = serial();
        let caught =
            panic::catch_unwind(|| join_at(2, || 1, || -> u32 { panic!("lane two broke") }));
        let payload = caught.expect_err("the helper's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"lane two broke"));

        let caught = panic::catch_unwind(|| {
            parallel_map(&[0u32, 1, 2, 3], 2, |&x| {
                assert!(x != 2, "item {x} is bad");
                x
            })
        });
        let payload = caught.expect_err("a worker's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 2 is bad")
        );

        let caller = std::thread::current().id();
        let (here, there) = join_at(
            2,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(here, caller);
        assert_ne!(there, caller, "the helper took the job");
        assert_eq!(parallel_map(&[1, 2, 3], 2, |&x| x + 1), [2, 3, 4]);
    }

    #[test]
    fn join_at_one_worker_runs_both_on_the_caller() {
        let caller = std::thread::current().id();
        let (a, b) = join_at(
            1,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!((a, b), (caller, caller));
    }

    /// The helper set grows to the largest count asked for and no further.
    #[test]
    fn helpers_grow_to_the_largest_request_only() {
        let _serial = serial();
        let items: Vec<usize> = (0..64).collect();
        let mut largest = helper_count();
        for threads in [2, 5, 3, 1, 4, 5] {
            parallel_map(&items, threads, |&x| x);
            largest = largest.max(threads - 1);
            assert_eq!(helper_count(), largest, "after a fork at {threads}");
        }
        join_at(2, || (), || ());
        assert_eq!(helper_count(), largest);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), thread_count());
    }
}
