//! The work-stealing thread pool and its scoped fan-out API.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::stats::{self, lock_unpoisoned};

/// A type-erased unit of work. Tasks are created by [`Scope::spawn`], which
/// guarantees (by blocking in [`ThreadPool::scope`] until every task has
/// finished) that the erased `'scope` borrows never outlive their owners.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Sleep/wake bookkeeping shared between workers and spawners.
struct SleepState {
    shutdown: bool,
}

struct Shared {
    /// Per-worker deques. The owner pops newest-first from the back (cache
    /// warmth); thieves steal oldest-first from the front (largest remaining
    /// work under recursive splitting). Spawners deal round-robin.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet taken; checked before parking.
    pending: AtomicUsize,
    sleep: Mutex<SleepState>,
    wake: Condvar,
}

impl Shared {
    /// Takes one task: own queue first (back), then steal (front), scanning
    /// from `home + 1` so thieves spread instead of convoying.
    fn take(&self, home: usize) -> Option<Task> {
        let n = self.queues.len();
        if n == 0 {
            return None;
        }
        let own = home % n;
        if let Some(task) = lock_unpoisoned(&self.queues[own]).pop_back() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(task);
        }
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(task) = lock_unpoisoned(&self.queues[victim]).pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                stats::counter("exec.steals").incr();
                return Some(task);
            }
        }
        None
    }

    fn push(&self, slot: usize, task: Task) {
        let n = self.queues.len();
        debug_assert!(n > 0, "push on a pool without queues");
        lock_unpoisoned(&self.queues[slot % n]).push_back(task);
        self.pending.fetch_add(1, Ordering::AcqRel);
        // Notify under the sleep lock: a worker that just observed
        // `pending == 0` is either still holding the lock (will re-check) or
        // already parked (will get this notification) — no missed wakeups.
        let _guard = lock_unpoisoned(&self.sleep);
        self.wake.notify_one();
    }
}

/// A std-only work-stealing thread pool with deterministic, order-preserving
/// reduction.
///
/// See the [crate docs](crate) for the determinism contract. Dropping the
/// pool shuts the workers down and joins them.
///
/// # Examples
///
/// ```
/// use tvs_exec::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let data = vec![10, 20, 30];
/// let mut doubled = vec![0; 3];
/// pool.scope(|s| {
///     for (d, out) in data.iter().zip(doubled.iter_mut()) {
///         s.spawn(move || *out = d * 2);
///     }
/// });
/// assert_eq!(doubled, vec![20, 40, 60]);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Round-robin dealing cursor for spawners.
    deal: AtomicUsize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Resolves the thread count to use when the caller gave none: the
/// `TVS_THREADS` environment variable if set and valid, else the machine's
/// available parallelism, else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TVS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ThreadPool {
    /// Creates a pool targeting `threads`-way parallelism (clamped to at
    /// least 1).
    ///
    /// `threads - 1` background workers are spawned; the thread calling
    /// [`scope`](Self::scope) or [`map`](Self::map) contributes as the final
    /// worker while it waits. `ThreadPool::new(1)` therefore spawns nothing
    /// and runs every task inline — the sequential fallback.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let background = threads - 1;
        let shared = Arc::new(Shared {
            // One queue per participant (workers + the scoping caller).
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(SleepState { shutdown: false }),
            wake: Condvar::new(),
        });
        // If the OS refuses a thread, degrade to fewer workers instead of
        // aborting: the scoping caller always participates, so the pool stays
        // functional (merely narrower) with zero background workers.
        let workers = (0..background)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tvs-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .ok()
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
            deal: AtomicUsize::new(0),
        }
    }

    /// Creates a pool with [`default_threads`]-way parallelism.
    pub fn with_default_threads() -> Self {
        ThreadPool::new(default_threads())
    }

    /// The parallelism this pool targets (including the scoping caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `items` into at most [`threads`](Self::threads) contiguous
    /// shares, each a whole number of `unit`-sized chunks (only the last
    /// chunk of the last share may be short), so one task per share can
    /// keep per-task state across its chunks while the chunk boundaries
    /// stay exactly those of `items.chunks(unit)`.
    ///
    /// # Panics
    ///
    /// Panics if `unit == 0`.
    pub fn shares<'t, T>(&self, items: &'t [T], unit: usize) -> Vec<&'t [T]> {
        let per_share = items.len().div_ceil(unit).div_ceil(self.threads).max(1);
        items.chunks(per_share * unit).collect()
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowed work items, then
    /// blocks until every spawned item has finished — helping to execute
    /// queued items while it waits.
    ///
    /// If a work item panics, the panic is re-raised here (after all other
    /// items finished) instead of poisoning a worker: a panicking item fails
    /// the run, it never hangs the pool.
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                remaining: AtomicUsize::new(0),
                done: Mutex::new(()),
                done_cv: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _scope: PhantomData,
        };
        // Even if `f` itself panics we must wait for already-spawned tasks
        // before unwinding: their borrows die with our caller's frame.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_done(&scope.state);
        if let Some(payload) = lock_unpoisoned(&scope.state.panic).take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Applies `f` to every item and returns the results **in input order**,
    /// regardless of which thread computed what. `f(i, &items[i])` must be a
    /// pure function of its arguments for the determinism guarantee to hold.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let f = &f;
        self.scope(|s| {
            for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
                s.spawn(move || *slot = Some(f(i, item)));
            }
        });
        out.into_iter()
            // scope() re-raises any task panic first, so every slot is
            // filled here. lint:allow(SRC005)
            .map(|r| r.expect("every spawned task completed"))
            .collect()
    }

    /// Like [`map`](Self::map), but panics inside `f` are captured instead of
    /// re-raised: the call returns the lowest panicking input index and its
    /// stringified payload as a [`TaskPanic`]. The lowest-index rule makes the
    /// reported failure deterministic at any thread count, which lets callers
    /// salvage partial results reproducibly.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, TaskPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out: Vec<Option<Result<R, String>>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let f = &f;
        if self.threads <= 1 || items.len() <= 1 {
            for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
                *slot = Some(
                    panic::catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(payload_message),
                );
            }
        } else {
            self.scope(|s| {
                for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
                    s.spawn(move || {
                        *slot = Some(
                            panic::catch_unwind(AssertUnwindSafe(|| f(i, item)))
                                .map_err(payload_message),
                        );
                    });
                }
            });
        }
        let mut results = Vec::with_capacity(out.len());
        for (index, slot) in out.into_iter().enumerate() {
            match slot {
                Some(Ok(r)) => results.push(r),
                Some(Err(message)) => return Err(TaskPanic { index, message }),
                // Unreachable: the scope barrier fills every slot, and panics
                // inside `f` were already captured into the slot itself.
                None => unreachable!("every spawned task completed"),
            }
        }
        Ok(results)
    }

    /// Like [`map`](Self::map), but spawns one task per `chunk` consecutive
    /// items instead of one per item — the right granularity when individual
    /// items are cheap (e.g. 64-fault simulation words).
    pub fn map_chunked<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk = chunk.max(1);
        if self.threads <= 1 || items.len() <= chunk {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let f = &f;
        self.scope(|s| {
            for (c, (item_chunk, out_chunk)) in
                items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                let base = c * chunk;
                s.spawn(move || {
                    for (j, (item, slot)) in item_chunk.iter().zip(out_chunk.iter_mut()).enumerate()
                    {
                        *slot = Some(f(base + j, item));
                    }
                });
            }
        });
        out.into_iter()
            // scope() re-raises any task panic first, so every slot is
            // filled here. lint:allow(SRC005)
            .map(|r| r.expect("every spawned task completed"))
            .collect()
    }

    fn push_task(&self, task: Task) {
        let slot = self.deal.fetch_add(1, Ordering::Relaxed);
        self.shared.push(slot, task);
    }

    /// The caller's side of the barrier: run queued tasks while any task of
    /// `state` is unfinished, then park on the scope's condvar.
    fn help_until_done(&self, state: &ScopeState) {
        // The caller steals from slot index `threads - 1` (its own dealing
        // slot also receives tasks, so this drains them first).
        let home = self.threads - 1;
        while state.remaining.load(Ordering::Acquire) != 0 {
            if let Some(task) = self.shared.take(home) {
                task();
                continue;
            }
            // Nothing to help with: the stragglers run on workers. Park
            // until a completion notifies us (re-check with a timeout to
            // cover the completion-before-park race).
            let guard = lock_unpoisoned(&state.done);
            if state.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let _unused = state
                .done_cv
                .wait_timeout(guard, std::time::Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut sleep = lock_unpoisoned(&self.shared.sleep);
            sleep.shutdown = true;
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _joined = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    loop {
        if let Some(task) = shared.take(home) {
            task();
            continue;
        }
        let mut sleep = lock_unpoisoned(&shared.sleep);
        loop {
            if sleep.shutdown {
                return;
            }
            if shared.pending.load(Ordering::Acquire) > 0 {
                break;
            }
            sleep = match shared.wake.wait(sleep) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// A work item inside [`ThreadPool::try_map`] panicked.
///
/// Carries the *lowest* panicking input index (deterministic at any thread
/// count) and the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the lowest-index panicking item.
    pub index: usize,
    /// Stringified panic payload of that item.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a panic payload as a human-readable string.
pub(crate) fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Completion tracking for one [`ThreadPool::scope`] invocation.
struct ScopeState {
    remaining: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload raised by a work item, re-thrown by `scope`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
///
/// Work items may borrow anything that outlives the `scope` call (`'scope`),
/// because `scope` does not return until every item has finished.
pub struct Scope<'pool, 'scope> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariance over `'scope`: prevents the compiler from shrinking the
    /// borrow to less than the full scope call.
    _scope: PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queues a work item on the pool.
    ///
    /// The item runs on an arbitrary pool thread (possibly the scoping
    /// caller itself). Panics inside the item are captured and re-raised by
    /// the enclosing [`ThreadPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.remaining.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = lock_unpoisoned(&state.panic);
                slot.get_or_insert(payload);
            }
            stats::counter("exec.tasks").incr();
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = lock_unpoisoned(&state.done);
                state.done_cv.notify_all();
            }
        });
        // SAFETY: `scope` blocks (in `help_until_done`) until `remaining`
        // reaches zero, i.e. until this closure has run to completion, and
        // does so even when the scope body or another item panics. The
        // `'scope` borrows inside the closure are therefore never used after
        // their owners die, which is exactly the guarantee `'static` erasure
        // needs. The invariant `PhantomData` on `Scope` keeps callers from
        // shrinking `'scope` below the duration of the `scope` call.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.pool.push_task(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn startup_and_shutdown_do_not_hang() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.threads(), threads);
            drop(pool);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.map(&items, |_, x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = vec![10u64, 20, 30, 40];
        let pool = ThreadPool::new(4);
        let out = pool.map(&items, |i, x| (i, *x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn map_chunked_matches_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = ThreadPool::new(1).map(&items, |i, x| x + i as u64);
        for chunk in [1, 7, 64, 2000] {
            let pool = ThreadPool::new(4);
            assert_eq!(pool.map_chunked(&items, chunk, |i, x| x + i as u64), seq);
        }
    }

    #[test]
    fn scope_tasks_can_borrow_and_mutate_locals() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..100).collect();
        let mut out = vec![0u64; 100];
        pool.scope(|s| {
            for (d, slot) in data.iter().zip(out.iter_mut()) {
                s.spawn(move || *slot = d + 1);
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn panicking_task_fails_the_run_but_not_the_pool() {
        let pool = ThreadPool::new(4);
        let finished = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..64 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 13 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must propagate out of scope");
        // All non-panicking siblings still ran (the barrier held).
        assert_eq!(finished.load(Ordering::Relaxed), 63);
        // The pool survives and keeps working.
        assert_eq!(pool.map(&[1, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn panicking_scope_body_still_waits_for_spawned_tasks() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..32 {
                    let ran = &ran;
                    s.spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("scope body dies");
            });
        }));
        assert!(result.is_err());
        assert_eq!(
            ran.load(Ordering::Relaxed),
            32,
            "spawned tasks must complete"
        );
    }

    #[test]
    fn counters_are_accurate_under_parallel_increments() {
        // A name only this test touches: the count is exact even though the
        // registry is process-global and other tests run concurrently.
        let counter = stats::counter("test.pool.accuracy");
        let before = counter.get();
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..200).collect();
        let _sums = pool.map(&items, |_, x| {
            stats::counter("test.pool.accuracy").incr();
            x + 1
        });
        assert_eq!(counter.get() - before, 200);
        // The pool's own bookkeeping saw at least those 200 tasks (other
        // concurrently running tests may add more).
        assert!(stats::counter("exec.tasks").get() >= 200);
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.map(&[1u64, 2, 3], |_, _| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id == caller),
            "threads=1 must run on the caller"
        );
    }

    #[test]
    fn multiple_concurrent_panics_reraise_one_payload_without_deadlock() {
        let pool = ThreadPool::new(4);
        let started = stats::counter("test.pool.multipanic");
        let before = started.get();
        let finished = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..64u64 {
                    let finished = &finished;
                    s.spawn(move || {
                        stats::counter("test.pool.multipanic").incr();
                        if i % 8 == 0 {
                            panic!("boom #{i}");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        // One of the eight payloads (the first to be captured) is re-raised.
        let payload = result.expect_err("concurrent panics must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.starts_with("boom #"),
            "re-raised payload must come from a panicking item, got {message:?}"
        );
        // The barrier held: every non-panicking sibling still ran, and every
        // task (panicking or not) advanced the counter — no lost bookkeeping.
        assert_eq!(finished.load(Ordering::Relaxed), 56);
        assert_eq!(started.get() - before, 64);
        // The pool survives and keeps working.
        assert_eq!(pool.map(&[1, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn shares_are_whole_chunks_one_per_thread_at_most() {
        let items: Vec<usize> = (0..200).collect();
        for threads in 1..=5 {
            let pool = ThreadPool::new(threads);
            for len in [0, 1, 63, 64, 65, 128, 129, 200] {
                let shares = pool.shares(&items[..len], 64);
                assert!(shares.len() <= threads, "{threads} threads, {len} items");
                let chunks: Vec<&[usize]> = shares.iter().flat_map(|s| s.chunks(64)).collect();
                let want: Vec<&[usize]> = items[..len].chunks(64).collect();
                assert_eq!(chunks, want, "{threads} threads, {len} items");
            }
        }
    }

    #[test]
    fn try_map_reports_the_lowest_panicking_index_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let items: Vec<usize> = (0..50).collect();
            let err = pool
                .try_map(&items, |i, &x| {
                    if x % 7 == 3 {
                        panic!("item {i} failed");
                    }
                    x * 2
                })
                .expect_err("panicking items must surface as TaskPanic");
            assert_eq!(err.index, 3, "threads={threads}");
            assert_eq!(err.message, "item 3 failed");
            // No panic: results come back in order, and the pool is fine.
            let ok = pool.try_map(&items, |_, &x| x + 1);
            assert_eq!(ok, Ok((1..=50).collect()));
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }
}
