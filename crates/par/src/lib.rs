//! A hand-rolled thread pool for the PRDNN hot paths.
//!
//! The build environment has no registry access, so `rayon` is not an
//! option; this crate implements the small slice of it the workspace needs:
//! order-preserving [`ThreadPool::par_map`] / [`ThreadPool::par_chunks`]
//! built on `std::thread` workers.
//!
//! Design:
//!
//! * Work is submitted one *job* at a time (one `par_map`/`par_chunks`
//!   call).  The job's items are split into contiguous chunks, all known
//!   up front, and the order of results is fixed by chunk index, never by
//!   execution order — **parallel output is bit-identical to the serial
//!   path**.
//! * Each job carries one atomic next-chunk counter.  Whoever runs its
//!   chunks claims the next one with `fetch_add` until the counter passes
//!   the chunk count, so every chunk runs exactly once and a thread that
//!   finishes a cheap chunk early simply claims another (self-scheduling
//!   with fixed chunks; Polychronopoulos & Kuck, *Guided Self-Scheduling*,
//!   IEEE TC 1987, shrink the chunks as the work runs out).
//! * Submitted jobs wait in one mutex-guarded FIFO.  Idle workers sleep on
//!   a condvar beside it and take the oldest job that is still queued; a
//!   job leaves the queue once a thread finds all of its chunks claimed.
//! * The submitting thread is not idle while its job runs: it claims and
//!   runs its own job's chunks and only sleeps on the completion condvar
//!   once every chunk is claimed.  (It never runs *other* jobs' chunks —
//!   that could strand it in a long foreign chunk after its own job
//!   finished.)
//! * Panics inside the mapped closure are caught per chunk, the remaining
//!   chunks still run, and the first payload is re-raised on the calling
//!   thread ([`std::panic::resume_unwind`]), matching the serial behaviour
//!   as closely as possible.
//! * A pool of [`ThreadPool::new`]`(1)` spawns **no worker threads**: every
//!   call runs inline on the caller, giving a guaranteed serial fallback.
//! * Nested calls from inside a running chunk run inline (serially) on
//!   that thread, so `par_map` inside `par_map` cannot deadlock the pool.
//!
//! The pool used by the library hot paths is [`global`], sized by the
//! `PRDNN_THREADS` environment variable (falling back to
//! `std::thread::available_parallelism`).  Callers that want an explicit
//! thread count (e.g. the server's `--threads`, which takes precedence
//! over `PRDNN_THREADS`) resolve a pool via [`pool_for`].

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

pub mod arena;

/// How many chunks to deal per worker: more than one so that uneven chunk
/// costs even out (a thread that finishes early claims another chunk), but
/// few enough that per-chunk overhead stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// Set while this thread runs a pool chunk; nested parallel calls
    /// observe it and run inline instead of re-entering the pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Why taking a pool lock cannot fail: chunk closures run outside every
/// pool lock, under `catch_unwind`, so no thread panics while holding one.
const POISONED: &str = "a thread panicked while holding a pool lock";

/// One submitted `par_map`/`par_chunks` call.
///
/// `run` type-erases the caller's chunk closure.  The pointee lives on the
/// calling thread's stack; erasing the lifetime is sound because `run` is
/// only called on a chunk index claimed below `chunk_count`, and the caller
/// blocks until `pending` reaches zero (even when unwinding), so every call
/// happens while the closure and its borrows are alive.  A thread still
/// holding the job after that only ever claims indices past the end.
struct Job {
    run: *const (dyn Fn(usize) + Sync),
    /// Total number of chunks dealt for this job.
    chunk_count: usize,
    /// The next unclaimed chunk: `fetch_add` hands each index out once.
    next: AtomicUsize,
    /// Chunks that have not finished running.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `run` is only dereferenced while the submitting thread keeps the
// closure alive (see `Job` docs); the closure itself is `Sync`, and all
// other fields are synchronised.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next chunk and runs it, publishing the job's completion
    /// after its last chunk; `false` once every chunk has been claimed.
    fn run_next(&self) -> bool {
        // `Relaxed`: the counter publishes no data.  The closure's inputs
        // reach a worker through the queue's mutex, and the chunk results
        // reach the submitter through `pending`'s `AcqRel` countdown and
        // the `done` mutex.
        let chunk = self.next.fetch_add(1, Ordering::Relaxed);
        if chunk >= self.chunk_count {
            return false;
        }
        IN_WORKER.with(|f| f.set(true));
        // SAFETY: `chunk` is claimed and in range, so the submitting thread
        // is blocked in `run_job`'s wait until this chunk has finished.
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*self.run)(chunk) }));
        IN_WORKER.with(|f| f.set(false));
        if let Err(payload) = result {
            self.panic.lock().expect(POISONED).get_or_insert(payload);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect(POISONED) = true;
            self.done_cv.notify_all();
        }
        true
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool shuts down.
    cv: Condvar,
}

struct Queue {
    /// Submitted jobs, oldest first, until a thread finds every chunk of
    /// one claimed and takes it off (`Shared::retire`).
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

impl Shared {
    /// The oldest queued job, sleeping until there is one; `None` once the
    /// pool shuts down.
    fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = self.queue.lock().expect(POISONED);
        loop {
            if queue.shutdown {
                return None;
            }
            if let Some(job) = queue.jobs.front() {
                return Some(Arc::clone(job));
            }
            queue = self.cv.wait(queue).expect(POISONED);
        }
    }

    /// Takes `job`, every chunk of which is claimed, off the queue; a no-op
    /// if another thread already did.
    fn retire(&self, job: &Arc<Job>) {
        let mut queue = self.queue.lock().expect(POISONED);
        if let Some(at) = queue
            .jobs
            .iter()
            .position(|queued| Arc::ptr_eq(queued, job))
        {
            queue.jobs.remove(at);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.next_job() {
        while job.run_next() {}
        shared.retire(&job);
    }
}

/// A fixed-size thread pool.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads`-way parallelism.
    ///
    /// `threads == 1` spawns no worker threads at all: every `par_map` /
    /// `par_chunks` call executes inline on the caller (the guaranteed
    /// serial fallback).  `threads == 0` is treated as 1.  A pool of
    /// `n > 1` threads spawns `n` workers, and each submitting thread also
    /// claims chunks of its own job, so one call can run on `n + 1`
    /// threads.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = if threads == 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|who| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("prdnn-par-{who}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// The pool's parallelism (the `threads` it was created with).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of spawned worker threads (0 for a serial pool).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether a call on this pool would take the serial inline path.
    fn is_serial_here(&self) -> bool {
        self.workers.is_empty() || IN_WORKER.with(|f| f.get())
    }

    /// Maps `f` over `items`, in parallel, preserving input order.
    ///
    /// The output is element-for-element identical to
    /// `items.into_iter().map(f).collect()` regardless of the thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by `f` (after every remaining chunk
    /// has run).
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.is_serial_here() || items.len() < 2 {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let chunk_count = n.min(self.workers.len() * CHUNKS_PER_WORKER);
        // Deal the items into `chunk_count` contiguous chunks of near-equal
        // size (the first `n % chunk_count` chunks get one extra item).
        let base = n / chunk_count;
        let extra = n % chunk_count;
        let mut iter = items.into_iter();
        let inputs: Vec<Mutex<Option<Vec<T>>>> = (0..chunk_count)
            .map(|c| {
                let len = base + usize::from(c < extra);
                Mutex::new(Some(iter.by_ref().take(len).collect()))
            })
            .collect();
        let outputs: Vec<Mutex<Option<Vec<R>>>> =
            (0..chunk_count).map(|_| Mutex::new(None)).collect();

        let run = |chunk: usize| {
            let chunk_items = inputs[chunk]
                .lock()
                .unwrap()
                .take()
                .expect("chunk executed twice");
            let mapped: Vec<R> = chunk_items.into_iter().map(&f).collect();
            *outputs[chunk].lock().unwrap() = Some(mapped);
        };
        self.run_job(&run, chunk_count);

        outputs
            .into_iter()
            .flat_map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("chunk finished without output")
            })
            .collect()
    }

    /// Applies `f` to consecutive chunks of `items` of length `chunk_size`
    /// (the last chunk may be shorter), in parallel, returning the per-chunk
    /// results in order.
    ///
    /// Equivalent to `items.chunks(chunk_size).map(f).collect()`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`; re-raises the first panic raised by `f`.
    pub fn par_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "par_chunks: chunk_size must be positive");
        if self.is_serial_here() || items.len() <= chunk_size {
            return items.chunks(chunk_size).map(f).collect();
        }
        let chunk_count = items.len().div_ceil(chunk_size);
        let outputs: Vec<Mutex<Option<R>>> = (0..chunk_count).map(|_| Mutex::new(None)).collect();
        let run = |chunk: usize| {
            let start = chunk * chunk_size;
            let end = (start + chunk_size).min(items.len());
            *outputs[chunk].lock().unwrap() = Some(f(&items[start..end]));
        };
        self.run_job(&run, chunk_count);
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("chunk finished without output")
            })
            .collect()
    }

    /// A chunk size that deals `items_len` items evenly across the pool
    /// (`CHUNKS_PER_WORKER` chunks per worker, minimum 1 item).
    ///
    /// On a serial pool this is the whole batch: chunking exists to feed
    /// the workers, and cutting a serial `par_chunks` call into sub-batches
    /// would only re-pay the per-batch setup the batched callers amortise.
    pub fn even_chunk_size(&self, items_len: usize) -> usize {
        if self.workers.is_empty() {
            return items_len.max(1);
        }
        items_len
            .div_ceil((self.threads * CHUNKS_PER_WORKER).max(1))
            .max(1)
    }

    /// Queues `chunk_count` chunks running `run` and blocks until all have
    /// finished, re-raising the first recorded panic.
    fn run_job(&self, run: &(dyn Fn(usize) + Sync), chunk_count: usize) {
        // SAFETY: lifetime erasure; this function does not return (or
        // unwind) before every chunk has run, see `wait` below.
        let run: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                run as *const _,
            )
        };
        let job = Arc::new(Job {
            run,
            chunk_count,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(chunk_count),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.shared
            .queue
            .lock()
            .expect(POISONED)
            .jobs
            .push_back(Arc::clone(&job));
        self.shared.cv.notify_all();

        // The submitting thread *participates* while it waits, claiming
        // its own job's chunks through the same counter as the workers.  It
        // never runs *other* jobs' chunks, which could strand it in a long
        // foreign chunk after its own job finished (latency-sensitive
        // callers — e.g. a serving batch worker sharing the pool with
        // repair workers — care).
        while job.run_next() {}
        self.shared.retire(&job);

        // Block until every chunk has run (some may still be in flight on
        // workers).  This wait is unconditional — the soundness of the
        // lifetime erasure above depends on it.  The flag is set under the
        // mutex, so the wakeup cannot be missed.
        let mut done = job.done.lock().expect(POISONED);
        while !*done {
            done = job.done_cv.wait(done).expect(POISONED);
        }
        drop(done);

        let payload = job.panic.lock().expect(POISONED).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // `Drop` must not panic; setting the flag is valid in any state.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .shutdown = true;
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Parses a `PRDNN_THREADS` value: a positive integer, or a warning
/// message (naming the variable and the offending value) when it is not.
///
/// Split out of [`env_threads`] so the warning path is unit-testable
/// without capturing stderr.
fn parse_threads_value(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "warning: ignoring PRDNN_THREADS={raw:?}: \
             expected a positive integer; falling back to available parallelism"
        )),
    }
}

/// The thread count requested via the `PRDNN_THREADS` environment variable,
/// if set to a positive integer.
///
/// An unparsable value is ignored, but no longer silently: the first time
/// one is seen, a warning naming the variable and the value is printed to
/// stderr.
pub fn env_threads() -> Option<usize> {
    let raw = std::env::var("PRDNN_THREADS").ok()?;
    match parse_threads_value(&raw) {
        Ok(n) => Some(n),
        Err(warning) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| eprintln!("{warning}"));
            None
        }
    }
}

/// The parallelism the global pool uses: `PRDNN_THREADS` if set, otherwise
/// `std::thread::available_parallelism`.
pub fn default_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool used by the library hot paths, created on first
/// use with [`default_threads`]-way parallelism.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// A pool resolved from an optional explicit thread count: either the
/// global pool or a temporary one owned by the caller.
pub enum PoolRef {
    /// The process-wide [`global`] pool.
    Global(&'static ThreadPool),
    /// A pool created for this call because an explicit thread count
    /// differing from the global pool's was requested.
    Owned(Box<ThreadPool>),
}

impl std::ops::Deref for PoolRef {
    type Target = ThreadPool;

    fn deref(&self) -> &ThreadPool {
        match self {
            PoolRef::Global(pool) => pool,
            PoolRef::Owned(pool) => pool,
        }
    }
}

/// Resolves the pool for an optional explicit thread count.
///
/// Precedence: `explicit` (e.g. the server's `--threads`) wins over the
/// `PRDNN_THREADS` environment variable, which wins over
/// `available_parallelism`.  When `explicit` is `None` or matches the
/// global pool's size, the global pool is reused; otherwise a fresh pool of
/// exactly `explicit` threads is created for the call.
pub fn pool_for(explicit: Option<usize>) -> PoolRef {
    let Some(n) = explicit else {
        return PoolRef::Global(global());
    };
    // Reuse the global pool only when the explicit count matches what it
    // has (or would be created with) — without forcing its workers into
    // existence just to compare sizes.
    let global_size = GLOBAL
        .get()
        .map_or_else(default_threads, ThreadPool::threads);
    if n == global_size {
        PoolRef::Global(global())
    } else {
        PoolRef::Owned(Box::new(ThreadPool::new(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(pool.par_map(items, |x| x * 3 + 1), expected);
    }

    #[test]
    fn par_map_empty_input() {
        let pool = ThreadPool::new(4);
        let out: Vec<i32> = pool.par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        let out: Vec<usize> = pool.par_chunks(&[] as &[i32], 8, |c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_pool_is_serial_and_spawns_no_workers() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.threads(), 1);
        // Every item must run on the calling thread.
        let caller = thread::current().id();
        let ids = pool.par_map((0..64).collect::<Vec<_>>(), |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn more_tasks_than_workers() {
        let pool = ThreadPool::new(2);
        // Far more items (and chunks) than workers.
        let items: Vec<u64> = (0..10_000).collect();
        let expected: u64 = items.iter().map(|x| x * x).sum();
        let mapped = pool.par_map(items, |x| x * x);
        assert_eq!(mapped.iter().sum::<u64>(), expected);
        assert_eq!(mapped.len(), 10_000);
    }

    #[test]
    fn panic_is_propagated() {
        let pool = ThreadPool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..100).collect::<Vec<i32>>(), |x| {
                if x == 37 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("boom at 37"));
        // The pool must still be usable afterwards.
        assert_eq!(pool.par_map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn panic_on_serial_pool_propagates_too() {
        let pool = ThreadPool::new(1);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![0], |_| -> i32 { panic!("serial boom") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let nested_was_inline = AtomicBool::new(true);
        let out = pool.par_map((0..8).collect::<Vec<usize>>(), |i| {
            let outer_thread = thread::current().id();
            // Nested call: must run serially on the same worker thread.
            let inner = pool.par_map((0..8).collect::<Vec<usize>>(), |j| {
                if thread::current().id() != outer_thread {
                    nested_was_inline.store(false, Ordering::Relaxed);
                }
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        for (i, sum) in out.iter().enumerate() {
            let expected: usize = (0..8).map(|j| i * 10 + j).sum();
            assert_eq!(*sum, expected);
        }
        assert!(
            nested_was_inline.load(Ordering::Relaxed),
            "nested par_map must not fan out to other workers"
        );
    }

    #[test]
    fn par_chunks_matches_serial_chunking() {
        let pool = ThreadPool::new(3);
        let items: Vec<i64> = (0..997).collect();
        for chunk_size in [1, 7, 100, 997, 2000] {
            let expected: Vec<i64> = items.chunks(chunk_size).map(|c| c.iter().sum()).collect();
            let got = pool.par_chunks(&items, chunk_size, |c| c.iter().sum::<i64>());
            assert_eq!(got, expected, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn caller_participates_while_waiting() {
        // Block every pool worker *and* a separate submitting thread inside
        // one job, then submit a second job from this thread: with all
        // workers pinned, the second job can only make progress if the
        // submitting thread runs its own chunks instead of sleeping on the
        // condvar (under the old sleep-only wait this test deadlocks).
        let pool = Arc::new(ThreadPool::new(2));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let started = Arc::new(AtomicUsize::new(0));
        let blocker = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            let started = Arc::clone(&started);
            thread::spawn(move || {
                // Three chunks: two workers plus the submitting thread
                // itself (helping) each take one and block on the barrier.
                pool.par_map(vec![0, 1, 2], |x| {
                    started.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    x
                })
            })
        };
        // Wait until all three blocking chunks are running, i.e. both
        // workers and the blocker thread are pinned inside the barrier.
        while started.load(Ordering::SeqCst) < 3 {
            thread::yield_now();
        }
        let caller = thread::current().id();
        let ids = pool.par_map((0..16).collect::<Vec<_>>(), |_| thread::current().id());
        assert!(
            ids.iter().all(|&id| id == caller),
            "with all workers blocked, every chunk must run on the caller"
        );
        // Release the blocked job and make sure the pool is healthy.
        barrier.wait();
        assert_eq!(blocker.join().unwrap(), vec![0, 1, 2]);
        assert_eq!(pool.par_map(vec![1, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn concurrent_jobs_from_multiple_threads() {
        let pool = Arc::new(ThreadPool::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let items: Vec<usize> = (0..500).collect();
                    let out = pool.par_map(items, |x| x + t);
                    assert_eq!(out.len(), 500);
                    assert_eq!(out[499], 499 + t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Burns a little time so that chunk costs are uneven.
    fn spin(iterations: u32) {
        for i in 0..iterations {
            std::hint::black_box(i);
        }
    }

    #[test]
    fn every_chunk_runs_once_under_concurrent_submitters() {
        // Four threads share each pool.  Every round covers the submitter's
        // 97 items exactly once: a `par_chunks` call over a prefix of
        // varying length and chunk size, and a `par_map` over the rest.
        // So after `ROUNDS` rounds every item's counter reads `ROUNDS`
        // unless some chunk ran twice or never.
        const ITEMS: usize = 97;
        const ROUNDS: u32 = 50;
        for threads in [2, 3, 4] {
            let pool = Arc::new(ThreadPool::new(threads));
            let submitters: Vec<_> = (0..4usize)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || {
                        let counts: Vec<AtomicU32> =
                            (0..ITEMS).map(|_| AtomicU32::new(0)).collect();
                        let items: Vec<usize> = (0..ITEMS).collect();
                        let value = |x: usize| x * 31 + t;
                        let visit = |x: usize| {
                            counts[x].fetch_add(1, Ordering::Relaxed);
                            if (x + t).is_multiple_of(5) {
                                spin(2_000);
                            }
                            value(x)
                        };
                        for round in 0..ROUNDS as usize {
                            let len = 1 + (round * 37 + t * 11) % ITEMS;
                            let chunk_size = 1 + (round + t) % 7;
                            let (head, tail) = items.split_at(len);
                            let got = pool.par_chunks(head, chunk_size, |chunk| {
                                chunk.iter().map(|&x| visit(x)).collect::<Vec<_>>()
                            });
                            let expected: Vec<Vec<usize>> = head
                                .chunks(chunk_size)
                                .map(|chunk| chunk.iter().map(|&x| value(x)).collect())
                                .collect();
                            assert_eq!(got, expected, "par_chunks, round {round}");
                            let got = pool.par_map(tail.to_vec(), visit);
                            let expected: Vec<usize> = tail.iter().map(|&x| value(x)).collect();
                            assert_eq!(got, expected, "par_map, round {round}");
                        }
                        for (x, count) in counts.iter().enumerate() {
                            assert_eq!(count.load(Ordering::Relaxed), ROUNDS, "item {x}");
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().unwrap();
            }
        }
    }

    #[test]
    fn a_panic_in_one_job_leaves_a_concurrent_job_intact() {
        let pool = Arc::new(ThreadPool::new(3));
        for round in 0..20 {
            let start = Arc::new(std::sync::Barrier::new(2));
            let failing = {
                let pool = Arc::clone(&pool);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        pool.par_map((0..200).collect::<Vec<usize>>(), |x| {
                            spin(500);
                            if x == 57 {
                                panic!("boom at {x}");
                            }
                            x
                        })
                    }))
                })
            };
            start.wait();
            let got = pool.par_map((0..200).collect::<Vec<usize>>(), |x| {
                spin(500);
                x * 2
            });
            let expected: Vec<usize> = (0..200).map(|x| x * 2).collect();
            assert_eq!(got, expected, "round {round}");
            let payload = failing
                .join()
                .unwrap()
                .expect_err("the failing job must re-raise its panic");
            let msg = payload.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("boom at 57"), "round {round}: {msg}");
        }
    }

    #[test]
    fn sleeping_workers_wake_for_every_job() {
        // Each round's two chunks both wait until both have started.  The
        // submitter runs at most one of them, so a worker, asleep after
        // the idle gap, must wake and claim the other.  The wait is
        // bounded: a missed wake-up fails the test instead of hanging it.
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            for round in 0..200 {
                thread::sleep(std::time::Duration::from_micros(500));
                let started = AtomicUsize::new(0);
                let out = pool.par_map(vec![0, 1], |x| {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < 2 {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "threads {threads}, round {round}: no worker claimed the second chunk"
                        );
                        thread::yield_now();
                    }
                    x
                });
                assert_eq!(out, vec![0, 1]);
            }
        }
    }

    #[test]
    fn unparsable_thread_counts_warn_and_fall_back() {
        assert_eq!(parse_threads_value("4"), Ok(4));
        assert_eq!(parse_threads_value(" 2 "), Ok(2));
        for bad in ["", "zero", "-1", "0", "4.5", "1e3"] {
            let warning = parse_threads_value(bad).expect_err(bad);
            assert!(warning.contains("PRDNN_THREADS"), "{warning}");
            assert!(warning.contains(bad), "{warning}");
        }
    }

    #[test]
    fn env_and_pool_resolution() {
        // `pool_for(None)` and a matching explicit count both reuse the
        // global pool; a different explicit count gets its own pool.
        let global_threads = global().threads();
        assert!(matches!(pool_for(None), PoolRef::Global(_)));
        assert!(matches!(pool_for(Some(global_threads)), PoolRef::Global(_)));
        let other = pool_for(Some(global_threads + 1));
        assert!(matches!(other, PoolRef::Owned(_)));
        assert_eq!(other.threads(), global_threads + 1);
    }

    #[test]
    fn even_chunk_size_covers_all_items() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 5, 16, 1000] {
            let cs = pool.even_chunk_size(n);
            assert!(cs >= 1);
            if n > 0 {
                assert!(cs * pool.threads() * CHUNKS_PER_WORKER >= n);
            }
        }
    }
}
