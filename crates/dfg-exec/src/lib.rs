//! Persistent work-stealing thread pool for host-side kernel execution.
//!
//! The paper's premise is that derived-field generation should run "as fast
//! as the many-core hardware allows", yet spawning an OS thread per kernel
//! launch costs tens of microseconds — more than a small kernel's entire
//! body. This crate keeps a fixed set of workers alive for the whole
//! process (parked on a condvar when idle), so a launch is a queue push and
//! a wakeup rather than a `clone(2)`.
//!
//! # Architecture
//!
//! * One global [`Pool`], built lazily on first use and sized by the
//!   `DFG_NUM_THREADS` environment variable (falling back to
//!   [`std::thread::available_parallelism`]).
//! * Each worker owns a deque of jobs; submitters distribute jobs
//!   round-robin across the deques and idle workers *steal* from their
//!   siblings before parking, so an imbalanced level never leaves a worker
//!   idle while another has a backlog.
//! * The core primitive is [`parallel_for`]: run `f(0..n)` with the calling
//!   thread participating. Blocking helpers *help* — while waiting for
//!   their spawned jobs they pop and run other pool jobs — so nested
//!   `parallel_for` calls (a kernel whose chunks themselves fan out) cannot
//!   deadlock the fixed worker set.
//!
//! # Determinism
//!
//! `parallel_for` promises nothing about *which* thread runs an index, but
//! callers in this workspace only ever write disjoint output ranges per
//! index, so results are bit-identical for any thread count — including
//! `DFG_NUM_THREADS=1`, which short-circuits to an inline loop on the
//! calling thread. Tests can force that path per-thread with
//! [`with_serial`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

/// Queues + parking shared between workers and submitters.
struct Shared {
    /// One deque per worker; submitters push round-robin, owners pop
    /// front, thieves (siblings and helping callers) steal from any.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet claimed. Checked under `sleep` before a
    /// worker parks, so a push-then-notify can never be lost.
    pending: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin cursor for job placement.
    place: AtomicUsize,
    /// Lifetime count of jobs executed by pool workers (not helpers).
    executed: AtomicU64,
    /// Lifetime count of jobs claimed from a deque the popper doesn't own.
    steals: AtomicU64,
}

impl Shared {
    /// Pop a job: own deque first, then steal from siblings.
    /// `owner` is `None` for threads outside the pool (helping callers).
    fn pop(&self, owner: Option<usize>) -> Option<Job> {
        if let Some(me) = owner {
            if let Some(job) = self.locals[me].lock().unwrap().pop_front() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        let start = owner.map_or(0, |me| me + 1);
        for k in 0..self.locals.len() {
            let q = (start + k) % self.locals.len();
            if owner == Some(q) {
                continue;
            }
            if let Some(job) = self.locals[q].lock().unwrap().pop_front() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Queue a job on the next deque in round-robin order and wake a worker.
    fn push(&self, job: Job) {
        let slot = self.place.fetch_add(1, Ordering::Relaxed) % self.locals.len();
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.locals[slot].lock().unwrap().push_back(job);
        // Taking the sleep lock (even empty) fences against a worker that
        // saw pending == 0 but has not yet parked; notify while holding it.
        let _g = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.pop(Some(me)) {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            job();
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.pending.load(Ordering::Acquire) > 0 {
            continue; // a job arrived between pop() and lock(); retry
        }
        drop(shared.wake.wait(guard).unwrap());
    }
}

/// A persistent pool of worker threads.
///
/// Most code should use the process-global pool via [`parallel_for`] /
/// [`current_num_threads`]; constructing a [`Pool`] directly is for
/// benchmarks and tests that need a specific worker count.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers. `threads <= 1` spawns no
    /// workers at all: every [`Pool::parallel_for`] runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let nworkers = if threads == 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            locals: (0..nworkers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            place: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let workers = (0..nworkers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dfg-exec-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn dfg-exec worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// The worker count this pool was sized for (≥ 1; `1` means inline).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Lifetime `(jobs_executed_by_workers, jobs_stolen)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.shared.executed.load(Ordering::Relaxed),
            self.shared.steals.load(Ordering::Relaxed),
        )
    }

    /// Run `f(i)` for every `i in 0..n`, with the calling thread
    /// participating and blocking until all indices have completed.
    ///
    /// Indices are claimed from a shared counter, so distribution is
    /// dynamic; a panic in `f` is caught on whichever thread hit it and
    /// re-raised on the caller once all in-flight work has drained.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        if self.threads <= 1 || n == 1 || serial_override() {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let state = Arc::new(ForState {
            next: AtomicUsize::new(0),
            n,
            jobs_done: Mutex::new(0),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        // Erase the borrow: jobs are 'static, but we block below until
        // every spawned job has finished, so `f` outlives all uses.
        let func: &(dyn Fn(usize) + Sync) = &f;
        let func: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(func) };
        let spawned = (n - 1).min(self.threads.saturating_sub(1)).max(1);
        for _ in 0..spawned {
            let state = Arc::clone(&state);
            self.shared.push(Box::new(move || {
                state.drain(func);
                state.finish_job();
            }));
        }
        state.drain(&f);
        // Help: while our jobs are outstanding, run other pool work (they
        // may be queued behind us, or be nested loops of our own tasks).
        loop {
            {
                let done = state.jobs_done.lock().unwrap();
                if *done == spawned {
                    break;
                }
            }
            if let Some(job) = self.shared.pop(None) {
                job();
                continue;
            }
            let done = state.jobs_done.lock().unwrap();
            if *done == spawned {
                break;
            }
            // Timed wait: a job we could help with may be pushed between
            // the pop above and this wait, so never park unconditionally.
            drop(
                state
                    .all_done
                    .wait_timeout(done, Duration::from_micros(200))
                    .unwrap(),
            );
        }
        let payload = state.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Shared progress for one `parallel_for` call.
struct ForState {
    next: AtomicUsize,
    n: usize,
    jobs_done: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ForState {
    /// Claim and run indices until the counter is exhausted (or a panic
    /// elsewhere aborts the loop — the panic is about to propagate anyway).
    fn drain(&self, f: &(dyn Fn(usize) + Sync)) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                self.panicked.store(true, Ordering::Relaxed);
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                return;
            }
        }
    }

    fn finish_job(&self) {
        let mut done = self.jobs_done.lock().unwrap();
        *done += 1;
        self.all_done.notify_all();
    }
}

/// Read `DFG_NUM_THREADS`; empty or unparseable values fall back to
/// [`std::thread::available_parallelism`].
fn configured_threads() -> usize {
    match std::env::var("DFG_NUM_THREADS") {
        Ok(s) if !s.trim().is_empty() => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        _ => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-global pool, built on first use. `DFG_NUM_THREADS` is read
/// once, here; changing it after the first launch has no effect.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(configured_threads()))
}

/// Worker count of the global pool (≥ 1), honoring `DFG_NUM_THREADS` and
/// any active [`with_serial`] override.
pub fn current_num_threads() -> usize {
    if serial_override() {
        1
    } else {
        global().num_threads()
    }
}

/// Run `f(i)` for `i in 0..n` on the global pool. See
/// [`Pool::parallel_for`].
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    global().parallel_for(n, f);
}

/// The chunk size a length-`n` loop should actually split at: `min_chunk`
/// scaled up so the loop yields at most `4 × threads` chunks (bounding
/// queue traffic), and the whole range when only one thread would run.
pub fn effective_chunk(n: usize, min_chunk: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 {
        return n.max(1);
    }
    min_chunk.max(n.div_ceil(threads * 4)).max(1)
}

std::thread_local! {
    static SERIAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn serial_override() -> bool {
    SERIAL.with(|s| s.get())
}

/// Force every `parallel_for` reached from this thread during `f` to run
/// inline (as if `DFG_NUM_THREADS=1`), including nested loops — the
/// serial-vs-parallel bit-parity tests diff against this path without
/// needing a separate process.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    SERIAL.with(|s| {
        let prev = s.replace(true);
        let out = f();
        s.set(prev);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = Pool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_launches() {
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.parallel_for(17, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1700);
        // Every queued job was claimed — by a worker or a helping caller.
        assert_eq!(pool.shared.pending.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let tid = std::thread::current().id();
        pool.parallel_for(64, |_| {
            assert_eq!(std::thread::current().id(), tid);
        });
        assert_eq!(pool.shared.pending.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats(), (0, 0));
    }

    #[test]
    fn nested_parallel_for_completes() {
        let pool = Arc::new(Pool::new(2));
        let total = AtomicUsize::new(0);
        let p = Arc::clone(&pool);
        pool.parallel_for(8, |_| {
            p.parallel_for(32, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 32);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::new(2);
        let hit = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(100, |i| {
                if i == 37 {
                    panic!("index 37");
                }
            });
        }));
        assert!(hit.is_err());
        // The pool must still be usable after a propagated panic.
        let total = AtomicUsize::new(0);
        pool.parallel_for(10, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn with_serial_forces_inline_execution() {
        let pool = Pool::new(4);
        let tid = std::thread::current().id();
        with_serial(|| {
            pool.parallel_for(256, |_| {
                assert_eq!(std::thread::current().id(), tid);
            });
            assert_eq!(current_num_threads(), 1);
        });
    }

    #[test]
    fn effective_chunk_honors_thread_count() {
        // Serial: the whole range is one chunk regardless of min_chunk.
        with_serial(|| {
            assert_eq!(effective_chunk(100_000, 16), 100_000);
            assert_eq!(effective_chunk(0, 16), 1);
        });
    }

    #[test]
    fn zero_length_loop_is_a_no_op() {
        let pool = Pool::new(2);
        pool.parallel_for(0, |_| panic!("no indices expected"));
    }
}
