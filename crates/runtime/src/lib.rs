//! `lsgd_runtime` — the compute threads behind the trainer and the GEMM
//! splits.
//!
//! The repo has two kinds of parallelism, and each gets the simplest
//! mechanism that serves it:
//!
//! * **Long-lived tasks** (the m trainer workers and the monitor) are plain
//!   OS threads from `std::thread::scope`. Every spawn is a real thread, so
//!   scoped tasks are guaranteed to run concurrently and barrier-style
//!   protocols between them cannot deadlock. [`Runtime::scope`] is a
//!   one-line forward kept for the `benchmark/` package.
//! * **Intra-step splits** (GEMM bands, conv sample ranges) go through
//!   [`Runtime::parallel_for`]. `Runtime::new(n)` parks `n - 1` helper
//!   threads on one `Mutex` + `Condvar` task queue. The caller queues tasks
//!   `1..ntasks`, runs task 0 itself, takes back and runs every task no
//!   helper has claimed, then waits for the claimed ones. A caller only
//!   ever waits on a task some thread is already running, so nested and
//!   concurrent `parallel_for` calls on one runtime cannot deadlock.
//!
//! # Determinism contract
//!
//! The runtime schedules *which thread* runs a task, never *what* the task
//! computes: `parallel_for(n, f)` always runs `f(0..n)` exactly once each,
//! and callers that need bitwise-reproducible results (the GEMM and conv
//! layers) partition work into disjoint output rectangles — GEMM bands
//! computed by `lsgd_tensor::gemm::gemm_flex`, conv sample ranges by
//! [`split_range`] — and reduce in ascending range order on the calling
//! thread. Differential
//! suites (`gemm_differential`, `fastpath_differential`,
//! `prepacked_differential`) hold the serial ≡ parallel bitwise guarantee
//! across this runtime.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use lsgd_sync::backoff::Backoff;

/// The scope handle [`Runtime::scope`] passes to its closure.
pub type Scope<'scope, 'env> = std::thread::Scope<'scope, 'env>;

/// One `parallel_for` call, living in the caller's stack frame.
struct Job {
    /// The task body, lifetime-erased from the caller's `&dyn` (see the
    /// `SAFETY` note in `parallel_for`).
    f: &'static (dyn Fn(usize) + Sync),
    /// Tasks not yet finished. Each runner decrements after running.
    pending: AtomicUsize,
    /// Set (before the decrement) by any runner whose task panicked.
    poisoned: AtomicBool,
}

/// One index of a [`Job`], queued for the helpers.
struct Task {
    job: *const Job,
    index: usize,
}

// SAFETY: the pointee is a `Job` in a `parallel_for` frame that outlives
// every `Task` referring to it (see `parallel_for`), and `Job` is `Sync`.
unsafe impl Send for Task {}

impl Task {
    /// Run the task, record a panic instead of unwinding, then signal
    /// completion. The decrement is the last access to the job.
    fn run(self) {
        // SAFETY: this task is unfinished, so `pending > 0` and the job's
        // frame is still alive (see `parallel_for`).
        let job = unsafe { &*self.job };
        if catch_unwind(AssertUnwindSafe(|| (job.f)(self.index))).is_err() {
            // ORDERING: Relaxed — published to the caller by the Release
            // decrement below.
            job.poisoned.store(true, Ordering::Relaxed);
        }
        // ORDERING: Release — the completion edge: the caller's Acquire
        // load of zero sees this task's effects and the poison flag. Every
        // decrement is an RMW, so the release sequences chain and the final
        // observer synchronises with all runners.
        job.pending.fetch_sub(1, Ordering::Release);
    }
}

/// State behind the queue lock.
struct Queue {
    tasks: VecDeque<Task>,
    /// Helpers currently parked on the condvar.
    idle: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Shared {
    /// Lock the queue, ignoring poison: the queue is valid whenever the
    /// lock is released, so `parallel_for` never unwinds here.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed set of parked helper threads for [`Runtime::parallel_for`].
/// See the module docs.
pub struct Runtime {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// A runtime computing on `threads` threads total: `threads - 1` parked
    /// helpers plus the participating caller. `Runtime::new(1)` spawns
    /// nothing and runs everything inline.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                idle: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let helpers = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lsgd-rt-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("failed to spawn lsgd runtime helper")
            })
            .collect();
        Runtime { shared, helpers }
    }

    /// Total compute threads (helpers + the participating caller).
    pub fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run `f(0)`, …, `f(ntasks - 1)` exactly once each, in parallel across
    /// the helpers with the caller participating; returns when all are
    /// done. Serial (plain ascending loop on the caller) when the runtime
    /// has no helpers or `ntasks <= 1`. If any task panics, panics after
    /// all tasks finished.
    pub fn parallel_for(&self, ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.helpers.is_empty() || ntasks <= 1 {
            (0..ntasks).for_each(f);
            return;
        }
        // SAFETY: lifetime erasure so queued tasks can name `f`. This frame
        // does not return before every task referring to `job` has run: the
        // caller runs task 0, takes back every task still queued, and waits
        // until `pending == 0` for the ones helpers claimed. Each runner's
        // last access to the job is its decrement. Task panics are caught
        // and queue locking ignores poison, so nothing unwinds out of this
        // frame while a task is queued or running.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Job {
            f,
            pending: AtomicUsize::new(ntasks),
            poisoned: AtomicBool::new(false),
        };
        let task = |index| Task { job: &job, index };
        let idle = {
            let mut queue = self.shared.lock();
            queue.tasks.extend((1..ntasks).map(task));
            queue.idle
        };
        for _ in 0..idle.min(ntasks - 1) {
            self.shared.ready.notify_one();
        }
        task(0).run();
        while let Some(t) = self.take_back(&job) {
            t.run();
        }
        let mut backoff = Backoff::new();
        // ORDERING: Acquire — pairs with every runner's Release decrement,
        // so zero makes all task effects (and `poisoned`) visible here.
        while job.pending.load(Ordering::Acquire) != 0 {
            backoff.snooze();
        }
        // ORDERING: Relaxed — ordered by the Acquire load of zero above.
        if job.poisoned.load(Ordering::Relaxed) {
            panic!("lsgd_runtime::parallel_for: a task panicked");
        }
    }

    /// Remove one still-queued task of `job`, newest first.
    fn take_back(&self, job: *const Job) -> Option<Task> {
        let mut queue = self.shared.lock();
        let i = queue
            .tasks
            .iter()
            .rposition(|t| std::ptr::eq(t.job, job))?;
        queue.tasks.remove(i)
    }

    /// Forwards to `std::thread::scope`: every spawned task is its own OS
    /// thread, `scope` returns after all of them finished, and a task panic
    /// is re-raised here. The `benchmark/` package calls it as
    /// `global().scope`; code in the workspace calls `std::thread::scope`
    /// directly.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        std::thread::scope(f)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A helper runs queued tasks oldest first and parks when the queue is
/// empty.
fn helper_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            task.run();
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue.idle += 1;
            lsgd_trace::count(lsgd_trace::Counter::Park);
            queue = shared
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            lsgd_trace::count(lsgd_trace::Counter::Unpark);
            queue.idle -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Handle, global runtime, sizing
// ---------------------------------------------------------------------------

/// How a compute layer reaches a runtime: the process-global one (default)
/// or an explicitly injected instance (tests, benchmarks, embedders).
#[derive(Clone, Default)]
pub enum Handle {
    /// The process-global runtime, sized by `LSGD_THREADS` (see [`global`]).
    #[default]
    Global,
    /// An explicitly injected runtime.
    Owned(Arc<Runtime>),
}

impl Handle {
    /// The runtime this handle points at.
    pub fn get(&self) -> &Runtime {
        match self {
            Handle::Global => global(),
            Handle::Owned(rt) => rt,
        }
    }

    /// Convenience: `self.get().threads()`.
    pub fn threads(&self) -> usize {
        self.get().threads()
    }
}

impl From<Arc<Runtime>> for Handle {
    fn from(rt: Arc<Runtime>) -> Self {
        Handle::Owned(rt)
    }
}

impl From<Runtime> for Handle {
    fn from(rt: Runtime) -> Self {
        Handle::Owned(Arc::new(rt))
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Handle::Global => write!(f, "Handle::Global"),
            Handle::Owned(rt) => write!(f, "Handle::Owned({} threads)", rt.threads()),
        }
    }
}

/// The process-global runtime. Sized by `LSGD_THREADS` (≥ 1), else by
/// `available_parallelism()`.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(|| Runtime::new(default_threads()))
}

fn default_threads() -> usize {
    // The shared checked parser warns once on malformed/zero values.
    lsgd_check::env::positive_usize("LSGD_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

// ---------------------------------------------------------------------------
// split_range
// ---------------------------------------------------------------------------

/// Range `t` of `0..n` split into `tasks` contiguous near-equal ranges
/// (longer ranges first), computed without allocating so a
/// `parallel_for(tasks, …)` task can find its own range. Deterministic:
/// callers that reduce per-range partial results in ascending range order
/// get bitwise-identical results regardless of which threads ran which
/// range. The ranges are non-empty when `tasks <= n`.
///
/// # Panics
/// Panics if `t >= tasks`.
pub fn split_range(n: usize, tasks: usize, t: usize) -> Range<usize> {
    assert!(t < tasks, "split_range: task {t} of {tasks}");
    let (base, extra) = (n / tasks, n % tasks);
    let start = t * base + t.min(extra);
    start..start + base + usize::from(t < extra)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn runs_every_task_exactly_once() {
        let rt = Runtime::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}"); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn single_thread_runtime_runs_inline() {
        let rt = Runtime::new(1);
        assert_eq!(rt.threads(), 1);
        let tid = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        rt.parallel_for(8, &|_| {
            assert_eq!(std::thread::current().id(), tid);
            ran.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn runtime_survives_repeated_jobs() {
        let rt = Runtime::new(3);
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            rt.parallel_for(17, &|i| {
                sum.fetch_add(i + round, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
            });
            assert_eq!(sum.load(Ordering::Relaxed), 17 * 16 / 2 + 17 * round); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let rt = Runtime::new(2);
        rt.parallel_for(0, &|_| panic!("must not run"));
    }

    #[test]
    fn thousand_tasks_run_exactly_once() {
        let rt = Runtime::new(4);
        let n = 1_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn task_panic_propagates_and_runtime_survives() {
        let rt = Runtime::new(4);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.parallel_for(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // The runtime must still work after a poisoned job.
        let sum = AtomicUsize::new(0);
        rt.parallel_for(16, &|i| {
            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn nested_parallel_for_completes() {
        let rt = Runtime::new(4);
        let total = AtomicUsize::new(0);
        rt.parallel_for(8, &|_| {
            rt.parallel_for(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn scope_tasks_run_concurrently_even_oversubscribed() {
        // More scope tasks than threads: every spawn is its own thread, so
        // this barrier cannot deadlock.
        let rt = Runtime::new(2);
        let ntasks = 6;
        let barrier = Barrier::new(ntasks);
        rt.scope(|s| {
            for _ in 0..ntasks {
                s.spawn(|| {
                    barrier.wait();
                });
            }
        });
    }

    #[test]
    fn scope_tasks_can_use_parallel_for() {
        let rt = Runtime::new(4);
        let sums: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        rt.scope(|s| {
            for sum in &sums {
                s.spawn(|| {
                    rt.parallel_for(32, &|i| {
                        sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                    });
                });
            }
        });
        for sum in &sums {
            assert_eq!(sum.load(Ordering::Relaxed), 32 * 31 / 2); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn scope_propagates_task_panic_after_quiescing() {
        let rt = Runtime::new(2);
        let finished = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn(|| panic!("task boom"));
                s.spawn(|| {
                    finished.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                });
            });
        }));
        assert!(res.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 1); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn scope_returns_closure_value() {
        let rt = Runtime::new(2);
        let v = rt.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn drop_joins_workers() {
        let rt = Runtime::new(4);
        let sum = AtomicUsize::new(0);
        rt.parallel_for(32, &|i| {
            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        drop(rt); // must not hang
        assert_eq!(sum.load(Ordering::Relaxed), 32 * 31 / 2); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn external_threads_can_share_one_runtime() {
        let rt = Runtime::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let sum = AtomicUsize::new(0);
                        rt.parallel_for(16, &|i| {
                            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 120); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                    }
                });
            }
        });
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for n in [1usize, 2, 7, 64, 1000] {
            for max_tasks in [1usize, 2, 3, 8, 1000] {
                let tasks = max_tasks.min(n);
                let ranges: Vec<_> = (0..tasks).map(|t| split_range(n, tasks, t)).collect();
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
                // Longer ranges first, sizes differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1]));
                assert!(lens[0] - lens[lens.len() - 1] <= 1);
            }
        }
    }

    #[test]
    fn handle_default_is_global() {
        let h = Handle::default();
        assert!(matches!(h, Handle::Global));
        assert_eq!(h.threads(), global().threads());
        let owned: Handle = Runtime::new(2).into();
        assert_eq!(owned.threads(), 2);
    }
}
