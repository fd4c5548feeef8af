//! The controlled scheduler, DFS schedule explorer, and happens-before
//! race detector behind the model-checking mode (`--cfg lsgd_model`).
//!
//! # Execution model
//!
//! A *model execution* runs the test closure once under a cooperative
//! scheduler: every model thread (the root test thread plus threads
//! created with [`crate::thread::spawn`]) is a real OS thread, but
//! exactly **one** of them executes user code at any time. Threads stop
//! at *schedule points* — before every shimmed atomic operation, fence,
//! spawn, join, and yield — where the scheduler decides which thread
//! runs next. Between two schedule points a thread runs exclusively, so
//! even genuinely racy code under test cannot tear memory *in the
//! checker process*: races are detected logically (vector clocks), not
//! by letting the hardware exhibit them.
//!
//! # Exploration
//!
//! Schedules are enumerated by depth-first search over scheduling
//! decisions. A decision point with more than one allowed thread
//! becomes a branch node recording the full option set; after each
//! execution the deepest node with an unexplored option is advanced and
//! everything below it discarded (classic stateless DFS). Two pruning
//! rules keep the tree finite and small:
//!
//! * **Bounded preemptions** ([`Config::preemption_bound`]): switching
//!   away from a thread that could have continued costs one preemption;
//!   schedules with more than the bound are not explored. Forced
//!   switches (current thread blocked, finished, or yielded) are free.
//!   This is the CHESS heuristic — most concurrency bugs manifest with
//!   two or fewer preemptions — and it is the checker's main soundness
//!   limit: schedules needing more preemptions than the bound are
//!   *not* checked.
//! * **Yield deprioritization**: a thread that calls `yield_now` (the
//!   backoff shim does, in every spin loop) is not schedulable again
//!   until another thread performs an atomic store/RMW (the only events
//!   that can unblock a spin-waiter) or nothing else is runnable. Spin
//!   loops therefore cannot produce unbounded schedules: each revival
//!   is paid for by one of finitely many stores.
//!
//! # Happens-before and race detection
//!
//! Each thread carries a vector clock. Release stores publish the
//! writer's clock on the stored-to object; acquire loads join it.
//! RMWs extend the release sequence of the head store (a `Relaxed`
//! RMW preserves the object's published clock; a `Relaxed` plain store
//! discards it, exactly as in C11). Release/acquire *fences* are
//! modeled through per-thread pending clocks. Non-atomic accesses
//! (`UnsafeCell` shims, [`crate::annotate`] hooks) are checked for
//! data races FastTrack-style: an access unordered (by the clocks)
//! with a previous conflicting access fails the execution. Allocation
//! lifecycle hooks ([`crate::annotate::fresh`]/[`crate::annotate::retire`])
//! additionally detect use-after-free, double-free, and leaked regions.
//!
//! # Values are sequentially consistent
//!
//! Atomic *values* follow the interleaving (sequentially consistent)
//! semantics: a load returns the globally latest store. The checker
//! therefore does **not** explore weak-memory value outcomes (a
//! `Relaxed` load observing a stale value); what it catches is the
//! complementary — and for this codebase primary — failure class:
//! memory orderings too weak to justify the non-atomic accesses they
//! guard, which surface as happens-before data races regardless of the
//! observed values. Unsynchronized cross-thread `Relaxed` reads are
//! additionally surfaced as diagnostics ([`Report::relaxed`]).

use crate::clock::{VClock, MAX_THREADS};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Exploration parameters for [`crate::model_with`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of *preemptive* context switches per schedule
    /// (switching away from a thread that could have continued).
    /// `None` explores the full interleaving space — feasible only for
    /// tiny scenarios. Default: `Some(2)`, the CHESS sweet spot.
    pub preemption_bound: Option<u32>,
    /// Hard cap on explored schedules; exploration stops (with
    /// [`Report::complete`] = `false`) when it is reached. Default
    /// 500 000.
    pub max_schedules: u64,
    /// Per-execution cap on schedule points, as a livelock guard.
    /// Default 100 000.
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_schedules: 500_000,
            max_steps: 100_000,
        }
    }
}

impl Config {
    /// Applies `LSGD_MODEL_PREEMPTIONS` / `LSGD_MODEL_MAX_SCHEDULES`
    /// environment overrides (used by CI to scale exploration without
    /// touching test code).
    pub fn from_env(mut self) -> Self {
        if let Some(n) = crate::env::parse::<u32>("LSGD_MODEL_PREEMPTIONS") {
            self.preemption_bound = Some(n);
        }
        if let Some(n) = crate::env::parse::<u64>("LSGD_MODEL_MAX_SCHEDULES") {
            self.max_schedules = n;
        }
        self
    }
}

/// A failing schedule: the seed that replays it and the failure text.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Branch decisions of the failing schedule, one digit per branch
    /// point (the thread id that was scheduled). Feed to
    /// [`crate::replay`] or the `LSGD_MODEL_SEED` environment variable.
    pub seed: String,
    /// The failure message (panic text, race report, deadlock, ...).
    pub message: String,
}

/// Outcome of an exploration ([`crate::explore`] / [`crate::replay`]).
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of schedules executed.
    pub schedules: u64,
    /// Whether the (preemption-bounded) schedule space was exhausted.
    /// `false` when [`Config::max_schedules`] stopped exploration
    /// early or when a failure stopped it.
    pub complete: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
    /// Distinct sites where a `Relaxed` load observed a cross-thread
    /// store with no happens-before edge to the loader. A diagnostic,
    /// never a failure: such reads are legitimate in several audited
    /// places (e.g. the pool's hint load of a free-bit word).
    pub relaxed: BTreeSet<String>,
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

/// Sentinel payload for the internal "execution aborted" unwind. Raised
/// with `resume_unwind` (no panic hook noise) and swallowed by thread
/// wrappers and the root driver.
pub(crate) struct ModelAbort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// Deprioritized until another thread is scheduled.
    Yielded,
    /// Waiting for the given thread to finish.
    BlockedJoin(usize),
    Finished,
}

struct ThreadInfo {
    state: TState,
    clock: VClock,
    /// Clock published by this thread's last release fence (backs
    /// `fence(Release)` + `Relaxed` store publication).
    fence_rel: Option<VClock>,
    /// Syncs observed by `Relaxed` loads, joined at the next acquire
    /// fence.
    pending_acq: VClock,
    /// Clock at `Finished`, joined by joiners.
    final_clock: VClock,
}

impl ThreadInfo {
    fn new(clock: VClock) -> Self {
        ThreadInfo {
            state: TState::Runnable,
            clock,
            fence_rel: None,
            pending_acq: VClock::ZERO,
            final_clock: VClock::ZERO,
        }
    }
}

#[derive(Default)]
struct AtomicMeta {
    /// Release-sequence clock available to acquiring readers.
    sync: VClock,
    /// Identity of the last store, for the `Relaxed` diagnostics.
    write_tid: usize,
    write_time: u32,
    /// Per-thread own-clock component at that thread's last operation
    /// on this atomic — checked against the freeing thread's clock by
    /// `retire` (freeing memory another thread may still touch is a
    /// use-after-free even if the touch is atomic).
    last_access: [u32; MAX_THREADS],
}

#[derive(Default)]
struct DataMeta {
    write_tid: usize,
    write_time: u32,
    write_loc: Option<&'static Location<'static>>,
    reads: [u32; MAX_THREADS],
    read_locs: [Option<&'static Location<'static>>; MAX_THREADS],
}

struct Region {
    len: usize,
    live: bool,
}

/// Kind of shimmed atomic operation, as reported by the sync shims.
pub(crate) enum Op {
    Load(Ordering),
    Store(Ordering),
    /// `success == false` means a failed compare-exchange: a pure load
    /// with the failure ordering.
    Rmw {
        success: bool,
        success_order: Ordering,
        failure_order: Ordering,
    },
}

/// One DFS branch node: the allowed threads at a decision point and the
/// index currently being explored.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Choice {
    options: Vec<usize>,
    picked: usize,
}

/// The DFS trace, reused across executions of one exploration.
pub(crate) struct Explorer {
    trace: Vec<Choice>,
    pos: usize,
    /// When replaying, the forced pick (thread id) per branch point.
    replay: Option<Vec<usize>>,
}

impl Explorer {
    fn new(replay: Option<Vec<usize>>) -> Self {
        Explorer {
            trace: Vec::new(),
            pos: 0,
            replay,
        }
    }

    /// Moves to the next unexplored schedule; `false` when the space is
    /// exhausted (or when replaying, which visits exactly one schedule).
    fn advance(&mut self) -> bool {
        if self.replay.is_some() {
            return false;
        }
        while let Some(last) = self.trace.last_mut() {
            if last.picked + 1 < last.options.len() {
                last.picked += 1;
                self.pos = 0;
                return true;
            }
            self.trace.pop();
        }
        false
    }

    /// The executed schedule as a seed string (one digit per branch).
    fn seed(&self) -> String {
        self.trace
            .iter()
            .map(|c| char::from_digit(c.options[c.picked] as u32, 36).unwrap_or('?'))
            .collect()
    }
}

/// Parses a seed string back into per-branch thread ids.
pub(crate) fn parse_seed(seed: &str) -> Option<Vec<usize>> {
    seed.chars()
        .map(|c| c.to_digit(36).map(|d| d as usize))
        .collect()
}

struct ExecState {
    config: Config,
    threads: Vec<ThreadInfo>,
    active: usize,
    steps: u64,
    preemptions: u32,
    explorer: Explorer,
    atomics: BTreeMap<usize, AtomicMeta>,
    data: BTreeMap<usize, DataMeta>,
    regions: BTreeMap<usize, Region>,
    relaxed: BTreeSet<String>,
    failure: Option<String>,
    aborting: bool,
}

/// One model execution's shared scheduler. All model threads hold an
/// `Arc` to it through their thread-local context.
pub(crate) struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
}

#[derive(Clone)]
pub(crate) struct Ctx {
    pub exec: Arc<Exec>,
    pub tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current thread's model context, if it is a model thread inside
/// an active execution.
pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Whether the calling thread is currently controlled by the model
/// scheduler (always `false` outside `--cfg lsgd_model` builds).
pub(crate) fn model_active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn acquires(o: Ordering) -> bool {
    // ORDERING: not an atomic operation — this is the checker's own
    // classification of which orderings carry acquire semantics.
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(o: Ordering) -> bool {
    // ORDERING: not an atomic operation — release-semantics classifier.
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn abort() -> ! {
    std::panic::resume_unwind(Box::new(ModelAbort))
}

impl Exec {
    fn new(config: Config, explorer: Explorer) -> Self {
        let mut threads = Vec::with_capacity(4);
        let mut root_clock = VClock::ZERO;
        root_clock.tick(0);
        threads.push(ThreadInfo::new(root_clock));
        Exec {
            state: Mutex::new(ExecState {
                config,
                threads,
                active: 0,
                steps: 0,
                preemptions: 0,
                explorer,
                atomics: BTreeMap::new(),
                data: BTreeMap::new(),
                regions: BTreeMap::new(),
                relaxed: BTreeSet::new(),
                failure: None,
                aborting: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a failure (first one wins), wakes every parked thread,
    /// and unwinds the calling thread out of the execution.
    fn fail(&self, mut st: MutexGuard<'_, ExecState>, msg: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        self.cv.notify_all();
        drop(st);
        abort()
    }

    /// Records a failure without unwinding (for use outside the
    /// schedule-point protocol, e.g. from the thread wrapper).
    pub(crate) fn fail_nopanic(&self, msg: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    // -----------------------------------------------------------------
    // Scheduling
    // -----------------------------------------------------------------

    /// Picks the next thread to run. `None` means nothing is runnable:
    /// either everything is finished (fine) or a deadlock (failure is
    /// recorded by the caller). Must be called with the state locked.
    fn decide(&self, st: &mut ExecState) -> Result<Option<usize>, String> {
        let mut runnable: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t].state == TState::Runnable)
            .collect();
        if runnable.is_empty() {
            // Revive yielded threads only when nothing else can run.
            let yielded: Vec<usize> = (0..st.threads.len())
                .filter(|&t| st.threads[t].state == TState::Yielded)
                .collect();
            if yielded.is_empty() {
                let blocked = st
                    .threads
                    .iter()
                    .any(|t| matches!(t.state, TState::BlockedJoin(_)));
                if blocked {
                    return Err("deadlock: every live thread is blocked on a join".to_string());
                }
                return Ok(None);
            }
            for &t in &yielded {
                st.threads[t].state = TState::Runnable;
            }
            runnable = yielded;
        }

        let cur = st.active;
        let cur_runnable = runnable.contains(&cur);
        let options: Vec<usize> = if cur_runnable {
            let budget_left = st
                .config
                .preemption_bound
                .map_or(true, |b| st.preemptions < b);
            if budget_left {
                // Current thread first (the no-preemption default),
                // then the preemptive alternatives in tid order.
                std::iter::once(cur)
                    .chain(runnable.iter().copied().filter(|&t| t != cur))
                    .collect()
            } else {
                vec![cur]
            }
        } else {
            runnable
        };

        let pick = if options.len() == 1 {
            options[0]
        } else {
            let ex = &mut st.explorer;
            let pick = if ex.pos < ex.trace.len() {
                let node = &ex.trace[ex.pos];
                if node.options != options {
                    return Err(format!(
                        "schedule divergence at branch {}: recorded options {:?}, \
                         recomputed {:?} — the test closure is nondeterministic",
                        ex.pos, node.options, options
                    ));
                }
                node.options[node.picked]
            } else if let Some(replay) = &ex.replay {
                match replay.get(ex.pos) {
                    Some(&tid) if options.contains(&tid) => {
                        let picked = options.iter().position(|&t| t == tid).unwrap();
                        ex.trace.push(Choice {
                            options: options.clone(),
                            picked,
                        });
                        tid
                    }
                    Some(&tid) => {
                        return Err(format!(
                            "replay seed diverged at branch {}: seed wants thread {tid}, \
                             options are {options:?}",
                            ex.pos
                        ));
                    }
                    None => {
                        return Err(format!(
                            "replay seed exhausted at branch {} (options {options:?})",
                            ex.pos
                        ));
                    }
                }
            } else {
                ex.trace.push(Choice {
                    options: options.clone(),
                    picked: 0,
                });
                options[0]
            };
            st.explorer.pos += 1;
            pick
        };

        if cur_runnable && pick != cur {
            st.preemptions += 1;
        }
        Ok(Some(pick))
    }

    /// Blocks until `tid` is the active thread (abort-aware). Must be
    /// entered with the state locked; returns with it locked.
    fn wait_for_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> MutexGuard<'a, ExecState> {
        while st.active != tid {
            if st.aborting {
                drop(st);
                abort();
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// The schedule point: counts a step, lets the explorer switch
    /// threads, and returns (locked) once `tid` is active. The abort
    /// fast path makes shim calls during abort-unwinding (e.g. from
    /// `Drop` impls) pass straight through instead of panicking again,
    /// which would abort the process.
    fn schedule<'a>(&'a self, tid: usize) -> Option<MutexGuard<'a, ExecState>> {
        let mut st = self.lock();
        if st.aborting {
            return None;
        }
        st.steps += 1;
        if st.steps > st.config.max_steps {
            let max = st.config.max_steps;
            self.fail(
                st,
                format!("exceeded {max} schedule points in one execution (livelock?)"),
            );
        }
        match self.decide(&mut st) {
            Ok(Some(pick)) => {
                if pick != tid {
                    st.active = pick;
                    self.cv.notify_all();
                    st = self.wait_for_turn(st, tid);
                }
                Some(st)
            }
            Ok(None) => Some(st), // sole survivor; keep running
            Err(msg) => self.fail(st, msg),
        }
    }

    // -----------------------------------------------------------------
    // Visible operations (called from the sync shims)
    // -----------------------------------------------------------------

    /// Runs one atomic operation at a schedule point: schedules, then
    /// performs `phys` (the real std atomic op — exclusive by
    /// construction) and applies the clock rules for `op`.
    pub(crate) fn atomic_op<R>(
        &self,
        tid: usize,
        addr: usize,
        loc: &'static Location<'static>,
        phys: impl FnOnce() -> (R, Op),
    ) -> R {
        let st = self.schedule(tid);
        let (r, op) = phys();
        let Some(mut st) = st else { return r };
        if let Err(msg) = Self::record_atomic(&mut st, tid, addr, loc, &op) {
            self.fail(st, msg);
        }
        r
    }

    fn check_region(st: &ExecState, addr: usize) -> Result<(), String> {
        if let Some((&start, region)) = st.regions.range(..=addr).next_back() {
            if addr < start + region.len && !region.live {
                return Err("use-after-free: access to retired memory region".to_string());
            }
        }
        Ok(())
    }

    fn record_atomic(
        st: &mut ExecState,
        tid: usize,
        addr: usize,
        loc: &'static Location<'static>,
        op: &Op,
    ) -> Result<(), String> {
        Self::check_region(st, addr)
            .map_err(|e| format!("{e} (atomic access by thread {tid} at {loc})"))?;
        let time = st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock;
        let fence_rel = st.threads[tid].fence_rel;
        // Snapshot the object's published state, then apply the clock
        // rules (two phases to keep the borrows of `st` disjoint).
        let (sync, w_tid, w_time) = {
            let meta = st.atomics.entry(addr).or_default();
            meta.last_access[tid] = time;
            (meta.sync, meta.write_tid, meta.write_time)
        };
        // Unsynchronized cross-thread Relaxed read diagnostic: the last
        // store is not happens-before this (non-acquiring) load.
        let unsynced = w_tid != tid && w_time > clock.get(w_tid);
        let mut flag_relaxed = false;
        let mut read_side = |st: &mut ExecState, acq: bool| {
            if acq {
                st.threads[tid].clock.join(&sync);
            } else {
                st.threads[tid].pending_acq.join(&sync);
                flag_relaxed = unsynced;
            }
        };
        match *op {
            Op::Load(o) => read_side(st, acquires(o)),
            Op::Store(o) => {
                let meta = st.atomics.entry(addr).or_default();
                meta.write_tid = tid;
                meta.write_time = time;
                // A plain store starts a fresh release sequence (or
                // none at all: Relaxed publishes only through an
                // earlier release fence).
                meta.sync = if releases(o) {
                    clock
                } else {
                    fence_rel.unwrap_or(VClock::ZERO)
                };
            }
            Op::Rmw {
                success,
                success_order,
                failure_order,
            } => {
                if success {
                    read_side(st, acquires(success_order));
                    let joined = st.threads[tid].clock;
                    let meta = st.atomics.entry(addr).or_default();
                    meta.write_tid = tid;
                    meta.write_time = time;
                    // An RMW extends the existing release sequence.
                    if releases(success_order) {
                        meta.sync.join(&joined);
                    } else if let Some(f) = fence_rel {
                        meta.sync.join(&f);
                    }
                } else {
                    read_side(st, acquires(failure_order));
                }
            }
        }
        // A store (or successful RMW) may be exactly what a yielded
        // spin-waiter is waiting on: make every yielded thread
        // schedulable again. Pure loads never revive anyone, so two
        // spin-waiters cannot ping-pong each other forever while the
        // thread they both wait on starves — and each thread performs
        // finitely many stores, so revivals (hence schedules) stay
        // finite.
        if matches!(*op, Op::Store(_) | Op::Rmw { success: true, .. }) {
            for t in 0..st.threads.len() {
                if t != tid && st.threads[t].state == TState::Yielded {
                    st.threads[t].state = TState::Runnable;
                }
            }
        }
        if flag_relaxed {
            st.relaxed
                .insert(format!("{loc}: Relaxed load observes unsynchronized cross-thread store"));
        }
        Ok(())
    }

    /// A release/acquire/SeqCst fence at a schedule point.
    pub(crate) fn fence_op(&self, tid: usize, order: Ordering) {
        let Some(mut st) = self.schedule(tid) else {
            return;
        };
        st.threads[tid].clock.tick(tid);
        if acquires(order) {
            let pending = std::mem::replace(&mut st.threads[tid].pending_acq, VClock::ZERO);
            st.threads[tid].clock.join(&pending);
        }
        if releases(order) {
            st.threads[tid].fence_rel = Some(st.threads[tid].clock);
        }
    }

    /// A non-atomic data access (no schedule point; exclusivity is
    /// already guaranteed). Fails the execution on a happens-before
    /// data race.
    pub(crate) fn data_access(
        &self,
        tid: usize,
        addr: usize,
        is_write: bool,
        loc: &'static Location<'static>,
    ) {
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        if let Err(e) = Self::check_region(&st, addr) {
            self.fail(st, format!("{e} (data access by thread {tid} at {loc})"));
        }
        let time = st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock;
        let (w_tid, w_time, w_loc, r_times, r_locs) = {
            let meta = st.data.entry(addr).or_default();
            (
                meta.write_tid,
                meta.write_time,
                meta.write_loc,
                meta.reads,
                meta.read_locs,
            )
        };
        // A conflicting earlier access races unless it happens-before
        // this one under the acquired clocks.
        if w_time > clock.get(w_tid) {
            let kind = if is_write { "write" } else { "read" };
            let w_loc = w_loc.map_or("<unknown>".to_string(), |l| l.to_string());
            self.fail(
                st,
                format!(
                    "data race: {kind} by thread {tid} at {loc} is unordered with \
                     write by thread {w_tid} at {w_loc}"
                ),
            );
        }
        if is_write {
            for (s, &rt) in r_times.iter().enumerate() {
                if s != tid && rt > clock.get(s) {
                    let r_loc = r_locs[s].map_or("<unknown>".to_string(), |l| l.to_string());
                    self.fail(
                        st,
                        format!(
                            "data race: write by thread {tid} at {loc} is unordered with \
                             read by thread {s} at {r_loc}"
                        ),
                    );
                }
            }
            let meta = st.data.entry(addr).or_default();
            meta.write_tid = tid;
            meta.write_time = time;
            meta.write_loc = Some(loc);
            // All earlier reads are now ordered before this write.
            meta.reads = [0; MAX_THREADS];
            meta.read_locs = [None; MAX_THREADS];
        } else {
            let meta = st.data.entry(addr).or_default();
            meta.reads[tid] = time;
            meta.read_locs[tid] = Some(loc);
        }
    }

    /// Registers a freshly allocated region (clears any stale history
    /// a recycled address range may carry).
    pub(crate) fn fresh(&self, addr: usize, len: usize) {
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        let stale: Vec<usize> = st
            .regions
            .range(..addr + len)
            .filter(|(&s, r)| s + r.len > addr)
            .map(|(&s, _)| s)
            .collect();
        for s in stale {
            st.regions.remove(&s);
        }
        let in_range: Vec<usize> = st
            .atomics
            .range(addr..addr + len)
            .map(|(&a, _)| a)
            .collect();
        for a in in_range {
            st.atomics.remove(&a);
        }
        let in_range: Vec<usize> = st.data.range(addr..addr + len).map(|(&a, _)| a).collect();
        for a in in_range {
            st.data.remove(&a);
        }
        st.regions.insert(addr, Region { len, live: true });
    }

    /// Retires a region registered with [`Exec::fresh`]: checks the
    /// free is ordered after every recorded access to memory inside it,
    /// detects double frees, and arms use-after-free detection for the
    /// range.
    pub(crate) fn retire(&self, tid: usize, addr: usize, len: usize, loc: &'static Location<'static>) {
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        let retire_state = match st.regions.get_mut(&addr) {
            Some(r) if r.live => {
                r.live = false;
                r.len = r.len.max(len);
                0u8
            }
            Some(_) => 1,
            None => 2,
        };
        match retire_state {
            1 => self.fail(
                st,
                format!("double free: region retired twice (thread {tid} at {loc})"),
            ),
            2 => self.fail(
                st,
                format!(
                    "invalid free: retiring a region never registered as fresh \
                     (thread {tid} at {loc})"
                ),
            ),
            _ => {}
        }
        let clock = st.threads[tid].clock;
        let range = addr..addr + len;
        let mut bad: Option<String> = None;
        for (_, meta) in st.atomics.range(range.clone()) {
            for s in 0..MAX_THREADS {
                if meta.last_access[s] > clock.get(s) {
                    bad = Some(format!(
                        "freed while in use: thread {tid} (at {loc}) frees memory whose \
                         atomic state was accessed by thread {s} with no happens-before \
                         edge to the free"
                    ));
                }
            }
        }
        for (_, meta) in st.data.range(range.clone()) {
            if meta.write_time > clock.get(meta.write_tid) {
                bad = Some(format!(
                    "freed while in use: thread {tid} (at {loc}) frees memory written by \
                     thread {} with no happens-before edge to the free",
                    meta.write_tid
                ));
            }
            for s in 0..MAX_THREADS {
                if meta.reads[s] > clock.get(s) {
                    bad = Some(format!(
                        "freed while in use: thread {tid} (at {loc}) frees memory read by \
                         thread {s} with no happens-before edge to the free"
                    ));
                }
            }
        }
        if let Some(msg) = bad {
            self.fail(st, msg);
        }
        let keys: Vec<usize> = st.atomics.range(range.clone()).map(|(&a, _)| a).collect();
        for a in keys {
            st.atomics.remove(&a);
        }
        let keys: Vec<usize> = st.data.range(range).map(|(&a, _)| a).collect();
        for a in keys {
            st.data.remove(&a);
        }
    }

    // -----------------------------------------------------------------
    // Threads
    // -----------------------------------------------------------------

    /// Registers a child thread (happens-before edge from the spawn).
    /// Returns its tid. The spawn itself is a schedule point.
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let Some(mut st) = self.schedule(parent) else {
            // Aborting: hand out a dummy tid; the child will exit at
            // its start gate.
            return MAX_THREADS;
        };
        if st.threads.len() >= MAX_THREADS {
            self.fail(
                st,
                format!("model execution spawned more than {MAX_THREADS} threads"),
            );
        }
        st.threads[parent].clock.tick(parent);
        let child_clock = st.threads[parent].clock;
        let tid = st.threads.len();
        st.threads.push(ThreadInfo::new(child_clock));
        tid
    }

    /// Parks the brand-new child OS thread until the scheduler picks
    /// it for the first time. Returns `false` if the execution aborted
    /// before that (the child must exit without running user code).
    pub(crate) fn start_gate(&self, tid: usize) -> bool {
        let mut st = self.lock();
        loop {
            if st.aborting {
                return false;
            }
            if st.active == tid {
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks `tid` finished, wakes joiners, and hands the schedule to
    /// the next runnable thread.
    pub(crate) fn finish_thread(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].state = TState::Finished;
        st.threads[tid].final_clock = st.threads[tid].clock;
        for t in 0..st.threads.len() {
            if st.threads[t].state == TState::BlockedJoin(tid) {
                st.threads[t].state = TState::Runnable;
            }
        }
        if st.aborting {
            self.cv.notify_all();
            return;
        }
        if st.active == tid {
            match self.decide(&mut st) {
                Ok(Some(pick)) => {
                    st.active = pick;
                    self.cv.notify_all();
                }
                Ok(None) => {
                    // Everything finished; wake the root drain.
                    self.cv.notify_all();
                }
                Err(msg) => {
                    // Record without unwinding: the thread is already
                    // on its way out.
                    if st.failure.is_none() {
                        st.failure = Some(msg);
                    }
                    st.aborting = true;
                    self.cv.notify_all();
                }
            }
        }
    }

    /// Blocks `tid` until `target` finishes, joining its final clock.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        let Some(mut st) = self.schedule(tid) else {
            return;
        };
        if st.threads[target].state != TState::Finished {
            st.threads[tid].state = TState::BlockedJoin(target);
            match self.decide(&mut st) {
                Ok(Some(pick)) => {
                    st.active = pick;
                    self.cv.notify_all();
                }
                Ok(None) => unreachable!("joiner blocked but nothing runnable"),
                Err(msg) => self.fail(st, msg),
            }
            loop {
                if st.aborting {
                    drop(st);
                    abort();
                }
                if st.active == tid && st.threads[tid].state == TState::Runnable {
                    break;
                }
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        st.threads[tid].clock.tick(tid);
        let final_clock = st.threads[target].final_clock;
        st.threads[tid].clock.join(&final_clock);
    }

    /// Deprioritizes the calling thread until another thread has been
    /// scheduled (the spin-loop escape hatch; see the module docs).
    pub(crate) fn yield_thread(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        st.steps += 1;
        if st.steps > st.config.max_steps {
            let max = st.config.max_steps;
            self.fail(
                st,
                format!("exceeded {max} schedule points in one execution (livelock?)"),
            );
        }
        st.threads[tid].state = TState::Yielded;
        match self.decide(&mut st) {
            Ok(Some(pick)) => {
                st.threads[tid].state = if pick == tid {
                    TState::Runnable
                } else {
                    st.active = pick;
                    self.cv.notify_all();
                    TState::Yielded
                };
                if pick != tid {
                    let mut st = self.wait_for_turn(st, tid);
                    st.threads[tid].state = TState::Runnable;
                }
            }
            Ok(None) => {
                st.threads[tid].state = TState::Runnable;
            }
            Err(msg) => self.fail(st, msg),
        }
    }

    /// Root-only: waits until every spawned thread has finished,
    /// scheduling them as needed. The root thread is marked finished
    /// for scheduling purposes while it drains.
    fn drain_root(&self) {
        let mut st = self.lock();
        st.threads[0].state = TState::Finished;
        st.threads[0].final_clock = st.threads[0].clock;
        loop {
            let all_done = st
                .threads
                .iter()
                .all(|t| t.state == TState::Finished);
            if all_done {
                return;
            }
            if st.aborting {
                self.cv.notify_all();
            } else if st.active == 0 {
                match self.decide(&mut st) {
                    Ok(Some(pick)) => {
                        st.active = pick;
                        self.cv.notify_all();
                    }
                    Ok(None) => {}
                    Err(msg) => {
                        if st.failure.is_none() {
                            st.failure = Some(msg);
                        }
                        st.aborting = true;
                        self.cv.notify_all();
                    }
                }
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------
// The exploration driver
// ---------------------------------------------------------------------

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// RAII guard restoring the root thread's empty model context even if
/// the closure unwinds.
struct RootCtxGuard;

impl Drop for RootCtxGuard {
    fn drop(&mut self) {
        set_ctx(None);
    }
}

fn run_one(
    config: &Config,
    explorer: Explorer,
    f: &(dyn Fn() + Sync),
) -> (Explorer, Option<String>, BTreeSet<String>, String) {
    let exec = Arc::new(Exec::new(config.clone(), explorer));
    set_ctx(Some(Ctx {
        exec: Arc::clone(&exec),
        tid: 0,
    }));
    let _guard = RootCtxGuard;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if let Err(payload) = result {
        if payload.downcast_ref::<ModelAbort>().is_none() {
            exec.fail_nopanic(format!("panic: {}", panic_message(payload.as_ref())));
        }
    }
    exec.drain_root();
    drop(_guard);

    let mut st = exec.lock();
    if st.failure.is_none() {
        let leaked = st.regions.values().filter(|r| r.live).count();
        if leaked > 0 {
            st.failure = Some(format!(
                "leak: {leaked} memory region(s) registered as fresh were never retired \
                 by the end of the execution"
            ));
        }
    }
    let failure = st.failure.take();
    let relaxed = std::mem::take(&mut st.relaxed);
    let explorer = std::mem::replace(&mut st.explorer, Explorer::new(None));
    let seed = explorer.seed();
    drop(st);
    (explorer, failure, relaxed, seed)
}

/// Explores the schedule space of `f` (see [`crate::explore`]).
pub(crate) fn explore_impl(config: Config, f: impl Fn() + Sync, replay: Option<String>) -> Report {
    assert!(
        ctx().is_none(),
        "nested model executions are not supported"
    );
    let replay_choices = replay.as_ref().map(|seed| {
        parse_seed(seed).unwrap_or_else(|| {
            panic!("invalid replay seed {seed:?}: must be base-36 thread ids")
        })
    });
    let mut explorer = Explorer::new(replay_choices);
    let mut report = Report {
        schedules: 0,
        complete: false,
        failure: None,
        relaxed: BTreeSet::new(),
    };
    loop {
        let (ex, failure, relaxed, seed) = run_one(&config, explorer, &f);
        explorer = ex;
        report.schedules += 1;
        if report.relaxed.len() < 256 {
            report.relaxed.extend(relaxed);
        }
        if let Some(message) = failure {
            report.failure = Some(Failure { seed, message });
            return report;
        }
        if !explorer.advance() {
            report.complete = true;
            return report;
        }
        if report.schedules >= config.max_schedules {
            return report;
        }
    }
}
