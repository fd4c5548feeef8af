//! The parallel training executor: **one loop, three stores**.
//!
//! The paper's SEQ, ASYNC, HOGWILD! and Leashed-SGD thread bodies
//! (Algorithms 2–4) are one skeleton — read θ, compute a gradient, make
//! the update visible — and this module says so once. [`WorkerState::step`]
//! is that skeleton; how θ is read and how an update lands are the two
//! verbs of a [`ParamStore`], implemented by the three stores (see the
//! table in [`crate::store`]). [`train`] matches on the algorithm exactly
//! once, to pick the store; everything after that is generic and
//! monomorphised per store, so the step pays no dispatch.
//!
//! [`train`] runs `m` workers, each looping `step` until told to stop,
//! while one more task acts as the convergence monitor: it periodically
//! snapshots the shared parameters, evaluates the loss, drives the
//! ε-convergence tracker (including the Crash/Diverge classification of
//! §V.2) and samples the memory gauge. Workers record per-update
//! staleness, `Tc`/`Tu` timings and iteration latency — the raw series
//! behind every figure in the paper's evaluation.

use crate::algorithm::Algorithm;
use crate::baseline::{HogwildParams, LockedParams};
use crate::heartbeat::{BeatPhase, HeartbeatBoard};
use crate::mem::MemoryGauge;
use crate::problem::Problem;
use crate::result::{RunResult, UpdateHistograms, WorkerCrash};
use crate::shard::{effective_shards, ShardedShared};
use crate::store::{Direction, ParamStore};
use lsgd_metrics::{ConvergenceTracker, OnlineStats, Series};
use lsgd_tensor::SmallRng64;
use lsgd_trace::Phase;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Number of worker threads `m` (forced to 1 for `SEQ`).
    pub threads: usize,
    /// Step size η.
    pub eta: f32,
    /// ε thresholds as fractions of the initial loss (e.g. `[0.5, 0.1]`).
    pub epsilons: Vec<f64>,
    /// Stop after this many published updates (budget).
    pub max_updates: u64,
    /// Stop after this much wall-clock time (budget).
    pub max_wall: Duration,
    /// Monitor cadence (loss evaluation + memory sampling). The monitor
    /// sleeps in slices of `min(eval_every, 20 ms)` until it has slept at
    /// least `eval_every`, then evaluates, so the real period is
    /// `eval_every` rounded up to a whole number of slices plus one
    /// `eval_loss`: 25 ms observes every 40 ms plus one evaluation.
    pub eval_every: Duration,
    /// Seed for parameter init and worker RNG streams.
    pub seed: u64,
    /// Unit-bin cap for the staleness histograms.
    pub staleness_cap: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            algorithm: Algorithm::Leashed { persistence: None },
            threads: 2,
            eta: 0.005,
            epsilons: vec![0.5],
            max_updates: 100_000,
            max_wall: Duration::from_secs(60),
            eval_every: Duration::from_millis(50),
            seed: 1,
            staleness_cap: 512,
        }
    }
}

/// Per-worker statistics merged into the [`RunResult`].
#[derive(Debug)]
pub struct WorkerStats {
    /// Staleness τ, scheduling staleness τs and dirty-shard histograms.
    pub hists: UpdateHistograms,
    /// Updates that took effect.
    pub published: u64,
    /// Updates abandoned by the persistence bound.
    pub aborted: u64,
    /// Lost CAS races.
    pub failed_cas: u64,
    /// Consistent snapshots this worker saw degrade to a Fast re-read.
    pub degraded: u64,
    /// Gradient computation time `Tc`.
    pub tc: OnlineStats,
    /// Update time `Tu` (per CAS attempt for the LAU-SPC stores).
    pub tu: OnlineStats,
    /// Whole-iteration latency.
    pub iter_time: OnlineStats,
}

impl WorkerStats {
    fn new(cap: usize) -> Self {
        WorkerStats {
            hists: UpdateHistograms::new(cap),
            published: 0,
            aborted: 0,
            failed_cas: 0,
            degraded: 0,
            tc: OnlineStats::new(),
            tu: OnlineStats::new(),
            iter_time: OnlineStats::new(),
        }
    }

    fn merge(&mut self, other: &WorkerStats) {
        self.hists.merge(&other.hists);
        self.published += other.published;
        self.aborted += other.aborted;
        self.failed_cas += other.failed_cas;
        self.degraded += other.degraded;
        self.tc.merge(&other.tc);
        self.tu.merge(&other.tu);
        self.iter_time.merge(&other.iter_time);
    }
}

/// Control block shared by workers and the monitor.
struct Control {
    stop: AtomicBool,
    crashed: AtomicBool,
    total_published: AtomicU64,
    /// Workers still running their loop. Decremented once per worker on
    /// exit (normal or contained panic); the monitor stops the run when
    /// it hits 0 before `stop` was set (= every worker crashed).
    alive: AtomicUsize,
}

/// Stringifies a panic payload for [`WorkerCrash`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Per-worker context for heartbeats: which cell of which board this
/// worker beats on.
#[derive(Clone, Copy)]
pub struct WorkerCtx<'a> {
    /// The run's heartbeat board.
    pub board: &'a HeartbeatBoard,
    /// This worker's cell on `board`; also selects its RNG stream.
    pub worker_id: usize,
}

impl WorkerCtx<'_> {
    /// One beat per iteration: ticks the liveness counter and sets the
    /// phase label.
    fn beat(&self, phase: BeatPhase) {
        self.board.beat(self.worker_id, phase);
    }

    /// Mid-iteration phase label (no tick).
    fn phase(&self, phase: BeatPhase) {
        self.board.set_phase(self.worker_id, phase);
    }
}

/// Runs one training execution and returns its full measurement record.
///
/// # Panics
/// Panics if the initial evaluation loss is not finite and positive
/// (untrainable setup), or if `threads == 0`.
pub fn train<P: Problem>(problem: &P, cfg: &TrainConfig) -> RunResult {
    assert!(cfg.threads > 0, "need at least one worker thread");
    let threads = if cfg.algorithm == Algorithm::Sequential {
        1
    } else {
        cfg.threads
    };
    let dim = problem.dim();
    let gauge = Arc::new(MemoryGauge::new());

    let theta0 = problem.init_theta(cfg.seed);

    // The one place the algorithm selects code: which store the generic
    // run is instantiated with.
    match cfg.algorithm {
        Algorithm::Sequential | Algorithm::AsyncLock => {
            let store = LockedParams::new(theta0, Arc::clone(&gauge));
            run_on(problem, cfg, threads, &gauge, &store)
        }
        Algorithm::Hogwild => {
            let store = HogwildParams::new(&theta0, Arc::clone(&gauge));
            run_on(problem, cfg, threads, &gauge, &store)
        }
        Algorithm::Leashed { .. } | Algorithm::ShardedLeashed { .. } => {
            // Leashed-SGD is one shard; `shards == 0` selects the
            // dim/worker heuristic.
            let shards = match cfg.algorithm {
                Algorithm::ShardedLeashed { shards, .. } => effective_shards(shards, dim, threads),
                _ => 1,
            };
            let store = ShardedShared::new(&theta0, shards, Arc::clone(&gauge), true);
            run_on(problem, cfg, threads, &gauge, &store)
        }
    }
}

/// Runs `threads` workers and the monitor against `store`, which holds θ₀.
fn run_on<P: Problem, S: ParamStore>(
    problem: &P,
    cfg: &TrainConfig,
    threads: usize,
    gauge: &Arc<MemoryGauge>,
    store: &S,
) -> RunResult {
    // The monitor evaluates concurrently with the workers; its splits
    // share the global runtime's helpers with theirs, so no fan-out
    // budget is needed.
    let mut monitor_scratch = problem.scratch();
    let mut snapshot = vec![0.0f32; problem.dim()];
    store.snapshot_into(&mut snapshot);
    let initial_loss = problem.eval_loss(&snapshot, &mut monitor_scratch);

    let control = Control {
        stop: AtomicBool::new(false),
        crashed: AtomicBool::new(false),
        total_published: AtomicU64::new(0),
        alive: AtomicUsize::new(threads),
    };

    // Heartbeats: one cell per worker, plus the global registry so the
    // stress watchdog can print liveness for a hung run.
    let board = Arc::new(HeartbeatBoard::new(threads));
    crate::heartbeat::set_current(&board);
    // Contained worker panics land here (monitor threads never write).
    let crashes: Mutex<Vec<WorkerCrash>> = Mutex::new(Vec::new());

    let mut tracker = ConvergenceTracker::new(initial_loss, &cfg.epsilons);
    let mut iters_to_eps: Vec<(f64, Option<u64>)> =
        cfg.epsilons.iter().map(|&f| (f, None)).collect();
    let mut loss_trace = Series::new();
    let mut mem_trace = Series::new();
    loss_trace.push(0.0, initial_loss);

    let start = Instant::now();
    let mut merged = WorkerStats::new(cfg.staleness_cap);
    let mut heartbeat_stalls: u64 = 0;
    // Per-run trace window: baselines the process-wide counters now so the
    // final dump reports deltas for this run only. A ZST no-op unless the
    // `trace` feature is compiled in and LSGD_TRACE is set.
    let mut collector = lsgd_trace::Collector::new();

    // Workers and the monitor each get their own scoped thread, so they
    // always run concurrently. Their intra-step GEMM splits go to the
    // global runtime, whose `LSGD_THREADS - 1` parked helpers are shared
    // by every caller: the fan-out adds at most that many runnable
    // threads, whatever m is. Each task writes its results through a
    // disjoint `&mut` slot.
    let mut stats_slots: Vec<Option<WorkerStats>> = (0..threads).map(|_| None).collect();
    {
        // Monitor-owned state, moved into its task as one bundle.
        let monitor_scratch = &mut monitor_scratch;
        let snapshot = &mut snapshot;
        let tracker = &mut tracker;
        let iters_to_eps = &mut iters_to_eps;
        let loss_trace = &mut loss_trace;
        let mem_trace = &mut mem_trace;
        let control = &control;
        let collector = &mut collector;
        let board = &board;
        let crashes = &crashes;
        let heartbeat_stalls = &mut heartbeat_stalls;
        std::thread::scope(|scope| {
            for (worker_id, slot) in stats_slots.iter_mut().enumerate() {
                scope.spawn(move || {
                    // Tag this thread for the fault plane so crash rules
                    // target trainer workers (restored on drop).
                    let _tag = lsgd_fault::worker_tag(worker_id as u32);
                    let ctx = WorkerCtx { board, worker_id };
                    // Contain worker panics: one dead worker must not
                    // take down the run. `AssertUnwindSafe` is justified
                    // because every shared structure the loop touches is
                    // panic-safe by construction — snapshot guards
                    // release their counted read on drop, the store's
                    // `Worker` returns its gauge bytes on drop, and the
                    // LAU-SPC CAS is a single atomic (no
                    // partially-published state).
                    match catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(WorkerState::new(problem, store, cfg, ctx), control)
                    })) {
                        Ok(stats) => {
                            ctx.phase(BeatPhase::Done);
                            *slot = Some(stats);
                        }
                        Err(payload) => {
                            ctx.phase(BeatPhase::Crashed);
                            lsgd_trace::count(lsgd_trace::Counter::WorkerPanic);
                            crashes
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(WorkerCrash {
                                    worker: worker_id,
                                    message: panic_message(payload),
                                });
                        }
                    }
                    // ORDERING: Relaxed — monotone countdown; the monitor
                    // only needs to eventually observe 0 (it polls every
                    // sleep slice), no data is carried through it.
                    control.alive.fetch_sub(1, Ordering::Relaxed);
                });
            }

            // ---- Monitor task (paper §V.2: halts executions at ε, flags
            // Crash on numerical instability, samples memory). ----
            scope.spawn(move || {
                // Heartbeat watchdog state: last observed tick per worker,
                // when it last changed, and whether the worker is currently
                // flagged as stalled (so one stall counts once, not once
                // per poll).
                let mut last_ticks = vec![0u64; threads];
                let mut last_change = vec![start; threads];
                let mut in_stall = vec![false; threads];
                loop {
                    // Sleep in small slices so worker-side crash/budget
                    // stops are reacted to promptly.
                    let slice = cfg.eval_every.min(Duration::from_millis(20));
                    let mut slept = Duration::ZERO;
                    // ORDERING: Relaxed — `stop` is an eventually-observed
                    // flag; it carries no data (workers re-check it every
                    // iteration). `alive` likewise: when every worker has
                    // exited (e.g. all crashed) there is no progress left
                    // to wait for, so stop sleeping and wrap up.
                    while slept < cfg.eval_every
                        && !control.stop.load(Ordering::Relaxed)
                        && control.alive.load(Ordering::Relaxed) > 0
                    {
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    let elapsed = start.elapsed();
                    // ORDERING: Relaxed — monotone progress tally; the
                    // monitor tolerates slightly stale counts (it re-reads
                    // next round).
                    let published = control.total_published.load(Ordering::Relaxed);

                    // Heartbeat watchdog: a worker whose tick count has
                    // not advanced for a full second (and which has not
                    // terminated) is stalled — likely blocked in grad or
                    // wedged on a protocol seam. Reads only the relaxed
                    // cells.
                    let now = Instant::now();
                    for w in 0..threads {
                        let ticks = board.ticks(w);
                        let phase = board.phase(w);
                        let terminal =
                            matches!(phase, BeatPhase::Done | BeatPhase::Crashed);
                        if ticks != last_ticks[w] || terminal {
                            last_ticks[w] = ticks;
                            last_change[w] = now;
                            in_stall[w] = false;
                        } else if !in_stall[w]
                            && ticks > 0
                            && now.duration_since(last_change[w]) >= STALL_WINDOW
                        {
                            in_stall[w] = true;
                            *heartbeat_stalls += 1;
                            lsgd_trace::count(lsgd_trace::Counter::HeartbeatStall);
                        }
                    }

                    let loss = {
                        let _span = lsgd_trace::span(Phase::MonitorEval);
                        store.snapshot_into(snapshot);
                        // ORDERING: Relaxed — crash flag, eventually
                        // observed.
                        if control.crashed.load(Ordering::Relaxed) {
                            f64::NAN
                        } else {
                            // A panicking eval (same user code as worker
                            // grad) must not kill the monitor — treat it
                            // like numerical instability.
                            catch_unwind(AssertUnwindSafe(|| {
                                problem.eval_loss(snapshot, monitor_scratch)
                            }))
                            .unwrap_or(f64::NAN)
                        }
                    };
                    // Drain worker rings at monitor cadence so span volume
                    // never outgrows the fixed-capacity rings.
                    collector.sample();
                    loss_trace.push(elapsed.as_secs_f64(), loss);
                    mem_trace.push(elapsed.as_secs_f64(), gauge.live() as f64);
                    let done = tracker.observe(elapsed, loss);
                    for (i, (_, it)) in iters_to_eps.iter_mut().enumerate() {
                        if it.is_none() && tracker.outcome(i).converged() {
                            *it = Some(published);
                        }
                    }
                    let budget_out = elapsed >= cfg.max_wall || published >= cfg.max_updates;
                    // ORDERING: Relaxed loads — flag checks as above
                    // (`alive == 0` means every worker already exited, so
                    // there is nothing left to monitor). SeqCst store: the
                    // final verdict; keeps the terminal stop in one total
                    // order with workers' crash/stop stores so no worker
                    // can observe a "later" state that un-stops the run.
                    if done
                        || budget_out
                        || control.stop.load(Ordering::Relaxed)
                        || control.alive.load(Ordering::Relaxed) == 0
                    {
                        control.stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            });
        });
    }
    for stats in stats_slots.iter().flatten() {
        merged.merge(stats);
    }

    let dump = collector.finish();
    if let Some(path) = lsgd_trace::chrome_path() {
        if !dump.is_empty() {
            let label = format!("{} m={}", cfg.algorithm.label(), threads);
            if let Err(e) = lsgd_trace::chrome::append_run(&path, &label, &dump) {
                eprintln!("lsgd_trace: failed to write {path}: {e}");
            }
        }
    }

    let wall = start.elapsed();
    let pools = store.pool_tally();
    RunResult {
        algorithm: cfg.algorithm,
        threads,
        initial_loss,
        final_loss: loss_trace.last_value().unwrap_or(initial_loss),
        best_loss: tracker.best_loss(),
        crashed: tracker.crashed(),
        outcomes: tracker.outcomes(),
        iters_to_eps,
        loss_trace,
        mem_trace,
        staleness: merged.hists.staleness,
        tau_s: merged.hists.tau_s,
        dirty_shards: merged.hists.dirty_shards,
        phase_stats: dump.phases,
        trace_counters: dump.counters,
        published: merged.published,
        aborted: merged.aborted,
        failed_cas: merged.failed_cas,
        tc: merged.tc,
        tu: merged.tu,
        iter_time: merged.iter_time,
        wall,
        mem_peak_bytes: gauge.peak(),
        pool_outstanding_peak: pools.slots,
        mem_allocs: gauge.total_allocs(),
        mem_reuses: pools.reuses,
        worker_crashes: crashes.into_inner().unwrap_or_else(|e| e.into_inner()),
        degraded_snapshots: merged.degraded,
        heartbeat_stalls,
    }
}

/// A worker whose heartbeat tick count stays flat this long (while not
/// terminated) is reported as stalled by the monitor's watchdog.
const STALL_WINDOW: Duration = Duration::from_secs(1);

/// How one [`WorkerState::step`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The update took effect.
    Published,
    /// The persistence bound abandoned the update.
    Aborted,
    /// The minibatch loss was not finite; nothing was published.
    NonFinite,
}

/// Everything one worker owns: its store-side state, its problem scratch,
/// RNG stream and gradient buffers, and the statistics it has recorded.
pub struct WorkerState<'a, P: Problem, S: ParamStore> {
    problem: &'a P,
    store: &'a S,
    cfg: &'a TrainConfig,
    ctx: WorkerCtx<'a>,
    worker: S::Worker,
    scratch: P::Scratch,
    rng: SmallRng64,
    grad: Vec<f32>,
    pairs: Vec<(u32, f32)>,
    steps: u64,
    stats: WorkerStats,
}

impl<'a, P: Problem, S: ParamStore> WorkerState<'a, P, S> {
    /// State for worker `ctx.worker_id` of a run of `cfg` on `store`.
    pub fn new(problem: &'a P, store: &'a S, cfg: &'a TrainConfig, ctx: WorkerCtx<'a>) -> Self {
        WorkerState {
            problem,
            store,
            cfg,
            ctx,
            worker: store.worker(&cfg.algorithm),
            // Intra-step splits (NnProblem's GEMM fan-out) go to the
            // global runtime's helpers, which every worker shares, so
            // scratch needs no worker-count-aware sizing.
            scratch: problem.scratch(),
            rng: SmallRng64::new(
                cfg.seed ^ (0x5bd1e995u64.wrapping_mul(ctx.worker_id as u64 + 1)),
            ),
            grad: vec![0.0f32; problem.dim()],
            pairs: Vec::new(),
            steps: 0,
            stats: WorkerStats::new(cfg.staleness_cap),
        }
    }

    /// One SGD iteration — the thread body of Algorithms 2–4: read θ,
    /// compute a minibatch gradient, publish `θ -= η·direction`.
    pub fn step(&mut self) -> Step {
        let (store, ctx) = (self.store, self.ctx);
        ctx.beat(BeatPhase::Snapshot);
        lsgd_fault::worker_step(self.steps);
        self.steps += 1;
        let iter_start = Instant::now();

        let read_span = lsgd_trace::span(Phase::SnapshotRead);
        let (loss, sparse) = store.read(&mut self.worker, |theta| {
            drop(read_span);
            ctx.phase(BeatPhase::Grad);
            let tc_start = Instant::now();
            let _span = lsgd_trace::span(Phase::GradCompute);
            let (scratch, rng) = (&mut self.scratch, &mut self.rng);
            // A sparse direction bypasses the dense gradient buffer
            // entirely: every store lands it on its support only.
            let out = match self.problem.grad_sparse(theta, &mut self.pairs, scratch, rng) {
                Some(loss) => (loss, true),
                None => (self.problem.grad(theta, &mut self.grad, scratch, rng), false),
            };
            self.stats.tc.record(tc_start.elapsed().as_secs_f64());
            out
        });
        let stats = &mut self.stats;
        stats.degraded = store.degraded_reads(&self.worker);
        if !loss.is_finite() {
            return Step::NonFinite;
        }
        let direction = if sparse {
            Direction::Sparse(&self.pairs)
        } else {
            Direction::Dense(&self.grad)
        };
        ctx.phase(BeatPhase::Publish);
        let out = {
            let _span = lsgd_trace::span(Phase::Publish);
            store.publish(&mut self.worker, direction, self.cfg.eta, &mut stats.tu)
        };
        stats.failed_cas += out.failed_cas as u64;
        let step = if out.published {
            stats.published += 1;
            stats.hists.staleness.record(out.tau);
            if let Some(tau_s) = out.tau_s {
                stats.hists.tau_s.record(tau_s);
            }
            if let Some(dirty) = out.dirty {
                stats.hists.dirty_shards.record(dirty as u64);
            }
            Step::Published
        } else {
            stats.aborted += 1;
            Step::Aborted
        };
        stats.iter_time.record(iter_start.elapsed().as_secs_f64());
        step
    }

    /// The statistics recorded so far.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }
}

/// One worker's training loop: [`WorkerState::step`] until the run stops.
fn worker_loop<P: Problem, S: ParamStore>(
    mut state: WorkerState<'_, P, S>,
    control: &Control,
) -> WorkerStats {
    // ORDERING: Relaxed — stop is an eventually-observed flag; the
    // worker re-polls it every iteration and carries no data through it.
    while !control.stop.load(Ordering::Relaxed) {
        match state.step() {
            Step::Published => {
                // ORDERING: Relaxed — monotone progress tally; exact
                // totals are only read after the scope join.
                control.total_published.fetch_add(1, Ordering::Relaxed);
            }
            Step::Aborted => {}
            Step::NonFinite => {
                // ORDERING: SeqCst pair — crash must be visible no later
                // than stop in the single total order, so the monitor that
                // sees stop cannot miss the crash verdict behind it.
                control.crashed.store(true, Ordering::SeqCst);
                // ORDERING: SeqCst — see above.
                control.stop.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    state.stats
}
