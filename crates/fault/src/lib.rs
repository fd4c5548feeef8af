//! `lsgd_fault` — deterministic, seeded fault injection for the
//! Leashed-SGD protocol seams.
//!
//! Lock-free resilience claims ("a crashed worker cannot wedge the
//! run", "snapshot validation degrades instead of spinning forever")
//! are only as good as the faults they were exercised against. This
//! crate plants **probes** at the five seams where the protocols are
//! vulnerable — publish CAS loop, snapshot validation, queue pop, pool
//! acquire, worker step boundary ([`Site`]) — and arms them with a
//! replayable schedule of crashes and stalls.
//!
//! # Zero cost when off
//!
//! Without the `enabled` cargo feature every probe compiles to an
//! inlined empty function and [`WorkerTag`] is a ZST — the
//! `overhead_guard` test pins this. With the feature on, probes are a
//! single relaxed atomic load until a plan is armed, and they always
//! no-op inside model-checker executions ([`lsgd_check::model_active`])
//! so exhaustive exploration is never perturbed.
//!
//! # Arming
//!
//! Either set `LSGD_FAULT` to a spec (grammar in [`spec`]) before the
//! first probe fires, or call [`install`] programmatically:
//!
//! ```text
//! LSGD_FAULT='crash:w2@step120;stall:publish,p=0.01,us=500'
//! LSGD_FAULT_SEED=zix9  # base-36, like LSGD_MODEL_SEED
//! ```
//!
//! # Determinism and replay
//!
//! Every probabilistic decision is drawn from a per-thread SplitMix64
//! stream seeded by `seed ⊕ mix(stream id)`, where the stream id is the
//! worker id declared via [`worker_tag`] (or a stable per-process
//! ticket for undeclared threads). Re-running with the same
//! `LSGD_FAULT_SEED` therefore draws the identical decision sequence at
//! every probe a thread visits; [`install`] re-seeds all streams, so
//! repeated installs inside one process replay from scratch. (The
//! *interleaving* of threads still varies run to run — the seed pins
//! each thread's own schedule, which is what the chaos tests assert.)

#![warn(missing_docs)]

pub mod spec;

pub use spec::{CrashRule, CrashWhen, Plan, Site, SpecError, StallRule, SITES};

/// Whether the injection plane is compiled in (`enabled` feature).
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Fired-fault totals since the last [`install`] (or process start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Injected worker crashes ([`worker_step`] panics).
    pub crashes: u64,
    /// Injected stalls, per [`Site`] (indexed by `Site as usize`).
    pub stalls: [u64; SITES],
}

impl Tallies {
    /// Total stalls across all sites.
    pub fn stalls_total(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Parses a base-36 fault seed (the `LSGD_FAULT_SEED` format, matching
/// the model checker's seed encoding).
pub fn parse_seed(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim(), 36).ok()
}

#[cfg(feature = "enabled")]
mod imp {
    use super::spec::{CrashWhen, Plan, Site, SITES};
    use super::Tallies;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::{Duration, Instant};

    // Control-plane state uses std atomics directly (not the lsgd_check
    // shims): it is never the subject of model checking — probes are
    // disabled under the model — and must not add shim noise to it.

    /// 0 = undetermined (env not read yet), 1 = off, 2 = armed.
    static STATE: AtomicU8 = AtomicU8::new(0);

    /// Bumped by every (re)install/clear; thread streams watching this
    /// re-fetch the plan and re-seed on mismatch.
    static GENERATION: AtomicU64 = AtomicU64::new(0);

    /// The armed seed, read by threads when (re)seeding their stream.
    static SEED: AtomicU64 = AtomicU64::new(0);

    /// Fired-fault tallies (crashes, per-site stalls).
    static CRASHES: AtomicU64 = AtomicU64::new(0);
    static STALLS: [AtomicU64; SITES] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// Ticket source for threads that never call `worker_tag`; offset
    /// past the u32 worker-id space so tickets can't collide with tags.
    static NEXT_TICKET: AtomicU64 = AtomicU64::new(1 << 32);

    fn plan_slot() -> &'static Mutex<Option<Arc<Plan>>> {
        static PLAN: OnceLock<Mutex<Option<Arc<Plan>>>> = OnceLock::new();
        PLAN.get_or_init(|| Mutex::new(None))
    }

    /// Per-thread decision stream: a cached plan pointer (refreshed on
    /// generation change) and the SplitMix64 state it draws from.
    struct ThreadStream {
        generation: u64,
        plan: Option<Arc<Plan>>,
        rng: u64,
        /// Stream id: the tagged worker id, or this thread's ticket.
        stream: u64,
        /// The tagged worker id (`u32::MAX` = untagged; crash rules
        /// target explicit ids only).
        worker: u32,
    }

    thread_local! {
        static STREAM: RefCell<ThreadStream> = RefCell::new(ThreadStream {
            generation: 0,
            plan: None,
            rng: 0,
            // ORDERING: Relaxed — ticket allocation only needs uniqueness
            // (a monotone counter), no ordering with other memory.
            stream: NEXT_TICKET.fetch_add(1, Ordering::Relaxed),
            worker: u32::MAX,
        });
    }

    /// SplitMix64 output mix — also used to spread stream ids so that
    /// `seed ^ stream` never feeds near-identical states to neighbors.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        mix(*state)
    }

    /// A draw in `[0, 1)` with 53 bits of precision.
    fn next_f64(state: &mut u64) -> f64 {
        (next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[cold]
    fn init_state() -> bool {
        let armed = match lsgd_check::env::var("LSGD_FAULT") {
            Some(raw) => match Plan::parse(&raw) {
                Ok(plan) if !plan.is_empty() => {
                    let seed = match lsgd_check::env::var("LSGD_FAULT_SEED") {
                        Some(s) => super::parse_seed(&s).unwrap_or_else(|| {
                            lsgd_check::env::warn_once(
                                "LSGD_FAULT_SEED",
                                "ignoring malformed value (expected base-36); using seed 0",
                            );
                            0
                        }),
                        None => 0,
                    };
                    arm(Arc::new(plan), seed);
                    true
                }
                Ok(_) => false, // empty spec: explicit no-op
                Err(e) => {
                    lsgd_check::env::warn_once(
                        "LSGD_FAULT",
                        &format!("{e}; fault injection disabled"),
                    );
                    false
                }
            },
            None => false,
        };
        // ORDERING: SeqCst — arming must be globally ordered before the
        // state flip that lets probes run; racing initializers must
        // agree on one final state.
        STATE.store(if armed { 2 } else { 1 }, Ordering::SeqCst);
        armed
    }

    fn arm(plan: Arc<Plan>, seed: u64) {
        let mut slot = plan_slot().lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(plan);
        // ORDERING: SeqCst — seed, counter resets, and the generation
        // bump must all be visible before any thread observes the new
        // generation; SeqCst keeps this control-plane sequence simple.
        SEED.store(seed, Ordering::SeqCst);
        // ORDERING: SeqCst — see above (tally reset, same sequence).
        CRASHES.store(0, Ordering::SeqCst);
        for s in &STALLS {
            // ORDERING: SeqCst — see above (tally reset, same sequence).
            s.store(0, Ordering::SeqCst);
        }
        // ORDERING: SeqCst — the bump is the publication point: threads
        // seeing the new generation re-fetch the plan under the mutex.
        GENERATION.fetch_add(1, Ordering::SeqCst);
    }

    pub fn active() -> bool {
        // Never inject inside a model execution: the checker owns the
        // schedule, and injected sleeps/panics would corrupt exploration.
        if lsgd_check::model_active() {
            return false;
        }
        // ORDERING: Relaxed — the latch is monotone after init; the data
        // it guards (the plan) is published under the plan mutex, not
        // through this flag.
        match STATE.load(Ordering::Relaxed) {
            0 => init_state(),
            1 => false,
            _ => true,
        }
    }

    pub fn install(spec: &str, seed: u64) -> Result<(), super::SpecError> {
        let plan = Plan::parse(spec)?;
        arm(Arc::new(plan), seed);
        // ORDERING: SeqCst — flip the latch after the plan is armed so a
        // probe that sees "armed" finds the new plan (or a newer one).
        STATE.store(2, Ordering::SeqCst);
        Ok(())
    }

    pub fn clear() {
        let mut slot = plan_slot().lock().unwrap_or_else(|e| e.into_inner());
        *slot = None;
        // ORDERING: SeqCst — generation bump invalidates cached plans in
        // thread streams; the latch flip after it stops new probes.
        GENERATION.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst — see above (the latch flip of the same pair).
        STATE.store(1, Ordering::SeqCst);
    }

    pub fn tallies() -> Tallies {
        let mut stalls = [0u64; SITES];
        for (dst, src) in stalls.iter_mut().zip(&STALLS) {
            // ORDERING: Relaxed — tallies are monotone counters read for
            // reporting after the faulted run; no ordering is implied.
            *dst = src.load(Ordering::Relaxed);
        }
        Tallies {
            // ORDERING: Relaxed — same: report-time reads of monotone counters.
            crashes: CRASHES.load(Ordering::Relaxed),
            stalls,
        }
    }

    /// Runs `f` with the calling thread's stream, refreshed to the
    /// current generation (re-fetching the plan and re-seeding on
    /// change). Returns `None` when no plan is armed.
    fn with_stream<R>(f: impl FnOnce(&Arc<Plan>, &mut u64, u32) -> R) -> Option<R> {
        STREAM.with(|cell| {
            let mut ts = cell.borrow_mut();
            // ORDERING: Relaxed — a stale generation read only delays
            // plan pickup by one probe; the plan itself is fetched under
            // the mutex, which provides the real synchronization.
            let generation = GENERATION.load(Ordering::Relaxed);
            if ts.generation != generation {
                let plan = plan_slot().lock().unwrap_or_else(|e| e.into_inner()).clone();
                ts.generation = generation;
                ts.plan = plan;
                // ORDERING: Relaxed — SEED was written before the
                // generation bump we just observed; exact staleness here
                // only shifts which install's stream we replay, and the
                // plan mutex above already synchronized this thread.
                ts.rng = SEED.load(Ordering::Relaxed) ^ mix(ts.stream);
            }
            let plan = ts.plan.clone()?;
            let ThreadStream { rng, worker, .. } = &mut *ts;
            Some(f(&plan, rng, *worker))
        })
    }

    pub fn set_worker(id: u32) -> u32 {
        STREAM.with(|cell| {
            let mut ts = cell.borrow_mut();
            let prev = ts.worker;
            ts.worker = id;
            ts.stream = id as u64;
            // Force a re-seed from the new stream id at the next probe.
            ts.generation = 0;
            ts.plan = None;
            prev
        })
    }

    pub fn restore_worker(id: u32) {
        STREAM.with(|cell| {
            let mut ts = cell.borrow_mut();
            ts.worker = id;
            ts.stream = if id == u32::MAX {
                // ORDERING: Relaxed — ticket allocation only needs
                // uniqueness, no ordering with other memory.
                NEXT_TICKET.fetch_add(1, Ordering::Relaxed)
            } else {
                id as u64
            };
            ts.generation = 0;
            ts.plan = None;
        })
    }

    fn stall_for(us: u64) {
        // Spin rather than sleep: a stall models a descheduled-but-hot
        // thread, and must not round tiny durations up to OS timer
        // granularity (which would distort p·us calibration).
        let end = Instant::now() + Duration::from_micros(us);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    pub fn point(site: Site) {
        if !active() {
            return;
        }
        with_stream(|plan, rng, _worker| {
            if let Some(rule) = plan.stalls[site as usize] {
                // One draw per armed probe visit, fired or not, keeps
                // the per-thread decision sequence aligned across runs
                // that only change `us`.
                if next_f64(rng) < rule.p {
                    // ORDERING: Relaxed — monotone tally counter.
                    STALLS[site as usize].fetch_add(1, Ordering::Relaxed);
                    stall_for(rule.us);
                }
            }
        });
    }

    pub fn worker_step(step: u64) {
        if !active() {
            return;
        }
        let crash: Option<u64> = with_stream(|plan, rng, worker| {
            for rule in plan.crashes.iter().filter(|r| r.worker == worker) {
                let fire = match rule.when {
                    CrashWhen::AtStep(n) => step == n,
                    CrashWhen::WithProb(p) => next_f64(rng) < p,
                };
                if fire {
                    return Some(step);
                }
            }
            if let Some(rule) = plan.stalls[Site::WorkerStep as usize] {
                if next_f64(rng) < rule.p {
                    // ORDERING: Relaxed — monotone tally counter.
                    STALLS[Site::WorkerStep as usize].fetch_add(1, Ordering::Relaxed);
                    stall_for(rule.us);
                }
            }
            None
        })
        .flatten();
        if let Some(step) = crash {
            // ORDERING: Relaxed — monotone tally counter.
            CRASHES.fetch_add(1, Ordering::Relaxed);
            let worker = STREAM.with(|cell| cell.borrow().worker);
            panic!("lsgd_fault: injected crash (worker {worker}, step {step})");
        }
    }
}

/// Whether a fault plan is armed (always `false` when the `enabled`
/// feature is off or inside a model-checker execution).
#[inline]
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::active()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Programmatically arms a fault plan, replacing any previous one and
/// resetting tallies and all per-thread decision streams. With the
/// `enabled` feature off this is an error (nothing can be injected).
pub fn install(spec: &str, seed: u64) -> Result<(), SpecError> {
    #[cfg(feature = "enabled")]
    {
        imp::install(spec, seed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = seed;
        let _ = Plan::parse(spec)?; // still validate the grammar
        Err(SpecError {
            item: spec.to_string(),
            reason: "lsgd_fault was compiled without the `enabled` feature".to_string(),
        })
    }
}

/// Disarms fault injection (probes return to their single-load idle
/// path; tallies are preserved until the next [`install`]).
pub fn clear() {
    #[cfg(feature = "enabled")]
    imp::clear();
}

/// Snapshot of the fired-fault totals since the last [`install`].
pub fn tallies() -> Tallies {
    #[cfg(feature = "enabled")]
    {
        imp::tallies()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Tallies::default()
    }
}

/// Declares the calling thread to be trainer worker `id` for the
/// duration of the returned guard: crash rules target it, and its
/// decision stream is seeded from `seed ⊕ mix(id)` so the schedule is
/// reproducible per worker. A ZST no-op when the feature is off.
pub fn worker_tag(id: u32) -> WorkerTag {
    #[cfg(feature = "enabled")]
    {
        WorkerTag { prev: imp::set_worker(id) }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = id;
        WorkerTag { _priv: () }
    }
}

/// RAII guard from [`worker_tag`]; restores the previous thread
/// identity (and a fresh ticket stream) on drop, so pooled runtime
/// threads don't leak a worker identity into later tasks.
#[cfg(feature = "enabled")]
pub struct WorkerTag {
    prev: u32,
}

/// RAII guard from [`worker_tag`] (ZST: feature off).
#[cfg(not(feature = "enabled"))]
pub struct WorkerTag {
    _priv: (),
}

#[cfg(feature = "enabled")]
impl Drop for WorkerTag {
    fn drop(&mut self) {
        imp::restore_worker(self.prev);
    }
}

/// Step-boundary probe: fires any matching `crash:` rule for the tagged
/// worker (by panicking — the trainer contains it) and any `stall:step`
/// rule. `step` is the worker-local iteration count.
#[inline]
pub fn worker_step(step: u64) {
    #[cfg(feature = "enabled")]
    imp::worker_step(step);
    #[cfg(not(feature = "enabled"))]
    let _ = step;
}

/// Site probe: fires the armed `stall:` rule for `site`, if any.
#[inline]
pub fn point(site: Site) {
    #[cfg(feature = "enabled")]
    imp::point(site);
    #[cfg(not(feature = "enabled"))]
    let _ = site;
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_reads_base36() {
        assert_eq!(parse_seed(" 0 "), Some(0));
        assert_eq!(parse_seed("3w5e11264sgsf"), Some(u64::MAX));
        assert_eq!(parse_seed("zix9"), Some(35 * 36 * 36 * 36 + 18 * 36 * 36 + 33 * 36 + 9));
        assert_eq!(parse_seed("not a seed"), None);
    }
}
