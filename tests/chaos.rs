//! Chaos suite: trains real (miniature) networks while the `lsgd_fault`
//! plane injects crashes and stalls at the protocol seams, and asserts
//! the resilience contract end to end:
//!
//! * an injected worker crash is **contained** — it lands in
//!   `RunResult::worker_crashes`, survivors keep training, and the run
//!   converges;
//! * the lock-free invariants (queue conservation, exactly-once
//!   publication accounting) hold **under stalls and crashes**, not just
//!   on the happy path;
//! * the same `LSGD_FAULT_SEED` reproduces the same per-thread fault
//!   schedule, and a different seed diverges.
//!
//! Build with the umbrella `fault` feature — the whole file is compiled
//! out otherwise (default builds carry no probes; the fault crate's
//! `overhead_guard` pins that):
//!
//! ```text
//! cargo test --features fault --test chaos
//! ```
//!
//! The fault plane is process-global, so every test grabs [`PLANE`] for
//! its whole body and disarms on the way out; `cargo test`'s in-binary
//! parallelism then cannot leak one test's plan into another's run.
#![cfg(feature = "fault")]

mod common;

use common::{Watchdog, STRESS_LIMIT};
use leashed_sgd::core::prelude::*;
use leashed_sgd::data::SynthDigits;
use leashed_sgd::fault;
use leashed_sgd::sync::SegQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialises the tests in this binary: the fault plane (plan, seed,
/// tallies, per-thread streams) is process-global state.
static PLANE: Mutex<()> = Mutex::new(());

fn plane() -> std::sync::MutexGuard<'static, ()> {
    PLANE.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII disarm so a failing assertion can't leave a plan armed for the
/// next test body.
struct Armed;

impl Armed {
    fn install(spec: &str, seed: u64) -> Armed {
        fault::install(spec, seed).expect("chaos spec must parse");
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn mini_mlp_problem() -> NnProblem {
    let data = SynthDigits::default().generate(400, 1);
    NnProblem::new(leashed_sgd::nn::mlp_mnist(), data, 32, 200)
}

fn chaos_cfg(algorithm: Algorithm, threads: usize) -> TrainConfig {
    TrainConfig {
        algorithm,
        threads,
        eta: 0.1,
        epsilons: vec![0.9],
        max_updates: 4_000,
        max_wall: Duration::from_secs(30),
        eval_every: Duration::from_millis(40),
        seed: 2,
        staleness_cap: 512,
    }
}

// ---------------------------------------------------------------------
// Crash containment
// ---------------------------------------------------------------------

/// `crash:w1@step40` on a three-worker Leashed run: exactly one crash,
/// attributed to worker 1 at step 40, and the survivors converge.
#[test]
fn injected_crash_is_contained_and_survivors_converge() {
    let _plane = plane();
    let _wd = Watchdog::arm("injected_crash_is_contained_and_survivors_converge", STRESS_LIMIT);
    let _armed = Armed::install("crash:w1@step40", 7);

    let p = mini_mlp_problem();
    let r = train(&p, &chaos_cfg(Algorithm::Leashed { persistence: None }, 3));

    assert!(!r.crashed, "an injected worker crash must not fail the run: {}", r.summary());
    assert_eq!(
        r.worker_crashes.len(),
        1,
        "exactly one crash rule fired: {:?}",
        r.worker_crashes
    );
    let crash = &r.worker_crashes[0];
    assert_eq!(crash.worker, 1, "crash rule targeted worker 1: {crash:?}");
    assert!(
        crash.message.contains("injected crash") && crash.message.contains("step 40"),
        "crash message must attribute the injection: {:?}",
        crash.message
    );
    assert_eq!(fault::tallies().crashes, 1);
    assert!(
        r.fully_converged(),
        "two survivors must still reach the (shallow) target: {}",
        r.summary()
    );
    assert!(r.summary().contains("wcrash 1"), "summary surfaces the crash: {}", r.summary());
}

/// Crash + publish/snapshot stalls together on the sharded algorithm:
/// the run still ends cleanly, the crash is contained, and the
/// exactly-once publication accounting survives the hostile schedule —
/// every published update is observed exactly once by the staleness
/// histogram, no loss, no double-count.
#[test]
fn exactly_once_accounting_survives_stall_plus_crash() {
    let _plane = plane();
    let _wd = Watchdog::arm("exactly_once_accounting_survives_stall_plus_crash", STRESS_LIMIT);
    let _armed = Armed::install(
        "crash:w2@step60;stall:publish,p=0.02,us=200;stall:snapshot,p=0.02,us=200",
        11,
    );

    let p = mini_mlp_problem();
    let algo = Algorithm::ShardedLeashed { persistence: Some(1), shards: 8, snapshot: SnapshotMode::Consistent };
    let mut cfg = chaos_cfg(algo, 3);
    cfg.max_updates = 1_500; // stalls slow each step; keep the budget bounded
    let r = train(&p, &cfg);

    assert!(!r.crashed, "{}", r.summary());
    assert_eq!(r.worker_crashes.len(), 1, "{:?}", r.worker_crashes);
    assert_eq!(r.worker_crashes[0].worker, 2);
    assert!(r.published > 0, "survivors must keep publishing: {}", r.summary());
    // Exactly-once: every successful publish records exactly one
    // staleness sample — under stalls and a mid-run crash, losing or
    // double-counting an update would skew this immediately.
    assert_eq!(
        r.staleness.count(),
        r.published,
        "staleness samples must match published updates exactly: {}",
        r.summary()
    );
    let t = fault::tallies();
    assert_eq!(t.crashes, 1);
    assert!(
        t.stalls_total() > 0,
        "a 2% stall rate over ≥1500 publish/snapshot probes must fire: {t:?}"
    );
    assert!(r.final_loss.is_finite(), "{}", r.summary());
}

// ---------------------------------------------------------------------
// Heartbeat stall watchdog
// ---------------------------------------------------------------------

/// `stall:publish,us=1200000` holds every publish for 1.2 s, longer than
/// the monitor's one-second heartbeat window, so both workers' tick
/// counters go flat mid-step. The watchdog must report the stall, the
/// run must still end inside its wall budget, and the publication
/// accounting must stay exact.
#[test]
fn heartbeat_watchdog_reports_a_stalled_publish() {
    let _plane = plane();
    let _wd = Watchdog::arm("heartbeat_watchdog_reports_a_stalled_publish", STRESS_LIMIT);
    let _armed = Armed::install("stall:publish,us=1200000", 5);

    let p = mini_mlp_problem();
    let mut cfg = chaos_cfg(Algorithm::Leashed { persistence: None }, 2);
    cfg.max_wall = Duration::from_secs(3);
    let start = Instant::now();
    let r = train(&p, &cfg);
    let elapsed = start.elapsed();

    // Workers see the stop flag between steps, so a run may overrun
    // `max_wall` by one held publish; anything longer is a hang.
    let budget = cfg.max_wall + Duration::from_millis(1_200) + Duration::from_secs(1);
    assert!(
        elapsed < budget,
        "run took {elapsed:?} (budget {budget:?}): {}",
        r.summary()
    );
    assert!(
        r.heartbeat_stalls >= 1,
        "a 1.2 s publish must trip the 1 s watchdog: {}",
        r.summary()
    );
    let tally = format!("stall {}", r.heartbeat_stalls);
    assert!(
        r.summary().contains(&tally),
        "summary surfaces the stall: {}",
        r.summary()
    );
    assert!(fault::tallies().stalls[fault::Site::Publish as usize] > 0);
    // Exactly-once: one staleness sample per published update, and every
    // finished step either published or aborted (unbounded persistence
    // never aborts).
    assert_eq!(r.staleness.count(), r.published, "{}", r.summary());
    assert_eq!(r.aborted, 0, "{}", r.summary());
    assert_eq!(
        r.iter_time.count(),
        r.published + r.aborted,
        "{}",
        r.summary()
    );
    assert!(r.final_loss.is_finite(), "{}", r.summary());
}

// ---------------------------------------------------------------------
// Queue conservation under injected stalls
// ---------------------------------------------------------------------

/// `stall:pop` makes consumers hesitate mid-protocol; conservation must
/// hold anyway: every pushed token is popped exactly once.
#[test]
fn queue_conserves_tokens_under_pop_stalls() {
    let _plane = plane();
    let _wd = Watchdog::arm("queue_conserves_tokens_under_pop_stalls", STRESS_LIMIT);
    let _armed = Armed::install("stall:pop,p=0.05,us=100", 13);

    const PRODUCERS: u64 = 2;
    const PER_PRODUCER: u64 = 2_000;
    let q = SegQueue::new();
    let done = AtomicBool::new(false);
    let popped: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let q = &q;
            let done = &done;
            let popped = &popped;
            s.spawn(move || {
                let mut local = Vec::new();
                // ORDERING: Relaxed — `done` is a plain shutdown flag; the
                // queue's own orderings carry the data.
                while !done.load(Ordering::Relaxed) || !q.is_empty() {
                    if let Some(v) = q.pop() {
                        local.push(v);
                    }
                }
                popped.lock().unwrap().extend(local);
            });
        }
        for h in producers {
            h.join().expect("producer panicked");
        }
        // ORDERING: Relaxed — shutdown flag only (see above).
        done.store(true, Ordering::Relaxed);
    });

    let mut all = popped.into_inner().unwrap();
    assert_eq!(
        all.len() as u64,
        PRODUCERS * PER_PRODUCER,
        "token loss or duplication under pop stalls"
    );
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, PRODUCERS * PER_PRODUCER, "duplicated token under pop stalls");
    assert!(
        fault::tallies().stalls[fault::Site::QueuePop as usize] > 0,
        "the pop stall rule never fired: {:?}",
        fault::tallies()
    );
}

// ---------------------------------------------------------------------
// Seed determinism
// ---------------------------------------------------------------------

/// Draws the per-visit firing pattern of a probabilistic stall rule on a
/// tagged worker thread.
fn stall_pattern(spec: &str, seed: u64, visits: usize) -> Vec<bool> {
    fault::install(spec, seed).expect("spec must parse");
    let _tag = fault::worker_tag(0);
    let mut pattern = Vec::with_capacity(visits);
    let mut last = fault::tallies().stalls[fault::Site::Publish as usize];
    for _ in 0..visits {
        fault::point(fault::Site::Publish);
        let now = fault::tallies().stalls[fault::Site::Publish as usize];
        pattern.push(now != last);
        last = now;
    }
    pattern
}

/// The per-worker decision stream is a pure function of
/// `(seed, stream id)`: the same seed replays the identical fire/skip
/// schedule, a different seed diverges (2⁻⁶⁴-ish collision odds over 64
/// fair draws).
#[test]
fn same_seed_reproduces_the_fault_schedule() {
    let _plane = plane();
    let _wd = Watchdog::arm("same_seed_reproduces_the_fault_schedule", STRESS_LIMIT);
    let _armed = Armed; // covers all three installs below

    const SPEC: &str = "stall:publish,p=0.5,us=1";
    let a = stall_pattern(SPEC, 0xC0FFEE, 64);
    let b = stall_pattern(SPEC, 0xC0FFEE, 64);
    let c = stall_pattern(SPEC, 0xC0FFEE + 1, 64);

    assert_eq!(a, b, "identical seed must replay the identical schedule");
    assert_ne!(a, c, "a different seed must draw a different schedule");
    assert!(
        a.iter().any(|&f| f) && a.iter().any(|&f| !f),
        "p=0.5 over 64 draws should both fire and skip: {a:?}"
    );
}

/// Trainer-level replay: a deterministic `@step` crash rule lands on the
/// same worker at the same step across runs (the containment report is
/// reproducible even though thread interleaving is not).
#[test]
fn crash_at_step_replays_across_runs() {
    let _plane = plane();
    let _wd = Watchdog::arm("crash_at_step_replays_across_runs", STRESS_LIMIT);

    let p = mini_mlp_problem();
    let mut messages = Vec::new();
    for _ in 0..2 {
        let _armed = Armed::install("crash:w0@step25", 3);
        let r = train(&p, &chaos_cfg(Algorithm::Leashed { persistence: None }, 2));
        assert!(!r.crashed, "{}", r.summary());
        assert_eq!(r.worker_crashes.len(), 1, "{:?}", r.worker_crashes);
        messages.push(r.worker_crashes[0].message.clone());
    }
    assert_eq!(messages[0], messages[1], "the crash report must replay verbatim");
    assert!(messages[0].contains("worker 0") && messages[0].contains("step 25"));
}

