//! Shared helpers for the threaded integration tests.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::Duration;

/// Converts a hung test into a prompt failure.
///
/// In-loop deadline checks cannot catch a thread stuck *inside* a
/// protocol call (e.g. a livelocked publish CAS loop): control never
/// returns to the loop, and `std::thread::scope` would then block the
/// whole suite on join. A detached watchdog thread sidesteps both — if
/// the guard is not dropped within `limit`, it aborts the process so CI
/// reports a crash immediately instead of idling until the job timeout.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
}

impl Watchdog {
    /// Arms a watchdog for the calling test. Keep the guard alive for the
    /// duration of the test body; dropping it disarms the watchdog.
    pub fn arm(name: &'static str, limit: Duration) -> Watchdog {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                eprintln!(
                    "watchdog: test '{name}' still running after {limit:?}; \
                     aborting the test binary so the hang fails promptly"
                );
                // Per-worker liveness of the current training run, if one
                // is live: which worker is stuck, and in which phase. The
                // report reads only relaxed heartbeat cells, so it is safe
                // while the hung run's own monitor is still live.
                if let Some(report) = lsgd_core::heartbeat::report_current() {
                    eprintln!("watchdog: last heartbeats:\n{report}");
                }
                std::process::abort();
            }
        });
        Watchdog { disarm: Some(tx) }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Dropping the sender disconnects the channel; the watchdog
        // thread's recv_timeout returns Disconnected and it exits.
        self.disarm.take();
    }
}

/// Default per-test ceiling: every stress test finishes in well under a
/// second even on a 2-core CI box, so a minute means "hung".
pub const STRESS_LIMIT: Duration = Duration::from_secs(60);

/// Thread count for the contention stress tests.
///
/// Defaults to the available parallelism; CI's high-contention job sets
/// `LSGD_STRESS_THREADS` to an *oversubscribed* count (≥ 2× cores) so
/// threads get preempted mid-protocol — the schedule shape that shakes
/// out livelocks and missing-progress bugs that a politely scheduled run
/// never hits.
#[allow(dead_code)] // each test binary compiles its own copy of common/
pub fn stress_threads() -> usize {
    lsgd_core::env::positive_usize("LSGD_STRESS_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(4)
    })
}
