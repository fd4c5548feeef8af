//! Per-worker heartbeat cells: the monitor's (and the test watchdog's)
//! view of worker liveness.
//!
//! Each trainer worker owns one cache-line-aligned cell and beats it
//! once per iteration: one tick store and one phase store, both relaxed.
//! Two consumers read the board:
//!
//! * The **monitor task** detects stalled workers by watching `ticks`
//!   (a plain single-writer counter — approximate reads are fine for
//!   liveness).
//! * The **test watchdog** ([`report_current`]) prints every worker's
//!   last tick count and phase when a stress test times out, so a hung
//!   run leaves a diagnosis instead of a bare abort.

use lsgd_check::sync::{AtomicU32, AtomicU64};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// What a worker was last doing, for stall reports. Coarser than the
/// trace phases on purpose: one store per beat, no ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum BeatPhase {
    /// Not yet started (the cell's initial state).
    Idle = 0,
    /// Reading/validating a parameter snapshot.
    Snapshot = 1,
    /// Computing the gradient.
    Grad = 2,
    /// Publishing an update.
    Publish = 3,
    /// Exited its loop normally.
    Done = 4,
    /// Terminated by a panic (contained by the trainer).
    Crashed = 5,
}

impl BeatPhase {
    /// Human name for stall reports.
    pub fn name(self) -> &'static str {
        match self {
            BeatPhase::Idle => "idle",
            BeatPhase::Snapshot => "snapshot",
            BeatPhase::Grad => "grad",
            BeatPhase::Publish => "publish",
            BeatPhase::Done => "done",
            BeatPhase::Crashed => "crashed",
        }
    }

    fn from_u32(v: u32) -> BeatPhase {
        match v {
            1 => BeatPhase::Snapshot,
            2 => BeatPhase::Grad,
            3 => BeatPhase::Publish,
            4 => BeatPhase::Done,
            5 => BeatPhase::Crashed,
            _ => BeatPhase::Idle,
        }
    }
}

/// One worker's heartbeat cell. Aligned to its own cache-line pair so
/// per-iteration beats never false-share with a neighbor.
#[repr(align(128))]
struct Cell {
    /// Beat counter. Single writer (the owning worker); readers accept
    /// approximate values.
    ticks: AtomicU64,
    /// Last [`BeatPhase`], as `u32`. Single writer, approximate reads.
    phase: AtomicU32,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            ticks: AtomicU64::new(0),
            phase: AtomicU32::new(BeatPhase::Idle as u32),
        }
    }
}

/// The per-run heartbeat board: one `Cell` per trainer worker.
pub struct HeartbeatBoard {
    cells: Box<[Cell]>,
}

impl HeartbeatBoard {
    /// A board for `workers` workers, all idle at tick 0.
    pub fn new(workers: usize) -> HeartbeatBoard {
        HeartbeatBoard {
            cells: (0..workers).map(|_| Cell::new()).collect(),
        }
    }

    /// Number of worker cells.
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Worker-side: records one beat for `worker` — bumps `ticks` and
    /// sets `phase`.
    pub fn beat(&self, worker: usize, phase: BeatPhase) {
        let cell = &self.cells[worker];
        // ORDERING: Relaxed — `ticks` is single-writer (this worker);
        // a plain load+store increment is exact for the writer, and
        // liveness readers tolerate arbitrarily stale values.
        let ticks = cell.ticks.load(Ordering::Relaxed) + 1;
        // ORDERING: Relaxed — see above (the store half of the increment).
        cell.ticks.store(ticks, Ordering::Relaxed);
        // ORDERING: Relaxed — single-writer phase label, approximate
        // reads only (stall reports), synchronizes nothing.
        cell.phase.store(phase as u32, Ordering::Relaxed);
    }

    /// Updates `worker`'s phase label without consuming a tick — used
    /// for mid-iteration transitions (grad → publish) and the terminal
    /// `Done`/`Crashed` marks.
    pub fn set_phase(&self, worker: usize, phase: BeatPhase) {
        // ORDERING: Relaxed — single-writer phase label (the worker or
        // the trainer's containment path after the worker died).
        self.cells[worker].phase.store(phase as u32, Ordering::Relaxed);
    }

    /// Approximate tick count for `worker` (liveness probe; safe from
    /// any thread).
    pub fn ticks(&self, worker: usize) -> u64 {
        // ORDERING: Relaxed — single-writer counter, approximate read;
        // a stale value only delays stall detection by one poll.
        self.cells[worker].ticks.load(Ordering::Relaxed)
    }

    /// Approximate last phase for `worker` (same contract as [`ticks`](Self::ticks)).
    pub fn phase(&self, worker: usize) -> BeatPhase {
        // ORDERING: Relaxed — single-writer label, approximate read.
        BeatPhase::from_u32(self.cells[worker].phase.load(Ordering::Relaxed))
    }

    /// One line per worker: `w3: ticks=1204 phase=publish`. Safe from a
    /// watchdog thread while the run (and its monitor) is still live.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for w in 0..self.cells.len() {
            out.push_str(&format!(
                "  w{w}: ticks={} phase={}\n",
                self.ticks(w),
                self.phase(w).name()
            ));
        }
        out
    }
}

/// The most recent live board, for out-of-band diagnostics (the stress
/// watchdog). Weak so a finished run's board is dropped normally.
fn current() -> &'static Mutex<Weak<HeartbeatBoard>> {
    static CURRENT: OnceLock<Mutex<Weak<HeartbeatBoard>>> = OnceLock::new();
    CURRENT.get_or_init(|| Mutex::new(Weak::new()))
}

/// Registers `board` as the process's current run (the trainer calls
/// this at the start of every `train`). Diagnostics-only — concurrent
/// runs race for the slot and the last writer wins.
pub fn set_current(board: &Arc<HeartbeatBoard>) {
    *current().lock().unwrap_or_else(|e| e.into_inner()) = Arc::downgrade(board);
}

/// Formats [`HeartbeatBoard::report`] for the current run, if one is
/// live. The stress watchdog prints this before aborting a hung test.
pub fn report_current() -> Option<String> {
    current()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .upgrade()
        .map(|board| board.report())
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    #[test]
    fn set_phase_marks_without_a_tick() {
        let board = HeartbeatBoard::new(1);
        board.beat(0, BeatPhase::Grad);
        board.set_phase(0, BeatPhase::Crashed);
        assert_eq!(board.ticks(0), 1);
        assert_eq!(board.phase(0), BeatPhase::Crashed);
        let report = board.report();
        assert!(report.contains("w0: ticks=1 phase=crashed"), "{report}");
    }

    #[test]
    fn current_registry_upgrades_while_live_only() {
        let board = Arc::new(HeartbeatBoard::new(3));
        set_current(&board);
        board.beat(2, BeatPhase::Publish);
        let report = report_current().expect("board is live");
        assert!(report.contains("w2: ticks=1 phase=publish"), "{report}");
        drop(board);
        assert_eq!(report_current(), None, "weak ref must not leak the board");
    }
}
