//! [`ParamStore`]: the one seam between the SGD step and the shared
//! parameter vector.
//!
//! The paper's Algorithms 2–4 are one thread body — read θ, compute a
//! gradient, make the update visible — that differs only in the first and
//! last verb. A store supplies those two verbs; [`crate::trainer`] supplies
//! everything else exactly once.
//!
//! | store | `read` | `publish` | paper |
//! |---|---|---|---|
//! | [`LockedParams`](crate::baseline::LockedParams) | lock, copy into the worker's buffer, unlock | lock, `θ -= η·g` in place (a sparse `g` writes only its pairs), unlock | SEQ (`m = 1`), ASYNC — Algorithm 2 |
//! | [`HogwildParams`](crate::baseline::HogwildParams) | unsynchronised per-component copy | racy per-component read-modify-write, on a sparse `g`'s pairs only | HOGWILD! — Algorithm 4 |
//! | [`ShardedShared`](crate::shard::ShardedShared) with S = 1 | zero-copy read of the one domain: a counted read of the published buffer (P3) | LAU-SPC: copy latest, apply, one CAS, retry ≤ `Tp` | Leashed-SGD — Algorithm 3 |
//! | [`ShardedShared`](crate::shard::ShardedShared) with S > 1 | per-shard counted reads gathered into the worker's buffer | LAU-SPC on the dirty shards only | sharded Leashed-SGD (extension) |
//!
//! `read` is closure-shaped so that Leashed-SGD can hand out the published
//! buffer itself for the duration of the gradient computation, while the
//! other stores hand out worker-owned scratch.

use crate::algorithm::Algorithm;
use crate::pool::PoolTally;
use lsgd_metrics::OnlineStats;

/// The update direction handed to [`ParamStore::publish`]; the store
/// applies `θ -= η · direction`.
#[derive(Debug, Clone, Copy)]
pub enum Direction<'a> {
    /// One value per coordinate.
    Dense(&'a [f32]),
    /// `(index, value)` pairs with strictly ascending indices; absent
    /// coordinates are zero.
    Sparse(&'a [(u32, f32)]),
}

/// What one [`ParamStore::publish`] did. The default is an abandoned
/// update of a baseline store (no shards, no publication race).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// `false` when the persistence bound abandoned the update.
    pub published: bool,
    /// CAS races lost along the way (0 for the non-CAS stores).
    pub failed_cas: u32,
    /// Total staleness τ: updates that took effect between this worker's
    /// `read` and this update. Meaningful when `published`.
    pub tau: u64,
    /// Scheduling staleness τs (§IV.2): competitors that won the LAU-SPC
    /// race after this update was first ready. `None` for stores without
    /// a publication race.
    pub tau_s: Option<u64>,
    /// Shards this update touched; `None` for the baseline stores.
    pub dirty: Option<u32>,
}

/// A shared parameter vector that `m` workers read and update
/// concurrently. See the [module docs](self) for the three implementations.
pub trait ParamStore: Sync {
    /// Per-worker state: the local copy of θ for stores that copy on
    /// read, the sequence number(s) of the last read, and the gauge
    /// accounting for [`worker_bytes`](Self::worker_bytes) (returned on
    /// drop, so a worker that unwinds does not leak them).
    type Worker: Send;

    /// Creates one worker's state. `algorithm` carries the per-algorithm
    /// read/publish parameters (persistence bound, snapshot mode).
    ///
    /// # Panics
    /// The LAU-SPC store panics if `algorithm` is not a Leashed variant,
    /// or is unsharded Leashed-SGD on more than one shard.
    fn worker(&self, algorithm: &Algorithm) -> Self::Worker;

    /// Reads θ and runs `f` on it, remembering in `worker` which state
    /// was read.
    fn read<R>(&self, worker: &mut Self::Worker, f: impl FnOnce(&[f32]) -> R) -> R;

    /// Applies `θ -= eta · direction` and makes it visible. `tu` receives
    /// the paper's `Tu`: one sample per call, or one per CAS attempt for
    /// the LAU-SPC stores.
    fn publish(
        &self,
        worker: &mut Self::Worker,
        direction: Direction<'_>,
        eta: f32,
        tu: &mut OnlineStats,
    ) -> StepOutcome;

    /// Copies the current θ into `dst` (the convergence monitor's read).
    fn snapshot_into(&self, dst: &mut [f32]);

    /// Bytes of worker-local θ-sized buffers the paper's memory model
    /// charges to each worker (local gradient, plus the local copy for
    /// stores that copy on read).
    fn worker_bytes(&self) -> usize;

    /// What the store's slot pools did: slots allocated, the Lemma 2
    /// high-water mark, and acquires served by a recycled slot (zero for
    /// stores without a pool).
    fn pool_tally(&self) -> PoolTally {
        PoolTally::default()
    }

    /// Reads by `worker` that asked for a consistent view and got a
    /// degraded one (0 for stores whose reads cannot degrade).
    fn degraded_reads(&self, _worker: &Self::Worker) -> u64 {
        0
    }
}
