//! Sharded ParameterVector — per-shard LAU-SPC publication domains with a
//! cross-shard read protocol.
//!
//! # Why shard
//!
//! One publication domain ([`crate::paramvec`]; Leashed-SGD runs on
//! exactly one) copies the *entire* parameter vector into a fresh buffer
//! before its CAS, so publication cost is O(d) even when an update
//! touches a handful of coordinates — exactly the sparse regime HOGWILD! (Niu et al., 2011)
//! exploits. Splitting the vector into S fixed-width shards, each an
//! independent publication domain running the same LAU-SPC protocol
//! (per-shard sequence number `t`, reader-count/stale/deleted state-word
//! reclamation, per-shard `AtomicPtr` head, per-shard slot pool with
//! its free bits), makes publication cost proportional to the
//! number of *dirty* shards: an update with k nonzero coordinates copies
//! and CASes only the shards those coordinates land in.
//!
//! # Consistency model
//!
//! *Within* a shard the full Leashed-SGD guarantees hold: every published
//! shard update is applied exactly once, atomically, onto the previous
//! published shard state. *Across* shards two read modes are offered
//! ([`SnapshotMode`]):
//!
//! * **Fast** — acquire each shard head once, in index order. Different
//!   shards may be observed at different versions (HOGWILD!-style
//!   cross-shard relaxation; each shard is still internally untorn).
//! * **Consistent** — the classic double-collect atomic snapshot: acquire
//!   all shard heads recording the per-shard sequence vector, then
//!   re-read every head; if each still points at the vector its guard
//!   pins (a pinned slot cannot be recycled, so this is the same vector,
//!   not a republished one) the snapshot is linearizable (every shard
//!   held its sequence number throughout the interval between the last
//!   acquisition and the first validation read), otherwise drop the
//!   guards and retry. A validation
//!   failure implies some shard published — system-wide progress — so the
//!   retry loop is lock-free.
//!
//! Note the cross-shard *write* protocol is intentionally relaxed: a
//! multi-shard update publishes its dirty shards one CAS at a time, so a
//! concurrent Fast reader can observe some shards with the update and
//! others without, and a persistence-bounded update can abort on a subset
//! of its shards. This is the sharding trade-off the ROADMAP asks for —
//! per-shard consistency plus a *choice* of cross-shard strictness on the
//! read side, rather than a global atomic domain.

mod sharded;
mod snapshot;

pub use sharded::{ShardedPublish, ShardedShared};
pub use snapshot::{ShardedSnapshot, SnapshotMode};

/// Minimum shard width (in parameters) the default heuristic aims for:
/// below this, per-shard bookkeeping (seq number, head pointer, pool
/// traffic) stops amortising over the copy it saves.
const MIN_HEURISTIC_SHARD_WIDTH: usize = 1024;

/// Default shard count for a `dim`-parameter vector published by
/// `workers` concurrent writers, used when a run does not configure one
/// explicitly (ROADMAP "adaptive shard-count selection").
///
/// Rationale: a publisher conflicts with another only when their dirty
/// shard sets overlap, so we want several independent publication
/// domains per concurrent publisher — 8·workers, rounded up to a power
/// of two (which also keeps the fixed shard widths uniform). That target
/// is then capped so shards stay at least `MIN_HEURISTIC_SHARD_WIDTH`
/// wide: the PR 4 `paramvec_ops` sweep showed the sparse-publish win
/// saturating around that width (S = 64 at the paper's `d = 134,794`),
/// while narrower shards only add header/CAS overhead.
pub fn default_shards(dim: usize, workers: usize) -> usize {
    let target = (8 * workers.max(1)).next_power_of_two();
    let max_by_width = (dim / MIN_HEURISTIC_SHARD_WIDTH).max(1);
    target.clamp(1, max_by_width)
}

/// Resolves the shard count for a run: the `configured` count when
/// positive, otherwise the [`default_shards`] heuristic from the problem
/// dimension and worker count (`configured == 0` means "auto"). The
/// constructor additionally clamps to `[1, dim]`.
pub fn effective_shards(configured: usize, dim: usize, workers: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        default_shards(dim, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_shards_defaults_to_configured() {
        assert_eq!(effective_shards(8, 1_000_000, 4), 8);
    }

    #[test]
    fn effective_shards_zero_means_auto() {
        assert_eq!(
            effective_shards(0, 134_794, 8),
            default_shards(134_794, 8)
        );
    }

    #[test]
    fn default_shards_heuristic_shape() {
        // Paper MLP dimension: the width cap (134,794 / 1024 = 131)
        // leaves the 8-per-worker power-of-two target intact.
        assert_eq!(default_shards(134_794, 1), 8);
        assert_eq!(default_shards(134_794, 4), 32);
        assert_eq!(default_shards(134_794, 8), 64);
        // Paper CNN dimension (d = 27,354): capped by width to 26.
        assert_eq!(default_shards(27_354, 8), 26);
        // Tiny problems never shard.
        assert_eq!(default_shards(100, 16), 1);
        // Monotone in workers until the width cap bites.
        let mut last = 0;
        for w in 1..=32 {
            let s = default_shards(1 << 20, w);
            assert!(s >= last, "workers {w}: {s} < {last}");
            last = s;
        }
    }
}
