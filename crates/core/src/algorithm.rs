//! The algorithm spectrum evaluated by the paper, plus the sharded
//! Leashed-SGD extension.

use crate::shard::SnapshotMode;
use std::fmt;

/// One of the parallel SGD algorithms from the paper's evaluation (§V) —
/// sequential SGD, lock-based AsyncSGD, HOGWILD!, and Leashed-SGD with a
/// configurable persistence bound — or the sharded Leashed-SGD variant
/// built on [`crate::shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Single-threaded SGD (`SEQ`).
    Sequential,
    /// Lock-based AsyncSGD (`ASYNC`, Algorithm 2).
    AsyncLock,
    /// Synchronisation-free HOGWILD! (`HOG`, Algorithm 4).
    Hogwild,
    /// Leashed-SGD (Algorithm 3) with persistence bound `Tp`
    /// (`None` = unbounded, the paper's `LSH_ps∞`).
    Leashed {
        /// Max failed CASes before an update is abandoned.
        persistence: Option<u32>,
    },
    /// Sharded Leashed-SGD: the parameter vector split into `shards`
    /// independent LAU-SPC publication domains; publications copy + CAS
    /// only the dirty shards, reads use the selected cross-shard
    /// [`SnapshotMode`]. [`Algorithm::Leashed`] is exactly this store
    /// with one shard.
    ShardedLeashed {
        /// Per-shard max failed CASes before that shard's update is
        /// abandoned (`None` = unbounded).
        persistence: Option<u32>,
        /// Requested shard count `S` (clamped to `[1, d]`). `0` selects
        /// the [`crate::shard::default_shards`] heuristic from the
        /// problem dimension and worker count (see
        /// [`crate::shard::effective_shards`]).
        shards: usize,
        /// Cross-shard read consistency for worker gradient reads.
        snapshot: SnapshotMode,
    },
}

impl Algorithm {
    /// The paper's label for this algorithm (as used in the figures).
    ///
    /// Note: the sharded label carries the *configured* shard count
    /// (`auto` for `shards = 0`); harnesses that want the resolved count
    /// report `crate::shard::effective_shards` alongside, as
    /// `examples/sparse_logreg.rs` does.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Sequential => "SEQ".into(),
            Algorithm::AsyncLock => "ASYNC".into(),
            Algorithm::Hogwild => "HOG".into(),
            Algorithm::Leashed { persistence: None } => "LSH_ps_inf".into(),
            Algorithm::Leashed {
                persistence: Some(tp),
            } => format!("LSH_ps{tp}"),
            Algorithm::ShardedLeashed {
                persistence,
                shards,
                snapshot,
            } => {
                let ps = match persistence {
                    None => "ps_inf".into(),
                    Some(tp) => format!("ps{tp}"),
                };
                let s = if *shards == 0 {
                    "auto".into()
                } else {
                    shards.to_string()
                };
                format!("LSH_s{s}_{ps}_{}", snapshot.label())
            }
        }
    }

    /// True for Leashed-SGD variants (sharded or not).
    pub fn is_leashed(&self) -> bool {
        matches!(
            self,
            Algorithm::Leashed { .. } | Algorithm::ShardedLeashed { .. }
        )
    }

    /// The six algorithm configurations benchmarked in the paper's
    /// evaluation section: SEQ, ASYNC, HOG, LSH_ps∞, LSH_ps1, LSH_ps0.
    pub fn paper_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::Sequential,
            Algorithm::AsyncLock,
            Algorithm::Hogwild,
            Algorithm::Leashed { persistence: None },
            Algorithm::Leashed {
                persistence: Some(1),
            },
            Algorithm::Leashed {
                persistence: Some(0),
            },
        ]
    }

    /// The parallel lineup only (everything except SEQ).
    pub fn parallel_lineup() -> Vec<Algorithm> {
        Self::paper_lineup()[1..].to_vec()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_conventions() {
        assert_eq!(Algorithm::Sequential.label(), "SEQ");
        assert_eq!(Algorithm::AsyncLock.label(), "ASYNC");
        assert_eq!(Algorithm::Hogwild.label(), "HOG");
        assert_eq!(
            Algorithm::Leashed { persistence: None }.label(),
            "LSH_ps_inf"
        );
        assert_eq!(
            Algorithm::Leashed {
                persistence: Some(0)
            }
            .label(),
            "LSH_ps0"
        );
    }

    #[test]
    fn paper_lineup_has_six_entries() {
        let lineup = Algorithm::paper_lineup();
        assert_eq!(lineup.len(), 6);
        assert_eq!(lineup[0], Algorithm::Sequential);
        assert_eq!(Algorithm::parallel_lineup().len(), 5);
    }

    #[test]
    fn is_leashed_discriminates() {
        assert!(Algorithm::Leashed { persistence: None }.is_leashed());
        assert!(!Algorithm::Hogwild.is_leashed());
        let sharded = Algorithm::ShardedLeashed {
            persistence: Some(1),
            shards: 8,
            snapshot: SnapshotMode::Consistent,
        };
        assert!(sharded.is_leashed());
    }

    #[test]
    fn sharded_labels_encode_configuration() {
        assert_eq!(
            Algorithm::ShardedLeashed {
                persistence: Some(1),
                shards: 8,
                snapshot: SnapshotMode::Consistent,
            }
            .label(),
            "LSH_s8_ps1_cst"
        );
        assert_eq!(
            Algorithm::ShardedLeashed {
                persistence: None,
                shards: 64,
                snapshot: SnapshotMode::Fast,
            }
            .label(),
            "LSH_s64_ps_inf_fast"
        );
        assert_eq!(
            Algorithm::ShardedLeashed {
                persistence: None,
                shards: 0,
                snapshot: SnapshotMode::Fast,
            }
            .label(),
            "LSH_sauto_ps_inf_fast"
        );
    }
}
