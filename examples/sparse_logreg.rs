//! Sparse logistic regression at scale — the workload the sharded
//! ParameterVector is built for.
//!
//! A high-dimensional text-like instance (power-law token frequencies,
//! L2-normalised log-tf rows) trained with SEQ, HOGWILD!, and sharded
//! Leashed-SGD. The sharded runs use the native sparse-gradient path:
//! each minibatch publishes only `(index, value)` pairs, so only the
//! shards owning touched coordinates are copied + CASed — watch the
//! dirty-shard column sit far below S while the unsharded algorithms pay
//! the full dimension every update.
//!
//! ```text
//! cargo run --release --example sparse_logreg
//! # shard count as the first argument (default 64; 0 = heuristic):
//! cargo run --release --example sparse_logreg -- 16
//! ```

use leashed_sgd::core::prelude::*;
use leashed_sgd::core::shard::effective_shards;
use leashed_sgd::data::sparse_logreg::sparse_logreg;
use std::time::Duration;

fn main() {
    let dim = 8_192;
    let shards: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    // What the trainer will actually use (a configured 0 selects the
    // dim/worker heuristic).
    let shards_eff = effective_shards(shards, dim, 4);
    let data = sparse_logreg(4_000, dim, 16, 11);
    println!(
        "sparse logreg: n={} d={} avg_nnz={:.1} | w* reference accuracy {:.3}",
        data.len(),
        data.dim(),
        data.avg_nnz(),
        data.accuracy(&data.w_star),
    );
    let problem = SparseLogRegProblem::new(data, 16);

    let algos = [
        Algorithm::Sequential,
        Algorithm::Hogwild,
        Algorithm::ShardedLeashed {
            persistence: Some(1),
            shards,
            snapshot: SnapshotMode::Consistent,
        },
        Algorithm::ShardedLeashed {
            persistence: Some(1),
            shards,
            snapshot: SnapshotMode::Fast,
        },
    ];
    println!(
        "\n{:<22} {:>10} {:>12} {:>10} {:>10} {:>14}",
        "algo", "50% time", "updates/s", "logloss", "converged", "dirty shards"
    );
    for algo in algos {
        let cfg = TrainConfig {
            algorithm: algo,
            threads: 4,
            eta: 1.0,
            epsilons: vec![0.5],
            max_wall: Duration::from_secs(8),
            eval_every: Duration::from_millis(20),
            seed: 3,
            ..TrainConfig::default()
        };
        let r = train(&problem, &cfg);
        let dirty = if r.dirty_shards.count() > 0 {
            format!(
                "{:.1}/{} (p99 {})",
                r.dirty_shards.mean(),
                shards_eff,
                r.dirty_shards.quantile(0.99)
            )
        } else {
            "-".into()
        };
        println!(
            "{:<22} {:>10} {:>12.0} {:>10.4} {:>10} {:>14}",
            algo.label(),
            r.time_to(0.5)
                .map(|s| format!("{s:.2}s"))
                .unwrap_or_else(|| "-".into()),
            r.updates_per_sec(),
            r.final_loss,
            if r.fully_converged() { "conv" } else { "-" },
            dirty,
        );
        // Protocol counters explain the throughput column: publish
        // retries/aborts and snapshot retries are where the lock-free
        // rows spend the updates/s they give up. Non-empty only when
        // built with `--features trace` and `LSGD_TRACE=1` is set.
        let report = r.trace_report();
        if !report.is_empty() {
            print!("{report}");
        }
    }

    println!(
        "\nThe sharded rows publish sparse (index, value) pairs: only the \
         \nshards owning a minibatch's tokens are copied + CASed, so the \
         \nmean dirty-shard count stays far below S={shards_eff} while SEQ/HOG \
         \ntouch all d={dim} coordinates every update. The first \
         \nargument sets the shard count."
    );
}
