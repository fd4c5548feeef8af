//! Runs the `paper` binary over every id in one call at a tiny scale and
//! checks what each id prints and records: its title line, its
//! paper-vs-measured blocks, and for a training id one `<id>.csv` row per
//! run under the shared record header.

use std::path::Path;
use std::process::Command;

/// `(id, title line, paper-vs-measured blocks, runs at one thread)`.
/// At `--threads=1` a default lineup is the six-algorithm paper lineup.
const IDS: &[(&str, &str, &[&str], usize)] = &[
    ("table1", "=== Table I — summary of experiments", &[], 0),
    (
        "fig3",
        "=== Fig. 3 — MLP scalability",
        &["Fig. 3 (left)", "Fig. 3 (right)"],
        6,
    ),
    ("fig4", "=== Fig. 4 — MLP time-to-eps", &["Fig. 4"], 6),
    ("fig5", "=== Fig. 5 — MLP training loss", &["Fig. 5"], 6),
    ("fig6", "=== Fig. 6 — MLP staleness", &["Fig. 6"], 6),
    ("fig7", "=== Fig. 7 — CNN convergence", &["Fig. 7"], 6),
    // Five step sizes.
    ("fig8", "=== Fig. 8 — step-size sweep", &["Fig. 8"], 30),
    // LSH_ps_inf at m = 2 on both networks.
    ("fig9", "=== Fig. 9 — gradient computation", &["Fig. 9"], 2),
    // Both networks.
    (
        "fig10",
        "=== Fig. 10 — memory consumption",
        &["Fig. 10"],
        12,
    ),
    ("sec4", "=== fixed points and closed form", &["Sec. IV"], 0),
];

const RECORD_KEYS: &str = "workload,m,algo,eta,rep,seed,eps,outcome,";

#[test]
fn every_id_prints_its_figure_and_records_one_row_per_run() {
    let dir = std::env::temp_dir().join(format!("paper_smoke_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(IDS.iter().map(|(id, ..)| *id))
        .args([
            "--threads=1",
            "--reps=1",
            "--samples=200",
            "--batch=16",
            "--wall=0.1",
        ])
        .arg(format!("--csv={}", dir.display()))
        .output()
        .expect("paper runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut header = None;
    for &(id, title, claims, runs) in IDS {
        assert!(
            stdout.lines().any(|l| l.starts_with(title)),
            "{id}: no `{title}`"
        );
        for claim in claims {
            let block = format!("paper-vs-measured — {claim}:");
            assert!(stdout.contains(&block), "{id}: no `{block}`");
        }
        if runs == 0 {
            continue;
        }
        let csv = read(&dir.join(format!("{id}.csv")));
        let mut lines = csv.lines();
        let head = lines.next().expect("header row");
        assert!(head.starts_with(RECORD_KEYS), "{id}: header {head}");
        assert_eq!(
            *header.get_or_insert(head.to_string()),
            head,
            "{id}: header differs"
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), runs, "{id}: one row per run");
        let width = head.split(',').count();
        for row in rows {
            assert_eq!(row.split(',').count(), width, "{id}: {row}");
        }
    }
    assert!(read(&dir.join("fig5_loss_m1_SEQ.csv")).starts_with("t_secs,loss\n"));
    assert!(read(&dir.join("fig6_tau.csv")).starts_with("m,algo,tau,count\n"));
    std::fs::remove_dir_all(&dir).expect("remove the csv dir");
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
