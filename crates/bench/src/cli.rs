//! Minimal flag parsing shared by the harness's figures (no external CLI
//! dependency — the workspace's dependency budget is spent on the science).

use std::time::Duration;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Paper-scale mode.
    pub full: bool,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Repetitions per configuration.
    pub reps: usize,
    /// Dataset size.
    pub samples: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Per-run wall budget.
    pub wall: Duration,
    /// Base seed.
    pub seed: u64,
    /// Step size η.
    pub eta: f32,
    /// Optional CSV output directory.
    pub csv: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            full: false,
            threads: vec![1, 2, 4],
            reps: 3,
            samples: 2_000,
            batch: 64,
            wall: Duration::from_secs(15),
            seed: 1,
            eta: 0.05,
            csv: None,
        }
    }
}

impl Args {
    /// Parses flags, panicking with a usage message on unknown ones.
    /// `defaults` seeds the pre-flag values so each figure can pick its
    /// own scale.
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I, defaults: Args) -> Args {
        let mut a = defaults;
        for arg in iter {
            let (key, value) = match arg.split_once('=') {
                Some((k, v)) => (k.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let req = |v: &Option<String>| -> String {
                v.clone()
                    .unwrap_or_else(|| panic!("flag {key} requires =value"))
            };
            match key.as_str() {
                "--full" => {
                    a.full = true;
                    // Paper-scale defaults (overridable by later flags).
                    a.threads = vec![1, 4, 8, 16, 24, 32, 34, 40, 48, 56, 64, 68];
                    a.reps = 11;
                    a.samples = 60_000;
                    a.batch = 512;
                    a.wall = Duration::from_secs(120);
                    a.eta = 0.005;
                }
                "--threads" => {
                    a.threads = req(&value)
                        .split(',')
                        .map(|s| s.parse().expect("bad thread count"))
                        .collect();
                }
                "--reps" => a.reps = req(&value).parse().expect("bad reps"),
                "--samples" => a.samples = req(&value).parse().expect("bad samples"),
                "--batch" => a.batch = req(&value).parse().expect("bad batch"),
                "--wall" => {
                    a.wall = Duration::from_secs_f64(req(&value).parse().expect("bad wall"))
                }
                "--seed" => a.seed = req(&value).parse().expect("bad seed"),
                "--eta" => a.eta = req(&value).parse().expect("bad eta"),
                "--csv" => a.csv = Some(req(&value)),
                "--help" | "-h" => {
                    eprintln!(
                        "common flags: --full --threads=a,b,c --reps=N --samples=N \
                         --batch=N --wall=SECS --seed=N --eta=F --csv=DIR"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        a
    }

    /// Writes `content` to `<csv_dir>/<name>` when `--csv` was given.
    pub fn maybe_write_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{name}");
            std::fs::write(&path, content).expect("write csv");
            println!("  [csv] wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse_from(args.iter().map(|s| s.to_string()), Args::default())
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[]);
        assert!(!a.full);
        assert_eq!(a.threads, vec![1, 2, 4]);
        assert_eq!(a.reps, 3);
    }

    #[test]
    fn full_flag_restores_paper_scale() {
        let a = parse(&["--full"]);
        assert!(a.full);
        assert_eq!(a.reps, 11);
        assert_eq!(a.samples, 60_000);
        assert_eq!(a.batch, 512);
        assert!(a.threads.contains(&68));
        assert!((a.eta - 0.005).abs() < 1e-9);
    }

    #[test]
    fn explicit_flags_override_full() {
        let a = parse(&["--full", "--reps=2", "--threads=3,5"]);
        assert_eq!(a.reps, 2);
        assert_eq!(a.threads, vec![3, 5]);
    }

    #[test]
    fn value_flags_parse() {
        let a = parse(&["--wall=2.5", "--seed=9", "--eta=0.01", "--batch=128"]);
        assert_eq!(a.wall, Duration::from_secs_f64(2.5));
        assert_eq!(a.seed, 9);
        assert_eq!(a.batch, 128);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }
}
