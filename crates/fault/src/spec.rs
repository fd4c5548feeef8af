//! The `LSGD_FAULT` spec grammar and its parser.
//!
//! A spec is a `;`-separated list of fault items:
//!
//! ```text
//! crash:w<id>@step<n>      worker <id> panics at the start of its step <n>
//! crash:w<id>@p=<prob>     worker <id> panics with prob <prob> per step
//! stall:<site>[,p=<prob>][,us=<dur>]
//!                          probe <site> busy-sleeps <dur> µs with prob
//!                          <prob> (defaults: p=1, us=100)
//! ```
//!
//! Sites: `publish`, `snapshot`, `acquire`, `step`. Example:
//!
//! ```text
//! LSGD_FAULT='crash:w2@step120;stall:publish,p=0.01,us=500'
//! ```
//!
//! Probabilistic draws are consumed from a per-worker stream fully
//! determined by `LSGD_FAULT_SEED` (see the crate docs), so a schedule
//! replays exactly under the same seed.

use std::fmt;

/// The protocol seams that carry injection probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Inside the LAU-SPC publish CAS loop (one probe per attempt).
    Publish = 0,
    /// Inside the sharded snapshot's collect/validate loop.
    SnapshotValidate = 1,
    /// `BufferPool::acquire`.
    PoolAcquire = 2,
    /// The trainer worker's step boundary.
    WorkerStep = 3,
}

/// Number of [`Site`] variants.
pub const SITES: usize = 4;

impl Site {
    /// All sites, in discriminant order.
    pub const ALL: [Site; SITES] = [
        Site::Publish,
        Site::SnapshotValidate,
        Site::PoolAcquire,
        Site::WorkerStep,
    ];

    /// The spec-grammar name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::Publish => "publish",
            Site::SnapshotValidate => "snapshot",
            Site::PoolAcquire => "acquire",
            Site::WorkerStep => "step",
        }
    }

    fn parse(s: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|site| site.name() == s)
    }
}

/// When a [`CrashRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashWhen {
    /// At the start of exactly this worker-local step (0-based).
    AtStep(u64),
    /// With this probability per step, drawn from the worker's stream.
    WithProb(f64),
}

/// One `crash:` item: a targeted worker panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRule {
    /// Trainer worker id the rule targets.
    pub worker: u32,
    /// Trigger condition.
    pub when: CrashWhen,
}

/// One `stall:` item: a probabilistic busy-sleep at a probe site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRule {
    /// Per-probe firing probability in `[0, 1]`.
    pub p: f64,
    /// Stall duration in microseconds.
    pub us: u64,
}

/// A parsed `LSGD_FAULT` spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// Targeted worker crashes.
    pub crashes: Vec<CrashRule>,
    /// Per-site stall rules (indexed by `Site as usize`).
    pub stalls: [Option<StallRule>; SITES],
}

/// A spec-grammar error, pointing at the offending item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The item (or fragment) that failed to parse.
    pub item: String,
    /// What was expected.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec item {:?}: {}", self.item, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn err(item: &str, reason: impl Into<String>) -> SpecError {
    SpecError { item: item.to_string(), reason: reason.into() }
}

impl Plan {
    /// Parses a full spec string (see the module docs for the grammar).
    /// An empty spec is valid and injects nothing.
    pub fn parse(spec: &str) -> Result<Plan, SpecError> {
        let mut plan = Plan::default();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (kind, rest) = item
                .split_once(':')
                .ok_or_else(|| err(item, "expected <kind>:<args>"))?;
            match kind.trim() {
                "crash" => plan.crashes.push(parse_crash(item, rest)?),
                "stall" => {
                    let (site, rule) = parse_stall(item, rest)?;
                    plan.stalls[site as usize] = Some(rule);
                }
                other => return Err(err(item, format!("unknown fault kind {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stalls.iter().all(Option::is_none)
    }
}

fn parse_crash(item: &str, rest: &str) -> Result<CrashRule, SpecError> {
    let (target, trigger) = rest
        .trim()
        .split_once('@')
        .ok_or_else(|| err(item, "expected crash:w<id>@step<n> or crash:w<id>@p=<prob>"))?;
    let worker = target
        .trim()
        .strip_prefix('w')
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| err(item, "crash target must be w<id>"))?;
    let trigger = trigger.trim();
    let when = if let Some(step) = trigger.strip_prefix("step") {
        CrashWhen::AtStep(
            step.parse::<u64>()
                .map_err(|_| err(item, "step<n> needs an integer step"))?,
        )
    } else if let Some(p) = trigger.strip_prefix("p=") {
        CrashWhen::WithProb(parse_prob(item, p)?)
    } else {
        return Err(err(item, "crash trigger must be step<n> or p=<prob>"));
    };
    Ok(CrashRule { worker, when })
}

fn parse_stall(item: &str, rest: &str) -> Result<(Site, StallRule), SpecError> {
    let mut parts = rest.split(',');
    let site_name = parts.next().unwrap_or("").trim();
    let site = Site::parse(site_name).ok_or_else(|| {
        err(
            item,
            format!(
                "unknown site {site_name:?} (one of: {})",
                Site::ALL.map(Site::name).join(", ")
            ),
        )
    })?;
    let mut rule = StallRule { p: 1.0, us: 100 };
    for part in parts {
        let part = part.trim();
        if let Some(p) = part.strip_prefix("p=") {
            rule.p = parse_prob(item, p)?;
        } else if let Some(us) = part.strip_prefix("us=") {
            rule.us = us
                .parse::<u64>()
                .map_err(|_| err(item, "us=<n> needs an integer microsecond count"))?;
        } else {
            return Err(err(item, format!("unknown stall parameter {part:?}")));
        }
    }
    Ok((site, rule))
}

fn parse_prob(item: &str, raw: &str) -> Result<f64, SpecError> {
    let p = raw
        .parse::<f64>()
        .map_err(|_| err(item, "p=<prob> needs a number"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(err(item, "p=<prob> must be within [0, 1]"));
    }
    Ok(p)
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readme_example() {
        let plan = Plan::parse("crash:w2@step120;stall:publish,p=0.01,us=500")
            .expect("spec parses");
        assert_eq!(
            plan.crashes,
            vec![CrashRule { worker: 2, when: CrashWhen::AtStep(120) }]
        );
        assert_eq!(
            plan.stalls[Site::Publish as usize],
            Some(StallRule { p: 0.01, us: 500 })
        );
        assert_eq!(plan.stalls[Site::PoolAcquire as usize], None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn stall_defaults_and_whitespace() {
        let plan = Plan::parse(" stall:acquire ; crash:w0@p=0.5 ;").expect("spec parses");
        assert_eq!(plan.stalls[Site::PoolAcquire as usize], Some(StallRule { p: 1.0, us: 100 }));
        assert_eq!(plan.crashes[0].when, CrashWhen::WithProb(0.5));
        assert!(Plan::parse("").expect("empty spec is valid").is_empty());
    }

    #[test]
    fn every_site_name_round_trips() {
        for site in Site::ALL {
            let plan = Plan::parse(&format!("stall:{},us=7", site.name())).unwrap();
            assert_eq!(plan.stalls[site as usize], Some(StallRule { p: 1.0, us: 7 }));
        }
    }

    #[test]
    fn malformed_items_are_rejected_with_context() {
        for bad in [
            "crash:2@step5",        // missing w
            "crash:w1@stepx",       // non-integer step
            "crash:w1@sometimes",   // unknown trigger
            "stall:everywhere",     // unknown site
            "stall:pop",            // retired site
            "stall:publish,q=1",    // unknown parameter
            "stall:publish,p=1.5",  // out-of-range probability
            "oom:after=64",         // retired kind
            "flood:all",            // unknown kind
            "justtext",             // no colon
        ] {
            let e = Plan::parse(bad).expect_err(bad);
            assert!(e.to_string().contains("bad fault spec item"), "{e}");
        }
    }
}
