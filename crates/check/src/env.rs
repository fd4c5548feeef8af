//! Checked parsing for the workspace's `LSGD_*` environment knobs.
//!
//! Every knob used to hand-roll `env::var(..).ok().and_then(|v|
//! v.parse().ok())` — which silently falls back to the default when the
//! value is malformed, turning a typo (`LSGD_THREADS=fuor`) into a
//! mystery perf regression instead of a diagnosable mistake. This module
//! is the one shared parser: a malformed value still falls back (a knob
//! must never abort a run), but the fallback is announced **once per
//! variable** on stderr.
//!
//! It lives in `lsgd_check` because this crate is the std-only bottom of
//! the workspace dependency stack — `sync`, `trace`, `runtime`, `fault`,
//! and `core` can all reach it. `lsgd_core` re-exports it as
//! `lsgd_core::env` for the crates (and tests) that sit above core.

use std::collections::HashSet;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

/// One warning per variable per process, whatever parses it and however
/// often: repeated probes of a bad knob must not spam stderr.
fn warned() -> &'static Mutex<HashSet<String>> {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Emits `detail` for `name` on stderr, at most once per process.
/// Public so other env-driven front doors (e.g. `lsgd_fault`'s spec
/// parser) share the same dedup set.
pub fn warn_once(name: &str, detail: &str) {
    let mut set = warned().lock().unwrap_or_else(|e| e.into_inner());
    if set.insert(name.to_string()) {
        eprintln!("lsgd: {name}: {detail}");
    }
}

/// Number of variables warned about so far (test hook).
#[doc(hidden)]
pub fn warned_count() -> usize {
    warned().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// The raw value of `name`, if set and nonempty. An empty value is
/// treated as unset everywhere in this workspace.
pub fn var(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Parses `name` as a `T`, warning once (and returning `None`) when the
/// variable is set but malformed. Unset/empty is silently `None`.
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    let raw = var(name)?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(
                name,
                &format!(
                    "ignoring malformed value {raw:?} (expected {}); using the default",
                    std::any::type_name::<T>()
                ),
            );
            None
        }
    }
}

/// [`parse`] with an inline default.
pub fn parse_or<T: FromStr>(name: &str, default: T) -> T {
    parse(name).unwrap_or(default)
}

/// Parses `name` as a positive (≥ 1) integer — the shape of every
/// count-like knob (`LSGD_THREADS`, `LSGD_STRESS_THREADS`, …). Warns once on a
/// malformed value *or* an explicit zero.
pub fn positive_usize(name: &str) -> Option<usize> {
    match parse::<usize>(name)? {
        0 => {
            warn_once(name, "ignoring 0 (must be a positive integer); using the default");
            None
        }
        n => Some(n),
    }
}

/// Boolean gate: `true` iff `name` is set, nonempty, and not `"0"`
/// (the `LSGD_TRACE` / `LSGD_BENCH_SMOKE` convention).
pub fn flag(name: &str) -> bool {
    var(name).map(|v| v != "0").unwrap_or(false)
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    // Each test uses its own uniquely named variable, so the
    // process-global environment mutation cannot race other tests.

    #[test]
    fn unset_and_empty_are_none_without_warning() {
        assert_eq!(parse::<usize>("LSGD_ENV_TEST_UNSET"), None);
        std::env::set_var("LSGD_ENV_TEST_EMPTY", "");
        assert_eq!(var("LSGD_ENV_TEST_EMPTY"), None);
        assert_eq!(parse_or::<usize>("LSGD_ENV_TEST_EMPTY", 7), 7);
    }

    #[test]
    fn well_formed_values_parse() {
        std::env::set_var("LSGD_ENV_TEST_OK", " 42 ");
        assert_eq!(parse::<usize>("LSGD_ENV_TEST_OK"), Some(42));
        assert_eq!(positive_usize("LSGD_ENV_TEST_OK"), Some(42));
    }

    #[test]
    fn malformed_value_warns_once_and_defaults() {
        std::env::set_var("LSGD_ENV_TEST_BAD", "fuor");
        let before = warned_count();
        assert_eq!(parse_or::<usize>("LSGD_ENV_TEST_BAD", 3), 3);
        assert_eq!(warned_count(), before + 1, "first malformed read warns");
        assert_eq!(parse_or::<usize>("LSGD_ENV_TEST_BAD", 3), 3);
        assert_eq!(warned_count(), before + 1, "repeat reads stay quiet");
    }

    #[test]
    fn zero_count_warns_and_defaults() {
        std::env::set_var("LSGD_ENV_TEST_ZERO", "0");
        let before = warned_count();
        assert_eq!(positive_usize("LSGD_ENV_TEST_ZERO"), None);
        assert!(warned_count() > before);
    }

    #[test]
    fn flag_convention() {
        assert!(!flag("LSGD_ENV_TEST_FLAG_UNSET"));
        std::env::set_var("LSGD_ENV_TEST_FLAG0", "0");
        assert!(!flag("LSGD_ENV_TEST_FLAG0"));
        std::env::set_var("LSGD_ENV_TEST_FLAG1", "1");
        assert!(flag("LSGD_ENV_TEST_FLAG1"));
        std::env::set_var("LSGD_ENV_TEST_FLAGX", "yes");
        assert!(flag("LSGD_ENV_TEST_FLAGX"));
    }
}
