//! The ordering-audit lint: every `Ordering::Relaxed` / `Ordering::SeqCst`
//! site in `crates/` must carry an adjacent `// ORDERING:` justification.
//!
//! `Relaxed` and `SeqCst` are the two orderings that most often hide
//! bugs — `Relaxed` because it synchronizes nothing, `SeqCst` because
//! it is frequently cargo-culted where a cheaper ordering (or a real
//! protocol argument) is needed. Acquire/Release sites read as intent;
//! these two need a written argument. The audit is textual on purpose:
//! it runs with zero dependencies, in any build, in milliseconds, and
//! the discipline it enforces ("say *why* next to the site") is what
//! reviews and the model checker's reports key off.
//!
//! A site is justified when `// ORDERING:` appears on the line itself
//! or on a line reached by walking upward through (a) continuation
//! lines of the same multi-line statement, (b) attribute lines, and
//! (c) comment lines. The walk stops at the first line that completes
//! an *earlier* statement (ends with `;` or `}`, or is blank), so one
//! comment block above a `compare_exchange` covers every `Ordering::`
//! argument inside it, while a marker stranded behind an unrelated
//! earlier statement does not leak downward. [`MAX_SCAN`] bounds the
//! walk. Lines that are themselves comments are never sites.
//!
//! Run as `cargo run -p lsgd_check --bin ordering_audit` (CI does) or
//! through the `ordering_audit_is_clean` test in this crate.

use std::fmt;
use std::path::{Path, PathBuf};

/// Hard bound on the upward justification walk, counting every line,
/// so pathological files (one giant expression) stay cheap to audit.
pub const MAX_SCAN: usize = 25;

// Assembled at runtime so the audit does not flag its own source.
fn needles() -> [String; 2] {
    let prefix = "Ordering::";
    [format!("{prefix}Relaxed"), format!("{prefix}SeqCst")]
}

fn marker() -> String {
    format!("// {}:", "ORDERING")
}

/// An unjustified ordering site.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path of the offending file (workspace-relative when possible).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: unjustified ordering site (add `{}` nearby): {}",
            self.path.display(),
            self.line,
            marker(),
            self.text
        )
    }
}

fn is_comment_line(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("*") || trimmed.starts_with("/*")
}

/// Whether a (trimmed) code line terminates the statement above it, so
/// the justification walk must not continue past it: end-of-statement
/// `;`, block close, or a blank separator. Block *openers* (`{`) are
/// deliberately not stops — a site that is the first statement of an
/// `if`/`loop` body is justified by the comment above the opener.
fn ends_statement(trimmed: &str) -> bool {
    trimmed.is_empty() || trimmed.ends_with(';') || trimmed.ends_with('}')
}

/// The justification walk described in the module docs: from the site
/// upward through same-statement continuations, attributes and comment
/// lines, stopping at the first completed earlier statement,
/// hard-capped at [`MAX_SCAN`] lines.
fn justified(lines: &[&str], site: usize, marker: &str) -> bool {
    if lines[site].contains(marker) {
        return true;
    }
    for step in 1..=MAX_SCAN.min(site) {
        let raw = lines[site - step];
        if raw.contains(marker) {
            return true;
        }
        let trimmed = raw.trim();
        if is_comment_line(trimmed) {
            continue; // comment blocks are free to traverse
        }
        // Attribute lines (e.g. the `#[cfg]` gating a mutated ordering)
        // ride along with the statement they decorate.
        if trimmed.starts_with("#[") {
            continue;
        }
        if ends_statement(trimmed) {
            return false; // crossed into an unrelated earlier statement
        }
    }
    false
}

/// Audits one file's source text. Exposed for the audit's own tests.
pub fn audit_source(path: &Path, source: &str) -> Vec<Violation> {
    let needles = needles();
    let marker = marker();
    let lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim();
        if is_comment_line(trimmed) {
            continue;
        }
        if !needles.iter().any(|n| raw.contains(n.as_str())) {
            continue;
        }
        if !justified(&lines, i, &marker) {
            violations.push(Violation {
                path: path.to_path_buf(),
                line: i + 1,
                text: trimmed.to_string(),
            });
        }
    }
    violations
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            // Skip build output if someone points the audit at a dirty tree.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root (the directory holding `crates/`) from
/// this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Audits every `.rs` file under `<root>/crates/`, returning all
/// unjustified `Relaxed`/`SeqCst` sites.
pub fn audit_crates(root: &Path) -> std::io::Result<Vec<Violation>> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    walk(&crates, &mut files)?;
    files.sort();
    let mut violations = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        violations.extend(audit_source(&display, &source));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_bare_site() {
        let src = "let x = a.load(Ordering::";
        let src = format!("{src}Relaxed);\n");
        let v = audit_source(Path::new("t.rs"), &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn accepts_adjacent_justification() {
        let marker = format!("// {}: monotone counter, no ordering needed\n", "ORDERING");
        let site = format!("let x = a.fetch_add(1, Ordering::{});\n", "Relaxed");
        let src = format!("{marker}{site}");
        assert!(audit_source(Path::new("t.rs"), &src).is_empty());
    }

    #[test]
    fn justification_does_not_cross_statement_boundaries() {
        let marker = format!("// {}: too far away\n", "ORDERING");
        let pad = "let _ = 0;\n";
        let site = format!("a.store(1, Ordering::{});\n", "SeqCst");
        let src = format!("{marker}{pad}{site}");
        assert_eq!(audit_source(Path::new("t.rs"), &src).len(), 1);
    }

    #[test]
    fn one_comment_covers_a_whole_multiline_statement() {
        let src = format!(
            "// {}: CAS pair justified here\n\
             match a.compare_exchange_weak(\n\
                 cur,\n\
                 new,\n\
                 Ordering::{},\n\
                 Ordering::{},\n\
             ) {{\n",
            "ORDERING", "SeqCst", "Relaxed"
        );
        assert!(audit_source(Path::new("t.rs"), &src).is_empty());
    }

    #[test]
    fn marker_does_not_leak_past_an_earlier_statement() {
        let src = format!(
            "// {}: belongs to the line below\n\
             a.store(1, Ordering::Release);\n\
             b.store(1, Ordering::{});\n",
            "ORDERING", "SeqCst"
        );
        let v = audit_source(Path::new("t.rs"), &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn attributes_and_block_openers_are_traversed() {
        let src = format!(
            "// {}: deliberate mutation cfg\n\
             #[cfg(mutate)]\n\
             if go {{\n\
                 slot.fetch_or(W, Ordering::{});\n\
             }}\n",
            "ORDERING", "Relaxed"
        );
        assert!(audit_source(Path::new("t.rs"), &src).is_empty());
    }

    #[test]
    fn comment_lines_are_not_sites() {
        let src = format!("// mentions Ordering::{} in prose\n", "SeqCst");
        assert!(audit_source(Path::new("t.rs"), &src).is_empty());
    }

    #[test]
    fn acquire_release_are_not_audited() {
        let src = format!("a.store(1, Ordering::{});\n", "Release");
        assert!(audit_source(Path::new("t.rs"), &src).is_empty());
    }

    #[test]
    fn audit_walk_collects_the_runtime_crate() {
        // The runtime's parallel_for completion protocol is a hand-rolled
        // ordering surface; a walk that silently skipped it (renamed dir,
        // broken recursion) would green-light unjustified sites. Plant a
        // bare violation in a scratch tree mirroring `crates/runtime/src`
        // and require the full-tree audit to surface it.
        let root = std::env::temp_dir().join(format!(
            "lsgd-audit-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let src_dir = root.join("crates").join("runtime").join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        let site = format!("let x = a.load(Ordering::{});\n", "Relaxed");
        std::fs::write(src_dir.join("lib.rs"), site).unwrap();
        let v = audit_crates(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].path.ends_with("crates/runtime/src/lib.rs"));

        // And the real tree: the runtime crate must be among the files
        // the production audit walks (audit_crates reads them all; a
        // clean report plus this presence check pins coverage).
        let real = workspace_root().join("crates").join("runtime").join("src");
        assert!(
            real.join("lib.rs").is_file(),
            "crates/runtime sources missing from the audited tree"
        );
    }
}
