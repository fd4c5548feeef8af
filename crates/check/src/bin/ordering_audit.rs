//! CI entry point for the source audit: scans every `.rs` file under
//! `crates/` and the umbrella's `src/` and exits nonzero if any
//! `Ordering::Relaxed` / `Ordering::SeqCst` site lacks an adjacent `// ORDERING:` comment, or
//! any `unsafe` block or `unsafe impl` outside test code an adjacent
//! `// SAFETY:` one. See `lsgd_check::audit` for the rules.

use lsgd_check::audit;

fn main() {
    let root = std::env::args_os()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(audit::workspace_root);
    let violations = match audit::audit_crates(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ordering_audit: failed to scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    if violations.is_empty() {
        println!("ordering_audit: all Relaxed/SeqCst and unsafe sites are justified");
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("ordering_audit: {} unjustified site(s)", violations.len());
    std::process::exit(1);
}
