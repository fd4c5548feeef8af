//! Tier-1 enforcement of the source audit: `cargo test` fails if any
//! `Ordering::Relaxed` / `Ordering::SeqCst` site in `crates/` or `src/`
//! lacks an adjacent `// ORDERING:` justification, or any `unsafe` block
//! or `unsafe impl` outside test code a `// SAFETY:` one. The standalone
//! `ordering_audit` binary reports the same thing for CI and humans.

use lsgd_check::audit;

#[test]
fn ordering_audit_is_clean() {
    let root = audit::workspace_root();
    let violations = audit::audit_crates(&root).expect("failed to scan crates/ and src/");
    if !violations.is_empty() {
        let mut msg = String::from("unjustified sites:\n");
        for v in &violations {
            msg.push_str(&format!("  {v}\n"));
        }
        panic!("{msg}");
    }
}
