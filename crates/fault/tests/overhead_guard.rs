//! Pins the zero-cost contract: with the `enabled` feature off (the
//! default build), the fault plane must not exist — ZST guard, inert
//! probes, install refused. The default-feature CI `cargo test` run
//! compiles this file; the chaos job (which flips the feature on)
//! compiles `determinism.rs` instead.

#![cfg(not(feature = "enabled"))]

use lsgd_fault::{Site, WorkerTag};

#[test]
fn disabled_build_has_no_fault_plane() {
    // The whole file is cfg'd on the feature being off, so COMPILED is
    // constant here — the assert documents the contract, it doesn't
    // probe runtime state.
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(!lsgd_fault::COMPILED);
    }
    assert_eq!(std::mem::size_of::<WorkerTag>(), 0, "WorkerTag must be a ZST");
    assert!(!lsgd_fault::active());
    assert_eq!(lsgd_fault::tallies(), lsgd_fault::Tallies::default());
}

#[test]
fn disabled_probes_are_inert() {
    // Even with a spec in the environment, probes must do nothing.
    std::env::set_var("LSGD_FAULT", "stall:publish,p=1,us=1");
    let _tag = lsgd_fault::worker_tag(0);
    for step in 0..100 {
        lsgd_fault::worker_step(step);
        for site in Site::ALL {
            lsgd_fault::point(site);
        }
    }
    assert_eq!(lsgd_fault::tallies(), lsgd_fault::Tallies::default());
    assert!(!lsgd_fault::active());
}

#[test]
fn disabled_install_still_validates_but_refuses() {
    // Grammar errors surface even in disabled builds (so a typo'd spec
    // in a default-features test run is caught)...
    assert!(lsgd_fault::install("flood:all", 0).is_err());
    // ...and a valid spec is refused with a feature hint.
    let err = lsgd_fault::install("crash:w0@step1", 0)
        .expect_err("disabled build must refuse to arm");
    assert!(err.reason.contains("enabled"), "{err}");
}
