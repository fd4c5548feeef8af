//! Overhead guard: proves the default (no-feature) build of the probe
//! API is genuinely free. Every guard object is a ZST, so a span in the
//! step hot path compiles to nothing — there is no state to carry, no
//! Drop to run, no branch on a gate. The ISSUE's zero-cost acceptance
//! criterion (disabled-build `sgd_step` medians within noise of the
//! committed reference) is the end-to-end check; this test pins the
//! mechanism it rests on.
#![cfg(not(lsgd_model))]
#![cfg(not(feature = "enabled"))]

use lsgd_trace::{Collector, Counter, Phase, SpanGuard};

#[test]
fn disabled_build_probe_types_are_zero_sized() {
    #[allow(clippy::assertions_on_constants)] // the constant IS the claim under test
    {
        assert!(!lsgd_trace::COMPILED, "guard test must run without the `enabled` feature");
    }
    assert_eq!(std::mem::size_of::<SpanGuard>(), 0, "SpanGuard must be a ZST when disabled");
    assert_eq!(std::mem::size_of::<Collector>(), 0, "Collector must be a ZST when disabled");
    assert!(!std::mem::needs_drop::<SpanGuard>(), "SpanGuard must have no Drop when disabled");
}

#[test]
fn disabled_build_probes_record_nothing_and_gate_stays_off() {
    // Even with the environment begging for a trace, the disabled build
    // must stay off: the runtime gate only exists behind the feature.
    lsgd_trace::enable();
    assert!(!lsgd_trace::enabled());

    lsgd_trace::count(Counter::PublishRetry);
    lsgd_trace::count_n(Counter::Park, 100);
    let _g = lsgd_trace::span(Phase::GradCompute);
    let _l = lsgd_trace::span_labeled(lsgd_trace::label("layer0.fwd"));
    drop(_g);
    drop(_l);

    let mut c = Collector::new();
    c.sample();
    let dump = c.finish();
    assert!(dump.is_empty(), "disabled build must collect nothing");
    assert!(dump.phases.is_empty());
    assert_eq!(dump.events.len(), 0);
    assert!(lsgd_trace::chrome_path().is_none(), "no export path without the feature");
}
