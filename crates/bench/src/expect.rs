//! The paper's published claims, printed next to our measurements.
//!
//! Absolute numbers cannot transfer (different hardware, synthetic data);
//! what must reproduce is the *shape*: orderings, stability differences
//! and approximate factors. Each harness figure prints the relevant entry
//! from here after its measured table.

/// Published expectation for one figure.
pub struct Expectation {
    /// Figure/table identifier.
    pub id: &'static str,
    /// What the paper reports.
    pub claim: &'static str,
}

/// The claims extracted from the paper's evaluation section.
pub const EXPECTATIONS: &[Expectation] = &[
    Expectation {
        id: "Fig. 3 (left)",
        claim: "Baselines (ASYNC, HOG) are best at m=16 and deteriorate beyond, \
                with many Diverge/Crash runs at m>16; LSH variants converge \
                stably up to m=56 with minimal staleness penalty.",
    },
    Expectation {
        id: "Fig. 3 (right)",
        claim: "Time per iteration stays roughly constant for baselines under \
                higher parallelism (even when diverging); LSH's iteration time \
                rises moderately under contention (self-regulation).",
    },
    Expectation {
        id: "Fig. 4",
        claim: "At m=16, LSH_ps_inf reaches eps=2.5% in ~65s median vs 89s \
                (ASYNC) and 80s (HOG): 20-30% faster with smaller spread. At \
                m=68 no baseline execution reaches eps=50%.",
    },
    Expectation {
        id: "Fig. 5",
        claim: "Loss-vs-time curves: LSH variants descend faster at every m; \
                at m=68 the baselines oscillate around the initialisation.",
    },
    Expectation {
        id: "Fig. 6",
        claim: "Staleness distributions shift right with m; persistence bound \
                lowers the whole distribution (ps0 < ps1 < ps_inf), ASYNC shows \
                high irregularity from lock contention.",
    },
    Expectation {
        id: "Fig. 7",
        claim: "CNN, m=16: LSH_ps0 reaches eps=10% in ~400s median vs ~500s \
                baselines, best runs below 100s (up to 4x speedup); fewer \
                diverging executions; similar staleness (low contention regime \
                because Tc/Tu is high).",
    },
    Expectation {
        id: "Fig. 8",
        claim: "Step-size sweep at m=16: baselines best at eta=0.005; LSH \
                tolerates larger eta (converges where baselines fail).",
    },
    Expectation {
        id: "Fig. 9",
        claim: "Tc (gradient): MLP ~40-60ms, CNN ~90-120ms (higher despite \
                smaller d, due to many small convolution GEMMs). Tu (update): \
                MLP ~0.5-0.9ms, CNN ~0.2-0.4ms. Tc/Tu ratio much higher for \
                CNN -> lower LAU-SPC contention.",
    },
    Expectation {
        id: "Fig. 10",
        claim: "Memory: LSH reduces CNN-training footprint by ~17% on average \
                vs baselines (dynamic allocation + recycling); MLP footprint \
                comparable or lower.",
    },
    Expectation {
        id: "Sec. IV",
        claim: "Thread balance converges to n*/m = Tu/(Tu+Tc); persistence \
                moves the fixed point to n*_gamma < n*; E[tau_s] ~ n*_gamma; \
                Tp=0 forces tau_s = 0 exactly.",
    },
];

/// Looks up and prints the expectation block for `id`.
pub fn print_expectation(id: &str) {
    for e in EXPECTATIONS {
        if e.id == id {
            println!("\n  paper-vs-measured — {}:", e.id);
            for line in textwrap(e.claim, 68) {
                println!("    | {line}");
            }
            return;
        }
    }
    panic!("no expectation recorded for {id}");
}

/// Tiny greedy word-wrapper for terminal output.
fn textwrap(s: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cur = String::new();
    for word in s.split_whitespace() {
        if !cur.is_empty() && cur.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut cur));
        }
        if !cur.is_empty() {
            cur.push(' ');
        }
        cur.push_str(word);
    }
    if !cur.is_empty() {
        lines.push(cur);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_figures_covered() {
        assert_eq!(EXPECTATIONS.len(), 10);
        for id in [
            "Fig. 3 (left)",
            "Fig. 4",
            "Fig. 7",
            "Fig. 9",
            "Fig. 10",
            "Sec. IV",
        ] {
            assert!(EXPECTATIONS.iter().any(|e| e.id == id), "{id} missing");
        }
    }

    #[test]
    fn textwrap_respects_width() {
        let lines = textwrap("a bb ccc dddd eeeee", 6);
        for l in &lines {
            assert!(l.len() <= 6, "{l}");
        }
        assert_eq!(lines.join(" "), "a bb ccc dddd eeeee");
    }

    #[test]
    #[should_panic]
    fn unknown_id_panics() {
        print_expectation("Fig. 99");
    }
}
