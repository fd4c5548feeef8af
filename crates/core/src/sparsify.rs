//! Gradient sparsification — the paper's stated future direction
//! ("exploring different consistency types for the theta updates, in
//! conjunction to sparsification approaches", §VII).
//!
//! Top-k magnitude sparsification keeps the `k` largest-|g| components of
//! a gradient and zeroes the rest. For HOGWILD!-style algorithms this
//! recreates the sparse-update regime the original analysis assumes; for
//! Leashed-SGD it shrinks the effective update mass while the publication
//! cost (full-vector copy) stays unchanged — an instructive ablation,
//! regenerated by `paper ablation-extensions`.

/// Keeps the `ceil(frac * len)` largest-magnitude components of `grad`,
/// zeroing the rest, in O(d) via quickselect. Returns the number kept.
///
/// `frac` is clamped to `(0, 1]`; `frac >= 1` is a no-op.
pub fn sparsify_top_frac(grad: &mut [f32], frac: f32, scratch: &mut Vec<f32>) -> usize {
    let d = grad.len();
    if d == 0 || frac >= 1.0 {
        return d;
    }
    let keep = ((frac.max(0.0) * d as f32).ceil() as usize).clamp(1, d);
    if keep == d {
        return d;
    }
    // Threshold = the keep-th largest |g|, found by quickselect on a
    // scratch copy of the magnitudes.
    scratch.clear();
    scratch.extend(grad.iter().map(|v| v.abs()));
    let idx = d - keep; // after ascending partition, elements >= this index are kept
    let (_, thresh, _) =
        scratch.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("NaN gradient"));
    let thresh = *thresh;
    // Zero strictly-below-threshold components; among equals keep the
    // earliest until the budget is filled (deterministic tie-break).
    let mut kept = grad.iter().filter(|v| v.abs() > thresh).count();
    let mut at_thresh_budget = keep - kept.min(keep);
    for v in grad.iter_mut() {
        let mag = v.abs();
        if mag > thresh {
            continue;
        }
        if mag == thresh && at_thresh_budget > 0 {
            at_thresh_budget -= 1;
            kept += 1;
            continue;
        }
        *v = 0.0;
    }
    kept.min(keep)
}

/// The `(index, value)` twin of [`sparsify_top_frac`]: selects the same
/// `ceil(frac * len)` largest-magnitude components (same quickselect
/// threshold, same earliest-among-equals tie-break) but leaves `grad`
/// untouched and writes the survivors into `out` as ascending
/// `(index, value)` pairs — ready for the dirty-shard publication path
/// ([`crate::shard::ShardedShared::publish_sparse`]) with no zeroing pass
/// and no dense re-scan at publish time. Returns the number of pairs.
///
/// `frac >= 1` emits every *nonzero* component (exact zeros carry no
/// update mass either way, so parity with the dense variant holds).
pub fn sparsify_top_frac_indices(
    grad: &[f32],
    frac: f32,
    scratch: &mut Vec<f32>,
    out: &mut Vec<(u32, f32)>,
) -> usize {
    out.clear();
    let d = grad.len();
    if d == 0 {
        return 0;
    }
    let keep = ((frac.max(0.0) * d as f32).ceil() as usize).clamp(1, d);
    if keep == d {
        out.extend(
            grad.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v)),
        );
        return out.len();
    }
    scratch.clear();
    scratch.extend(grad.iter().map(|v| v.abs()));
    let idx = d - keep;
    let (_, thresh, _) =
        scratch.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("NaN gradient"));
    let thresh = *thresh;
    // Mirror sparsify_top_frac's deterministic tie-break: everything
    // strictly above the threshold survives, then the earliest
    // at-threshold components fill the remaining budget.
    let above = grad.iter().filter(|v| v.abs() > thresh).count();
    let mut at_thresh_budget = keep - above.min(keep);
    for (i, &v) in grad.iter().enumerate() {
        let mag = v.abs();
        if mag > thresh {
            out.push((i as u32, v));
        } else if mag == thresh && at_thresh_budget > 0 {
            at_thresh_budget -= 1;
            out.push((i as u32, v));
        }
    }
    // A kept zero component (possible when the threshold is 0) carries no
    // update mass; drop it for exact parity with the dense variant's
    // nonzero support.
    out.retain(|&(_, v)| v != 0.0);
    out.len()
}

/// Number of non-zero components (diagnostic).
pub fn nnz(grad: &[f32]) -> usize {
    grad.iter().filter(|v| **v != 0.0).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_the_top_fraction() {
        let mut g: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let mut scratch = Vec::new();
        let kept = sparsify_top_frac(&mut g, 0.3, &mut scratch);
        assert_eq!(kept, 3);
        assert_eq!(nnz(&g), 3);
        // The three largest survive.
        assert_eq!(&g[7..], &[8.0, 9.0, 10.0]);
        assert!(g[..7].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn magnitude_not_sign_decides() {
        let mut g = vec![-10.0, 1.0, 2.0, -3.0];
        let mut scratch = Vec::new();
        sparsify_top_frac(&mut g, 0.5, &mut scratch);
        assert_eq!(g, vec![-10.0, 0.0, 0.0, -3.0]);
    }

    #[test]
    fn frac_one_is_noop() {
        let mut g = vec![1.0, -2.0, 0.5];
        let orig = g.clone();
        let mut scratch = Vec::new();
        assert_eq!(sparsify_top_frac(&mut g, 1.0, &mut scratch), 3);
        assert_eq!(g, orig);
    }

    #[test]
    fn tiny_frac_keeps_at_least_one() {
        let mut g = vec![0.1, 5.0, 0.2];
        let mut scratch = Vec::new();
        let kept = sparsify_top_frac(&mut g, 1e-9, &mut scratch);
        assert_eq!(kept, 1);
        assert_eq!(g, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn ties_respect_budget() {
        let mut g = vec![1.0f32; 8];
        let mut scratch = Vec::new();
        let kept = sparsify_top_frac(&mut g, 0.25, &mut scratch);
        assert_eq!(kept, 2);
        assert_eq!(nnz(&g), 2);
    }

    #[test]
    fn empty_gradient_is_fine() {
        let mut g: Vec<f32> = vec![];
        let mut scratch = Vec::new();
        assert_eq!(sparsify_top_frac(&mut g, 0.5, &mut scratch), 0);
    }

    /// Reconstructs a dense vector from pairs and checks it equals the
    /// dense-sparsified vector — the parity contract between the two
    /// variants.
    fn assert_pairs_match_dense(orig: &[f32], frac: f32) {
        let mut dense = orig.to_vec();
        let mut scratch = Vec::new();
        sparsify_top_frac(&mut dense, frac, &mut scratch);
        let mut pairs = Vec::new();
        sparsify_top_frac_indices(orig, frac, &mut scratch, &mut pairs);
        let mut rebuilt = vec![0.0f32; orig.len()];
        let mut last: Option<u32> = None;
        for &(i, v) in &pairs {
            assert!(last.map_or(true, |l| i > l), "indices ascending");
            assert_ne!(v, 0.0, "pairs carry only nonzero mass");
            assert_eq!(v, orig[i as usize], "values are the originals");
            rebuilt[i as usize] = v;
            last = Some(i);
        }
        assert_eq!(rebuilt, dense, "frac {frac}: pairs ≠ dense sparsify");
    }

    #[test]
    fn indices_variant_matches_dense_variant() {
        let g = vec![3.0, -1.0, 4.0, -1.5, 9.0, 2.6, -9.0, 0.0];
        for frac in [1e-9, 0.25, 0.5, 0.75, 1.0] {
            assert_pairs_match_dense(&g, frac);
        }
        // Ties everywhere: the deterministic earliest-first budget must
        // agree between the variants.
        assert_pairs_match_dense(&[1.0f32; 8], 0.25);
        assert_pairs_match_dense(&[-2.0, 2.0, -2.0, 2.0, 1.0, 1.0], 0.5);
        // Zeros at and below the threshold.
        assert_pairs_match_dense(&[0.0, 0.0, 1.0, 0.0], 0.5);
        assert_pairs_match_dense(&[0.0; 6], 0.3);
        // Pseudo-random mix, all fractions.
        let mixed: Vec<f32> = (0..97)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * if i % 3 == 0 { -0.5 } else { 1.25 })
            .collect();
        for frac in [0.01, 0.1, 0.33, 0.66, 0.99] {
            assert_pairs_match_dense(&mixed, frac);
        }
    }

    #[test]
    fn indices_variant_empty_and_full() {
        let mut scratch = Vec::new();
        let mut pairs = vec![(0u32, 1.0f32)]; // stale contents must be cleared
        assert_eq!(sparsify_top_frac_indices(&[], 0.5, &mut scratch, &mut pairs), 0);
        assert!(pairs.is_empty());
        let n = sparsify_top_frac_indices(&[2.0, 0.0, -3.0], 1.0, &mut scratch, &mut pairs);
        assert_eq!(n, 2);
        assert_eq!(pairs, vec![(0, 2.0), (2, -3.0)]);
    }

    #[test]
    fn preserved_components_unchanged() {
        let mut g = vec![3.0, -1.0, 4.0, -1.5, 9.0, 2.6];
        let mut scratch = Vec::new();
        sparsify_top_frac(&mut g, 0.5, &mut scratch);
        assert_eq!(g[4], 9.0);
        assert_eq!(g[2], 4.0);
        assert_eq!(g[0], 3.0);
        assert_eq!(nnz(&g), 3);
    }
}
