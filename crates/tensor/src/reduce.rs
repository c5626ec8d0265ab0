//! Reductions over `f32` slices: sums, maxima and argmax.

/// Sum of all elements (pairwise-ish via 4 accumulators for accuracy and
/// vectorizability).
pub fn sum(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += x[j];
        acc[1] += x[j + 1];
        acc[2] += x[j + 2];
        acc[3] += x[j + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &v in &x[chunks * 4..] {
        s += v;
    }
    s
}

/// Maximum element, or `f32::NEG_INFINITY` for an empty slice.
pub fn max(x: &[f32]) -> f32 {
    x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the largest non-NaN element, or `None` for an empty slice.
/// Ties resolve to the first occurrence (the answer-prediction convention
/// of the MemNN output layer); an all-NaN slice gives 0. This is
/// `top_k_select(x, 1).first()`, whose order puts NaN last.
pub fn argmax(x: &[f32]) -> Option<usize> {
    let (mut best, mut bv) = (0, *x.first()?);
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > bv || (bv.is_nan() && !v.is_nan()) {
            (best, bv) = (i, v);
        }
    }
    Some(best)
}

/// Number of elements strictly greater than `threshold` — used to measure
/// attention sparsity for the zero-skipping analysis (Fig 6/7).
pub fn count_above(x: &[f32], threshold: f32) -> usize {
    x.iter().filter(|&&v| v > threshold).count()
}

/// Indices of the `k` largest elements, in descending value order.
///
/// The selection is fully deterministic: ties resolve to the *lower* index
/// (matching [`argmax`]'s first-occurrence convention), and NaN values sort
/// below every real score so they are selected last. `k` is clamped to
/// `x.len()`. Used by the clustered top-K index to rank centroid scores
/// before probing posting lists.
pub fn top_k_select(x: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(x.len());
    let mut order: Vec<usize> = (0..x.len()).collect();
    // Total order: by score descending, NaN strictly below every real
    // score (including -inf), ties by ascending index.
    let cmp = |&a: &usize, &b: &usize| {
        let (va, vb) = (x[a], x[b]);
        match (va.is_nan(), vb.is_nan()) {
            (true, true) => a.cmp(&b),
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => vb.partial_cmp(&va).expect("non-NaN").then(a.cmp(&b)),
        }
    };
    if k < x.len() {
        order.select_nth_unstable_by(k, cmp);
        order.truncate(k);
    }
    order.sort_unstable_by(cmp);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_naive() {
        let x: Vec<f32> = (0..13).map(|i| i as f32 * 0.25).collect();
        let naive: f32 = x.iter().sum();
        assert!((sum(&x) - naive).abs() < 1e-5);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn max_handles_empty_and_negatives() {
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        assert_eq!(max(&[-3.0, -1.0, -2.0]), -1.0);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[5.0]), Some(0));
    }

    #[test]
    fn argmax_ignores_nans_wherever_they_sit() {
        let nan = f32::NAN;
        assert_eq!(argmax(&[1.0, nan, 2.0]), Some(2));
        assert_eq!(argmax(&[3.0, nan, 1.0]), Some(0));
        assert_eq!(argmax(&[nan, 1.0, 3.0, nan, 2.0]), Some(2));
        assert_eq!(argmax(&[nan, f32::NEG_INFINITY]), Some(1));
        assert_eq!(argmax(&[nan, nan]), Some(0));
    }

    #[test]
    fn top_k_select_orders_descending_with_first_index_ties() {
        let x = [0.5f32, 2.0, 2.0, -1.0, 3.0];
        assert_eq!(top_k_select(&x, 3), vec![4, 1, 2]);
        assert_eq!(top_k_select(&x, 0), Vec::<usize>::new());
        // k past the end is clamped and yields a full argsort.
        assert_eq!(top_k_select(&x, 99), vec![4, 1, 2, 0, 3]);
        assert_eq!(top_k_select(&[], 4), Vec::<usize>::new());
    }

    #[test]
    fn top_k_select_puts_nan_last() {
        let x = [1.0f32, f32::NAN, 2.0, f32::NEG_INFINITY];
        assert_eq!(top_k_select(&x, 4), vec![2, 0, 3, 1]);
        assert_eq!(top_k_select(&x, 2), vec![2, 0]);
    }

    #[test]
    fn top_k_select_matches_sort_on_random_scores() {
        // LCG-driven cross-check against a full sort for many shapes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        for n in [1usize, 7, 33, 100] {
            let x: Vec<f32> = (0..n).map(|_| (next() * 4.0).round() / 4.0).collect();
            let mut full: Vec<usize> = (0..n).collect();
            full.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap().then(a.cmp(&b)));
            for k in [0usize, 1, n / 2, n] {
                assert_eq!(top_k_select(&x, k), full[..k], "n={n} k={k}");
            }
        }
    }

    #[test]
    fn count_above_threshold() {
        let p = [0.005f32, 0.3, 0.65, 0.045];
        assert_eq!(count_above(&p, 0.1), 2);
        assert_eq!(count_above(&p, 0.01), 3);
        assert_eq!(count_above(&p, 1.0), 0);
    }
}
