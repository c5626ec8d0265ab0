//! Order statistics shared by every workload: nearest-rank percentiles, the
//! "ten samples beyond" tail picker, and quartiles computed the way
//! Python's `statistics.quantiles(values, n=4)` computes them (the A/A
//! table must agree with whoever re-checks it with that function).

/// Percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The highest [`LADDER`] percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer.
pub fn pick_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990, not 9 990.000000000002.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nearest-rank percentile of samples in any order.
pub fn percentile_of(samples: &[f64], pct: f64) -> f64 {
    let mut v = samples.to_vec();
    percentile(sort(&mut v), pct)
}

/// Sorts in place and returns the ascending slice.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median with the midpoint rule for even counts (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a quarter of the way in from the good end of per-window
/// `values` (nearest rank; `NaN`s, from windows with no sample, are left
/// out; `NaN` when nothing is left). With no interference the windows of a
/// steady program agree and this is what any of them says; with
/// interference, which only ever slows a window down, it stays put until
/// more than three quarters of the windows are disturbed.
pub fn quiet_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    sort(&mut v);
    if !lower_is_better {
        v.reverse();
    }
    match v.len() {
        0 => f64::NAN,
        n => v[n.div_ceil(4) - 1],
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    let v = sort(&mut v);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_honours_ten_samples_beyond() {
        assert_eq!(pick_tail(0), None);
        assert_eq!(pick_tail(19), None); // p50 leaves 9
        assert_eq!(pick_tail(20), Some(50.0));
        assert_eq!(pick_tail(199), Some(90.0)); // p95 would leave 9
        assert_eq!(pick_tail(200), Some(95.0));
        assert_eq!(pick_tail(999), Some(95.0));
        assert_eq!(pick_tail(1000), Some(99.0));
        assert_eq!(pick_tail(10_000), Some(99.9));
        for n in [20usize, 57, 200, 1000, 12_345] {
            let p = pick_tail(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quiet_quartile_ignores_disturbed_windows() {
        // Sixteen windows at 10 ms; interference slows twelve of them.
        let mut ms = vec![10.0; 16];
        ms[..12].iter_mut().for_each(|v| *v = 17.0);
        assert_eq!(quiet_quartile(&ms, true), 10.0);
        ms[12] = 17.0; // a thirteenth: now it shows
        assert_eq!(quiet_quartile(&ms, true), 17.0);
        // Throughput: the good end is the high one.
        let qps = [90.0, 100.0, 101.0, 60.0, 99.0, 70.0, 102.0, 98.0];
        assert_eq!(quiet_quartile(&qps, false), 101.0);
        assert_eq!(quiet_quartile(&qps, true), 70.0);
        assert_eq!(quiet_quartile(&[f64::NAN, 3.0], true), 3.0);
        assert!(quiet_quartile(&[], true).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
