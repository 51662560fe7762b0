//! Order statistics behind every reported number.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the two middle samples of an even count (as
/// Python's `statistics.median`). `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Index of the nearest-rank `q`-percentile in a sorted sample of `n`:
/// the smallest sample with at least a `q` share of the samples at or
/// below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// The nearest-rank `q`-percentile (`q` in `(0, 1]`). `0.0` for no
/// samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), q)]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-percentile — a tail is only reported with at least ten.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The first quartile, median and third quartile by the method of
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads read the same as the acceptance check computes
/// them. Fewer than two samples give that sample (or `0.0`) three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    // Python's integer arithmetic, including its extrapolation (a
    // negative `delta`) when two samples are all there is.
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (`0.0` when the
/// median is `0.0`).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so every helper has to sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&one_to(10)), 5.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = one_to(10);
        assert_eq!(percentile(&xs, 0.8), 8.0);
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.01), 1.0);
        let xs = one_to(100);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.5], 0.95), 7.5);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn samples_beyond_the_tail() {
        assert_eq!(beyond(50, 0.8), 10);
        assert_eq!(beyond(49, 0.8), 9);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(10, 1.0), 0);
        assert_eq!(beyond(0, 0.8), 0);
    }

    /// Reference values from `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&one_to(4)), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&one_to(100)), [25.25, 50.5, 75.75]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert_eq!(quartiles(&[10.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 7.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&one_to(10)), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[4.0; 6]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
