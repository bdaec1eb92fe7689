//! Order statistics the report is built from.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (0–100) the value sits at.
    pub percentile: f64,
    /// The sample at that percentile; infinite when it is a failed
    /// operation, which misses any latency limit.
    pub value: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values` by nearest rank: with `n` samples, the percentile
/// `p = 100 (n - 10) / n` has nearest rank `ceil(p n / 100) = n - 10`, so
/// exactly ten samples lie beyond it and no higher percentile has as many.
/// `None` when there are fewer than eleven samples. Failed operations enter
/// as `f64::INFINITY`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: v[rank - 1], samples: n })
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a ratio over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);

        // 11 samples: rank 1 (the minimum) is the only one with ten beyond.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // 100 samples: the 90th percentile (rank 90) has exactly 10 beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        let beyond = hundred.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // 1000 samples: p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn tail_is_the_highest_qualifying_nearest_rank_percentile() {
        // Brute force over percentiles in 0.01 steps: the highest one whose
        // nearest rank leaves >= 10 samples beyond it is the one chosen.
        for n in [11usize, 17, 20, 37, 50, 64, 333] {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&values).unwrap();
            let best = (0..=10_000)
                .map(|k| k as f64 / 100.0)
                .filter(|p| {
                    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
                    n - rank >= TAIL_BEYOND
                })
                .fold(0.0, f64::max);
            assert!(t.percentile >= best - 1e-9, "n={n}: {} < {best}", t.percentile);
            let beyond = values.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn a_failed_request_counts_against_error_rate_and_misses_the_tail() {
        // 20 successful requests at 1..=20 ms plus one failure.
        let mut latencies: Vec<f64> = (1..=20).map(f64::from).collect();
        let ok_tail = tail(&latencies).unwrap();
        latencies.push(f64::INFINITY);
        let t = tail(&latencies).unwrap();
        assert_eq!(t.samples, 21);
        // The failure sits beyond every success, pushing the tail up a rank.
        assert!(t.value > ok_tail.value);
        assert_eq!(error_rate(1, 21), 1.0 / 21.0);
        assert_eq!(error_rate(0, 0), 0.0);

        // With more than ten failures the tail itself is a failure: it
        // misses any latency limit.
        let mut bad: Vec<f64> = (1..=20).map(f64::from).collect();
        bad.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert!(tail(&bad).unwrap().value.is_infinite());
    }

    #[test]
    fn ratio_over_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
