//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus one tail percentile. The
//! tail is only meaningful when enough samples lie beyond it, so each
//! workload fixes its percentile once and [`min_samples_for_tail`] says
//! how many samples the timed loop must collect before it may stop: a
//! percentile that moved with the sample count would make two runs of
//! different speed report different quantities under one name.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const BEYOND: usize = 10;

/// 0-based index of the `p`-quantile of `n` sorted samples (nearest
/// rank: the smallest value with at least `p·n` samples at or below it).
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "quantile of no samples");
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
    // 1e-9 keeps p·n products that are whole numbers in exact arithmetic
    // (0.8 · 50) from rounding up to the next rank.
    ((p * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n) - 1
}

/// Samples strictly beyond the `p`-quantile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Fewest samples for which the `p`-quantile has [`BEYOND`] beyond it.
pub fn min_samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= BEYOND)
        .expect("some finite sample count satisfies every p < 1")
}

/// `p`-quantile of `samples` (sorts in place).
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p)]
}

/// Median of `samples` (sorts in place); the mean of the two middle
/// values for an even count.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank() {
        assert_eq!(rank(1, 0.5), 0);
        assert_eq!(rank(50, 0.8), 39);
        assert_eq!(rank(100, 0.9), 89);
        assert_eq!(rank(1000, 0.99), 989);
        assert_eq!(rank(7, 1.0), 6);
        assert_eq!(rank(7, 0.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for_tail(0.8), 50);
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.99), 1000);
        for p in [0.75, 0.8, 0.9, 0.95, 0.99] {
            let n = min_samples_for_tail(p);
            assert!(samples_beyond(n, p) >= BEYOND);
            assert!(samples_beyond(n - 1, p) < BEYOND, "p={p} n={n}");
        }
    }

    #[test]
    fn quantile_and_median_pick_the_expected_values() {
        let mut v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.8), 40.0);
        assert_eq!(median(&mut v), 25.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
