//! Table III: the number-of-devices optimization — predicted
//! `T(p) = Top(p) + Tcomm(p)` versus actual (simulated) time for 1, 2 and
//! 3 GPUs, normalized to the fastest, for matrix sizes 160–4000.

use crate::experiments::{simulate, TILE};
use tileqr::hetero::{device_count, profiles, DistributionStrategy, MainDevicePolicy};

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Matrix size.
    pub n: usize,
    /// Predicted `T(p)` normalized to the smallest, for p = 1, 2, 3.
    pub predicted: [f64; 3],
    /// Actual (simulated) time normalized to the smallest, for p = 1, 2, 3.
    pub actual: [f64; 3],
}

impl Row {
    /// Index (0-based) of the predicted optimum.
    pub fn predicted_best(&self) -> usize {
        argmin(&self.predicted)
    }

    /// Index (0-based) of the actual optimum.
    pub fn actual_best(&self) -> usize {
        argmin(&self.actual)
    }
}

fn argmin(v: &[f64; 3]) -> usize {
    (0..3).min_by(|&a, &b| v[a].total_cmp(&v[b])).unwrap()
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
    [v[0] / min, v[1] / min, v[2] / min]
}

/// Matrix sizes of the paper's table.
pub fn sizes() -> Vec<usize> {
    (160..=4000).step_by(160).collect()
}

/// Run the table (GPU-only platform, GTX580 as main, as in the paper:
/// "We only consider the number of GPUs").
pub fn run() -> Vec<Row> {
    let platform = profiles::testbed_subset(3, false, TILE);
    sizes()
        .into_iter()
        .map(|n| {
            let nt = n.div_ceil(TILE);
            let sel = device_count::select_device_count(&platform, 0, nt, nt, &[]);
            let mut predicted = [0.0; 3];
            for pred in &sel.predictions {
                predicted[pred.p - 1] = pred.total_us();
            }
            let mut actual = [0.0; 3];
            for p in 1..=3 {
                actual[p - 1] = simulate(
                    &platform,
                    n,
                    MainDevicePolicy::Fixed(0),
                    DistributionStrategy::GuideArray,
                    Some(p),
                )
                .makespan_us;
            }
            Row {
                n,
                predicted: normalize(predicted),
                actual: normalize(actual),
            }
        })
        .collect()
}

/// Print the table in the paper's normalized format.
pub fn print() {
    let rows = run();
    println!("\n=== Table III — device-count optimization: predicted vs actual (normalized) ===");
    println!(
        "{:>6}  {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}   {:>4} {:>4}",
        "size", "p1G", "p2G", "p3G", "a1G", "a2G", "a3G", "pred", "act"
    );
    for r in &rows {
        println!(
            "{:>6}  {:>8.2} {:>8.2} {:>8.2}   {:>8.2} {:>8.2} {:>8.2}   {:>3}G {:>3}G",
            r.n,
            r.predicted[0],
            r.predicted[1],
            r.predicted[2],
            r.actual[0],
            r.actual[1],
            r.actual[2],
            r.predicted_best() + 1,
            r.actual_best() + 1
        );
    }
    let agree = rows
        .iter()
        .filter(|r| r.predicted_best() == r.actual_best())
        .count();
    println!(
        "prediction matches actual optimum on {agree}/{} sizes",
        rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_minimum_is_one() {
        for r in run() {
            let pmin = r.predicted.iter().cloned().fold(f64::INFINITY, f64::min);
            let amin = r.actual.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((pmin - 1.0).abs() < 1e-12);
            assert!((amin - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn prediction_matches_actual_on_most_sizes() {
        let rows = run();
        let agree = rows
            .iter()
            .filter(|r| r.predicted_best() == r.actual_best())
            .count();
        assert!(
            agree * 4 >= rows.len() * 3,
            "agreement only {agree}/{}",
            rows.len()
        );
    }

    #[test]
    fn three_bands_like_the_paper() {
        let rows = run();
        assert_eq!(rows.first().unwrap().actual_best(), 0, "small: 1 GPU");
        assert_eq!(rows.last().unwrap().actual_best(), 2, "large: 3 GPUs");
        assert!(
            rows.iter().any(|r| r.actual_best() == 1),
            "a 2-GPU band must exist"
        );
    }
}
