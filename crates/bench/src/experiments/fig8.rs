//! Fig. 8: scalability — whole-QR time versus the number of parallel
//! cores (4 = CPU, 516 = +GTX580, 2052 = +GTX680, 3588 = +GTX680) for
//! matrix sizes 3200–16000.

use crate::experiments::{print_table, simulate, TILE};
use tileqr::hetero::{profiles, DistributionStrategy, MainDevicePolicy};

/// One curve point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Matrix size.
    pub n: usize,
    /// Total parallel cores of the configuration.
    pub cores: usize,
    /// Simulated seconds.
    pub seconds: f64,
}

/// Matrix sizes of the paper's curves.
pub const SIZES: [usize; 5] = [3200, 6400, 9600, 12800, 16000];

/// Run all four configurations for all five sizes.
pub fn run() -> Vec<Point> {
    let mut out = Vec::new();
    for n in SIZES {
        for n_gpus in 0..=3usize {
            let platform = profiles::testbed_subset(n_gpus, true, TILE);
            let stats = simulate(
                &platform,
                n,
                MainDevicePolicy::Auto,
                DistributionStrategy::GuideArray,
                Some(platform.num_devices()),
            );
            out.push(Point {
                n,
                cores: platform.devices().iter().map(|d| d.cores).sum(),
                seconds: stats.makespan_s(),
            });
        }
    }
    out
}

/// Print the figure as a table (one row per size, one column per config).
pub fn print() {
    let points = run();
    let mut table = Vec::new();
    for n in SIZES {
        let mut row = vec![n.to_string()];
        for p in points.iter().filter(|p| p.n == n) {
            row.push(format!("{:.3}", p.seconds));
        }
        table.push(row);
    }
    print_table(
        "Fig. 8 — QR time (s) vs parallel cores (4 / 516 / 2052 / 3588)",
        &[
            "size",
            "CPU (4)",
            "+GTX580 (516)",
            "+GTX680 (2052)",
            "+GTX680 (3588)",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_curve_decreases() {
        let points = run();
        for n in SIZES {
            let curve: Vec<f64> = points
                .iter()
                .filter(|p| p.n == n)
                .map(|p| p.seconds)
                .collect();
            assert_eq!(curve.len(), 4);
            for w in curve.windows(2) {
                assert!(w[1] < w[0], "size {n}: {w:?} not decreasing");
            }
        }
    }

    #[test]
    fn cpu_to_full_speedup_is_large() {
        // The paper reports 19.9 s -> 0.28 s at 3200² (71x). Our calibrated
        // substrate compresses this, but the speedup must still be an
        // order of magnitude or more.
        let points = run();
        let cpu = points.iter().find(|p| p.n == 3200 && p.cores == 4).unwrap();
        let full = points
            .iter()
            .find(|p| p.n == 3200 && p.cores == 3588)
            .unwrap();
        assert!(
            cpu.seconds / full.seconds > 10.0,
            "speedup {}",
            cpu.seconds / full.seconds
        );
    }

    #[test]
    fn core_counts_match_paper() {
        let points = run();
        let counts: Vec<usize> = points.iter().take(4).map(|p| p.cores).collect();
        assert_eq!(counts, vec![4, 516, 2052, 3588]);
    }
}
