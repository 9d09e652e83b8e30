//! Performance-drift detection against a calibrated cost model.
//!
//! A calibrated profile is a snapshot: thermal throttling, a co-tenant
//! stealing cores, or a frequency governor change can make the live
//! kernels run at a different speed than the fit predicts, at which point
//! the critical-path priorities computed from the profile mislead the
//! scheduler. The [`DriftDetector`] watches per-class compute durations
//! as the run progresses and, at panel boundaries, decides whether the
//! observed means have moved far enough from the model to justify
//! re-weighting the remaining DAG.
//!
//! The trigger is *damped* the same way the fault re-planner's is
//! (`sched::replan`): after a firing, the observed ratio becomes the new
//! baseline, so persistent-but-stable drift fires once instead of every
//! panel, and single-task noise is diluted by the running mean before it
//! can reach the threshold.

/// Configuration of the drift trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Master switch; disabled detectors never fire.
    pub enabled: bool,
    /// Relative change (vs the damped baseline) that fires the trigger:
    /// a class's observed/expected ratio must grow by at least this
    /// factor — or shrink below its inverse — since the last firing.
    /// Must be `> 1`.
    pub threshold: f64,
    /// Minimum samples a class needs in the window before its ratio is
    /// trusted (noise damping: one slow task cannot re-weight a DAG).
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            enabled: false,
            threshold: 2.0,
            min_samples: 8,
        }
    }
}

impl DriftConfig {
    /// Enabled config with the default threshold and sample floor.
    pub fn on() -> Self {
        DriftConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Accumulates per-class compute durations and compares their means
/// against expected latencies from the active cost model.
///
/// Classes are the three timing-curve slots of the paper's Fig. 4
/// (`dag::KernelClass::slot`): 0 triangulation, 1 elimination, 2 update.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    /// Expected per-task latency per class, µs (from the calibrated
    /// model at the run's tile size).
    expected_us: [f64; 3],
    /// Damping baseline: the observed/expected ratio at the last firing
    /// (1.0 initially, i.e. "running exactly as calibrated").
    baseline: [f64; 3],
    sum_us: [f64; 3],
    count: [u64; 3],
    fires: u64,
}

impl DriftDetector {
    /// Detector for a run whose model predicts `expected_us` per class
    /// (`ClassCosts::expected_us(b)`).
    pub fn new(cfg: DriftConfig, expected_us: [f64; 3]) -> Self {
        DriftDetector {
            cfg,
            expected_us,
            baseline: [1.0; 3],
            sum_us: [0.0; 3],
            count: [0; 3],
            fires: 0,
        }
    }

    /// Record one measured compute duration for class slot `class`.
    pub fn record(&mut self, class: usize, us: f64) {
        if !self.cfg.enabled {
            return;
        }
        self.sum_us[class] += us.max(0.0);
        self.count[class] += 1;
    }

    /// Observed/expected ratio of one class over the current window
    /// (`None` until the class has any samples or when its expectation
    /// is non-positive).
    pub fn observed_ratio(&self, class: usize) -> Option<f64> {
        if self.count[class] == 0 || self.expected_us[class] <= 0.0 {
            return None;
        }
        Some(self.sum_us[class] / self.count[class] as f64 / self.expected_us[class])
    }

    /// Panel-boundary check. Returns the absolute per-class ratios
    /// (observed/expected vs the *original* calibration) when drift past
    /// the damped threshold is detected, `None` otherwise. On a firing
    /// the ratios become the new baseline and the window resets, so a
    /// stable new regime fires exactly once. Classes below the sample
    /// floor keep their previous baseline ratio.
    pub fn check(&mut self) -> Option<[f64; 3]> {
        if !self.cfg.enabled {
            return None;
        }
        let mut fired = false;
        let mut ratios = self.baseline;
        for (c, slot) in ratios.iter_mut().enumerate() {
            if self.count[c] < self.cfg.min_samples {
                continue;
            }
            let Some(r) = self.observed_ratio(c) else {
                continue;
            };
            *slot = r;
            let rel = r / self.baseline[c];
            if rel >= self.cfg.threshold || rel * self.cfg.threshold <= 1.0 {
                fired = true;
            }
        }
        if !fired {
            return None;
        }
        self.baseline = ratios;
        self.sum_us = [0.0; 3];
        self.count = [0; 3];
        self.fires += 1;
        Some(ratios)
    }

    /// How many times the trigger has fired.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Samples currently accumulated per class.
    pub fn window_counts(&self) -> [u64; 3] {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPECTED: [f64; 3] = [10.0, 10.0, 20.0];

    fn cfg() -> DriftConfig {
        DriftConfig {
            enabled: true,
            threshold: 2.0,
            min_samples: 4,
        }
    }

    fn feed(d: &mut DriftDetector, class: usize, us: f64, n: usize) {
        for _ in 0..n {
            d.record(class, us);
        }
    }

    #[test]
    fn clean_run_never_fires() {
        let mut d = DriftDetector::new(cfg(), EXPECTED);
        for _ in 0..5 {
            feed(&mut d, 0, 10.0, 10);
            feed(&mut d, 1, 10.4, 10);
            feed(&mut d, 2, 19.5, 10);
            assert_eq!(d.check(), None);
        }
        assert_eq!(d.fires(), 0);
    }

    #[test]
    fn real_drift_fires_once_then_damps() {
        let mut d = DriftDetector::new(cfg(), EXPECTED);
        // 4x slowdown across the board.
        feed(&mut d, 0, 40.0, 8);
        feed(&mut d, 1, 40.0, 8);
        feed(&mut d, 2, 80.0, 8);
        let ratios = d.check().expect("4x drift must fire");
        for r in ratios {
            assert!((r - 4.0).abs() < 1e-9, "{ratios:?}");
        }
        // Same regime continues: baseline moved, no re-fire.
        feed(&mut d, 0, 40.0, 8);
        feed(&mut d, 1, 40.0, 8);
        feed(&mut d, 2, 80.0, 8);
        assert_eq!(d.check(), None, "damped: stable regime fires once");
        assert_eq!(d.fires(), 1);
    }

    #[test]
    fn recovery_fires_in_the_other_direction() {
        let mut d = DriftDetector::new(cfg(), EXPECTED);
        feed(&mut d, 0, 40.0, 8);
        feed(&mut d, 1, 40.0, 8);
        feed(&mut d, 2, 80.0, 8);
        assert!(d.check().is_some());
        // Back to calibrated speed: ratio 4 -> 1 is a 4x relative change.
        feed(&mut d, 0, 10.0, 8);
        feed(&mut d, 1, 10.0, 8);
        feed(&mut d, 2, 20.0, 8);
        let ratios = d.check().expect("recovery re-fires");
        for r in ratios {
            assert!((r - 1.0).abs() < 1e-9, "{ratios:?}");
        }
    }

    #[test]
    fn single_outlier_is_damped_by_the_mean() {
        let mut d = DriftDetector::new(cfg(), EXPECTED);
        // One 20x-slow task among 19 normal ones: mean ratio ~1.95 < 2.
        d.record(0, 200.0);
        feed(&mut d, 0, 10.0, 19);
        feed(&mut d, 1, 10.0, 19);
        feed(&mut d, 2, 20.0, 19);
        assert_eq!(d.check(), None, "one outlier must not re-weight");
    }

    #[test]
    fn below_sample_floor_never_fires() {
        let mut d = DriftDetector::new(cfg(), EXPECTED);
        feed(&mut d, 0, 1000.0, 3); // 100x but only 3 samples < 4
        assert_eq!(d.check(), None);
        // The window keeps accumulating; one more sample crosses the floor.
        d.record(0, 1000.0);
        assert!(d.check().is_some());
    }

    #[test]
    fn disabled_detector_is_inert() {
        let mut d = DriftDetector::new(
            DriftConfig {
                enabled: false,
                ..cfg()
            },
            EXPECTED,
        );
        feed(&mut d, 0, 1e6, 100);
        assert_eq!(d.check(), None);
        assert_eq!(d.window_counts(), [0; 3], "records dropped when off");
    }
}
