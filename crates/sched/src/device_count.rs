//! Number-of-devices selection (paper Alg. 3, Eqs. 10–11).
//!
//! Devices are ordered by update speed (descending) with the main device
//! forced to the head of the list. For each prefix length `p`, the
//! predicted first-iteration time `T(p) = Top(p) + Tcomm(p)` is evaluated
//! and the minimizing `p` is chosen: "using all available devices will not
//! always give the best performance for some sizes of matrices" (§III-C).

use crate::distribution::{Distribution, DistributionStrategy};
use tileqr_dag::KernelClass;
use tileqr_sim::{DeviceId, Platform};

/// Prediction for one candidate device count.
#[derive(Debug, Clone, PartialEq)]
pub struct CountPrediction {
    /// Number of participating devices (prefix of the ordered list).
    pub p: usize,
    /// The devices in that prefix.
    pub devices: Vec<DeviceId>,
    /// Predicted operation time `Top(p)`, microseconds (Eq. 10).
    pub top_us: f64,
    /// Predicted communication time `Tcomm(p)`, microseconds (Eq. 11).
    pub tcomm_us: f64,
}

impl CountPrediction {
    /// `T(p) = Top(p) + Tcomm(p)`.
    pub fn total_us(&self) -> f64 {
        self.top_us + self.tcomm_us
    }
}

/// Result of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct CountSelection {
    /// The optimal number of devices.
    pub p: usize,
    /// The participating devices (ordered: main first, then by update
    /// speed descending).
    pub devices: Vec<DeviceId>,
    /// Predictions for every candidate `p` (index 0 holds `p = 1`).
    pub predictions: Vec<CountPrediction>,
}

/// Devices ordered for Algorithm 3: main first, the rest of the devices
/// not on the `exclude` blacklist by update throughput descending (ties by
/// id for determinism). `main` must not itself be excluded.
pub fn ordered_devices(platform: &Platform, main: DeviceId, exclude: &[DeviceId]) -> Vec<DeviceId> {
    assert!(
        !exclude.contains(&main),
        "main device {main} is on the blacklist"
    );
    let b = platform.config().tile_size;
    let mut rest: Vec<DeviceId> = (0..platform.num_devices())
        .filter(|&d| d != main && !exclude.contains(&d))
        .collect();
    rest.sort_by(|&a, &c| {
        platform
            .device(c)
            .update_throughput(b)
            .total_cmp(&platform.device(a).update_throughput(b))
            .then(a.cmp(&c))
    });
    let mut out = vec![main];
    out.extend(rest);
    out
}

/// `Top(p)` of Eq. 10, extended from the paper's first iteration to the
/// whole run (the paper itself argues "the trend for whole iteration will
/// be similar to the first iteration" — summing panels makes the predictor
/// directly comparable to a measured makespan).
///
/// Per panel, the main device is charged its T/E chain (`#tile_m ×
/// (time_m(T) + time_m(E))`) and every participant its share of the
/// `M(N−1)` update-tile operations, at its slot-parallel effective rate.
/// `Top` is the worst per-device total — a resource lower bound that
/// accounts for the overlap of T/E with updates.
pub fn top_us(platform: &Platform, devices: &[DeviceId], mt: usize, nt: usize) -> f64 {
    let b = platform.config().tile_size;
    let main = devices[0];
    let dist = Distribution::build(platform, main, devices, DistributionStrategy::GuideArray);
    // Column shares translate ratio weights into tile counts.
    let total_cols: usize = devices
        .iter()
        .map(|&d| dist.guide().iter().filter(|&&g| g == d).count())
        .sum();
    let kmax = mt.min(nt);
    let mut worst = 0.0f64;
    for &d in devices {
        let dev = platform.device(d);
        let share = if total_cols == 0 {
            if d == main {
                1.0
            } else {
                0.0
            }
        } else {
            dist.guide().iter().filter(|&&g| g == d).count() as f64 / total_cols as f64
        };
        let t_u = dev.kernel_time_us(KernelClass::Update, b);
        let t_t = dev.kernel_time_us(KernelClass::Triangulation, b);
        let t_e = dev.kernel_time_us(KernelClass::Elimination, b);
        let mut lane_time = 0.0f64;
        for k in 0..kmax {
            let m = (mt - k) as f64;
            let cols_right = (nt - k - 1) as f64;
            // Each distributed column costs one UNMQR plus (M−1) TSMQRs —
            // the concrete realisation of Eq. 10's UT + UE charge.
            lane_time += share * cols_right * m * t_u;
            if d == main {
                lane_time += t_t + (m - 1.0) * t_e;
            }
        }
        worst = worst.max(lane_time / dev.slots(b) as f64);
    }
    worst
}

/// `Tcomm(p)` of Eq. 11, summed over all panels: per panel, `3MT²`
/// elements of Q data go from the main device to each of the other `p−1`
/// participants as one batched transfer each, and the `(M−1)T²`-element
/// next panel column comes back to the main device. The batched-transfer
/// setup latency, paid every panel per destination, is what makes few
/// devices optimal for small matrices (Table III).
pub fn tcomm_us(platform: &Platform, devices: &[DeviceId], mt: usize, nt: usize) -> f64 {
    if devices.len() < 2 {
        return 0.0; // speed(x, x) = ∞: a lone device never pays.
    }
    let cfg = platform.config();
    let kmax = mt.min(nt);
    let mut t = 0.0;
    for k in 0..kmax {
        let m = (mt - k) as u64;
        let q_bytes = 3 * m * cfg.tile_bytes();
        let col_bytes = m.saturating_sub(1) * cfg.tile_bytes();
        for &_d in &devices[1..] {
            t += platform.link().batch_time_us(q_bytes);
        }
        t += platform.link().batch_time_us(col_bytes);
    }
    t
}

/// Run Algorithm 3: choose the `p` (1 ≤ p ≤ #survivors) minimizing
/// `Top(p) + Tcomm(p)`. Prefixes are drawn from the ordered devices not on
/// the `exclude` blacklist (empty for a healthy plan), so a dead device can
/// never be a participant.
pub fn select_device_count(
    platform: &Platform,
    main: DeviceId,
    mt: usize,
    nt: usize,
    exclude: &[DeviceId],
) -> CountSelection {
    let ordered = ordered_devices(platform, main, exclude);
    let mut predictions = Vec::with_capacity(ordered.len());
    for p in 1..=ordered.len() {
        let devices = ordered[..p].to_vec();
        let top = top_us(platform, &devices, mt, nt);
        let tcomm = tcomm_us(platform, &devices, mt, nt);
        predictions.push(CountPrediction {
            p,
            devices,
            top_us: top,
            tcomm_us: tcomm,
        });
    }
    let best = predictions
        .iter()
        .min_by(|a, b| a.total_us().total_cmp(&b.total_us()))
        .expect("at least one device");
    CountSelection {
        p: best.p,
        devices: best.devices.clone(),
        predictions: predictions.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn ordering_puts_main_first_then_by_update_speed() {
        let p = profiles::paper_testbed(16);
        let ord = ordered_devices(&p, 0, &[]);
        assert_eq!(ord[0], 0, "main (GTX580) first");
        assert_eq!(&ord[1..3], &[1, 2], "GTX680s next");
        assert_eq!(ord[3], 3, "CPU last");
    }

    #[test]
    fn tcomm_grows_with_device_count() {
        let p = profiles::paper_testbed(16);
        let ord = ordered_devices(&p, 0, &[]);
        let t1 = tcomm_us(&p, &ord[..1], 100, 100);
        let t2 = tcomm_us(&p, &ord[..2], 100, 100);
        let t3 = tcomm_us(&p, &ord[..3], 100, 100);
        assert_eq!(t1, 0.0, "single device never touches the bus");
        assert!(t2 > t1 && t3 > t2);
    }

    #[test]
    fn top_shrinks_with_device_count_at_large_sizes() {
        let p = profiles::paper_testbed(16);
        let ord = ordered_devices(&p, 0, &[]);
        let mt = 500;
        let t1 = top_us(&p, &ord[..1], mt, mt);
        let t2 = top_us(&p, &ord[..2], mt, mt);
        let t3 = top_us(&p, &ord[..3], mt, mt);
        assert!(t2 < t1, "adding a GTX680 must relieve the GTX580");
        assert!(t3 < t2);
    }

    #[test]
    fn small_matrices_use_fewer_devices_than_large() {
        // Table III: 1 GPU below ~480, 2 GPUs in the middle band, 3 GPUs
        // beyond ~2720. Exact crossovers depend on calibration; the
        // monotone trend is the invariant worth locking down.
        let gpus = profiles::testbed_subset(3, false, 16);
        let tiny = select_device_count(&gpus, 0, 160 / 16, 160 / 16, &[]);
        let huge = select_device_count(&gpus, 0, 4000 / 16, 4000 / 16, &[]);
        assert!(tiny.p <= huge.p);
        assert_eq!(huge.p, 3, "the largest size must use all GPUs");
        assert_eq!(tiny.p, 1, "the smallest size must use one GPU");
    }

    #[test]
    fn predictions_cover_all_prefixes() {
        let p = profiles::paper_testbed(16);
        let sel = select_device_count(&p, 0, 50, 50, &[]);
        assert_eq!(sel.predictions.len(), 4);
        for (i, pred) in sel.predictions.iter().enumerate() {
            assert_eq!(pred.p, i + 1);
            assert_eq!(pred.devices.len(), i + 1);
            assert_eq!(pred.devices[0], 0);
        }
        let chosen = &sel.predictions[sel.p - 1];
        for other in &sel.predictions {
            assert!(chosen.total_us() <= other.total_us() + 1e-9);
        }
    }

    #[test]
    fn exclusion_removes_devices_from_every_prefix() {
        let p = profiles::paper_testbed(16);
        let sel = select_device_count(&p, 0, 200, 200, &[1]);
        assert_eq!(sel.predictions.len(), 3, "one device blacklisted");
        for pred in &sel.predictions {
            assert!(!pred.devices.contains(&1));
        }
        assert!(!sel.devices.contains(&1));
    }

    #[test]
    fn exclusion_to_single_device_still_plans() {
        let p = profiles::paper_testbed(16);
        let sel = select_device_count(&p, 3, 20, 20, &[0, 1, 2]);
        assert_eq!(sel.p, 1);
        assert_eq!(sel.devices, vec![3]);
    }

    #[test]
    #[should_panic]
    fn excluded_main_panics() {
        let p = profiles::paper_testbed(16);
        let _ = ordered_devices(&p, 0, &[0]);
    }

    #[test]
    fn single_device_platform_selects_one() {
        let p = profiles::testbed_subset(1, false, 16);
        let sel = select_device_count(&p, 0, 20, 20, &[]);
        assert_eq!(sel.p, 1);
    }
}
