//! Main computing device selection (paper Alg. 2).
//!
//! The main computing device executes every triangulation (T) and
//! elimination (E) kernel. Algorithm 2 first collects *candidates* — the
//! devices able to finish the panel's T/E work before the remaining
//! devices finish the panel's updates — then, among the candidates, picks
//! the one with the **minimum update speed**, "because non-minimum speed
//! devices are better to be used to do update processes".
//!
//! On the paper's testbed this selects the GTX580: the CPU fails the
//! candidate test (its T/E kernels are ~6× slower with only 4-way
//! parallelism), and among the GPUs the GTX580 has the lowest update
//! throughput, so the wider GTX680s are kept on update duty (§VI-B).

use tileqr_sim::{DeviceId, Platform};

/// Result of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MainSelection {
    /// The selected main computing device.
    pub device: DeviceId,
    /// Devices that passed the `can_finish_T_before_UE` /
    /// `can_finish_E_before_UT` test (empty when the fallback fired).
    pub candidates: Vec<DeviceId>,
    /// Per-device T/E occupancy time for the first panel, microseconds
    /// (diagnostic, used by the experiment harness).
    pub te_time_us: Vec<f64>,
}

/// Serial latency of the first panel's T/E chain on device `i`,
/// microseconds. The eliminations of one panel form a dependency chain
/// (each `TSQRT` reuses the pivot tile), so no amount of device
/// parallelism shortens it — this is the paper's
/// `can_finish_T_before_UE` / `can_finish_E_before_UT` quantity.
fn te_chain_us(platform: &Platform, dev: DeviceId, mt: usize) -> f64 {
    let b = platform.config().tile_size;
    let d = platform.device(dev);
    let t = d.kernel_time_us(tileqr_dag::KernelClass::Triangulation, b);
    let e = d.kernel_time_us(tileqr_dag::KernelClass::Elimination, b);
    t + (mt.saturating_sub(1)) as f64 * e
}

/// Update-phase time of the first panel if every non-excluded device
/// *except* `dev` shares the `M(N−1)` update tiles in proportion to
/// throughput.
fn update_time_without_us(
    platform: &Platform,
    dev: DeviceId,
    mt: usize,
    nt: usize,
    excluded: &[bool],
) -> f64 {
    let b = platform.config().tile_size;
    let tiles = (mt * nt.saturating_sub(1)) as f64;
    let throughput: f64 = (0..platform.num_devices())
        .filter(|&d| d != dev && !excluded[d])
        .map(|d| platform.device(d).update_throughput(b))
        .sum();
    if throughput == 0.0 {
        f64::INFINITY
    } else {
        tiles / throughput
    }
}

/// Run Algorithm 2 for an `mt x nt` tile grid over the devices of
/// `platform` not on the `exclude` blacklist (empty for a healthy plan;
/// after a mid-run device death, the re-planner passes the dead devices).
/// `te_time_us` still covers every device (diagnostics), but excluded
/// devices can neither be candidates nor win the fallback. Panics if
/// exclusion leaves no device.
pub fn select_main_device(
    platform: &Platform,
    mt: usize,
    nt: usize,
    exclude: &[DeviceId],
) -> MainSelection {
    assert!(mt > 0 && nt > 0);
    let n = platform.num_devices();
    let mut excluded = vec![false; n];
    for &d in exclude {
        assert!(d < n, "unknown excluded device {d}");
        excluded[d] = true;
    }
    let eligible: Vec<DeviceId> = (0..n).filter(|&d| !excluded[d]).collect();
    assert!(
        !eligible.is_empty(),
        "exclusion left no device to plan with"
    );
    let te_time_us: Vec<f64> = (0..n).map(|d| te_chain_us(platform, d, mt)).collect();

    if eligible.len() == 1 {
        return MainSelection {
            device: eligible[0],
            candidates: eligible,
            te_time_us,
        };
    }

    let candidates: Vec<DeviceId> = eligible
        .iter()
        .copied()
        .filter(|&d| te_time_us[d] <= update_time_without_us(platform, d, mt, nt, &excluded))
        .collect();

    let b = platform.config().tile_size;
    let device = if candidates.is_empty() {
        // Fallback: no device keeps up with the others' updates — take the
        // one with the fastest T/E chain.
        eligible
            .iter()
            .copied()
            .min_by(|&a, &c| te_time_us[a].total_cmp(&te_time_us[c]))
            .expect("non-empty eligible set")
    } else {
        // "find_minimum_speed_device_id": slowest *updater* among the
        // candidates, so the fast updaters stay on update duty.
        candidates
            .iter()
            .copied()
            .min_by(|&a, &c| {
                platform
                    .device(a)
                    .update_throughput(b)
                    .total_cmp(&platform.device(c).update_throughput(b))
            })
            .expect("non-empty candidates")
    };

    MainSelection {
        device,
        candidates,
        te_time_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn testbed_selects_gtx580_at_paper_sizes() {
        // §VI-B: "Therefore, our selection is GTX580" (device 0).
        let p = profiles::paper_testbed(16);
        for size in [3200usize, 6400, 9600, 12800, 16000] {
            let nt = size / 16;
            let sel = select_main_device(&p, nt, nt, &[]);
            assert_eq!(sel.device, 0, "size {size}: {sel:?}");
        }
    }

    #[test]
    fn cpu_never_main_when_gpus_exist() {
        let p = profiles::paper_testbed(16);
        for nt in [5, 10, 50, 100, 400, 1000] {
            let sel = select_main_device(&p, nt, nt, &[]);
            assert_ne!(sel.device, 3, "CPU selected at nt={nt}");
        }
    }

    #[test]
    fn gpus_are_candidates_on_update_bound_grids() {
        // The candidate test fires once the update phase is long enough to
        // hide the T/E chain. On the calibrated testbed that takes a very
        // wide grid; the mechanism itself is what this test locks down.
        let p = profiles::paper_testbed(16);
        let sel = select_main_device(&p, 20_000, 20_000, &[]);
        assert!(sel.candidates.contains(&0));
        assert!(sel.candidates.contains(&1));
        assert!(!sel.candidates.contains(&3), "CPU cannot keep up");
        assert_eq!(sel.device, 0, "slowest updater among candidates");
    }

    #[test]
    fn single_device_platform() {
        let p = profiles::testbed_subset(1, false, 16);
        let sel = select_main_device(&p, 10, 10, &[]);
        assert_eq!(sel.device, 0);
    }

    #[test]
    fn cpu_only_platform_selects_cpu() {
        let p = profiles::testbed_subset(0, true, 16);
        let sel = select_main_device(&p, 10, 10, &[]);
        assert_eq!(sel.device, 0);
    }

    #[test]
    fn fallback_on_tiny_grids_picks_fastest_te() {
        // With a tiny panel no device passes the candidate test; the
        // fastest T/E pipeline (GTX580) must still be chosen.
        let p = profiles::paper_testbed(16);
        let sel = select_main_device(&p, 2, 2, &[]);
        assert_eq!(sel.device, 0);
    }

    #[test]
    fn excluding_the_winner_promotes_a_survivor() {
        let p = profiles::paper_testbed(16);
        let sel = select_main_device(&p, 400, 400, &[]);
        assert_eq!(sel.device, 0);
        let degraded = select_main_device(&p, 400, 400, &[0]);
        assert_ne!(degraded.device, 0, "dead device must not be re-selected");
        assert!(!degraded.candidates.contains(&0));
    }

    #[test]
    fn exclusion_down_to_one_device_selects_it() {
        let p = profiles::paper_testbed(16);
        let sel = select_main_device(&p, 50, 50, &[0, 1, 2]);
        assert_eq!(sel.device, 3, "only the CPU remains");
        assert_eq!(sel.candidates, vec![3]);
    }

    #[test]
    #[should_panic]
    fn excluding_everything_panics() {
        let p = profiles::testbed_subset(1, false, 16);
        let _ = select_main_device(&p, 10, 10, &[0]);
    }

    #[test]
    fn te_times_ordering() {
        let p = profiles::paper_testbed(16);
        let sel = select_main_device(&p, 100, 100, &[]);
        // Chain latency: GTX580 < GTX680 << CPU (Fig. 4 curve ordering).
        assert!(sel.te_time_us[0] < sel.te_time_us[1]);
        assert!(sel.te_time_us[1] < sel.te_time_us[3]);
    }
}
