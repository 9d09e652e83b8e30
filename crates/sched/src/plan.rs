//! End-to-end planning: Algorithm 2 → Algorithm 3 → Algorithm 4.

use crate::device_count::{select_device_count, CountSelection};
use crate::distribution::{Distribution, DistributionStrategy};
use crate::main_select::{select_main_device, MainSelection};
use tileqr_sim::{DeviceId, Platform};

/// How the main computing device is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MainDevicePolicy {
    /// Run Algorithm 2 (the paper's method).
    Auto,
    /// Force a specific device (the GTX680-as-main / CPU-as-main baselines
    /// of Fig. 9).
    Fixed(DeviceId),
    /// No main device: every device triangulates and eliminates its own
    /// columns (the "None" baseline of Fig. 9).
    None,
}

/// A complete execution plan for one tiled QR run on a heterogeneous node.
#[derive(Debug, Clone)]
pub struct HeteroPlan {
    /// The main computing device (under [`MainDevicePolicy::None`] this is
    /// still recorded — it owns column 0).
    pub main: DeviceId,
    /// Main-device policy the plan was built with.
    pub policy: MainDevicePolicy,
    /// Participating devices, main first then by update speed.
    pub participants: Vec<DeviceId>,
    /// Column → device distribution.
    pub distribution: Distribution,
    /// Diagnostics from Algorithm 2 (when it ran).
    pub main_selection: Option<MainSelection>,
    /// Diagnostics from Algorithm 3 (when it ran).
    pub count_selection: Option<CountSelection>,
    /// Devices blacklisted when the plan was built (empty for a healthy
    /// plan; populated by mid-run re-planning after a device death).
    pub excluded: Vec<DeviceId>,
}

/// Full planning pipeline with the paper's defaults: Algorithm 2 selects
/// the main device, Algorithm 3 the device count, Algorithm 4 the
/// distribution guide array.
pub fn plan(platform: &Platform, mt: usize, nt: usize) -> HeteroPlan {
    plan_with(
        platform,
        mt,
        nt,
        MainDevicePolicy::Auto,
        DistributionStrategy::GuideArray,
        None,
        &[],
    )
}

/// Planning pipeline with every knob exposed — used by the experiment
/// harness to build the paper's baselines, and by mid-run re-planning.
///
/// `force_p` overrides Algorithm 3 with a fixed participant count
/// (clamped to the number of surviving devices). Algorithms 2, 3 and 4 all
/// run on the devices not on the `exclude` blacklist (empty for a healthy
/// plan), so a dead device can be neither main nor a participant; a device
/// listed twice is excluded once.
///
/// Panics on an unknown device id, if the blacklist covers every device,
/// or if [`MainDevicePolicy::Fixed`] names an excluded device.
pub fn plan_with(
    platform: &Platform,
    mt: usize,
    nt: usize,
    policy: MainDevicePolicy,
    strategy: DistributionStrategy,
    force_p: Option<usize>,
    exclude: &[DeviceId],
) -> HeteroPlan {
    for &d in exclude {
        assert!(d < platform.num_devices(), "unknown device {d}");
    }
    let (main, main_selection) = match policy {
        MainDevicePolicy::Auto | MainDevicePolicy::None => {
            let sel = select_main_device(platform, mt, nt, exclude);
            (sel.device, Some(sel))
        }
        MainDevicePolicy::Fixed(d) => {
            assert!(d < platform.num_devices(), "unknown device {d}");
            assert!(!exclude.contains(&d), "fixed main device {d} is excluded");
            (d, None)
        }
    };

    // Alg. 3 predicts every prefix of the surviving ordered list, so its
    // last prediction holds all the survivors.
    let count = select_device_count(platform, main, mt, nt, exclude);
    let participants = match force_p {
        Some(p) => count.predictions[p.clamp(1, count.predictions.len()) - 1]
            .devices
            .clone(),
        None => count.devices.clone(),
    };

    let distribution = Distribution::build(platform, main, &participants, strategy);
    HeteroPlan {
        main,
        policy,
        participants,
        distribution,
        main_selection,
        count_selection: Some(count),
        excluded: exclude.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn auto_plan_on_testbed() {
        let p = profiles::paper_testbed(16);
        let plan = plan(&p, 400, 400);
        assert_eq!(plan.main, 0, "GTX580 main");
        assert!(plan.participants.contains(&0));
        assert_eq!(plan.participants[0], 0, "main heads the list");
        assert_eq!(plan.distribution.owner(0), 0);
    }

    #[test]
    fn fixed_policy_overrides_main() {
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            100,
            100,
            MainDevicePolicy::Fixed(3),
            DistributionStrategy::GuideArray,
            None,
            &[],
        );
        assert_eq!(plan.main, 3);
        assert!(plan.main_selection.is_none());
    }

    #[test]
    fn force_p_clamps_and_applies() {
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            100,
            100,
            MainDevicePolicy::Auto,
            DistributionStrategy::Even,
            Some(2),
            &[],
        );
        assert_eq!(plan.participants.len(), 2);
        let plan9 = plan_with(
            &p,
            100,
            100,
            MainDevicePolicy::Auto,
            DistributionStrategy::Even,
            Some(9),
            &[],
        );
        assert_eq!(plan9.participants.len(), 4, "clamped to device count");
    }

    #[test]
    fn small_matrix_plans_use_few_devices() {
        let gpus = profiles::testbed_subset(3, false, 16);
        let small = plan(&gpus, 10, 10);
        let large = plan(&gpus, 250, 250);
        assert!(small.participants.len() <= large.participants.len());
        assert_eq!(large.participants.len(), 3);
    }

    #[test]
    fn degraded_plan_excludes_dead_devices_everywhere() {
        let p = profiles::paper_testbed(16);
        let healthy = plan(&p, 400, 400);
        assert_eq!(healthy.main, 0);
        assert!(healthy.excluded.is_empty());

        // Kill the healthy main device: the degraded plan must promote a
        // survivor and keep device 0 out of every structure.
        let degraded = plan_with(
            &p,
            400,
            400,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            None,
            &[0],
        );
        assert_ne!(degraded.main, 0);
        assert!(!degraded.participants.contains(&0));
        assert!(degraded.distribution.guide().iter().all(|&d| d != 0));
        assert_eq!(degraded.excluded, vec![0]);
        for pred in &degraded.count_selection.as_ref().unwrap().predictions {
            assert!(!pred.devices.contains(&0));
        }
    }

    #[test]
    fn degraded_to_single_survivor_is_a_valid_plan() {
        let p = profiles::paper_testbed(16);
        let solo = plan_with(
            &p,
            50,
            50,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            None,
            &[0, 1, 2],
        );
        assert_eq!(solo.main, 3);
        assert_eq!(solo.participants, vec![3]);
        for j in 0..50 {
            assert_eq!(solo.distribution.owner(j), 3);
        }
    }

    #[test]
    fn repeated_blacklist_entries_count_each_device_once() {
        // Devices 0, 2 and 3 survive `[1, 1]`: a forced count of 9 clamps
        // to all three, not to 4 - 2 = 2.
        let p = profiles::paper_testbed(16);
        let plan_p = |force_p, exclude: &[DeviceId]| {
            plan_with(
                &p,
                100,
                100,
                MainDevicePolicy::Auto,
                DistributionStrategy::GuideArray,
                Some(force_p),
                exclude,
            )
        };
        assert_eq!(plan_p(9, &[1, 1]).participants, vec![0, 2, 3]);
        // Devices 0 and 3 survive `[1, 1, 2, 2]`; the clamp must not panic.
        assert_eq!(plan_p(2, &[1, 1, 2, 2]).participants, vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "unknown device 7")]
    fn unknown_excluded_device_panics() {
        let p = profiles::paper_testbed(16);
        let _ = plan_with(
            &p,
            10,
            10,
            MainDevicePolicy::Fixed(0),
            DistributionStrategy::Even,
            None,
            &[7],
        );
    }

    #[test]
    #[should_panic]
    fn degraded_fixed_main_on_blacklist_panics() {
        let p = profiles::paper_testbed(16);
        let _ = plan_with(
            &p,
            10,
            10,
            MainDevicePolicy::Fixed(1),
            DistributionStrategy::Even,
            None,
            &[1],
        );
    }

    #[test]
    #[should_panic]
    fn fixed_unknown_device_panics() {
        let p = profiles::paper_testbed(16);
        let _ = plan_with(
            &p,
            10,
            10,
            MainDevicePolicy::Fixed(17),
            DistributionStrategy::Even,
            None,
            &[],
        );
    }
}
