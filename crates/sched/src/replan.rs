//! Mid-run re-planning: re-running Algorithms 2–4 after a fault.
//!
//! The paper plans once, up front, from calibrated device profiles. A
//! device that dies or degrades mid-run invalidates that plan: the guide
//! array keeps feeding columns to a device that will never finish them.
//! This module adds the adaptive layer — at every *panel boundary* the
//! simulator samples the fault plan, and when a participating device has
//! died (or slowed past a damping threshold of what the current plan
//! already priced in) it re-runs
//!
//! 1. Algorithm 2 over the survivors
//!    ([`crate::main_select::select_main_device`] with the dead devices as
//!    its blacklist),
//! 2. Algorithm 3 over the survivors
//!    ([`crate::device_count::select_device_count`], likewise),
//! 3. Algorithm 4 on the *observed* platform
//!    ([`tileqr_sim::Platform::observed`]) for the remaining
//!    `(mt−k) × (nt−k)` grid,
//!
//! then migrates every re-owned column across the bus (batched transfers,
//! charged to the same serialized PCIe model as all other traffic) and
//! resumes the pipeline. Panel boundaries are the natural re-planning
//! points because the commit protocol makes everything to the left of the
//! panel immutable — no in-flight state needs rescue.

use crate::fastsim::{panel_step, PipelineState};
use crate::plan::{plan_with, HeteroPlan, MainDevicePolicy};
use tileqr_sim::{DeviceId, FaultPlan, Platform, SimStats};

/// When the adaptive simulator is allowed to re-plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanPolicy {
    /// Master switch. `false` gives the no-replan baseline: faults still
    /// apply, the plan never changes (a dead column owner then means an
    /// infinite makespan).
    pub enabled: bool,
    /// A live device triggers re-planning when its observed slowdown
    /// reaches `slowdown_threshold ×` the slowdown the current plan was
    /// built against. The ratio form damps repeat triggers: after a
    /// re-plan the observed slowdown is the new baseline.
    pub slowdown_threshold: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            enabled: true,
            slowdown_threshold: 4.0,
        }
    }
}

impl ReplanPolicy {
    /// The no-replan baseline.
    pub fn disabled() -> Self {
        ReplanPolicy {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One re-planning decision, recorded for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanEvent {
    /// Panel index at whose boundary the re-plan fired.
    pub panel: usize,
    /// Simulation clock when it fired, microseconds.
    pub at_us: f64,
    /// Cumulative device blacklist after this event.
    pub excluded: Vec<DeviceId>,
    /// Main device selected by the re-run of Algorithm 2.
    pub main: DeviceId,
    /// Participants selected by the re-run of Algorithm 3.
    pub participants: Vec<DeviceId>,
    /// Bytes of column data moved to new owners by this event.
    pub migrated_bytes: u64,
}

/// Result of an adaptive simulation.
#[derive(Debug, Clone)]
pub struct AdaptiveRun {
    /// Simulation statistics ([`SimStats::replan_count`] and
    /// [`SimStats::migrated_bytes`] are populated here).
    pub stats: SimStats,
    /// Every re-planning event, in panel order.
    pub replans: Vec<ReplanEvent>,
    /// The plan in force when the run finished (the initial plan if no
    /// re-plan fired).
    pub plan: HeteroPlan,
}

/// Simulate an `mt × nt` tiled QR under `initial`, injecting `faults` and
/// re-planning per `policy`.
///
/// This is the crate's one panel loop: [`crate::fastsim::simulate_fast`] is
/// this run with no faults and re-planning off (every kernel time is then
/// multiplied by exactly `1.0`, and no trigger can fire). A dead
/// device makes every chain scheduled on it infinitely long, so the
/// disabled-policy baseline reports an infinite makespan whenever a dead
/// device still owns columns — the quantity the adaptive run is measured
/// against.
pub fn simulate_adaptive(
    platform: &Platform,
    initial: &HeteroPlan,
    mt: usize,
    nt: usize,
    faults: &FaultPlan,
    policy: &ReplanPolicy,
) -> AdaptiveRun {
    assert!(mt > 0 && nt > 0);
    let ndev = platform.num_devices();
    let mut state = PipelineState::new(platform, nt);
    let mut plan = initial.clone();
    let mut owner: Vec<usize> = (0..nt).map(|j| plan.distribution.owner(j)).collect();
    let mut excluded: Vec<DeviceId> = plan.excluded.clone();
    // Slowdown each device had when the current plan was built — the
    // denominator of the damped trigger.
    let mut profiled = vec![1.0f64; ndev];
    let mut slow = vec![1.0f64; ndev];
    let mut replans: Vec<ReplanEvent> = Vec::new();

    let kmax = mt.min(nt);
    for k in 0..kmax {
        let now = state.frontier_us();
        for (d, s) in slow.iter_mut().enumerate() {
            *s = faults.effective_slowdown(d, now);
        }

        if policy.enabled {
            // A device matters only if it still owns a remaining column or
            // runs the T/E chains.
            let mut active = vec![false; ndev];
            for &o in &owner[k..] {
                active[o] = true;
            }
            if plan.policy != MainDevicePolicy::None {
                active[plan.main] = true;
            }
            let triggered = (0..ndev).any(|d| {
                active[d]
                    && !excluded.contains(&d)
                    && (slow[d].is_infinite() || slow[d] >= policy.slowdown_threshold * profiled[d])
            });
            if triggered {
                // Blacklist every dead device, active or not — a re-plan
                // must never hand work back to one.
                let mut next_excluded = excluded.clone();
                for (d, s) in slow.iter().enumerate() {
                    if s.is_infinite() && !next_excluded.contains(&d) {
                        next_excluded.push(d);
                    }
                }
                if next_excluded.len() < ndev {
                    excluded = next_excluded;
                    // Re-plan on the platform as observed: survivors keep
                    // their measured (possibly degraded) speed.
                    let factors: Vec<f64> = slow
                        .iter()
                        .map(|&s| if s.is_finite() { s } else { 1.0 })
                        .collect();
                    let observed = platform.observed(&factors);
                    let new_plan = plan_with(
                        &observed,
                        mt - k,
                        nt - k,
                        MainDevicePolicy::Auto,
                        plan.distribution.strategy(),
                        None,
                        &excluded,
                    );

                    // Migrate every remaining column whose owner changed:
                    // one batched bus transfer of its live (mt−k)-tile
                    // slice, flooring the column's pipeline state to the
                    // arrival time.
                    let mut migrated = 0u64;
                    for (j, own) in owner.iter_mut().enumerate().take(nt).skip(k) {
                        let new_owner = new_plan.distribution.owner(j - k);
                        if new_owner != *own {
                            let tiles = (mt - k) as u64;
                            let occupancy = state.batch_lat + tiles as f64 * state.per_tile_wire;
                            let bytes = tiles * state.tile_bytes;
                            let t0 = state.book_bus(now, occupancy, bytes);
                            state.stats.migrated_bytes += bytes;
                            migrated += bytes;
                            state.head[j] =
                                state.head[j].max(t0 + state.batch_lat + state.per_tile_wire);
                            state.full[j] = state.full[j].max(t0 + occupancy);
                            *own = new_owner;
                        }
                    }

                    state.stats.replan_count += 1;
                    replans.push(ReplanEvent {
                        panel: k,
                        at_us: now,
                        excluded: excluded.clone(),
                        main: new_plan.main,
                        participants: new_plan.participants.clone(),
                        migrated_bytes: migrated,
                    });
                    // Damp: the new plan prices in today's slowdowns.
                    for d in 0..ndev {
                        if slow[d].is_finite() {
                            profiled[d] = slow[d].max(1.0);
                        }
                    }
                    plan = new_plan;
                }
                // else: every device is dead — nothing to re-plan onto;
                // the run degenerates to the baseline (infinite makespan).
            }
        }

        let te_dev = match plan.policy {
            MainDevicePolicy::None => owner[k],
            _ => plan.main,
        };
        panel_step(&mut state, &owner, te_dev, k, mt, nt, &slow);
    }

    let mut stats = state.stats;
    stats.makespan_us = state.full.iter().cloned().fold(0.0, f64::max);
    AdaptiveRun {
        stats,
        replans,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crate::fastsim::simulate_fast;
    use crate::plan::plan_with;
    use tileqr_sim::profiles;

    fn testbed_plan(nt: usize) -> (Platform, HeteroPlan) {
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            nt,
            nt,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            Some(4),
            &[],
        );
        (p, plan)
    }

    #[test]
    fn no_faults_matches_fastsim_bit_for_bit() {
        let (p, plan) = testbed_plan(60);
        let exact = simulate_fast(&p, &plan, 60, 60);
        let adaptive = simulate_adaptive(
            &p,
            &plan,
            60,
            60,
            &FaultPlan::none(),
            &ReplanPolicy::default(),
        );
        assert_eq!(adaptive.stats, exact, "ones-multiplier run must be exact");
        assert_eq!(adaptive.stats.replan_count, 0);
        assert_eq!(adaptive.stats.migrated_bytes, 0);
        assert!(adaptive.replans.is_empty());
    }

    #[test]
    fn worker_device_death_triggers_replan_and_beats_baseline() {
        let (p, plan) = testbed_plan(80);
        let healthy = simulate_fast(&p, &plan, 80, 80).makespan_us;
        // Kill a GTX680 (an update workhorse) a third of the way in.
        let faults = FaultPlan::none().with_device_death(1, healthy * 0.3);

        let adaptive = simulate_adaptive(&p, &plan, 80, 80, &faults, &ReplanPolicy::default());
        assert!(adaptive.stats.replan_count >= 1);
        assert!(adaptive.stats.makespan_us.is_finite());
        assert!(
            adaptive.stats.migrated_bytes > 0,
            "dead owner's columns move"
        );
        let ev = &adaptive.replans[0];
        assert!(ev.excluded.contains(&1));
        assert_ne!(ev.main, 1);
        assert!(!ev.participants.contains(&1));
        assert!(ev.panel > 0, "death at 30% must not fire at panel 0");

        let baseline = simulate_adaptive(&p, &plan, 80, 80, &faults, &ReplanPolicy::disabled());
        assert_eq!(baseline.stats.replan_count, 0);
        assert!(
            baseline.stats.makespan_us.is_infinite(),
            "a dead column owner can never finish without re-planning"
        );
        assert!(adaptive.stats.makespan_us < baseline.stats.makespan_us);
    }

    #[test]
    fn main_device_death_promotes_a_new_main() {
        let (p, plan) = testbed_plan(60);
        assert_eq!(plan.main, 0);
        let healthy = simulate_fast(&p, &plan, 60, 60).makespan_us;
        let faults = FaultPlan::none().with_device_death(0, healthy * 0.5);
        let run = simulate_adaptive(&p, &plan, 60, 60, &faults, &ReplanPolicy::default());
        assert!(run.stats.replan_count >= 1);
        assert!(run.stats.makespan_us.is_finite());
        assert_ne!(run.plan.main, 0, "dead main must be replaced");
        assert!(run.plan.excluded.contains(&0));
    }

    #[test]
    fn sustained_slowdown_replans_once_thanks_to_damping() {
        let (p, plan) = testbed_plan(60);
        // Device 1 runs 10× slow for the whole run: over the default 4×
        // threshold once, but the re-plan prices it in, so the same
        // sustained slowdown must not keep firing.
        let faults = FaultPlan::none().with_device_slowdown(1, 0.0, f64::MAX, 10.0);
        let run = simulate_adaptive(&p, &plan, 60, 60, &faults, &ReplanPolicy::default());
        assert_eq!(
            run.stats.replan_count, 1,
            "damping must stop repeat triggers"
        );
        assert!(run.stats.makespan_us.is_finite());
    }

    #[test]
    fn all_devices_dead_degenerates_without_panicking() {
        let (p, plan) = testbed_plan(20);
        let mut faults = FaultPlan::none();
        for d in 0..p.num_devices() {
            faults = faults.with_device_death(d, 0.0);
        }
        let run = simulate_adaptive(&p, &plan, 20, 20, &faults, &ReplanPolicy::default());
        assert!(run.stats.makespan_us.is_infinite());
        assert_eq!(run.stats.replan_count, 0, "nothing left to re-plan onto");
    }

    #[test]
    fn dead_te_device_leaves_no_nan() {
        // A one-row panel on a dead T/E device is an infinite chain, not
        // `0 × ∞`: busy time and the comm share stay numbers.
        let no_nan = |s: &SimStats| {
            !s.makespan_us.is_nan()
                && !s.bus_busy_us.is_nan()
                && !s.device_busy_us.iter().any(|x| x.is_nan())
                && !s.comm_fraction().is_nan()
        };
        let (p, plan) = testbed_plan(200);
        let healthy = simulate_fast(&p, &plan, 200, 200).makespan_us;
        let faults = FaultPlan::none().with_device_death(plan.main, healthy * 0.4);
        let main_dies = simulate_adaptive(&p, &plan, 200, 200, &faults, &ReplanPolicy::disabled());
        assert!(no_nan(&main_dies.stats), "{:?}", main_dies.stats);

        let (p, plan) = testbed_plan(20);
        let mut faults = FaultPlan::none();
        for d in 0..p.num_devices() {
            faults = faults.with_device_death(d, 0.0);
        }
        let all_dead = simulate_adaptive(&p, &plan, 20, 20, &faults, &ReplanPolicy::default());
        assert!(no_nan(&all_dead.stats), "{:?}", all_dead.stats);
    }

    #[test]
    fn dead_inactive_device_is_ignored_silently() {
        // Only device 0 participates; device 3 dying must not trigger.
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            30,
            30,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            Some(1),
            &[],
        );
        let faults = FaultPlan::none().with_device_death(3, 0.0);
        let run = simulate_adaptive(&p, &plan, 30, 30, &faults, &ReplanPolicy::default());
        assert_eq!(run.stats.replan_count, 0);
        assert!(run.stats.makespan_us.is_finite());
    }
}
