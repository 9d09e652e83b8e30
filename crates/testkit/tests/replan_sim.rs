//! Mid-run device dropout and re-planning, end to end in the simulator.
//!
//! The contract under test: when a [`FaultPlan`] kills a participating
//! device mid-run, the adaptive simulator re-runs Algorithms 2–4 over the
//! survivors at the next panel boundary, migrates the dead device's
//! columns, and finishes — with a makespan strictly better than the
//! no-replan baseline, which (by construction of device death) is
//! infinite whenever a dead device still owns columns. A dead device that
//! owns nothing is ignored silently: re-planning for a corpse nobody uses
//! would only churn the schedule.

use tileqr_sched::distribution::DistributionStrategy;
use tileqr_sched::fastsim::simulate_fast;
use tileqr_sched::plan::{plan, plan_with, MainDevicePolicy};
use tileqr_sched::replan::{simulate_adaptive, ReplanPolicy};
use tileqr_sched::HeteroPlan;
use tileqr_sim::{profiles, DeviceId, FaultPlan, Platform};

fn auto_plan(nt: usize) -> (Platform, HeteroPlan) {
    let p = profiles::paper_testbed(16);
    let plan = plan(&p, nt, nt);
    (p, plan)
}

/// Devices the schedule actually depends on: column owners plus the main
/// (T/E) device.
fn active_devices(plan: &HeteroPlan, nt: usize) -> Vec<DeviceId> {
    let mut active: Vec<DeviceId> = (0..nt).map(|j| plan.distribution.owner(j)).collect();
    active.push(plan.main);
    active.sort_unstable();
    active.dedup();
    active
}

#[test]
fn dropout_of_each_active_device_triggers_replan_that_beats_baseline() {
    // nt = 200 is the smallest square grid where Alg. 3 picks all three
    // GPUs on the paper testbed, so every dropout case is exercised.
    let nt = 200;
    let (p, plan) = auto_plan(nt);
    let healthy = simulate_fast(&p, &plan, nt, nt).makespan_us;
    let active = active_devices(&plan, nt);
    assert!(active.len() >= 2, "testbed plan must be multi-device");

    for &dead in &active {
        let faults = FaultPlan::none().with_device_death(dead, healthy * 0.35);
        let adaptive = simulate_adaptive(&p, &plan, nt, nt, &faults, &ReplanPolicy::default());
        let baseline = simulate_adaptive(&p, &plan, nt, nt, &faults, &ReplanPolicy::disabled());

        assert!(
            adaptive.stats.replan_count >= 1,
            "device {dead}: dropout must trigger a re-plan"
        );
        assert!(
            adaptive.stats.makespan_us.is_finite(),
            "device {dead}: adaptive run must finish"
        );
        assert!(
            baseline.stats.makespan_us.is_infinite(),
            "device {dead}: a dead active device stalls the baseline forever"
        );
        assert!(adaptive.stats.makespan_us < baseline.stats.makespan_us);

        // The re-selected plan must exclude the corpse everywhere.
        let ev = adaptive.replans.last().unwrap();
        assert!(ev.excluded.contains(&dead));
        assert_ne!(ev.main, dead, "dead device re-selected as main");
        assert!(!ev.participants.contains(&dead));
        assert!(adaptive.plan.excluded.contains(&dead));
        assert!(adaptive
            .plan
            .distribution
            .guide()
            .iter()
            .all(|&d| d != dead));
    }
}

#[test]
fn dead_bystander_devices_are_ignored_silently() {
    // Small grids plan onto a single GPU, leaving three bystanders.
    let nt = 40;
    let (p, plan) = auto_plan(nt);
    let active = active_devices(&plan, nt);
    let bystanders: Vec<DeviceId> = (0..p.num_devices())
        .filter(|d| !active.contains(d))
        .collect();
    let healthy = simulate_fast(&p, &plan, nt, nt);
    for dead in bystanders {
        let faults = FaultPlan::none().with_device_death(dead, 0.0);
        let run = simulate_adaptive(&p, &plan, nt, nt, &faults, &ReplanPolicy::default());
        assert_eq!(run.stats.replan_count, 0, "bystander {dead} must not churn");
        assert_eq!(run.stats, healthy, "bystander death is invisible");
    }
}

#[test]
fn migration_cost_is_charged_and_bounded() {
    let nt = 150;
    let (p, plan) = auto_plan(nt);
    let healthy = simulate_fast(&p, &plan, nt, nt);
    // Kill a non-main active device (an update workhorse owning columns).
    let dead = *active_devices(&plan, nt)
        .iter()
        .find(|&&d| d != plan.main)
        .expect("multi-device plan");
    let faults = FaultPlan::none().with_device_death(dead, healthy.makespan_us * 0.4);
    let run = simulate_adaptive(&p, &plan, nt, nt, &faults, &ReplanPolicy::default());

    assert!(run.stats.migrated_bytes > 0, "column moves must be charged");
    assert!(
        run.stats.migrated_bytes <= run.stats.bytes_transferred,
        "migration is a subset of bus traffic"
    );
    let event_total: u64 = run.replans.iter().map(|e| e.migrated_bytes).sum();
    assert_eq!(event_total, run.stats.migrated_bytes);
}

#[test]
fn replan_makespan_degrades_gracefully_with_death_time() {
    // The later the device dies, the less work needs re-distributing;
    // dying later must never be meaningfully worse than dying earlier,
    // and losing a device must never beat the healthy run by more than
    // schedule noise (the re-plan runs Alg. 3 afresh, which can shave a
    // few percent off a predictor-guided initial choice).
    let nt = 150;
    let (p, plan) = auto_plan(nt);
    let healthy = simulate_fast(&p, &plan, nt, nt).makespan_us;
    let dead = *active_devices(&plan, nt)
        .iter()
        .find(|&&d| d != plan.main)
        .expect("multi-device plan");
    let mut prev = f64::INFINITY;
    for frac in [0.1, 0.5, 0.9] {
        let faults = FaultPlan::none().with_device_death(dead, healthy * frac);
        let run = simulate_adaptive(&p, &plan, nt, nt, &faults, &ReplanPolicy::default());
        assert!(run.stats.makespan_us.is_finite());
        assert!(
            run.stats.makespan_us >= healthy * 0.9,
            "frac {frac}: losing a device cannot make the run much faster \
             ({} vs healthy {healthy})",
            run.stats.makespan_us
        );
        assert!(
            run.stats.makespan_us <= prev * 1.05,
            "dying later (frac {frac}) should not be much worse than dying earlier"
        );
        prev = run.stats.makespan_us;
    }
}

#[test]
fn degraded_planning_after_blacklist_matches_direct_plan_on_survivors() {
    // Re-planning with devices {0,2} dead must agree with planning from
    // scratch on the survivor platform modulo device numbering — the
    // exclusion path is a restriction, not a different algorithm.
    let p = profiles::paper_testbed(16);
    let degraded = plan_with(
        &p,
        100,
        100,
        MainDevicePolicy::Auto,
        DistributionStrategy::GuideArray,
        None,
        &[0, 2],
    );
    assert!(!degraded.participants.contains(&0));
    assert!(!degraded.participants.contains(&2));
    // Survivors are device 1 (GTX680) and 3 (CPU): the GPU must be main.
    assert_eq!(degraded.main, 1);
    let stats = simulate_fast(&p, &degraded, 100, 100);
    assert!(stats.makespan_us.is_finite() && stats.makespan_us > 0.0);
}
