//! Validate the fast column-granularity simulator against the exact
//! task-level discrete-event simulator on grids where both run.

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::hetero::{
    assign, engine, fastsim, plan, profiles, DistributionStrategy, MainDevicePolicy, SimStats,
};

fn both_stats(nt: usize, force_p: usize) -> (SimStats, SimStats) {
    let p = profiles::paper_testbed(16);
    let hp = plan::plan_with(
        &p,
        nt,
        nt,
        MainDevicePolicy::Fixed(0),
        DistributionStrategy::GuideArray,
        Some(force_p),
        &[],
    );
    let g = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let a = assign::assign_tasks(&g, &hp.distribution, hp.policy);
    let exact = engine::simulate(&g, &p, &a);
    let fast = fastsim::simulate_fast(&p, &hp, nt, nt);
    (exact, fast)
}

fn both_makespans(nt: usize, force_p: usize) -> (f64, f64) {
    let (exact, fast) = both_stats(nt, force_p);
    (exact.makespan_us, fast.makespan_us)
}

#[test]
fn fast_sim_tracks_exact_sim_within_seven_percent() {
    // Both simulators charge the same bus: one batched copy per (source
    // device, destination device, panel). What is left between them is the
    // chain approximation of the fast simulator (0.935-1.036 measured).
    for nt in [8, 16, 40, 90, 120] {
        for p in 1..=3 {
            let (exact, fast) = both_stats(nt, p);
            let ratio = fast.makespan_us / exact.makespan_us;
            assert!(
                (ratio - 1.0).abs() <= 0.07,
                "nt={nt} p={p}: fast {:.0}us vs exact {:.0}us (ratio {ratio:.3})",
                fast.makespan_us,
                exact.makespan_us
            );
            assert_eq!(
                exact.transfer_count, fast.transfer_count,
                "nt={nt} p={p}: batches"
            );
        }
    }
}

#[test]
fn simulators_agree_on_device_scaling_direction() {
    // Both must say three devices beat one on a big-enough grid. Measured
    // on this platform, the exact simulator's crossover is nt = 104 and the
    // fast simulator's nt = 99; at nt = 200 both are well past it.
    let (e1, f1) = both_makespans(200, 1);
    let (e3, f3) = both_makespans(200, 3);
    assert!(e3 < e1, "exact: {e3} !< {e1}");
    assert!(f3 < f1, "fast: {f3} !< {f1}");
    // And both must say one device wins on a small grid.
    let (e1s, f1s) = both_makespans(8, 1);
    let (e3s, f3s) = both_makespans(8, 3);
    assert!(e1s < e3s, "exact small: {e1s} !< {e3s}");
    assert!(f1s < f3s, "fast small: {f1s} !< {f3s}");
}

#[test]
fn simulators_agree_on_size_scaling() {
    let (e_small, f_small) = both_makespans(8, 3);
    let (e_big, f_big) = both_makespans(32, 3);
    assert!(e_big > e_small);
    assert!(f_big > f_small);
    // Growth factors within a factor of 3 of each other.
    let ge = e_big / e_small;
    let gf = f_big / f_small;
    assert!(
        (ge / gf).abs() > 0.33 && (ge / gf) < 3.0,
        "growth mismatch: exact x{ge:.1} vs fast x{gf:.1}"
    );
}

#[test]
fn both_charge_zero_comm_for_single_device() {
    let p = profiles::paper_testbed(16);
    let hp = plan::plan_with(
        &p,
        12,
        12,
        MainDevicePolicy::Fixed(0),
        DistributionStrategy::GuideArray,
        Some(1),
        &[],
    );
    let g = TaskGraph::build_tree(12, 12, EliminationTree::Flat);
    let a = assign::assign_tasks(&g, &hp.distribution, hp.policy);
    assert_eq!(engine::simulate(&g, &p, &a).bytes_transferred, 0);
    assert_eq!(fastsim::simulate_fast(&p, &hp, 12, 12).bytes_transferred, 0);
}

#[test]
fn busy_times_match_exactly_between_simulators() {
    // Compute (busy) time is schedule-independent: same kernels on the
    // same devices. The two simulators must agree to rounding.
    let p = profiles::paper_testbed(16);
    let hp = plan::plan_with(
        &p,
        20,
        20,
        MainDevicePolicy::Fixed(0),
        DistributionStrategy::GuideArray,
        Some(3),
        &[],
    );
    let g = TaskGraph::build_tree(20, 20, EliminationTree::Flat);
    let a = assign::assign_tasks(&g, &hp.distribution, hp.policy);
    let exact = engine::simulate(&g, &p, &a);
    let fast = fastsim::simulate_fast(&p, &hp, 20, 20);
    for d in 0..p.num_devices() {
        let (eb, fb) = (exact.device_busy_us[d], fast.device_busy_us[d]);
        assert!(
            (eb - fb).abs() <= 1e-6 * eb.max(1.0),
            "device {d}: exact busy {eb} vs fast busy {fb}"
        );
    }
}
