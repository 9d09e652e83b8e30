//! Fault-injection suite: how the paper's schedules degrade when the
//! hardware misbehaves.
//!
//! Three layers are exercised: the discrete-event engine replaying
//! [`FaultPlan`]s (spikes, stalls, storms, transient kernel failures),
//! the Alg. 2 main-device selection re-run against persistently degraded
//! profiles, and the Alg. 3 device-count model under the same
//! degradation. In every case the assertion is *graceful degradation*:
//! selections stay valid, makespans move monotonically with fault
//! magnitude, and no fault ever deadlocks or loses work.

use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_sched::assign::assign_tasks;
use tileqr_sched::device_count::select_device_count;
use tileqr_sched::main_select::select_main_device;
use tileqr_sched::Distribution;
use tileqr_sim::engine::{simulate, simulate_with_faults};
use tileqr_sim::profiles;
use tileqr_sim::{DeviceId, FaultPlan, Link, Platform, SimConfig};

fn testbed_assignment(g: &TaskGraph, platform: &Platform) -> Vec<DeviceId> {
    let main = select_main_device(platform, g.tile_rows(), g.tile_cols(), &[]).device;
    let devices: Vec<DeviceId> = (0..platform.num_devices()).collect();
    let dist = Distribution::build(
        platform,
        main,
        &devices,
        tileqr_sched::DistributionStrategy::GuideArray,
    );
    assign_tasks(g, &dist, tileqr_sched::MainDevicePolicy::Auto)
}

fn degraded_testbed(slow_device: usize, factor: f64, tile_size: usize) -> Platform {
    let mut devices = vec![
        profiles::gtx580(),
        profiles::gtx680(),
        profiles::gtx680(),
        profiles::cpu_i7_3820(),
    ];
    devices[slow_device] = devices[slow_device].slowed(factor);
    Platform::new(
        devices,
        Link::pcie2_x16(),
        SimConfig {
            tile_size,
            elem_bytes: 4,
        },
    )
}

#[test]
fn device_slowdown_degrades_makespan_monotonically() {
    let g = TaskGraph::build_tree(8, 8, EliminationTree::Flat);
    let platform = profiles::paper_testbed(16);
    let assignment = testbed_assignment(&g, &platform);
    let clean = simulate(&g, &platform, &assignment).makespan_us;
    let mut prev = clean;
    for slow in [2.0, 4.0, 16.0] {
        // Spike every device the whole run: strictly worse than before.
        let mut plan = FaultPlan::none();
        for d in 0..platform.num_devices() {
            plan = plan.with_device_slowdown(d, 0.0, f64::MAX, slow);
        }
        let s = simulate_with_faults(&g, &platform, &assignment, &plan);
        assert!(s.makespan_us > prev, "slowdown {slow} not monotone");
        assert!(
            s.makespan_us <= clean * slow + 1e-6,
            "uniform slowdown bounded by the factor itself"
        );
        prev = s.makespan_us;
    }
}

#[test]
fn link_faults_degrade_predictably() {
    let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
    let platform = profiles::paper_testbed(16);
    let assignment = testbed_assignment(&g, &platform);
    let clean = simulate(&g, &platform, &assignment);
    assert!(
        clean.transfer_count > 0,
        "multi-device run must communicate"
    );

    // A stall window delays but never drops transfers.
    let stalled = simulate_with_faults(
        &g,
        &platform,
        &assignment,
        &FaultPlan::none().with_link_stall(0.0, 10_000.0),
    );
    assert!(stalled.makespan_us > clean.makespan_us);
    assert_eq!(stalled.bytes_transferred, clean.bytes_transferred);
    assert_eq!(stalled.transfer_count, clean.transfer_count);

    // Storm cost grows with per-transfer latency.
    let mut prev = clean.bus_busy_us;
    for extra in [10.0, 100.0, 1000.0] {
        let s = simulate_with_faults(
            &g,
            &platform,
            &assignment,
            &FaultPlan::none().with_link_storm(0.0, f64::MAX, extra),
        );
        assert!(s.bus_busy_us > prev, "storm {extra} not monotone");
        prev = s.bus_busy_us;
    }
}

#[test]
fn transient_kernel_failures_conserve_work() {
    let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
    let platform = profiles::paper_testbed(16);
    let assignment = testbed_assignment(&g, &platform);
    let clean = simulate(&g, &platform, &assignment);

    let mut plan = FaultPlan::none();
    let mut injected = 0;
    for t in (0..g.len()).step_by(7) {
        plan = plan.with_kernel_failures(t, 1 + t % 2);
        injected += 1 + t % 2;
    }
    let s = simulate_with_faults(&g, &platform, &assignment, &plan);
    assert_eq!(s.retry_count as usize, injected);
    let done: u64 = s.tasks_per_device.iter().sum();
    assert_eq!(done as usize, g.len(), "every task still commits once");
    assert!(s.makespan_us >= clean.makespan_us);
    assert!(s.total_compute_us() > clean.total_compute_us());
}

#[test]
fn alg2_selection_shifts_off_a_degraded_main_device() {
    let b = 16;
    let fresh = profiles::paper_testbed(b);
    let baseline = select_main_device(&fresh, 16, 16, &[]);
    assert_eq!(baseline.device, 0, "paper picks the GTX580 when healthy");

    // Slow the GTX580's kernels far down: it can no longer keep the T/E
    // chain ahead of the others' updates, so Alg. 2 must abandon it.
    let degraded = degraded_testbed(0, 64.0, b);
    let sel = select_main_device(&degraded, 16, 16, &[]);
    assert_ne!(sel.device, 0, "degraded device kept main duty");
    assert!(sel.device < degraded.num_devices());
    assert!(
        sel.candidates.is_empty() || sel.candidates.contains(&sel.device),
        "selection must come from the candidate set when one exists"
    );
}

#[test]
fn alg2_selection_remains_valid_across_degradation_levels() {
    let b = 16;
    for slow_device in 0..4 {
        for factor in [1.0, 2.0, 8.0, 32.0] {
            let platform = degraded_testbed(slow_device, factor, b);
            let sel = select_main_device(&platform, 12, 12, &[]);
            assert!(sel.device < platform.num_devices());
            assert!(
                sel.candidates.is_empty() || sel.candidates.contains(&sel.device),
                "device {slow_device} x{factor}: invalid selection"
            );
        }
    }
}

#[test]
fn alg3_choice_stays_argmin_under_degradation() {
    let b = 16;
    for factor in [1.0, 4.0, 16.0] {
        let platform = degraded_testbed(1, factor, b);
        let main = select_main_device(&platform, 32, 32, &[]).device;
        let sel = select_device_count(&platform, main, 32, 32, &[]);
        let chosen = sel.predictions[sel.p - 1].total_us();
        for pred in &sel.predictions {
            assert!(
                chosen <= pred.total_us(),
                "x{factor}: p={} scores {} but chose p={} at {}",
                pred.p,
                pred.total_us(),
                sel.p,
                chosen
            );
        }
        assert_eq!(sel.devices.len(), sel.p);
        assert_eq!(sel.devices[0], main, "main device always participates");
    }
}

#[test]
fn alg3_predictions_worsen_as_participants_degrade() {
    // Degrading a *participating* device must not make the model predict
    // a faster run for the prefix containing it.
    let b = 16;
    let healthy = profiles::paper_testbed(b);
    let main = select_main_device(&healthy, 24, 24, &[]).device;
    let healthy_sel = select_device_count(&healthy, main, 24, 24, &[]);

    let degraded = degraded_testbed(1, 8.0, b);
    let degraded_sel = select_device_count(&degraded, main, 24, 24, &[]);
    // Compare predictions at equal p where device 1 participates.
    for (h, d) in healthy_sel
        .predictions
        .iter()
        .zip(&degraded_sel.predictions)
    {
        if d.devices.contains(&1) && h.devices == d.devices {
            assert!(
                d.total_us() >= h.total_us() - 1e-9,
                "p={}: degradation predicted a speedup",
                d.p
            );
        }
    }
}

#[test]
fn fault_runs_replay_bit_exactly() {
    let g = TaskGraph::build_tree(7, 7, EliminationTree::Flat);
    let platform = profiles::paper_testbed(16);
    let assignment = testbed_assignment(&g, &platform);
    let plan = FaultPlan::none()
        .with_device_slowdown(0, 500.0, 2500.0, 3.0)
        .with_link_stall(1000.0, 1800.0)
        .with_link_storm(0.0, 4000.0, 15.0)
        .with_kernel_failures(3, 2);
    let a = simulate_with_faults(&g, &platform, &assignment, &plan);
    let b = simulate_with_faults(&g, &platform, &assignment, &plan);
    assert_eq!(a, b);
    assert_eq!(a.retry_count, 2);
}
