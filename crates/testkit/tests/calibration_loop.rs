//! The calibration loop's scheduling half: measured-cost priorities and
//! online drift re-weighting may change *when* tasks run, never *what*
//! they compute.
//!
//! Three layers of evidence:
//!
//! 1. **Bit identity** — factors under [`CostModel::Calibrated`]
//!    priorities, and under mid-run drift re-weighting, are byte-equal
//!    to the sequential run across the workers × policies × trees
//!    sweep.
//! 2. **Drift triggering** — the [`DriftDetector`] fed durations shaped
//!    by simulator [`FaultPlan`] slowdown windows fires on sustained
//!    drift, stays quiet on clean runs, and damps isolated spikes.
//! 3. **Simulator goldens** — on synthetic multi-core profiles the
//!    deterministic list scheduler shows critical-path-by-measured-µs
//!    makespans no worse than FIFO and no worse than
//!    critical-path-by-flops on the reference grids.

use tileqr::dag::{
    bottom_levels, list_makespan, ClassCosts, CostCurve, CostModel, EliminationTree, ListOrder,
    TaskGraph, TaskKind, TreePolicy,
};
use tileqr::runtime::{model_weight, DriftConfig};
use tileqr::{QrOptions, TiledQr};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::Matrix;
use tileqr_obs::DriftDetector;
use tileqr_sim::FaultPlan;
use tileqr_testkit::{policies_under_test, workers_under_test};

/// A measured-cost profile where update kernels are far cheaper per
/// flop than panel kernels — the regime where flop weights and
/// measured weights rank the DAG differently.
fn measured_costs() -> ClassCosts {
    let c = |c0: f64, c2: f64| CostCurve { c0, c1: 0.0, c2 };
    ClassCosts {
        triangulation: c(4.0, 0.012),
        elimination: c(4.0, 0.012),
        update: c(2.0, 0.001),
    }
}

fn sequential(a: &Matrix<f64>, b: usize, tree: EliminationTree) -> Matrix<f64> {
    TiledQr::factor(
        &a.clone(),
        &QrOptions::new().tile_size(b).tree(TreePolicy::Fixed(tree)),
    )
    .unwrap()
    .state()
    .tiles()
    .to_matrix()
}

/// Calibrated weights across workers × policies × trees: bit identity.
#[test]
fn calibrated_weights_bit_identical_across_sweep() {
    let a = random_matrix::<f64>(40, 40, 91);
    let b = 8;
    let trees = [
        EliminationTree::Flat,
        EliminationTree::Binary,
        EliminationTree::Greedy,
    ];
    let model = CostModel::Calibrated(measured_costs());
    for tree in trees {
        let want = sequential(&a, b, tree);
        for workers in workers_under_test() {
            for policy in policies_under_test() {
                let got = TiledQr::factor(
                    &a,
                    &QrOptions::new()
                        .tile_size(b)
                        .tree(TreePolicy::Fixed(tree))
                        .workers(workers)
                        .schedule(policy)
                        .cost_model(model),
                )
                .unwrap();
                assert_eq!(
                    got.state().tiles().to_matrix(),
                    want,
                    "calibrated priorities changed bits (workers={workers}, policy={policy:?}, tree={tree:?})"
                );
            }
        }
    }
}

/// Mid-run drift re-weighting: a wildly mis-scaled model forces the
/// detector to fire and the ready queue to re-rank, and the factors
/// still match the sequential run byte for byte.
#[test]
fn drift_reweighting_preserves_bits() {
    let a = random_matrix::<f64>(64, 64, 17);
    let b = 8;
    let want = sequential(&a, b, EliminationTree::Flat);
    // Expected microseconds 1000x above reality: every committed kernel
    // lands far below the model, so the detector fires in the recovery
    // direction as soon as a class clears the sample floor.
    let mis_scaled = CostModel::Calibrated(measured_costs().scaled([1000.0, 1000.0, 1000.0]));
    let mut fired_anywhere = false;
    for workers in workers_under_test() {
        for policy in policies_under_test() {
            let (got, report) = TiledQr::factor_traced(
                &a,
                &QrOptions::new()
                    .tile_size(b)
                    .workers(workers)
                    .schedule(policy)
                    .cost_model(mis_scaled)
                    .drift(DriftConfig::on()),
            )
            .unwrap();
            assert_eq!(
                got.state().tiles().to_matrix(),
                want,
                "drift re-weighting changed bits (workers={workers}, policy={policy:?})"
            );
            if workers != 1 {
                fired_anywhere |= report.drift_reweights > 0;
            } else {
                assert_eq!(
                    report.drift_reweights, 0,
                    "the inline single-worker path has no drift machinery"
                );
            }
        }
    }
    if workers_under_test().iter().any(|&w| w != 1) {
        assert!(
            fired_anywhere,
            "a 1000x mis-scaled model must trigger at least one re-weight on a real pool"
        );
    }
}

// ---- Drift-trigger unit layer: FaultPlan-shaped durations. ----

/// Feed the detector `count` samples per class whose durations are the
/// expected per-class mean stretched by the fault plan's slowdown at
/// evenly spaced instants across `[0, horizon_us)`.
fn feed_faulted(
    detector: &mut DriftDetector,
    expected_us: [f64; 3],
    faults: &FaultPlan,
    count: usize,
    horizon_us: f64,
) {
    for i in 0..count {
        let now = horizon_us * i as f64 / count as f64;
        let slow = faults.effective_slowdown(0, now);
        for (class, &us) in expected_us.iter().enumerate() {
            detector.record(class, us * slow);
        }
    }
}

fn expected_us(b: usize) -> [f64; 3] {
    measured_costs().expected_us(b)
}

/// A clean run (no faults) never fires.
#[test]
fn detector_quiet_on_clean_run() {
    let exp = expected_us(8);
    let mut det = DriftDetector::new(DriftConfig::on(), exp);
    feed_faulted(&mut det, exp, &FaultPlan::none(), 64, 10_000.0);
    assert_eq!(det.check(), None, "clean run must not fire");
    assert_eq!(det.fires(), 0);
}

/// A sustained 4x device slowdown fires once the sample floor clears.
#[test]
fn detector_fires_on_sustained_slowdown() {
    let exp = expected_us(8);
    let cfg = DriftConfig::on();
    let mut det = DriftDetector::new(cfg, exp);
    let faults = FaultPlan::none().with_device_slowdown(0, 0.0, 1e12, 4.0);
    feed_faulted(&mut det, exp, &faults, cfg.min_samples as usize, 10_000.0);
    let ratios = det.check().expect("sustained 4x drift must fire");
    for r in ratios {
        assert!(
            (r - 4.0).abs() < 0.5,
            "re-weight ratio should track the injected slowdown, got {ratios:?}"
        );
    }
    // Damping: the same drift does not re-fire from an empty window.
    assert_eq!(det.check(), None, "must not re-fire without new samples");
}

/// A short spike window inside an otherwise clean run is damped by the
/// windowed mean and never fires.
#[test]
fn detector_damps_isolated_spike() {
    let exp = expected_us(8);
    let cfg = DriftConfig::on();
    let mut det = DriftDetector::new(cfg, exp);
    // 64 samples over 10ms; the 8x spike covers ~1/16 of the horizon,
    // so the per-class mean stays under the 2x threshold.
    let faults = FaultPlan::none().with_device_slowdown(0, 4_000.0, 4_625.0, 8.0);
    feed_faulted(&mut det, exp, &faults, 64, 10_000.0);
    assert_eq!(det.check(), None, "one spike among many must be damped");
}

// ---- Simulator goldens: measured beats (or ties) flops. ----

/// On the reference grids at 4 and 16 simulated cores, critical path
/// ranked by measured microseconds is never worse than FIFO and never
/// worse than critical path ranked by flops — the whole point of
/// feeding calibration back into the scheduler.
#[test]
fn measured_priorities_golden_on_reference_grids() {
    let b = 16;
    let costs = measured_costs();
    let dur = |k: TaskKind| costs.cost_us(k, b);
    for (mt, nt) in [(8usize, 8usize), (32, 2)] {
        let graph = TaskGraph::build_tree(mt, nt, EliminationTree::Flat);
        let flop_pri = bottom_levels(&graph, model_weight(CostModel::Flops, b));
        let cal_pri = bottom_levels(&graph, dur);
        for workers in [4usize, 16] {
            let fifo = list_makespan(&graph, workers, ListOrder::Fifo, dur);
            let cp_flops = list_makespan(&graph, workers, ListOrder::Priority(&flop_pri), dur);
            let cp_measured = list_makespan(&graph, workers, ListOrder::Priority(&cal_pri), dur);
            assert!(
                cp_measured <= fifo + 1e-9,
                "{mt}x{nt}/{workers}w: measured CP {cp_measured} worse than FIFO {fifo}"
            );
            assert!(
                cp_measured <= cp_flops + 1e-9,
                "{mt}x{nt}/{workers}w: measured CP {cp_measured} worse than flop CP {cp_flops}"
            );
        }
    }
    // And the gap is real somewhere: on the 8x8 grid at 4 workers the
    // measured ranking strictly beats both baselines (golden values
    // pinned by the deterministic scheduler).
    let graph = TaskGraph::build_tree(8, 8, EliminationTree::Flat);
    let dur4 = |k: TaskKind| costs.cost_us(k, b);
    let fifo = list_makespan(&graph, 4, ListOrder::Fifo, dur4);
    let cal_pri = bottom_levels(&graph, dur4);
    let cp_measured = list_makespan(&graph, 4, ListOrder::Priority(&cal_pri), dur4);
    let flop_pri = bottom_levels(&graph, model_weight(CostModel::Flops, b));
    let cp_flops = list_makespan(&graph, 4, ListOrder::Priority(&flop_pri), dur4);
    assert!(
        cp_measured < cp_flops && cp_flops < fifo,
        "expected a strict win on 8x8/4w: measured {cp_measured}, flops {cp_flops}, fifo {fifo}"
    );
}
