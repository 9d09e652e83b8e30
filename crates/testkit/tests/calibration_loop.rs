//! The calibration loop's scheduling half: measured-cost priorities may
//! change *when* tasks run, never *what* they compute.
//!
//! Two layers of evidence:
//!
//! 1. **Bit identity** — factors of service jobs carrying a
//!    [`CostModel::Calibrated`] model through [`JobSpec::cost_model`] (the
//!    one road measured costs take into a run) are byte-equal to the
//!    sequential run across the workers × policies × trees sweep.
//! 2. **Simulator goldens** — on synthetic multi-core profiles the
//!    deterministic list scheduler shows critical-path-by-measured-µs
//!    makespans no worse than FIFO and no worse than
//!    critical-path-by-flops on the reference grids.

use tileqr::dag::{
    bottom_levels, list_makespan, ClassCosts, CostCurve, CostModel, EliminationTree, ListOrder,
    TaskGraph, TaskKind, TreePolicy,
};
use tileqr::runtime::{model_weight, JobSpec, QrService, ServiceConfig};
use tileqr::{QrOptions, TiledQr};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::Matrix;
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

/// Calibrated weights through `JobSpec::cost_model` across workers ×
/// policies × trees: bit identity.
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
    let want: Vec<_> = trees.iter().map(|&t| sequential(&a, b, t)).collect();
    for workers in workers_under_test() {
        for policy in policies_under_test() {
            let service = QrService::<f64>::start(ServiceConfig {
                workers,
                policy,
                ..ServiceConfig::default()
            });
            for (&tree, want) in trees.iter().zip(&want) {
                let spec = JobSpec::factor(a.clone())
                    .tile_size(b)
                    .tree(TreePolicy::Fixed(tree))
                    .cost_model(model);
                let got = service.submit(spec).unwrap().wait().unwrap();
                assert_eq!(
                    &got.output.factor().state.tiles().to_matrix(),
                    want,
                    "calibrated priorities changed bits (workers={workers}, policy={policy:?}, tree={tree:?})"
                );
            }
            service.shutdown();
        }
    }
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
