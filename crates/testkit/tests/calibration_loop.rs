//! The calibration loop's scheduling half: what ranking the DAG by
//! measured costs would buy the dispatch order, and the decision the same
//! simulator settled. Measured costs reach a real run only as the tile
//! size and tree the tuner selects (`autotune_service.rs`); the service
//! prices every job's fair share in flops.
//!
//! Two layers of evidence:
//!
//! 1. **Simulator goldens** — on synthetic multi-core profiles the
//!    deterministic list scheduler shows critical-path-by-measured-µs
//!    makespans no worse than FIFO and no worse than
//!    critical-path-by-flops on the reference grids.
//! 2. **The decision** — over the `perf` geometries, critical path by
//!    flops (what every run would dispatch) loses to FIFO by more than
//!    1 % somewhere, so FIFO is the driver's one order (DESIGN.md §9).

use tileqr::dag::{
    bottom_levels, list_makespan, ClassCosts, CostCurve, EliminationTree, TaskGraph, TaskKind,
    TreePolicy,
};
use tileqr::kernels::flops::task_flops;
use tileqr::obs::kind_index;
use tileqr_testkit::adversary::highest_level;

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

// ---- Simulator goldens: measured beats (or ties) flops. ----

/// On the reference grids at 4 and 16 simulated cores, critical path
/// ranked by measured microseconds is never worse than FIFO and never
/// worse than critical path ranked by flops — what ranking by
/// calibration would buy a scheduler.
#[test]
fn measured_priorities_golden_on_reference_grids() {
    let b = 16;
    let costs = measured_costs();
    let dur = |k: TaskKind| costs.cost_us(k, b);
    for (mt, nt) in [(8usize, 8usize), (32, 2)] {
        let graph = TaskGraph::build_tree(mt, nt, EliminationTree::Flat);
        let flop_pri = bottom_levels(&graph, |k| task_flops(k, b) as f64);
        let cal_pri = bottom_levels(&graph, dur);
        for workers in [4usize, 16] {
            let fifo = list_makespan(&graph, workers, None, dur);
            let cp_flops = list_makespan(&graph, workers, Some(&highest_level(&flop_pri)), dur);
            let cp_measured = list_makespan(&graph, workers, Some(&highest_level(&cal_pri)), dur);
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
    let fifo = list_makespan(&graph, 4, None, dur4);
    let cal_pri = bottom_levels(&graph, dur4);
    let cp_measured = list_makespan(&graph, 4, Some(&highest_level(&cal_pri)), dur4);
    let flop_pri = bottom_levels(&graph, |k| task_flops(k, b) as f64);
    let cp_flops = list_makespan(&graph, 4, Some(&highest_level(&flop_pri)), dur4);
    assert!(
        cp_measured < cp_flops && cp_flops < fifo,
        "expected a strict win on 8x8/4w: measured {cp_measured}, flops {cp_flops}, fifo {fifo}"
    );
}

// ---- The dispatch-order decision: FIFO, because flop CP loses. ----

/// Host time per task, ns, of geqrt, unmqr, tsqrt, tsmqr, ttqrt, ttmqr
/// (`kind_index` order) at b = 16 and b = 64 — pinned from the six-kernel
/// table of the ROADMAP re-anchor after PR 25 ("Where the time is now").
const HOST_NS_B16: [f64; 6] = [1_685.0, 908.0, 2_443.0, 876.0, 1_672.0, 668.0];
const HOST_NS_B64: [f64; 6] = [20_900.0, 14_000.0, 24_200.0, 18_400.0, 20_800.0, 15_200.0];

/// Duration of one task under a kernel-time profile.
type KernelTime = Box<dyn Fn(TaskKind) -> f64>;

/// The `perf` geometries as `(label, mt, nt, b, tree)`: `square_fine`,
/// `square_coarse`, `tall_skinny` under `Auto`, the ten `service_small`
/// shapes (b = 16, the default flat tree), and four TT trees on the two
/// square grids and the TSQR grid.
fn decision_cells() -> Vec<(String, usize, usize, usize, EliminationTree)> {
    use EliminationTree::{Binary, Fibonacci, Flat, FlatTt, Greedy};
    let auto = TreePolicy::Auto.resolve(256, 2);
    let mut cells = vec![
        ("square_fine".to_string(), 32, 32, 16, Flat),
        ("square_coarse".to_string(), 16, 16, 64, Flat),
        ("tall_skinny".to_string(), 256, 2, 64, auto),
    ];
    let service = [
        (16, 16),
        (32, 16),
        (32, 32),
        (48, 48),
        (64, 64),
        (96, 64),
        (128, 128),
        (192, 64),
        (160, 160),
        (256, 128),
    ];
    for (rows, cols) in service {
        let label = format!("service {rows}x{cols}");
        cells.push((label, rows / 16, cols / 16, 16, Flat));
    }
    for tree in [FlatTt, Binary, Fibonacci, Greedy] {
        for (mt, nt, b) in [(32, 32, 16), (16, 16, 64), (256, 2, 64)] {
            cells.push((format!("{tree} {mt}x{nt} b={b}"), mt, nt, b, tree));
        }
    }
    cells
}

/// ROADMAP item 6's rule: critical path becomes the driver's order only if
/// it never loses to FIFO by more than 1 % in `listsim`. Swept over the
/// `perf` geometries × k ∈ {2, 4, 16, 64} cores, under the host's measured
/// kernel times and under the GPU-like `measured_costs()`, flop-weighted
/// CP — what every run would dispatch — loses by
/// more than that, so FIFO is the order. Should a change flip this (item
/// 2's six kernel classes, say), this fails and the question reopens.
#[test]
fn flop_critical_path_loses_to_fifo_so_fifo_is_the_order() {
    // (flop CP vs FIFO, measured CP vs FIFO, cell), as makespan ratios - 1.
    let mut rows = Vec::new();
    for (label, mt, nt, b, tree) in decision_cells() {
        let graph = TaskGraph::build_tree(mt, nt, tree);
        let host = if b == 16 { HOST_NS_B16 } else { HOST_NS_B64 };
        let gpu = measured_costs();
        let profiles: [(&str, KernelTime); 2] = [
            ("host", Box::new(move |k| host[kind_index(k)])),
            ("measured_costs", Box::new(move |k| gpu.cost_us(k, b))),
        ];
        let flop_pri = bottom_levels(&graph, |k| task_flops(k, b) as f64);
        for (profile, dur) in &profiles {
            let measured_pri = bottom_levels(&graph, dur);
            for k in [2usize, 4, 16, 64] {
                let fifo = list_makespan(&graph, k, None, dur);
                let loss = |pri: &[f64]| {
                    list_makespan(&graph, k, Some(&highest_level(pri)), dur) / fifo - 1.0
                };
                let cell = format!("{label} {profile} k={k}");
                rows.push((loss(&flop_pri), loss(&measured_pri), cell));
            }
        }
    }
    for (flop, measured, cell) in &rows {
        println!(
            "{cell}: flop CP {:+.2} %, measured CP {:+.2} %",
            flop * 1e2,
            measured * 1e2
        );
    }
    let worst_flop = rows.iter().max_by(|x, y| x.0.total_cmp(&y.0)).unwrap();
    let worst_measured = rows.iter().max_by(|x, y| x.1.total_cmp(&y.1)).unwrap();
    let best_measured = rows.iter().min_by(|x, y| x.1.total_cmp(&y.1)).unwrap();
    println!(
        "measured CP vs FIFO: worst {:+.2} % ({}), best {:+.2} % ({})",
        worst_measured.1 * 1e2,
        worst_measured.2,
        best_measured.1 * 1e2,
        best_measured.2
    );
    assert!(
        worst_flop.0 > 0.01,
        "flop-weighted CP never loses to FIFO by more than 1 % (worst {:+.2} % at {}): \
         the dispatch-order question is open again (DESIGN.md §9)",
        worst_flop.0 * 1e2,
        worst_flop.2
    );
    println!(
        "worst flop CP vs FIFO: {:+.2} % ({})",
        worst_flop.0 * 1e2,
        worst_flop.2
    );
}
