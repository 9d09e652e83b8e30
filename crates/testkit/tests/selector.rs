//! Selector golden tests: the geometry-aware tree auto-selection of
//! `tileqr_sched::select` against independently computed sim minima.
//!
//! A synthetic [`DeviceProfile`] fixes the per-kernel timing curves, so
//! the "measured" best tree for a geometry is the makespan minimum over
//! the candidate zoo computed *directly* by the discrete-event engine in
//! this test — the selector must pick it (or land within 10% of it),
//! deterministically, across tall-skinny, square, and wide tile grids.
//! The selector itself runs `dag::listsim`, so the engine here is the
//! independent reference: it also bounds, per tree, how far the two
//! simulators sit apart on the one-device domain they share.

use tileqr::prelude::*;
use tileqr_dag::{list_makespan, ClassCosts, CostCurve, EliminationTree, TaskGraph, TreePolicy};
use tileqr_matrix::gen::random_matrix;
use tileqr_sched::select::{candidate_trees, select_tree};
use tileqr_sim::{engine, DeviceKind, DeviceProfile, Link, Platform, SimConfig};
use tileqr_testkit::adversary::highest_level;

fn synthetic_profile(cores: usize) -> DeviceProfile {
    let t = |c0: f64, c2: f64| CostCurve { c0, c1: 0.0, c2 };
    DeviceProfile {
        name: format!("golden-{cores}c"),
        kind: DeviceKind::Cpu,
        cores,
        times: ClassCosts {
            triangulation: t(2.0, 0.004),
            elimination: t(2.0, 0.004),
            update: t(2.0, 0.006),
        },
    }
}

/// Independent oracle: makespan of `tree` on the geometry, computed by
/// driving the sim engine directly (no selector code involved).
fn measured_makespan(
    profile: &DeviceProfile,
    mt: usize,
    nt: usize,
    b: usize,
    tree: EliminationTree,
) -> f64 {
    let g = TaskGraph::build_tree(mt, nt, tree);
    let platform = Platform::new(
        vec![profile.clone()],
        Link::pcie2_x16(),
        SimConfig {
            tile_size: b,
            elem_bytes: 8,
        },
    );
    engine::simulate(&g, &platform, &vec![0; g.len()]).makespan_us
}

/// Geometry grid from the issue: tall-skinny `p x 1..2`, square, wide.
fn geometry_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (16, 1, 16),
        (32, 1, 16),
        (12, 2, 16),
        (8, 8, 16),
        (12, 12, 8),
        (2, 8, 16),
        (4, 12, 8),
    ]
}

#[test]
fn predicted_winner_matches_measured_min_tree() {
    for cores in [1usize, 4, 16] {
        let profile = synthetic_profile(cores);
        for (mt, nt, b) in geometry_grid() {
            let sel = select_tree(&profile, mt, nt, b);
            // Agreement on the shared domain, per tree: under the engine's
            // own ready rule (all-equal priorities, ties to the lower id)
            // the list scheduler reproduces the engine (128 of these 135
            // rows bit-equal, worst 1.7 %); the selector's FIFO prediction
            // is the same question under the drivers' order (worst 9.8 %).
            for score in &sel.ranked {
                let engine_us = measured_makespan(&profile, mt, nt, b, score.tree);
                let g = TaskGraph::build_tree(mt, nt, score.tree);
                let by_id = list_makespan(
                    &g,
                    profile.slots(b),
                    Some(&highest_level(&vec![0.0; g.len()])),
                    |k| profile.times.cost_us(k, b),
                );
                let off = |us: f64| (us - engine_us).abs() / engine_us;
                assert!(
                    off(by_id) <= 0.02 && off(score.makespan_us) <= 0.10,
                    "cores={cores} {mt}x{nt}@b{b} {}: engine {engine_us}us, list by id \
                     {by_id}us, selector (fifo) {}us",
                    score.tree,
                    score.makespan_us
                );
            }
            let measured_best = candidate_trees(mt, nt)
                .into_iter()
                .map(|t| (measured_makespan(&profile, mt, nt, b, t), t))
                .min_by(|x, y| x.0.total_cmp(&y.0))
                .unwrap();
            // The selector's pick must be the measured minimum, or within
            // 10% of it (ties between trees with identical DAG shapes are
            // broken by task count + label, both fine).
            let picked = measured_makespan(&profile, mt, nt, b, sel.best.tree);
            assert!(
                picked <= measured_best.0 * 1.10,
                "cores={cores} {mt}x{nt}@b{b}: picked {} at {picked}us, \
                 measured best {} at {}us",
                sel.best.tree,
                measured_best.1,
                measured_best.0
            );
        }
    }
}

#[test]
fn prediction_is_deterministic_per_tree_and_profile() {
    let profile = synthetic_profile(4);
    for (mt, nt, b) in geometry_grid() {
        let s1 = select_tree(&profile, mt, nt, b);
        let s2 = select_tree(&profile, mt, nt, b);
        assert_eq!(s1, s2, "ranking must be reproducible at {mt}x{nt}");
        for (x, y) in s1.ranked.iter().zip(&s2.ranked) {
            assert_eq!(x.makespan_us.to_bits(), y.makespan_us.to_bits());
        }
    }
}

#[test]
fn serial_and_parallel_profiles_disagree_as_theory_predicts() {
    // One core: minimal total work wins (flat). Sixteen cores on a tall
    // panel: a log-depth tree wins. The selector must see the crossover.
    let tall = (32usize, 1usize, 16usize);
    let serial = select_tree(&synthetic_profile(1), tall.0, tall.1, tall.2);
    assert_eq!(
        serial.best.tree,
        EliminationTree::Flat,
        "{:?}",
        serial.ranked
    );
    let parallel = select_tree(&synthetic_profile(16), tall.0, tall.1, tall.2);
    assert_ne!(
        parallel.best.tree,
        EliminationTree::Flat,
        "{:?}",
        parallel.ranked
    );
    assert!(parallel.best.unit_depth_hint() < tall.0, "log-depth winner");
}

/// Helper extension so the crossover test reads cleanly.
trait DepthHint {
    fn unit_depth_hint(&self) -> usize;
}
impl DepthHint for tileqr_sched::select::TreeScore {
    fn unit_depth_hint(&self) -> usize {
        self.tree.unit_depth(self.grid.0)
    }
}

#[test]
fn auto_policy_degrades_without_a_calibration_profile() {
    // No profile anywhere: core options resolve Auto via the geometry
    // heuristic, and the factorization still passes end to end.
    let a = random_matrix::<f64>(96, 16, 0x51);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(16).tree(TreePolicy::Auto)).unwrap();
    assert_eq!(f.graph().tree(), EliminationTree::default_for(6, 1));
    assert_eq!(
        f.graph().tree(),
        EliminationTree::Plateau(EliminationTree::tsqr_domain(6))
    );
    let q = f.q().unwrap();
    let rep = tileqr_testkit::oracle::verify_qr(&a, &q, &f.r(), None).unwrap();
    assert!(rep.passes(), "{rep:?}");
}
