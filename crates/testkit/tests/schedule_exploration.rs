//! Tentpole suite: seeded + adversarial schedule exploration.
//!
//! The runtime's correctness claim is that *every* legal interleaving of
//! the task DAG commits a bit-identical factorization. These tests drive
//! well over a hundred distinct interleavings per dispatch rule (FIFO and
//! the critical-path adversary) through the virtual explorer, plus the
//! same adversaries, lent as pick hooks, through the real thread pool,
//! and hold each one to bit-identity against the sequential
//! factorization.

use std::collections::HashSet;
use std::sync::Arc;

use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::{apply_q_dense, FactorState};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::ops::matmul;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{run_pool, PoolConfig};
use tileqr_testkit::adversary::{Adversary, Rule};
use tileqr_testkit::explorer::{
    assert_bit_identical, explore, explore_tree_vs_sequential, ExploreStrategy,
};
use tileqr_testkit::workers_under_test;

const N: usize = 32;
const B: usize = 8;

fn sequential_reference(a: &tileqr_matrix::Matrix<f64>) -> (FactorState<f64>, TaskGraph) {
    let tiled = TiledMatrix::from_matrix(a, B).unwrap();
    let graph = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let mut state = FactorState::new(tiled);
    state.run_all(&graph).unwrap();
    (state, graph)
}

#[test]
fn hundred_plus_distinct_seeded_interleavings_per_policy() {
    let a = random_matrix::<f64>(N, N, 4242);
    let (reference, graph) = sequential_reference(&a);
    let tiled = TiledMatrix::from_matrix(&a, B).unwrap();

    for critical_path in [false, true] {
        let mut fingerprints = HashSet::new();
        let mut seed = 0u64;
        // Distinct interleavings, not merely distinct seeds: keep drawing
        // until 100 unique completion orders have been exercised.
        while fingerprints.len() < 100 {
            assert!(
                seed < 400,
                "schedule space collapsed (critical_path={critical_path})"
            );
            let strategy = ExploreStrategy::Seeded {
                seed,
                critical_path,
            };
            let exp = explore(tiled.clone(), &graph, 4, strategy).unwrap();
            fingerprints.insert(exp.fingerprint());
            assert_bit_identical(&exp.state, &reference);
            seed += 1;
        }
    }
}

#[test]
fn adversarial_strategies_are_bit_identical_across_worker_counts() {
    let a = random_matrix::<f64>(N, N, 99);
    for workers in workers_under_test() {
        for strategy in [
            ExploreStrategy::ReversePriority,
            ExploreStrategy::AntiAffinity,
            ExploreStrategy::LifoStarvation,
        ] {
            let (exp, reference) =
                explore_tree_vs_sequential(&a, B, EliminationTree::Flat, workers, strategy)
                    .unwrap();
            assert_bit_identical(&exp.state, &reference);
        }
    }
}

#[test]
fn exploration_covers_binary_tree_elimination_too() {
    let a = random_matrix::<f64>(48, 24, 17);
    for order in [EliminationTree::FlatTt, EliminationTree::Binary] {
        for seed in 0..25 {
            let strategy = ExploreStrategy::Seeded {
                seed,
                critical_path: true,
            };
            let (exp, reference) = explore_tree_vs_sequential(&a, B, order, 3, strategy).unwrap();
            assert_bit_identical(&exp.state, &reference);
        }
    }
}

#[test]
fn real_pool_honors_adversarial_dispatch_orders() {
    let a = random_matrix::<f64>(N, N, 1234);
    let (reference, graph) = sequential_reference(&a);
    let expect_r = reference.r_matrix();

    for workers in workers_under_test() {
        let orders = [
            Some(Rule::Lifo),
            Some(Rule::ReversePriority),
            Some(Rule::Seeded(workers as u64)),
            None,
            Some(Rule::CriticalPath),
        ];
        for order in orders {
            let adversary = order.map(|rule| Adversary::new(rule, &graph, B));
            let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
            let (state, report) = run_pool(
                FactorState::new(tiled),
                &graph,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
                adversary.map(|a| Arc::new(a) as _),
            )
            .unwrap();
            let run: u64 = report.tasks_per_worker.iter().sum();
            assert_eq!(run as usize, graph.len());
            assert_eq!(
                state.r_matrix(),
                expect_r,
                "order {order:?} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn pool_seeded_orders_sample_many_interleavings_safely() {
    // Spray seeds through the real pool: no deadlock, no divergence.
    let a = random_matrix::<f64>(N, N, 31);
    let (reference, graph) = sequential_reference(&a);
    let expect_r = reference.r_matrix();
    for seed in 0..20 {
        let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
        let adversary = Adversary::new(Rule::Seeded(seed), &graph, B);
        let (state, _) = run_pool(
            FactorState::new(tiled),
            &graph,
            PoolConfig {
                workers: 4,
                ..PoolConfig::default()
            },
            Some(Arc::new(adversary)),
        )
        .unwrap();
        assert_eq!(state.r_matrix(), expect_r, "seed {seed} diverged");
    }
}

#[test]
fn tt_order_in_parallel() {
    let a = random_matrix::<f64>(32, 8, 5);
    let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
    let g = TaskGraph::build_tree(8, 2, EliminationTree::Binary);
    let adversary = Adversary::new(Rule::CriticalPath, &g, 4);
    let (st, _) = run_pool(
        FactorState::new(tiled),
        &g,
        PoolConfig {
            workers: 4,
            ..PoolConfig::default()
        },
        Some(Arc::new(adversary)),
    )
    .unwrap();
    let (pm, _) = st.tiles().padded_dims();
    let mut q = Matrix::identity(pm);
    apply_q_dense(&st, &g, &mut q).unwrap();
    let r = st.r_matrix();
    let qr = matmul(&q, &r).unwrap();
    assert!(qr.approx_eq(&a, 1e-10));
}

#[test]
fn adversarial_orders_match_sequential_bitwise() {
    let a = random_matrix::<f64>(24, 24, 17);
    let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
    let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
    let mut seq = FactorState::new(tiled.clone());
    seq.run_all(&g).unwrap();
    let seq_tiles = seq.tiles().to_matrix();

    for order in [
        Rule::CriticalPath,
        Rule::Lifo,
        Rule::ReversePriority,
        Rule::Seeded(7),
    ] {
        for workers in [1usize, 3] {
            let adversary = Adversary::new(order, &g, 4);
            let (st, report) = run_pool(
                FactorState::new(tiled.clone()),
                &g,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
                Some(Arc::new(adversary)),
            )
            .unwrap();
            assert_eq!(
                st.tiles().to_matrix(),
                seq_tiles,
                "{order:?} workers={workers}"
            );
            assert_eq!(report.total_tasks() as usize, g.len());
        }
    }
}
