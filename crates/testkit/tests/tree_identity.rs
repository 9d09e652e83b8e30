//! Tree-generic bit-identity and numerical-oracle sweep.
//!
//! The runtime's bit-identity guarantee — every legal interleaving
//! commits the same factorization — must hold for *every* member of the
//! elimination-tree zoo, not just the paper's flat TS chain: the TT
//! trees introduce `TTQRT`/`TTMQR` tasks with different read/write
//! shapes. These tests drive 100+ distinct fingerprinted interleavings per
//! tree × dispatch rule (FIFO, the critical-path adversary) through the
//! virtual explorer, then hold each
//! tree's factors to the condition-scaled numerical oracles over the
//! adversarial generator family. The flat and binary trees repeat both in
//! `f32`, the paper's element type, at `f32`-scaled budgets; Greedy,
//! Fibonacci and the `Auto` policy's TSQR run `f32` through the real driver.

use std::collections::HashSet;

use tileqr::{QrOptions, TiledQr, TreePolicy};
use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::{graded, hilbert_like, near_rank_deficient, random_matrix};
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{JobSpec, QrService, ServiceConfig};
use tileqr_testkit::explorer::{assert_bit_identical, explore_tree_vs_sequential, ExploreStrategy};
use tileqr_testkit::oracle::verify_qr;
use tileqr_testkit::workers_under_test;

/// The full sweep: the zoo plus the TSQR tree `TreePolicy::Auto` picks
/// for the 6 x 2 test grid, `Plateau(3)`.
fn trees_under_test() -> Vec<EliminationTree> {
    let mut trees = EliminationTree::zoo();
    trees.push(EliminationTree::Plateau(EliminationTree::tsqr_domain(6)));
    trees
}

#[test]
fn hundred_plus_distinct_interleavings_per_tree_and_policy() {
    // 48 x 16 at b = 8: a 6 x 2 tall-skinny tile grid — the geometry the
    // TSQR tree is for, with enough trailing work that every
    // tree's schedule space is large.
    let a = random_matrix::<f64>(48, 16, 0x7EE);
    for tree in trees_under_test() {
        for critical_path in [false, true] {
            let mut fingerprints = HashSet::new();
            let mut seed = 0u64;
            while fingerprints.len() < 100 {
                assert!(
                    seed < 800,
                    "{tree} critical_path={critical_path}: schedule space collapsed \
                     ({} distinct after {seed} seeds)",
                    fingerprints.len()
                );
                let strategy = ExploreStrategy::Seeded {
                    seed,
                    critical_path,
                };
                let (exp, reference) =
                    explore_tree_vs_sequential(&a, 8, tree, 4, strategy).unwrap();
                fingerprints.insert(exp.fingerprint());
                assert_bit_identical(&exp.state, &reference);
                seed += 1;
            }
        }
    }
}

#[test]
fn adversarial_strategies_are_bit_identical_for_every_tree() {
    let a = random_matrix::<f64>(48, 16, 0x7EF);
    for tree in trees_under_test() {
        for workers in workers_under_test() {
            for strategy in [
                ExploreStrategy::ReversePriority,
                ExploreStrategy::AntiAffinity,
                ExploreStrategy::LifoStarvation,
            ] {
                let (exp, reference) =
                    explore_tree_vs_sequential(&a, 8, tree, workers, strategy).unwrap();
                assert_bit_identical(&exp.state, &reference);
            }
        }
    }
}

/// `f32` through the explorer: seeded and adversarial interleavings of the
/// flat and binary trees at b = 8 and at the paper's b = 16 (where every
/// kernel takes the vector core on a host that has one) commit the
/// sequential factorization bit for bit.
#[test]
fn f32_interleavings_are_bit_identical_on_flat_and_binary_trees() {
    for (rows, cols, b) in [(48, 16, 8), (96, 32, 16)] {
        let a = random_matrix::<f32>(rows, cols, 0xF32 + b as u64);
        for tree in [EliminationTree::Flat, EliminationTree::Binary] {
            let mut strategies = vec![
                ExploreStrategy::ReversePriority,
                ExploreStrategy::AntiAffinity,
                ExploreStrategy::LifoStarvation,
            ];
            for critical_path in [false, true] {
                strategies.extend((0..12).map(|seed| ExploreStrategy::Seeded {
                    seed,
                    critical_path,
                }));
            }
            let mut fingerprints = HashSet::new();
            for strategy in strategies {
                let (exp, reference) =
                    explore_tree_vs_sequential(&a, b, tree, 4, strategy).unwrap();
                fingerprints.insert(exp.fingerprint());
                assert_bit_identical(&exp.state, &reference);
            }
            assert!(
                fingerprints.len() >= 12,
                "{tree} b={b}: schedule space collapsed"
            );
        }
    }
}

/// The oracles at `f32`'s epsilon: graded and well-conditioned inputs whose
/// κ leaves `ε·κ` meaningful in single precision, flat and binary trees.
#[test]
fn f32_trees_pass_condition_scaled_oracles() {
    let narrow =
        |a: Matrix<f64>| Matrix::<f32>::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] as f32);
    let family = [
        ("random", narrow(random_matrix(48, 16, 0x41)), 1e2, 8),
        ("graded", narrow(graded(48, 16, 0.7, 0x42)), 1e3, 8),
        ("random-b16", narrow(random_matrix(96, 32, 0x43)), 1e2, 16),
    ];
    for tree in [EliminationTree::Flat, EliminationTree::Binary] {
        for (name, a, kappa, b) in &family {
            let opts = QrOptions::new()
                .tile_size(*b)
                .tree(TreePolicy::Fixed(tree))
                .workers(2);
            let f = TiledQr::factor(a, &opts).unwrap();
            let rep = verify_qr(a, &f.q().unwrap(), &f.r(), Some(*kappa)).unwrap();
            assert!(rep.passes(), "{tree} on {name} (f32): {rep:?}");
            assert!(rep.r_deviation.is_some(), "{name}: |R| check must run");
        }
    }
}

/// `f32` on the trees the two tests above skip — Greedy, Fibonacci, and
/// `TreePolicy::Auto`, which resolves a tall-skinny grid to TSQR — through
/// the host driver at every worker count under test: a one-shot run, a job
/// of a resident service and the sequential `run_all` are one factorization
/// bit for bit, and it passes the oracles at `f32`'s epsilon.
#[test]
fn f32_greedy_fibonacci_and_auto_agree_across_one_shot_service_and_sequential() {
    let (rows, cols, b) = (192, 32, 16);
    let a = random_matrix::<f32>(rows, cols, 0xF33);
    let auto = EliminationTree::default_for(rows / b, cols / b);
    assert_eq!(
        auto,
        EliminationTree::Plateau(EliminationTree::tsqr_domain(rows / b))
    );
    for (policy, tree) in [
        (
            TreePolicy::Fixed(EliminationTree::Greedy),
            EliminationTree::Greedy,
        ),
        (
            TreePolicy::Fixed(EliminationTree::Fibonacci),
            EliminationTree::Fibonacci,
        ),
        (TreePolicy::Auto, auto),
    ] {
        let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
        let mut sequential = FactorState::new(tiled);
        sequential.run_all(&g).unwrap();
        for workers in workers_under_test() {
            let opts = QrOptions::new().tile_size(b).tree(policy).workers(workers);
            let one_shot = TiledQr::factor(&a, &opts).unwrap();
            assert_eq!(one_shot.graph().tree(), tree, "{policy:?}");
            assert_bit_identical(one_shot.state(), &sequential);
            let service = QrService::start(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            });
            let spec = JobSpec::factor(a.clone()).tile_size(b).tree(policy);
            let job = service.submit(spec).unwrap().wait().unwrap();
            let job = job.output.into_factor();
            assert_eq!(job.graph.tree(), tree, "{policy:?} on the service");
            assert_bit_identical(&job.state, &sequential);
            service.shutdown();
            let rep = verify_qr(&a, &one_shot.q().unwrap(), &one_shot.r(), Some(1e2)).unwrap();
            assert!(rep.passes(), "{tree} workers={workers} (f32): {rep:?}");
        }
    }
}

/// Adversarial generators with externally-known condition estimates
/// (the matrices are rectangular, so R-based estimation is unavailable).
fn adversarial_family() -> Vec<(&'static str, Matrix<f64>, f64)> {
    vec![
        ("graded", graded(48, 16, 1e-2, 0x31), 1e8),
        (
            "near-rank-deficient",
            near_rank_deficient(48, 16, 8, 1e-10, 0x32),
            1e12,
        ),
        ("hilbert-like", hilbert_like(48, 16, 1.0, 0x33), 1e16),
    ]
}

#[test]
fn every_tree_passes_condition_scaled_oracles() {
    for tree in trees_under_test() {
        for (name, a, kappa) in adversarial_family() {
            let f = TiledQr::factor(
                &a,
                &QrOptions::new()
                    .tile_size(8)
                    .tree(TreePolicy::Fixed(tree))
                    .workers(2),
            )
            .unwrap();
            let rep = verify_qr(&a, &f.q().unwrap(), &f.r(), Some(kappa)).unwrap();
            assert!(rep.passes(), "{tree} on {name}: {rep:?}");
        }
    }
}

#[test]
fn every_tree_is_parallel_deterministic_through_the_public_api() {
    // Same tree, different worker counts: the R factor is bitwise stable.
    let a = random_matrix::<f64>(48, 16, 0x34);
    for tree in trees_under_test() {
        let opts = QrOptions::new().tile_size(8).tree(TreePolicy::Fixed(tree));
        let seq = TiledQr::factor(&a, &opts).unwrap().r();
        for workers in workers_under_test() {
            let par = TiledQr::factor(&a, &opts.workers(workers)).unwrap().r();
            assert_eq!(par, seq, "{tree} diverged at {workers} workers");
        }
    }
}

#[test]
fn trees_agree_with_each_other_numerically() {
    // Different trees compute *different* Householder products, so their
    // R factors agree only up to column signs — |R| must match within a
    // forward-error bound, which catches any tree building a wrong DAG.
    let a = random_matrix::<f64>(48, 16, 0x35);
    let reference = TiledQr::factor(&a, &QrOptions::new().tile_size(8))
        .unwrap()
        .r();
    let scale = tileqr_matrix::ops::frobenius_norm(&a);
    for tree in trees_under_test() {
        let r = TiledQr::factor(
            &a,
            &QrOptions::new().tile_size(8).tree(TreePolicy::Fixed(tree)),
        )
        .unwrap()
        .r();
        for i in 0..16 {
            for j in 0..16 {
                let dev = (r[(i, j)].abs() - reference[(i, j)].abs()).abs() / scale;
                assert!(dev < 1e-13, "{tree}: |R[{i}][{j}]| deviates by {dev:e}");
            }
        }
    }
}
