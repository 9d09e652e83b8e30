//! End-to-end correctness of the tiled QR factorization across shapes,
//! tile sizes, elimination orders and precisions, cross-checked against
//! the reference (unblocked Householder) implementation.

use tileqr::gen;
use tileqr::kernels::{reference, validate};
use tileqr::ops::{matmul, orthogonality_defect, relative_residual};
use tileqr::prelude::*;

fn check_factorization(n_rows: usize, n_cols: usize, opts: &QrOptions, seed: u64) {
    let a = gen::random_matrix::<f64>(n_rows, n_cols, seed);
    let f = TiledQr::factor(&a, opts).unwrap();
    let q = f.q().unwrap();
    let r = f.r();
    let report = validate::check_qr(&a, &q, &r).unwrap();
    let tol = validate::qr_tolerance::<f64>(n_rows, n_cols);
    assert!(
        report.passes(tol),
        "{n_rows}x{n_cols} tile={} tree={:?}: {report:?} (tol {tol:e})",
        opts.get_tile_size(),
        opts.get_tree()
    );
}

#[test]
fn square_matrices_all_orders() {
    for order in [
        EliminationTree::Flat,
        EliminationTree::FlatTt,
        EliminationTree::Binary,
    ] {
        for n in [8, 16, 24, 48] {
            check_factorization(
                n,
                n,
                &QrOptions::new().tile_size(8).tree(TreePolicy::Fixed(order)),
                1,
            );
        }
    }
}

#[test]
fn tall_matrices() {
    for (m, n) in [(32, 8), (64, 16), (40, 24), (100, 4)] {
        check_factorization(m, n, &QrOptions::new().tile_size(8), 2);
    }
}

#[test]
fn sizes_not_multiple_of_tile() {
    for n in [5, 13, 21, 37, 50] {
        check_factorization(n, n, &QrOptions::new().tile_size(8), 3);
    }
}

#[test]
fn tile_size_sweep() {
    for b in [2, 3, 4, 7, 16, 32] {
        check_factorization(33, 33, &QrOptions::new().tile_size(b), 4);
    }
}

#[test]
fn tile_larger_than_matrix() {
    check_factorization(10, 10, &QrOptions::new().tile_size(64), 5);
}

#[test]
fn one_by_one() {
    let a = Matrix::from_rows(&[&[-3.0f64]]).unwrap();
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let r = f.r();
    assert!((r[(0, 0)].abs() - 3.0).abs() < 1e-15);
    let q = f.q().unwrap();
    assert!((q[(0, 0)].abs() - 1.0).abs() < 1e-15);
}

#[test]
fn r_matches_reference_in_magnitude() {
    // R is unique up to row signs for full-rank A; compare |R| entries.
    let a = gen::random_matrix::<f64>(32, 32, 6);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    let r_tiled = f.r();
    let (_, r_ref) = reference::householder_qr(&a).unwrap();
    for j in 0..32 {
        for i in 0..=j {
            assert!(
                (r_tiled[(i, j)].abs() - r_ref[(i, j)].abs()).abs() < 1e-10,
                "({i},{j}): {} vs {}",
                r_tiled[(i, j)],
                r_ref[(i, j)]
            );
        }
    }
}

#[test]
fn ill_conditioned_hilbert_still_backward_stable() {
    // Hilbert matrices are terribly conditioned; backward stability of
    // Householder QR must still deliver a tiny residual (the *forward*
    // error may be large — that is the matrix's fault, not ours).
    let a = gen::hilbert::<f64>(24);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    let q = f.q().unwrap();
    assert!(relative_residual(&a, &q, &f.r()).unwrap() < 1e-13);
    assert!(orthogonality_defect(&q).unwrap() < 1e-13);
}

#[test]
fn rank_deficient_matrix_factors_cleanly() {
    let a = gen::low_rank::<f64>(24, 24, 3, 7);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    let q = f.q().unwrap();
    let r = f.r();
    assert!(relative_residual(&a, &q, &r).unwrap() < 1e-12);
    // Rank deficiency shows up as (near-)zero trailing diagonal entries.
    let tiny = (4..24).filter(|&i| r[(i, i)].abs() < 1e-10).count();
    assert!(tiny >= 18, "expected ~21 negligible pivots, got {tiny}");
}

#[test]
fn wide_dynamic_range_entries() {
    let a = gen::wide_dynamic_range::<f64>(24, 24, 8);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    let q = f.q().unwrap();
    assert!(q.all_finite());
    assert!(relative_residual(&a, &q, &f.r()).unwrap() < 1e-12);
}

#[test]
fn f32_precision_end_to_end() {
    let a = gen::random_matrix::<f32>(32, 32, 9);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    let q = f.q().unwrap();
    let r = f.r();
    assert!(relative_residual(&a, &q, &r).unwrap() < 1e-4);
    assert!(orthogonality_defect(&q).unwrap() < 1e-4);
}

#[test]
fn parallel_and_sequential_bitwise_equal() {
    for workers in [2, 4, 8] {
        let a = gen::random_matrix::<f64>(40, 40, 10);
        let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let par = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(workers)).unwrap();
        assert_eq!(seq.r(), par.r(), "workers={workers}");
    }
}

#[test]
fn q_times_r_equals_a_for_tt_orders_with_padding() {
    // Padding + TT trees at once — the trickiest corner.
    let a = gen::random_matrix::<f64>(27, 27, 11);
    for order in [EliminationTree::FlatTt, EliminationTree::Binary] {
        let f = TiledQr::factor(
            &a,
            &QrOptions::new().tile_size(8).tree(TreePolicy::Fixed(order)),
        )
        .unwrap();
        let qr = matmul(&f.q().unwrap(), &f.r()).unwrap();
        assert!(qr.approx_eq(&a, 1e-11), "{order:?}");
    }
}
