//! Edge-case geometry through the full parallel runtime.
//!
//! Non-square, single-tile and tall-skinny (p×1 tile grid) matrices
//! exercise the degenerate corners of the DAG (no TS/TT updates, no
//! eliminations, single panel) across worker counts — each run held to
//! bit-identity with the sequential path and to the numerical oracle.

use tileqr::{QrOptions, TiledQr};
use tileqr_dag::{EliminationTree, TreePolicy};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::Matrix;
use tileqr_testkit::oracle::verify_qr;
use tileqr_testkit::workers_under_test;

/// (label, rows, cols, tile size) — every degenerate grid shape:
/// single tile (1×1 grid), tall-skinny (p×1 grid), single tile row
/// (1×q grid is impossible for QR since rows ≥ cols, so 2×2 smallest
/// square), padded odd sizes, and strongly rectangular grids.
fn edge_geometries() -> Vec<(&'static str, usize, usize, usize)> {
    vec![
        ("single-tile-exact", 8, 8, 8),
        ("single-tile-padded", 5, 3, 8),
        ("tall-skinny-4x1", 32, 8, 8),
        ("tall-skinny-padded", 29, 6, 8),
        ("tall-skinny-deep", 64, 8, 8),
        ("non-square-2x1-ratio", 48, 24, 8),
        ("non-square-odd", 37, 19, 8),
        ("square-padded", 27, 27, 8),
        ("tile-bigger-than-matrix", 6, 4, 16),
    ]
}

#[test]
fn edge_geometries_are_bit_identical_across_workers_and_policies() {
    for (name, m, n, b) in edge_geometries() {
        let a = random_matrix::<f64>(m, n, m as u64 * 31 + n as u64);
        let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(b)).unwrap();
        let seq_r = seq.r();
        for workers in workers_under_test().into_iter().chain([8]) {
            let opts = QrOptions::new().tile_size(b).workers(workers);
            let f = TiledQr::factor(&a, &opts).unwrap();
            assert_eq!(f.r(), seq_r, "{name}: diverged at {workers} workers");
        }
    }
}

#[test]
fn edge_geometries_pass_the_oracle() {
    for (name, m, n, b) in edge_geometries() {
        let a = random_matrix::<f64>(m, n, 7 * m as u64 + n as u64);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(b).workers(4)).unwrap();
        let q = f.q().unwrap();
        let r = f.r();
        assert_eq!(q.dims(), (m, m), "{name}");
        assert_eq!(r.dims(), (m, n), "{name}");
        let rep = verify_qr(&a, &q, &r, None).unwrap();
        assert!(rep.passes(), "{name}: {rep:?}");
    }
}

#[test]
fn edge_geometries_survive_all_elimination_orders() {
    for (name, m, n, b) in edge_geometries() {
        let a = random_matrix::<f64>(m, n, 13 * m as u64 + n as u64);
        for order in [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ] {
            let opts = QrOptions::new().tile_size(b).tree(TreePolicy::Fixed(order));
            let seq_r = TiledQr::factor(&a, &opts).unwrap().r();
            let par = TiledQr::factor(&a, &opts.workers(4)).unwrap();
            assert_eq!(par.r(), seq_r, "{name} {order:?}");
        }
    }
}

#[test]
fn tall_skinny_solves_least_squares() {
    // The p×1 tile-grid case end to end: factor, apply Qᵀ, solve.
    let a = random_matrix::<f64>(64, 8, 3);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(4)).unwrap();
    let b: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
    let x = f.solve(&b).unwrap();
    // Normal equations residual: Aᵀ(Ax − b) ≈ 0.
    let ax = tileqr_matrix::ops::matvec(&a, &x).unwrap();
    let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
    for v in tileqr_matrix::ops::matvec(&a.transpose(), &resid).unwrap() {
        assert!(v.abs() < 1e-10, "{v}");
    }
}

#[test]
fn single_tile_is_a_plain_householder_panel() {
    // One GEQRT and nothing else — the runtime's degenerate fast path.
    let a = random_matrix::<f64>(8, 8, 5);
    for workers in [1usize, 2, 8] {
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(workers)).unwrap();
        assert_eq!(f.graph().len(), 1);
        let rep = verify_qr(&a, &f.q().unwrap(), &f.r(), None).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }
}

#[test]
fn oversubscribed_workers_handle_tiny_graphs() {
    // More workers than tasks: threads must park and exit cleanly.
    let a = random_matrix::<f64>(16, 8, 6);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(16)).unwrap();
    let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
    assert_eq!(f.r(), seq.r());
    let id = Matrix::<f64>::identity(16);
    assert_eq!(f.apply_q(&id).unwrap().dims(), (16, 16));
}
