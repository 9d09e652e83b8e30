//! Host-measured analogue of the paper's Fig. 4: time of each tile kernel
//! (GEQRT = T, TSQRT = E, UNMQR/TSMQR = UT/UE) versus tile size, on the
//! CPU we actually have. The shapes — cubic growth, updates cheapest,
//! eliminations between — mirror the published curves.

use std::hint::black_box;
use tileqr::gen::random_matrix;
use tileqr::kernels::{flops, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, unmqr_ws, ApplySide, Workspace};
use tileqr::Matrix;
use tileqr_bench::harness;

const TILE_SIZES: [usize; 5] = [8, 16, 32, 64, 128];
const SAMPLES: usize = 20;

fn factored_tile(b: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut a = random_matrix::<f64>(b, b, seed);
    let mut t = Matrix::zeros(b, b);
    geqrt_ws(&mut a, &mut t, &mut Workspace::new(b, b)).unwrap();
    (a, t)
}

fn eliminated_pair(b: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut r1 = random_matrix::<f64>(b, b, seed).upper_triangular();
    let mut v2 = random_matrix::<f64>(b, b, seed + 1);
    let mut t = Matrix::zeros(b, b);
    tsqrt_ws(&mut r1, &mut v2, &mut t, &mut Workspace::new(b, b)).unwrap();
    (v2, t)
}

fn main() {
    harness::header("fig4_host/geqrt");
    for b in TILE_SIZES {
        let a = random_matrix::<f64>(b, b, 1);
        let (mut t, mut ws) = (Matrix::zeros(b, b), Workspace::new(b, b));
        harness::bench_with_flops(
            "fig4_host/geqrt",
            &b.to_string(),
            SAMPLES,
            flops::geqrt_flops(b),
            || {
                let mut work = a.clone();
                geqrt_ws(&mut work, &mut t, &mut ws).unwrap();
                black_box((&work, &t));
            },
        );
    }

    harness::header("fig4_host/tsqrt");
    for b in TILE_SIZES {
        let r1 = random_matrix::<f64>(b, b, 2).upper_triangular();
        let a2 = random_matrix::<f64>(b, b, 3);
        let (mut t, mut ws) = (Matrix::zeros(b, b), Workspace::new(b, b));
        harness::bench_with_flops(
            "fig4_host/tsqrt",
            &b.to_string(),
            SAMPLES,
            flops::tsqrt_flops(b),
            || {
                let mut r = r1.clone();
                let mut a = a2.clone();
                tsqrt_ws(&mut r, &mut a, &mut t, &mut ws).unwrap();
                black_box((&r, &t));
            },
        );
    }

    harness::header("fig4_host/unmqr");
    for b in TILE_SIZES {
        let (vr, t) = factored_tile(b, 4);
        let c0 = random_matrix::<f64>(b, b, 5);
        let mut ws = Workspace::new(b, b);
        harness::bench_with_flops(
            "fig4_host/unmqr",
            &b.to_string(),
            SAMPLES,
            flops::unmqr_flops(b),
            || {
                let mut c = c0.clone();
                unmqr_ws(&vr, &t, &mut c, &mut ws).unwrap();
                black_box(&c);
            },
        );
    }

    harness::header("fig4_host/tsmqr");
    for b in TILE_SIZES {
        let (v2, t) = eliminated_pair(b, 6);
        let a1 = random_matrix::<f64>(b, b, 7);
        let a2 = random_matrix::<f64>(b, b, 8);
        let mut ws = Workspace::new(b, b);
        harness::bench_with_flops(
            "fig4_host/tsmqr",
            &b.to_string(),
            SAMPLES,
            flops::tsmqr_flops(b),
            || {
                let mut x1 = a1.clone();
                let mut x2 = a2.clone();
                tsmqr_apply_ws(&v2, &t, &mut x1, &mut x2, ApplySide::Transpose, &mut ws).unwrap();
                black_box((&x1, &x2));
            },
        );
    }
}
