//! Degenerate inputs, non-finite data, and boundary conditions.

use tileqr::kernels::validate::qr_tolerance;
use tileqr::kernels::{
    geqrt_apply_ws, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr::ops;
use tileqr::prelude::*;

#[test]
fn empty_matrix_factorizes_vacuously() {
    let a = Matrix::<f64>::zeros(0, 0);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    assert_eq!(f.r().dims(), (0, 0));
    assert_eq!(f.dims(), (0, 0));
}

#[test]
fn single_column_matrix() {
    let a = Matrix::from_fn(7, 1, |i, _| (i + 1) as f64);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let r = f.r();
    // |r11| = ||a||.
    let norm = ops::nrm2(a.col(0));
    assert!((r[(0, 0)].abs() - norm).abs() < 1e-12);
    for i in 1..7 {
        assert_eq!(r[(i, 0)], 0.0);
    }
}

#[test]
fn nan_input_does_not_panic() {
    let mut a = tileqr::gen::random_matrix::<f64>(12, 12, 1);
    a[(3, 4)] = f64::NAN;
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    // Garbage in, garbage out — but no panic, and the poison is visible.
    assert!(!f.r().all_finite());
}

#[test]
fn infinite_input_does_not_panic() {
    let mut a = tileqr::gen::random_matrix::<f64>(8, 8, 2);
    a[(0, 0)] = f64::INFINITY;
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    assert!(!f.r().all_finite());
}

#[test]
fn tiny_values_do_not_underflow_to_garbage() {
    let a = tileqr::gen::random_matrix::<f64>(10, 10, 3).scaled(1e-160);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let q = f.q().unwrap();
    let r = f.r();
    assert!(q.all_finite() && r.all_finite());
    // Reconstruct at the original scale.
    let qr = ops::matmul(&q, &r).unwrap();
    let diff = qr.sub(&a).unwrap();
    assert!(ops::frobenius_norm(&diff) <= 1e-14 * ops::frobenius_norm(&a).max(1e-300));
}

#[test]
fn huge_values_do_not_overflow() {
    let a = tileqr::gen::random_matrix::<f64>(10, 10, 4).scaled(1e150);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    assert!(f.r().all_finite());
    assert!(f.q().unwrap().all_finite());
}

#[test]
fn solve_with_zero_rhs_gives_zero() {
    let a = tileqr::gen::diagonally_dominant::<f64>(9, 5);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let x = f.solve(&[0.0; 9]).unwrap();
    assert!(x.iter().all(|&v| v.abs() < 1e-300));
}

#[test]
fn apply_q_to_zero_width_matrix() {
    let a = tileqr::gen::random_matrix::<f64>(8, 8, 6);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let c = Matrix::<f64>::zeros(8, 0);
    let out = f.apply_qt(&c).unwrap();
    assert_eq!(out.dims(), (8, 0));
}

#[test]
fn repeated_factorization_of_q_stays_orthogonal() {
    // Factor Q itself: R must be (nearly) identity up to signs.
    let a = tileqr::gen::random_matrix::<f64>(16, 16, 7);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let q = f.q().unwrap();
    let f2 = TiledQr::factor(&q, &QrOptions::new().tile_size(4)).unwrap();
    let r2 = f2.r();
    for i in 0..16 {
        assert!((r2[(i, i)].abs() - 1.0).abs() < 1e-12, "diag {i}");
        for j in i + 1..16 {
            assert!(r2[(i, j)].abs() < 1e-12, "off-diag ({i},{j})");
        }
    }
}

#[test]
fn workers_zero_uses_all_cores_and_is_correct() {
    let a = tileqr::gen::random_matrix::<f64>(32, 32, 8);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(0)).unwrap();
    let q = f.q().unwrap();
    assert!(ops::relative_residual(&a, &q, &f.r()).unwrap() < 1e-13);
}

#[test]
fn mismatched_apply_rows_rejected() {
    let a = tileqr::gen::random_matrix::<f64>(8, 8, 9);
    let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    let c = Matrix::<f64>::zeros(9, 2);
    assert!(f.apply_qt(&c).is_err());
    assert!(f.apply_q(&c).is_err());
}

// ---------------------------------------------------------------------------
// Extreme scaling through the factor kernels at a tile width that recurses.
// ---------------------------------------------------------------------------

/// Tile width of the kernel-level cases: 32 splits 16 + 16 and each half
/// into 8s, so `larfg`, the level-3 applies and the `T` merges all see
/// the extreme values.
const B: usize = 32;

/// A `B x B` tile of uniform `[-1, 1)` entries, each multiplied by what
/// `scale(i, j)` returns — built in `f64` and rounded once, so subnormal
/// targets are hit exactly.
fn scaled_tile<T: Scalar>(seed: u64, scale: impl Fn(usize, usize) -> f64) -> Matrix<T> {
    let base = tileqr::gen::random_matrix::<f64>(B, B, seed);
    Matrix::from_fn(B, B, |i, j| T::from_f64(base[(i, j)] * scale(i, j)))
}

/// Run GEQRT on one tile, TSQRT on `[upper; tile]` and TTQRT on
/// `[upper; upper]` of tiles drawn with `scale`; every `V`, `T` and `R`
/// must be finite and `‖QᵀA − [R; 0]‖ ≤ tol·‖A‖`, with `Qᵀ` applied by the
/// update kernel that reads the factor.
fn check_factor_kernels<T: Scalar>(what: &str, scale: impl Fn(usize, usize) -> f64 + Copy) {
    let ws = &mut Workspace::<T>::new(B, B);
    let tol = qr_tolerance::<T>(2 * B, B);
    let residual = |got: &[&Matrix<T>], want: &[&Matrix<T>], input: &[&Matrix<T>]| {
        let stack = |parts: &[&Matrix<T>]| -> Vec<T> {
            parts.iter().flat_map(|m| m.as_slice().to_vec()).collect()
        };
        let (got, want) = (stack(got), stack(want));
        let diff: Vec<T> = got.iter().zip(&want).map(|(&g, &w)| g - w).collect();
        let scale = ops::nrm2(&stack(input));
        assert!(scale.is_finite(), "{what}: input norm {scale}");
        ops::nrm2(&diff).to_f64() / scale.to_f64().max(f64::MIN_POSITIVE)
    };

    // GEQRT.
    let a0 = scaled_tile::<T>(11, scale);
    let (mut a, mut t) = (a0.clone(), Matrix::<T>::zeros(B, B));
    geqrt_ws(&mut a, &mut t, ws).unwrap();
    assert!(a.all_finite() && t.all_finite(), "{what}: GEQRT non-finite");
    let mut qta = a0.clone();
    geqrt_apply_ws(&a, &t, &mut qta, ApplySide::Transpose, ws).unwrap();
    let res = residual(&[&qta], &[&a.upper_triangular()], &[&a0]);
    assert!(res <= tol.to_f64(), "{what}: GEQRT residual {res:e}");

    // TSQRT and TTQRT over the same upper-triangular top tile.
    let r0 = scaled_tile::<T>(12, scale).upper_triangular();
    let full = scaled_tile::<T>(13, scale);
    for tt in [false, true] {
        let name = if tt { "TTQRT" } else { "TSQRT" };
        let b0 = if tt {
            full.upper_triangular()
        } else {
            full.clone()
        };
        let (mut r1, mut v2) = (r0.clone(), b0.clone());
        if tt {
            ttqrt_ws(&mut r1, &mut v2, &mut t, ws).unwrap();
        } else {
            tsqrt_ws(&mut r1, &mut v2, &mut t, ws).unwrap();
        }
        assert!(
            r1.all_finite() && v2.all_finite() && t.all_finite(),
            "{what}: {name} non-finite"
        );
        let (mut top, mut bot) = (r0.clone(), b0.clone());
        if tt {
            ttmqr_apply_ws(&v2, &t, &mut top, &mut bot, ApplySide::Transpose, ws).unwrap();
        } else {
            tsmqr_apply_ws(&v2, &t, &mut top, &mut bot, ApplySide::Transpose, ws).unwrap();
        }
        let zero = Matrix::<T>::zeros(B, B);
        let res = residual(&[&top, &bot], &[&r1.upper_triangular(), &zero], &[&r0, &b0]);
        assert!(res <= tol.to_f64(), "{what}: {name} residual {res:e}");
    }
}

#[test]
fn factor_kernels_survive_extreme_uniform_scaling() {
    for s in [1e300, -1e300, 1e-300, -1e-300] {
        check_factor_kernels::<f64>(&format!("f64 x {s:e}"), move |_, _| s);
    }
    for s in [1e37, -1e37, 1e-37, -1e-37] {
        check_factor_kernels::<f32>(&format!("f32 x {s:e}"), move |_, _| s);
    }
}

#[test]
fn factor_kernels_survive_subnormal_and_zero_columns() {
    // Unit-scale tiles in which one column per panel half is subnormal
    // (its `alpha − beta` is subnormal: without the safmin rescale
    // `1 / (alpha − beta)` is infinite) and one is exactly zero
    // (`tau = 0` in mid-panel).
    let columns = |tiny: f64| {
        move |_: usize, j: usize| match j {
            3 | 21 => tiny,
            10 | 28 => 0.0,
            _ => 1.0,
        }
    };
    check_factor_kernels::<f64>("f64 subnormal columns", columns(1e-310));
    check_factor_kernels::<f32>("f32 subnormal columns", columns(1e-40));
}

#[test]
fn factor_kernels_survive_one_huge_entry_among_tiny_ones() {
    // The squares of both kinds of entry leave the representable range, in
    // opposite directions, inside one column.
    let spike = |huge: f64, tiny: f64| {
        move |i: usize, j: usize| if (i, j) == (j / 2, j) { huge } else { tiny }
    };
    check_factor_kernels::<f64>("f64 spike", spike(1e200, 1e-200));
    check_factor_kernels::<f32>("f32 spike", spike(1e30, 1e-30));
}
