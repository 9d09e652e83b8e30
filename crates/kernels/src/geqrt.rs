//! Triangulation kernel `GEQRT` and its update `UNMQR`.
//!
//! `GEQRT` computes the QR factorization of a single tile (paper Eq. 4–5):
//! on exit the tile holds `R` in its upper triangle and the Householder
//! vectors `V` (unit lower trapezoidal, unit diagonal implicit) below it,
//! and the returned `T` factor encodes the block reflector
//! `Q = I − V T Vᵀ`.
//!
//! `UNMQR` applies `Qᵀ` from such a factorization to a tile on the right of
//! the diagonal (paper Eq. 6, the "update for triangulation" step).

use crate::factor::{stage_unit_lower, stage_upper, Panel, Top};
use crate::micro::{self, Cols, ColsMut, Shape};
use crate::workspace::Workspace;
use crate::ApplySide;
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};

/// QR-factor one tile in place (PLASMA `CORE_geqrt`, with one `T` for the
/// whole tile instead of a strip of inner-block factors).
///
/// `a` is `m x n` with `m >= n`. On exit the upper triangle of `a` is `R`
/// and the strict lower part stores the Householder vectors. The `n x n`
/// block-reflector factor is written into `tfac` (overwritten) as `Tᵀ`:
/// lower triangular, zeros stored above the diagonal. All scratch is
/// borrowed from `ws` — no heap allocation.
pub fn geqrt_ws<T: Scalar>(
    a: &mut Matrix<T>,
    tfac: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let (m, n) = a.dims();
    if m < n {
        return Err(MatrixError::DimensionMismatch {
            op: "geqrt (needs m >= n)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    if tfac.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "geqrt (T factor shape)",
            lhs: (n, n),
            rhs: tfac.dims(),
        });
    }
    Panel {
        top: Top::Own,
        v: a.as_mut_slice(),
        t: tfac.as_mut_slice(),
        m,
        n,
    }
    .run(ws);
    Ok(())
}

/// Apply the block reflector from [`geqrt_ws`] to `c`.
///
/// `vr` is the factored tile (V below the diagonal), `tfac` its factor as
/// the factor kernel wrote it (`Tᵀ`: lower triangular, zeros stored above
/// the diagonal). Computes `c ← Qᵀ c` ([`ApplySide::Transpose`]) or `c ← Q c`
/// ([`ApplySide::NoTranspose`]) where `Q = I − V T Vᵀ`. All scratch is
/// borrowed from `ws` — no heap allocation when the workspace is presized.
pub fn geqrt_apply_ws<T: Scalar>(
    vr: &Matrix<T>,
    tfac: &Matrix<T>,
    c: &mut Matrix<T>,
    side: ApplySide,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let (m, n) = vr.dims();
    if m < n || tfac.dims() != (n, n) || c.rows() != m {
        return Err(MatrixError::DimensionMismatch {
            op: "geqrt_apply (needs m >= n, an n x n T factor and m rows of C)",
            lhs: (m, n),
            rhs: c.dims(),
        });
    }
    // The tile is staged once into the workspace with its unit diagonal
    // and zeros written out — an `m·n` copy against `~4·m·n·nc` flops — so
    // the register tiles sweep it as a dense operand and skip the zero
    // triangle by row block.
    let nc = c.cols();
    let (w, tw, vs) = ws.apply_scratch(n, nc, m * n);
    stage_unit_lower(vr.as_slice(), m, 0..n, &(0..m), vs);
    let c = (c.as_mut_slice(), m);
    let v = (&*vs, m);
    apply_reflector(v, Shape::Lower, None, tfac, None, c, (m, nc), side, (w, tw));
    Ok(())
}

/// The three products of every update kernel, `Q = I − V T Vᵀ` applied to
/// `[top; c]` with `V = [I; v]` when `top` is given (the TS/TT pair
/// updates: `top` is `n x nc`, contiguous) and to `c` alone with `V = v`
/// otherwise:
///
/// ```text
/// W  = [top +] vᵀ c        micro::gemm_tn, or top − vt·c: micro::gemm_nn_sub
/// W' = op(T) W             micro::gemm_nn_sub (Tᵀ) / micro::gemm_tn (T)
/// top −= W';  c −= v W'    micro::gemm_nn_sub
/// ```
///
/// `v` is `rows x n` with the zeros `shape` promises (`vt`, read with
/// `top`, is `−vᵀ`, stride `n`), `tfac` is `Tᵀ`, lower triangular **with its
/// zeros stored** (what every factor kernel writes), `w`/`tw` are `n·nc`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_reflector<T: Scalar>(
    v: Cols<T>,
    shape: Shape,
    vt: Option<(Cols<T>, Shape)>,
    tfac: &Matrix<T>,
    top: Option<&mut [T]>,
    (c, ldc): ColsMut<T>,
    (rows, nc): (usize, usize),
    side: ApplySide,
    (w, tw): (&mut [T], &mut [T]),
) {
    let n = tfac.rows();
    let (t, dims) = ((tfac.as_slice(), n), (n, nc, n));
    if let (Some((vt, vt_shape)), Some(a1)) = (vt, top.as_deref()) {
        w.copy_from_slice(a1);
        micro::gemm_nn_sub(vt, vt_shape, (c, ldc), (w, n), (n, nc, rows));
    } else {
        let add = top.as_deref().map(|a1| (a1, n));
        micro::gemm_tn(v, shape, (c, ldc), add, (w, n), (n, nc, rows));
    }
    match side {
        ApplySide::Transpose => {
            // The one subtracting primitive on a zeroed block, negated.
            tw.fill(T::ZERO);
            micro::gemm_nn_sub(t, Shape::Lower, (w, n), (tw, n), dims);
            tw.iter_mut().for_each(|x| *x = -*x);
        }
        ApplySide::NoTranspose => micro::gemm_tn(t, Shape::Lower, (w, n), None, (tw, n), dims),
    }
    if let Some(a1) = top {
        a1.iter_mut().zip(&*tw).for_each(|(a, &x)| *a -= x);
    }
    micro::gemm_nn_sub(v, shape, (tw, n), (c, ldc), (rows, nc, n));
}

/// The TS (`tt` false) and TT pair updates behind `tsmqr_apply_ws` and
/// `ttmqr_apply_ws`; a factorization's own updates pass `vt = −V2ᵀ`
/// (`n x m2`; for TT lower triangular with zeros stored) to form `W` from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_update<T: Scalar>(
    v2: &Matrix<T>,
    vt: Option<&Matrix<T>>,
    tfac: &Matrix<T>,
    a1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    side: ApplySide,
    tt: bool,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let (m2, n) = v2.dims();
    let vt_dims = vt.map_or((n, m2), Matrix::dims);
    if (tfac.dims(), vt_dims, a1.rows()) != ((n, n), (n, m2), n)
        || a2.dims() != (m2, a1.cols())
        || (tt && m2 != n)
    {
        return Err(MatrixError::DimensionMismatch {
            op: "tsmqr / ttmqr (shapes)",
            lhs: v2.dims(),
            rhs: a1.dims(),
        });
    }
    let nc = a1.cols();
    let (w, tw, vs) = ws.apply_scratch(n, nc, if tt { n * n } else { 0 });
    let (v, shape, vt_shape) = if tt {
        stage_upper(v2.as_slice(), n, 0..n, vs);
        ((&*vs, n), Shape::Upper, Shape::Lower)
    } else {
        ((v2.as_slice(), m2), Shape::Dense, Shape::Dense)
    };
    let vt = vt.map(|vt| ((vt.as_slice(), n), vt_shape));
    let (top, c) = (Some(a1.as_mut_slice()), (a2.as_mut_slice(), m2));
    apply_reflector(v, shape, vt, tfac, top, c, (m2, nc), side, (w, tw));
    Ok(())
}

/// Update-for-triangulation step (paper Eq. 6): `c ← Qᵀ c` using the
/// factorization produced by [`geqrt_ws`] on the diagonal tile, borrowing
/// scratch from `ws` — no heap allocation.
pub fn unmqr_ws<T: Scalar>(
    vr: &Matrix<T>,
    tfac: &Matrix<T>,
    c: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) -> Result<()> {
    geqrt_apply_ws(vr, tfac, c, ApplySide::Transpose, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::{frobenius_norm, matmul, orthogonality_defect};

    /// Factor `a` in place with `ws`, returning its `T` factor.
    fn factor(a: &mut Matrix<f64>, ws: &mut Workspace<f64>) -> Result<Matrix<f64>> {
        let mut tfac = Matrix::zeros(a.cols(), a.cols());
        geqrt_ws(a, &mut tfac, ws)?;
        Ok(tfac)
    }

    /// Explicitly form Q = I - V T V^T from a factored tile.
    fn form_q(vr: &Matrix<f64>, tfac: &Matrix<f64>, ws: &mut Workspace<f64>) -> Matrix<f64> {
        let m = vr.rows();
        let mut q = Matrix::identity(m);
        geqrt_apply_ws(vr, tfac, &mut q, ApplySide::NoTranspose, ws).unwrap();
        q
    }

    #[test]
    fn factorizes_square_tile() {
        let ws = &mut Workspace::new(8, 8);
        let a0 = random_matrix::<f64>(8, 8, 1);
        let mut a = a0.clone();
        let t = factor(&mut a, ws).unwrap();
        let r = a.upper_triangular();
        let q = form_q(&a, &t, ws);
        let qr = matmul(&q, &r).unwrap();
        assert!(
            qr.approx_eq(&a0, 1e-12),
            "residual {}",
            frobenius_norm(&qr.sub(&a0).unwrap())
        );
        assert!(orthogonality_defect(&q).unwrap() < 1e-13);
    }

    #[test]
    fn factorizes_tall_tile() {
        let ws = &mut Workspace::new(12, 12);
        let a0 = random_matrix::<f64>(12, 5, 2);
        let mut a = a0.clone();
        let t = factor(&mut a, ws).unwrap();
        assert_eq!(t.dims(), (5, 5));
        let q = form_q(&a, &t, ws); // 12x12
                                    // R is the 12x5 upper trapezoid.
        let mut r = Matrix::zeros(12, 5);
        for j in 0..5 {
            for i in 0..=j {
                r[(i, j)] = a[(i, j)];
            }
        }
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a0, 1e-12));
    }

    #[test]
    fn rejects_wide_tile() {
        let mut a = Matrix::<f64>::zeros(3, 5);
        assert!(factor(&mut a, &mut Workspace::new(5, 5)).is_err());
    }

    #[test]
    fn tfac_is_stored_transposed() {
        // Every factor kernel writes `Tᵀ`: lower triangular, zeros stored
        // strictly above the diagonal, and its update kernel inverts
        // itself through it. The TT tile keeps foreign data below its
        // diagonal, as a tile that went through `GEQRT` does.
        use crate::{tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws};
        for b in [1usize, 7, 16, 17, 64] {
            let ws = &mut Workspace::new(b, b);
            for kernel in ["geqrt", "tsqrt", "ttqrt"] {
                let seed = 40 * b as u64;
                let mut v = random_matrix::<f64>(b, b, seed);
                let mut r1 = random_matrix::<f64>(b, b, seed + 1).upper_triangular();
                let mut t = Matrix::filled(b, b, f64::NAN);
                match kernel {
                    "geqrt" => geqrt_ws(&mut v, &mut t, ws),
                    "tsqrt" => tsqrt_ws(&mut r1, &mut v, &mut t, ws),
                    _ => ttqrt_ws(&mut r1, &mut v, &mut t, ws),
                }
                .unwrap();
                for j in 0..b {
                    for i in 0..j {
                        assert_eq!(t[(i, j)], 0.0, "{kernel} b={b}: Tᵀ[{i},{j}]");
                    }
                }
                // (A square GEQRT's last reflector is the identity.)
                assert!(b == 1 || t[(b - 2, 0)] != 0.0, "{kernel} b={b}: T₀,ₙ₋₂");
                let (c1_0, c2_0) = (random_matrix(b, 5, seed + 2), random_matrix(b, 5, seed + 3));
                let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
                for side in [ApplySide::Transpose, ApplySide::NoTranspose] {
                    match kernel {
                        "geqrt" => geqrt_apply_ws(&v, &t, &mut c2, side, ws),
                        "tsqrt" => tsmqr_apply_ws(&v, &t, &mut c1, &mut c2, side, ws),
                        _ => ttmqr_apply_ws(&v, &t, &mut c1, &mut c2, side, ws),
                    }
                    .unwrap();
                }
                let ctx = format!("{kernel} b={b}: Q(QᵀC) != C");
                assert!(
                    c1.approx_eq(&c1_0, 1e-12) && c2.approx_eq(&c2_0, 1e-12),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn unmqr_matches_explicit_qt() {
        let ws = &mut Workspace::new(6, 6);
        let a0 = random_matrix::<f64>(6, 6, 4);
        let mut a = a0.clone();
        let t = factor(&mut a, ws).unwrap();
        let q = form_q(&a, &t, ws);

        let c0 = random_matrix::<f64>(6, 4, 5);
        let mut c = c0.clone();
        unmqr_ws(&a, &t, &mut c, ws).unwrap();
        let expect = matmul(&q.transpose(), &c0).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let ws = &mut Workspace::new(7, 7);
        let mut a = random_matrix::<f64>(7, 7, 6);
        let t = factor(&mut a, ws).unwrap();
        let c0 = random_matrix::<f64>(7, 3, 7);
        let mut c = c0.clone();
        geqrt_apply_ws(&a, &t, &mut c, ApplySide::NoTranspose, ws).unwrap();
        geqrt_apply_ws(&a, &t, &mut c, ApplySide::Transpose, ws).unwrap();
        assert!(c.approx_eq(&c0, 1e-12));
    }

    #[test]
    fn qt_a_equals_r() {
        // Applying Q^T to the original tile must reproduce R.
        let ws = &mut Workspace::new(5, 5);
        let a0 = random_matrix::<f64>(5, 5, 8);
        let mut a = a0.clone();
        let t = factor(&mut a, ws).unwrap();
        let mut c = a0.clone();
        unmqr_ws(&a, &t, &mut c, ws).unwrap();
        assert!(c.approx_eq(&a.upper_triangular(), 1e-12));
    }

    #[test]
    fn apply_shape_errors() {
        let ws = &mut Workspace::new(4, 4);
        let mut a = random_matrix::<f64>(4, 4, 9);
        let t = factor(&mut a, ws).unwrap();
        let mut bad_rows = Matrix::<f64>::zeros(5, 2);
        assert!(unmqr_ws(&a, &t, &mut bad_rows, ws).is_err());
        let bad_t = Matrix::<f64>::zeros(3, 3);
        let mut c = Matrix::<f64>::zeros(4, 2);
        assert!(unmqr_ws(&a, &bad_t, &mut c, ws).is_err());
        // A reflector tile wider than it is tall: an error, not a panic.
        let (wide, t8) = (Matrix::<f64>::zeros(4, 8), Matrix::<f64>::zeros(8, 8));
        for side in [ApplySide::Transpose, ApplySide::NoTranspose] {
            assert!(geqrt_apply_ws(&wide, &t8, &mut c, side, ws).is_err());
        }
        assert!(unmqr_ws(&wide, &t8, &mut c, ws).is_err());
    }

    #[test]
    fn identity_tile_factorizes_trivially() {
        let mut a = Matrix::<f64>::identity(4);
        let t = factor(&mut a, &mut Workspace::new(4, 4)).unwrap();
        // Identity is already triangular: V = 0, R = I (taus all zero).
        assert!(a.approx_eq(&Matrix::identity(4), 1e-15));
        for i in 0..4 {
            assert_eq!(t[(i, i)], 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let mut a1 = random_matrix::<f64>(8, 8, 10);
        let mut a2 = a1.clone();
        let t1 = factor(&mut a1, &mut Workspace::new(8, 8)).unwrap();
        let t2 = factor(&mut a2, &mut Workspace::new(8, 8)).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn ws_variant_bit_identical_and_reusable_dirty() {
        // One reused (never-zeroed) workspace across many tiles must give
        // byte-identical results to a fresh workspace per call: every
        // scratch read is preceded by a write in the same invocation.
        let mut ws = Workspace::new(8, 8);
        for seed in 0..6 {
            let a0 = random_matrix::<f64>(8, 8, 100 + seed);
            let mut a_ref = a0.clone();
            let t_ref = factor(&mut a_ref, &mut Workspace::new(8, 8)).unwrap();

            let mut a = a0.clone();
            let mut t = Matrix::filled(8, 8, f64::NAN); // poison the output
            geqrt_ws(&mut a, &mut t, &mut ws).unwrap();
            assert_eq!(a, a_ref);
            assert_eq!(t, t_ref);

            let c0 = random_matrix::<f64>(8, 5, 200 + seed);
            let mut c_ref = c0.clone();
            let fresh = &mut Workspace::new(8, 8);
            geqrt_apply_ws(&a_ref, &t_ref, &mut c_ref, ApplySide::Transpose, fresh).unwrap();
            let mut c = c0.clone();
            geqrt_apply_ws(&a, &t, &mut c, ApplySide::Transpose, &mut ws).unwrap();
            assert_eq!(c, c_ref);
        }
        assert_eq!(ws.resizes(), 0, "tile-sized workspace must not grow");
    }

    #[test]
    fn ws_variant_rejects_wrong_tfac_shape() {
        let mut a = random_matrix::<f64>(4, 4, 11);
        let mut bad = Matrix::<f64>::zeros(3, 3);
        assert!(geqrt_ws(&mut a, &mut bad, &mut Workspace::new(4, 4)).is_err());
    }
}
