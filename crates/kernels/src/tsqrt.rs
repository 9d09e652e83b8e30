//! Triangle-on-top-of-square elimination kernel `TSQRT` and its update
//! `TSMQR`.
//!
//! `TSQRT` (paper Eq. 7–8, the TS-flavoured elimination step) computes the
//! QR factorization of the stacked pair
//!
//! ```text
//! [ R1 ]        R1: n x n upper triangular (already triangulated tile)
//! [ A2 ]        A2: m2 x n full tile
//! ```
//!
//! exploiting the structure: reflector `k` is `[e_k; v_k]` where `v_k` is a
//! dense `m2`-vector, so the implicit `V` of the block reflector is
//! `[I; V2]` with `V2` stored in `A2`'s place. On exit `R1` holds the new
//! triangular factor and `A2` holds `V2`.
//!
//! `TSMQR` (paper Eq. 9) applies the resulting `Qᵀ` (or `Q`) to a stacked
//! pair of tiles `[A1; A2]` on the right — the "update for elimination".

use crate::factor::{Panel, Top};
use crate::geqrt::pair_update;
use crate::workspace::Workspace;
use crate::ApplySide;
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};

/// Eliminate tile `a2` against the triangular tile `r1` (PLASMA
/// `CORE_tsqrt`).
///
/// `r1` is `n x n` (upper triangular on entry and exit); `a2` is `m2 x n`
/// and on exit stores the Householder block `V2`. The `n x n` factor of
/// the block reflector `Q = I − V T Vᵀ` with `V = [I; V2]` is written into
/// `tfac` (overwritten) as `Tᵀ`: lower triangular, zeros stored above the
/// diagonal. All scratch is borrowed from `ws` — no heap allocation.
pub fn tsqrt_ws<T: Scalar>(
    r1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    tfac: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let n = r1.rows();
    if !r1.is_square() {
        return Err(MatrixError::NotSquare { dims: r1.dims() });
    }
    if a2.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "tsqrt (column count)",
            lhs: r1.dims(),
            rhs: a2.dims(),
        });
    }
    if tfac.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "tsqrt (T factor shape)",
            lhs: (n, n),
            rhs: tfac.dims(),
        });
    }
    Panel {
        top: Top::Square(r1.as_mut_slice()),
        m: a2.rows(),
        v: a2.as_mut_slice(),
        t: tfac.as_mut_slice(),
        n,
    }
    .run(ws);
    Ok(())
}

/// Apply the block reflector from [`tsqrt_ws`] to a stacked pair
/// `[a1; a2]` — with [`ApplySide::Transpose`] this is the paper's
/// update-for-elimination step `TSMQR` (Eq. 9).
///
/// `v2` is the Householder block stored where the eliminated tile was,
/// `tfac` the factor as [`tsqrt_ws`] wrote it (`Tᵀ`: lower triangular,
/// zeros stored above the diagonal). `a1` is `n x nc`, `a2` is `m2 x nc`. All
/// scratch is borrowed from `ws`. The three products — `W = A1 + V2ᵀA2`,
/// `op(T)·W`, `A2 −= V2·W` — run as level-3 register tiles straight off
/// the tile storage, `W` by dot products down `V2`'s columns (a factorization's
/// own updates form it from a stored `−V2ᵀ` instead: DESIGN §14).
pub fn tsmqr_apply_ws<T: Scalar>(
    v2: &Matrix<T>,
    tfac: &Matrix<T>,
    a1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    side: ApplySide,
    ws: &mut Workspace<T>,
) -> Result<()> {
    pair_update(v2, None, tfac, a1, a2, side, false, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geqrt::geqrt_ws;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::{matmul, orthogonality_defect};

    /// Eliminate `a2` against `r1` with `ws`, returning the `T` factor.
    fn factor(
        r1: &mut Matrix<f64>,
        a2: &mut Matrix<f64>,
        ws: &mut Workspace<f64>,
    ) -> Result<Matrix<f64>> {
        let mut tfac = Matrix::zeros(r1.rows(), r1.rows());
        tsqrt_ws(r1, a2, &mut tfac, ws)?;
        Ok(tfac)
    }

    /// Stack two equal-width matrices vertically.
    fn vstack(top: &Matrix<f64>, bot: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(top.cols(), bot.cols());
        Matrix::from_fn(top.rows() + bot.rows(), top.cols(), |i, j| {
            if i < top.rows() {
                top[(i, j)]
            } else {
                bot[(i - top.rows(), j)]
            }
        })
    }

    /// Explicitly form the (n+m2) x (n+m2) Q of a TSQRT factorization.
    fn form_q(v2: &Matrix<f64>, tfac: &Matrix<f64>, ws: &mut Workspace<f64>) -> Matrix<f64> {
        let n = tfac.rows();
        let m2 = v2.rows();
        let total = n + m2;
        let mut q = Matrix::identity(total);
        // Apply Q to each block column of the identity via tsmqr_apply.
        let mut top = q.submatrix(0, 0, n, total).unwrap();
        let mut bot = q.submatrix(n, 0, m2, total).unwrap();
        tsmqr_apply_ws(v2, tfac, &mut top, &mut bot, ApplySide::NoTranspose, ws).unwrap();
        q.set_submatrix(0, 0, &top).unwrap();
        q.set_submatrix(n, 0, &bot).unwrap();
        q
    }

    #[test]
    fn eliminates_square_block() {
        let ws = &mut Workspace::new(8, 8);
        let n = 6;
        // Build a triangulated top tile first.
        let mut top = random_matrix::<f64>(n, n, 1);
        geqrt_ws(&mut top, &mut Matrix::zeros(n, n), ws).unwrap();
        let r1_0 = top.upper_triangular();
        let a2_0 = random_matrix::<f64>(n, n, 2);

        let mut r1 = r1_0.clone();
        let mut a2 = a2_0.clone();
        let t = factor(&mut r1, &mut a2, ws).unwrap();

        // [R1_new; 0] must equal Q^T [R1_0; A2_0].
        let stacked = vstack(&r1_0, &a2_0);
        let q = form_q(&a2, &t, ws);
        assert!(orthogonality_defect(&q).unwrap() < 1e-13);
        let qt_s = matmul(&q.transpose(), &stacked).unwrap();
        let expect = vstack(&r1.upper_triangular(), &Matrix::zeros(n, n));
        assert!(qt_s.approx_eq(&expect, 1e-12));
        // R1 stays upper triangular.
        assert!(r1.approx_eq(&r1.upper_triangular(), 1e-15));
    }

    #[test]
    fn qr_reconstructs_stack() {
        let ws = &mut Workspace::new(8, 8);
        let n = 5;
        let mut top = random_matrix::<f64>(n, n, 3);
        geqrt_ws(&mut top, &mut Matrix::zeros(n, n), ws).unwrap();
        let r1_0 = top.upper_triangular();
        let a2_0 = random_matrix::<f64>(n, n, 4);

        let mut r1 = r1_0.clone();
        let mut a2 = a2_0.clone();
        let t = factor(&mut r1, &mut a2, ws).unwrap();
        let q = form_q(&a2, &t, ws);
        let r_full = vstack(&r1, &Matrix::zeros(n, n));
        let qr = matmul(&q, &r_full).unwrap();
        assert!(qr.approx_eq(&vstack(&r1_0, &a2_0), 1e-12));
    }

    #[test]
    fn tall_bottom_tile() {
        let ws = &mut Workspace::new(8, 8);
        // TSQRT also handles m2 != n bottom blocks (used by tall tiles).
        let n = 4;
        let m2 = 9;
        let mut r1 = random_matrix::<f64>(n, n, 5).upper_triangular();
        for i in 0..n {
            r1[(i, i)] += 2.0; // keep it comfortably nonsingular
        }
        let a2_0 = random_matrix::<f64>(m2, n, 6);
        let r1_0 = r1.clone();
        let mut a2 = a2_0.clone();
        let t = factor(&mut r1, &mut a2, ws).unwrap();
        let q = form_q(&a2, &t, ws);
        let qr = matmul(&q, &vstack(&r1, &Matrix::zeros(m2, n))).unwrap();
        assert!(qr.approx_eq(&vstack(&r1_0, &a2_0), 1e-12));
    }

    #[test]
    fn tsmqr_matches_explicit_qt() {
        let ws = &mut Workspace::new(8, 8);
        let n = 5;
        let mut r1 = random_matrix::<f64>(n, n, 7).upper_triangular();
        let mut a2 = random_matrix::<f64>(n, n, 8);
        let t = factor(&mut r1, &mut a2, ws).unwrap();
        let q = form_q(&a2, &t, ws);

        let c1_0 = random_matrix::<f64>(n, 3, 9);
        let c2_0 = random_matrix::<f64>(n, 3, 10);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tsmqr_apply_ws(&a2, &t, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();

        let expect = matmul(&q.transpose(), &vstack(&c1_0, &c2_0)).unwrap();
        assert!(vstack(&c1, &c2).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn apply_q_then_qt_round_trip() {
        let ws = &mut Workspace::new(8, 8);
        let n = 4;
        let mut r1 = random_matrix::<f64>(n, n, 11).upper_triangular();
        let mut a2 = random_matrix::<f64>(n, n, 12);
        let t = factor(&mut r1, &mut a2, ws).unwrap();
        let c1_0 = random_matrix::<f64>(n, 2, 13);
        let c2_0 = random_matrix::<f64>(n, 2, 14);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tsmqr_apply_ws(&a2, &t, &mut c1, &mut c2, ApplySide::NoTranspose, ws).unwrap();
        tsmqr_apply_ws(&a2, &t, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();
        assert!(c1.approx_eq(&c1_0, 1e-12));
        assert!(c2.approx_eq(&c2_0, 1e-12));
    }

    #[test]
    fn shape_errors() {
        let ws = &mut Workspace::new(8, 8);
        let mut rect = Matrix::<f64>::zeros(3, 4);
        let mut a2 = Matrix::<f64>::zeros(4, 4);
        assert!(factor(&mut rect, &mut a2, ws).is_err());
        let mut r1 = Matrix::<f64>::identity(3);
        assert!(factor(&mut r1, &mut a2, ws).is_err());

        let v2 = Matrix::<f64>::zeros(4, 4);
        let t = Matrix::<f64>::zeros(4, 4);
        let mut a1_bad = Matrix::<f64>::zeros(3, 2);
        let mut a2_ok = Matrix::<f64>::zeros(4, 2);
        assert!(
            tsmqr_apply_ws(&v2, &t, &mut a1_bad, &mut a2_ok, ApplySide::Transpose, ws).is_err()
        );
        let mut a1_ok = Matrix::<f64>::zeros(4, 2);
        let mut a2_bad = Matrix::<f64>::zeros(5, 2);
        assert!(
            tsmqr_apply_ws(&v2, &t, &mut a1_ok, &mut a2_bad, ApplySide::Transpose, ws).is_err()
        );
        // A factor one column short is an error, not a panic.
        let t43 = Matrix::<f64>::zeros(4, 3);
        assert!(
            tsmqr_apply_ws(&v2, &t43, &mut a1_ok, &mut a2_ok, ApplySide::Transpose, ws).is_err()
        );
    }

    #[test]
    fn ws_variants_bit_identical_with_dirty_reuse() {
        // A reused workspace (never zeroed between calls) must reproduce
        // the fresh-scratch results byte for byte.
        let n = 6;
        let mut ws = Workspace::new(n, n);
        for seed in 0..5 {
            let r1_0 = random_matrix::<f64>(n, n, 20 + seed).upper_triangular();
            let a2_0 = random_matrix::<f64>(n, n, 40 + seed);

            let mut r1_ref = r1_0.clone();
            let mut a2_ref = a2_0.clone();
            let fresh = &mut Workspace::new(n, n);
            let t_ref = factor(&mut r1_ref, &mut a2_ref, fresh).unwrap();

            let mut r1 = r1_0.clone();
            let mut a2 = a2_0.clone();
            let mut t = Matrix::filled(n, n, f64::NAN);
            tsqrt_ws(&mut r1, &mut a2, &mut t, &mut ws).unwrap();
            assert_eq!(r1, r1_ref);
            assert_eq!(a2, a2_ref);
            assert_eq!(t, t_ref);

            let c1_0 = random_matrix::<f64>(n, 4, 60 + seed);
            let c2_0 = random_matrix::<f64>(n, 4, 80 + seed);
            let mut c1_ref = c1_0.clone();
            let mut c2_ref = c2_0.clone();
            tsmqr_apply_ws(
                &a2,
                &t,
                &mut c1_ref,
                &mut c2_ref,
                ApplySide::Transpose,
                fresh,
            )
            .unwrap();
            let mut c1 = c1_0.clone();
            let mut c2 = c2_0.clone();
            tsmqr_apply_ws(&a2, &t, &mut c1, &mut c2, ApplySide::Transpose, &mut ws).unwrap();
            assert_eq!(c1, c1_ref);
            assert_eq!(c2, c2_ref);
        }
        assert_eq!(ws.resizes(), 0, "tile-sized workspace must not grow");
    }

    #[test]
    fn zero_bottom_tile_is_noop() {
        let ws = &mut Workspace::new(8, 8);
        let n = 4;
        let r1_0 = random_matrix::<f64>(n, n, 15).upper_triangular();
        let mut r1 = r1_0.clone();
        let mut a2 = Matrix::<f64>::zeros(n, n);
        let t = factor(&mut r1, &mut a2, ws).unwrap();
        // Nothing to eliminate: R1 unchanged, taus zero.
        assert!(r1.approx_eq(&r1_0, 1e-15));
        for i in 0..n {
            assert_eq!(t[(i, i)], 0.0);
        }
    }
}
