//! Triangle-on-top-of-triangle elimination kernel `TTQRT` and its update
//! `TTMQR`.
//!
//! The TT-flavoured elimination (paper §II-B3) reduces a pair of *already
//! triangulated* tiles: both `R1` and `R2` are upper triangular, and the
//! Householder vectors annihilating `R2` inherit its triangular profile
//! (column `k` only touches rows `0..=k` of the bottom tile). This is the
//! kernel used by tree-shaped elimination orders (Bouwmeester et al.); it
//! does the same amount of *eliminations* as TSQRT with roughly half the
//! arithmetic, and unlike TSQRT its updates to different row pairs commute,
//! which is what enables reduction trees.

use crate::factor::{Panel, Top};
use crate::geqrt::pair_update;
use crate::workspace::Workspace;
use crate::ApplySide;
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};

/// Eliminate the upper-triangular tile `r2` against the upper-triangular
/// tile `r1` (PLASMA `CORE_ttqrt`).
///
/// Both tiles are `n x n`. On exit `r1` holds the merged triangular factor
/// and the upper triangle of `r2` stores the (triangular) Householder block
/// `V2`. `Tᵀ` of `Q = I − V T Vᵀ`, `V = [I; V2]`, is written into `tfac`
/// (overwritten; lower triangular, zeros stored above the diagonal) and
/// all scratch is borrowed from `ws` — no heap allocation.
pub fn ttqrt_ws<T: Scalar>(
    r1: &mut Matrix<T>,
    r2: &mut Matrix<T>,
    tfac: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let n = r1.rows();
    if !r1.is_square() {
        return Err(MatrixError::NotSquare { dims: r1.dims() });
    }
    if r2.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "ttqrt (tile pair)",
            lhs: r1.dims(),
            rhs: r2.dims(),
        });
    }
    if tfac.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "ttqrt (T factor shape)",
            lhs: (n, n),
            rhs: tfac.dims(),
        });
    }
    Panel {
        top: Top::Triangle(r1.as_mut_slice()),
        v: r2.as_mut_slice(),
        t: tfac.as_mut_slice(),
        m: n,
        n,
    }
    .run(ws);
    Ok(())
}

/// Apply the block reflector from [`ttqrt_ws`] to a stacked pair
/// `[a1; a2]`, exploiting the triangular structure of `v2` — with
/// [`ApplySide::Transpose`] this is the TT update-for-elimination step
/// `TTMQR`. `tfac` is the factor as [`ttqrt_ws`] wrote it (`Tᵀ`: lower
/// triangular, zeros stored above the diagonal). All scratch is borrowed
/// from `ws` — no heap allocation. Below its diagonal the `v2` tile still
/// holds the `GEQRT` reflectors of that tile, so its upper triangle is
/// staged once into the workspace with the zeros written out (`n²` copies
/// against `3n²·nc` flops) and the register tiles skip them by row block.
pub fn ttmqr_apply_ws<T: Scalar>(
    v2: &Matrix<T>,
    tfac: &Matrix<T>,
    a1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    side: ApplySide,
    ws: &mut Workspace<T>,
) -> Result<()> {
    pair_update(v2, None, tfac, a1, a2, side, true, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsqrt::tsqrt_ws;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::matmul;

    /// Eliminate `r2` against `r1` with `ws`, returning the `T` factor.
    fn factor(
        r1: &mut Matrix<f64>,
        r2: &mut Matrix<f64>,
        ws: &mut Workspace<f64>,
    ) -> Result<Matrix<f64>> {
        let mut tfac = Matrix::zeros(r1.rows(), r1.rows());
        ttqrt_ws(r1, r2, &mut tfac, ws)?;
        Ok(tfac)
    }

    fn vstack(top: &Matrix<f64>, bot: &Matrix<f64>) -> Matrix<f64> {
        Matrix::from_fn(top.rows() + bot.rows(), top.cols(), |i, j| {
            if i < top.rows() {
                top[(i, j)]
            } else {
                bot[(i - top.rows(), j)]
            }
        })
    }

    fn form_q(v2: &Matrix<f64>, tfac: &Matrix<f64>, ws: &mut Workspace<f64>) -> Matrix<f64> {
        let n = tfac.rows();
        let mut q = Matrix::identity(2 * n);
        let mut top = q.submatrix(0, 0, n, 2 * n).unwrap();
        let mut bot = q.submatrix(n, 0, n, 2 * n).unwrap();
        ttmqr_apply_ws(v2, tfac, &mut top, &mut bot, ApplySide::NoTranspose, ws).unwrap();
        q.set_submatrix(0, 0, &top).unwrap();
        q.set_submatrix(n, 0, &bot).unwrap();
        q
    }

    fn random_upper(n: usize, seed: u64) -> Matrix<f64> {
        random_matrix::<f64>(n, n, seed).upper_triangular()
    }

    #[test]
    fn eliminates_triangular_pair() {
        let ws = &mut Workspace::new(8, 8);
        let n = 6;
        let r1_0 = random_upper(n, 1);
        let r2_0 = random_upper(n, 2);
        let mut r1 = r1_0.clone();
        let mut r2 = r2_0.clone();
        let t = factor(&mut r1, &mut r2, ws).unwrap();

        let q = form_q(&r2, &t, ws);
        let qt_s = matmul(&q.transpose(), &vstack(&r1_0, &r2_0)).unwrap();
        let expect = vstack(&r1.upper_triangular(), &Matrix::zeros(n, n));
        assert!(qt_s.approx_eq(&expect, 1e-12));
        assert!(r1.approx_eq(&r1.upper_triangular(), 1e-15));
    }

    #[test]
    fn v_stays_upper_triangular() {
        let ws = &mut Workspace::new(8, 8);
        let n = 5;
        let mut r1 = random_upper(n, 3);
        let mut r2 = random_upper(n, 4);
        let _ = factor(&mut r1, &mut r2, ws).unwrap();
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(r2[(i, j)], 0.0, "V2 fill-in at ({i},{j})");
            }
        }
    }

    #[test]
    fn matches_tsqrt_result_up_to_signs() {
        let ws = &mut Workspace::new(8, 8);
        // TTQRT and TSQRT on the same (triangular) input produce R factors
        // equal up to row signs; |R| must match.
        let n = 5;
        let r1_0 = random_upper(n, 5);
        let r2_0 = random_upper(n, 6);

        let mut r1a = r1_0.clone();
        let mut r2a = r2_0.clone();
        let _ = factor(&mut r1a, &mut r2a, ws).unwrap();

        let mut r1b = r1_0.clone();
        let mut r2b = r2_0.clone();
        tsqrt_ws(&mut r1b, &mut r2b, &mut Matrix::zeros(n, n), ws).unwrap();

        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (r1a[(i, j)].abs() - r1b[(i, j)].abs()).abs() < 1e-11,
                    "|R| mismatch at ({i},{j}): {} vs {}",
                    r1a[(i, j)],
                    r1b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn ttmqr_matches_explicit_qt() {
        let ws = &mut Workspace::new(8, 8);
        let n = 4;
        let mut r1 = random_upper(n, 7);
        let mut r2 = random_upper(n, 8);
        let t = factor(&mut r1, &mut r2, ws).unwrap();
        let q = form_q(&r2, &t, ws);

        let c1_0 = random_matrix::<f64>(n, 3, 9);
        let c2_0 = random_matrix::<f64>(n, 3, 10);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        ttmqr_apply_ws(&r2, &t, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();
        let expect = matmul(&q.transpose(), &vstack(&c1_0, &c2_0)).unwrap();
        assert!(vstack(&c1, &c2).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn round_trip_q_qt() {
        let ws = &mut Workspace::new(8, 8);
        let n = 4;
        let mut r1 = random_upper(n, 11);
        let mut r2 = random_upper(n, 12);
        let t = factor(&mut r1, &mut r2, ws).unwrap();
        let c1_0 = random_matrix::<f64>(n, 2, 13);
        let c2_0 = random_matrix::<f64>(n, 2, 14);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        ttmqr_apply_ws(&r2, &t, &mut c1, &mut c2, ApplySide::NoTranspose, ws).unwrap();
        ttmqr_apply_ws(&r2, &t, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();
        assert!(c1.approx_eq(&c1_0, 1e-12));
        assert!(c2.approx_eq(&c2_0, 1e-12));
    }

    #[test]
    fn shape_errors() {
        let ws = &mut Workspace::new(8, 8);
        let mut r1 = Matrix::<f64>::zeros(3, 4);
        let mut r2 = Matrix::<f64>::zeros(4, 4);
        assert!(factor(&mut r1, &mut r2, ws).is_err());
        let mut r1 = Matrix::<f64>::identity(3);
        assert!(factor(&mut r1, &mut r2, ws).is_err());

        let v2 = Matrix::<f64>::identity(4);
        let t = Matrix::<f64>::zeros(4, 4);
        let mut a1 = Matrix::<f64>::zeros(4, 2);
        let mut a2 = Matrix::<f64>::zeros(3, 2);
        assert!(ttmqr_apply_ws(&v2, &t, &mut a1, &mut a2, ApplySide::Transpose, ws).is_err());
        // A factor one column short is an error, not a panic.
        let t43 = Matrix::<f64>::zeros(4, 3);
        let mut a2 = Matrix::<f64>::zeros(4, 2);
        assert!(ttmqr_apply_ws(&v2, &t43, &mut a1, &mut a2, ApplySide::Transpose, ws).is_err());
    }

    #[test]
    fn zero_bottom_triangle_is_noop() {
        let ws = &mut Workspace::new(8, 8);
        let n = 4;
        let r1_0 = random_upper(n, 15);
        let mut r1 = r1_0.clone();
        let mut r2 = Matrix::<f64>::zeros(n, n);
        let t = factor(&mut r1, &mut r2, ws).unwrap();
        assert!(r1.approx_eq(&r1_0, 1e-15));
        for i in 0..n {
            assert_eq!(t[(i, i)], 0.0);
        }
    }
}
