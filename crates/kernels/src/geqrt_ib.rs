//! `GEQRT` with inner blocking (PLASMA-style `ib`).
//!
//! The crate's default [`geqrt_ws`](crate::geqrt_ws) uses inner block size equal
//! to the tile size — one `T` factor for the whole tile, maximal BLAS-3
//! fraction in the updates but `O(b³)` extra work building `T`. PLASMA's
//! kernels instead factor the tile in panels of `ib` columns with one
//! small `T` per panel, trading update efficiency against factor cost.
//! This module implements that variant so the trade-off the paper
//! inherits from PLASMA can be measured (see
//! `benches/elimination_trees.rs` and the DESIGN.md ablation list).

use crate::geqrt::{apply_panel, extend_tfac_col};
use crate::householder::larfg;
use crate::micro;
use crate::workspace::Workspace;
use crate::ApplySide;
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};

/// QR-factor a tile in place with inner block size `ib`.
///
/// `a` is `m x n`, `m >= n`; on exit it holds `R` above the diagonal and
/// the Householder vectors below, exactly like [`crate::geqrt_ws`]. Returns
/// one upper-triangular `T` factor per column panel (each at most
/// `ib x ib`; the last may be smaller). The per-panel `T` factors are
/// outputs and allocated; the panel-application scratch (`W` block,
/// `op(T)` buffer) is borrowed from `ws`.
pub fn geqrt_ib_ws<T: Scalar>(
    a: &mut Matrix<T>,
    ib: usize,
    ws: &mut Workspace<T>,
) -> Result<Vec<Matrix<T>>> {
    let (m, n) = a.dims();
    if m < n {
        return Err(MatrixError::DimensionMismatch {
            op: "geqrt_ib (needs m >= n)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    if ib == 0 {
        return Err(MatrixError::BadTileSize { tile: 0 });
    }
    let mut tfacs = Vec::with_capacity(n.div_ceil(ib));
    let mut s = 0;
    while s < n {
        let e = (s + ib).min(n); // panel columns [s, e)
        let pw = e - s;
        let mut tfac = Matrix::zeros(pw, pw);

        for k in s..e {
            // Reflector annihilating a[k+1.., k].
            let tau = {
                let ck = a.col_mut(k);
                let alpha = ck[k];
                let (head, tail) = ck.split_at_mut(k + 1);
                let h = larfg(alpha, tail);
                head[k] = h.beta;
                h.tau
            };

            // Apply H_k to the remaining panel columns only, as one fused
            // register-blocked sweep (dots and rank-1 fan-out share each
            // load of v_k).
            if tau != T::ZERO && k + 1 < e {
                let (head, tail) = a.as_mut_slice().split_at_mut((k + 1) * m + k);
                let vk = &head[k * m + k + 1..k * m + m];
                micro::larf_head(vk, tau, tail, m, e - k - 1);
            }

            // Extend this panel's T factor.
            let lk = k - s;
            tfac[(lk, lk)] = tau;
            if tau != T::ZERO && lk > 0 {
                let (z, acc) = ws.factor_scratch(pw);
                {
                    // z = V_panelᵀ v_k over the strictly-below-diagonal
                    // rows; the row-k heads (v_i's tail vs v_k's implicit
                    // unit) are folded in after the fused dots.
                    let vk = &a.col(k)[k + 1..];
                    micro::dotf(vk, &a.as_slice()[s * m + k + 1..], m, lk, &mut z[..lk]);
                }
                for (li, zi) in z.iter_mut().enumerate().take(lk) {
                    *zi += a[(k, s + li)];
                }
                extend_tfac_col(&mut tfac, lk, tau, z, acc);
            }
        }

        // Apply the finished panel's block reflector to the trailing
        // columns; the split keeps the panel borrowable beside them.
        if e < n {
            let (panel, trailing) = a.as_mut_slice().split_at_mut(e * m);
            let (v, c) = ((&panel[s * m + s..], m), (&mut trailing[s..], m));
            apply_panel(v, &tfac, c, (m - s, n - e), ApplySide::Transpose, ws);
        }
        tfacs.push(tfac);
        s = e;
    }
    Ok(tfacs)
}

/// Apply `Q` or `Qᵀ` from a [`geqrt_ib_ws`] factorization to a dense `c`
/// (`c.rows() == vr.rows()`), borrowing all scratch from `ws` — no heap
/// allocation when the workspace is presized.
pub fn geqrt_ib_apply_ws<T: Scalar>(
    vr: &Matrix<T>,
    tfacs: &[Matrix<T>],
    ib: usize,
    c: &mut Matrix<T>,
    side: ApplySide,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let (m, n) = vr.dims();
    if c.rows() != m {
        return Err(MatrixError::DimensionMismatch {
            op: "geqrt_ib_apply (C rows)",
            lhs: (m, n),
            rhs: c.dims(),
        });
    }
    let expected = n.div_ceil(ib.max(1));
    if ib == 0 || tfacs.len() != expected {
        return Err(MatrixError::BadTileSize { tile: ib });
    }
    let nc = c.cols();
    let np = tfacs.len();
    for idx in 0..np {
        // Qᵀ applies panels first-to-last, Q last-to-first.
        let p = match side {
            ApplySide::Transpose => idx,
            ApplySide::NoTranspose => np - 1 - idx,
        };
        let s = p * ib;
        let (v, cs) = (&vr.as_slice()[s * m + s..], &mut c.as_mut_slice()[s..]);
        apply_panel((v, m), &tfacs[p], (cs, m), (m - s, nc), side, ws);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geqrt_ws;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::{matmul, orthogonality_defect, relative_residual};

    fn form_q(
        vr: &Matrix<f64>,
        tfacs: &[Matrix<f64>],
        ib: usize,
        ws: &mut Workspace<f64>,
    ) -> Matrix<f64> {
        let mut q = Matrix::identity(vr.rows());
        geqrt_ib_apply_ws(vr, tfacs, ib, &mut q, ApplySide::NoTranspose, ws).unwrap();
        q
    }

    #[test]
    fn ib_equal_to_n_matches_plain_geqrt() {
        let ws = &mut Workspace::new(8, 8);
        let a0 = random_matrix::<f64>(8, 8, 1);
        let mut a1 = a0.clone();
        let mut t1 = Matrix::zeros(8, 8);
        geqrt_ws(&mut a1, &mut t1, ws).unwrap();
        let mut a2 = a0.clone();
        let t2 = geqrt_ib_ws(&mut a2, 8, ws).unwrap();
        assert_eq!(t2.len(), 1);
        assert!(a1.approx_eq(&a2, 1e-13));
        assert!(t1.approx_eq(&t2[0], 1e-13));
    }

    #[test]
    fn every_ib_reconstructs() {
        let ws = &mut Workspace::new(12, 12);
        let a0 = random_matrix::<f64>(12, 12, 2);
        for ib in [1usize, 2, 3, 4, 5, 6, 12] {
            let mut a = a0.clone();
            let ts = geqrt_ib_ws(&mut a, ib, ws).unwrap();
            assert_eq!(ts.len(), 12usize.div_ceil(ib));
            let q = form_q(&a, &ts, ib, ws);
            let r = a.upper_triangular();
            assert!(relative_residual(&a0, &q, &r).unwrap() < 1e-13, "ib={ib}");
            assert!(orthogonality_defect(&q).unwrap() < 1e-13, "ib={ib}");
        }
    }

    #[test]
    fn r_identical_across_inner_blockings() {
        let ws = &mut Workspace::new(10, 10);
        // R is determined by A alone (same sign convention), so every ib
        // must produce the same R bit-for-bit-ish.
        let a0 = random_matrix::<f64>(10, 10, 3);
        let mut a_full = a0.clone();
        geqrt_ws(&mut a_full, &mut Matrix::zeros(10, 10), ws).unwrap();
        for ib in [1usize, 3, 5] {
            let mut a = a0.clone();
            let _ = geqrt_ib_ws(&mut a, ib, ws).unwrap();
            assert!(
                a.upper_triangular()
                    .approx_eq(&a_full.upper_triangular(), 1e-12),
                "ib={ib}"
            );
        }
    }

    #[test]
    fn tall_tiles_supported() {
        let ws = &mut Workspace::new(16, 16);
        let a0 = random_matrix::<f64>(16, 6, 4);
        let mut a = a0.clone();
        let ts = geqrt_ib_ws(&mut a, 4, ws).unwrap();
        let q = form_q(&a, &ts, 4, ws);
        let mut r = Matrix::zeros(16, 6);
        for j in 0..6 {
            for i in 0..=j {
                r[(i, j)] = a[(i, j)];
            }
        }
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a0, 1e-12));
    }

    #[test]
    fn apply_qt_then_q_round_trips() {
        let ws = &mut Workspace::new(9, 9);
        let mut a = random_matrix::<f64>(9, 9, 5);
        let ts = geqrt_ib_ws(&mut a, 3, ws).unwrap();
        let c0 = random_matrix::<f64>(9, 4, 6);
        let mut c = c0.clone();
        geqrt_ib_apply_ws(&a, &ts, 3, &mut c, ApplySide::Transpose, ws).unwrap();
        geqrt_ib_apply_ws(&a, &ts, 3, &mut c, ApplySide::NoTranspose, ws).unwrap();
        assert!(c.approx_eq(&c0, 1e-12));
    }

    #[test]
    fn ws_variants_bit_identical_with_dirty_reuse() {
        let mut ws = Workspace::new(12, 4);
        for seed in 0..4 {
            let a0 = random_matrix::<f64>(12, 12, 300 + seed);
            let mut a_ref = a0.clone();
            let fresh = &mut Workspace::new(12, 4);
            let ts_ref = geqrt_ib_ws(&mut a_ref, 4, fresh).unwrap();

            let mut a = a0.clone();
            let ts = geqrt_ib_ws(&mut a, 4, &mut ws).unwrap();
            assert_eq!(a, a_ref);
            assert_eq!(ts, ts_ref);

            let c0 = random_matrix::<f64>(12, 6, 400 + seed);
            let mut c_ref = c0.clone();
            geqrt_ib_apply_ws(&a_ref, &ts_ref, 4, &mut c_ref, ApplySide::Transpose, fresh).unwrap();
            let mut c = c0.clone();
            geqrt_ib_apply_ws(&a, &ts, 4, &mut c, ApplySide::Transpose, &mut ws).unwrap();
            assert_eq!(c, c_ref);
        }
        assert_eq!(ws.resizes(), 0, "tile-sized workspace must not grow");
    }

    #[test]
    fn bad_arguments_rejected() {
        let ws = &mut Workspace::new(5, 5);
        let mut wide = Matrix::<f64>::zeros(3, 5);
        assert!(geqrt_ib_ws(&mut wide, 2, ws).is_err());
        let mut sq = random_matrix::<f64>(4, 4, 7);
        assert!(geqrt_ib_ws(&mut sq, 0, ws).is_err());
        let ts = geqrt_ib_ws(&mut sq, 2, ws).unwrap();
        let mut c = Matrix::<f64>::zeros(4, 2);
        assert!(geqrt_ib_apply_ws(&sq, &ts[..1], 2, &mut c, ApplySide::Transpose, ws).is_err());
        let mut bad_rows = Matrix::<f64>::zeros(5, 2);
        assert!(geqrt_ib_apply_ws(&sq, &ts, 2, &mut bad_rows, ApplySide::Transpose, ws).is_err());
    }
}
