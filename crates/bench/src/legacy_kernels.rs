//! The *seed* kernel implementations, frozen as the A/B baseline for the
//! zero-allocation hot path.
//!
//! These are byte-for-byte the allocating kernels the crate shipped before
//! the [`Workspace`](tileqr::kernels::Workspace) arena landed: every call
//! allocates its reflector scratch (`z`), its apply workspace (`W`), and a
//! per-column temporary inside the `T`-factor multiply. The production
//! kernels (`tileqr::kernels::*_ws`) borrow all of that from a reusable
//! arena instead; `cargo bench --bench kernel_hotpath` measures the two
//! side by side and counts their allocations.
//!
//! Like [`baseline`](crate::baseline), this module is deliberately not
//! kept in sync with kernel improvements — it is the fixed reference
//! point. Do not optimize it.

use tileqr::kernels::{larfg, ApplySide};
use tileqr::ops;
use tileqr::{Matrix, MatrixError, Scalar};

type Result<T> = std::result::Result<T, MatrixError>;

/// Seed `GEQRT`: QR-factor one tile in place, allocating the `T` factor
/// and an `n`-vector of scratch per call.
pub fn legacy_geqrt<T: Scalar>(a: &mut Matrix<T>) -> Result<Matrix<T>> {
    let (m, n) = a.dims();
    if m < n {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_geqrt (needs m >= n)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    let mut tfac = Matrix::zeros(n, n);
    let mut z = vec![T::ZERO; n];

    for k in 0..n {
        let tau = {
            let ck = a.col_mut(k);
            let alpha = ck[k];
            let (head, tail) = ck.split_at_mut(k + 1);
            let h = larfg(alpha, tail);
            head[k] = h.beta;
            h.tau
        };

        if tau != T::ZERO {
            for j in k + 1..n {
                let (ck, cj) = a.two_cols_mut(k, j);
                let mut w = cj[k] + ops::dot(&ck[k + 1..], &cj[k + 1..]);
                w *= tau;
                cj[k] -= w;
                ops::axpy(-w, &ck[k + 1..], &mut cj[k + 1..]);
            }
        }

        tfac[(k, k)] = tau;
        if tau != T::ZERO {
            let vk = &a.col(k)[k + 1..];
            for (i, zi) in z.iter_mut().enumerate().take(k) {
                let ci = a.col(i);
                *zi = ci[k] + ops::dot(&ci[k + 1..], vk);
            }
            for i in 0..k {
                let mut acc = T::ZERO;
                for p in i..k {
                    acc += tfac[(i, p)] * z[p];
                }
                tfac[(i, k)] = -tau * acc;
            }
        }
    }
    Ok(tfac)
}

/// Seed `UNMQR`/`GEQRT` apply: allocates the full `n x nc` workspace `W`
/// per call.
pub fn legacy_geqrt_apply<T: Scalar>(
    vr: &Matrix<T>,
    tfac: &Matrix<T>,
    c: &mut Matrix<T>,
    side: ApplySide,
) -> Result<()> {
    let (m, n) = vr.dims();
    if tfac.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_geqrt_apply (T factor)",
            lhs: (n, n),
            rhs: tfac.dims(),
        });
    }
    if c.rows() != m {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_geqrt_apply (C rows)",
            lhs: (m, n),
            rhs: c.dims(),
        });
    }
    let nc = c.cols();
    let mut w = Matrix::zeros(n, nc);

    for jc in 0..nc {
        let cc = c.col(jc);
        let wc = w.col_mut(jc);
        for (i, wi) in wc.iter_mut().enumerate() {
            *wi = cc[i] + ops::dot(&vr.col(i)[i + 1..], &cc[i + 1..]);
        }
    }

    legacy_apply_tfac_in_place(tfac, &mut w, side);

    for jc in 0..nc {
        let wc = w.col(jc);
        let cc = c.col_mut(jc);
        for (i, &wi) in wc.iter().enumerate() {
            cc[i] -= wi;
            ops::axpy(-wi, &vr.col(i)[i + 1..], &mut cc[i + 1..]);
        }
    }
    Ok(())
}

/// Seed `w ← op(T) w`: allocates an `n`-vector temporary per call.
fn legacy_apply_tfac_in_place<T: Scalar>(tfac: &Matrix<T>, w: &mut Matrix<T>, side: ApplySide) {
    let n = tfac.rows();
    let nc = w.cols();
    let mut tmp = vec![T::ZERO; n];
    for jc in 0..nc {
        {
            let wc = w.col(jc);
            match side {
                ApplySide::Transpose => {
                    for (i, t) in tmp.iter_mut().enumerate() {
                        *t = ops::dot(&tfac.col(i)[..=i], &wc[..=i]);
                    }
                }
                ApplySide::NoTranspose => {
                    tmp.fill(T::ZERO);
                    for (p, &wp) in wc.iter().enumerate() {
                        ops::axpy(wp, &tfac.col(p)[..=p], &mut tmp[..=p]);
                    }
                }
            }
        }
        w.col_mut(jc).copy_from_slice(&tmp);
    }
}

/// Seed `TSQRT`: allocates `T` factor and scratch per call.
pub fn legacy_tsqrt<T: Scalar>(r1: &mut Matrix<T>, a2: &mut Matrix<T>) -> Result<Matrix<T>> {
    let n = r1.rows();
    if !r1.is_square() {
        return Err(MatrixError::NotSquare { dims: r1.dims() });
    }
    if a2.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_tsqrt (column count)",
            lhs: r1.dims(),
            rhs: a2.dims(),
        });
    }
    let mut tfac = Matrix::zeros(n, n);
    let mut z = vec![T::ZERO; n];

    for k in 0..n {
        let alpha = r1[(k, k)];
        let tau = {
            let ck = a2.col_mut(k);
            let h = larfg(alpha, ck);
            r1[(k, k)] = h.beta;
            h.tau
        };

        if tau != T::ZERO {
            for j in k + 1..n {
                let (vk, cj) = a2.two_cols_mut(k, j);
                let mut w = r1[(k, j)] + ops::dot(vk, cj);
                w *= tau;
                r1[(k, j)] -= w;
                ops::axpy(-w, vk, cj);
            }
        }

        tfac[(k, k)] = tau;
        if tau != T::ZERO {
            let vk = a2.col(k);
            for (i, zi) in z.iter_mut().enumerate().take(k) {
                *zi = ops::dot(a2.col(i), vk);
            }
            for i in 0..k {
                let mut acc = T::ZERO;
                for p in i..k {
                    acc += tfac[(i, p)] * z[p];
                }
                tfac[(i, k)] = -tau * acc;
            }
        }
    }
    Ok(tfac)
}

/// Seed `TSMQR`: clones `A1` into a fresh workspace per call and reads
/// `V2` columns strided per element.
pub fn legacy_tsmqr_apply<T: Scalar>(
    v2: &Matrix<T>,
    tfac: &Matrix<T>,
    a1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    side: ApplySide,
) -> Result<()> {
    let n = tfac.rows();
    if v2.cols() != n || a1.rows() != n || a2.rows() != v2.rows() || a1.cols() != a2.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_tsmqr (shapes)",
            lhs: v2.dims(),
            rhs: a1.dims(),
        });
    }
    let nc = a1.cols();

    let mut w = a1.clone();
    for jc in 0..nc {
        let a2c = a2.col(jc);
        let wc = w.col_mut(jc);
        for (i, wi) in wc.iter_mut().enumerate() {
            *wi += ops::dot(v2.col(i), a2c);
        }
    }

    legacy_apply_tfac_in_place(tfac, &mut w, side);

    for jc in 0..nc {
        let wc = w.col(jc);
        ops::axpy(-T::ONE, wc, a1.col_mut(jc));
        let a2c = a2.col_mut(jc);
        for (i, &wi) in wc.iter().enumerate() {
            ops::axpy(-wi, v2.col(i), a2c);
        }
    }
    Ok(())
}

/// Seed `TTQRT`: allocates `T` factor and scratch per call.
pub fn legacy_ttqrt<T: Scalar>(r1: &mut Matrix<T>, r2: &mut Matrix<T>) -> Result<Matrix<T>> {
    let n = r1.rows();
    if !r1.is_square() {
        return Err(MatrixError::NotSquare { dims: r1.dims() });
    }
    if r2.dims() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_ttqrt (tile pair)",
            lhs: r1.dims(),
            rhs: r2.dims(),
        });
    }
    let mut tfac = Matrix::zeros(n, n);
    let mut z = vec![T::ZERO; n];

    for k in 0..n {
        let alpha = r1[(k, k)];
        let tau = {
            let ck = &mut r2.col_mut(k)[..=k];
            let h = larfg(alpha, ck);
            r1[(k, k)] = h.beta;
            h.tau
        };

        if tau != T::ZERO {
            for j in k + 1..n {
                let (vk, cj) = r2.two_cols_mut(k, j);
                let vk = &vk[..=k];
                let mut w = r1[(k, j)] + ops::dot(vk, &cj[..=k]);
                w *= tau;
                r1[(k, j)] -= w;
                ops::axpy(-w, vk, &mut cj[..=k]);
            }
        }

        tfac[(k, k)] = tau;
        if tau != T::ZERO {
            let vk = r2.col(k);
            for (i, zi) in z.iter_mut().enumerate().take(k) {
                *zi = ops::dot(&r2.col(i)[..=i], &vk[..=i]);
            }
            for i in 0..k {
                let mut acc = T::ZERO;
                for p in i..k {
                    acc += tfac[(i, p)] * z[p];
                }
                tfac[(i, k)] = -tau * acc;
            }
        }
    }
    Ok(tfac)
}

/// Seed `TTMQR`: clones `A1` into a fresh workspace per call.
pub fn legacy_ttmqr_apply<T: Scalar>(
    v2: &Matrix<T>,
    tfac: &Matrix<T>,
    a1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    side: ApplySide,
) -> Result<()> {
    let n = tfac.rows();
    if v2.dims() != (n, n) || a1.rows() != n || a2.rows() != n || a1.cols() != a2.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "legacy_ttmqr (shapes)",
            lhs: v2.dims(),
            rhs: a1.dims(),
        });
    }
    let nc = a1.cols();

    let mut w = a1.clone();
    for jc in 0..nc {
        let a2c = a2.col(jc);
        let wc = w.col_mut(jc);
        for (i, wi) in wc.iter_mut().enumerate() {
            *wi += ops::dot(&v2.col(i)[..=i], &a2c[..=i]);
        }
    }

    legacy_apply_tfac_in_place(tfac, &mut w, side);

    for jc in 0..nc {
        let wc = w.col(jc);
        ops::axpy(-T::ONE, wc, a1.col_mut(jc));
        let a2c = a2.col_mut(jc);
        for (i, &wi) in wc.iter().enumerate() {
            ops::axpy(-wi, &v2.col(i)[..=i], &mut a2c[..=i]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr::gen::random_matrix;
    use tileqr::kernels::{geqrt_ws, tsqrt_ws, ttqrt_ws, Workspace};

    /// The frozen copies must agree with the production kernels on the
    /// factorization path to tight tolerance. The comparison used to be
    /// bitwise, but the register-blocked microkernels (crate `micro`)
    /// deliberately use a different — still deterministic — accumulation
    /// order (multi-lane dots, fused multi-column sweeps), so the two
    /// implementations now differ by rounding only.
    #[test]
    fn legacy_factor_kernels_match_production_numerically() {
        const TOL: f64 = 1e-12;
        let b = 16;
        let (ws, mut t_new) = (&mut Workspace::new(b, b), Matrix::zeros(b, b));
        let mut a_new = random_matrix::<f64>(b, b, 5);
        let mut a_old = a_new.clone();
        geqrt_ws(&mut a_new, &mut t_new, ws).unwrap();
        let t_old = legacy_geqrt(&mut a_old).unwrap();
        assert!(a_new.approx_eq(&a_old, TOL));
        assert!(t_new.approx_eq(&t_old, TOL));

        let mut r1_new = random_matrix::<f64>(b, b, 6).upper_triangular();
        let mut a2_new = random_matrix::<f64>(b, b, 7);
        let mut r1_old = r1_new.clone();
        let mut a2_old = a2_new.clone();
        tsqrt_ws(&mut r1_new, &mut a2_new, &mut t_new, ws).unwrap();
        let t_old = legacy_tsqrt(&mut r1_old, &mut a2_old).unwrap();
        assert!(r1_new.approx_eq(&r1_old, TOL));
        assert!(a2_new.approx_eq(&a2_old, TOL));
        assert!(t_new.approx_eq(&t_old, TOL));

        let mut p_new = random_matrix::<f64>(b, b, 8).upper_triangular();
        let mut q_new = random_matrix::<f64>(b, b, 9).upper_triangular();
        let mut p_old = p_new.clone();
        let mut q_old = q_new.clone();
        ttqrt_ws(&mut p_new, &mut q_new, &mut t_new, ws).unwrap();
        let t_old = legacy_ttqrt(&mut p_old, &mut q_old).unwrap();
        assert!(p_new.approx_eq(&p_old, TOL));
        assert!(q_new.approx_eq(&q_old, TOL));
        assert!(t_new.approx_eq(&t_old, TOL));
    }

    /// Apply kernels may differ in accumulation order (the packed rewrite
    /// changed the W accumulation), so they are compared to tolerance.
    #[test]
    fn legacy_apply_kernels_match_production_numerically() {
        use tileqr::kernels::{geqrt_apply_ws, tsmqr_apply_ws, ttmqr_apply_ws};
        let b = 16;
        let ws = &mut Workspace::new(b, b);
        let mut vr = random_matrix::<f64>(b, b, 10);
        let t = legacy_geqrt(&mut vr).unwrap();
        let c0 = random_matrix::<f64>(b, b, 11);

        let mut c_new = c0.clone();
        let mut c_old = c0.clone();
        geqrt_apply_ws(&vr, &t, &mut c_new, ApplySide::Transpose, ws).unwrap();
        legacy_geqrt_apply(&vr, &t, &mut c_old, ApplySide::Transpose).unwrap();
        assert!(c_new.approx_eq(&c_old, 1e-12));

        let mut r1 = random_matrix::<f64>(b, b, 12).upper_triangular();
        let mut v2 = random_matrix::<f64>(b, b, 13);
        let t = legacy_tsqrt(&mut r1, &mut v2).unwrap();
        let a1_0 = random_matrix::<f64>(b, b, 14);
        let a2_0 = random_matrix::<f64>(b, b, 15);
        let (mut a1_new, mut a2_new) = (a1_0.clone(), a2_0.clone());
        let (mut a1_old, mut a2_old) = (a1_0.clone(), a2_0.clone());
        tsmqr_apply_ws(&v2, &t, &mut a1_new, &mut a2_new, ApplySide::Transpose, ws).unwrap();
        legacy_tsmqr_apply(&v2, &t, &mut a1_old, &mut a2_old, ApplySide::Transpose).unwrap();
        assert!(a1_new.approx_eq(&a1_old, 1e-12));
        assert!(a2_new.approx_eq(&a2_old, 1e-12));

        let mut p = random_matrix::<f64>(b, b, 16).upper_triangular();
        let mut q = random_matrix::<f64>(b, b, 17).upper_triangular();
        let t = legacy_ttqrt(&mut p, &mut q).unwrap();
        let (mut a1_new, mut a2_new) = (a1_0.clone(), a2_0.clone());
        let (mut a1_old, mut a2_old) = (a1_0, a2_0);
        ttmqr_apply_ws(&q, &t, &mut a1_new, &mut a2_new, ApplySide::Transpose, ws).unwrap();
        legacy_ttmqr_apply(&q, &t, &mut a1_old, &mut a2_old, ApplySide::Transpose).unwrap();
        assert!(a1_new.approx_eq(&a1_old, 1e-12));
        assert!(a2_new.approx_eq(&a2_old, 1e-12));
    }
}
