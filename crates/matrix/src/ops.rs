//! BLAS-like dense operations.
//!
//! Free functions over [`Matrix`], mirroring the small subset of BLAS /
//! LAPACK auxiliary routines that the tests, oracles and diagnostics need
//! (the factorization's own kernels live in `tileqr-kernels`). The two
//! products, [`matmul`] (`A·B`) and [`matmul_tn`] (`Aᵀ·B`), each run one
//! column-major loop whose inner loop is a contiguous slice `axpy`/`dot`
//! sweep with no per-element index arithmetic or transpose branch, which
//! the compiler autovectorizes.
//!
//! Loop invariants:
//! * the inner loop always walks *columns* of the stored operands
//!   (column-major contiguity) — the transposed read of `Aᵀ·B` is
//!   restructured as column dots, never a strided inner loop;
//! * `beta == 0` writes `C` without reading it (BLAS convention: existing
//!   `NaN`/garbage in `C` must not leak through `0 * C`);
//! * shape validation happens once, in the product's entry point; the
//!   loops use `debug_assert`-checked slices only.

use crate::{Matrix, MatrixError, Result, Scalar};

/// Prepare a `C` column for accumulation: `c *= beta`, with `beta == 0`
/// overwriting (never reading) per BLAS convention.
#[inline]
fn scale_col<T: Scalar>(beta: T, c: &mut [T]) {
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
}

/// `C = alpha * A * B + beta * C`: rank-1 column sweeps, `axpy` over
/// contiguous columns of `A` with the `B` scalar hoisted out.
fn gemm_nn<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    let ka = a.cols();
    for j in 0..c.cols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        scale_col(beta, ccol);
        for (p, &bpj) in bcol.iter().enumerate().take(ka) {
            axpy(alpha * bpj, a.col(p), ccol);
        }
    }
}

/// `C = alpha * Aᵀ * B + beta * C`: each output element is a `dot` of two
/// contiguous columns (column `i` of `A` against column `j` of `B`).
fn gemm_tn<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    for j in 0..c.cols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        if beta == T::ZERO {
            for (i, ci) in ccol.iter_mut().enumerate() {
                *ci = alpha * dot(a.col(i), bcol);
            }
        } else {
            for (i, ci) in ccol.iter_mut().enumerate() {
                *ci = alpha * dot(a.col(i), bcol) + beta * *ci;
            }
        }
    }
}

/// `op(A) * B` for `matmul` (`op(A) = A`) and `matmul_tn` (`op(A) = Aᵀ`):
/// checks that `op(A)`, `(m, k)`, and `B` agree, then runs `kernel` into a
/// zeroed `m x n` product.
fn product<T: Scalar>(
    op: &'static str,
    (m, ka): (usize, usize),
    b: &Matrix<T>,
    kernel: impl FnOnce(&mut Matrix<T>),
) -> Result<Matrix<T>> {
    if ka != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (m, ka),
            rhs: b.dims(),
        });
    }
    let mut c = Matrix::zeros(m, b.cols());
    kernel(&mut c);
    Ok(c)
}

/// Product `A * B` (fresh allocation).
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    product("matmul", a.dims(), b, |c| gemm_nn(T::ONE, a, b, T::ZERO, c))
}

/// Product `Aᵀ * B` (fresh allocation).
pub fn matmul_tn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    let dims = (a.cols(), a.rows());
    product("matmul_tn", dims, b, |c| gemm_tn(T::ONE, a, b, T::ZERO, c))
}

/// Matrix-vector product `y = A x` (fresh allocation).
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Result<Vec<T>> {
    if a.cols() != x.len() {
        return Err(MatrixError::DimensionMismatch {
            op: "matvec",
            lhs: a.dims(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![T::ZERO; a.rows()];
    for (j, &xj) in x.iter().enumerate() {
        let col = a.col(j);
        for (yi, &aij) in y.iter_mut().zip(col) {
            *yi += aij * xj;
        }
    }
    Ok(y)
}

/// Dot product of two equal-length slices.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// `y += alpha * x` over slices.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a slice, guarded against overflow by scaling.
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    let scale = x.iter().fold(T::ZERO, |acc, v| Scalar::max(acc, v.abs()));
    if scale == T::ZERO {
        return T::ZERO;
    }
    let ssq: T = x
        .iter()
        .map(|&v| {
            let s = v / scale;
            s * s
        })
        .sum();
    scale * ssq.sqrt()
}

/// Frobenius norm `sqrt(sum a_ij^2)`.
pub fn frobenius_norm<T: Scalar>(a: &Matrix<T>) -> T {
    nrm2(a.as_slice())
}

/// Solve `R x = b` for upper-triangular `R` by back substitution.
///
/// `R` must be square; errors with [`MatrixError::Singular`] on a zero
/// diagonal entry.
pub fn solve_upper_triangular<T: Scalar>(r: &Matrix<T>, b: &[T]) -> Result<Vec<T>> {
    if !r.is_square() {
        return Err(MatrixError::NotSquare { dims: r.dims() });
    }
    if r.rows() != b.len() {
        return Err(MatrixError::DimensionMismatch {
            op: "solve_upper_triangular",
            lhs: r.dims(),
            rhs: (b.len(), 1),
        });
    }
    let n = r.rows();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in i + 1..n {
            acc -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d == T::ZERO {
            return Err(MatrixError::Singular { index: i });
        }
        x[i] = acc / d;
    }
    Ok(x)
}

/// Relative factorization residual `||A - QR||_F / (||A||_F * max(m, n))`.
///
/// This is the standard LAPACK-style backward-error metric used throughout
/// the test suite; values around machine epsilon indicate a backward-stable
/// factorization.
pub fn relative_residual<T: Scalar>(a: &Matrix<T>, q: &Matrix<T>, r: &Matrix<T>) -> Result<T> {
    let qr = matmul(q, r)?;
    let diff = a.sub(&qr)?;
    let denom = frobenius_norm(a) * T::from_f64(a.rows().max(a.cols()) as f64);
    if denom == T::ZERO {
        return Ok(frobenius_norm(&diff));
    }
    Ok(frobenius_norm(&diff) / denom)
}

/// Orthogonality defect `||QᵀQ - I||_F / n`.
pub fn orthogonality_defect<T: Scalar>(q: &Matrix<T>) -> Result<T> {
    let qtq = matmul_tn(q, q)?;
    let n = qtq.rows();
    let diff = qtq.sub(&Matrix::identity(n))?;
    Ok(frobenius_norm(&diff) / T::from_f64(n.max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f64]]) -> Matrix<f64> {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn gemm_basic() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&m(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn gemm_transposes() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = m(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]); // 3x2
                                                             // A^T: 3x2, B^T: 2x3 -> C 3x3
        let c = matmul_tn(&a, &b.transpose()).unwrap();
        let expect = matmul(&a.transpose(), &b.transpose()).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::<f64>::identity(2);
        let b = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Matrix::filled(2, 2, 1.0);
        gemm_nn(2.0, &a, &b, 3.0, &mut c);
        assert!(c.approx_eq(&m(&[&[5.0, 7.0], &[9.0, 11.0]]), 1e-12));
    }

    #[test]
    fn gemm_shape_errors() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        let b2 = Matrix::<f64>::zeros(3, 3);
        assert!(matmul_tn(&a, &b2).is_err());
    }

    /// The two kernels, `A·B` and `Aᵀ·B`, by whether `A` is transposed.
    type Kernel = fn(f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>);
    const KERNELS: [(bool, Kernel); 2] = [(false, gemm_nn), (true, gemm_tn)];

    /// Naive reference used to cross-check both kernels.
    fn gemm_ref(
        alpha: f64,
        a: &Matrix<f64>,
        ta: bool,
        b: &Matrix<f64>,
        beta: f64,
        c: &mut Matrix<f64>,
    ) {
        let at = |i: usize, p: usize| if ta { a[(p, i)] } else { a[(i, p)] };
        let ka = if ta { a.rows() } else { a.cols() };
        for j in 0..c.cols() {
            for i in 0..c.rows() {
                let mut acc = 0.0;
                for p in 0..ka {
                    acc += at(i, p) * b[(p, j)];
                }
                let old = if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
                c[(i, j)] = alpha * acc + old;
            }
        }
    }

    #[test]
    fn microkernels_match_reference() {
        use crate::gen::random_matrix;
        let (m_, n_, k_) = (5, 7, 4);
        for (ta, kernel) in KERNELS {
            let a = if ta {
                random_matrix::<f64>(k_, m_, 1)
            } else {
                random_matrix::<f64>(m_, k_, 1)
            };
            let b = random_matrix::<f64>(k_, n_, 2);
            for beta in [0.0, 1.0, 2.5] {
                let seed_c = random_matrix::<f64>(m_, n_, 3);
                let mut got = seed_c.clone();
                let mut want = seed_c.clone();
                kernel(1.25, &a, &b, beta, &mut got);
                gemm_ref(1.25, &a, ta, &b, beta, &mut want);
                assert!(
                    got.approx_eq(&want, 1e-12),
                    "mismatch for ta={ta} beta={beta}"
                );
            }
        }
    }

    #[test]
    fn gemm_beta_zero_never_reads_c() {
        let a = Matrix::<f64>::identity(2);
        let b = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        for (ta, kernel) in KERNELS {
            let mut c = Matrix::filled(2, 2, f64::NAN);
            kernel(1.0, &a, &b, 0.0, &mut c);
            assert!(c.all_finite(), "beta=0 leaked NaN for ta={ta}");
        }
    }

    #[test]
    fn matvec_and_dot() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = matvec(&a, &[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(matvec(&a, &[1.0]).is_err());
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn nrm2_robust() {
        assert_eq!(nrm2::<f64>(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        // huge values must not overflow
        let big = 1e200;
        let n = nrm2(&[big, big]);
        assert!((n / big - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let a = m(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert!((frobenius_norm(&a) - (30.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn back_substitution() {
        let r = m(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let x = solve_upper_triangular(&r, &[4.0, 8.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
        let singular = m(&[&[1.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(
            solve_upper_triangular(&singular, &[1.0, 1.0]),
            Err(MatrixError::Singular { index: 1 })
        ));
        assert!(solve_upper_triangular(&r, &[1.0]).is_err());
        assert!(solve_upper_triangular(&Matrix::zeros(2, 3), &[1.0, 1.0]).is_err());
    }

    #[test]
    fn residual_metrics_identity() {
        let a = Matrix::<f64>::identity(4);
        let q = Matrix::<f64>::identity(4);
        let r = Matrix::<f64>::identity(4);
        assert!(relative_residual(&a, &q, &r).unwrap() < 1e-15);
        assert!(orthogonality_defect(&q).unwrap() < 1e-15);
    }

    #[test]
    fn residual_detects_error() {
        let a = Matrix::<f64>::identity(3);
        let q = Matrix::<f64>::identity(3);
        let r = Matrix::<f64>::identity(3).scaled(2.0);
        assert!(relative_residual(&a, &q, &r).unwrap() > 0.1);
        assert!(orthogonality_defect(&r).unwrap() > 0.1);
    }
}

/// Estimate the spectral norm `‖A‖₂` by power iteration on `AᵀA`
/// (deterministic start vector, `iters` rounds — a dozen suffice for the
/// 2–3 digits diagnostics need).
pub fn spectral_norm_est<T: Scalar>(a: &Matrix<T>, iters: usize) -> T {
    let (m, n) = a.dims();
    if m == 0 || n == 0 {
        return T::ZERO;
    }
    // Deterministic pseudo-random start to avoid pathological orthogonality.
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i * 2654435761 % 1000) as f64) / 1000.0 + 0.1))
        .collect();
    let mut sigma = T::ZERO;
    for _ in 0..iters.max(1) {
        let nv = nrm2(&v);
        if nv == T::ZERO {
            return T::ZERO;
        }
        for x in &mut v {
            *x /= nv;
        }
        let av = matvec(a, &v).expect("dims checked");
        sigma = nrm2(&av);
        // v <- A^T (A v)
        let mut next = vec![T::ZERO; n];
        for (j, nx) in next.iter_mut().enumerate() {
            *nx = dot(a.col(j), &av);
        }
        v = next;
    }
    sigma
}

/// Estimate the 2-norm condition number of an upper-triangular `R`:
/// `σ_max(R) · σ_max(R⁻¹)`, both by power iteration (the latter applies
/// `R⁻¹`/`R⁻ᵀ` through triangular solves, never forming the inverse).
/// Returns `Err(Singular)` when a zero pivot makes `R` exactly singular.
pub fn triangular_condition_est<T: Scalar>(r: &Matrix<T>, iters: usize) -> Result<T> {
    if !r.is_square() {
        return Err(MatrixError::NotSquare { dims: r.dims() });
    }
    let n = r.rows();
    if n == 0 {
        return Ok(T::ONE);
    }
    let sigma_max = spectral_norm_est(r, iters);
    // Power iteration for sigma_max(R^{-1}) via v <- R^{-T} R^{-1} v.
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i * 40503 % 997) as f64) / 997.0 + 0.1))
        .collect();
    let mut inv_sigma = T::ZERO;
    for _ in 0..iters.max(1) {
        let nv = nrm2(&v);
        if nv == T::ZERO {
            break;
        }
        for x in &mut v {
            *x /= nv;
        }
        let y = solve_upper_triangular(r, &v)?;
        inv_sigma = nrm2(&y);
        // v <- R^{-T} y: forward substitution down R's columns (its
        // diagonal is nonzero, or the solve above failed).
        v = y;
        for i in 0..n {
            v[i] = (v[i] - dot(&r.col(i)[..i], &v[..i])) / r[(i, i)];
        }
    }
    Ok(sigma_max * inv_sigma)
}

#[cfg(test)]
mod estimation_tests {
    use super::*;
    use crate::gen;

    #[test]
    fn spectral_norm_of_identity() {
        let i = Matrix::<f64>::identity(6);
        let s = spectral_norm_est(&i, 20);
        assert!((s - 1.0).abs() < 1e-10, "{s}");
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let mut d = Matrix::<f64>::zeros(4, 4);
        for (i, v) in [3.0, -7.0, 1.0, 0.5].into_iter().enumerate() {
            d[(i, i)] = v;
        }
        let s = spectral_norm_est(&d, 40);
        assert!((s - 7.0).abs() < 1e-6, "{s}");
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius() {
        let a = gen::random_matrix::<f64>(10, 10, 3);
        let s = spectral_norm_est(&a, 30);
        assert!(s <= frobenius_norm(&a) + 1e-9);
        assert!(s > 0.0);
    }

    #[test]
    fn condition_of_identity_is_one() {
        let i = Matrix::<f64>::identity(8);
        let k = triangular_condition_est(&i, 20).unwrap();
        assert!((k - 1.0).abs() < 1e-9, "{k}");
    }

    #[test]
    fn condition_of_scaled_diagonal() {
        let mut r = Matrix::<f64>::identity(5);
        r[(0, 0)] = 100.0;
        r[(4, 4)] = 0.01;
        let k = triangular_condition_est(&r, 60).unwrap();
        assert!((k - 10_000.0).abs() / 10_000.0 < 0.01, "{k}");
    }

    #[test]
    fn singular_r_reports_error() {
        let mut r = Matrix::<f64>::identity(3);
        r[(1, 1)] = 0.0;
        assert!(triangular_condition_est(&r, 5).is_err());
    }

    #[test]
    fn condition_rejects_rectangular() {
        let r = Matrix::<f64>::zeros(3, 4);
        assert!(triangular_condition_est(&r, 5).is_err());
    }
}
