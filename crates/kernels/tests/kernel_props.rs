//! Property-style tests of the individual tile kernels: every kernel must
//! preserve the invariants that make tiled QR correct, across a sweep of
//! deterministic seeded random inputs (48 cases per property, matching the
//! breadth of the previous proptest suite without the external dependency).
//! Each property reuses one never-cleared workspace and `T` tile across
//! its cases, as the runtime's workers do.

use tileqr_kernels::{
    geqrt_apply_ws, geqrt_ws, larfg, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr_matrix::ops::{frobenius_norm, matmul, nrm2};
use tileqr_matrix::{Matrix, Rng64};

const CASES: u64 = 48;

/// `n x n` matrix with entries in `[-10, 10)`, deterministic in `(seed, n)`.
fn seeded_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(n as u64));
    Matrix::from_fn(n, n, |_, _| rng.range_f64(-10.0, 10.0))
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

#[test]
fn larfg_always_annihilates() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(1000 + case);
        let alpha = rng.range_f64(-50.0, 50.0);
        let len = rng.range_i64(0, 11) as usize;
        let tail: Vec<f64> = (0..len).map(|_| rng.range_f64(-50.0, 50.0)).collect();

        let orig_norm = {
            let mut full = vec![alpha];
            full.extend_from_slice(&tail);
            nrm2(&full)
        };
        let mut v = tail.clone();
        let h = larfg(alpha, &mut v);
        // Norm preservation: |beta| == ||[alpha, tail]||.
        assert!(
            (h.beta.abs() - orig_norm).abs() <= 1e-10 * orig_norm.max(1.0),
            "case {case}"
        );
        // tau in the stable range (or 0 for the identity case).
        assert!(h.tau == 0.0 || (1.0..=2.0).contains(&h.tau), "case {case}");
    }
}

#[test]
fn geqrt_preserves_column_norms_of_r() {
    let (ws, mut t) = (&mut Workspace::new(6, 6), Matrix::zeros(6, 6));
    for case in 0..CASES {
        // QR preserves each leading-column norm: ||R[..,0]|| == ||A[..,0]||.
        let a = seeded_matrix(6, 2000 + case);
        let mut work = a.clone();
        geqrt_ws(&mut work, &mut t, ws).unwrap();
        let r0 = work[(0, 0)].abs();
        assert!(
            (r0 - nrm2(a.col(0))).abs() <= 1e-10 * nrm2(a.col(0)).max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn geqrt_apply_is_orthogonal() {
    let (ws, mut t) = (&mut Workspace::new(5, 5), Matrix::zeros(5, 5));
    for case in 0..CASES {
        // Applying Q^T then Q must be the identity, and it must preserve
        // Frobenius norm.
        let a = seeded_matrix(5, 3000 + case);
        let mut vr = a.clone();
        geqrt_ws(&mut vr, &mut t, ws).unwrap();
        let c0 = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 - 7.0);
        let mut c = c0.clone();
        geqrt_apply_ws(&vr, &t, &mut c, ApplySide::Transpose, ws).unwrap();
        assert!(
            (frobenius_norm(&c) - frobenius_norm(&c0)).abs() <= 1e-9 * frobenius_norm(&c0).max(1.0),
            "case {case}"
        );
        geqrt_apply_ws(&vr, &t, &mut c, ApplySide::NoTranspose, ws).unwrap();
        assert!(c.approx_eq(&c0, 1e-9), "case {case}");
    }
}

#[test]
fn tsqrt_preserves_stacked_norm() {
    let (ws, mut t) = (&mut Workspace::new(4, 4), Matrix::zeros(4, 4));
    for case in 0..CASES {
        let top = seeded_matrix(4, 4000 + case);
        let bot = seeded_matrix(4, 4100 + case);
        let r1_0 = top.upper_triangular();
        let mut r1 = r1_0.clone();
        let mut a2 = bot.clone();
        tsqrt_ws(&mut r1, &mut a2, &mut t, ws).unwrap();
        // Orthogonal transform: per-column norms of [R1; A2] preserved in R1.
        for j in 0..4 {
            let before = {
                let mut v: Vec<f64> = r1_0.col(j).to_vec();
                v.extend_from_slice(bot.col(j));
                nrm2(&v)
            };
            let after = nrm2(&r1.col(j)[..=j]);
            assert!(
                (before - after).abs() <= 1e-9 * before.max(1.0),
                "case {case}, col {j}: {before} vs {after}"
            );
        }
    }
}

#[test]
fn tsmqr_apply_round_trips() {
    let (ws, mut t) = (&mut Workspace::new(4, 4), Matrix::zeros(4, 4));
    for case in 0..CASES {
        let top = seeded_matrix(4, 5000 + case);
        let bot = seeded_matrix(4, 5100 + case);
        let c1 = seeded_matrix(4, 5200 + case);
        let c2 = seeded_matrix(4, 5300 + case);
        let mut r1 = top.upper_triangular();
        let mut v2 = bot.clone();
        tsqrt_ws(&mut r1, &mut v2, &mut t, ws).unwrap();
        let mut x1 = c1.clone();
        let mut x2 = c2.clone();
        tsmqr_apply_ws(&v2, &t, &mut x1, &mut x2, ApplySide::Transpose, ws).unwrap();
        // Norm of the stack preserved.
        let before = frobenius_norm(&vstack(&c1, &c2));
        let after = frobenius_norm(&vstack(&x1, &x2));
        assert!(
            (before - after).abs() <= 1e-9 * before.max(1.0),
            "case {case}"
        );
        tsmqr_apply_ws(&v2, &t, &mut x1, &mut x2, ApplySide::NoTranspose, ws).unwrap();
        assert!(x1.approx_eq(&c1, 1e-9), "case {case}");
        assert!(x2.approx_eq(&c2, 1e-9), "case {case}");
    }
}

#[test]
fn ttqrt_keeps_triangular_structure() {
    let (ws, mut t) = (&mut Workspace::new(5, 5), Matrix::zeros(5, 5));
    for case in 0..CASES {
        let top = seeded_matrix(5, 6000 + case);
        let bot = seeded_matrix(5, 6100 + case);
        let mut r1 = top.upper_triangular();
        let mut r2 = bot.upper_triangular();
        ttqrt_ws(&mut r1, &mut r2, &mut t, ws).unwrap();
        for j in 0..5 {
            for i in j + 1..5 {
                assert_eq!(r1[(i, j)], 0.0, "case {case} at ({i},{j})");
                assert_eq!(r2[(i, j)], 0.0, "case {case} at ({i},{j})");
            }
        }
    }
}

#[test]
fn ttmqr_is_orthogonal() {
    let (ws, mut t) = (&mut Workspace::new(4, 4), Matrix::zeros(4, 4));
    for case in 0..CASES {
        let top = seeded_matrix(4, 7000 + case);
        let bot = seeded_matrix(4, 7100 + case);
        let c1 = seeded_matrix(4, 7200 + case);
        let c2 = seeded_matrix(4, 7300 + case);
        let mut r1 = top.upper_triangular();
        let mut v2 = bot.upper_triangular();
        ttqrt_ws(&mut r1, &mut v2, &mut t, ws).unwrap();
        let mut x1 = c1.clone();
        let mut x2 = c2.clone();
        ttmqr_apply_ws(&v2, &t, &mut x1, &mut x2, ApplySide::Transpose, ws).unwrap();
        ttmqr_apply_ws(&v2, &t, &mut x1, &mut x2, ApplySide::NoTranspose, ws).unwrap();
        assert!(x1.approx_eq(&c1, 1e-9), "case {case}");
        assert!(x2.approx_eq(&c2, 1e-9), "case {case}");
    }
}

#[test]
fn full_tile_qr_reconstructs() {
    let (ws, mut t) = (&mut Workspace::new(6, 6), Matrix::zeros(6, 6));
    for case in 0..CASES {
        // QR of [A] via GEQRT + explicit Q: ||A - QR|| tiny.
        let a = seeded_matrix(6, 8000 + case);
        let mut vr = a.clone();
        geqrt_ws(&mut vr, &mut t, ws).unwrap();
        let mut q = Matrix::identity(6);
        geqrt_apply_ws(&vr, &t, &mut q, ApplySide::NoTranspose, ws).unwrap();
        let r = vr.upper_triangular();
        let qr = matmul(&q, &r).unwrap();
        let scale = frobenius_norm(&a).max(1.0);
        assert!(
            frobenius_norm(&qr.sub(&a).unwrap()) <= 1e-10 * scale,
            "case {case}: residual too large"
        );
    }
}
