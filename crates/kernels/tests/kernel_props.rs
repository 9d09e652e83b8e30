//! Property-style tests of the individual tile kernels: every kernel must
//! preserve the invariants that make tiled QR correct, across a sweep of
//! deterministic seeded random inputs (48 cases per property, matching the
//! breadth of the previous proptest suite without the external dependency).
//! Each property reuses one never-cleared workspace and `T` tile across
//! its cases, as the runtime's workers do.
//!
//! The last test is the sweep for the blocked factor path: the properties
//! above run at tile widths where the recursion never engages (`n <= 8`),
//! so it repeats them — and the checks only the level-3 merge can break —
//! at widths that split once, several times and raggedly, on every register
//! core this host can execute (scalar, 256-bit and, where detected, 512-bit)
//! and for both element types, `f32` at `f32`-scaled budgets.

use tileqr_kernels::micro::{force_backend, force_vector_bits, Backend};
use tileqr_kernels::{
    geqrt_apply_ws, geqrt_ws, larfg, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::ops::{frobenius_norm, matmul, nrm2, orthogonality_defect};
use tileqr_matrix::{Matrix, Rng64, Scalar};

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

// ---------------------------------------------------------------------------
// The blocked factor path: GEQRT / TSQRT / TTQRT at widths that recurse.
// ---------------------------------------------------------------------------

/// Which columns of the factored block are forced to `tau == 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Zeros {
    /// Dense random input.
    None,
    /// Nothing to annihilate anywhere: every `tau` is zero.
    All,
    /// The middle third of the columns has nothing to annihilate (and, for
    /// the stacked kernels, nothing above for earlier reflectors to fill it
    /// with), so `tau == 0` starts and stops in mid-panel.
    Middle,
}

#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// `m x n` tile.
    Geqrt { m: usize },
    /// `n x n` triangle over an `m2 x n` tile.
    Tsqrt { m2: usize },
    /// Two `n x n` triangles; the lower one keeps junk below its diagonal,
    /// as a `GEQRT`-factored tile does.
    Ttqrt,
}

/// A factor kernel's result in dense form: the stacked input, `U` (unit
/// entries written out), `Tᵀ` as stored, and the stacked output `[R; 0]`.
struct Factored {
    input: Matrix<f64>,
    u: Matrix<f64>,
    t: Matrix<f64>,
    r: Matrix<f64>,
    /// The raw output tiles, for run-to-run bit comparison.
    raw: (Matrix<f64>, Matrix<f64>),
}

/// Fill every scratch block of `ws` with NaN: a kernel that reads scratch
/// before writing it poisons its output.
fn dirty<T: Scalar>(ws: &mut Workspace<T>, m: usize, n: usize) {
    let nan = T::from_f64(f64::NAN);
    ws.factor_scratch(n).fill(nan);
    let (w, tw, v) = ws.apply_scratch(n, n, m * n);
    w.fill(nan);
    tw.fill(nan);
    v.fill(nan);
}

/// `a` rounded to the element type the kernel runs in.
fn narrow<T: Scalar>(a: &Matrix<f64>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| T::from_f64(a[(i, j)]))
}

/// `a` in `f64`, exactly: the checks run in `f64` whatever the kernel ran in.
fn wide<T: Scalar>(a: &Matrix<T>) -> Matrix<f64> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)].to_f64())
}

/// One factor kernel in element type `T` on inputs rounded to `T`; the
/// result in `f64`.
fn run_kernel<T: Scalar>(
    kernel: Kernel,
    n: usize,
    zeros: Zeros,
    seed: u64,
    ws: &mut Workspace<T>,
) -> Factored {
    let mid = n / 3..n - n / 3;
    let forced = |j: usize| zeros == Zeros::All || (zeros == Zeros::Middle && mid.contains(&j));
    let mut t = Matrix::filled(n, n, T::from_f64(f64::NAN));
    match kernel {
        Kernel::Geqrt { m } => {
            // Block upper triangular in thirds with an upper triangular
            // middle block: the first third's reflectors stop above it, so
            // its columns reach their turn with nothing below the diagonal.
            let full = random_matrix::<f64>(m, n, seed);
            let a0 = Matrix::from_fn(m, n, |i, j| {
                let cleared = (forced(j) && i > j)
                    || (zeros == Zeros::Middle && j < mid.start && i >= mid.start);
                if cleared {
                    0.0
                } else {
                    full[(i, j)]
                }
            });
            let mut a = narrow::<T>(&a0);
            let a0 = wide(&a);
            dirty(ws, m, n);
            geqrt_ws(&mut a, &mut t, ws).unwrap();
            let (a, t) = (wide(&a), wide(&t));
            let u = Matrix::from_fn(m, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Less => 0.0,
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => a[(i, j)],
            });
            let r = Matrix::from_fn(m, n, |i, j| if i <= j { a[(i, j)] } else { 0.0 });
            Factored {
                input: a0,
                u,
                t,
                r,
                raw: (a.clone(), a),
            }
        }
        Kernel::Tsqrt { .. } | Kernel::Ttqrt => {
            let tt = matches!(kernel, Kernel::Ttqrt);
            let m2 = if let Kernel::Tsqrt { m2 } = kernel {
                m2
            } else {
                n
            };
            let top = random_matrix::<f64>(n, n, seed);
            let r1_0 = Matrix::from_fn(n, n, |i, j| {
                // Nothing above a forced column for earlier reflectors to
                // spread into the lower tile.
                let guard = zeros == Zeros::Middle && mid.contains(&j) && i < mid.start;
                if i > j || guard {
                    0.0
                } else {
                    top[(i, j)]
                }
            });
            // What the kernel may read of the lower tile, and what it holds.
            let live = |i: usize, j: usize| (!tt || i <= j) && !forced(j);
            let full = random_matrix::<f64>(m2, n, seed ^ 0x55);
            let a2_0 = Matrix::from_fn(m2, n, |i, j| if live(i, j) { full[(i, j)] } else { 0.0 });
            let mut r1 = narrow::<T>(&r1_0);
            let mut a2 = narrow::<T>(&Matrix::from_fn(m2, n, |i, j| {
                if tt && i > j {
                    full[(i, j)] // older reflectors: not this kernel's to read
                } else {
                    a2_0[(i, j)]
                }
            }));
            let (r1_0, a2_0) = (wide(&r1), wide(&narrow::<T>(&a2_0)));
            let junk = wide(&a2);
            dirty(ws, m2.max(n), n);
            if tt {
                ttqrt_ws(&mut r1, &mut a2, &mut t, ws).unwrap();
            } else {
                tsqrt_ws(&mut r1, &mut a2, &mut t, ws).unwrap();
            }
            let (r1, a2, t) = (wide(&r1), wide(&a2), wide(&t));
            for j in 0..n {
                for i in j + 1..n {
                    assert_eq!(r1[(i, j)], 0.0, "{kernel:?} n={n}: r1 fill-in at ({i},{j})");
                    if tt {
                        assert_eq!(
                            a2[(i, j)],
                            junk[(i, j)],
                            "{kernel:?} n={n}: wrote below V's diagonal"
                        );
                    }
                }
            }
            let u = Matrix::from_fn(n + m2, n, |i, j| {
                if i < n {
                    f64::from(i == j)
                } else if !tt || i - n <= j {
                    a2[(i - n, j)]
                } else {
                    0.0
                }
            });
            let r = vstack(&r1, &Matrix::zeros(m2, n));
            Factored {
                input: vstack(&r1_0, &a2_0),
                u,
                t,
                r,
                raw: (r1, a2),
            }
        }
    }
}

/// `T` rebuilt one column at a time from `U` and the `tau`s on `T`'s
/// diagonal (LAPACK `larft`, forward columnwise) in plain loops.
fn larft_reference(u: &Matrix<f64>, t: &Matrix<f64>) -> Matrix<f64> {
    let n = t.rows();
    let mut want = Matrix::zeros(n, n);
    for k in 0..n {
        let tau = t[(k, k)];
        want[(k, k)] = tau;
        let z: Vec<f64> = (0..k)
            .map(|i| (0..u.rows()).map(|r| u[(r, i)] * u[(r, k)]).sum())
            .collect();
        for i in 0..k {
            let dot: f64 = (i..k).map(|l| want[(i, l)] * z[l]).sum();
            want[(i, k)] = -tau * dot;
        }
    }
    want
}

/// `eps` is the kernel's element-type epsilon over `f64`'s: 1 for `f64`.
fn check_factored(what: &str, f: &Factored, eps: f64) {
    let n = f.t.rows();
    let rows = f.u.rows();
    assert!(
        f.t.all_finite() && f.u.all_finite() && f.r.all_finite(),
        "{what}: non-finite output"
    );
    // The kernels store `Tᵀ`.
    let t = f.t.transpose();
    for j in 0..n {
        for i in j + 1..n {
            // `Shape::Lower` is a promise about stored values.
            assert!(
                t[(i, j)] == 0.0,
                "{what}: T[{i},{j}] = {} below the diagonal",
                t[(i, j)]
            );
        }
    }
    let want = larft_reference(&f.u, &t);
    let err = frobenius_norm(&t.sub(&want).unwrap());
    assert!(
        err <= 1e-13 * eps * n as f64,
        "{what}: T off its larft reference by {err:e}"
    );

    // Q = I − U T Uᵀ, dense.
    let ut = matmul(&f.u, &t).unwrap();
    let q = Matrix::identity(rows)
        .sub(&matmul(&ut, &f.u.transpose()).unwrap())
        .unwrap();
    let defect = orthogonality_defect(&q).unwrap();
    assert!(
        defect <= 1e-14 * eps * rows as f64,
        "{what}: orthogonality defect {defect:e}"
    );
    let qta = matmul(&q.transpose(), &f.input).unwrap();
    let scale = frobenius_norm(&f.input).max(1.0);
    let resid = frobenius_norm(&qta.sub(&f.r).unwrap());
    assert!(
        resid <= 1e-14 * eps * rows as f64 * scale,
        "{what}: ‖QᵀA − R‖ = {resid:e}"
    );
}

/// `apply_q ∘ apply_qt = I` through the update kernel that reads this
/// factor, and `Qᵀ` of the input is `[R; 0]` through it too.
fn check_apply(what: &str, kernel: Kernel, f: &Factored, ws: &mut Workspace<f64>) {
    let n = f.t.rows();
    let rows = f.u.rows();
    let c0 = {
        let mut c = random_matrix::<f64>(rows, n + 3, 77);
        c.set_submatrix(0, 0, &f.input).unwrap();
        c
    };
    let mut c = c0.clone();
    let mut apply = |c: &mut Matrix<f64>, side: ApplySide| match kernel {
        Kernel::Geqrt { .. } => geqrt_apply_ws(&f.raw.0, &f.t, c, side, ws).unwrap(),
        Kernel::Tsqrt { .. } | Kernel::Ttqrt => {
            let mut top = c.submatrix(0, 0, n, c.cols()).unwrap();
            let mut bot = c.submatrix(n, 0, rows - n, c.cols()).unwrap();
            if matches!(kernel, Kernel::Ttqrt) {
                ttmqr_apply_ws(&f.raw.1, &f.t, &mut top, &mut bot, side, ws).unwrap();
            } else {
                tsmqr_apply_ws(&f.raw.1, &f.t, &mut top, &mut bot, side, ws).unwrap();
            }
            c.set_submatrix(0, 0, &top).unwrap();
            c.set_submatrix(n, 0, &bot).unwrap();
        }
    };
    apply(&mut c, ApplySide::Transpose);
    let scale = frobenius_norm(&c0).max(1.0);
    let got_r = c.submatrix(0, 0, rows, n).unwrap();
    let resid = frobenius_norm(&got_r.sub(&f.r).unwrap());
    assert!(
        resid <= 1e-14 * rows as f64 * scale,
        "{what}: applied QᵀA − R = {resid:e}"
    );
    apply(&mut c, ApplySide::NoTranspose);
    let back = frobenius_norm(&c.sub(&c0).unwrap());
    assert!(
        back <= 1e-14 * rows as f64 * scale,
        "{what}: Q Qᵀ C − C = {back:e}"
    );
}

/// The sweep in element type `T` on the register core pinned by the
/// caller: every factor kernel at every width and zero pattern, twice for
/// bit equality; `f64` results also go through the update kernels.
fn factor_sweep<T: Scalar>(core: &str) {
    let eps = T::EPSILON.to_f64() / f64::EPSILON;
    // One workspace for the whole sweep, sized for the widest tile: it is
    // handed over dirty every time.
    let ws = &mut Workspace::<T>::new(65, 65);
    let ws64 = &mut Workspace::<f64>::new(65, 65);
    let widths = (1..=9).chain([12, 17, 20, 31, 32, 33, 64, 65]);
    for n in widths {
        let mut kernels = vec![
            Kernel::Geqrt { m: n },
            Kernel::Geqrt { m: n + n / 2 + 3 },
            Kernel::Ttqrt,
        ];
        kernels.extend([(n / 2).max(1), n, 2 * n + 3].map(|m2| Kernel::Tsqrt { m2 }));
        for kernel in kernels {
            for zeros in [Zeros::None, Zeros::Middle, Zeros::All] {
                let what = format!("{kernel:?} n={n} {zeros:?} core={core} eps={eps:e}");
                let seed = 9000 + n as u64;
                let f = run_kernel(kernel, n, zeros, seed, ws);
                check_factored(&what, &f, eps);
                if eps == 1.0 {
                    check_apply(&what, kernel, &f, ws64);
                }
                if zeros != Zeros::None {
                    let zero_taus = (0..n).filter(|&k| f.t[(k, k)] == 0.0).count();
                    let want = if zeros == Zeros::All {
                        n
                    } else {
                        n - n / 3 - n / 3
                    };
                    assert!(
                        zero_taus >= want,
                        "{what}: {zero_taus} zero taus, want {want}"
                    );
                }
                let again = run_kernel(kernel, n, zeros, seed, ws);
                assert!(
                    again.raw == f.raw && again.t == f.t,
                    "{what}: two runs of one shape differ bitwise"
                );
            }
        }
    }
}

#[test]
fn blocked_factor_sweep() {
    // Only this test pins the core in this binary; the others are tolerance
    // checks and hold on any.
    force_backend(None);
    let widest = force_vector_bits(None);
    let mut cores = vec![("scalar", Some(Backend::Blocked), None)];
    cores.extend((widest >= 256).then_some(("256-bit", None, Some(256))));
    cores.extend((widest >= 512).then_some(("512-bit", None, None)));
    for (core, backend, bits) in cores {
        force_backend(backend);
        force_vector_bits(bits);
        factor_sweep::<f64>(core);
        factor_sweep::<f32>(core);
    }
    force_backend(None);
    force_vector_bits(None);
}
