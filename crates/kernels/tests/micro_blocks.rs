//! Unit suite for the register-blocked microkernel primitives.
//!
//! Every public primitive in [`tileqr_kernels::micro`] is held against an
//! independent naive sequential reference over a grid of odd shapes:
//! empty inputs, lengths straddling the `LANES` tail, the `NR` column
//! tail, the naive/blocked and blocked/vector work thresholds, and the
//! `KC` L1 strip boundary. Comparisons use summation-order-aware error
//! bounds (any two orderings of an `L`-term sum differ by at most
//! `O(L·ε)` times the absolute-value sum), so the same suite passes
//! whichever core — scalar-blocked everywhere, or the AVX2+FMA intrinsics
//! an x86-64 host with both features detects — the dispatcher picks for a
//! given shape.
//!
//! The backend-agreement test drives all four primitives with each backend
//! pinned in turn through the `force_backend` hook and checks (a)
//! bit-determinism of repeated calls within one backend, (b) cross-backend
//! agreement within the same rounding budgets, and (c) that `f32` panels
//! never leave the scalar core. On a host without AVX2+FMA forcing `Simd`
//! changes nothing and (b) compares the scalar core with itself.
//!
//! The two level-3 primitives ([`gemm_tn`], [`gemm_nn_sub`]) are swept over
//! a cube of shapes that straddles every tile edge, and the update kernels
//! built on them are held to `apply_q ∘ apply_qt = I` and `QᵀA = R` for
//! TS, TT and GEQRT factors, at tile widths on both sides of the factor
//! kernels' recursion threshold.

use std::sync::Mutex;
use tileqr_kernels::micro::{
    active_backend, dotf, force_backend, gemm_nn_sub, gemm_tn, rank1f_sub, Backend, Shape, KC,
    LANES, NR,
};
use tileqr_kernels::{
    geqrt_apply_ws, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, Scalar};

/// Serializes tests that touch the process-global backend override.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic fill in [-1, 1): splitmix64 mapped to the unit interval.
fn fill(seed: u64, out: &mut [f64]) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for v in out.iter_mut() {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        *v = (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0;
    }
}

fn vec_of(seed: u64, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    fill(seed, &mut v);
    v
}

/// Error budget for one output value assembled from `terms` products whose
/// absolute values sum to `abs`: any two summation orders agree to
/// `O(terms·ε·abs)`; the constant is generous so the suite never flakes
/// while still failing loudly on indexing bugs (which err at `O(1)`).
fn budget(terms: usize, abs: f64) -> f64 {
    32.0 * (terms as f64 + 8.0) * f64::EPSILON * abs
}

fn assert_close(got: f64, want: f64, terms: usize, abs: f64, ctx: &str) {
    let tol = budget(terms, abs);
    assert!(
        (got - want).abs() <= tol,
        "{ctx}: got {got}, want {want}, tol {tol}"
    );
}

/// Lengths that straddle every boundary the blocking machinery cares
/// about: the `LANES` tail, the `NR` group tail, the naive→blocked and
/// blocked→vector work thresholds, and the `KC` strip edge.
fn lens() -> Vec<usize> {
    vec![
        0,
        1,
        2,
        3,
        LANES,
        LANES + 1,
        7,
        8,
        11,
        13,
        31,
        40,
        127,
        130,
        600,
        KC + 13,
    ]
}

fn widths() -> Vec<usize> {
    vec![0, 1, 2, 3, NR, NR + 1, 7, 8, 13]
}

#[test]
fn dotf_matches_naive_over_odd_shapes() {
    for &len in &lens() {
        for &n in &widths() {
            for pad in [0usize, 3] {
                let ld = len + pad;
                let x = vec_of(1 + len as u64, len);
                let ys = vec_of(2 + n as u64, ld * n + len);
                let mut out = vec![f64::NAN; n];
                dotf(&x, &ys, ld, n, &mut out);
                for j in 0..n {
                    let c = &ys[j * ld..j * ld + len];
                    let want: f64 = x.iter().zip(c).map(|(a, b)| a * b).sum();
                    let abs: f64 = x.iter().zip(c).map(|(a, b)| (a * b).abs()).sum();
                    assert_close(
                        out[j],
                        want,
                        len,
                        abs,
                        &format!("dotf len={len} n={n} j={j}"),
                    );
                }
            }
        }
    }
}

#[test]
fn rank1f_matches_naive() {
    // Pinned so the bit-exact branch runs on every host, then as detected.
    let _guard = BACKEND_LOCK.lock().unwrap();
    for pin in [Some(Backend::Blocked), None] {
        force_backend(pin);
        let backend = active_backend();
        for &len in &lens() {
            for &n in &widths() {
                let ld = len + 3;
                let x = vec_of(41, len);
                let w = vec_of(42, n);
                let ys0 = vec_of(43, ld * n.max(1));
                let mut ys = ys0.clone();
                rank1f_sub(&x, &w, &mut ys, ld, len, n);
                for j in 0..n {
                    for i in 0..len {
                        let want = ys0[j * ld + i] - w[j] * x[i];
                        if backend == Backend::Blocked {
                            // One multiply and one subtract per element, no
                            // reassociation anywhere: the scalar-blocked
                            // backend must be bit-exact against the naive
                            // reference.
                            assert_eq!(
                                ys[j * ld + i].to_bits(),
                                want.to_bits(),
                                "rank1f_sub len={len} n={n} j={j} i={i}"
                            );
                        } else {
                            // The simd backend contracts the pair into an
                            // FMA (one rounding instead of two).
                            assert_close(
                                ys[j * ld + i],
                                want,
                                2,
                                want.abs() + (w[j] * x[i]).abs(),
                                &format!("rank1f_sub len={len} n={n} j={j} i={i}"),
                            );
                        }
                    }
                }
                // Padding rows between columns must stay untouched.
                for j in 0..n {
                    for i in len..ld {
                        assert_eq!(ys[j * ld + i], ys0[j * ld + i], "rank1f pad j={j} i={i}");
                    }
                }
            }
        }
    }
    force_backend(None);
}

/// All four primitives on one `(len, n)` shape: per primitive its name, its
/// output, and the `(terms, abs)` rounding budget two cores may differ by.
fn run_all<T: Scalar>(len: usize, n: usize) -> Vec<(&'static str, Vec<T>, (usize, f64))> {
    let t_vec = |seed: u64, len: usize| -> Vec<T> {
        vec_of(seed, len).into_iter().map(T::from_f64).collect()
    };
    let ld = len + 1;
    let x = t_vec(61, len);
    let ys = t_vec(62, ld * n);
    let alphas = t_vec(63, n);
    let cols0 = t_vec(65, ld * n);
    let dot = (len, len as f64);

    let mut results = Vec::new();
    let mut out = vec![T::ZERO; n];
    dotf(&x, &ys, ld, n, &mut out);
    results.push(("dotf", out, dot));

    let mut cols = cols0.clone();
    rank1f_sub(&x, &alphas, &mut cols, ld, len, n);
    results.push(("rank1f_sub", cols, (2, 2.0)));

    // The panel as both operands: `out = YᵀY` (n x n), then `C -= Y·out`.
    let mut gram = vec![T::ZERO; n * n];
    gemm_tn(
        (&ys, ld),
        Shape::Dense,
        (&ys, ld),
        None,
        (&mut gram, n),
        (n, n, len),
    );
    results.push(("gemm_tn", gram.clone(), dot));
    let mut cols = cols0;
    gemm_nn_sub(
        (&ys, ld),
        Shape::Dense,
        (&gram, n),
        (&mut cols, ld),
        (len, n, n),
    );
    let gram_abs = n as f64 * len as f64;
    results.push(("gemm_nn_sub", cols, (len + n, gram_abs + 1.0)));
    results
}

/// The simd backend must agree with the scalar-blocked backend within the
/// rounding budgets on every primitive, each backend must be
/// bit-deterministic call to call, and `f32` must not notice the pin.
#[test]
fn backends_agree_and_are_deterministic() {
    let _guard = BACKEND_LOCK.lock().unwrap();

    // Shapes spanning all three dispatch tiers.
    let shapes: Vec<(usize, usize)> = vec![(3, 2), (13, 5), (40, 8), (130, 7), (KC + 13, 8)];

    force_backend(None);
    let detected = active_backend();
    let mut differed = false;
    for &(len, n) in &shapes {
        force_backend(Some(Backend::Blocked));
        assert_eq!(active_backend(), Backend::Blocked);
        let a1 = run_all::<f64>(len, n);
        let a2 = run_all::<f64>(len, n);
        assert_eq!(a1, a2, "blocked backend must be deterministic ({len},{n})");
        let s1 = run_all::<f32>(len, n);

        force_backend(Some(Backend::Simd));
        let b1 = run_all::<f64>(len, n);
        let b2 = run_all::<f64>(len, n);
        assert_eq!(b1, b2, "simd backend must be deterministic ({len},{n})");
        let s2 = run_all::<f32>(len, n);
        differed |= a1 != b1;

        // Cross-backend: same values within the rounding budget. (Where
        // `Simd` is not detected the force changes nothing and these are
        // identical.)
        for ((name, got, (terms, abs)), (_, want, _)) in b1.iter().zip(&a1) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_close(
                    *g,
                    *w,
                    *terms,
                    *abs,
                    &format!("x-backend {name} ({len},{n})"),
                );
            }
        }

        // The intrinsics are `f64`-only: an `f32` panel takes the scalar
        // core under either pin and unpinned, to the bit.
        force_backend(None);
        let s3 = run_all::<f32>(len, n);
        assert_eq!(s1, s2, "f32 must ignore the backend pin ({len},{n})");
        assert_eq!(s1, s3, "f32 must ignore detection ({len},{n})");
    }
    // Where the FMA core is detected the pins must select different code,
    // or everything above compared the scalar core with itself.
    assert_eq!(differed, detected == Backend::Simd);
}

/// The dispatcher must pick tiers by shape alone — calling the same shape
/// twice through any amount of interleaved other-shape traffic yields
/// bit-identical results.
#[test]
fn tier_selection_is_a_pure_function_of_shape() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    let probe = |seed: u64| -> Vec<f64> {
        let (len, n) = (37, 6);
        let ld = len;
        let x = vec_of(seed, len);
        let ys = vec_of(seed + 1, ld * n);
        let mut out = vec![0.0; n];
        dotf(&x, &ys, ld, n, &mut out);
        out
    };
    let first = probe(99);
    // Interleave traffic across the naive/blocked/vector tiers.
    for &(len, n) in &[(2usize, 1usize), (60, 4), (KC + 40, 8)] {
        let x = vec_of(5, len);
        let ys = vec_of(6, len * n);
        let mut out = vec![0.0; n];
        dotf(&x, &ys, len, n, &mut out);
    }
    let again = probe(99);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits(), "same shape, same bits");
    }
}

/// Sizes that straddle every register-tile edge of the level-3 skeletons
/// (4- and 3-wide dot tiles, 8/16-row by 6/4/1-column outer-product tiles).
const DIMS: [usize; 17] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65];

/// Column-major `rows x cols` operand with leading dimension `ld`, zeros
/// written out wherever `shape` promises them.
fn operand(seed: u64, rows: usize, cols: usize, ld: usize, shape: Shape) -> Vec<f64> {
    let mut v = vec_of(seed, ld * cols);
    for c in 0..cols {
        for r in 0..rows {
            let zero = match shape {
                Shape::Dense => false,
                Shape::Upper => r > c,
                Shape::Lower => r < c,
            };
            if zero {
                v[c * ld + r] = 0.0;
            }
        }
    }
    v
}

/// `gemm_tn` and `gemm_nn_sub` on one shape against naive triple loops:
/// dirty output, padded leading dimensions, twice for bit equality.
fn check_gemm(m: usize, n: usize, k: usize, shape: Shape, with_add: bool) {
    let ctx = format!("({m},{n},{k}) {shape:?} add={with_add}");
    let seed = (m * 10_007 + n * 101 + k) as u64;

    // out = [add +] XᵀY: X is k x m, Y is k x n.
    let (ldx, ldy, lda, ldo) = (k + 1, k + 2, m + 1, m + 3);
    let x = operand(seed, k, m, ldx, shape);
    let y = vec_of(seed + 1, ldy * n);
    let add = vec_of(seed + 2, lda * n);
    let run_tn = || {
        let mut out = vec![f64::NAN; ldo * n];
        let add = with_add.then_some((&add[..], lda));
        gemm_tn((&x, ldx), shape, (&y, ldy), add, (&mut out, ldo), (m, n, k));
        out
    };
    let out = run_tn();
    assert!(
        out.iter()
            .zip(&run_tn())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "gemm_tn {ctx}: not bit-reproducible"
    );
    for j in 0..n {
        for i in 0..m {
            let (mut want, mut abs) = (0.0, 0.0);
            if with_add {
                want = add[j * lda + i];
                abs = want.abs();
            }
            for p in 0..k {
                let t = x[i * ldx + p] * y[j * ldy + p];
                want += t;
                abs += t.abs();
            }
            assert_close(
                out[j * ldo + i],
                want,
                k + 1,
                abs,
                &format!("gemm_tn {ctx} [{i},{j}]"),
            );
        }
        for pad in &out[j * ldo + m..(j + 1) * ldo] {
            assert!(
                pad.is_nan(),
                "gemm_tn {ctx}: wrote past row {m} of column {j}"
            );
        }
    }

    // C -= A·B: A is m x k, B is k x n.
    let (lda, ldb, ldc) = (m + 2, k + 1, m + 1);
    let a = operand(seed + 3, m, k, lda, shape);
    let b = vec_of(seed + 4, ldb * n);
    let c0 = vec_of(seed + 5, ldc * n);
    let run_nn = || {
        let mut c = c0.clone();
        gemm_nn_sub((&a, lda), shape, (&b, ldb), (&mut c, ldc), (m, n, k));
        c
    };
    let c = run_nn();
    assert!(
        c.iter()
            .zip(&run_nn())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "gemm_nn_sub {ctx}: not bit-reproducible"
    );
    for j in 0..n {
        for i in 0..m {
            let mut want = c0[j * ldc + i];
            let mut abs = want.abs();
            for p in 0..k {
                let t = a[p * lda + i] * b[j * ldb + p];
                want -= t;
                abs += t.abs();
            }
            assert_close(
                c[j * ldc + i],
                want,
                k + 1,
                abs,
                &format!("gemm_nn_sub {ctx} [{i},{j}]"),
            );
        }
        assert_eq!(
            c[j * ldc + m],
            c0[j * ldc + m],
            "gemm_nn_sub {ctx}: pad row of column {j}"
        );
    }
}

#[test]
fn gemm_tiles_match_naive_over_the_shape_cube() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for pin in [Some(Backend::Blocked), None] {
        force_backend(pin);
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &DIMS {
                    check_gemm(m, n, k, Shape::Dense, (m + n + k) % 2 == 1);
                }
            }
        }
        // The triangular ranges depend on (m, k) alone; a few widths cover
        // the column tiles they are crossed with.
        for shape in [Shape::Upper, Shape::Lower] {
            for &m in &DIMS {
                for &k in &DIMS {
                    for (n, with_add) in [(1, false), (4, true), (7, false), (13, true)] {
                        check_gemm(m, n, k, shape, with_add);
                    }
                }
            }
        }
    }
    force_backend(None);
}

/// `‖a − b‖_max` over two equal-shape matrices.
fn max_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    assert_eq!(a.dims(), b.dims());
    let pairs = a.as_slice().iter().zip(b.as_slice());
    pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The column counts the update kernels are swept over at tile size `b`.
fn widths_at(b: usize) -> [usize; 5] {
    [1, 3, 4, 5, b]
}

/// TS and TT pair updates: `Qᵀ[R1; A2] = [R; 0]` and `Q(QᵀC) = C`, with the
/// eliminated TT tile carrying foreign data below its diagonal (as a tile
/// that went through `GEQRT` does).
#[test]
fn pair_updates_invert_and_triangularize() {
    for &b in &[1usize, 3, 8, 10, 12, 20, 64] {
        let tol = 1e-13 * (b as f64).max(4.0);
        let ws = &mut Workspace::new(b, b);
        let r1_0 = random_matrix::<f64>(b, b, 500 + b as u64).upper_triangular();
        let below_0 = random_matrix::<f64>(b, b, 600 + b as u64);
        for tt in [false, true] {
            let (mut r1, mut v2) = (r1_0.clone(), below_0.clone());
            let mut tfac = Matrix::zeros(b, b);
            let (apply, eliminated): (ApplyPair, _) = if tt {
                ttqrt_ws(&mut r1, &mut v2, &mut tfac, ws).unwrap();
                (ttmqr_apply_ws, below_0.upper_triangular())
            } else {
                tsqrt_ws(&mut r1, &mut v2, &mut tfac, ws).unwrap();
                (tsmqr_apply_ws, below_0.clone())
            };
            let (mut top, mut bot) = (r1_0.clone(), eliminated);
            apply(&v2, &tfac, &mut top, &mut bot, ApplySide::Transpose, ws).unwrap();
            assert!(
                max_diff(&top, &r1.upper_triangular()) < tol,
                "QᵀA top, b={b} tt={tt}"
            );
            assert!(
                max_diff(&bot, &Matrix::zeros(b, b)) < tol,
                "QᵀA bottom, b={b} tt={tt}"
            );
            for nc in widths_at(b) {
                let c1_0 = random_matrix::<f64>(b, nc, 700 + nc as u64);
                let c2_0 = random_matrix::<f64>(b, nc, 800 + nc as u64);
                let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
                apply(&v2, &tfac, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();
                apply(&v2, &tfac, &mut c1, &mut c2, ApplySide::NoTranspose, ws).unwrap();
                let ctx = format!("b={b} nc={nc} tt={tt}");
                assert!(max_diff(&c1, &c1_0) < tol, "round trip top, {ctx}");
                assert!(max_diff(&c2, &c2_0) < tol, "round trip bottom, {ctx}");
            }
        }
    }
}

type ApplyPair = fn(
    &Matrix<f64>,
    &Matrix<f64>,
    &mut Matrix<f64>,
    &mut Matrix<f64>,
    ApplySide,
    &mut Workspace<f64>,
) -> tileqr_matrix::Result<()>;

/// GEQRT panels: `QᵀA = R` and `Q(QᵀC) = C`.
#[test]
fn panel_updates_invert_and_triangularize() {
    for &b in &[1usize, 3, 8, 10, 12, 20, 64] {
        let tol = 1e-13 * (b as f64).max(4.0);
        let ws = &mut Workspace::new(b, b);
        let a0 = random_matrix::<f64>(b, b, 900 + b as u64);
        let mut vr = a0.clone();
        let mut tfac = Matrix::zeros(b, b);
        geqrt_ws(&mut vr, &mut tfac, ws).unwrap();
        let mut qta = a0.clone();
        geqrt_apply_ws(&vr, &tfac, &mut qta, ApplySide::Transpose, ws).unwrap();
        assert!(
            max_diff(&qta, &vr.upper_triangular()) < tol,
            "QᵀA = R, b={b}"
        );
        for nc in widths_at(b) {
            let c0 = random_matrix::<f64>(b, nc, 950 + nc as u64);
            let mut c = c0.clone();
            geqrt_apply_ws(&vr, &tfac, &mut c, ApplySide::Transpose, ws).unwrap();
            geqrt_apply_ws(&vr, &tfac, &mut c, ApplySide::NoTranspose, ws).unwrap();
            assert!(max_diff(&c, &c0) < tol, "round trip, b={b} nc={nc}");
        }
    }
}
