//! Unit suite for the register-blocked microkernel primitives.
//!
//! Every public primitive in [`tileqr_kernels::micro`] is held against an
//! independent naive sequential reference over a grid of odd shapes: empty
//! inputs, lengths straddling every vector-width tail (4, 8 and 16 lanes),
//! the `NR` column tail, and the naive/blocked and blocked/vector work
//! thresholds. Comparisons use summation-order-aware error bounds (any two
//! orderings of an `L`-term sum differ by at most `O(L·ε)` times the
//! absolute-value sum, `ε` the element type's), so the same suite passes
//! whichever core the dispatcher picks for a given shape.
//!
//! The suites that touch the test pins run every instantiation this host
//! can execute — the scalar core, the 256-bit vector core and, where it is
//! detected, the 512-bit one (`force_backend`, `force_vector_bits`) — for
//! `f64` and for `f32` at `f32`-scaled budgets. The backend-agreement test
//! checks (a) bit-determinism of repeated calls within one core, (b)
//! agreement of each vector core with the scalar one within the rounding
//! budgets, for both element types, and (c) that the pins select different
//! code wherever a vector core exists.
//!
//! The two level-3 primitives ([`gemm_tn`], [`gemm_nn_sub`]) are swept over
//! a cube of shapes that straddles every tile edge of every core, and the
//! update kernels built on them are held to `apply_q ∘ apply_qt = I` and
//! `QᵀA = R` for TS, TT and GEQRT factors, at tile widths on both sides of
//! the factor kernels' recursion threshold and at the paper's 16, in `f64`
//! and `f32`; a factorization's own pair updates, which form `W` from the
//! `−V₂ᵀ` their factor task stored, are held to the public entry points.

use std::sync::Mutex;
use tileqr_dag::TaskKind;
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::micro::{
    active_backend, dotf, force_backend, force_vector_bits, gemm_nn_sub, gemm_tn, rank1f_sub,
    Backend, Shape, NR,
};
use tileqr_kernels::{
    geqrt_apply_ws, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

/// Serializes tests that touch the process-global backend override.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// One register core this host can execute, as the two pins that select it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CorePin {
    name: &'static str,
    backend: Option<Backend>,
    bits: Option<u32>,
}

impl CorePin {
    fn set(self) {
        force_backend(self.backend);
        force_vector_bits(self.bits);
    }
}

const SCALAR: CorePin = CorePin {
    name: "scalar",
    backend: Some(Backend::Blocked),
    bits: None,
};

fn unpin() {
    force_backend(None);
    force_vector_bits(None);
}

/// The scalar core and every vector width up to the detected one.
fn cores() -> Vec<CorePin> {
    unpin();
    let widest = force_vector_bits(None);
    let mut all = vec![SCALAR];
    for (name, width, bits) in [("256-bit", 256, Some(256)), ("512-bit", 512, None)] {
        if widest >= width {
            all.push(CorePin {
                name,
                backend: None,
                bits,
            });
        }
    }
    all
}

/// Deterministic fill in [-1, 1): splitmix64 mapped to the unit interval.
fn vec_of<T: Scalar>(seed: u64, len: usize) -> Vec<T> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        T::from_f64((z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0)
    };
    (0..len).map(|_| next()).collect()
}

/// Error budget for one output value assembled from `terms` products whose
/// absolute values sum to `abs`: any two summation orders agree to
/// `O(terms·ε·abs)`; the constant is generous so the suite never flakes
/// while still failing loudly on indexing bugs (which err at `O(1)`).
fn budget<T: Scalar>(terms: usize, abs: f64) -> f64 {
    32.0 * (terms as f64 + 8.0) * T::EPSILON.to_f64() * abs
}

fn assert_close<T: Scalar>(got: T, want: f64, terms: usize, abs: f64, ctx: &str) {
    let tol = budget::<T>(terms, abs);
    assert!(
        (got.to_f64() - want).abs() <= tol,
        "{ctx}: got {got}, want {want}, tol {tol}"
    );
}

/// Lengths that straddle every boundary the blocking machinery cares
/// about: the 4-, 8- and 16-lane tails, the `NR` group tail, and the
/// naive→blocked and naive→vector work thresholds.
fn lens() -> Vec<usize> {
    vec![
        0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 17, 31, 33, 40, 127, 130, 600,
    ]
}

fn widths() -> Vec<usize> {
    vec![0, 1, 2, 3, NR, NR + 1, 7, 8, 13]
}

fn dotf_case<T: Scalar>(ctx: &str) {
    for &len in &lens() {
        for &n in &widths() {
            for pad in [0usize, 3] {
                let ld = len + pad;
                let x = vec_of::<T>(1 + len as u64, len);
                let ys = vec_of::<T>(2 + n as u64, ld * n + len);
                let mut out = vec![T::from_f64(f64::NAN); n];
                dotf(&x, &ys, ld, n, &mut out);
                for j in 0..n {
                    let c = &ys[j * ld..j * ld + len];
                    let terms = x.iter().zip(c).map(|(&a, &b)| a.to_f64() * b.to_f64());
                    let (want, abs) = terms.fold((0.0, 0.0), |(s, a), t| (s + t, a + t.abs()));
                    let ctx = format!("dotf {ctx} len={len} n={n} j={j}");
                    assert_close(out[j], want, len, abs, &ctx);
                }
            }
        }
    }
}

#[test]
fn dotf_matches_naive_over_odd_shapes() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        core.set();
        dotf_case::<f64>(core.name);
        dotf_case::<f32>(core.name);
    }
    unpin();
}

fn rank1f_case<T: Scalar>(core: CorePin) {
    for &len in &lens() {
        for &n in &widths() {
            let ld = len + 3;
            let x = vec_of::<T>(41, len);
            let w = vec_of::<T>(42, n);
            let ys0 = vec_of::<T>(43, ld * n.max(1));
            let mut ys = ys0.clone();
            rank1f_sub(&x, &w, &mut ys, ld, len, n);
            for j in 0..n {
                for i in 0..len {
                    let ctx = format!("rank1f_sub {} len={len} n={n} j={j} i={i}", core.name);
                    if core == SCALAR {
                        // One multiply and one subtract per element, no
                        // reassociation anywhere: the scalar-blocked
                        // backend must be bit-exact against the naive
                        // reference.
                        let want = ys0[j * ld + i] - w[j] * x[i];
                        assert!(ys[j * ld + i] == want, "{ctx}");
                    } else {
                        // A vector core contracts the pair into an FMA (one
                        // rounding instead of two).
                        let prod = w[j].to_f64() * x[i].to_f64();
                        let want = ys0[j * ld + i].to_f64() - prod;
                        assert_close(ys[j * ld + i], want, 2, want.abs() + prod.abs(), &ctx);
                    }
                }
            }
            // Padding rows between columns must stay untouched.
            for j in 0..n {
                for i in len..ld {
                    assert!(ys[j * ld + i] == ys0[j * ld + i], "rank1f pad j={j} i={i}");
                }
            }
        }
    }
}

#[test]
fn rank1f_matches_naive() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        core.set();
        rank1f_case::<f64>(core);
        rank1f_case::<f32>(core);
    }
    unpin();
}

/// All four primitives on one `(len, n)` shape: per primitive its name, its
/// output, and the `(terms, abs)` rounding budget two cores may differ by.
fn run_all<T: Scalar>(len: usize, n: usize) -> Vec<(&'static str, Vec<T>, (usize, f64))> {
    let ld = len + 1;
    let x = vec_of::<T>(61, len);
    let ys = vec_of::<T>(62, ld * n);
    let alphas = vec_of::<T>(63, n);
    let cols0 = vec_of::<T>(65, ld * n);
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

/// Each core bit-deterministic call to call, and each vector core within the
/// rounding budgets of the scalar one — for `f64` and, at its own `ε`, for
/// `f32`.
fn agreement_case<T: Scalar>(len: usize, n: usize) -> bool {
    let mut differed = false;
    SCALAR.set();
    assert_eq!(active_backend(), Backend::Blocked);
    let reference = run_all::<T>(len, n);
    for core in cores() {
        core.set();
        let got = run_all::<T>(len, n);
        assert!(
            got == run_all::<T>(len, n),
            "{} core must be deterministic ({len},{n})",
            core.name
        );
        differed |= got != reference;
        for ((name, got, (terms, abs)), (_, want, _)) in got.iter().zip(&reference) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                let ctx = format!("{} vs scalar, {name} ({len},{n})", core.name);
                assert_close(*g, w.to_f64(), *terms, *abs, &ctx);
            }
        }
    }
    differed
}

#[test]
fn backends_agree_and_are_deterministic() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    unpin();
    let detected = active_backend();
    // Shapes spanning all three dispatch tiers and every mask tail.
    let mut differed = [false; 2];
    for (len, n) in [(3, 2), (13, 5), (40, 8), (130, 7), (525, 8)] {
        differed[0] |= agreement_case::<f64>(len, n);
        differed[1] |= agreement_case::<f32>(len, n);
    }
    unpin();
    // Where a vector core is detected the pins must select different code
    // for both element types, or everything above compared the scalar core
    // with itself.
    assert_eq!(differed, [detected == Backend::Simd; 2]);
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
    for &(len, n) in &[(2usize, 1usize), (60, 4), (552, 8)] {
        let x = vec_of::<f64>(5, len);
        let ys = vec_of::<f64>(6, len * n);
        let mut out = vec![0.0; n];
        dotf(&x, &ys, len, n, &mut out);
    }
    let again = probe(99);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits(), "same shape, same bits");
    }
}

/// Sizes that straddle every register-tile edge of the level-3 skeletons on
/// every core (4-wide dot tiles by 3 or 6 columns; 4/8/16-lane vectors, two
/// to a tile, by 8/6/4/1 columns), most of them with a mask tail
/// (`k % LANES != 0`) and 16 and 64 without.
const DIMS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 31, 33, 64, 65];

/// Column-major `rows x cols` operand with leading dimension `ld`, zeros
/// written out wherever `shape` promises them.
fn operand<T: Scalar>(seed: u64, rows: usize, cols: usize, ld: usize, shape: Shape) -> Vec<T> {
    let mut v = vec_of::<T>(seed, ld * cols);
    for c in 0..cols {
        for r in 0..rows {
            let zero = match shape {
                Shape::Dense => false,
                Shape::Upper => r > c,
                Shape::Lower => r < c,
            };
            if zero {
                v[c * ld + r] = T::ZERO;
            }
        }
    }
    v
}

/// `gemm_tn` and `gemm_nn_sub` on one shape against naive triple loops:
/// dirty output, padded leading dimensions, twice for bit equality.
fn check_gemm<T: Scalar>(core: &str, m: usize, n: usize, k: usize, shape: Shape, with_add: bool) {
    let ctx = format!("{core} ({m},{n},{k}) {shape:?} add={with_add}");
    let seed = (m * 10_007 + n * 101 + k) as u64;
    let nan = T::from_f64(f64::NAN);

    // out = [add +] XᵀY: X is k x m, Y is k x n.
    let (ldx, ldy, lda, ldo) = (k + 1, k + 2, m + 1, m + 3);
    let x = operand::<T>(seed, k, m, ldx, shape);
    let y = vec_of::<T>(seed + 1, ldy * n);
    let add = vec_of::<T>(seed + 2, lda * n);
    let run_tn = || {
        let mut out = vec![nan; ldo * n];
        let add = with_add.then_some((&add[..], lda));
        gemm_tn((&x, ldx), shape, (&y, ldy), add, (&mut out, ldo), (m, n, k));
        out
    };
    let out = run_tn();
    let again = run_tn();
    for j in 0..n {
        for i in 0..m {
            let at = j * ldo + i;
            assert!(out[at] == again[at], "gemm_tn {ctx}: not bit-reproducible");
            let (mut want, mut abs) = (0.0, 0.0);
            if with_add {
                want = add[j * lda + i].to_f64();
                abs = want.abs();
            }
            for p in 0..k {
                let t = x[i * ldx + p].to_f64() * y[j * ldy + p].to_f64();
                want += t;
                abs += t.abs();
            }
            let ctx = format!("gemm_tn {ctx} [{i},{j}]");
            assert_close(out[at], want, k + 1, abs, &ctx);
        }
        for pad in &out[j * ldo + m..(j + 1) * ldo] {
            let pad = pad.to_f64();
            assert!(
                pad.is_nan(),
                "gemm_tn {ctx}: wrote past row {m} of column {j}"
            );
        }
    }

    // C -= A·B: A is m x k, B is k x n.
    let (lda, ldb, ldc) = (m + 2, k + 1, m + 1);
    let a = operand::<T>(seed + 3, m, k, lda, shape);
    let b = vec_of::<T>(seed + 4, ldb * n);
    let c0 = vec_of::<T>(seed + 5, ldc * n);
    let run_nn = || {
        let mut c = c0.clone();
        gemm_nn_sub((&a, lda), shape, (&b, ldb), (&mut c, ldc), (m, n, k));
        c
    };
    let c = run_nn();
    assert!(c == run_nn(), "gemm_nn_sub {ctx}: not bit-reproducible");
    for j in 0..n {
        for i in 0..m {
            let mut want = c0[j * ldc + i].to_f64();
            let mut abs = want.abs();
            for p in 0..k {
                let t = a[p * lda + i].to_f64() * b[j * ldb + p].to_f64();
                want -= t;
                abs += t.abs();
            }
            let ctx = format!("gemm_nn_sub {ctx} [{i},{j}]");
            assert_close(c[j * ldc + i], want, k + 1, abs, &ctx);
        }
        assert!(
            c[j * ldc + m] == c0[j * ldc + m],
            "gemm_nn_sub {ctx}: pad row of column {j}"
        );
    }
}

fn gemm_cube<T: Scalar>(core: &str) {
    for &m in &DIMS {
        for &n in &DIMS {
            for &k in &DIMS {
                check_gemm::<T>(core, m, n, k, Shape::Dense, (m + n + k) % 2 == 1);
            }
        }
    }
    // The triangular ranges depend on (m, k) alone; a few widths cover
    // the column tiles they are crossed with.
    for shape in [Shape::Upper, Shape::Lower] {
        for &m in &DIMS {
            for &k in &DIMS {
                for (n, with_add) in [(1, false), (4, true), (7, false), (13, true)] {
                    check_gemm::<T>(core, m, n, k, shape, with_add);
                }
            }
        }
    }
}

#[test]
fn gemm_tiles_match_naive_over_the_shape_cube() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        core.set();
        gemm_cube::<f64>(core.name);
        gemm_cube::<f32>(core.name);
    }
    unpin();
}

/// `‖a − b‖_max` over two equal-shape matrices, in `f64`.
fn max_diff<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    assert_eq!(a.dims(), b.dims());
    let pairs = a.as_slice().iter().zip(b.as_slice());
    pairs
        .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Tile sizes the update kernels are swept at: both sides of the factor
/// recursion's threshold, the paper's 16 and its ragged neighbour 17.
const TILES: [usize; 9] = [1, 3, 8, 10, 12, 16, 17, 20, 64];

/// The column counts the update kernels are swept over at tile size `b`:
/// the solve's one column, `apply_qt`'s few and a trailing update's `b`.
fn widths_at(b: usize) -> [usize; 5] {
    [1, 3, 4, 5, b]
}

/// Round-trip budget at tile size `b`, scaled by the element type's `ε`.
fn tol_at<T: Scalar>(b: usize) -> f64 {
    1e-13 * (b as f64).max(4.0) * T::EPSILON.to_f64() / f64::EPSILON
}

/// TS and TT pair updates: `Qᵀ[R1; A2] = [R; 0]` and `Q(QᵀC) = C`, with the
/// eliminated TT tile carrying foreign data below its diagonal (as a tile
/// that went through `GEQRT` does), in `f64` and in `f32`.
#[test]
fn pair_updates_invert_and_triangularize() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        core.set();
        pair_updates::<f64>(core.name);
        pair_updates::<f32>(core.name);
        stored_pair_updates::<f64>(core.name);
        stored_pair_updates::<f32>(core.name);
    }
    unpin();
}

fn pair_updates<T: Scalar>(core: &str) {
    for b in TILES {
        let tol = tol_at::<T>(b);
        let ws = &mut Workspace::<T>::new(b, b);
        let r1_0 = random_matrix::<T>(b, b, 500 + b as u64).upper_triangular();
        let below_0 = random_matrix::<T>(b, b, 600 + b as u64);
        for tt in [false, true] {
            let (mut r1, mut v2) = (r1_0.clone(), below_0.clone());
            let mut tfac = Matrix::zeros(b, b);
            let (apply, eliminated): (ApplyPair<T>, _) = if tt {
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
                "{core}: QᵀA top, b={b} tt={tt}"
            );
            assert!(
                max_diff(&bot, &Matrix::zeros(b, b)) < tol,
                "{core}: QᵀA bottom, b={b} tt={tt}"
            );
            for nc in widths_at(b) {
                let c1_0 = random_matrix::<T>(b, nc, 700 + nc as u64);
                let c2_0 = random_matrix::<T>(b, nc, 800 + nc as u64);
                let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
                apply(&v2, &tfac, &mut c1, &mut c2, ApplySide::Transpose, ws).unwrap();
                apply(&v2, &tfac, &mut c1, &mut c2, ApplySide::NoTranspose, ws).unwrap();
                let ctx = format!("{core} b={b} nc={nc} tt={tt}");
                assert!(max_diff(&c1, &c1_0) < tol, "round trip top, {ctx}");
                assert!(max_diff(&c2, &c2_0) < tol, "round trip bottom, {ctx}");
            }
        }
    }
}

/// Tile sizes a factorization's stored-block pair updates are checked at.
const STORED_TILES: [usize; 5] = [1, 7, 16, 17, 64];

/// The elimination of `[R1 C1 D1; A2 C2 D2]` and its two trailing updates,
/// run as factorization tasks: each update, which forms `W` from the
/// `−V₂ᵀ` the factor task stored, matches the public entry within the
/// round-trip budget. (That the block is bit for bit `−V₂ᵀ` and is gone
/// after the second update is `exec.rs`'s unit tests' business.)
fn stored_pair_updates<T: Scalar>(core: &str) {
    let (p, i, k) = (0, 1, 0);
    for b in STORED_TILES {
        let tol = tol_at::<T>(b);
        let ws = &mut Workspace::<T>::new(b, b);
        let seed = 1000 + b as u64;
        let r1 = random_matrix::<T>(b, b, seed).upper_triangular();
        let [a2, c1, c2, d1, d2] = [1, 2, 3, 4, 5].map(|s| random_matrix::<T>(b, b, seed + s));
        let grid = [[&r1, &c1, &d1], [&a2, &c2, &d2]];
        let a = Matrix::from_fn(2 * b, 3 * b, |r, c| grid[r / b][c / b][(r % b, c % b)]);
        for tt in [false, true] {
            let (factor, apply): (_, ApplyPair<T>) = if tt {
                (TaskKind::Ttqrt { p, i, k }, ttmqr_apply_ws)
            } else {
                (TaskKind::Tsqrt { p, i, k }, tsmqr_apply_ws)
            };
            let ctx = format!("{core} b={b} tt={tt}");
            let mut state = FactorState::new(TiledMatrix::from_matrix(&a, b).unwrap());
            state.execute(factor).unwrap();
            let v2 = state.tiles().tile(i, k).clone();
            let tfac = state.elim_factor(p, i, k).unwrap().clone();
            for (j, (top, bot)) in [(1, (&c1, &c2)), (2, (&d1, &d2))] {
                let (mut top, mut bot) = (top.clone(), bot.clone());
                apply(&v2, &tfac, &mut top, &mut bot, ApplySide::Transpose, ws).unwrap();
                state
                    .execute(if tt {
                        TaskKind::Ttmqr { p, i, j, k }
                    } else {
                        TaskKind::Tsmqr { p, i, j, k }
                    })
                    .unwrap();
                let tiles = state.tiles();
                assert!(
                    max_diff(tiles.tile(p, j), &top) < tol,
                    "{ctx}: top, column {j}"
                );
                assert!(
                    max_diff(tiles.tile(i, j), &bot) < tol,
                    "{ctx}: bottom, column {j}"
                );
            }
        }
    }
}

type ApplyPair<T> = fn(
    &Matrix<T>,
    &Matrix<T>,
    &mut Matrix<T>,
    &mut Matrix<T>,
    ApplySide,
    &mut Workspace<T>,
) -> tileqr_matrix::Result<()>;

/// GEQRT panels: `QᵀA = R` and `Q(QᵀC) = C`, in `f64` and in `f32`.
#[test]
fn panel_updates_invert_and_triangularize() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        core.set();
        panel_updates::<f64>(core.name);
        panel_updates::<f32>(core.name);
    }
    unpin();
}

fn panel_updates<T: Scalar>(core: &str) {
    for b in TILES {
        let tol = tol_at::<T>(b);
        let ws = &mut Workspace::<T>::new(b, b);
        let a0 = random_matrix::<T>(b, b, 900 + b as u64);
        let mut vr = a0.clone();
        let mut tfac = Matrix::zeros(b, b);
        geqrt_ws(&mut vr, &mut tfac, ws).unwrap();
        let mut qta = a0.clone();
        geqrt_apply_ws(&vr, &tfac, &mut qta, ApplySide::Transpose, ws).unwrap();
        assert!(
            max_diff(&qta, &vr.upper_triangular()) < tol,
            "{core}: QᵀA = R, b={b}"
        );
        for nc in widths_at(b) {
            let c0 = random_matrix::<T>(b, nc, 950 + nc as u64);
            let mut c = c0.clone();
            geqrt_apply_ws(&vr, &tfac, &mut c, ApplySide::Transpose, ws).unwrap();
            geqrt_apply_ws(&vr, &tfac, &mut c, ApplySide::NoTranspose, ws).unwrap();
            assert!(max_diff(&c, &c0) < tol, "{core}: round trip, b={b} nc={nc}");
        }
    }
}
