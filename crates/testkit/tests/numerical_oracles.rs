//! Numerical-oracle suite: the tiled factorization against
//! condition-scaled residual bounds over an adversarial matrix family.
//!
//! Every matrix below is factored through the full stack (sequential and
//! parallel runtime) and held to the oracles of
//! [`tileqr_testkit::oracle`]: backward-stability residuals scaled by a
//! logarithmic condition allowance, plus a differential `|R|` comparison
//! against the reference Householder path with a `κ`-linear budget.

use tileqr::{QrOptions, TiledQr};
use tileqr_matrix::gen::{
    graded, hilbert, hilbert_like, near_rank_deficient, scaled_random, wide_dynamic_range,
};
use tileqr_matrix::Matrix;
use tileqr_testkit::oracle::{condition_scaled_tolerance, verify_qr};
use tileqr_testkit::workers_under_test;

/// The adversarial family: name, matrix, and an optional externally-known
/// condition estimate for the cases where the R-based power iteration is
/// unreliable (numerically singular R).
fn adversarial_family() -> Vec<(&'static str, Matrix<f64>, Option<f64>)> {
    vec![
        ("graded-1e-2", graded(48, 48, 1e-2, 11), None),
        ("graded-tall", graded(64, 32, 1e-1, 12), Some(1e8)),
        (
            "near-rank-deficient",
            near_rank_deficient(40, 40, 8, 1e-10, 13),
            Some(1e12),
        ),
        ("hilbert-12", hilbert(12), None),
        ("hilbert-like", hilbert_like(40, 40, 1.0, 14), Some(1e16)),
        ("huge-scale", scaled_random(40, 40, 100, 15), None),
        ("tiny-scale", scaled_random(40, 40, -100, 16), None),
        ("wide-range", wide_dynamic_range(32, 32, 17), None),
    ]
}

fn factor(a: &Matrix<f64>, workers: usize) -> TiledQr<f64> {
    TiledQr::factor(a, &QrOptions::new().tile_size(8).workers(workers)).unwrap()
}

#[test]
fn adversarial_family_passes_condition_scaled_oracles() {
    for (name, a, kappa_hint) in adversarial_family() {
        let f = factor(&a, 1);
        let kappa = kappa_hint.or_else(|| {
            f.condition_estimate()
                .ok()
                .map(|k: f64| if k.is_finite() { k } else { 1e16 })
        });
        let q = f.q().unwrap();
        let r = f.r();
        let rep = verify_qr(&a, &q, &r, kappa).unwrap();
        assert!(rep.passes(), "{name}: {rep:?}");
    }
}

#[test]
fn parallel_runs_match_oracles_at_every_worker_count() {
    for (name, a, kappa_hint) in adversarial_family() {
        let seq_r = factor(&a, 1).r();
        for workers in workers_under_test() {
            let f = factor(&a, workers);
            // Parallel execution is bit-identical, so the sequential
            // oracle verdict transfers wholesale; check the premise.
            assert_eq!(f.r(), seq_r, "{name} diverged at {workers} workers");
        }
        let _ = kappa_hint;
    }
}

#[test]
fn oracle_rejects_a_corrupted_factorization() {
    // The family must not pass vacuously: break one R and watch it fail.
    let a = graded::<f64>(32, 32, 1e-2, 21);
    let f = factor(&a, 1);
    let q = f.q().unwrap();
    let mut r = f.r();
    r[(4, 9)] += 1e-2 * r.max_abs();
    let rep = verify_qr(&a, &q, &r, Some(1e4)).unwrap();
    assert!(!rep.passes(), "corruption went unnoticed: {rep:?}");
}

#[test]
fn residuals_stay_condition_independent() {
    // Backward error must NOT grow with κ: the ill-conditioned members
    // keep roughly the same residual as a random well-conditioned one.
    let easy = tileqr_matrix::gen::random_matrix::<f64>(40, 40, 30);
    let fe = factor(&easy, 1);
    let easy_rep = verify_qr(&easy, &fe.q().unwrap(), &fe.r(), Some(100.0)).unwrap();

    let hard = hilbert::<f64>(12);
    let fh = factor(&hard, 1);
    let hard_rep = verify_qr(&hard, &fh.q().unwrap(), &fh.r(), Some(1e16)).unwrap();

    let base = condition_scaled_tolerance::<f64>(40, 40, 1.0);
    assert!(easy_rep.report.residual < base);
    assert!(
        hard_rep.report.residual < base * 10.0,
        "residual should not track κ: {hard_rep:?}"
    );
}

#[test]
fn extreme_scales_factor_without_overflow() {
    for exp in [-120, -100, 100, 120] {
        let a = scaled_random::<f64>(24, 24, exp, (exp + 200) as u64);
        let f = factor(&a, 2);
        let r = f.r();
        assert!(r.all_finite(), "R overflowed at scale 1e{exp}");
        let q = f.q().unwrap();
        assert!(q.all_finite(), "Q overflowed at scale 1e{exp}");
        let rep = verify_qr(&a, &q, &r, None).unwrap();
        assert!(rep.passes(), "scale 1e{exp}: {rep:?}");
    }
}

/// `f32`, the paper's element type, takes the same register core `f64`
/// does on every host (and agrees with the scalar core within the `f32`
/// budget, bit-deterministically per core: `micro_blocks`,
/// `backend_agreement`). A square flat-TS factorization, a square binary
/// tree and a tall TSQR tree (TT kernels), factor and apply, at the
/// `f32`-scaled backward-stability budget and the κ-scaled `|R|` oracle.
#[test]
fn f32_factor_and_apply_pass_f32_scaled_oracles() {
    use tileqr::{EliminationTree, TreePolicy};
    use tileqr_kernels::validate::{check_qr, qr_tolerance};
    use tileqr_matrix::gen::random_matrix;

    let binary = TreePolicy::Fixed(EliminationTree::Binary);
    for (m, n, tree) in [
        (96, 96, TreePolicy::default()),
        (96, 96, binary),
        (256, 32, TreePolicy::Auto),
    ] {
        let a = random_matrix::<f32>(m, n, (m + n) as u64);
        let opts = QrOptions::new().tile_size(16).tree(tree);
        let f = TiledQr::factor(&a, &opts).unwrap();
        let (q, r) = (f.q().unwrap(), f.r());
        let tol = qr_tolerance::<f32>(m, n);
        let rep = check_qr(&a, &q, &r).unwrap();
        assert!(rep.passes(tol), "{m}x{n} factor: {rep:?} vs {tol}");
        let oracle = verify_qr(&a, &q, &r, Some(1e3)).unwrap();
        assert!(oracle.passes(), "{m}x{n} {tree:?}: {oracle:?}");
        assert!(oracle.r_deviation.is_some() && oracle.eps == f64::from(f32::EPSILON));

        // Apply without forming Q: QᵀA = R, and Q(QᵀC) = C on a
        // four-column right-hand side (the narrow tile remainders).
        let scale = a.max_abs() * (m as f32).sqrt();
        let qta = f.apply_qt(&a).unwrap();
        assert!(qta.approx_eq(&r, tol * scale), "{m}x{n}: QᵀA != R");
        let c = random_matrix::<f32>(m, 4, 99);
        let back = f.apply_q(&f.apply_qt(&c).unwrap()).unwrap();
        assert!(
            back.approx_eq(&c, tol * (m as f32).sqrt()),
            "{m}x{n}: Q Qᵀ C != C"
        );
    }
}

/// Tall and very skinny: 2048×16 and 16384×16 at b = 16 are 128×1 and
/// 1024×1 tile grids, the tallest DAGs the builder lays out. Every tree,
/// `f64` and `f32`, on columns graded over four decades. The thin
/// `Q₁ = Q [I; 0]` (forming the full `m × m` `Q` would take gigabytes)
/// must be orthogonal and `A = Q₁ R₁` must hold at the plain
/// `ε·poly(m, n)` budget: Householder QR is backward stable whatever the
/// column scaling, so no condition allowance widens it.
#[test]
fn tall_and_very_skinny_grids_stay_orthogonal_on_every_tree() {
    use tileqr::{EliminationTree, Scalar, TreePolicy};
    use tileqr_kernels::validate::{check_qr, qr_tolerance};
    use tileqr_matrix::gen::random_matrix;

    fn check<T: Scalar>(m: usize, tree: EliminationTree) {
        let n = 16;
        let mut a = random_matrix::<T>(m, n, m as u64);
        for j in 0..n {
            let scale = T::from_f64(10f64.powf(-4.0 * j as f64 / (n - 1) as f64));
            for i in 0..m {
                a[(i, j)] *= scale;
            }
        }
        let opts = QrOptions::new().tile_size(16).tree(TreePolicy::Fixed(tree));
        let f = TiledQr::factor(&a, &opts).unwrap();
        let top = |i: usize, j: usize| T::from_f64(if i == j { 1.0 } else { 0.0 });
        let q1 = f.apply_q(&Matrix::from_fn(m, n, top)).unwrap();
        let r1 = f.r().submatrix(0, 0, n, n).unwrap();
        let tol = qr_tolerance::<T>(m, n);
        let rep = check_qr(&a, &q1, &r1).unwrap();
        assert!(rep.passes(tol), "{m}x{n} {tree}: {rep:?} vs {tol:?}");
    }

    for m in [2048, 16384] {
        let mut trees = EliminationTree::zoo();
        let tsqr = EliminationTree::tsqr_domain(m / 16);
        trees.push(EliminationTree::Plateau(tsqr));
        for tree in trees {
            check::<f64>(m, tree);
            check::<f32>(m, tree);
        }
    }
}
