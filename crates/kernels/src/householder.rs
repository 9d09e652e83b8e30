//! Elementary Householder reflector generation (LAPACK `larfg`).

use tileqr_matrix::{ops, Scalar};

/// Result of generating an elementary reflector.
///
/// The reflector is `H = I − τ v vᵀ` with `v = [1, tail]ᵀ`; applying it to
/// the original vector `[alpha, x]ᵀ` yields `[beta, 0, …, 0]ᵀ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HouseholderReflector<T> {
    /// Value that replaces the leading element after reflection.
    pub beta: T,
    /// Reflector scale `τ`; `τ = 0` means `H = I`.
    pub tau: T,
}

/// Generate an elementary Householder reflector (LAPACK `dlarfg`).
///
/// On entry `alpha` is the leading element and `tail` the remaining
/// elements of the vector to annihilate. On exit `tail` holds `v[1..]`
/// (with `v[0] = 1` implicit) and the returned [`HouseholderReflector`]
/// carries `beta` (the new leading element) and `τ`.
///
/// `beta` takes the sign opposite to `alpha` (the numerically stable
/// choice, matching Algorithm 1's `αₖ = −sgn(aₖₖ)‖aₖ‖`), so the divisor
/// `alpha − beta` never suffers cancellation.
///
/// The norm comes from a plain sum of squares whenever that sum can be
/// trusted — finite, so no square overflowed, and at least `safmin / eps`,
/// so the squares that underflowed are below its rounding error — and from
/// the scaled two-pass [`ops::nrm2`] and `hypot` otherwise. Which path runs
/// depends on the data; both give `beta` to working precision, and the
/// choice is the same on every run. When `|beta|` itself is below
/// `safmin / eps`, so that `1 / (alpha − beta)` could overflow, the vector
/// is scaled up first and `beta` scaled back afterwards, as `dlarfg` does.
pub fn larfg<T: Scalar>(mut alpha: T, tail: &mut [T]) -> HouseholderReflector<T> {
    let safmin = T::MIN_POSITIVE / T::EPSILON;
    let ssq = sum_squares(tail);
    let total = alpha * alpha + ssq;
    let mut beta = if ssq >= safmin && total.is_finite() {
        -total.sqrt().copysign(alpha)
    } else {
        let xnorm = ops::nrm2(tail);
        if xnorm == T::ZERO {
            // Nothing to annihilate: H = I.
            return HouseholderReflector {
                beta: alpha,
                tau: T::ZERO,
            };
        }
        -Scalar::hypot(alpha, xnorm).copysign(alpha)
    };
    let mut rescales = 0;
    while beta.abs() < safmin && rescales < 20 {
        rescales += 1;
        let up = T::ONE / safmin;
        tail.iter_mut().for_each(|v| *v *= up);
        beta *= up;
        alpha *= up;
    }
    if rescales > 0 {
        beta = -Scalar::hypot(alpha, ops::nrm2(tail)).copysign(alpha);
    }
    let tau = (beta - alpha) / beta;
    let inv = T::ONE / (alpha - beta);
    for v in tail.iter_mut() {
        *v *= inv;
    }
    for _ in 0..rescales {
        beta *= safmin;
    }
    HouseholderReflector { beta, tau }
}

/// `Σ xᵢ²` on eight independent accumulators with a fixed reduction tree:
/// no division and no sequential chain, so it vectorizes.
fn sum_squares<T: Scalar>(x: &[T]) -> T {
    let mut acc = [T::ZERO; 8];
    let mut chunks = x.chunks_exact(8);
    for c in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v * v;
        }
    }
    for (a, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *a += v * v;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::ops::nrm2;

    /// Apply H = I - tau v v^T to [alpha, tail_orig] and return the result.
    fn apply_reflector(alpha: f64, tail_orig: &[f64], v_tail: &[f64], tau: f64) -> Vec<f64> {
        let mut x = vec![alpha];
        x.extend_from_slice(tail_orig);
        let mut v = vec![1.0];
        v.extend_from_slice(v_tail);
        let w: f64 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
        x.iter().zip(&v).map(|(xi, vi)| xi - tau * w * vi).collect()
    }

    #[test]
    fn annihilates_tail() {
        let alpha = 3.0;
        let orig = vec![1.0, -2.0, 0.5];
        let mut tail = orig.clone();
        let h = larfg(alpha, &mut tail);
        let reflected = apply_reflector(alpha, &orig, &tail, h.tau);
        assert!((reflected[0] - h.beta).abs() < 1e-14);
        for &r in &reflected[1..] {
            assert!(r.abs() < 1e-14, "tail not annihilated: {r}");
        }
    }

    #[test]
    fn preserves_norm() {
        let alpha = -1.5;
        let orig = vec![2.0, 4.0];
        let mut tail = orig.clone();
        let h = larfg(alpha, &mut tail);
        let full_norm = nrm2(&[alpha, 2.0, 4.0]);
        assert!((h.beta.abs() - full_norm).abs() < 1e-14);
    }

    #[test]
    fn beta_opposes_alpha_sign() {
        let mut tail = vec![1.0];
        let h = larfg(5.0, &mut tail);
        assert!(h.beta < 0.0);
        let mut tail = vec![1.0];
        let h = larfg(-5.0, &mut tail);
        assert!(h.beta > 0.0);
    }

    #[test]
    fn zero_tail_gives_identity() {
        let mut tail = vec![0.0, 0.0];
        let h = larfg(7.0, &mut tail);
        assert_eq!(h.tau, 0.0);
        assert_eq!(h.beta, 7.0);
        assert_eq!(tail, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_tail_gives_identity() {
        let mut tail: Vec<f64> = vec![];
        let h = larfg(-2.0, &mut tail);
        assert_eq!(h.tau, 0.0);
        assert_eq!(h.beta, -2.0);
    }

    #[test]
    fn tau_in_stable_range() {
        // For the sign convention used, tau is always in [1, 2].
        for seed in 0..20 {
            let alpha = (seed as f64 - 10.0) * 0.7 + 0.1;
            let mut tail = vec![0.3 * seed as f64 + 0.1, -0.2];
            let h = larfg(alpha, &mut tail);
            assert!((1.0..=2.0).contains(&h.tau), "tau {} out of range", h.tau);
        }
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut tail = vec![1e200, -1e200];
        let h = larfg(1e200, &mut tail);
        assert!(h.beta.is_finite());
        assert!(tail.iter().all(|v| v.is_finite()));
    }

    /// `larfg` on `[alpha; tail]` must give a finite reflector with
    /// `|v| <= 1`, `tau` in the stable range and `|beta|` equal to the
    /// vector's norm — checked against an `f64` reference on the input
    /// scaled to unit size, so the check itself cannot over- or underflow.
    fn check_extreme<T: Scalar>(alpha: T, tail: &[T], what: &str) {
        let mut v = tail.to_vec();
        let h = larfg(alpha, &mut v);
        assert!(h.beta.is_finite() && h.tau.is_finite(), "{what}: {h:?}");
        assert!(
            v.iter().all(|x| x.abs() <= T::ONE),
            "{what}: v = {v:?} (tau {})",
            h.tau
        );
        let eps = T::EPSILON.to_f64();
        let x: Vec<f64> = std::iter::once(alpha)
            .chain(tail.iter().copied())
            .map(Scalar::to_f64)
            .collect();
        let big = x.iter().fold(0.0f64, |m, a| m.max(a.abs()));
        if big == 0.0 || tail.iter().all(|&t| t == T::ZERO) {
            assert_eq!((h.tau, h.beta), (T::ZERO, alpha), "{what}: H must be I");
            return;
        }
        let unit: Vec<f64> = x.iter().map(|a| a / big).collect();
        let norm = nrm2(&unit);
        let tau = h.tau.to_f64();
        assert!((1.0..=2.0).contains(&tau), "{what}: tau {tau}");
        // Subnormal results carry absolute, not relative, precision.
        let floor = T::MIN_POSITIVE.to_f64() * eps / big;
        let beta = h.beta.to_f64() / big;
        assert!(
            (beta.abs() - norm).abs() <= 8.0 * eps * norm + floor,
            "{what}: |beta| {beta:e} vs norm {norm:e}"
        );
        assert!(beta * unit[0] <= 0.0, "{what}: beta must oppose alpha");
        // H [alpha; tail] = [beta; 0]: w = tau · uᵀx, x − w u.
        let u: Vec<f64> = std::iter::once(1.0)
            .chain(v.iter().map(|a| a.to_f64()))
            .collect();
        let w = tau * u.iter().zip(&unit).map(|(a, b)| a * b).sum::<f64>();
        for (i, (ui, xi)) in u.iter().zip(&unit).enumerate().skip(1) {
            let left = xi - w * ui;
            assert!(
                left.abs() <= 16.0 * eps * norm + floor,
                "{what}: entry {i} left at {left:e}"
            );
        }
    }

    #[test]
    fn extreme_scales_give_finite_accurate_reflectors() {
        // Every input here is one the plain sum of squares cannot serve
        // (it overflows, or underflows to less than safmin/eps), so these
        // are also the fallback-norm tests; the tiny and subnormal ones
        // need the safmin rescale loop or `1 / (alpha − beta)` overflows.
        let pattern = [0.3, -0.7, 0.2, 0.9, -0.5, 0.1, 0.8, -0.4, 0.6, -0.25];
        for scale in [1e300, -1e300, 1e-300, -1e-300, 3e-310, 5e-320] {
            let col: Vec<f64> = pattern.iter().map(|p| p * scale).collect();
            check_extreme(col[0], &col[1..], &format!("f64 x {scale:e}"));
            check_extreme(0.0, &col[1..], &format!("f64 x {scale:e}, alpha 0"));
        }
        for scale in [1e37f32, -1e37, 1e-37, -1e-37, 3e-40, 7e-44] {
            let col: Vec<f32> = pattern.iter().map(|&p| p as f32 * scale).collect();
            check_extreme(col[0], &col[1..], &format!("f32 x {scale:e}"));
            check_extreme(0.0, &col[1..], &format!("f32 x {scale:e}, alpha 0"));
        }
        // One huge entry among tiny ones, either side of alpha.
        check_extreme(1e-200, &[1e-200, 1e200, -1e-200], "f64 huge in tail");
        check_extreme(1e200, &[1e-200, -1e-200, 1e-200], "f64 huge alpha");
        check_extreme(1e-30f32, &[1e-30, 1e30, -1e-30], "f32 huge in tail");
        check_extreme(1e30f32, &[1e-30, -1e-30, 1e-30], "f32 huge alpha");
        // Exact zeros: nothing to annihilate.
        check_extreme(0.0, &[0.0; 9], "f64 zero column");
        check_extreme(-2.5f32, &[0.0; 3], "f32 zero tail");
    }

    #[test]
    fn fast_norm_agrees_with_the_scaled_norm() {
        // On ordinary data the sum of squares is what runs; it must give
        // the same reflector as the scaled two-pass norm to rounding.
        for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let tail: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 23) as f64 - 11.3)
                .collect();
            let alpha = 4.25;
            let mut v = tail.clone();
            let h = larfg(alpha, &mut v);
            let want = -Scalar::hypot(alpha, nrm2(&tail));
            assert!(
                (h.beta - want).abs() <= 4.0 * f64::EPSILON * want.abs(),
                "len {len}"
            );
            check_extreme(alpha, &tail, &format!("len {len}"));
        }
    }
}
