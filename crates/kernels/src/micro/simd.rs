//! AVX2+FMA backend (x86-64, `f64` only): compiled on every x86-64 build,
//! entered only on hosts where [`enabled`] detects both features.
//!
//! This file is the only place in the crate allowed to use `unsafe`
//! (the crate root carries `#![deny(unsafe_code)]`; each use here is an
//! item-scoped `#[allow]` with a SAFETY argument). Exactly two kinds of
//! unsafety appear:
//!
//! 1. **Slice reinterpretation** — the public primitives are generic over
//!    [`Scalar`], so the `f64`-only intrinsic path receives `&[T]` and
//!    casts to `&[f64]` after a `TypeId` equality check ([`enabled`]
//!    returns `false` for every other `T`, and each wrapper re-asserts).
//!    Same size, same alignment, same validity invariants: the cast is a
//!    no-op reinterpretation.
//! 2. **`#[target_feature]` calls** — the blocking skeletons from
//!    [`super`] are monomorphized inside `#[target_feature(enable =
//!    "avx2,fma")]` functions so the [`AvxCore`] register blocks inline
//!    into feature-enabled code. [`enabled`] gates every entry on
//!    `is_x86_feature_detected!`, so the CPU support precondition holds.
//!
//! Determinism: the instruction sequence is fixed per argument shape —
//! vector lanes accumulate in the same fixed pattern as the scalar
//! backend and reduce `(a0+a1)+(a2+a3)` (pairwise across 128-bit halves),
//! with scalar `mul_add` tails. Results differ from the `block` backend
//! by FMA rounding only.

use super::{axpyf_impl, axpyf_lo_impl, axpyf_tri_impl, Core};
use super::{dotf_impl, dotf_lo_impl, dotf_tri_impl, larf_head_impl, rank1f_impl};
use core::arch::x86_64::*;
use std::any::TypeId;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use tileqr_matrix::Scalar;

/// Does the simd backend apply to element type `T` on this host right now?
///
/// True iff `T` is `f64`, the CPU reports AVX2+FMA, and the test hook
/// ([`super::force_backend`]) has not pinned the scalar backend.
pub(crate) fn enabled<T: 'static>() -> bool {
    if TypeId::of::<T>() != TypeId::of::<f64>() {
        return false;
    }
    !super::PIN_BLOCKED.load(Ordering::Relaxed) && detect()
}

fn detect() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// Reinterpret `&[T]` as `&[f64]`.
#[inline(always)]
#[allow(unsafe_code)]
fn cast<T: 'static>(x: &[T]) -> &[f64] {
    assert_eq!(TypeId::of::<T>(), TypeId::of::<f64>());
    // SAFETY: T is f64 (checked above): identical layout, alignment, and
    // bit-validity, so reinterpreting the same region is a no-op.
    unsafe { core::slice::from_raw_parts(x.as_ptr().cast::<f64>(), x.len()) }
}

/// Reinterpret `&mut [T]` as `&mut [f64]`.
#[inline(always)]
#[allow(unsafe_code)]
fn cast_mut<T: 'static>(x: &mut [T]) -> &mut [f64] {
    assert_eq!(TypeId::of::<T>(), TypeId::of::<f64>());
    // SAFETY: as in `cast`; the unique borrow is carried through.
    unsafe { core::slice::from_raw_parts_mut(x.as_mut_ptr().cast::<f64>(), x.len()) }
}

// Each primitive gets a generic wrapper (re-checks [`enabled`] — one
// `TypeId` compare plus a cached feature probe — so the feature
// precondition of the inner call is locally guaranteed) and one
// `#[target_feature]` monomorphization of the shared blocking skeleton,
// so the [`AvxCore`] register blocks inline into feature-enabled code.

/// SAFETY-pattern note: every `unsafe { *_avx(..) }` call below is
/// preceded by an `assert!(enabled::<T>())`, which implies AVX2+FMA were
/// detected at runtime on this CPU.
macro_rules! gated {
    ($call:expr) => {{
        #[allow(unsafe_code)]
        // SAFETY: `enabled` (asserted by the caller one line up) verified
        // AVX2+FMA via `is_x86_feature_detected!`.
        unsafe {
            $call
        }
    }};
}

pub(crate) fn dotf<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(dotf_avx(cast(x), cast(ys), ld, n, cast_mut(out)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn dotf_avx(x: &[f64], ys: &[f64], ld: usize, n: usize, out: &mut [f64]) {
    dotf_impl::<f64, AvxCore>(x, ys, ld, n, out)
}

pub(crate) fn dotf_tri<T: Scalar>(
    x: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    out: &mut [T],
) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(dotf_tri_avx(cast(x), cast(ys), ld, n, len0, cast_mut(out)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn dotf_tri_avx(x: &[f64], ys: &[f64], ld: usize, n: usize, len0: usize, out: &mut [f64]) {
    dotf_tri_impl::<f64, AvxCore>(x, ys, ld, n, len0, out)
}

pub(crate) fn dotf_lo<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(dotf_lo_avx(cast(x), cast(ys), ld, n, cast_mut(out)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn dotf_lo_avx(x: &[f64], ys: &[f64], ld: usize, n: usize, out: &mut [f64]) {
    dotf_lo_impl::<f64, AvxCore>(x, ys, ld, n, out)
}

pub(crate) fn axpyf_sub<T: Scalar>(alphas: &[T], ys: &[T], ld: usize, n: usize, y: &mut [T]) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(axpyf_sub_avx(cast(alphas), cast(ys), ld, n, cast_mut(y)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn axpyf_sub_avx(alphas: &[f64], ys: &[f64], ld: usize, n: usize, y: &mut [f64]) {
    axpyf_impl::<f64, AvxCore, true>(alphas, ys, ld, n, y)
}

pub(crate) fn axpyf_tri_add<T: Scalar>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [T],
) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(axpyf_tri_add_avx(
        cast(alphas),
        cast(ys),
        ld,
        n,
        len0,
        cast_mut(y)
    ))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn axpyf_tri_add_avx(
    alphas: &[f64],
    ys: &[f64],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [f64],
) {
    axpyf_tri_impl::<f64, AvxCore, false>(alphas, ys, ld, n, len0, y)
}

pub(crate) fn axpyf_tri_sub<T: Scalar>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [T],
) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(axpyf_tri_sub_avx(
        cast(alphas),
        cast(ys),
        ld,
        n,
        len0,
        cast_mut(y)
    ))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn axpyf_tri_sub_avx(
    alphas: &[f64],
    ys: &[f64],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [f64],
) {
    axpyf_tri_impl::<f64, AvxCore, true>(alphas, ys, ld, n, len0, y)
}

pub(crate) fn axpyf_lo_sub<T: Scalar>(alphas: &[T], ys: &[T], ld: usize, n: usize, y: &mut [T]) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(axpyf_lo_sub_avx(cast(alphas), cast(ys), ld, n, cast_mut(y)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn axpyf_lo_sub_avx(alphas: &[f64], ys: &[f64], ld: usize, n: usize, y: &mut [f64]) {
    axpyf_lo_impl::<f64, AvxCore, true>(alphas, ys, ld, n, y)
}

pub(crate) fn rank1f_sub<T: Scalar>(
    x: &[T],
    w: &[T],
    ys: &mut [T],
    ld: usize,
    len: usize,
    n: usize,
) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(rank1f_sub_avx(cast(x), cast(w), cast_mut(ys), ld, len, n))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn rank1f_sub_avx(x: &[f64], w: &[f64], ys: &mut [f64], ld: usize, len: usize, n: usize) {
    rank1f_impl::<f64, AvxCore>(x, w, ys, ld, len, n)
}

pub(crate) fn larf_head<T: Scalar>(vk: &[T], tau: T, cols: &mut [T], ld: usize, n: usize) {
    assert!(enabled::<T>(), "simd backend entered without gating");
    gated!(larf_head_avx(cast(vk), tau.to_f64(), cast_mut(cols), ld, n))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn larf_head_avx(vk: &[f64], tau: f64, cols: &mut [f64], ld: usize, n: usize) {
    larf_head_impl::<f64, AvxCore>(vk, tau, cols, ld, n)
}

/// Register core in AVX2+FMA intrinsics: one `f64x4` accumulator per
/// column, FMA-contracted multiply-adds, scalar `mul_add` tails.
///
/// These methods contain `unsafe` intrinsic blocks that are only correct
/// on an AVX2+FMA CPU; they are reachable solely through the
/// `#[target_feature]` monomorphizations above, which [`enabled`] gates.
pub(crate) struct AvxCore;

/// Horizontal sum of a `f64x4`, fixed tree `(a0+a1)+(a2+a3)` via the
/// 128-bit halves.
#[inline(always)]
#[allow(unsafe_code)]
fn hsum(v: __m256d) -> f64 {
    // SAFETY: AVX intrinsics; callers run under `target_feature(avx2)`.
    unsafe {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi); // (a0+a2, a1+a3)
        let t = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(t)
    }
}

impl Core<f64> for AvxCore {
    #[inline(always)]
    #[allow(unsafe_code)]
    fn dot1(x: &[f64], c: &[f64]) -> f64 {
        let n = x.len();
        let c = &c[..n];
        // SAFETY: loads stay in-bounds (`i + 4 <= n` guards every 4-wide
        // load of slices of length >= n); AVX2+FMA per module contract.
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= n {
                let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                let cv = _mm256_loadu_pd(c.as_ptr().add(i));
                acc = _mm256_fmadd_pd(xv, cv, acc);
                i += 4;
            }
            let mut s = hsum(acc);
            while i < n {
                s = x[i].mul_add(c[i], s);
                i += 1;
            }
            s
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn dot4(x: &[f64], c0: &[f64], c1: &[f64], c2: &[f64], c3: &[f64]) -> [f64; 4] {
        let n = x.len();
        let (c0, c1, c2, c3) = (&c0[..n], &c1[..n], &c2[..n], &c3[..n]);
        // SAFETY: as in `dot1`; each column slice has length >= n.
        unsafe {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= n {
                let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(c0.as_ptr().add(i)), a0);
                a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(c1.as_ptr().add(i)), a1);
                a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(c2.as_ptr().add(i)), a2);
                a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(c3.as_ptr().add(i)), a3);
                i += 4;
            }
            let mut s = [hsum(a0), hsum(a1), hsum(a2), hsum(a3)];
            while i < n {
                let xv = x[i];
                s[0] = xv.mul_add(c0[i], s[0]);
                s[1] = xv.mul_add(c1[i], s[1]);
                s[2] = xv.mul_add(c2[i], s[2]);
                s[3] = xv.mul_add(c3[i], s[3]);
                i += 1;
            }
            s
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn axpy1<const SUB: bool>(a: f64, c: &[f64], y: &mut [f64]) {
        let n = y.len();
        let c = &c[..n];
        let a = if SUB { -a } else { a };
        // SAFETY: in-bounds 4-wide loads/stores under `i + 4 <= n`.
        unsafe {
            let av = _mm256_set1_pd(a);
            let mut i = 0;
            while i + 4 <= n {
                let yv = _mm256_loadu_pd(y.as_ptr().add(i));
                let cv = _mm256_loadu_pd(c.as_ptr().add(i));
                _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(av, cv, yv));
                i += 4;
            }
            while i < n {
                y[i] = a.mul_add(c[i], y[i]);
                i += 1;
            }
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn axpy4<const SUB: bool>(
        a: [f64; 4],
        c0: &[f64],
        c1: &[f64],
        c2: &[f64],
        c3: &[f64],
        y: &mut [f64],
    ) {
        let n = y.len();
        let (c0, c1, c2, c3) = (&c0[..n], &c1[..n], &c2[..n], &c3[..n]);
        let s = if SUB { -1.0 } else { 1.0 };
        // SAFETY: in-bounds 4-wide loads/stores under `i + 4 <= n`.
        unsafe {
            let a0 = _mm256_set1_pd(s * a[0]);
            let a1 = _mm256_set1_pd(s * a[1]);
            let a2 = _mm256_set1_pd(s * a[2]);
            let a3 = _mm256_set1_pd(s * a[3]);
            let mut i = 0;
            while i + 4 <= n {
                let mut yv = _mm256_loadu_pd(y.as_ptr().add(i));
                yv = _mm256_fmadd_pd(a0, _mm256_loadu_pd(c0.as_ptr().add(i)), yv);
                yv = _mm256_fmadd_pd(a1, _mm256_loadu_pd(c1.as_ptr().add(i)), yv);
                yv = _mm256_fmadd_pd(a2, _mm256_loadu_pd(c2.as_ptr().add(i)), yv);
                yv = _mm256_fmadd_pd(a3, _mm256_loadu_pd(c3.as_ptr().add(i)), yv);
                _mm256_storeu_pd(y.as_mut_ptr().add(i), yv);
                i += 4;
            }
            while i < n {
                let mut t = y[i];
                t = (s * a[0]).mul_add(c0[i], t);
                t = (s * a[1]).mul_add(c1[i], t);
                t = (s * a[2]).mul_add(c2[i], t);
                t = (s * a[3]).mul_add(c3[i], t);
                y[i] = t;
                i += 1;
            }
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn rank1_1(x: &[f64], w: f64, c: &mut [f64]) {
        let n = c.len();
        let x = &x[..n];
        // SAFETY: in-bounds 4-wide loads/stores under `i + 4 <= n`.
        unsafe {
            let wv = _mm256_set1_pd(w);
            let mut i = 0;
            while i + 4 <= n {
                let cv = _mm256_loadu_pd(c.as_ptr().add(i));
                let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                _mm256_storeu_pd(c.as_mut_ptr().add(i), _mm256_fnmadd_pd(wv, xv, cv));
                i += 4;
            }
            while i < n {
                c[i] = (-w).mul_add(x[i], c[i]);
                i += 1;
            }
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn rank1_4(
        x: &[f64],
        w: [f64; 4],
        c0: &mut [f64],
        c1: &mut [f64],
        c2: &mut [f64],
        c3: &mut [f64],
    ) {
        let n = c0.len();
        let x = &x[..n];
        // SAFETY: in-bounds 4-wide loads/stores under `i + 4 <= n`; the
        // four column slices are disjoint by the skeleton's split_at_mut.
        unsafe {
            let w0 = _mm256_set1_pd(w[0]);
            let w1 = _mm256_set1_pd(w[1]);
            let w2 = _mm256_set1_pd(w[2]);
            let w3 = _mm256_set1_pd(w[3]);
            let mut i = 0;
            while i + 4 <= n {
                let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                let v0 = _mm256_loadu_pd(c0.as_ptr().add(i));
                let v1 = _mm256_loadu_pd(c1.as_ptr().add(i));
                let v2 = _mm256_loadu_pd(c2.as_ptr().add(i));
                let v3 = _mm256_loadu_pd(c3.as_ptr().add(i));
                _mm256_storeu_pd(c0.as_mut_ptr().add(i), _mm256_fnmadd_pd(w0, xv, v0));
                _mm256_storeu_pd(c1.as_mut_ptr().add(i), _mm256_fnmadd_pd(w1, xv, v1));
                _mm256_storeu_pd(c2.as_mut_ptr().add(i), _mm256_fnmadd_pd(w2, xv, v2));
                _mm256_storeu_pd(c3.as_mut_ptr().add(i), _mm256_fnmadd_pd(w3, xv, v3));
                i += 4;
            }
            while i < n {
                let xv = x[i];
                c0[i] = (-w[0]).mul_add(xv, c0[i]);
                c1[i] = (-w[1]).mul_add(xv, c1[i]);
                c2[i] = (-w[2]).mul_add(xv, c2[i]);
                c3[i] = (-w[3]).mul_add(xv, c3[i]);
                i += 1;
            }
        }
    }
}
