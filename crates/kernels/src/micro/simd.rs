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
//! backend and reduce `(a0+a1)+(a2+a3)` (pairwise across 128-bit halves);
//! the dot tile folds its ragged last rows into the lanes under a load
//! mask, the axpy/rank-1 blocks take scalar `mul_add` tails. Results differ
//! from the `block` backend by FMA rounding and, for lengths that are not
//! a multiple of four, by which lane the tail lands in.

use super::{dotf_impl, gemm_nn_sub_impl, gemm_tn_impl, rank1f_impl};
use super::{Cols, ColsMut, Core, Shape};
use core::arch::x86_64::*;
use std::any::TypeId;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use tileqr_matrix::Scalar;

/// Does the simd backend apply to element type `T` on this host right now?
///
/// True iff [`supported`] and the test hook ([`super::force_backend`]) has
/// not pinned the scalar backend.
pub(crate) fn enabled<T: 'static>() -> bool {
    supported::<T>() && !super::PIN_BLOCKED.load(Ordering::Relaxed)
}

/// The precondition of every entry point below: `T` is `f64` and the CPU
/// reports AVX2+FMA. The pin is a dispatch preference, not part of it — a
/// concurrent `force_backend` between the dispatcher's check and the entry
/// changes nothing the `unsafe` code relies on.
fn supported<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>() && detect()
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

// Each primitive gets a generic wrapper (re-checks [`supported`] — one
// `TypeId` compare plus a cached feature probe — so the feature
// precondition of the inner call is locally guaranteed) and one
// `#[target_feature]` monomorphization of the shared blocking skeleton,
// so the [`AvxCore`] register blocks inline into feature-enabled code.

/// SAFETY-pattern note: every `unsafe { *_avx(..) }` call below is
/// preceded by an `assert!(supported::<T>())`, which implies AVX2+FMA were
/// detected at runtime on this CPU.
macro_rules! gated {
    ($call:expr) => {{
        #[allow(unsafe_code)]
        // SAFETY: `supported` (asserted by the caller one line up) verified
        // AVX2+FMA via `is_x86_feature_detected!`.
        unsafe {
            $call
        }
    }};
}

pub(crate) fn dotf<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    assert!(supported::<T>(), "simd backend entered without gating");
    gated!(dotf_avx(cast(x), cast(ys), ld, n, cast_mut(out)))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn dotf_avx(x: &[f64], ys: &[f64], ld: usize, n: usize, out: &mut [f64]) {
    dotf_impl::<f64, AvxCore>(x, ys, ld, n, out)
}

pub(crate) fn rank1f_sub<T: Scalar>(
    x: &[T],
    w: &[T],
    ys: &mut [T],
    ld: usize,
    len: usize,
    n: usize,
) {
    assert!(supported::<T>(), "simd backend entered without gating");
    gated!(rank1f_sub_avx(cast(x), cast(w), cast_mut(ys), ld, len, n))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn rank1f_sub_avx(x: &[f64], w: &[f64], ys: &mut [f64], ld: usize, len: usize, n: usize) {
    rank1f_impl::<f64, AvxCore>(x, w, ys, ld, len, n)
}

pub(crate) fn gemm_tn<T: Scalar>(
    x: Cols<T>,
    shape: Shape,
    y: Cols<T>,
    add: Option<Cols<T>>,
    out: ColsMut<T>,
    dims: (usize, usize, usize),
) {
    assert!(supported::<T>(), "simd backend entered without gating");
    fn f<T: 'static>((data, ld): Cols<T>) -> Cols<f64> {
        (cast(data), ld)
    }
    gated!(gemm_tn_avx(
        f(x),
        shape,
        f(y),
        add.map(f),
        (cast_mut(out.0), out.1),
        dims
    ))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn gemm_tn_avx(
    x: Cols<f64>,
    shape: Shape,
    y: Cols<f64>,
    add: Option<Cols<f64>>,
    out: ColsMut<f64>,
    dims: (usize, usize, usize),
) {
    gemm_tn_impl::<f64, AvxCore>(x, shape, y, add, out, dims)
}

pub(crate) fn gemm_nn_sub<T: Scalar>(
    (a, lda): Cols<T>,
    shape: Shape,
    (b, ldb): Cols<T>,
    (c, ldc): ColsMut<T>,
    dims: (usize, usize, usize),
) {
    assert!(supported::<T>(), "simd backend entered without gating");
    gated!(gemm_nn_sub_avx(
        (cast(a), lda),
        shape,
        (cast(b), ldb),
        (cast_mut(c), ldc),
        dims
    ))
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn gemm_nn_sub_avx(
    a: Cols<f64>,
    shape: Shape,
    b: Cols<f64>,
    c: ColsMut<f64>,
    dims: (usize, usize, usize),
) {
    gemm_nn_sub_impl::<f64, AvxCore>(a, shape, b, c, dims)
}

/// Register core in AVX2+FMA intrinsics: one `f64x4` accumulator per
/// column, FMA-contracted multiply-adds, masked or scalar `mul_add` tails.
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

/// Load masks for a ragged last vector: the window starting at `4 - r` has
/// its first `r` lanes set.
static TAIL_MASK: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

impl Core<f64> for AvxCore {
    #[inline(always)]
    #[allow(unsafe_code)]
    fn axpy1(a: f64, c: &[f64], y: &mut [f64]) {
        let n = y.len();
        let c = &c[..n];
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

    #[inline(always)]
    #[allow(unsafe_code)]
    fn tn_tile<const MR: usize, const NR: usize>(
        x: [&[f64]; MR],
        y: [&[f64]; NR],
    ) -> [[f64; MR]; NR] {
        let k = x[0].len();
        let (x, y) = (x.map(|c| &c[..k]), y.map(|c| &c[..k]));
        let mut r = [[0.0; MR]; NR];
        // SAFETY: every slice was cut to length k above and each 4-wide load
        // reads rows `4s..4s+4` with `s < k/4`; the masked loads touch only
        // the `k % 4` rows from `k/4*4` on (the mask's leading lanes); a
        // 4-wide store fills one `[f64; 4]`.
        unsafe {
            let mut acc = [[_mm256_setzero_pd(); MR]; NR];
            for s in 0..k / 4 {
                let yv: [__m256d; NR] =
                    std::array::from_fn(|b| _mm256_loadu_pd(y[b].as_ptr().add(4 * s)));
                for a in 0..MR {
                    let xv = _mm256_loadu_pd(x[a].as_ptr().add(4 * s));
                    for b in 0..NR {
                        acc[b][a] = _mm256_fmadd_pd(xv, yv[b], acc[b][a]);
                    }
                }
            }
            // The ragged last rows ride the same lanes under a load mask, so
            // there is no scalar tail.
            if k % 4 != 0 {
                let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(4 - k % 4).cast());
                let base = k / 4 * 4;
                let yv: [__m256d; NR] =
                    std::array::from_fn(|b| _mm256_maskload_pd(y[b].as_ptr().add(base), mask));
                for a in 0..MR {
                    let xv = _mm256_maskload_pd(x[a].as_ptr().add(base), mask);
                    for b in 0..NR {
                        acc[b][a] = _mm256_fmadd_pd(xv, yv[b], acc[b][a]);
                    }
                }
            }
            for b in 0..NR {
                if MR == 4 {
                    // Four horizontal sums at once, each (l0+l1)+(l2+l3).
                    let t0 = _mm256_hadd_pd(acc[b][0], acc[b][1]);
                    let t1 = _mm256_hadd_pd(acc[b][2], acc[b][3]);
                    let lo = _mm256_permute2f128_pd::<0x20>(t0, t1);
                    let hi = _mm256_permute2f128_pd::<0x31>(t0, t1);
                    _mm256_storeu_pd(r[b].as_mut_ptr(), _mm256_add_pd(lo, hi));
                } else {
                    for a in 0..MR {
                        r[b][a] = hsum(acc[b][a]);
                    }
                }
            }
        }
        r
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn nn_tile<const MV: usize, const NR: usize>(
        (a, lda): Cols<f64>,
        b: [&[f64]; NR],
        (c, ldc): ColsMut<f64>,
    ) {
        let kk = b[0].len();
        let rows = 4 * MV;
        if kk == 0 {
            return;
        }
        assert!(a.len() >= (kk - 1) * lda + rows && b.iter().all(|bj| bj.len() >= kk));
        assert!(c.len() >= (NR - 1) * ldc + rows);
        // SAFETY: column p of the tile is a[p*lda .. p*lda + rows] with
        // p < kk, inside `a` by the first assert, which also bounds the
        // reads b[j][p]; the loads and stores on column j cover
        // c[j*ldc .. j*ldc + rows] with j < NR, inside `c` by the second.
        unsafe {
            let mut acc = [[_mm256_setzero_pd(); MV]; NR];
            let mut ap = a.as_ptr();
            for p in 0..kk {
                let av: [__m256d; MV] = std::array::from_fn(|v| _mm256_loadu_pd(ap.add(4 * v)));
                for j in 0..NR {
                    let bv = _mm256_set1_pd(*b[j].get_unchecked(p));
                    for v in 0..MV {
                        acc[j][v] = _mm256_fmadd_pd(av[v], bv, acc[j][v]);
                    }
                }
                ap = ap.wrapping_add(lda);
            }
            for (j, accj) in acc.into_iter().enumerate() {
                for (v, s) in accj.into_iter().enumerate() {
                    let cp = c.as_mut_ptr().add(j * ldc + 4 * v);
                    _mm256_storeu_pd(cp, _mm256_sub_pd(_mm256_loadu_pd(cp), s));
                }
            }
        }
    }
}
