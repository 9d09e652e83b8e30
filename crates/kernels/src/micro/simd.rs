//! Vector backend (x86-64): the register-level bodies of [`Core`], written
//! once over a small [`Vector`] abstraction and instantiated four times —
//! `f64x8` + `f32x16` (AVX-512F/VL) and `f64x4` + `f32x8` (AVX2+FMA). All
//! four are compiled on every x86-64 build; a host enters the widest width
//! it detects and only that one.
//!
//! This file is the only place in the crate allowed to use `unsafe` (the
//! crate root carries `#![deny(unsafe_code)]`; each use here is an
//! item-scoped `#[allow]` with a SAFETY argument). Three kinds appear:
//! **slice reinterpretation** ([`cast`]: the primitives are generic over
//! [`Scalar`], the instantiations are over `f32` and `f64`);
//! **`#[target_feature]` calls** (the skeletons from [`super`] are
//! monomorphized inside feature-enabled functions so the [`VecCore`] bodies
//! inline there; an entry point takes a [`Pick`], which only [`pick`] can
//! make and only for features `is_x86_feature_detected!` reported); and
//! **intrinsics on raw pointers** (every body asserts its slices first and
//! says which accesses that covers).
//!
//! Determinism: the instruction sequence is fixed per argument shape and
//! instantiation — element `i` of a dot accumulates in lane `i % LANES`, a
//! ragged last vector rides the same lanes under a mask (a native `__mmask`
//! at 512 bits, a compared index vector at 256), lanes reduce by halving.

use super::{dotf_impl, gemm_nn_sub_impl, gemm_tn_impl, rank1f_impl};
use super::{Cols, ColsMut, Core, DotArgs, NnArgs, RankArgs, TnArgs};
use core::arch::x86_64::*;
use std::any::TypeId;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use tileqr_matrix::Scalar;

#[derive(Clone, Copy)]
#[rustfmt::skip]
enum Inst { D256, S256, D512, S512 }

/// Proof that this host can execute one instantiation for the element type
/// asked about: the private field keeps [`pick`] its only maker.
#[derive(Clone, Copy)]
pub(crate) struct Pick(Inst);

/// Width in bits the vector core runs at for the next calls (0: the scalar
/// core runs; `UNSET`: not computed yet): what the CPU reports, cut down by
/// the test pins, in one word so a dispatch is one load.
static WIDTH: AtomicU32 = AtomicU32::new(UNSET);
const UNSET: u32 = u32::MAX;

/// Recompute [`WIDTH`]: 256 with AVX2+FMA, 512 with AVX-512F/VL too unless
/// `narrow`, 0 without either or when `blocked`. Returns the width the
/// vector core runs at when it runs.
pub(super) fn set_pins(blocked: bool, narrow: bool) -> u32 {
    let fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    let wide = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
    let bits = [0, 256, 512][usize::from(fma) + usize::from(fma && wide && !narrow)];
    WIDTH.store(if blocked { 0 } else { bits }, Ordering::Relaxed);
    bits
}

/// No instantiation's `MIN_WORK` is under this.
const MIN_WORK_FLOOR: usize = 32;

/// The instantiation a call on `T` touching `work` elements takes, if any:
/// the active width's for `f64` or `f32`, from its `MIN_WORK` on.
#[inline]
pub(crate) fn pick<T: 'static>(work: usize) -> Option<Pick> {
    // The naive tier's calls are a few nanoseconds long: out before the load.
    if work < MIN_WORK_FLOOR {
        return None;
    }
    let bits = match WIDTH.load(Ordering::Relaxed) {
        // No pin can be in force yet: setting one writes `WIDTH`.
        UNSET => set_pins(false, false),
        bits => bits,
    };
    let is = |e: TypeId| TypeId::of::<T>() == e;
    let (inst, min_work) = match (bits, is(TypeId::of::<f64>()), is(TypeId::of::<f32>())) {
        (512, true, _) => (Inst::D512, __m512d::MIN_WORK),
        (256, true, _) => (Inst::D256, __m256d::MIN_WORK),
        (512, _, true) => (Inst::S512, __m512::MIN_WORK),
        (256, _, true) => (Inst::S256, __m256::MIN_WORK),
        _ => return None,
    };
    (work >= min_work).then_some(Pick(inst))
}

/// `&[T]` as `&[E]`, the same type.
#[inline(always)]
#[allow(unsafe_code)]
fn cast<T: 'static, E: 'static>(x: &[T]) -> &[E] {
    assert_eq!(TypeId::of::<T>(), TypeId::of::<E>());
    // SAFETY: T is E (checked above): identical layout, alignment, and
    // bit-validity, so reinterpreting the same region is a no-op.
    unsafe { core::slice::from_raw_parts(x.as_ptr().cast::<E>(), x.len()) }
}

/// `&mut [T]` as `&mut [E]`, the same type.
#[inline(always)]
#[allow(unsafe_code)]
fn cast_mut<T: 'static, E: 'static>(x: &mut [T]) -> &mut [E] {
    assert_eq!(TypeId::of::<T>(), TypeId::of::<E>());
    // SAFETY: as in `cast`; the unique borrow is carried through.
    unsafe { core::slice::from_raw_parts_mut(x.as_mut_ptr().cast::<E>(), x.len()) }
}

#[inline(always)]
fn cols<T: 'static, E: 'static>((data, ld): Cols<T>) -> Cols<E> {
    (cast(data), ld)
}

/// One module per instantiation: the four shared blocking skeletons
/// monomorphized over `VecCore<$v>` inside `#[target_feature]` functions, at
/// the vector type's tile shape. (Through one generic function taking the
/// skeleton as a closure the intrinsics stop inlining.)
macro_rules! instantiate {
    ($name:ident, $v:ty, $features:literal) => {
        #[allow(unsafe_code)]
        mod $name {
            use super::*;
            type E = <$v as Vector>::Elem;
            type C = VecCore<$v>;

            #[target_feature(enable = $features)]
            pub(super) unsafe fn dotf<T: Scalar>((x, ys, ld, n, out): DotArgs<T>) {
                dotf_impl::<E, C>((cast(x), cast(ys), ld, n, cast_mut(out)))
            }
            #[target_feature(enable = $features)]
            pub(super) unsafe fn rank1f_sub<T: Scalar>((x, w, ys, ld, len, n): RankArgs<T>) {
                rank1f_impl::<E, C>((cast(x), cast(w), cast_mut(ys), ld, len, n))
            }
            #[target_feature(enable = $features)]
            pub(super) unsafe fn gemm_tn<T: Scalar>((x, shape, y, add, out, dims): TnArgs<T>) {
                let (x, y, add, out) = (cols(x), cols(y), add.map(cols), (cast_mut(out.0), out.1));
                gemm_tn_impl::<E, C, { <$v>::TN_MR }, { <$v>::TN_NR }>((
                    x, shape, y, add, out, dims,
                ))
            }
            #[target_feature(enable = $features)]
            pub(super) unsafe fn gemm_nn_sub<T: Scalar>((a, shape, b, c, dims): NnArgs<T>) {
                let args = (cols(a), shape, cols(b), (cast_mut(c.0), c.1), dims);
                gemm_nn_sub_impl::<E, C, { <$v>::NN_MV }, { <$v>::NN_NR }>(args)
            }
        }
    };
}
instantiate!(d256, __m256d, "avx2,fma");
instantiate!(s256, __m256, "avx2,fma");
instantiate!(d512, __m512d, "avx512f,avx512vl,avx2,fma");
instantiate!(s512, __m512, "avx512f,avx512vl,avx2,fma");

/// The entry point `$f` of the vector backend: `$f` of the instantiation a
/// [`Pick`] names.
macro_rules! entry {
    ($f:ident, $args:ident) => {
        #[inline(always)]
        pub(crate) fn $f<T: Scalar>(Pick(inst): Pick, args: $args<T>) {
            #[allow(unsafe_code)]
            // SAFETY: a `Pick` is made by `pick` alone, for an instantiation
            // at or below the width `set_pins` read from the CPU, so the
            // features the callee enables are present.
            unsafe {
                match inst {
                    Inst::D256 => d256::$f(args),
                    Inst::S256 => s256::$f(args),
                    Inst::D512 => d512::$f(args),
                    Inst::S512 => s512::$f(args),
                }
            }
        }
    };
}
entry!(dotf, DotArgs);
entry!(rank1f_sub, RankArgs);
entry!(gemm_tn, TnArgs);
entry!(gemm_nn_sub, NnArgs);

/// One vector register of `LANES` elements and the handful of operations
/// the bodies below are written in; the consts are the instantiation's
/// register tiles (DESIGN §14 has the table and what lost to it).
///
/// # Safety
///
/// Every method is an intrinsic of the implementing width: the caller runs
/// under a `#[target_feature]` that enables it. `load`/`store` touch `LANES`
/// elements from `p`, the `_head` forms only the lanes the mask keeps.
#[allow(unsafe_code)]
pub(crate) trait Vector: Copy {
    type Elem: Scalar;
    type Mask: Copy;
    const LANES: usize;
    /// `gemm_tn` tile: columns of `X` by columns of `Y`.
    const TN_MR: usize = 4;
    const TN_NR: usize;
    /// `gemm_nn_sub` tile: vectors of rows by columns of `C`.
    const NN_MV: usize = 2;
    const NN_NR: usize;
    /// Touched elements from which a level-1.5 call is worth its entry
    /// (feature-enabled code cannot inline into its callers).
    const MIN_WORK: usize;

    unsafe fn zero() -> Self;
    unsafe fn splat(x: Self::Elem) -> Self;
    unsafe fn load(p: *const Self::Elem) -> Self;
    unsafe fn store(self, p: *mut Self::Elem);
    /// Mask keeping the first `n <= LANES` lanes.
    unsafe fn head(n: usize) -> Self::Mask;
    unsafe fn load_head(p: *const Self::Elem, m: Self::Mask) -> Self;
    unsafe fn store_head(self, p: *mut Self::Elem, m: Self::Mask);
    /// `self · b + c`, one rounding.
    unsafe fn fma(self, b: Self, c: Self) -> Self;
    /// `c − self · b`, one rounding.
    unsafe fn fnma(self, b: Self, c: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    /// The lane sums of four vectors, each reduced by halving, to `out[..4]`
    /// in one store (scalar ones stall the vector load that reads it back).
    unsafe fn sum4(v: [Self; 4], out: *mut Self::Elem);
}

/// `impl Vector`: tile consts, seven same-named intrinsics, and the three
/// mask operations and the reduction as expressions.
macro_rules! vector {
    ($v:ty, $e:ty, $mask:ty, lanes $l:literal, tn_nr $tn:literal, nn_nr $nn:literal, min_work $w:literal,
     $zero:ident $set1:ident $load:ident $store:ident $fma:ident $fnma:ident $sub:ident,
     |$n:ident| $head:expr, |$lp:ident, $lm:ident| $lh:expr, |$sv:ident, $sp:ident, $sm:ident| $sh:expr,
     |$a:ident, $out:ident| $sum:block) => {
        #[allow(unsafe_code)]
        #[rustfmt::skip]
        impl Vector for $v {
            type Elem = $e;
            type Mask = $mask;
            const LANES: usize = $l;
            const TN_NR: usize = $tn;
            const NN_NR: usize = $nn;
            const MIN_WORK: usize = $w;
            #[inline(always)] unsafe fn zero() -> Self { $zero() }
            #[inline(always)] unsafe fn splat(x: $e) -> Self { $set1(x) }
            #[inline(always)] unsafe fn load(p: *const $e) -> Self { $load(p) }
            #[inline(always)] unsafe fn store(self, p: *mut $e) { $store(p, self) }
            #[inline(always)] unsafe fn fma(self, b: Self, c: Self) -> Self { $fma(self, b, c) }
            #[inline(always)] unsafe fn fnma(self, b: Self, c: Self) -> Self { $fnma(self, b, c) }
            #[inline(always)] unsafe fn sub(self, b: Self) -> Self { $sub(self, b) }
            #[inline(always)] unsafe fn head($n: usize) -> $mask { $head }
            #[inline(always)] unsafe fn load_head($lp: *const $e, $lm: $mask) -> Self { $lh }
            #[inline(always)] unsafe fn store_head(self, $sp: *mut $e, $sm: $mask) { let $sv = self; $sh }
            #[inline(always)] unsafe fn sum4($a: [Self; 4], $out: *mut $e) $sum
        }
    };
}

// Sixteen registers: twelve accumulators and the operands of one step.
vector!(__m256d, f64, __m256i, lanes 4, tn_nr 3, nn_nr 6, min_work 32,
_mm256_setzero_pd _mm256_set1_pd _mm256_loadu_pd _mm256_storeu_pd
_mm256_fmadd_pd _mm256_fnmadd_pd _mm256_sub_pd,
|n| _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3)),
|p, m| _mm256_maskload_pd(p, m), |v, p, m| _mm256_maskstore_pd(p, m, v),
|a, out| {
    // Each (l0+l1)+(l2+l3), four at once.
    let (t0, t1) = (_mm256_hadd_pd(a[0], a[1]), _mm256_hadd_pd(a[2], a[3]));
    let lo = _mm256_permute2f128_pd::<0x20>(t0, t1);
    _mm256_storeu_pd(out, _mm256_add_pd(lo, _mm256_permute2f128_pd::<0x31>(t0, t1)));
});
vector!(__m256, f32, __m256i, lanes 8, tn_nr 3, nn_nr 6, min_work 32,
_mm256_setzero_ps _mm256_set1_ps _mm256_loadu_ps _mm256_storeu_ps
_mm256_fmadd_ps _mm256_fnmadd_ps _mm256_sub_ps,
|n| _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
|p, m| _mm256_maskload_ps(p, m), |v, p, m| _mm256_maskstore_ps(p, m, v),
|a, out| {
    // Pairs, then fours, inside each 128-bit half; then the halves.
    let t = _mm256_hadd_ps(_mm256_hadd_ps(a[0], a[1]), _mm256_hadd_ps(a[2], a[3]));
    _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps::<1>(t)));
});
// Thirty-two registers: 24 accumulators and seven operands for the dot
// tile, sixteen accumulators for the outer product. Under `min_work` 64 a
// call's one or two half-empty vectors lose to the plain loop (§14).
vector!(__m512d, f64, __mmask8, lanes 8, tn_nr 6, nn_nr 8, min_work 64,
_mm512_setzero_pd _mm512_set1_pd _mm512_loadu_pd _mm512_storeu_pd
_mm512_fmadd_pd _mm512_fnmadd_pd _mm512_sub_pd,
|n| ((1u32 << n) - 1) as __mmask8,
|p, m| _mm512_maskz_loadu_pd(m, p), |v, p, m| _mm512_mask_storeu_pd(p, m, v),
|a, out| {
    // Two vectors fold into one per level — a blend keeps one half of
    // each, one shuffle brings the other halves alongside — so four sums
    // cost four shuffles: neighbours, 128-bit lanes, 256-bit halves.
    // (Halving each vector alone is ten, more than a b = 16 tile's FMAs.)
    let pairs = |a, b| _mm512_add_pd(_mm512_mask_blend_pd(0xAA, a, b), _mm512_shuffle_pd::<0x55>(a, b));
    let (t0, t1) = (pairs(a[0], a[1]), pairs(a[2], a[3]));
    let other = _mm512_permutex2var_pd(t0, _mm512_setr_epi64(2, 3, 8, 9, 6, 7, 12, 13), t1);
    let lanes = _mm512_add_pd(_mm512_mask_blend_pd(0xCC, t0, t1), other);
    let hi = _mm512_extractf64x4_pd::<1>(lanes);
    _mm256_storeu_pd(out, _mm256_add_pd(_mm512_castpd512_pd256(lanes), hi));
});
vector!(__m512, f32, __mmask16, lanes 16, tn_nr 6, nn_nr 8, min_work 64,
_mm512_setzero_ps _mm512_set1_ps _mm512_loadu_ps _mm512_storeu_ps
_mm512_fmadd_ps _mm512_fnmadd_ps _mm512_sub_ps,
|n| ((1u32 << n) - 1) as __mmask16,
|p, m| _mm512_maskz_loadu_ps(m, p), |v, p, m| _mm512_mask_storeu_ps(p, m, v),
|a, out| {
    // As `f64x8`, one more level: neighbours, 64-bit pairs, lanes halved.
    let next = _mm512_setr_epi32(1, 16, 3, 18, 5, 20, 7, 22, 9, 24, 11, 26, 13, 28, 15, 30);
    let pairs = |a, b| _mm512_add_ps(_mm512_mask_blend_ps(0xAAAA, a, b), _mm512_permutex2var_ps(a, next, b));
    let (t0, t1) = (pairs(a[0], a[1]), pairs(a[2], a[3]));
    let other = _mm512_setr_epi32(2, 3, 16, 17, 6, 7, 20, 21, 10, 11, 24, 25, 14, 15, 28, 29);
    let fours = _mm512_add_ps(_mm512_mask_blend_ps(0xCCCC, t0, t1), _mm512_permutex2var_ps(t0, other, t1));
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(fours)));
    let half = _mm256_add_ps(_mm512_castps512_ps256(fours), hi);
    _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(half), _mm256_extractf128_ps::<1>(half)));
});

/// Register core over one [`Vector`] type: one accumulator register per dot
/// or per vector of an outer-product column, FMA-contracted multiply-adds,
/// ragged tails under a mask. Its `unsafe` blocks are only correct on a CPU
/// with the vector type's features: they are reachable solely through the
/// `#[target_feature]` monomorphizations above, which a [`Pick`] gates.
pub(crate) struct VecCore<V>(PhantomData<V>);

impl<V: Vector> Core<V::Elem> for VecCore<V> {
    const LANES: usize = V::LANES;

    #[inline(always)]
    #[allow(unsafe_code)]
    fn rank1<const N: usize>(x: &[V::Elem], w: [V::Elem; N], cols: [&mut [V::Elem]; N]) {
        let n = cols[0].len();
        let xp = x[..n].as_ptr();
        let mut cp = [std::ptr::null_mut(); N];
        for (p, c) in cp.iter_mut().zip(cols) {
            *p = c[..n].as_mut_ptr();
        }
        // A ragged length ends in one more *whole* vector over its last
        // `LANES` elements, computed from the old values before the loop and
        // stored after it (shared lanes get the same bits twice; a masked
        // store is slow at 256 bits). Only a length under a vector is masked.
        // SAFETY: every slice was cut to `n`; a whole-vector access at `i`
        // has `i <= last = n - LANES`, the masked ones touch `n < LANES`
        // elements; the columns are disjoint borrows.
        unsafe {
            let wv: [V; N] = std::array::from_fn(|j| V::splat(w[j]));
            if n < V::LANES {
                let (m, xv) = (V::head(n), V::load_head(xp, V::head(n)));
                for j in 0..N {
                    wv[j].fnma(xv, V::load_head(cp[j], m)).store_head(cp[j], m);
                }
                return;
            }
            let at = |i: usize| -> [V; N] {
                let xv = V::load(xp.add(i));
                std::array::from_fn(|j| wv[j].fnma(xv, V::load(cp[j].add(i))))
            };
            let (last, end) = (n - V::LANES, at(n - V::LANES));
            for i in (0..last).step_by(V::LANES) {
                let now = at(i);
                for j in 0..N {
                    now[j].store(cp[j].add(i));
                }
            }
            for j in 0..N {
                end[j].store(cp[j].add(last));
            }
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn tn_tile<const MR: usize, const NR: usize>(
        x: [&[V::Elem]; MR],
        y: [&[V::Elem]; NR],
    ) -> [[V::Elem; MR]; NR] {
        let k = x[0].len();
        assert!(x.iter().chain(&y).all(|c| c.len() >= k));
        let full = k / V::LANES * V::LANES;
        let mut r = [[V::Elem::ZERO; MR]; NR];
        // SAFETY: every slice holds `k` rows (asserted); the unmasked steps
        // read rows `p..p + LANES` with `p + LANES <= full <= k`, the masked
        // one the `k - full` rows from `full` on; a whole group of sums is
        // stored at `g + 4 <= MR·NR`, the length of `flat`.
        unsafe {
            let mut acc = [[V::zero(); MR]; NR];
            macro_rules! step {
                ($get:expr) => {{
                    let get = $get;
                    let yv: [V; NR] = std::array::from_fn(|b| get(y[b]));
                    for a in 0..MR {
                        let xv = get(x[a]);
                        for b in 0..NR {
                            acc[b][a] = xv.fma(yv[b], acc[b][a]);
                        }
                    }
                }};
            }
            for p in (0..full).step_by(V::LANES) {
                step!(|c: &[V::Elem]| V::load(c.as_ptr().add(p)));
            }
            // The ragged last rows ride the same lanes under a mask, so
            // there is no scalar tail.
            if full < k {
                let m = V::head(k - full);
                step!(|c: &[V::Elem]| V::load_head(c.as_ptr().add(full), m));
            }
            // Accumulators reduce four at a time in `(b, a)` order, each group
            // straight into its slots of `r`; a last one is zero-padded.
            let four = |g: usize| -> [V; 4] {
                std::array::from_fn(|t| match g + t {
                    i if i < MR * NR => acc[i / MR][i % MR],
                    _ => V::zero(),
                })
            };
            let flat = r.as_flattened_mut();
            let whole = MR * NR / 4 * 4;
            for g in (0..whole).step_by(4) {
                V::sum4(four(g), flat.as_mut_ptr().add(g));
            }
            if whole < MR * NR {
                let mut last = [V::Elem::ZERO; 4];
                V::sum4(four(whole), last.as_mut_ptr());
                flat[whole..].copy_from_slice(&last[..MR * NR - whole]);
            }
        }
        r
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn nn_tile<const MV: usize, const NR: usize>(
        (a, lda): Cols<V::Elem>,
        b: [&[V::Elem]; NR],
        (c, ldc): ColsMut<V::Elem>,
        rows: usize,
        inner: Range<usize>,
    ) {
        let kk = b[0].len();
        if kk == 0 {
            return;
        }
        // A one-vector tile is always masked (the skeleton's ragged last
        // rows), a taller one never.
        let whole = if MV == 1 {
            rows.min(V::LANES)
        } else {
            MV * V::LANES
        };
        assert!(rows == whole && rows > 0 && inner.start <= inner.end && inner.end <= kk);
        assert!(a.len() >= (kk - 1) * lda + rows && b.iter().all(|bj| bj.len() >= kk));
        assert!(c.len() >= (NR - 1) * ldc + rows);
        // SAFETY: column p of the tile is a[p*lda .. p*lda + rows] with
        // p < kk, inside `a` by the second assert, which also bounds the
        // reads b[j][p]; column j < NR of `c` is c[j*ldc .. j*ldc + rows],
        // inside `c` by the third. By the first, a masked access touches
        // `rows <= LANES` lanes, an unmasked tile is `MV` whole vectors, and
        // `inner` is inside `0..kk`.
        unsafe {
            let m = V::head(rows.min(V::LANES));
            let get = |p: usize, v: usize| {
                let at = a.as_ptr().add(p * lda + V::LANES * v);
                if MV == 1 {
                    V::load_head(at, m)
                } else {
                    V::load(at)
                }
            };
            let mut acc = [[V::zero(); MV]; NR];
            // One vector's steps outside `inner`, into the same accumulators.
            macro_rules! solo {
                ($steps:expr, $v:expr) => {
                    for p in $steps {
                        let av = get(p, $v);
                        for j in 0..NR {
                            acc[j][$v] = av.fma(V::splat(*b[j].get_unchecked(p)), acc[j][$v]);
                        }
                    }
                };
            }
            solo!(0..inner.start, 0);
            for p in inner.clone() {
                let av: [V; MV] = std::array::from_fn(|v| get(p, v));
                for j in 0..NR {
                    let bv = V::splat(*b[j].get_unchecked(p));
                    for v in 0..MV {
                        acc[j][v] = av[v].fma(bv, acc[j][v]);
                    }
                }
            }
            solo!(inner.end..kk, MV - 1);
            for (j, accj) in acc.into_iter().enumerate() {
                for (v, s) in accj.into_iter().enumerate() {
                    let cp = c.as_mut_ptr().add(j * ldc + V::LANES * v);
                    if MV == 1 {
                        V::load_head(cp, m).sub(s).store_head(cp, m);
                    } else {
                        V::load(cp).sub(s).store(cp);
                    }
                }
            }
        }
    }
}
