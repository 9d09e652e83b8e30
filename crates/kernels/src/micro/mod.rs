//! Register-blocked microkernel layer shared by every tile kernel.
//!
//! The `_ws` kernels in this crate all reduce to a handful of level-1.5
//! BLAS shapes: fused multi-column dots (`W = VᵀC`), fused multi-column
//! axpys (`C -= V·W`), rank-1 fan-outs (the trailing update of a single
//! reflector), and their trapezoidal variants for the TT/TS tile
//! structures. The seed implementation ran each of these as one scalar
//! `dot`/`axpy` per column — a latency-bound chain of dependent adds that
//! LLVM cannot vectorize (strict FP semantics forbid reassociation).
//!
//! This module restructures those loops around two blocking levels:
//!
//! * **Register level** — dots carry [`LANES`] independent accumulators
//!   (the reduction tree is fixed: `(a0+a1)+(a2+a3)`), and all primitives
//!   fuse [`NR`] columns per pass so each load of the shared vector feeds
//!   `NR` multiply-adds. The fused loop bodies are branch-free and
//!   autovectorize on the safe backend.
//! * **Cache level** — the dense primitives walk long vectors in
//!   [`KC`]-element strips: one strip of the shared vector is reused
//!   across *all* columns while it is L1-resident (`(NR+1)·KC·8` bytes ≈
//!   20 KiB per working set, inside a 32 KiB L1d). Tile-shaped operands
//!   (`b ≤ 64`) fit in a single strip, so the strip loop only engages on
//!   the tall panels of `geqrt_ib_apply` and dense right-hand sides.
//!
//! Two register cores sit behind one dispatch point, and the host — not a
//! build option — picks between them:
//!
//! * `block` — safe scalar-blocked code: the portable path (every
//!   non-x86-64 host, every `f32` panel, x86-64 without AVX2+FMA) and the
//!   host-independent reference the agreement tests compare against.
//! * `simd` (x86-64 only) — `core::arch` AVX2+FMA intrinsics, `f64` only,
//!   selected by `is_x86_feature_detected!` for primitives that touch at
//!   least [`VECTOR_MIN_WORK`] elements.
//!
//! `simd.rs` is the only place in the crate that uses `unsafe` (see the
//! crate-level `#![deny(unsafe_code)]` and the scoped, documented allows
//! in that file).
//!
//! **Determinism contract**: on a fixed host, every primitive performs a
//! fixed sequence of operations determined solely by the argument shapes
//! and element type — results are bit-reproducible run to run and across
//! sequential/parallel executors (which is what the testkit bit-identity
//! sweeps assert). That contract is over *shapes*, not over one global
//! loop order: below [`NAIVE_MAX_WORK`] touched elements a primitive runs
//! a plain sequential per-column loop (the blocked machinery costs more
//! than it saves there), from there to [`VECTOR_MIN_WORK`] the
//! lane-blocked scalar order with the fixed `(a0+a1)+(a2+a3)` reduction
//! tree, and above it the detected core. The tier is chosen by shape and
//! host, never by data. The two cores differ from each other by rounding
//! only (FMA contracts `a·b+c` to one rounding; the scalar core keeps
//! two), so `f64` results on an AVX2+FMA host differ from those of any
//! other host by that rounding, and cross-backend agreement is held to the
//! condition-scaled oracle budgets instead of bit equality.
//!
//! All primitives take column-major panels as a base slice plus a column
//! stride `ld` (column `j` starts at `ys[j * ld]`), which lets kernels
//! pass tile storage directly without packing: at tile sizes the columns
//! are already contiguous and L1-resident, so a pack pass is pure
//! overhead (it is what caused the seed's `ttmqr b=8` regression).

use std::sync::atomic::{AtomicBool, Ordering};
use tileqr_matrix::Scalar;

mod block;
#[cfg(target_arch = "x86_64")]
mod simd;

/// Columns fused per pass (the BLIS-style `axpyf`/`dotf` fuse factor).
pub const NR: usize = 4;
/// Independent accumulator lanes per dot product (breaks the FP add
/// latency chain; matches one AVX2 `f64x4` register on the simd backend).
pub const LANES: usize = 4;
/// L1 strip length (elements) for the dense primitives: `(NR+1)` slices
/// of `KC` f64s ≈ 20 KiB, sized to stay resident in a 32 KiB L1d.
pub const KC: usize = 512;

/// Which register core `f64` primitives run on above [`VECTOR_MIN_WORK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Safe scalar register-blocked code: the portable path and the
    /// host-independent reference.
    Blocked,
    /// AVX2+FMA intrinsics (x86-64 hosts that report both, `f64` panels).
    Simd,
}

/// Set while [`force_backend`] pins [`Backend::Blocked`].
static PIN_BLOCKED: AtomicBool = AtomicBool::new(false);

/// Backend that `f64` primitives will use for the next calls:
/// [`Backend::Simd`] iff this is an x86-64 host reporting AVX2 and FMA and
/// [`force_backend`] has not pinned [`Backend::Blocked`].
pub fn active_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if simd::enabled::<f64>() {
        return Backend::Simd;
    }
    Backend::Blocked
}

/// Test hook: pin the backend (`None` restores runtime detection).
///
/// Forcing [`Backend::Blocked`] always works; forcing [`Backend::Simd`]
/// cannot conjure a core the host lacks, so it reads as `None`. Used by
/// the backend-agreement tests; not part of the stable API.
#[doc(hidden)]
pub fn force_backend(backend: Option<Backend>) {
    PIN_BLOCKED.store(backend == Some(Backend::Blocked), Ordering::Relaxed);
}

/// The register-level core a backend must provide. Slice lengths are
/// already matched by the blocking skeletons; implementations only fix
/// the accumulation order and instruction selection.
pub(crate) trait Core<T: Scalar> {
    /// `dot(x, c)` with [`LANES`] accumulators and a fixed reduction tree.
    fn dot1(x: &[T], c: &[T]) -> T;
    /// Four column dots sharing each load of `x`.
    fn dot4(x: &[T], c0: &[T], c1: &[T], c2: &[T], c3: &[T]) -> [T; 4];
    /// `y ∓= a · c` (SUB selects subtraction).
    fn axpy1<const SUB: bool>(a: T, c: &[T], y: &mut [T]);
    /// `y ∓= a0·c0 + a1·c1 + a2·c2 + a3·c3`, one pass over `y`.
    fn axpy4<const SUB: bool>(a: [T; 4], c0: &[T], c1: &[T], c2: &[T], c3: &[T], y: &mut [T]);
    /// `c -= w · x` (single-column rank-1 update).
    fn rank1_1(x: &[T], w: T, c: &mut [T]);
    /// Rank-1 fan-out: `ci -= wi · x` for four columns per load of `x`.
    fn rank1_4(x: &[T], w: [T; 4], c0: &mut [T], c1: &mut [T], c2: &mut [T], c3: &mut [T]);
}

// ---------------------------------------------------------------------------
// Blocking skeletons, generic over the register core. These fix the strip
// and column-block structure once so both backends share it exactly.
// ---------------------------------------------------------------------------

/// `out[j] = dot(x, col_j)` for `n` equal-length columns (`col_j =
/// ys[j*ld .. j*ld + x.len()]`), strip-blocked over the length.
#[inline(always)]
fn dotf_impl<T: Scalar, C: Core<T>>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    let len = x.len();
    debug_assert!(out.len() >= n);
    debug_assert!(n == 0 || ys.len() >= (n - 1) * ld + len);
    let mut r0 = 0;
    let mut first = true;
    loop {
        let r1 = (r0 + KC).min(len);
        let xs = &x[r0..r1];
        let sl = r1 - r0;
        let mut j = 0;
        while j + NR <= n {
            let b = j * ld + r0;
            let d = C::dot4(
                xs,
                &ys[b..b + sl],
                &ys[b + ld..b + ld + sl],
                &ys[b + 2 * ld..b + 2 * ld + sl],
                &ys[b + 3 * ld..b + 3 * ld + sl],
            );
            if first {
                out[j..j + NR].copy_from_slice(&d);
            } else {
                for (o, v) in out[j..j + NR].iter_mut().zip(d) {
                    *o += v;
                }
            }
            j += NR;
        }
        while j < n {
            let b = j * ld + r0;
            let d = C::dot1(xs, &ys[b..b + sl]);
            if first {
                out[j] = d;
            } else {
                out[j] += d;
            }
            j += 1;
        }
        first = false;
        r0 = r1;
        if r0 >= len {
            break;
        }
    }
}

/// Prefix-column (upper-trapezoid) fused dots: column `j` has length
/// `len0 + j`; `out[j] = dot(x[..len0+j], col_j)`. Blocks of [`NR`]
/// columns share the dense common prefix; the ragged tail of each column
/// is folded in scalar-wise. Operands are tile-bounded (TT shapes), so
/// no strip loop is needed.
#[inline(always)]
fn dotf_tri_impl<T: Scalar, C: Core<T>>(
    x: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    out: &mut [T],
) {
    debug_assert!(out.len() >= n);
    debug_assert!(n == 0 || x.len() >= len0 + n - 1);
    let mut j = 0;
    while j + NR <= n {
        let d = len0 + j;
        let b = j * ld;
        let c0 = &ys[b..b + d];
        let c1 = &ys[b + ld..b + ld + d + 1];
        let c2 = &ys[b + 2 * ld..b + 2 * ld + d + 2];
        let c3 = &ys[b + 3 * ld..b + 3 * ld + d + 3];
        let mut v = C::dot4(&x[..d], c0, &c1[..d], &c2[..d], &c3[..d]);
        v[1] += x[d] * c1[d];
        v[2] += x[d] * c2[d];
        v[2] += x[d + 1] * c2[d + 1];
        v[3] += x[d] * c3[d];
        v[3] += x[d + 1] * c3[d + 1];
        v[3] += x[d + 2] * c3[d + 2];
        out[j..j + NR].copy_from_slice(&v);
        j += NR;
    }
    while j < n {
        let d = len0 + j;
        out[j] = C::dot1(&x[..d], &ys[j * ld..j * ld + d]);
        j += 1;
    }
}

/// Strict-lower-trapezoid fused dots: column `j` is valid on rows
/// `[j+1, x.len())` (the unit diagonal is the caller's to add).
/// `out[j] = dot(x[j+1..], col_j[j+1..])`.
#[inline(always)]
fn dotf_lo_impl<T: Scalar, C: Core<T>>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    let len = x.len();
    debug_assert!(out.len() >= n);
    let mut j = 0;
    while j + NR <= n {
        let b = j * ld;
        let h = (j + NR).min(len);
        let mut v = [T::ZERO; NR];
        for (t, vt) in v.iter_mut().enumerate() {
            let c = &ys[b + t * ld..b + t * ld + len];
            let mut acc = T::ZERO;
            for r in (j + t + 1)..h {
                acc += x[r] * c[r];
            }
            *vt = acc;
        }
        if h < len {
            let d = C::dot4(
                &x[h..],
                &ys[b + h..b + len],
                &ys[b + ld + h..b + ld + len],
                &ys[b + 2 * ld + h..b + 2 * ld + len],
                &ys[b + 3 * ld + h..b + 3 * ld + len],
            );
            for (vt, dt) in v.iter_mut().zip(d) {
                *vt += dt;
            }
        }
        out[j..j + NR].copy_from_slice(&v);
        j += NR;
    }
    while j < n {
        out[j] = if j + 1 < len {
            C::dot1(&x[j + 1..], &ys[j * ld + j + 1..j * ld + len])
        } else {
            T::ZERO
        };
        j += 1;
    }
}

/// Dense fused axpy: `y ∓= Σ_j alphas[j] · col_j`, strip-blocked so each
/// `y` strip stays L1-resident across all column blocks. The strip loop
/// partitions rows, so per-element operation order is unchanged by it.
#[inline(always)]
fn axpyf_impl<T: Scalar, C: Core<T>, const SUB: bool>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    y: &mut [T],
) {
    let len = y.len();
    debug_assert!(alphas.len() >= n);
    debug_assert!(n == 0 || ys.len() >= (n - 1) * ld + len);
    let mut r0 = 0;
    while r0 < len {
        let r1 = (r0 + KC).min(len);
        let sl = r1 - r0;
        let yw = &mut y[r0..r1];
        let mut j = 0;
        while j + NR <= n {
            let b = j * ld + r0;
            C::axpy4::<SUB>(
                [alphas[j], alphas[j + 1], alphas[j + 2], alphas[j + 3]],
                &ys[b..b + sl],
                &ys[b + ld..b + ld + sl],
                &ys[b + 2 * ld..b + 2 * ld + sl],
                &ys[b + 3 * ld..b + 3 * ld + sl],
                yw,
            );
            j += NR;
        }
        while j < n {
            let b = j * ld + r0;
            C::axpy1::<SUB>(alphas[j], &ys[b..b + sl], yw);
            j += 1;
        }
        r0 = r1;
    }
}

/// Prefix-column fused axpy: column `j` has length `len0 + j` and updates
/// `y[..len0+j]`. Dense common prefix per column block, ragged tails as
/// short single-column axpys.
#[inline(always)]
fn axpyf_tri_impl<T: Scalar, C: Core<T>, const SUB: bool>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [T],
) {
    debug_assert!(alphas.len() >= n);
    debug_assert!(n == 0 || y.len() >= len0 + n - 1);
    let mut j = 0;
    while j + NR <= n {
        let d = len0 + j;
        let b = j * ld;
        C::axpy4::<SUB>(
            [alphas[j], alphas[j + 1], alphas[j + 2], alphas[j + 3]],
            &ys[b..b + d],
            &ys[b + ld..b + ld + d],
            &ys[b + 2 * ld..b + 2 * ld + d],
            &ys[b + 3 * ld..b + 3 * ld + d],
            &mut y[..d],
        );
        for t in 1..NR {
            let c = &ys[b + t * ld..b + t * ld + d + t];
            C::axpy1::<SUB>(alphas[j + t], &c[d..], &mut y[d..d + t]);
        }
        j += NR;
    }
    while j < n {
        let d = len0 + j;
        C::axpy1::<SUB>(alphas[j], &ys[j * ld..j * ld + d], &mut y[..d]);
        j += 1;
    }
}

/// Strict-lower-trapezoid fused axpy: column `j` is valid on rows
/// `[j+1, y.len())`; `y[j+1..] ∓= alphas[j] · col_j[j+1..]` (unit
/// diagonal peeled by the caller).
#[inline(always)]
fn axpyf_lo_impl<T: Scalar, C: Core<T>, const SUB: bool>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    y: &mut [T],
) {
    let len = y.len();
    debug_assert!(alphas.len() >= n);
    let mut j = 0;
    while j + NR <= n {
        let b = j * ld;
        let h = (j + NR).min(len);
        for t in 0..NR {
            let lo = j + t + 1;
            if lo < h {
                C::axpy1::<SUB>(
                    alphas[j + t],
                    &ys[b + t * ld + lo..b + t * ld + h],
                    &mut y[lo..h],
                );
            }
        }
        if h < len {
            C::axpy4::<SUB>(
                [alphas[j], alphas[j + 1], alphas[j + 2], alphas[j + 3]],
                &ys[b + h..b + len],
                &ys[b + ld + h..b + ld + len],
                &ys[b + 2 * ld + h..b + 2 * ld + len],
                &ys[b + 3 * ld + h..b + 3 * ld + len],
                &mut y[h..],
            );
        }
        j += NR;
    }
    while j < n {
        if j + 1 < len {
            C::axpy1::<SUB>(
                alphas[j],
                &ys[j * ld + j + 1..j * ld + len],
                &mut y[j + 1..],
            );
        }
        j += 1;
    }
}

/// Rank-1 fan-out: `col_j[..len] -= w[j] · x[..len]` for `n` columns,
/// sharing each load of `x` across [`NR`] columns.
#[inline(always)]
fn rank1f_impl<T: Scalar, C: Core<T>>(
    x: &[T],
    w: &[T],
    ys: &mut [T],
    ld: usize,
    len: usize,
    n: usize,
) {
    debug_assert!(w.len() >= n);
    debug_assert!(x.len() >= len);
    debug_assert!(
        ld >= len || n <= 1,
        "columns would alias (ld {ld} < len {len})"
    );
    let x = &x[..len];
    let mut j = 0;
    while j + NR <= n {
        let buf = &mut ys[j * ld..];
        let (c0, rest) = buf.split_at_mut(ld);
        let (c1, rest) = rest.split_at_mut(ld);
        let (c2, rest) = rest.split_at_mut(ld);
        C::rank1_4(
            x,
            [w[j], w[j + 1], w[j + 2], w[j + 3]],
            &mut c0[..len],
            &mut c1[..len],
            &mut c2[..len],
            &mut rest[..len],
        );
        j += NR;
    }
    while j < n {
        C::rank1_1(x, w[j], &mut ys[j * ld..j * ld + len]);
        j += 1;
    }
}

/// Fused single-reflector trailing update (the GEQRT inner loop): each
/// column is `[head; tail]` of length `1 + vk.len()` starting at
/// `cols[j * ld]`. Per column: `w = (head + dot(vk, tail)) · tau`,
/// `head -= w`, `tail -= w · vk` — with dots and the rank-1 fan-out
/// fused over [`NR`] columns.
#[inline(always)]
fn larf_head_impl<T: Scalar, C: Core<T>>(vk: &[T], tau: T, cols: &mut [T], ld: usize, n: usize) {
    let mt = vk.len();
    let cl = mt + 1;
    debug_assert!(n == 0 || cols.len() >= (n - 1) * ld + cl);
    let mut j = 0;
    while j + NR <= n {
        let buf = &mut cols[j * ld..];
        let (c0, rest) = buf.split_at_mut(ld);
        let (c1, rest) = rest.split_at_mut(ld);
        let (c2, rest) = rest.split_at_mut(ld);
        let c0 = &mut c0[..cl];
        let c1 = &mut c1[..cl];
        let c2 = &mut c2[..cl];
        let c3 = &mut rest[..cl];
        let mut w = C::dot4(vk, &c0[1..], &c1[1..], &c2[1..], &c3[1..]);
        w[0] = (c0[0] + w[0]) * tau;
        w[1] = (c1[0] + w[1]) * tau;
        w[2] = (c2[0] + w[2]) * tau;
        w[3] = (c3[0] + w[3]) * tau;
        c0[0] -= w[0];
        c1[0] -= w[1];
        c2[0] -= w[2];
        c3[0] -= w[3];
        C::rank1_4(
            vk,
            w,
            &mut c0[1..],
            &mut c1[1..],
            &mut c2[1..],
            &mut c3[1..],
        );
        j += NR;
    }
    while j < n {
        let c = &mut cols[j * ld..j * ld + cl];
        let mut w = C::dot1(vk, &c[1..]);
        w = (c[0] + w) * tau;
        c[0] -= w;
        C::rank1_1(vk, w, &mut c[1..]);
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Public primitives: one dispatch point per shape. The simd path engages
// only for `f64` on an x86-64 host with AVX2+FMA present at runtime;
// everything else takes the safe scalar-blocked core.
// ---------------------------------------------------------------------------

/// Below this many touched elements a primitive runs a plain sequential
/// per-column loop instead of the blocked skeleton. At ~100 flops the
/// register-blocking machinery (group/tail selection, lane reductions,
/// out-of-line calls) costs more than the latency chains it breaks — the
/// GEQRT trailing update and `T`-factor extension at `b = 8` are the
/// canonical victims (the b = 8 trailing `larf_head` touches ~98
/// elements). The tier is selected purely by argument shape, so results
/// stay a deterministic function of shape (see the module-level
/// contract).
const NAIVE_MAX_WORK: usize = 128;

/// Minimum number of touched elements before a primitive is worth routing
/// through the runtime-detected vector core. `#[target_feature]` functions
/// cannot inline into their SSE2 callers, so each vector-path call pays a
/// real function-call + slice-cast toll; below this much work the fully
/// inlined scalar block path wins. Like [`NAIVE_MAX_WORK`] it is a
/// function of shape alone, so which core a call rounds with is too.
const VECTOR_MIN_WORK: usize = 512;

/// Sequential dot for the naive small-shape tier.
#[inline(always)]
fn seq_dot<T: Scalar>(x: &[T], c: &[T]) -> T {
    let mut s = T::ZERO;
    for (&xi, &ci) in x.iter().zip(c) {
        s += xi * ci;
    }
    s
}

/// Sequential axpy for the naive small-shape tier.
#[inline(always)]
fn seq_axpy<T: Scalar, const SUB: bool>(a: T, c: &[T], y: &mut [T]) {
    for (yi, &ci) in y.iter_mut().zip(c) {
        if SUB {
            *yi -= a * ci;
        } else {
            *yi += a * ci;
        }
    }
}

macro_rules! dispatch {
    ($work:expr, $naive:expr, $simd_call:expr, $block_call:expr) => {{
        let work = $work;
        // Tiny shapes: run the inlined sequential loops; the blocked
        // skeleton's overhead dominates at this size.
        if work < NAIVE_MAX_WORK {
            $naive;
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if work >= VECTOR_MIN_WORK && simd::enabled::<T>() {
            $simd_call;
            return;
        }
        $block_call
    }};
}

/// `out[j] = dot(x, ys[j*ld .. j*ld + x.len()])` for `j < n`.
#[inline]
pub fn dotf<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    dispatch!(
        x.len() * n,
        for (j, o) in out[..n].iter_mut().enumerate() {
            *o = seq_dot(x, &ys[j * ld..j * ld + x.len()]);
        },
        simd::dotf(x, ys, ld, n, out),
        dotf_impl::<T, block::ScalarCore>(x, ys, ld, n, out)
    );
}

/// Prefix-column dots: `out[j] = dot(x[..len0+j], ys[j*ld .. j*ld+len0+j])`.
#[inline]
pub fn dotf_tri<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, len0: usize, out: &mut [T]) {
    dispatch!(
        n * len0 + n * n / 2,
        for (j, o) in out[..n].iter_mut().enumerate() {
            let d = len0 + j;
            *o = seq_dot(&x[..d], &ys[j * ld..j * ld + d]);
        },
        simd::dotf_tri(x, ys, ld, n, len0, out),
        dotf_tri_impl::<T, block::ScalarCore>(x, ys, ld, n, len0, out)
    );
}

/// Strict-lower dots: `out[j] = dot(x[j+1..], col_j[j+1..])`, unit
/// diagonal left to the caller.
#[inline]
pub fn dotf_lo<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    dispatch!(
        (x.len() * n).saturating_sub(n * n / 2),
        for (j, o) in out[..n].iter_mut().enumerate() {
            *o = if j + 1 < x.len() {
                seq_dot(&x[j + 1..], &ys[j * ld + j + 1..j * ld + x.len()])
            } else {
                T::ZERO
            };
        },
        simd::dotf_lo(x, ys, ld, n, out),
        dotf_lo_impl::<T, block::ScalarCore>(x, ys, ld, n, out)
    );
}

/// `y -= Σ_j alphas[j] · col_j` over `y.len()` rows.
#[inline]
pub fn axpyf_sub<T: Scalar>(alphas: &[T], ys: &[T], ld: usize, n: usize, y: &mut [T]) {
    dispatch!(
        y.len() * n,
        for (j, &aj) in alphas[..n].iter().enumerate() {
            seq_axpy::<T, true>(aj, &ys[j * ld..j * ld + y.len()], y);
        },
        simd::axpyf_sub(alphas, ys, ld, n, y),
        axpyf_impl::<T, block::ScalarCore, true>(alphas, ys, ld, n, y)
    );
}

/// `y[..len0+j] += alphas[j] · col_j` for prefix columns of length `len0+j`.
#[inline]
pub fn axpyf_tri_add<T: Scalar>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [T],
) {
    dispatch!(
        n * len0 + n * n / 2,
        for (j, &aj) in alphas[..n].iter().enumerate() {
            let d = len0 + j;
            seq_axpy::<T, false>(aj, &ys[j * ld..j * ld + d], &mut y[..d]);
        },
        simd::axpyf_tri_add(alphas, ys, ld, n, len0, y),
        axpyf_tri_impl::<T, block::ScalarCore, false>(alphas, ys, ld, n, len0, y)
    );
}

/// `y[..len0+j] -= alphas[j] · col_j` for prefix columns of length `len0+j`.
#[inline]
pub fn axpyf_tri_sub<T: Scalar>(
    alphas: &[T],
    ys: &[T],
    ld: usize,
    n: usize,
    len0: usize,
    y: &mut [T],
) {
    dispatch!(
        n * len0 + n * n / 2,
        for (j, &aj) in alphas[..n].iter().enumerate() {
            let d = len0 + j;
            seq_axpy::<T, true>(aj, &ys[j * ld..j * ld + d], &mut y[..d]);
        },
        simd::axpyf_tri_sub(alphas, ys, ld, n, len0, y),
        axpyf_tri_impl::<T, block::ScalarCore, true>(alphas, ys, ld, n, len0, y)
    );
}

/// `y[j+1..] -= alphas[j] · col_j[j+1..]` for strict-lower columns.
#[inline]
pub fn axpyf_lo_sub<T: Scalar>(alphas: &[T], ys: &[T], ld: usize, n: usize, y: &mut [T]) {
    dispatch!(
        (y.len() * n).saturating_sub(n * n / 2),
        for (j, &aj) in alphas[..n].iter().enumerate() {
            if j + 1 < y.len() {
                let c = &ys[j * ld + j + 1..j * ld + y.len()];
                seq_axpy::<T, true>(aj, c, &mut y[j + 1..]);
            }
        },
        simd::axpyf_lo_sub(alphas, ys, ld, n, y),
        axpyf_lo_impl::<T, block::ScalarCore, true>(alphas, ys, ld, n, y)
    );
}

/// `col_j[..len] -= w[j] · x[..len]` for `n` columns at stride `ld`.
#[inline]
pub fn rank1f_sub<T: Scalar>(x: &[T], w: &[T], ys: &mut [T], ld: usize, len: usize, n: usize) {
    dispatch!(
        len * n,
        for (j, &wj) in w[..n].iter().enumerate() {
            seq_axpy::<T, true>(wj, &x[..len], &mut ys[j * ld..j * ld + len]);
        },
        simd::rank1f_sub(x, w, ys, ld, len, n),
        rank1f_impl::<T, block::ScalarCore>(x, w, ys, ld, len, n)
    );
}

/// Fused Householder trailing update over `n` columns (see
/// [`larf_head_impl`] for the per-column contract).
#[inline]
pub fn larf_head<T: Scalar>(vk: &[T], tau: T, cols: &mut [T], ld: usize, n: usize) {
    dispatch!(
        vk.len() * n * 2,
        for j in 0..n {
            let c = &mut cols[j * ld..j * ld + vk.len() + 1];
            let mut w = c[0] + seq_dot(vk, &c[1..]);
            w *= tau;
            c[0] -= w;
            seq_axpy::<T, true>(w, vk, &mut c[1..]);
        },
        simd::larf_head(vk, tau, cols, ld, n),
        larf_head_impl::<T, block::ScalarCore>(vk, tau, cols, ld, n)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, k: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37 + k).sin()).collect()
    }

    #[test]
    fn dotf_matches_naive_all_widths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11] {
            for len in [0usize, 1, 3, 4, 5, 16, 17] {
                let ld = len + 2;
                let x = seq(len, 1.0);
                let ys = seq(n.saturating_sub(1) * ld + len, 2.0);
                let mut out = vec![f64::NAN; n];
                dotf(&x, &ys, ld, n, &mut out);
                for j in 0..n {
                    let naive: f64 = (0..len).map(|r| x[r] * ys[j * ld + r]).sum();
                    assert!((out[j] - naive).abs() < 1e-12, "n={n} len={len} j={j}");
                }
            }
        }
    }

    #[test]
    fn dotf_strips_are_pure_tiling() {
        // A length crossing the strip boundary still matches naive.
        let len = KC + 37;
        let n = 6;
        let ld = len;
        let x = seq(len, 0.5);
        let ys = seq(n * ld, 1.5);
        let mut out = vec![0.0; n];
        dotf(&x, &ys, ld, n, &mut out);
        for j in 0..n {
            let naive: f64 = (0..len).map(|r| x[r] * ys[j * ld + r]).sum();
            assert!((out[j] - naive).abs() < 1e-9 * naive.abs().max(1.0));
        }
    }

    #[test]
    fn rank1f_matches_naive() {
        for n in [1usize, 3, 4, 6, 9] {
            for len in [1usize, 2, 5, 8] {
                let ld = len + 1;
                let x = seq(len, 3.0);
                let w = seq(n, 4.0);
                let mut ys = seq(n * ld, 5.0);
                let mut naive = ys.clone();
                rank1f_sub(&x, &w, &mut ys, ld, len, n);
                for j in 0..n {
                    for r in 0..len {
                        naive[j * ld + r] -= w[j] * x[r];
                    }
                }
                for (a, b) in ys.iter().zip(&naive) {
                    assert!((a - b).abs() < 1e-13);
                }
            }
        }
    }
}
