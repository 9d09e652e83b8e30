//! Register-blocked microkernel layer shared by every tile kernel.
//!
//! The `_ws` kernels split into two kinds of work, and this module has one
//! family of primitives for each:
//!
//! * **Level 3 — block reflectors.** Applying one (`UNMQR`, `TSMQR`,
//!   `TTMQR`, both [`ApplySide`](crate::ApplySide)s, and the applies inside
//!   the factor kernels' recursion) is three matrix products, `W = VᵀC`,
//!   `op(T)·W` and `C −= V·W`; merging two `T` factors is three more.
//!   [`gemm_tn`] computes an `MR x NR` tile of
//!   dot products at a time with both operands read down their contiguous
//!   columns; [`gemm_nn_sub`] an outer-product tile with its second operand
//!   broadcast. Each loaded vector feeds three to six multiply-adds and
//!   twelve independent accumulators hide the FMA latency. Nothing is
//!   packed: tiles are column-major, which is the layout both tiles want.
//!   A triangular operand is described by a [`Shape`], and the skeleton
//!   skips its zero triangle a row block at a time.
//! * **Level 1.5 — the factor kernels' base case.** One reflector at a
//!   time over a panel a few columns wide leaves fused multi-column dots
//!   ([`dotf`]) and a rank-1 fan-out ([`rank1f_sub`]): [`NR`] columns share
//!   each load of the common
//!   vector, dots carry [`LANES`] accumulators, and long vectors are walked
//!   in [`KC`]-element strips so the shared strip stays L1-resident across
//!   all columns (tile-shaped operands fit one strip).
//!
//! Two register cores sit behind one dispatch point, and the host — not a
//! build option — picks between them:
//!
//! * `block` — safe scalar-blocked code: the portable path (every
//!   non-x86-64 host, every `f32` panel, x86-64 without AVX2+FMA) and the
//!   host-independent reference the agreement tests compare against.
//! * `simd` (x86-64 only) — `core::arch` AVX2+FMA intrinsics, `f64` only,
//!   selected by `is_x86_feature_detected!`: always for the level-3
//!   primitives, from [`VECTOR_MIN_WORK`] touched elements for the rest.
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
//! loop order: a level-1.5 primitive runs on the detected vector core from
//! [`VECTOR_MIN_WORK`] touched elements, and otherwise as a plain
//! sequential per-column loop below [`NAIVE_MAX_WORK`] and in the
//! lane-blocked scalar order with the fixed `(a0+a1)+(a2+a3)` reduction
//! tree above it. The tier is chosen by shape and host, never by data. The
//! two cores differ from each other by rounding only (FMA contracts
//! `a·b+c` to one rounding; the scalar core keeps two), so `f64` results
//! on an AVX2+FMA host differ from those of any other host by that
//! rounding, and cross-backend agreement is held to the condition-scaled
//! oracle budgets instead of bit equality.
//!
//! All primitives take column-major panels as a base slice plus a column
//! stride `ld` (column `j` starts at `ys[j * ld]`), so kernels pass tile
//! storage directly.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use tileqr_matrix::Scalar;

mod block;
#[cfg(target_arch = "x86_64")]
mod simd;

/// Columns fused per pass (the BLIS-style `dotf` fuse factor).
pub const NR: usize = 4;
/// Independent accumulator lanes per dot product (breaks the FP add
/// latency chain; matches one AVX2 `f64x4` register on the simd backend).
pub const LANES: usize = 4;
/// L1 strip length (elements) for the dense primitives: `(NR+1)` slices
/// of `KC` f64s ≈ 20 KiB, sized to stay resident in a 32 KiB L1d.
pub const KC: usize = 512;

/// Which register core `f64` primitives run on (the level-1.5 ones from
/// [`VECTOR_MIN_WORK`] touched elements).
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
    /// `y += a · c`.
    fn axpy1(a: T, c: &[T], y: &mut [T]);
    /// Rank-1 fan-out: `ci -= wi · x` for four columns per load of `x`.
    fn rank1_4(x: &[T], w: [T; 4], c0: &mut [T], c1: &mut [T], c2: &mut [T], c3: &mut [T]);
    /// Dot-product register tile: `r[b][a] = dot(x[a], y[b])` over
    /// `x[0].len()` rows, [`LANES`] accumulator lanes per dot and a fixed
    /// reduction tree. `4 x 1` against a shared vector is the fused column
    /// dot of the level-1.5 skeletons, `1 x 1` the plain dot.
    fn tn_tile<const MR: usize, const NR: usize>(x: [&[T]; MR], y: [&[T]; NR]) -> [[T; MR]; NR];
    /// Outer-product register tile over `b[0].len()` steps:
    /// `c[j·ldc + r] -= Σ_p a[p·lda + r] · b[j][p]` for the `MV·LANES` rows
    /// `r`, summed in registers in `p` order and subtracted once.
    fn nn_tile<const MV: usize, const NR: usize>(a: Cols<T>, b: [&[T]; NR], c: ColsMut<T>);
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
            let [d] = C::tn_tile(cols_at::<T, NR>((ys, ld), j, &(r0..r1)), [xs]);
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
            let [[d]] = C::tn_tile([&ys[b..b + sl]], [xs]);
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
        C::axpy1(-w[j], x, &mut ys[j * ld..j * ld + len]);
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Level-3 skeletons: the three products of a block-reflector apply, each a
// sweep of register tiles over operands read in place.
// ---------------------------------------------------------------------------

/// Zero structure the caller promises for the first operand of
/// [`gemm_tn`] / [`gemm_nn_sub`]. The skeletons skip the promised region
/// a row block at a time and read whatever is stored in the rest of it, so
/// the zeros must really be there: an operand whose other triangle holds
/// something else is staged into scratch first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// No promise: every entry is read.
    Dense,
    /// Entry `(r, c)` is zero wherever `r > c`.
    Upper,
    /// Entry `(r, c)` is zero wherever `r < c`.
    Lower,
}

impl Shape {
    /// Rows in which columns `[c0, c1)` of a `rows`-row operand can be nonzero.
    fn rows_of(self, c0: usize, c1: usize, rows: usize) -> Range<usize> {
        match self {
            Shape::Dense => 0..rows,
            Shape::Upper => 0..c1.min(rows),
            Shape::Lower => c0.min(rows)..rows,
        }
    }

    /// Columns in which rows `[r0, r1)` of a `cols`-column operand can be nonzero.
    fn cols_of(self, r0: usize, r1: usize, cols: usize) -> Range<usize> {
        match self {
            Shape::Dense => 0..cols,
            Shape::Upper => r0.min(cols)..cols,
            Shape::Lower => 0..r1.min(cols),
        }
    }
}

/// A column-major operand of a level-3 primitive: the base slice and the
/// column stride (column `j` starts at `.0[j * .1]`).
pub type Cols<'a, T> = (&'a [T], usize);
/// The written operand of a level-3 primitive, as [`Cols`].
pub type ColsMut<'a, T> = (&'a mut [T], usize);

/// [`gemm_tn`] register tile: columns of `X` by columns of `Y` (twelve
/// accumulators plus the operands fill the sixteen AVX2 registers).
const TN_MR: usize = 4;
const TN_NR: usize = 3;
/// [`gemm_nn_sub`] register tile: `NN_MV·LANES` rows by `NN_NR` columns of
/// `C` (twelve accumulators again); leftover columns go four at a time,
/// then singly over `NN_MV1·LANES` rows to keep four accumulators in flight.
const NN_MV: usize = 2;
const NN_NR: usize = 6;
const NN_MV1: usize = 4;

/// `N` consecutive columns of a panel from column `j`, cut to `rows`.
#[inline(always)]
fn cols_at<'a, T, const N: usize>(
    (ys, ld): Cols<'a, T>,
    j: usize,
    rows: &Range<usize>,
) -> [&'a [T]; N] {
    // A plain loop: `array::from_fn` with this closure is left an
    // out-of-line call per tile.
    let mut cols: [&[T]; N] = [&[]; N];
    for (t, col) in cols.iter_mut().enumerate() {
        *col = &ys[(j + t) * ld..][rows.clone()];
    }
    cols
}

/// `out = [add +] XᵀY` with `X` `k x m`, `Y` `k x n`, `out`/`add` `m x n`:
/// one tile of dot products per `TN_MR x TN_NR` block of `out`, both
/// operands read down their contiguous columns. Ragged edges take narrower
/// tiles.
#[inline(always)]
fn gemm_tn_impl<T: Scalar, C: Core<T>>(
    x: Cols<T>,
    shape: Shape,
    y: Cols<T>,
    add: Option<Cols<T>>,
    out: ColsMut<T>,
    (m, n, k): (usize, usize, usize),
) {
    let mut i = 0;
    while i + TN_MR <= m {
        let rows = shape.rows_of(i, i + TN_MR, k);
        tn_rows::<T, C, TN_MR>(cols_at(x, i, &rows), y, &rows, add, (out.0, out.1), i, n);
        i += TN_MR;
    }
    while i < m {
        let rows = shape.rows_of(i, i + 1, k);
        tn_rows::<T, C, 1>(cols_at(x, i, &rows), y, &rows, add, (out.0, out.1), i, n);
        i += 1;
    }
}

/// One row block of [`gemm_tn_impl`]: `MR` columns of `X` (rows `i..` of
/// `out`) against every column of `Y`.
#[inline(always)]
fn tn_rows<T: Scalar, C: Core<T>, const MR: usize>(
    xs: [&[T]; MR],
    y: Cols<T>,
    rows: &Range<usize>,
    add: Option<Cols<T>>,
    (out, ldo): ColsMut<T>,
    i: usize,
    n: usize,
) {
    // Three columns at a time; a last four go as two pairs, not 3 + 1.
    let mut j = 0;
    while n - j == TN_NR || n - j > TN_NR + 1 {
        let tile = C::tn_tile(xs, cols_at::<T, TN_NR>(y, j, rows));
        tn_store(&tile, add, (out, ldo), i, j);
        j += TN_NR;
    }
    while n - j >= 2 {
        let tile = C::tn_tile(xs, cols_at::<T, 2>(y, j, rows));
        tn_store(&tile, add, (out, ldo), i, j);
        j += 2;
    }
    if j < n {
        let tile = C::tn_tile(xs, cols_at::<T, 1>(y, j, rows));
        tn_store(&tile, add, (out, ldo), i, j);
    }
}

/// Write one finished tile of [`tn_rows`] to rows `i..`, columns `j..` of
/// `out`. (A function, not a closure: the closure stayed an out-of-line
/// call per tile inside the vector-core monomorphization.)
#[inline(always)]
fn tn_store<T: Scalar, const MR: usize>(
    tile: &[[T; MR]],
    add: Option<Cols<T>>,
    (out, ldo): ColsMut<T>,
    i: usize,
    j: usize,
) {
    for (t, col) in tile.iter().enumerate() {
        let o: &mut [T; MR] = (&mut out[(j + t) * ldo + i..][..MR])
            .try_into()
            .expect("MR rows");
        // Summed in a local so the store is one vector wide.
        let mut sum = *col;
        if let Some((a, lda)) = add {
            for (s, &a) in sum.iter_mut().zip(&a[(j + t) * lda + i..][..MR]) {
                *s += a;
            }
        }
        *o = sum;
    }
}

/// `C -= A·B` with `A` `m x k`, `B` `k x n`, `C` `m x n`: one
/// outer-product tile per `NN_MV·LANES x NN_NR` block of `C`, `A` read down
/// its columns and `B` broadcast.
#[inline(always)]
fn gemm_nn_sub_impl<T: Scalar, C: Core<T>>(
    a: Cols<T>,
    shape: Shape,
    (b, ldb): Cols<T>,
    (c, ldc): ColsMut<T>,
    (m, n, k): (usize, usize, usize),
) {
    let mut j = 0;
    while j + NN_NR <= n {
        nn_cols::<T, C, NN_MV, NN_NR>(a, shape, (b, ldb), (c, ldc), j, m, k);
        j += NN_NR;
    }
    if j + 4 <= n {
        nn_cols::<T, C, NN_MV, 4>(a, shape, (b, ldb), (c, ldc), j, m, k);
        j += 4;
    }
    while j < n {
        nn_cols::<T, C, NN_MV1, 1>(a, shape, (b, ldb), (c, ldc), j, m, k);
        j += 1;
    }
}

/// `NR` columns of [`gemm_nn_sub_impl`] from column `j`: tall tiles down
/// the rows, then one-vector tiles, then single rows.
#[inline(always)]
fn nn_cols<T: Scalar, C: Core<T>, const MV: usize, const NR: usize>(
    a: Cols<T>,
    shape: Shape,
    (b, ldb): Cols<T>,
    (c, ldc): ColsMut<T>,
    j: usize,
    m: usize,
    k: usize,
) {
    let (b, c) = ((&b[j * ldb..], ldb), &mut c[j * ldc..]);
    let mut i = 0;
    while i + MV * LANES <= m {
        nn_block::<T, C, MV, NR>(a, shape.cols_of(i, i + MV * LANES, k), b, (c, ldc), i);
        i += MV * LANES;
    }
    while i + LANES <= m {
        nn_block::<T, C, 1, NR>(a, shape.cols_of(i, i + LANES, k), b, (c, ldc), i);
        i += LANES;
    }
    while i < m {
        for t in 0..NR {
            let mut s = T::ZERO;
            for p in shape.cols_of(i, i + 1, k) {
                s += a.0[p * a.1 + i] * b.0[t * ldb + p];
            }
            c[t * ldc + i] -= s;
        }
        i += 1;
    }
}

/// One register tile of [`nn_cols`]: rows `i..i + MV·LANES`, steps `ps`.
#[inline(always)]
fn nn_block<T: Scalar, C: Core<T>, const MV: usize, const NR: usize>(
    (a, lda): Cols<T>,
    ps: Range<usize>,
    b: Cols<T>,
    (c, ldc): ColsMut<T>,
    i: usize,
) {
    if !ps.is_empty() {
        let a = (&a[ps.start * lda + i..], lda);
        C::nn_tile::<MV, NR>(a, cols_at(b, 0, &ps), (&mut c[i..], ldc));
    }
}

// ---------------------------------------------------------------------------
// Public primitives: one dispatch point per shape. The simd path engages
// only for `f64` on an x86-64 host with AVX2+FMA present at runtime;
// everything else takes the safe scalar-blocked core.
// ---------------------------------------------------------------------------

/// Below this many touched elements the *scalar* core loses to a plain
/// sequential per-column loop: at ~100 flops the register-blocking
/// machinery (group/tail selection, lane reductions, out-of-line calls)
/// costs more than the latency chains it breaks — the factor kernels'
/// in-panel trailing update at `b = 8` is the canonical victim (~50
/// elements per call). It governs the hosts and
/// element types the scalar core serves; where the vector core is detected
/// [`VECTOR_MIN_WORK`] decides first. The tier is selected purely by
/// argument shape, so results stay a deterministic function of shape (see
/// the module-level contract).
const NAIVE_MAX_WORK: usize = 128;

/// Minimum number of touched elements before a level-1.5 primitive is
/// routed through the runtime-detected vector core; below it the plain
/// loop runs. `#[target_feature]` functions cannot inline into their SSE2
/// callers, so each vector-path call pays a real function-call +
/// slice-cast toll, which the FMA core earns back from one 4-lane strip of
/// eight columns on (DESIGN §14 has the sweep: 16 to 64 read alike, 512
/// costs the b = 16 factor kernels 10–20 %, b = 8 does not notice). Like
/// [`NAIVE_MAX_WORK`] it is a function of shape alone, so which core a
/// call rounds with is too.
const VECTOR_MIN_WORK: usize = 32;

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
        #[cfg(target_arch = "x86_64")]
        if work >= VECTOR_MIN_WORK && simd::enabled::<T>() {
            $simd_call;
            return;
        }
        // Tiny shapes (and, with the vector core present, everything it
        // did not take): the inlined sequential loops.
        if work < NAIVE_MAX_WORK {
            $naive;
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

/// `out = [add +] XᵀY`: `X` is `k x m` with the zero structure `shape`
/// promises, `Y` is `k x n`, `out` and `add` are `m x n`; `dims` is
/// `(m, n, k)`. Every element of `out` is written, none is read.
pub fn gemm_tn<T: Scalar>(
    x: Cols<T>,
    shape: Shape,
    y: Cols<T>,
    add: Option<Cols<T>>,
    out: ColsMut<T>,
    dims: (usize, usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    if simd::enabled::<T>() {
        return simd::gemm_tn(x, shape, y, add, out, dims);
    }
    gemm_tn_impl::<T, block::ScalarCore>(x, shape, y, add, out, dims)
}

/// `C -= A·B`: `A` is `m x k` with the zero structure `shape` promises,
/// `B` is `k x n`, `C` is `m x n`; `dims` is `(m, n, k)`.
pub fn gemm_nn_sub<T: Scalar>(
    a: Cols<T>,
    shape: Shape,
    b: Cols<T>,
    c: ColsMut<T>,
    dims: (usize, usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    if simd::enabled::<T>() {
        return simd::gemm_nn_sub(a, shape, b, c, dims);
    }
    gemm_nn_sub_impl::<T, block::ScalarCore>(a, shape, b, c, dims)
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
