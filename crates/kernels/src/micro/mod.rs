//! Register-blocked microkernel layer shared by every tile kernel.
//!
//! The `_ws` kernels split into two kinds of work, and this module has one
//! family of primitives for each:
//!
//! * **Level 3 — block reflectors.** Applying one (`UNMQR`, `TSMQR`,
//!   `TTMQR`, both [`ApplySide`](crate::ApplySide)s, and the applies inside
//!   the factor kernels' recursion) is three matrix products, `W = VᵀC`,
//!   `op(T)·W` and `C −= V·W`; merging two `T` factors is three more.
//!   [`gemm_tn`] computes an `MR x NR` tile of dot products at a time with
//!   both operands read down their contiguous columns; [`gemm_nn_sub`] an
//!   outer-product tile with its second operand broadcast. Each loaded
//!   vector feeds three to eight multiply-adds and twelve to twenty-four
//!   independent accumulators hide the FMA latency. Nothing is packed:
//!   tiles are column-major, which is the layout both tiles want. A
//!   triangular operand is described by a [`Shape`], and the skeleton skips
//!   its zero triangle a vector of rows at a time.
//! * **Level 1.5 — the factor kernels' base case.** One reflector at a
//!   time over a panel a few columns wide leaves fused multi-column dots
//!   ([`dotf`]) and a rank-1 fan-out ([`rank1f_sub`]): [`NR`] columns share
//!   each load of the common vector, and a dot carries one register of
//!   accumulator lanes.
//!
//! The register cores sit behind one dispatch point, and the host — not a
//! build option — picks between them:
//!
//! * `block` — safe scalar-blocked code: the portable path (every
//!   non-x86-64 host, x86-64 without AVX2+FMA) and the host-independent
//!   reference the agreement tests compare against.
//! * `simd` (x86-64 only, and the crate's only `unsafe`) — `core::arch`
//!   intrinsics behind a small vector abstraction, one body instantiated
//!   for `f64` and `f32` at 512 bits (AVX-512F/VL) and at 256 (AVX2+FMA).
//!   A host runs the widest width it detects and only that one: always for
//!   the level-3 primitives, from the instantiation's `MIN_WORK` touched
//!   elements for the rest.
//!
//! Each core names its own register tile (lanes, the two tile shapes, the
//! work threshold); the skeletons below are compiled per core at its shape.
//!
//! **Determinism contract**: on a fixed host, every primitive performs a
//! fixed sequence of operations determined solely by the argument shapes
//! and element type — results are bit-reproducible run to run and across
//! sequential/parallel executors (which is what the testkit bit-identity
//! sweeps assert). That contract is over *shapes*, not over one global
//! loop order: a level-1.5 primitive runs on the detected vector core from
//! that core's `MIN_WORK` touched elements, and otherwise as a plain
//! sequential per-column loop below [`NAIVE_MAX_WORK`] and in the
//! lane-blocked scalar order above it. The tier is chosen by shape and
//! host, never by data. The cores differ by rounding only (FMA contracts
//! `a·b+c` to one rounding, a wider vector sums in a different order), so
//! a 512-bit host, a 256-bit host and a host with neither differ by that,
//! and cross-backend agreement is held to the condition-scaled oracle
//! budgets instead of bit equality.
//!
//! Primitives take column-major panels as a base slice plus a column stride
//! `ld` (column `j` starts at `ys[j * ld]`), so kernels pass tile storage.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use tileqr_matrix::Scalar;

mod block;
#[cfg(target_arch = "x86_64")]
mod simd;

/// Columns fused per pass (the BLIS-style `dotf` fuse factor).
pub const NR: usize = 4;

/// Which register core the primitives run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Safe scalar register-blocked code: the portable path and the
    /// host-independent reference.
    Blocked,
    /// Vector intrinsics, `f64` and `f32` alike: 512-bit on x86-64 hosts
    /// that report AVX-512F/VL, 256-bit on those with AVX2+FMA only.
    Simd,
}

/// Test pins: bit 0 [`force_backend`]'s `Blocked`, bit 1 the narrow width.
static PINS: AtomicU8 = AtomicU8::new(0);

/// Set or clear one pin and hand both to the vector backend; returns the
/// width in bits it runs at when it runs (0: none).
fn pin(bit: u8, on: bool) -> u32 {
    let pins = if on {
        PINS.fetch_or(bit, Ordering::Relaxed) | bit
    } else {
        PINS.fetch_and(!bit, Ordering::Relaxed) & !bit
    };
    #[cfg(target_arch = "x86_64")]
    return simd::set_pins(pins & 1 != 0, pins & 2 != 0);
    #[cfg(not(target_arch = "x86_64"))]
    (pins as u32 & 0)
}

/// Backend of the next calls: [`Backend::Simd`] iff this is an x86-64 host
/// reporting AVX2 and FMA and [`force_backend`] has not pinned `Blocked`.
pub fn active_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if simd::pick::<f64>(usize::MAX).is_some() {
        return Backend::Simd;
    }
    Backend::Blocked
}

/// Test hook: pin the backend (`None` restores runtime detection). Forcing
/// [`Backend::Simd`] cannot conjure a core the host lacks, so it reads as
/// `None`. Used by the backend-agreement tests; not part of the stable API.
#[doc(hidden)]
pub fn force_backend(backend: Option<Backend>) {
    pin(1, backend == Some(Backend::Blocked));
}

/// Test hook: `Some(256)` makes a host that detects 512-bit vectors run the
/// 256-bit instantiations, so both are tested where both can execute;
/// `None` restores the widest. It cannot widen or undo a [`force_backend`]
/// pin. Returns the width in bits the vector core now runs at when it runs
/// (0: the host has none). Not part of the stable API.
#[doc(hidden)]
pub fn force_vector_bits(bits: Option<u32>) -> u32 {
    pin(2, bits.is_some_and(|b| b < 512))
}

/// The register-level core a backend must provide. Slice lengths are
/// already matched by the blocking skeletons; implementations only fix the
/// accumulation order and instruction selection. A core names its register
/// tile too: `LANES` here, the level-3 tile shapes as the const parameters
/// its entry points give the skeletons.
pub(crate) trait Core<T: Scalar> {
    /// Elements per vector register: the row granularity of `nn_tile`.
    const LANES: usize;
    /// Rank-1 fan-out: `cols[j] -= w[j] · x` for `N` columns per load of `x`.
    fn rank1<const N: usize>(x: &[T], w: [T; N], cols: [&mut [T]; N]);
    /// Dot-product register tile: `r[b][a] = dot(x[a], y[b])` over
    /// `x[0].len()` rows, one register of accumulator lanes per dot and a
    /// fixed reduction tree (`4 x 1`: the fused column dot of level 1.5).
    fn tn_tile<const MR: usize, const NR: usize>(x: [&[T]; MR], y: [&[T]; NR]) -> [[T; MR]; NR];
    /// Outer-product register tile over `b[0].len()` steps:
    /// `c[j·ldc + r] -= Σ_p a[p·lda + r] · b[j][p]` for the first `rows`
    /// rows `r` — `MV` whole vectors, or at most one when `MV` is 1 —
    /// summed in registers in `p` order and subtracted once. Outside the
    /// steps `inner`, `a` is zero except in its first vector of rows (before)
    /// or its last (after): a core may run those steps on that vector alone.
    fn nn_tile<const MV: usize, const NR: usize>(
        a: Cols<T>,
        b: [&[T]; NR],
        c: ColsMut<T>,
        rows: usize,
        inner: Range<usize>,
    );
}

/// A column-major operand of a primitive: the base slice and the column
/// stride (column `j` starts at `.0[j * .1]`).
pub type Cols<'a, T> = (&'a [T], usize);
/// The written operand of a level-3 primitive, as [`Cols`].
pub type ColsMut<'a, T> = (&'a mut [T], usize);
/// Arguments of the four primitives, in the order of their public
/// signatures, as the one value a skeleton and its vector entries take.
pub(crate) type DotArgs<'a, T> = (&'a [T], &'a [T], usize, usize, &'a mut [T]);
pub(crate) type RankArgs<'a, T> = (&'a [T], &'a [T], &'a mut [T], usize, usize, usize);
type Dims = (usize, usize, usize);
pub(crate) type TnArgs<'a, T> = (
    Cols<'a, T>,
    Shape,
    Cols<'a, T>,
    Option<Cols<'a, T>>,
    ColsMut<'a, T>,
    Dims,
);
pub(crate) type NnArgs<'a, T> = (Cols<'a, T>, Shape, Cols<'a, T>, ColsMut<'a, T>, Dims);

// Blocking skeletons, generic over the register core: the column-block
// structure is fixed once, so every core shares it exactly.

/// `N` consecutive columns of a panel from column `j`, cut to `rows`.
#[inline(always)]
fn cols_at<'a, T, const N: usize>(
    (ys, ld): Cols<'a, T>,
    j: usize,
    rows: &Range<usize>,
) -> [&'a [T]; N] {
    // (`array::from_fn` with this closure stays an out-of-line call.)
    let mut cols: [&[T]; N] = [&[]; N];
    for (t, col) in cols.iter_mut().enumerate() {
        *col = &ys[(j + t) * ld..][rows.clone()];
    }
    cols
}

/// `$tile!(w)` for the literal `w` equal to `$width`: a column remainder
/// runs as one tile of exactly its width.
macro_rules! narrow {
    ($width:expr, [$($w:literal)*], $tile:ident) => {
        match $width {
            $($w => $tile!($w),)*
            _ => {}
        }
    };
}

/// `out[j] = dot(x, col_j)` for `n` equal-length columns (`col_j =
/// ys[j*ld .. j*ld + x.len()]`).
#[inline(always)]
fn dotf_impl<T: Scalar, C: Core<T>>((x, ys, ld, n, out): DotArgs<T>) {
    debug_assert!(out.len() >= n && (n == 0 || ys.len() >= (n - 1) * ld + x.len()));
    let mut j = 0;
    macro_rules! tile {
        ($w:literal) => {{
            let [d] = C::tn_tile(cols_at::<T, $w>((ys, ld), j, &(0..x.len())), [x]);
            out[j..j + $w].copy_from_slice(&d);
        }};
    }
    // `NR` columns at a time, then the last one to three as one tile.
    while j + NR <= n {
        tile!(4);
        j += NR;
    }
    narrow!(n - j, [1 2 3], tile);
}

/// Rank-1 fan-out: `col_j[..len] -= w[j] · x[..len]` for `n` columns,
/// sharing each load of `x` across [`NR`] columns.
#[inline(always)]
fn rank1f_impl<T: Scalar, C: Core<T>>((x, w, ys, ld, len, n): RankArgs<T>) {
    debug_assert!(w.len() >= n && x.len() >= len);
    debug_assert!(ld >= len || n <= 1, "columns would alias");
    let x = &x[..len];
    let mut j = 0;
    macro_rules! tile {
        ($w:literal) => {{
            let mut rest = &mut ys[j * ld..];
            let cols: [&mut [T]; $w] = std::array::from_fn(|t| {
                let (col, tail) =
                    std::mem::take(&mut rest).split_at_mut(if t + 1 < $w { ld } else { len });
                rest = tail;
                &mut col[..len]
            });
            C::rank1(x, std::array::from_fn(|t| w[j + t]), cols);
        }};
    }
    while j + NR <= n {
        tile!(4);
        j += NR;
    }
    narrow!(n - j, [1 2 3], tile);
}

// Level-3 skeletons: the three products of a block-reflector apply, each a
// sweep of register tiles over operands read in place.

/// Zero structure the caller promises for the first operand of
/// [`gemm_tn`] / [`gemm_nn_sub`]. The skeletons skip the promised region a
/// vector of rows at a time and read what is stored in the rest of it, so
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

/// `out = [add +] XᵀY` with `X` `k x m`, `Y` `k x n`, `out`/`add` `m x n`:
/// one tile of dot products per `MR x NR` block of `out`, both operands read
/// down their contiguous columns. Ragged edges take narrower tiles.
#[inline(always)]
fn gemm_tn_impl<T: Scalar, C: Core<T>, const MR: usize, const NR: usize>(
    (x, shape, y, add, out, (m, n, k)): TnArgs<T>,
) {
    // A clipped dot starts on a whole vector (the zeros above it are
    // stored, and a vector that starts mid-line splits every load).
    let rows_of = |c0, c1| {
        let rows = shape.rows_of(c0, c1, k);
        rows.start - rows.start % C::LANES..rows.end
    };
    let mut i = 0;
    while i + MR <= m {
        let rows = rows_of(i, i + MR);
        tn_rows::<T, C, MR, NR>(cols_at(x, i, &rows), y, &rows, add, (out.0, out.1), i, n);
        i += MR;
    }
    while i < m {
        let rows = rows_of(i, i + 1);
        tn_rows::<T, C, 1, NR>(cols_at(x, i, &rows), y, &rows, add, (out.0, out.1), i, n);
        i += 1;
    }
}

/// One row block of [`gemm_tn_impl`]: `MR` columns of `X` (rows `i..` of
/// `out`) against every column of `Y`, `NR` at a time.
#[inline(always)]
fn tn_rows<T: Scalar, C: Core<T>, const MR: usize, const NR: usize>(
    xs: [&[T]; MR],
    y: Cols<T>,
    rows: &Range<usize>,
    add: Option<Cols<T>>,
    (out, ldo): ColsMut<T>,
    i: usize,
    n: usize,
) {
    let mut j = 0;
    // One `MR x w` tile into rows `i..`, columns `j..` of `out`. (The `if`
    // keeps tiles wider than this core's out of its code.)
    macro_rules! tile {
        ($w:literal) => {
            if $w <= NR {
                let tile = C::tn_tile(xs, cols_at::<T, $w>(y, j, rows));
                for (t, col) in tile.iter().enumerate() {
                    let at = (j + t) * ldo + i;
                    // Summed in a local so the store is one vector wide.
                    let mut sum = *col;
                    if let Some((a, lda)) = add {
                        for (s, &a) in sum.iter_mut().zip(&a[(j + t) * lda + i..][..MR]) {
                            *s += a;
                        }
                    }
                    let o: &mut [T; MR] = (&mut out[at..][..MR]).try_into().expect("MR rows");
                    *o = sum;
                }
            }
        };
    }
    // Full tiles stop short of a one-column remainder: a last `NR + 1`
    // columns go as two halves (2 + 2, 4 + 3), never `NR` + 1.
    while n - j == NR || n - j > NR + 1 {
        narrow!(NR, [3 6], tile);
        j += NR;
    }
    let rest = n - j;
    let first = if rest > NR { rest.div_ceil(2) } else { rest };
    for width in [first, rest - first] {
        narrow!(width, [1 2 3 4 5], tile);
        j += width;
    }
}

/// `C -= A·B` with `A` `m x k`, `B` `k x n`, `C` `m x n`: one
/// outer-product tile per `MV·LANES x NR` block of `C`, `A` read down its
/// columns and `B` broadcast. Leftover columns go four at a time, then singly.
#[inline(always)]
fn gemm_nn_sub_impl<T: Scalar, C: Core<T>, const MV: usize, const NR: usize>(
    (a, shape, b, (c, ldc), (m, n, k)): NnArgs<T>,
) {
    let mut j = 0;
    while j + NR <= n {
        nn_cols::<T, C, MV, NR>(a, shape, b, (c, ldc), j, m, k);
        j += NR;
    }
    if j + 4 <= n {
        nn_cols::<T, C, MV, 4>(a, shape, b, (c, ldc), j, m, k);
        j += 4;
    }
    while j < n {
        nn_cols::<T, C, MV, 1>(a, shape, b, (c, ldc), j, m, k);
        j += 1;
    }
}

/// `NR` columns of [`gemm_nn_sub_impl`] from column `j`: `MV`-vector tiles
/// down the rows, then one vector at a time, the last one ragged.
#[inline(always)]
fn nn_cols<T: Scalar, C: Core<T>, const MV: usize, const NR: usize>(
    (a, lda): Cols<T>,
    shape: Shape,
    (b, ldb): Cols<T>,
    (c, ldc): ColsMut<T>,
    j: usize,
    m: usize,
    k: usize,
) {
    let (b, c) = ((&b[j * ldb..], ldb), &mut c[j * ldc..]);
    let (one, tall) = (C::LANES, MV * C::LANES);
    let mut i = 0;
    // One register tile: `$rows` rows from `i`, steps `$ps`, every vector of
    // rows on the steps `$inner`.
    macro_rules! tile {
        ($mv:tt, $rows:expr, $ps:expr, $inner:expr) => {{
            let (ps, inner): (Range<usize>, Range<usize>) = ($ps, $inner);
            if !ps.is_empty() {
                let (a, c) = ((&a[ps.start * lda + i..], lda), (&mut c[i..], ldc));
                let inner = inner.start - ps.start..inner.end - ps.start;
                C::nn_tile::<$mv, NR>(a, cols_at(b, 0, &ps), c, $rows, inner);
            }
        }};
    }
    while i + tall <= m {
        // A triangle is clipped per vector, not per tile: the steps only the
        // first vector of rows (`Upper`) or the last (`Lower`) needs stay out.
        let ps = shape.cols_of(i, i + tall, k);
        let inner = match shape {
            Shape::Upper if MV > 1 => shape.cols_of(i + one, i + tall, k).start..ps.end,
            Shape::Lower if MV > 1 => ps.start..shape.cols_of(i, i + tall - one, k).end,
            _ => ps.clone(),
        };
        tile!(MV, tall, ps, inner);
        i += tall;
    }
    while i < m {
        let rows = (m - i).min(one);
        let ps = shape.cols_of(i, i + rows, k);
        tile!(1, rows, ps.clone(), ps);
        i += rows;
    }
}

// Public primitives: one dispatch point per shape. The simd path engages on
// an x86-64 host with a vector width present at runtime; everything else
// takes the safe scalar-blocked core.

/// Below this many touched elements the *scalar* core loses to a plain
/// sequential per-column loop: at ~100 flops the register-blocking
/// machinery (group/tail selection, lane reductions) costs more than the
/// latency chains it breaks — the factor kernels' in-panel trailing update
/// at `b = 8` is the canonical victim. It governs the hosts the scalar core
/// serves; where a vector core is detected that core's `MIN_WORK` decides
/// first, and below it the plain loop runs (DESIGN §14 has the sweeps). Both
/// are functions of shape alone, so which core a call rounds with is too.
const NAIVE_MAX_WORK: usize = 128;

macro_rules! dispatch {
    ($work:expr, $naive:expr, $args:expr, $simd:ident, $block:ident) => {{
        let work = $work;
        #[cfg(target_arch = "x86_64")]
        if let Some(core) = simd::pick::<T>(work) {
            return simd::$simd(core, $args);
        }
        // Tiny shapes, and what a vector core did not take: plain loops.
        if work < NAIVE_MAX_WORK {
            $naive;
            return;
        }
        $block::<T, block::ScalarCore>($args)
    }};
}

/// `out[j] = dot(x, ys[j*ld .. j*ld + x.len()])` for `j < n`.
#[inline]
pub fn dotf<T: Scalar>(x: &[T], ys: &[T], ld: usize, n: usize, out: &mut [T]) {
    dispatch!(
        x.len() * n,
        for (j, o) in out[..n].iter_mut().enumerate() {
            let col = &ys[j * ld..j * ld + x.len()];
            *o = x.iter().zip(col).fold(T::ZERO, |s, (&xi, &ci)| s + xi * ci);
        },
        (x, ys, ld, n, out),
        dotf,
        dotf_impl
    );
}

/// `col_j[..len] -= w[j] · x[..len]` for `n` columns at stride `ld`.
#[inline]
pub fn rank1f_sub<T: Scalar>(x: &[T], w: &[T], ys: &mut [T], ld: usize, len: usize, n: usize) {
    dispatch!(
        len * n,
        for (j, &wj) in w[..n].iter().enumerate() {
            for (yi, &xi) in ys[j * ld..j * ld + len].iter_mut().zip(&x[..len]) {
                *yi -= wj * xi;
            }
        },
        (x, w, ys, ld, len, n),
        rank1f_sub,
        rank1f_impl
    );
}

/// `out = [add +] XᵀY`: `X` is `k x m` with the zero structure `shape`
/// promises, `Y` is `k x n`, `out` and `add` are `m x n`; `dims` is
/// `(m, n, k)`. Every element of `out` is written, none is read.
#[inline]
pub fn gemm_tn<T: Scalar>(
    x: Cols<T>,
    shape: Shape,
    y: Cols<T>,
    add: Option<Cols<T>>,
    out: ColsMut<T>,
    dims: (usize, usize, usize),
) {
    use block::ScalarCore as S;
    let args = (x, shape, y, add, out, dims);
    #[cfg(target_arch = "x86_64")]
    if let Some(core) = simd::pick::<T>(usize::MAX) {
        return simd::gemm_tn(core, args);
    }
    gemm_tn_impl::<T, S, { S::TN_MR }, { S::TN_NR }>(args)
}

/// `C -= A·B`: `A` is `m x k` with the zero structure `shape` promises,
/// `B` is `k x n`, `C` is `m x n`; `dims` is `(m, n, k)`.
#[inline]
pub fn gemm_nn_sub<T: Scalar>(
    a: Cols<T>,
    shape: Shape,
    b: Cols<T>,
    c: ColsMut<T>,
    dims: (usize, usize, usize),
) {
    use block::ScalarCore as S;
    #[cfg(target_arch = "x86_64")]
    if let Some(core) = simd::pick::<T>(usize::MAX) {
        return simd::gemm_nn_sub(core, (a, shape, b, c, dims));
    }
    gemm_nn_sub_impl::<T, S, { S::NN_MV }, { S::NN_NR }>((a, shape, b, c, dims))
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
        // A long vector (many steps at every width, a ragged last one)
        // still matches naive.
        let len = 512 + 37;
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
