//! Safe scalar register-blocked backend.
//!
//! Every loop here is written so LLVM's autovectorizer can keep the
//! element type's native width busy under the default x86-64 target
//! (SSE2): dots carry [`LANES`] independent accumulators (the dependent-add
//! chain of a naive `iter().sum()` dot is the thing strict FP semantics
//! forbid LLVM from breaking up), the rank-1 body is single-assignment per
//! element, and slices are pre-truncated to the trip count so bounds checks
//! vanish from the inner loops.
//!
//! The accumulation order is fixed by this file alone: lane `i % LANES`
//! takes element `i`, tails land in lane 0, and lanes reduce as
//! `(a0+a1)+(a2+a3)`. That order is what the determinism contract of
//! [`crate::micro`] promises for the `Blocked` backend on every host.

use super::{Cols, ColsMut, Core};
use std::ops::Range;
use tileqr_matrix::Scalar;

/// The portable core: safe, autovectorization-friendly scalar blocks.
pub(crate) struct ScalarCore;

/// Independent accumulator lanes per dot product (breaks the FP add latency
/// chain) and rows per block of the outer-product tile.
const LANES: usize = 4;

/// The level-3 register tiles, sized for the vectorizer's sixteen SSE2
/// registers: a 4 x 3 dot tile, two four-row blocks by six columns of
/// outer product.
impl ScalarCore {
    pub(crate) const TN_MR: usize = 4;
    pub(crate) const TN_NR: usize = 3;
    pub(crate) const NN_MV: usize = 2;
    pub(crate) const NN_NR: usize = 6;
}

impl<T: Scalar> Core<T> for ScalarCore {
    const LANES: usize = LANES;

    #[inline(always)]
    fn rank1<const N: usize>(x: &[T], w: [T; N], cols: [&mut [T]; N]) {
        for (col, wj) in cols.into_iter().zip(w) {
            for (ci, &xi) in col.iter_mut().zip(x) {
                *ci -= wj * xi;
            }
        }
    }

    // One pass per column of `Y`/`C`: at most `4·LANES` accumulators live,
    // which is what fits the sixteen SSE2 registers the vectorizer has; the
    // full `MR x NR` block at once spills and runs at half the speed.
    #[inline(always)]
    fn tn_tile<const MR: usize, const NR: usize>(x: [&[T]; MR], y: [&[T]; NR]) -> [[T; MR]; NR] {
        let k = x[0].len();
        let x = x.map(|c| &c[..k]);
        y.map(|yb| {
            let yb = &yb[..k];
            let mut acc = [[T::ZERO; LANES]; MR];
            let mut p = 0;
            while p + LANES <= k {
                let ys = &yb[p..p + LANES];
                for (xa, lanes) in x.iter().zip(&mut acc) {
                    let xs = &xa[p..p + LANES];
                    for l in 0..LANES {
                        lanes[l] += xs[l] * ys[l];
                    }
                }
                p += LANES;
            }
            while p < k {
                for (xa, lanes) in x.iter().zip(&mut acc) {
                    lanes[0] += xa[p] * yb[p];
                }
                p += 1;
            }
            acc.map(|l| (l[0] + l[1]) + (l[2] + l[3]))
        })
    }

    #[inline(always)]
    fn nn_tile<const MV: usize, const NR: usize>(
        (a, lda): Cols<T>,
        b: [&[T]; NR],
        (c, ldc): ColsMut<T>,
        rows: usize,
        // Every step runs on every row: the zeros outside `inner` are stored.
        _inner: Range<usize>,
    ) {
        for (j, bj) in b.iter().enumerate() {
            let cj = &mut c[j * ldc..j * ldc + rows];
            let mut acc = [[T::ZERO; LANES]; MV];
            if rows == MV * LANES {
                for (p, &w) in bj.iter().enumerate() {
                    let col = &a[p * lda..p * lda + MV * LANES];
                    for (rows, lanes) in col.chunks_exact(LANES).zip(&mut acc) {
                        for l in 0..LANES {
                            lanes[l] += rows[l] * w;
                        }
                    }
                }
            } else {
                // A ragged last block: the same sums, one row at a time.
                for (p, &w) in bj.iter().enumerate() {
                    let col = &a[p * lda..p * lda + rows];
                    for (s, &r) in acc.iter_mut().flatten().zip(col) {
                        *s += r * w;
                    }
                }
            }
            for (ci, s) in cj.iter_mut().zip(acc.iter().flatten()) {
                *ci -= *s;
            }
        }
    }
}
