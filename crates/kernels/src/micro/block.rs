//! Safe scalar register-blocked backend.
//!
//! Every loop here is written so LLVM's autovectorizer can keep the
//! element type's native width busy under the default x86-64 target
//! (SSE2): dots carry [`LANES`](super::LANES) independent accumulators
//! (the dependent-add chain of a naive `iter().sum()` dot is the thing
//! strict FP semantics forbid LLVM from breaking up), and the axpy /
//! rank-1 bodies are single-assignment per element with no cross-iteration
//! dependence. Slices are pre-truncated to the trip count so bounds
//! checks vanish from the inner loops.
//!
//! The accumulation order is fixed by this file alone: lane `i % LANES`
//! takes element `i`, tails land in lane 0, and lanes reduce as
//! `(a0+a1)+(a2+a3)`. That order is what the determinism contract of
//! [`crate::micro`] promises for the `Blocked` backend on every host.

use super::{Cols, ColsMut, Core, LANES};
use tileqr_matrix::Scalar;

/// The portable core: safe, autovectorization-friendly scalar blocks.
pub(crate) struct ScalarCore;

impl<T: Scalar> Core<T> for ScalarCore {
    #[inline(always)]
    fn axpy1(a: T, c: &[T], y: &mut [T]) {
        let c = &c[..y.len()];
        for (yi, &ci) in y.iter_mut().zip(c) {
            *yi += a * ci;
        }
    }

    #[inline(always)]
    fn rank1_4(x: &[T], w: [T; 4], c0: &mut [T], c1: &mut [T], c2: &mut [T], c3: &mut [T]) {
        let n = c0.len();
        let x = &x[..n];
        let (c1, c2, c3) = (&mut c1[..n], &mut c2[..n], &mut c3[..n]);
        for (i, &xv) in x.iter().enumerate() {
            c0[i] -= w[0] * xv;
            c1[i] -= w[1] * xv;
            c2[i] -= w[2] * xv;
            c3[i] -= w[3] * xv;
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
    ) {
        for (j, bj) in b.iter().enumerate() {
            let cj = &mut c[j * ldc..j * ldc + MV * LANES];
            let mut acc = [[T::ZERO; LANES]; MV];
            for (p, &w) in bj.iter().enumerate() {
                let col = &a[p * lda..p * lda + MV * LANES];
                for (rows, lanes) in col.chunks_exact(LANES).zip(&mut acc) {
                    for l in 0..LANES {
                        lanes[l] += rows[l] * w;
                    }
                }
            }
            for (ci, s) in cj.iter_mut().zip(acc.iter().flatten()) {
                *ci -= *s;
            }
        }
    }
}
