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

use super::{Core, LANES};
use tileqr_matrix::Scalar;

/// The portable core: safe, autovectorization-friendly scalar blocks.
pub(crate) struct ScalarCore;

impl<T: Scalar> Core<T> for ScalarCore {
    #[inline(always)]
    fn dot1(x: &[T], c: &[T]) -> T {
        let n = x.len();
        let c = &c[..n];
        let mut a = [T::ZERO; LANES];
        let mut xc = x.chunks_exact(LANES);
        let mut cc = c.chunks_exact(LANES);
        for (xs, cs) in (&mut xc).zip(&mut cc) {
            for l in 0..LANES {
                a[l] += xs[l] * cs[l];
            }
        }
        for (&xv, &cv) in xc.remainder().iter().zip(cc.remainder()) {
            a[0] += xv * cv;
        }
        (a[0] + a[1]) + (a[2] + a[3])
    }

    #[inline(always)]
    fn dot4(x: &[T], c0: &[T], c1: &[T], c2: &[T], c3: &[T]) -> [T; 4] {
        let n = x.len();
        let (c0, c1, c2, c3) = (&c0[..n], &c1[..n], &c2[..n], &c3[..n]);
        let mut a0 = [T::ZERO; LANES];
        let mut a1 = [T::ZERO; LANES];
        let mut a2 = [T::ZERO; LANES];
        let mut a3 = [T::ZERO; LANES];
        // One contiguous LANES-wide strip per column, each in its own
        // lane loop: this is the shape the vectorizer maps onto a single
        // vector load + mul + add per column. Interleaving the columns
        // inside the lane loop instead makes SLP transpose the problem
        // into per-row gathers across the four columns — ~3x slower.
        // Per-accumulator the operation sequence is identical either
        // way, so the blocked results stay bit-for-bit the same.
        let mut i = 0;
        while i + LANES <= n {
            let xs = &x[i..i + LANES];
            let y0 = &c0[i..i + LANES];
            let y1 = &c1[i..i + LANES];
            let y2 = &c2[i..i + LANES];
            let y3 = &c3[i..i + LANES];
            for l in 0..LANES {
                a0[l] += xs[l] * y0[l];
            }
            for l in 0..LANES {
                a1[l] += xs[l] * y1[l];
            }
            for l in 0..LANES {
                a2[l] += xs[l] * y2[l];
            }
            for l in 0..LANES {
                a3[l] += xs[l] * y3[l];
            }
            i += LANES;
        }
        while i < n {
            let xv = x[i];
            a0[0] += xv * c0[i];
            a1[0] += xv * c1[i];
            a2[0] += xv * c2[i];
            a3[0] += xv * c3[i];
            i += 1;
        }
        [
            (a0[0] + a0[1]) + (a0[2] + a0[3]),
            (a1[0] + a1[1]) + (a1[2] + a1[3]),
            (a2[0] + a2[1]) + (a2[2] + a2[3]),
            (a3[0] + a3[1]) + (a3[2] + a3[3]),
        ]
    }

    #[inline(always)]
    fn axpy1<const SUB: bool>(a: T, c: &[T], y: &mut [T]) {
        let c = &c[..y.len()];
        for (yi, &ci) in y.iter_mut().zip(c) {
            if SUB {
                *yi -= a * ci;
            } else {
                *yi += a * ci;
            }
        }
    }

    #[inline(always)]
    fn axpy4<const SUB: bool>(a: [T; 4], c0: &[T], c1: &[T], c2: &[T], c3: &[T], y: &mut [T]) {
        let n = y.len();
        let (c0, c1, c2, c3) = (&c0[..n], &c1[..n], &c2[..n], &c3[..n]);
        for (i, yi) in y.iter_mut().enumerate() {
            let t = (a[0] * c0[i] + a[1] * c1[i]) + (a[2] * c2[i] + a[3] * c3[i]);
            if SUB {
                *yi -= t;
            } else {
                *yi += t;
            }
        }
    }

    #[inline(always)]
    fn rank1_1(x: &[T], w: T, c: &mut [T]) {
        let x = &x[..c.len()];
        for (ci, &xi) in c.iter_mut().zip(x) {
            *ci -= w * xi;
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
}
