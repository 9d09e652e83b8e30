//! Reusable per-thread scratch arena for the tile kernels.
//!
//! Every kernel in this crate needs the same small set of scratch blocks:
//! a weight vector for the factor kernels' reflector loop, and for the
//! block-reflector products — the update kernels, and the applies and `T`
//! merges inside the factor kernels — the `W = VᵀC` work block, a second
//! block for `op(T)·W` and a staging block for a triangular `V`. A
//! [`Workspace`] is sized once from the tile size `b` and passed to the
//! kernels — their only entry points take one — which borrow slices out of
//! it instead of allocating.
//!
//! Sizing (scalars, for tile size `b`):
//!
//! | buffer | capacity | used by |
//! |--------|----------|---------|
//! | `tmp`  | `b`      | the factor kernels' in-panel trailing-update weights |
//! | `w`    | `b·b`    | the `W` block of every update kernel (`n × nc ≤ b × b` on the tile path); inside a factor kernel at most `(b/2)²` |
//! | `tw`   | `b·b`    | `op(T)·W`, out of place: both sides of `T` are one `micro::gemm_*` call into a second block (an in-place bottom-up product would serve `Tᵀ` only) |
//! | `v`    | `b·b`    | `UNMQR`/`TTMQR` and the `GEQRT`/`TTQRT` recursion: a block of `V` copied once per product with its unit diagonal and zeros written out, so the tiles can sweep it as a dense operand |
//!
//! Requests beyond the presized capacity (e.g. applying `Q` to a dense
//! right-hand side wider than one tile) grow the buffer and are counted in
//! [`resizes`](Workspace::resizes); on the tile-sized steady state that
//! counter stays at zero, which `tests/steady_state_allocs.rs` asserts with
//! a counting allocator. Each buffer is a one-column [`Matrix`], so it
//! starts on a 64-byte boundary like the tiles (§13), cloned or grown too.

use tileqr_matrix::{Matrix, Scalar};

/// Grow-once scratch arena backing the `*_ws` kernels.
#[derive(Debug, Clone)]
pub struct Workspace<T: Scalar> {
    tmp: Matrix<T>,
    w: Matrix<T>,
    tw: Matrix<T>,
    v: Matrix<T>,
    resizes: u64,
}

fn ensure<T: Scalar>(buf: &mut Matrix<T>, len: usize, resizes: &mut u64) {
    if buf.rows() < len {
        *resizes += 1;
        *buf = Matrix::zeros(len, 1);
    }
}

impl<T: Scalar> Workspace<T> {
    /// Workspace presized for tiles of size `b`.
    ///
    /// The second argument is ignored: it was the inner block size when
    /// that was an option, and stays in the signature only because the
    /// benchmark package (`perf/`, not editable alongside the library)
    /// calls `Workspace::new(b, b)`.
    pub fn new(b: usize, _ib: usize) -> Self {
        Workspace {
            tmp: Matrix::zeros(b, 1),
            w: Matrix::zeros(b * b, 1),
            tw: Matrix::zeros(b * b, 1),
            v: Matrix::zeros(b * b, 1),
            resizes: 0,
        }
    }

    /// Scratch for a factor kernel's reflector loop: `n` trailing-update
    /// weights. Contents are unspecified; the kernels write before reading.
    pub fn factor_scratch(&mut self, n: usize) -> &mut [T] {
        ensure(&mut self.tmp, n, &mut self.resizes);
        &mut self.tmp.as_mut_slice()[..n]
    }

    /// Scratch for an update kernel: the `wr × wc` work block `W`, a second
    /// one for `op(T)·W`, and `vlen` scalars to stage a triangular `V` in.
    /// Contents are unspecified; the kernels write before reading.
    pub fn apply_scratch(
        &mut self,
        wr: usize,
        wc: usize,
        vlen: usize,
    ) -> (&mut [T], &mut [T], &mut [T]) {
        ensure(&mut self.w, wr * wc, &mut self.resizes);
        ensure(&mut self.tw, wr * wc, &mut self.resizes);
        ensure(&mut self.v, vlen, &mut self.resizes);
        (
            &mut self.w.as_mut_slice()[..wr * wc],
            &mut self.tw.as_mut_slice()[..wr * wc],
            &mut self.v.as_mut_slice()[..vlen],
        )
    }

    /// Total scratch currently held, in bytes.
    pub fn bytes(&self) -> usize {
        let scalars = [&self.tmp, &self.w, &self.tw, &self.v];
        scalars.iter().map(|b| b.rows()).sum::<usize>() * std::mem::size_of::<T>()
    }

    /// How many times a scratch request outgrew the arena (0 in the sized
    /// steady state; each growth is one reallocation on the slow path).
    pub fn resizes(&self) -> u64 {
        self.resizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presized_requests_do_not_resize() {
        let mut ws = Workspace::<f64>::new(8, 4);
        for _ in 0..10 {
            let _ = ws.factor_scratch(8);
            let _ = ws.apply_scratch(8, 8, 64);
        }
        assert_eq!(ws.resizes(), 0);
    }

    #[test]
    fn oversized_request_grows_and_counts() {
        let mut ws = Workspace::<f64>::new(4, 4);
        {
            let (w, tw, v) = ws.apply_scratch(4, 12, 16);
            assert_eq!((w.len(), tw.len(), v.len()), (48, 48, 16));
        }
        assert_eq!(ws.resizes(), 2);
        // Second identical request is served from the grown buffers.
        let _ = ws.apply_scratch(4, 12, 16);
        assert_eq!(ws.resizes(), 2);
    }

    #[test]
    fn views_are_disjoint() {
        let mut ws = Workspace::<f64>::new(4, 2);
        let (w, tw, v) = ws.apply_scratch(4, 3, 8);
        w.fill(2.0);
        tw.fill(3.0);
        v.fill(4.0);
        assert!(w.iter().all(|&x| x == 2.0));
        assert!(tw.iter().all(|&x| x == 3.0));
        assert!(v.iter().all(|&x| x == 4.0));
    }
}
