//! The one blocked factor routine behind `GEQRT`, `TSQRT` and `TTQRT`.
//!
//! All three kernels compute reflectors `H_k = I − τ_k u_k u_kᵀ` with
//! `u_k = e_k + v_k`, store `v_k` in column `k` of a tile `v`, and build
//! the upper-triangular `T` of `Q = H_0 … H_{n−1} = I − U T Uᵀ`. They
//! differ in the three things [`Top`] names: where the entry `e_k` selects
//! lives (`alpha` and the `R` rows), which rows of its column `v_k`
//! occupies, and whether a block of `V` can be handed to the register
//! tiles as it is stored.
//!
//! Columns `[s, e)` are factored by recursion, LAPACK `dgeqrt3`'s shape:
//!
//! ```text
//! e − s ≤ BASE_WIDTH:  one reflector at a time (larfg, in-panel update,
//!                      in-panel T column) — level 1.5
//! otherwise:           factor [s, mid)
//!                      C ← Q₁ᵀ C for the columns [mid, e)   3 tile products
//!                      factor [mid, e)
//!                      T₁₂ᵀ = −T₂₂ᵀ (U₂ᵀU₁) T₁₁ᵀ            3 tile products
//! ```
//!
//! so all but the `BASE_WIDTH`-wide diagonal blocks of the work runs on
//! [`micro::gemm_tn`] / [`micro::gemm_nn_sub`]. The output is the format
//! the update kernels read: one full `n x n` `Tᵀ`, zeros stored above its
//! diagonal (DESIGN §14). The split is a function of the panel width alone,
//! so the operation sequence — and with it every rounding — is a function
//! of the tile shape (the determinism contract of [`micro`]).

use crate::householder::larfg;
use crate::micro::{self, Cols, Shape};
use crate::workspace::Workspace;
use std::ops::Range;
use tileqr_matrix::{Matrix, Scalar};

/// Panels at most this wide take the reflector loop. Swept at b = 64 and
/// b = 32 (DESIGN §14): 8 beats 4 (too little work per tile call) and 16
/// (too much of the tile left at level 1.5).
const BASE_WIDTH: usize = 8;
/// A wider panel is halved, the left half rounded up to a multiple of the
/// register tiles' column block so ragged widths keep whole tiles.
const SPLIT_MULTIPLE: usize = 4;

/// Where reflector `k`'s unit entry and `R` row live, and which rows of
/// column `k` of the reflector tile `v_k` occupies.
pub(crate) enum Top<'a, T> {
    /// `GEQRT`: the factored tile's own upper triangle; `v_k` is rows
    /// `k+1..m`. A block of `V` is unit lower trapezoidal with `R` stored
    /// over its unit diagonal, so it is staged before the tiles read it.
    Own,
    /// `TSQRT`: the `n x n` tile stacked above; `v_k` is every row. `V` is
    /// dense and read in place.
    Square(&'a mut [T]),
    /// `TTQRT`: the `n x n` tile stacked above; `v_k` is rows `0..=k`.
    /// Below its diagonal the tile holds older reflectors, so a block of
    /// `V` is staged with zeros there.
    Triangle(&'a mut [T]),
}

/// One factor-kernel call: `v` is `m x n` and `t` `n x n`, both
/// column-major with no padding.
pub(crate) struct Panel<'a, T> {
    pub top: Top<'a, T>,
    pub v: &'a mut [T],
    pub t: &'a mut [T],
    pub m: usize,
    pub n: usize,
}

impl<T: Scalar> Panel<'_, T> {
    /// Factor every column, leaving `R`, `V` and `T` where the kernel's
    /// contract says. Scratch comes from `ws`; nothing is allocated once
    /// the arena has seen the tile size.
    pub fn run(mut self, ws: &mut Workspace<T>) {
        self.t.fill(T::ZERO);
        let n = self.n;
        self.factor(0, n, ws);
    }

    fn factor(&mut self, s: usize, e: usize, ws: &mut Workspace<T>) {
        if e - s <= BASE_WIDTH {
            return self.reflectors(s, e, ws);
        }
        let mid = s + (e - s).div_ceil(2).next_multiple_of(SPLIT_MULTIPLE);
        self.factor(s, mid, ws);
        self.apply_left(s, mid, e, ws);
        self.factor(mid, e, ws);
        self.merge(s, mid, e, ws);
    }

    /// The entry reflector `k`'s unit component selects in column `j`.
    fn head(&mut self, k: usize, j: usize) -> &mut T {
        match &mut self.top {
            Top::Own => &mut self.v[j * self.m + k],
            Top::Square(r1) | Top::Triangle(r1) => &mut r1[j * self.n + k],
        }
    }

    /// Rows of `v` on which the block `U[:, c0..c1]` is nonzero (for
    /// `GEQRT` that includes the unit diagonal's rows).
    fn support(&self, c0: usize, c1: usize) -> Range<usize> {
        match self.top {
            Top::Own => c0..self.m,
            Top::Square(_) => 0..self.m,
            Top::Triangle(_) => 0..c1,
        }
    }

    /// Rows of column `k` that hold `v_k`.
    fn tail(&self, k: usize) -> Range<usize> {
        match self.top {
            Top::Own => k + 1..self.m,
            _ => self.support(k, k + 1),
        }
    }

    /// The base case: reflectors `s..e` one at a time, each applied to the
    /// panel's remaining columns; then `T[s..e, s..e]` from the panel's
    /// Gram matrix (LAPACK `larft`'s recurrence, one tile product plus a
    /// scalar loop over at most `BASE_WIDTH²/2` entries).
    fn reflectors(&mut self, s: usize, e: usize, ws: &mut Workspace<T>) {
        let (m, n, pw) = (self.m, self.n, e - s);
        let wv = ws.factor_scratch(pw);
        for k in s..e {
            let rows = self.tail(k);
            let alpha = *self.head(k, k);
            let h = larfg(alpha, &mut self.v[k * m..][rows.clone()]);
            *self.head(k, k) = h.beta;
            self.t[k * n + k] = h.tau;

            // H_k on the panel columns right of k: fused column dots for
            // all the weights, the heads folded in scalar-wise, then one
            // rank-1 fan-out over the columns' `rows`.
            let nt = e - k - 1;
            if h.tau != T::ZERO && nt > 0 {
                let wv = &mut wv[..nt];
                let vk = &self.v[k * m..][rows.clone()];
                micro::dotf(vk, &self.v[(k + 1) * m + rows.start..], m, nt, wv);
                for (t, wj) in wv.iter_mut().enumerate() {
                    let head = self.head(k, k + 1 + t);
                    *wj = (*head + *wj) * h.tau;
                    *head -= *wj;
                }
                let (left, rest) = self.v.split_at_mut((k + 1) * m);
                let vk = &left[k * m..][rows.clone()];
                micro::rank1f_sub(vk, wv, &mut rest[rows.start..], m, rows.len(), nt);
            }
        }

        // T[i,k] = −τ_k · Σ_{i ≤ l < k} T[i,l] · (u_lᵀu_k), row by row of Tᵀ.
        let rows = self.support(s, e);
        let (g, _, vs) = ws.apply_scratch(pw, pw, self.staged_len(&rows, pw));
        let (u, shape) = self.top.block(self.v, m, s..e, &rows, vs);
        micro::gemm_tn(u, shape, u, None, (g, pw), (pw, pw, rows.len()));
        let t = &mut self.t[s * n + s..];
        for k in 1..pw {
            let tau = t[k * n + k];
            for i in 0..k {
                let dot = (i..k).fold(T::ZERO, |acc, l| acc + t[i * n + l] * g[k * pw + l]);
                t[i * n + k] = -tau * dot;
            }
        }
    }

    /// `C ← Q₁ᵀ C` for the reflectors `s..mid` and the columns `mid..e`:
    /// `W = [R₁ block +] V₁ᵀC`, `W ← T₁₁ᵀW`, `R₁ block −= W`, `C −= V₁W`.
    fn apply_left(&mut self, s: usize, mid: usize, e: usize, ws: &mut Workspace<T>) {
        let (m, n) = (self.m, self.n);
        let (pw, nc) = (mid - s, e - mid);
        let rows = self.support(s, mid);
        let (w, tw, vs) = ws.apply_scratch(pw, nc, self.staged_len(&rows, pw));
        let (left, right) = self.v.split_at_mut(mid * m);
        let (v1, shape) = self.top.block(left, m, s..mid, &rows, vs);
        let c = &mut right[rows.start..];
        let dims = (pw, nc, rows.len());
        match &mut self.top {
            Top::Own => micro::gemm_tn(v1, shape, (c, m), None, (w, pw), dims),
            Top::Square(r1) | Top::Triangle(r1) => {
                let add = Some((&r1[mid * n + s..], n));
                micro::gemm_tn(v1, shape, (c, m), add, (w, pw), dims);
            }
        }
        let t11 = (&self.t[s * n + s..], n);
        tw.fill(T::ZERO);
        micro::gemm_nn_sub(t11, Shape::Lower, (w, pw), (tw, pw), (pw, nc, pw));
        tw.iter_mut().for_each(|x| *x = -*x);
        if let Top::Square(r1) | Top::Triangle(r1) = &mut self.top {
            for (j, twj) in tw.chunks_exact(pw).enumerate() {
                let head = &mut r1[(mid + j) * n + s..][..pw];
                head.iter_mut().zip(twj).for_each(|(a, &x)| *a -= x);
            }
        }
        micro::gemm_nn_sub(v1, shape, (tw, pw), (c, m), (rows.len(), nc, pw));
    }

    /// `Tᵀ[mid..e, s..mid] = −T₂₂ᵀ (U₂ᵀU₁) T₁₁ᵀ`: `X = V₁ᵀV₂` over the rows
    /// both blocks occupy (plus, for `GEQRT`, `V₁` against `U₂`'s unit
    /// entries, which staging `V₂` with its diagonal provides), `Xᵀ·T₁₁ᵀ`,
    /// and the product with `T₂₂ᵀ` subtracted from the zeroed block.
    fn merge(&mut self, s: usize, mid: usize, e: usize, ws: &mut Workspace<T>) {
        let (m, n) = (self.m, self.n);
        let (pw, pr) = (mid - s, e - mid);
        let (left, right) = (self.support(s, mid), self.support(mid, e));
        let rows = left.start.max(right.start)..left.end.min(right.end);
        let staged = if let Top::Own = self.top { pr } else { pw };
        let (w, tw, vs) = ws.apply_scratch(pw, pr, self.staged_len(&rows, staged));
        let v = &*self.v;
        let (v1, shape, v2) = match self.top {
            Top::Own => {
                let (v2, _) = self.top.block(v, m, mid..e, &rows, vs);
                ((&v[s * m + rows.start..], m), Shape::Dense, v2)
            }
            Top::Square(_) => ((&v[s * m..], m), Shape::Dense, (&v[mid * m..], m)),
            Top::Triangle(_) => {
                let (v1, shape) = self.top.block(v, m, s..mid, &rows, vs);
                (v1, shape, (&v[mid * m..], m))
            }
        };
        micro::gemm_tn(v1, shape, v2, None, (w, pw), (pw, pr, rows.len()));
        let t11 = (&self.t[s * n + s..], n);
        micro::gemm_tn((w, pw), Shape::Dense, t11, None, (tw, pr), (pr, pw, pw));
        let (t_left, t_right) = self.t.split_at_mut(mid * n);
        let (t22, t21) = ((&t_right[mid..], n), (&mut t_left[s * n + mid..], n));
        micro::gemm_nn_sub(t22, Shape::Lower, (tw, pr), t21, (pr, pw, pr));
    }

    /// Scratch a staged `rows x width` block of `V` needs (none for `TSQRT`).
    fn staged_len(&self, rows: &Range<usize>, width: usize) -> usize {
        match self.top {
            Top::Square(_) => 0,
            _ => rows.len() * width,
        }
    }
}

impl<T: Scalar> Top<'_, T> {
    /// Columns `cols` of the reflector tile `v` (column stride `m`) over
    /// `rows`, as an operand the register tiles can sweep: in place for
    /// `TSQRT`, staged into `vs` otherwise.
    fn block<'v>(
        &self,
        v: &'v [T],
        m: usize,
        cols: Range<usize>,
        rows: &Range<usize>,
        vs: &'v mut [T],
    ) -> (Cols<'v, T>, Shape) {
        match self {
            Top::Square(_) => ((&v[cols.start * m + rows.start..], m), Shape::Dense),
            Top::Own => {
                stage_unit_lower(v, m, cols, rows, vs);
                ((&*vs, rows.len()), Shape::Lower)
            }
            Top::Triangle(_) => {
                // Column `k` ends at row `k`: a block that starts at column
                // 0 is exactly upper triangular and the tiles can skip its
                // zeros; a later one has dense rows above its triangle,
                // which no `Shape` describes.
                let shape = if cols.start == 0 {
                    Shape::Upper
                } else {
                    Shape::Dense
                };
                stage_upper(v, m, cols, vs);
                ((&*vs, rows.len()), shape)
            }
        }
    }
}

/// Copy columns `cols` of a `GEQRT`-factored tile (column stride `m`) over
/// `rows` into `vs` with the implicit unit diagonal and the zeros above it
/// written out; `rows` starts at the first column's diagonal row.
pub(crate) fn stage_unit_lower<T: Scalar>(
    v: &[T],
    m: usize,
    cols: Range<usize>,
    rows: &Range<usize>,
    vs: &mut [T],
) {
    for (dst, k) in vs.chunks_exact_mut(rows.len()).zip(cols) {
        let d = k - rows.start;
        dst[..d].fill(T::ZERO);
        dst[d] = T::ONE;
        dst[d + 1..].copy_from_slice(&v[k * m + k + 1..k * m + rows.end]);
    }
}

/// Copy rows `0..cols.end` of columns `cols` of a `TTQRT` reflector tile
/// (column stride `m`) into `vs`, with zeros written below each column's
/// diagonal entry — where the tile itself still holds its `GEQRT`
/// reflectors.
pub(crate) fn stage_upper<T: Scalar>(v: &[T], m: usize, cols: Range<usize>, vs: &mut [T]) {
    for (dst, k) in vs.chunks_exact_mut(cols.end).zip(cols) {
        dst[..=k].copy_from_slice(&v[k * m..=k * m + k]);
        dst[k + 1..].fill(T::ZERO);
    }
}

/// Write `−vᵀ` for an elimination's reflector tile `v` (`m x n`, stride
/// `m`) into `out` (`n x m`, stride `n`); for `TTQRT` (`upper`) only `v`'s
/// upper triangle, so `out` is lower triangular with its zeros stored.
pub(crate) fn store_neg_transpose<T: Scalar>(v: &Matrix<T>, upper: bool, out: &mut Matrix<T>) {
    let ((m, n), v) = (v.dims(), v.as_slice());
    for (r, col) in out.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let first = if upper { r } else { 0 };
        col[..first].fill(T::ZERO);
        for (j, o) in col.iter_mut().enumerate().skip(first) {
            *o = -v[j * m + r];
        }
    }
}
