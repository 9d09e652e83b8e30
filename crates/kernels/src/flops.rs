//! Floating-point operation models for the tile kernels.
//!
//! Leading-order flop counts of the textbook kernels (compact-WY, one
//! `b x b` `T` per tile). These are used for GFLOP/s reporting in the
//! benches and as arithmetic-intensity inputs to the device timing models —
//! the simulator's calibrated curves (see `tileqr-sim`) are fitted per
//! device on top of these shapes. The factor kernels as implemented block
//! recursively and spend somewhat more (DESIGN §14: 3.8 b³ for a `TSQRT`
//! against the 3 b³ counted here); the models stay the textbook ones so
//! GFLOP/s rows remain comparable across kernel implementations.

/// Flops of `GEQRT` on a `b x b` tile: the `(4/3)b³` factorization plus
/// roughly `(1/3)b³` for building the `T` factor.
pub fn geqrt_flops(b: usize) -> u64 {
    let b = b as u64;
    (5 * b * b * b) / 3
}

/// Flops of `UNMQR` applying a `b`-reflector block to one `b x b` tile:
/// `W = VᵀC` (~`b³`), `TᵀW` (~`b³/2`), `C -= VW` (~`b³`).
pub fn unmqr_flops(b: usize) -> u64 {
    let b = b as u64;
    (5 * b * b * b) / 2
}

/// Flops of `TSQRT` eliminating a full `b x b` tile against a triangle:
/// dense reflector per column over the bottom tile (~`2b³`) plus `T`
/// construction (~`b³`).
pub fn tsqrt_flops(b: usize) -> u64 {
    let b = b as u64;
    3 * b * b * b
}

/// Flops of `TSMQR` updating a stacked tile pair: `W = A1 + V2ᵀA2`
/// (~`2b³`), `op(T)W` (~`b³/2`), subtraction sweep (~`2b³`).
pub fn tsmqr_flops(b: usize) -> u64 {
    let b = b as u64;
    (9 * b * b * b) / 2
}

/// Flops of `TTQRT`: the triangular structure halves the reflector work of
/// [`tsqrt_flops`].
pub fn ttqrt_flops(b: usize) -> u64 {
    tsqrt_flops(b) / 2
}

/// Flops of `TTMQR`: triangular `V2` halves the two `V2` sweeps of
/// [`tsmqr_flops`].
pub fn ttmqr_flops(b: usize) -> u64 {
    let b = b as u64;
    (11 * b * b * b) / 4
}

/// Flops of one DAG task at tile size `b` — the one `TaskKind → flops`
/// map (the scheduler's flop weights and the benches' work totals).
pub fn task_flops(kind: tileqr_dag::TaskKind, b: usize) -> u64 {
    use tileqr_dag::TaskKind::*;
    match kind {
        Geqrt { .. } => geqrt_flops(b),
        Unmqr { .. } => unmqr_flops(b),
        Tsqrt { .. } => tsqrt_flops(b),
        Tsmqr { .. } => tsmqr_flops(b),
        Ttqrt { .. } => ttqrt_flops(b),
        Ttmqr { .. } => ttmqr_flops(b),
    }
}

/// Total flops of a full QR factorization of an `m x n` matrix
/// (`2mn² − (2/3)n³`, the textbook Householder count).
pub fn qr_flops(m: usize, n: usize) -> u64 {
    let (m, n) = (m as u64, n as u64);
    2 * m * n * n - (2 * n * n * n) / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_cubically() {
        for f in [geqrt_flops, unmqr_flops, tsqrt_flops, tsmqr_flops] {
            let r = f(32) as f64 / f(16) as f64;
            assert!((r - 8.0).abs() < 0.2, "not cubic: ratio {r}");
        }
    }

    #[test]
    fn tt_cheaper_than_ts() {
        assert!(ttqrt_flops(16) < tsqrt_flops(16));
        assert!(ttmqr_flops(16) < tsmqr_flops(16));
    }

    #[test]
    fn qr_flops_square() {
        // 2n^3 - (2/3)n^3 = (4/3)n^3.
        let n = 300;
        let expect = (4.0 / 3.0) * (n as f64).powi(3);
        let got = qr_flops(n, n) as f64;
        assert!((got - expect).abs() / expect < 0.01);
    }

    /// Kernel-level flops of every task of a TS (flat) tiled QR on an
    /// `mt x nt` grid of `b x b` tiles.
    fn tiled_qr_total(mt: usize, nt: usize, b: usize) -> u64 {
        let g = tileqr_dag::TaskGraph::build_tree(mt, nt, tileqr_dag::EliminationTree::Flat);
        g.tasks().iter().map(|&t| task_flops(t, b)).sum()
    }

    #[test]
    fn tiled_total_close_to_dense_total() {
        // Tiled QR does ~constant-factor more flops than dense QR, but the
        // totals must agree to within that small factor (< 4x) and scale
        // identically with problem size.
        let b = 16;
        let t1 = tiled_qr_total(8, 8, b) as f64;
        let dense1 = qr_flops(8 * b, 8 * b) as f64;
        assert!(
            t1 > dense1 * 0.9 && t1 < dense1 * 4.0,
            "t={t1} dense={dense1}"
        );

        let t2 = tiled_qr_total(16, 16, b) as f64;
        let ratio = t2 / t1;
        assert!(ratio > 6.0 && ratio < 9.0, "bad cubic scaling: {ratio}");
    }

    #[test]
    fn task_flops_sums_to_the_tiled_total() {
        use tileqr_dag::{counts, EliminationTree, TaskGraph, TaskKind};
        let g = TaskGraph::build_tree(5, 3, EliminationTree::Flat);
        let sum: u64 = g.tasks().iter().map(|&t| task_flops(t, 16)).sum();
        let (t, e, ut, ue) = counts::class_totals(&g);
        let per_class = [
            (t, geqrt_flops(16)),
            (e, tsqrt_flops(16)),
            (ut, unmqr_flops(16)),
            (ue, tsmqr_flops(16)),
        ];
        let total: u64 = per_class.iter().map(|&(n, f)| n as u64 * f).sum();
        assert_eq!(sum, total);
        let (p, i, j, k) = (0, 1, 1, 0);
        assert_eq!(task_flops(TaskKind::Ttqrt { p, i, k }, 16), ttqrt_flops(16));
        assert_eq!(
            task_flops(TaskKind::Ttmqr { p, i, j, k }, 16),
            ttmqr_flops(16)
        );
    }

    #[test]
    fn single_tile_grid_is_just_geqrt() {
        assert_eq!(tiled_qr_total(1, 1, 16), geqrt_flops(16));
    }
}
