//! Determinism guarantee of the parallel runtime under the critical-path
//! adversary: the factorization must be **bit-identical** to the
//! sequential run whichever ready task the driver dispatches first. The
//! root crate's `tests/bit_identity.rs` runs these sweeps — same
//! matrices, trees, worker counts and `f64` / `f32` — under the driver's
//! own FIFO order; here the highest flop bottom level goes first, lent to
//! the driver as a pick hook.

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::kernels::FactorState;
use tileqr::runtime::{run_pool, PoolConfig};
use tileqr::{Matrix, Scalar, TiledMatrix};
use tileqr_testkit::adversary::{Adversary, Rule};

fn factor_sequential<T: Scalar>(a: &Matrix<T>, b: usize, order: EliminationTree) -> FactorState<T> {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
    let mut st = FactorState::new(tiled);
    st.run_all(&g).unwrap();
    st
}

const FLAT_AND_BINARY: [EliminationTree; 2] = [EliminationTree::Flat, EliminationTree::Binary];

/// The driver at every worker count, under the critical-path adversary,
/// against `run_all`, on each of `trees`.
fn sweep<T: Scalar>(a: &Matrix<T>, b: usize, workers: &[usize], trees: &[EliminationTree]) {
    for &order in trees {
        let seq = factor_sequential(a, b, order);
        let seq_tiles = seq.tiles().to_matrix();
        let seq_r = seq.r_matrix();
        for &workers in workers {
            let tiled = TiledMatrix::from_matrix(a, b).unwrap();
            let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
            let adversary = Adversary::new(Rule::CriticalPath, &g, b);
            let (st, _) = run_pool(
                FactorState::new(tiled),
                &g,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
                Some(&adversary),
            )
            .unwrap();
            // Bit-identical, not approximately equal: `==` on the raw
            // storage.
            assert_eq!(
                st.tiles().to_matrix(),
                seq_tiles,
                "{order:?} b={b} workers={workers}: factored tiles diverged"
            );
            assert_eq!(
                st.r_matrix(),
                seq_r,
                "{order:?} b={b} workers={workers}: R diverged"
            );
        }
    }
}

#[test]
fn parallel_runs_bit_identical_to_sequential_across_the_sweep() {
    let a = tileqr::gen::random_matrix::<f64>(48, 48, 4242);
    sweep(&a, 8, &[1, 2, 4, 8], &FLAT_AND_BINARY);
}

#[test]
fn tall_matrix_sweep_is_bit_identical() {
    // Tall grid: exercises the TT tree merges under contention.
    let a = tileqr::gen::random_matrix::<f64>(64, 16, 77);
    sweep(&a, 8, &[2, 8], &FLAT_AND_BINARY);
}

#[test]
fn f32_sweeps_are_bit_identical() {
    // Square and tall, at a tile size under one 16-lane vector and at the
    // paper's b = 16, where every kernel takes the vector core.
    for (rows, cols, b) in [(48, 48, 8), (64, 16, 8), (96, 64, 16), (128, 32, 16)] {
        let a = tileqr::gen::random_matrix::<f32>(rows, cols, (rows * 31 + cols) as u64);
        sweep(&a, b, &[1, 2, 4], &FLAT_AND_BINARY);
    }
}

#[test]
fn f32_sweeps_are_bit_identical_on_greedy_fibonacci_and_tsqr() {
    // The TT trees and the tall-skinny tree `TreePolicy::Auto` resolves to,
    // in the paper's element type at the paper's tile size.
    let (rows, cols, b) = (192, 32, 16);
    let a = tileqr::gen::random_matrix::<f32>(rows, cols, 0xF32);
    let tsqr = EliminationTree::default_for(rows / b, cols / b);
    assert_eq!(
        tsqr,
        EliminationTree::Plateau(EliminationTree::tsqr_domain(rows / b))
    );
    let trees = [EliminationTree::Greedy, EliminationTree::Fibonacci, tsqr];
    sweep(&a, b, &[1, 2, 4], &trees);
}
