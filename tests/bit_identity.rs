//! Determinism guarantee of the parallel runtime: because every task
//! writes a disjoint tile set and the kernels themselves are deterministic,
//! the factorization result must be **bit-identical** to the sequential
//! run no matter how many workers execute it or in which order the
//! scheduler dispatches the ready set.

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::kernels::FactorState;
use tileqr::runtime::{parallel_factor, PoolConfig, SchedulePolicy};
use tileqr::{Matrix, TiledMatrix};

fn factor_sequential(a: &Matrix<f64>, b: usize, order: EliminationTree) -> FactorState<f64> {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
    let mut st = FactorState::new(tiled);
    st.run_all(&g).unwrap();
    st
}

#[test]
fn parallel_runs_bit_identical_to_sequential_across_the_sweep() {
    let a = tileqr::gen::random_matrix::<f64>(48, 48, 4242);
    let b = 8;
    for order in [EliminationTree::Flat, EliminationTree::Binary] {
        let seq = factor_sequential(&a, b, order);
        let seq_tiles = seq.tiles().to_matrix();
        let seq_r = seq.r_matrix();
        for workers in [1usize, 2, 4, 8] {
            for policy in [SchedulePolicy::Fifo, SchedulePolicy::CriticalPath] {
                let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
                let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
                let st = parallel_factor(
                    FactorState::new(tiled),
                    &g,
                    PoolConfig {
                        workers,
                        policy,
                        ..PoolConfig::default()
                    },
                )
                .unwrap();
                // Bit-identical, not approximately equal: `==` on the raw
                // f64 storage.
                assert_eq!(
                    st.tiles().to_matrix(),
                    seq_tiles,
                    "{order:?} workers={workers} {policy:?}: factored tiles diverged"
                );
                assert_eq!(
                    st.r_matrix(),
                    seq_r,
                    "{order:?} workers={workers} {policy:?}: R diverged"
                );
            }
        }
    }
}

#[test]
fn tall_matrix_sweep_is_bit_identical() {
    // Tall grid: exercises the TT tree merges under contention.
    let a = tileqr::gen::random_matrix::<f64>(64, 16, 77);
    let b = 8;
    for order in [EliminationTree::Flat, EliminationTree::Binary] {
        let seq = factor_sequential(&a, b, order);
        let seq_tiles = seq.tiles().to_matrix();
        for workers in [2usize, 8] {
            for policy in [SchedulePolicy::Fifo, SchedulePolicy::CriticalPath] {
                let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
                let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
                let st = parallel_factor(
                    FactorState::new(tiled),
                    &g,
                    PoolConfig {
                        workers,
                        policy,
                        ..PoolConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    st.tiles().to_matrix(),
                    seq_tiles,
                    "{order:?} workers={workers} {policy:?}"
                );
            }
        }
    }
}
