//! Every buffer a kernel's vectors load from starts on a 64-byte boundary:
//! tiles however they came to be (tiled, cloned, copied on write, built from
//! a caller's `Vec`), the `T` factors a factorization leaves behind, and
//! every scratch block of a [`Workspace`], fresh, cloned or grown. The
//! offset is re-derived per allocation in safe code, so this is the check
//! that no path forgets to.

use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::Workspace;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

fn aligned<T>(what: &str, data: &[T]) {
    let at = data.as_ptr() as usize;
    assert!(
        at.is_multiple_of(64),
        "{what} starts at {at:#x}, {} past a line",
        at % 64
    );
}

fn tiles_aligned<T: Scalar>(what: &str, tiles: &TiledMatrix<T>) {
    for (i, j, tile) in tiles.iter_tiles() {
        aligned(&format!("{what} tile ({i},{j})"), tile.as_slice());
    }
}

fn workspace_aligned<T: Scalar>(what: &str, ws: &mut Workspace<T>, b: usize) {
    aligned(&format!("{what} tmp"), ws.factor_scratch(b));
    let (w, tw, v) = ws.apply_scratch(b, b, b * b);
    aligned(&format!("{what} w"), w);
    aligned(&format!("{what} tw"), tw);
    aligned(&format!("{what} v"), v);
}

fn case<T: Scalar>(rows: usize, cols: usize, b: usize) {
    let a = random_matrix::<T>(rows, cols, (rows + cols + b) as u64);
    aligned("input", a.as_slice());
    aligned("input clone", a.clone().as_slice());
    let raw = Matrix::from_col_major(rows, cols, a.as_slice().to_vec()).unwrap();
    aligned("from_col_major", raw.as_slice());

    let mut tiled = TiledMatrix::from_matrix(&a, b).unwrap();
    tiles_aligned("from_matrix", &tiled);
    tiles_aligned("clone", &tiled.clone());
    // Copy-on-write: a live reader forces `tile_mut` to clone the tile.
    let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
    let readers: Vec<_> = (0..mt * nt)
        .map(|t| tiled.tile_shared(t / nt, t % nt))
        .collect();
    for t in 0..mt * nt {
        tiled.tile_mut(t / nt, t % nt)[(0, 0)] = T::ONE;
    }
    tiles_aligned("copy-on-write", &tiled);
    drop(readers);

    for tree in [EliminationTree::Flat, EliminationTree::Binary] {
        let graph = TaskGraph::build_tree(mt, nt, tree);
        let mut state = FactorState::new(tiled.clone());
        state.run_all(&graph).unwrap();
        tiles_aligned("factored", &state.tiles());
        for k in 0..mt.min(nt) {
            for i in k..mt {
                if let Some(t) = state.geqrt_factor(i, k) {
                    aligned(&format!("geqrt T ({i},{k})"), t.as_slice());
                }
                if let Some((_, t)) = state.elim_factor_any(i, k) {
                    aligned(&format!("elimination T ({i},{k})"), t.as_slice());
                }
            }
        }
        let copy = state.clone();
        tiles_aligned("state clone", &copy.tiles());
        aligned("R", state.r_matrix().as_slice());
    }

    let mut ws = Workspace::<T>::new(b, b);
    workspace_aligned("fresh", &mut ws, b);
    workspace_aligned("cloned", &mut ws.clone(), b);
    // A request past the presized capacity grows the arena.
    workspace_aligned("grown", &mut ws, 2 * b + 1);
    assert!(ws.resizes() > 0);
}

#[test]
fn tiles_factors_and_scratch_start_on_a_cache_line() {
    // Odd sizes on purpose: allocations of every length class, and edge
    // tiles that are padded.
    for (rows, cols, b) in [(48, 48, 16), (37, 21, 5), (64, 16, 8), (9, 9, 3)] {
        case::<f64>(rows, cols, b);
        case::<f32>(rows, cols, b);
    }
}
