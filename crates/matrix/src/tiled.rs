//! Tiled matrix layout.
//!
//! Tiled QR decomposition (paper §II-B) divides the input matrix into square
//! tiles; each tile is processed by one kernel invocation on one device.
//! [`TiledMatrix`] owns an `mt x nt` grid of [`Matrix`] tiles, zero-padding
//! the right/bottom edges when the global dimensions are not multiples of
//! the tile size, and remembers the true dimensions so the padding can be
//! stripped on reassembly.
//!
//! Tiles are reference-counted ([`Arc`]): a parallel runtime hands a tile
//! to a reader as a pointer clone instead of an `O(b²)` deep copy, and
//! in-place mutation goes through [`Arc::make_mut`], which only copies when
//! the tile is actually shared (copy-on-write). Sequential callers see the
//! same `tile()` / `tile_mut()` API as before.

use crate::{Matrix, MatrixError, Result, Scalar};
use std::sync::Arc;

/// A matrix partitioned into square tiles of side `tile_size`.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledMatrix<T: Scalar> {
    tile_size: usize,
    /// Number of tile rows.
    mt: usize,
    /// Number of tile columns.
    nt: usize,
    /// True (unpadded) row count.
    rows: usize,
    /// True (unpadded) column count.
    cols: usize,
    /// Row-major grid of shared tiles: `tiles[i * nt + j]`.
    tiles: Vec<Arc<Matrix<T>>>,
}

impl<T: Scalar> TiledMatrix<T> {
    /// Partition `a` into square tiles of side `tile_size`, zero-padding the
    /// final tile row/column when the dimensions are not exact multiples.
    pub fn from_matrix(a: &Matrix<T>, tile_size: usize) -> Result<Self> {
        if tile_size == 0 {
            return Err(MatrixError::BadTileSize { tile: tile_size });
        }
        let (rows, cols) = a.dims();
        let mt = rows.div_ceil(tile_size).max(1);
        let nt = cols.div_ceil(tile_size).max(1);
        let mut tiles = Vec::with_capacity(mt * nt);
        for ti in 0..mt {
            for tj in 0..nt {
                let (r0, c0) = (ti * tile_size, tj * tile_size);
                let nr = rows.saturating_sub(r0).min(tile_size);
                let nc = cols.saturating_sub(c0).min(tile_size);
                let mut tile = Matrix::zeros(tile_size, tile_size);
                for j in 0..nc {
                    tile.col_mut(j)[..nr].copy_from_slice(&a.col(c0 + j)[r0..r0 + nr]);
                }
                if nr < tile_size || nc < tile_size {
                    // Unit diagonal on the padded region keeps a padded
                    // square matrix nonsingular, so R stays invertible
                    // and solves on padded systems work unchanged.
                    for d in r0.max(c0)..(r0.min(c0) + tile_size) {
                        if d >= rows || d >= cols {
                            tile[(d - r0, d - c0)] = T::ONE;
                        }
                    }
                }
                tiles.push(Arc::new(tile));
            }
        }
        Ok(TiledMatrix {
            tile_size,
            mt,
            nt,
            rows,
            cols,
            tiles,
        })
    }

    /// All-zero tiled matrix of logical shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize, tile_size: usize) -> Result<Self> {
        Self::from_matrix(&Matrix::zeros(rows, cols), tile_size)
    }

    /// Reassemble the dense matrix, stripping edge padding.
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut a = Matrix::zeros(self.rows, self.cols);
        for (ti, tj, tile) in self.iter_tiles() {
            let (r0, c0) = (ti * self.tile_size, tj * self.tile_size);
            let nr = self.rows.saturating_sub(r0).min(self.tile_size);
            let nc = self.cols.saturating_sub(c0).min(self.tile_size);
            for j in 0..nc {
                a.col_mut(c0 + j)[r0..r0 + nr].copy_from_slice(&tile.col(j)[..nr]);
            }
        }
        a
    }

    /// Tile side length.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Number of tile rows (`mt`).
    #[inline]
    pub fn tile_rows(&self) -> usize {
        self.mt
    }

    /// Number of tile columns (`nt`).
    #[inline]
    pub fn tile_cols(&self) -> usize {
        self.nt
    }

    /// True (unpadded) dense dimensions.
    #[inline]
    pub fn dense_dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Padded dense dimensions (`mt * b`, `nt * b`).
    #[inline]
    pub fn padded_dims(&self) -> (usize, usize) {
        (self.mt * self.tile_size, self.nt * self.tile_size)
    }

    /// Borrow tile `(i, j)`.
    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &Matrix<T> {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        &self.tiles[i * self.nt + j]
    }

    /// Shared handle to tile `(i, j)` — a pointer clone, never a data copy.
    #[inline]
    pub fn tile_shared(&self, i: usize, j: usize) -> Arc<Matrix<T>> {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        Arc::clone(&self.tiles[i * self.nt + j])
    }

    /// Mutably borrow tile `(i, j)`. Copy-on-write: only clones the tile
    /// data if an `Arc` handle from [`tile_shared`](Self::tile_shared) is
    /// still alive elsewhere.
    #[inline]
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Matrix<T> {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        Arc::make_mut(&mut self.tiles[i * self.nt + j])
    }

    /// Replace tile `(i, j)` with an already-shared handle (pointer swap).
    pub fn set_tile_shared(&mut self, i: usize, j: usize, tile: Arc<Matrix<T>>) {
        assert_eq!(tile.dims(), (self.tile_size, self.tile_size));
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        self.tiles[i * self.nt + j] = tile;
    }

    /// Swap tile `(i, j)` with `replacement` and return the previous handle.
    /// Both directions are pointer moves; no tile data is touched.
    pub fn swap_tile_shared(
        &mut self,
        i: usize,
        j: usize,
        replacement: Arc<Matrix<T>>,
    ) -> Arc<Matrix<T>> {
        assert_eq!(replacement.dims(), (self.tile_size, self.tile_size));
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        std::mem::replace(&mut self.tiles[i * self.nt + j], replacement)
    }

    /// Iterate over `(tile_row, tile_col, &tile)`.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (usize, usize, &Matrix<T>)> {
        let nt = self.nt;
        self.tiles
            .iter()
            .enumerate()
            .map(move |(k, t)| (k / nt, k % nt, t.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn seq_matrix(m: usize, n: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| (i * n + j) as f64 + 1.0)
    }

    #[test]
    fn exact_tiling_round_trip() {
        let a = seq_matrix(8, 8);
        let t = TiledMatrix::from_matrix(&a, 4).unwrap();
        assert_eq!(t.tile_rows(), 2);
        assert_eq!(t.tile_cols(), 2);
        assert_eq!(t.padded_dims(), (8, 8));
        assert_eq!(t.to_matrix(), a);
    }

    #[test]
    fn padded_tiling_round_trip() {
        let a = seq_matrix(5, 7);
        let t = TiledMatrix::from_matrix(&a, 4).unwrap();
        assert_eq!(t.tile_rows(), 2);
        assert_eq!(t.tile_cols(), 2);
        assert_eq!(t.dense_dims(), (5, 7));
        assert_eq!(t.padded_dims(), (8, 8));
        assert_eq!(t.to_matrix(), a);
    }

    /// Every ragged edge against the element rule the column-run copies
    /// replaced: data inside, a unit diagonal and zeros in the padding.
    #[test]
    fn ragged_edges_match_the_element_rule() {
        let b = 4;
        let dims = [1, b - 1, b + 1, 2 * b + 3];
        for rows in dims {
            for cols in dims {
                let a = seq_matrix(rows, cols);
                let t = TiledMatrix::from_matrix(&a, b).unwrap();
                for (ti, tj, tile) in t.iter_tiles() {
                    let want = Matrix::from_fn(b, b, |i, j| {
                        let (gi, gj) = (ti * b + i, tj * b + j);
                        if gi < rows && gj < cols {
                            a[(gi, gj)]
                        } else if gi == gj {
                            1.0
                        } else {
                            0.0
                        }
                    });
                    assert_eq!(*tile, want, "{rows}x{cols} tile ({ti},{tj})");
                }
                assert_eq!(t.to_matrix(), a, "{rows}x{cols}");
            }
        }
    }

    /// Tiles start on a cache line however they came to be: tiled, cloned
    /// (the offset is per allocation) or copied on write.
    #[test]
    fn tiles_are_line_aligned_after_clone_and_cow() {
        let aligned = |t: &TiledMatrix<f32>| {
            t.iter_tiles()
                .all(|(_, _, tile)| (tile.as_slice().as_ptr() as usize).is_multiple_of(64))
        };
        let a = Matrix::<f32>::from_fn(7, 9, |i, j| (i + 10 * j) as f32);
        let mut t = TiledMatrix::from_matrix(&a, 3).unwrap();
        assert!(aligned(&t));
        assert!(aligned(&t.clone()));
        let readers: Vec<_> = (0..3).map(|j| t.tile_shared(1, j)).collect();
        for j in 0..3 {
            t.tile_mut(1, j)[(0, 0)] = -1.0;
        }
        assert!(aligned(&t));
        assert_eq!(readers[0][(0, 0)], a[(3, 0)]);
        let v = a.as_slice().to_vec();
        let m = Matrix::from_col_major(7, 9, v).unwrap();
        assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(m, a);
    }

    #[test]
    fn padding_has_unit_diagonal() {
        let a = seq_matrix(5, 5);
        let t = TiledMatrix::from_matrix(&a, 4).unwrap();
        // Global (6,6) is padding on the diagonal of the (1,1) tile.
        let corner = t.tile(1, 1);
        assert_eq!(corner[(2, 2)], 1.0); // global (6,6)
        assert_eq!(corner[(2, 3)], 0.0); // global (6,7), off-diagonal padding
        assert_eq!(corner[(0, 0)], a[(4, 4)]);
    }

    #[test]
    fn tile_indexing_matches_layout() {
        let a = seq_matrix(4, 4);
        let t = TiledMatrix::from_matrix(&a, 2).unwrap();
        assert_eq!(t.tile(0, 0)[(0, 0)], a[(0, 0)]);
        assert_eq!(t.tile(0, 1)[(0, 0)], a[(0, 2)]);
        assert_eq!(t.tile(1, 0)[(1, 1)], a[(3, 1)]);
        assert_eq!(t.tile(1, 1)[(1, 1)], a[(3, 3)]);
    }

    #[test]
    fn zero_tile_size_rejected() {
        let a = seq_matrix(2, 2);
        assert!(matches!(
            TiledMatrix::from_matrix(&a, 0),
            Err(MatrixError::BadTileSize { tile: 0 })
        ));
    }

    #[test]
    fn set_and_mutate_tiles() {
        let a = seq_matrix(4, 4);
        let mut t = TiledMatrix::from_matrix(&a, 2).unwrap();
        t.tile_mut(0, 0)[(0, 0)] = -1.0;
        assert_eq!(t.to_matrix()[(0, 0)], -1.0);
        t.set_tile_shared(1, 1, Arc::new(Matrix::identity(2)));
        assert_eq!(t.to_matrix()[(2, 2)], 1.0);
        assert_eq!(t.to_matrix()[(3, 2)], 0.0);
    }

    #[test]
    fn iter_tiles_visits_grid() {
        let a = seq_matrix(4, 6);
        let t = TiledMatrix::from_matrix(&a, 2).unwrap();
        let coords: Vec<(usize, usize)> = t.iter_tiles().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(coords.len(), 6);
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[5], (1, 2));
    }

    #[test]
    fn shared_tiles_are_pointer_clones() {
        let a = seq_matrix(4, 4);
        let t = TiledMatrix::from_matrix(&a, 2).unwrap();
        let h1 = t.tile_shared(0, 1);
        let h2 = t.tile_shared(0, 1);
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(h1[(0, 0)], a[(0, 2)]);
    }

    #[test]
    fn tile_mut_copies_only_when_shared() {
        let a = seq_matrix(4, 4);
        let mut t = TiledMatrix::from_matrix(&a, 2).unwrap();
        let reader = t.tile_shared(0, 0);
        // Copy-on-write: the live reader keeps seeing the old value.
        t.tile_mut(0, 0)[(0, 0)] = -9.0;
        assert_eq!(reader[(0, 0)], a[(0, 0)]);
        assert_eq!(t.tile(0, 0)[(0, 0)], -9.0);
        drop(reader);
        // Unshared now: mutation must not reallocate.
        let before = t.tile_shared(0, 0);
        drop(before);
        t.tile_mut(0, 0)[(0, 1)] = -8.0;
        assert_eq!(t.tile(0, 0)[(0, 1)], -8.0);
    }

    #[test]
    fn swap_tile_shared_round_trips() {
        let a = seq_matrix(4, 4);
        let mut t = TiledMatrix::from_matrix(&a, 2).unwrap();
        let fresh = Arc::new(Matrix::identity(2));
        let old = t.swap_tile_shared(1, 1, Arc::clone(&fresh));
        assert_eq!(old[(1, 1)], a[(3, 3)]);
        assert!(Arc::ptr_eq(&t.tile_shared(1, 1), &fresh));
    }

    #[test]
    fn single_tile_case() {
        let a = seq_matrix(3, 3);
        let t = TiledMatrix::from_matrix(&a, 8).unwrap();
        assert_eq!(t.tile_rows(), 1);
        assert_eq!(t.tile_cols(), 1);
        assert_eq!(t.to_matrix(), a);
    }
}
