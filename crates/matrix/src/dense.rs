//! Owned, column-major dense matrix.

use crate::{MatrixError, Result, Scalar};
use std::fmt;
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// Byte alignment of every [`Matrix`]'s element `(0, 0)`: one cache line,
/// which is also the widest vector the kernels load (a 512-bit load from
/// an address that is not a multiple of 64 splits a line every time).
const ALIGN: usize = 64;

/// `len` elements starting on an [`ALIGN`]-byte boundary, in safe code: the
/// `Vec` is over-allocated by just under one line and `off` skips to the
/// first aligned element. The offset belongs to one allocation, so `clone`
/// derives it again for the copy's.
struct Aligned<T> {
    buf: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: Scalar> Aligned<T> {
    /// Elements between `buf`'s base and its first aligned element.
    fn offset_of(buf: &[T]) -> usize {
        (buf.as_ptr() as usize).wrapping_neg() % ALIGN / std::mem::size_of::<T>()
    }

    fn filled(len: usize, value: T) -> Self {
        if len == 0 {
            return Self::from_vec(Vec::new());
        }
        let slack = ALIGN / std::mem::size_of::<T>() - 1;
        let buf = vec![value; len + slack];
        let off = Self::offset_of(&buf);
        Aligned { buf, off, len }
    }

    fn copy_of(data: &[T]) -> Self {
        let mut out = Self::filled(data.len(), T::ZERO);
        out.copy_from_slice(data);
        out
    }

    /// Keeps `data`'s allocation when it already starts on a line (or is
    /// empty) and copies it otherwise.
    fn from_vec(data: Vec<T>) -> Self {
        if data.is_empty() || Self::offset_of(&data) == 0 {
            let len = data.len();
            return Aligned {
                buf: data,
                off: 0,
                len,
            };
        }
        Self::copy_of(&data)
    }
}

impl<T> Deref for Aligned<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl<T> DerefMut for Aligned<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

impl<T: Scalar> Clone for Aligned<T> {
    fn clone(&self) -> Self {
        Self::copy_of(self)
    }
}

impl<T: Scalar> PartialEq for Aligned<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Dense matrix stored in column-major order (like Fortran / LAPACK).
///
/// Element `(i, j)` lives at `as_slice()[i + j * rows]`, and element
/// `(0, 0)` on a 64-byte boundary — in a fresh matrix, in a clone (so in a
/// copy-on-write tile too) and in one built from a caller's `Vec`.
/// Column-major storage is chosen because the Householder kernels sweep
/// down columns, and it matches the convention of the PLASMA kernels the
/// paper builds on.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Aligned<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: Aligned::filled(rows * cols, T::ZERO),
        }
    }

    /// Matrix of shape `rows x cols` with every element equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Matrix {
            rows,
            cols,
            data: Aligned::filled(rows * cols, value),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for (j, col) in m.data.chunks_exact_mut(rows.max(1)).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
        m
    }

    /// Construct from a column-major element buffer.
    ///
    /// Fails with [`MatrixError::BadDataLength`] when `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::BadDataLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        let data = Aligned::from_vec(data);
        Ok(Matrix { rows, cols, data })
    }

    /// Construct from nested row slices (row-major convenience, used in tests).
    pub fn from_rows(rows: &[&[T]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(MatrixError::BadDataLength {
                expected: c,
                actual: rows.iter().map(|row| row.len()).max().unwrap_or(0),
            });
        }
        Ok(Self::from_fn(r, c, |i, j| rows[i][j]))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Checked element read.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::OutOfBounds {
                index: (i, j),
                dims: self.dims(),
            });
        }
        Ok(self.data[i + j * self.rows])
    }

    /// Checked element write.
    pub fn set(&mut self, i: usize, j: usize, v: T) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::OutOfBounds {
                index: (i, j),
                dims: self.dims(),
            });
        }
        let r = self.rows;
        self.data[i + j * r] = v;
        Ok(())
    }

    /// Borrow the underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Borrow two distinct columns mutably at once (needed by in-place
    /// column updates in the kernels).
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [T], &mut [T]) {
        assert!(a != b, "columns must be distinct");
        assert!(a < self.cols && b < self.cols);
        let r = self.rows;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * r);
            (&mut lo[a * r..(a + 1) * r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * r);
            let bcol = &mut lo[b * r..(b + 1) * r];
            (&mut hi[..r], bcol)
        }
    }

    /// Copy of row `i` as a vector.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extract the contiguous submatrix of shape `nr x nc` whose top-left
    /// corner is `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Result<Matrix<T>> {
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(MatrixError::OutOfBounds {
                index: (r0 + nr, c0 + nc),
                dims: self.dims(),
            });
        }
        Ok(Matrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)]))
    }

    /// Overwrite the block with top-left corner `(r0, c0)` by `block`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix<T>) -> Result<()> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(MatrixError::OutOfBounds {
                index: (r0 + block.rows, c0 + block.cols),
                dims: self.dims(),
            });
        }
        for j in 0..block.cols {
            for i in 0..block.rows {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
        Ok(())
    }

    /// Upper-triangular copy (elements strictly below the diagonal zeroed).
    pub fn upper_triangular(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if i <= j {
                self[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// Element-wise sum. Errors on shape mismatch.
    pub fn add(&self, other: &Matrix<T>) -> Result<Matrix<T>> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference. Errors on shape mismatch.
    pub fn sub(&self, other: &Matrix<T>) -> Result<Matrix<T>> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix<T>,
        op: &'static str,
        f: impl Fn(T, T) -> T,
    ) -> Result<Matrix<T>> {
        if self.dims() != other.dims() {
            return Err(MatrixError::DimensionMismatch {
                op,
                lhs: self.dims(),
                rhs: other.dims(),
            });
        }
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
        Ok(out)
    }

    /// Scaled copy.
    pub fn scaled(&self, s: T) -> Matrix<T> {
        let mut m = self.clone();
        for v in m.data.iter_mut() {
            *v *= s;
        }
        m
    }

    /// Maximum absolute element (`max |a_ij|`), zero for empty matrices.
    pub fn max_abs(&self) -> T {
        self.data
            .iter()
            .fold(T::ZERO, |acc, &v| Scalar::max(acc, v.abs()))
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Position `(i, j)` of the first non-finite element in column-major
    /// order, or `None` when [`all_finite`](Self::all_finite) holds. Used
    /// by poison scans to report *where* a NaN/Inf entered.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        self.data
            .iter()
            .position(|v| !v.is_finite())
            .map(|k| (k % self.rows, k / self.rows))
    }

    /// `true` when `max |self - other| <= tol` and shapes match.
    pub fn approx_eq(&self, other: &Matrix<T>, tol: T) -> bool {
        self.dims() == other.dims()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Iterate over `(i, j, value)` triples in column-major order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let rows = self.rows;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k % rows, k / rows, v))
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        let r = self.rows;
        &mut self.data[i + j * r]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!(z.dims(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::<f64>::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // data = [a00, a10, a01, a11]
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn bad_data_length_rejected() {
        assert!(matches!(
            Matrix::<f64>::from_col_major(2, 2, vec![1.0; 3]),
            Err(MatrixError::BadDataLength {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        let t = m.transpose();
        assert_eq!(t[(0, 1)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r1: &[f64] = &[1.0, 2.0];
        let r2: &[f64] = &[3.0];
        assert!(Matrix::from_rows(&[r1, r2]).is_err());
    }

    #[test]
    fn get_set_checked() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        m.set(1, 1, 5.0).unwrap();
        assert_eq!(m.get(1, 1).unwrap(), 5.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn submatrix_and_set_submatrix() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(1, 1)], m[(2, 3)]);
        let mut z = Matrix::<f64>::zeros(4, 4);
        z.set_submatrix(2, 2, &s).unwrap();
        assert_eq!(z[(2, 2)], m[(1, 2)]);
        assert!(z.set_submatrix(3, 3, &s).is_err());
        assert!(m.submatrix(3, 3, 2, 2).is_err());
    }

    #[test]
    fn triangular_extractions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let u = m.upper_triangular();
        assert_eq!(u[(1, 0)], 0.0);
        assert_eq!(u[(0, 1)], 2.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let c = a.add(&b).unwrap();
        assert_eq!(c[(0, 0)], 2.0);
        let d = c.sub(&b).unwrap();
        assert!(d.approx_eq(&a, 0.0));
        let e = a.scaled(2.0);
        assert_eq!(e[(1, 1)], 8.0);
        assert!(a.add(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        {
            let (c0, c2) = m.two_cols_mut(0, 2);
            c0[0] = -1.0;
            c2[2] = -2.0;
        }
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(2, 2)], -2.0);
        let (c2, c1) = m.two_cols_mut(2, 1);
        assert_eq!(c2[2], -2.0);
        assert_eq!(c1[0], 10.0);
    }

    #[test]
    #[should_panic]
    fn two_cols_mut_same_col_panics() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        let _ = m.two_cols_mut(1, 1);
    }

    #[test]
    fn max_abs_and_finite() {
        let m = Matrix::from_rows(&[&[-5.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 5.0);
        assert!(m.all_finite());
        let mut n = m.clone();
        n[(0, 0)] = f64::NAN;
        assert!(!n.all_finite());
    }

    #[test]
    fn first_non_finite_reports_position() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        assert_eq!(m.first_non_finite(), None);
        m[(2, 1)] = f64::INFINITY;
        m[(0, 3)] = f64::NAN;
        // Column-major order: (2, 1) comes before (0, 3).
        assert_eq!(m.first_non_finite(), Some((2, 1)));
    }

    #[test]
    fn iter_indexed_covers_all() {
        let m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let mut count = 0;
        for (i, j, v) in m.iter_indexed() {
            assert_eq!(v, (i + 10 * j) as f64);
            count += 1;
        }
        assert_eq!(count, 6);
    }

    #[test]
    fn row_extraction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn debug_formatting_does_not_panic() {
        let m = Matrix::<f64>::from_fn(10, 10, |i, j| (i * j) as f64);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("..."));
    }
}
