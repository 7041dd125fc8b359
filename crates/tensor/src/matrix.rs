//! The core dense, row-major `f32` matrix type.

use crate::error::{ShapeError, TensorResult};
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the single tensor type in the SceneRec reproduction: vectors
/// are represented as `1 x n` (row) or `n x 1` (column) matrices, and
/// embedding tables as `entities x dim` matrices whose rows are embeddings.
///
/// The storage is a contiguous `Vec<f32>` with element `(r, c)` at
/// `r * cols + c`, so rows are cache-friendly slices — the access pattern of
/// every aggregation in the paper (sums over neighbor embedding rows).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// The serialized shape of a [`Matrix`]: the same three fields.
#[derive(Deserialize)]
struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Decodes through [`Matrix::from_vec`], so a buffer that does not hold
/// exactly `rows * cols` values is a decode error, never a matrix whose
/// row reads panic later.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let MatrixRepr { rows, cols, data } = MatrixRepr::from_value(v)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`ShapeError::BadBuffer`] if `data.len() != rows * cols`,
    /// including when `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(ShapeError::BadBuffer {
                shape: (rows, cols),
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a matrix from nested row slices (test convenience).
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
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
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    /// Panics when out of bounds; use [`Matrix::try_get`] for a fallible
    /// variant.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Fallible element access.
    pub fn try_get(&self, r: usize, c: usize) -> TensorResult<f32> {
        if r >= self.rows || c >= self.cols {
            return Err(ShapeError::OutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Extracts column `c` as a freshly allocated vector.
    pub fn column(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Fills the matrix with zeros in place, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Fills the matrix with `value` in place.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|v| *v = f(*v));
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm (sqrt of sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |acc, v| acc.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, ShapeError::BadBuffer { len: 3, .. }));
    }

    #[test]
    fn row_access_is_contiguous() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn try_get_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.try_get(1, 1).is_ok());
        assert!(m.try_get(2, 0).is_err());
        assert!(m.try_get(0, 2).is_err());
    }

    #[test]
    fn map_and_fill() {
        let mut m = Matrix::full(2, 2, 2.0);
        let sq = m.map(|v| v * v);
        assert_eq!(sq.as_slice(), &[4.0; 4]);
        m.fill_zero();
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn set_row_replaces_contents() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    /// A decoded buffer must hold exactly `rows * cols` values: one
    /// element short is an error at decode time, and so is a shape whose
    /// element count overflows `usize`.
    #[test]
    fn decoding_rejects_a_buffer_that_does_not_fit_the_shape() {
        let short = serde_json::from_str::<Matrix>(r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#);
        assert!(short.is_err(), "short buffer decoded: {short:?}");
        let huge = format!(r#"{{"rows":{n},"cols":{n},"data":[]}}"#, n = 1u64 << 32);
        assert!(serde_json::from_str::<Matrix>(&huge).is_err());
        assert!(Matrix::from_vec(1 << 32, 1 << 32, Vec::new()).is_err());
    }
}
