//! Dense row-major `f32` matrix used throughout the BGC reproduction.
//!
//! The matrix is deliberately simple: a contiguous `Vec<f32>` plus a shape.
//! All the heavy numerical kernels the paper needs (mat-mul, transpose,
//! element-wise maps, reductions, row operations) live here; the actual
//! compute is routed through the blocked, parallel substrate in
//! [`crate::kernel`], and differentiable versions are layered on top by
//! [`crate::tape`].

use crate::kernel::{self, RowLabels, SoftmaxGradScratch};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Reusable transpose-pack scratch for [`Matrix::matmul_transpose`],
    /// which runs in hot loops; without reuse each call pays a fresh
    /// multi-megabyte zeroed allocation whose page faults dominate the pack
    /// itself.
    static PACK_BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local scratch slice of exactly `len` elements.
/// The contents are unspecified on entry — `transpose_into` overwrites every
/// element before `gemm` reads it.
fn with_pack_buffer(len: usize, f: impl FnOnce(&mut [f32])) {
    PACK_BUFFER.with(|cell| {
        let mut buffer = cell.borrow_mut();
        if buffer.len() < len {
            buffer.resize(len, 0.0);
        }
        f(&mut buffer[..len]);
    });
}

/// A dense, row-major matrix of `f32` values.
///
/// Shapes are validated eagerly: every operation that combines two matrices
/// panics with a descriptive message when the shapes are incompatible.  This
/// mirrors the behaviour of the dense tensors the original paper relied on
/// and keeps the call sites free of `Result` plumbing for programmer errors.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::new: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// A matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// A matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from a list of equally sized rows.
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {} has length {}, expected {}",
                i,
                r.len(),
                cols
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A one-hot encoded label matrix with `classes` columns.
    pub fn one_hot(labels: &[usize], classes: usize) -> Self {
        let mut m = Self::zeros(labels.len(), classes);
        for (i, &l) in labels.iter().enumerate() {
            assert!(
                l < classes,
                "Matrix::one_hot: label {} out of range for {} classes",
                l,
                classes
            );
            m.set(i, l, 1.0);
        }
        m
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

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] += v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns a new matrix with the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "select_rows: index {} out of bounds for {} rows",
                idx,
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Returns a new matrix with the selected columns, in order.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Stacks two matrices vertically (`self` on top of `other`).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vstack: column mismatch {} vs {}",
            self.cols, other.cols
        );
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::new(self.rows + other.rows, self.cols, data)
    }

    /// Stacks two matrices horizontally (`self` left of `other`).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "hstack: row mismatch {} vs {}",
            self.rows, other.rows
        );
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Matrix transpose (cache-blocked).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernel::transpose_into(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Dense matrix multiplication `self * other`.
    ///
    /// Routed through the blocked kernel substrate ([`crate::kernel::gemm`]):
    /// cache-tiled, depth-unrolled, autovectorized, and parallel over output
    /// row blocks for larger problems. Note the inner loops are branch-free;
    /// sparse operands should use [`crate::sparse::CsrMatrix::spmm`] instead
    /// of relying on zero-skipping here.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernel::gemm(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Computes `self^T * other` with [`crate::kernel::gemm_tn`]: each output
    /// task packs `self^T` one cache-sized panel at a time and runs the
    /// blocked gemm row kernels on it, and a narrow output (fewer than
    /// [`crate::kernel::LANES`] columns) is computed as `(other^T * self)^T`
    /// inside the kernel. No transpose of the whole operand is
    /// materialized; the result is bit-identical to transposing `self` and
    /// calling [`Matrix::matmul`].
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul: row mismatch {} vs {}",
            self.rows, other.rows
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        kernel::gemm_tn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Computes `self * other^T` through the shared blocked kernel: the
    /// right operand is transpose-packed, then the product runs as a plain
    /// [`crate::kernel::gemm`]. This replaces the per-entry dot-product
    /// formulation, whose serial reduction LLVM cannot vectorize.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose: column mismatch {} vs {}",
            self.cols, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        with_pack_buffer(other.data.len(), |packed| {
            kernel::transpose_into(other.rows, other.cols, &other.data, packed);
            kernel::gemm(
                self.rows,
                self.cols,
                other.rows,
                &self.data,
                packed,
                &mut out.data,
            );
        });
        out
    }

    /// Weight gradient of a linear softmax classifier on the rows of `self`
    /// (`Z`): `Zᵀ (softmax(Z · w) − onehot(labels)) / max(rows, 1)` into
    /// `out` (shaped like `w`), by the one-pass
    /// [`crate::kernel::softmax_regression_grad`]. Bit-identical to
    /// [`Matrix::softmax_regression_grad_via_chain`].
    pub fn softmax_regression_grad_into(
        &self,
        w: &Matrix,
        labels: RowLabels<'_>,
        scratch: &mut SoftmaxGradScratch,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, w.rows,
            "softmax_regression_grad: {}x{} rows against a {}x{} weight",
            self.rows, self.cols, w.rows, w.cols
        );
        assert_eq!(
            out.shape(),
            w.shape(),
            "softmax_regression_grad_into: output shape"
        );
        kernel::softmax_regression_grad(
            self.rows,
            self.cols,
            w.cols,
            &self.data,
            &w.data,
            labels,
            scratch,
            &mut out.data,
        );
    }

    /// The chain [`Matrix::softmax_regression_grad_into`] replaced —
    /// `matmul`, `softmax_rows`, `−1` at each label, `transpose_matmul`,
    /// then the `1 / max(rows, 1)` scale — kept as the reference it is
    /// checked against bit for bit.
    #[doc(hidden)]
    pub fn softmax_regression_grad_via_chain(&self, w: &Matrix, labels: RowLabels<'_>) -> Matrix {
        let mut diff = self.matmul(w).softmax_rows();
        for r in 0..self.rows {
            diff.row_mut(r)[labels.label(r)] -= 1.0;
        }
        let mut grad = self.transpose_matmul(&diff);
        grad.scale_assign(1.0 / self.rows.max(1) as f32);
        grad
    }

    /// Overwrites `self` with the contents of an equally shaped `src`.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(
            self.shape(),
            src.shape(),
            "copy_from: shape mismatch {:?} vs {:?}",
            self.shape(),
            src.shape()
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds a scalar to every entry.
    pub fn add_scalar(&self, s: f32) -> Matrix {
        self.map(|v| v + s)
    }

    /// Applies `f` to every entry, producing a new matrix. Parallel for
    /// large matrices (see [`crate::kernel::PAR_ELEM_WORK`]).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        kernel::unary_map_into(&self.data, &mut out.data, f);
        out
    }

    /// Combines two equally-shaped matrices entry-wise. Parallel for large
    /// matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        kernel::binary_map_into(&self.data, &other.data, &mut out.data, f);
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        kernel::binary_map_inplace(&mut self.data, &other.data, |a, b| a + b);
    }

    /// In-place `self += s * other` (axpy).
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign: shape mismatch"
        );
        kernel::binary_map_inplace(&mut self.data, &other.data, move |a, b| a + s * b);
    }

    /// In-place scaling.
    pub fn scale_assign(&mut self, s: f32) {
        kernel::unary_map_inplace(&mut self.data, move |v| v * s);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum entry (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum entry (positive infinity for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Sums of every row as a vector. Parallel for large matrices.
    pub fn row_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.rows];
        kernel::map_rows_into(&self.data, self.cols, &mut sums, |_, row| row.iter().sum());
        sums
    }

    /// Index of the maximum value of row `r` (first maximum wins).
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Index of the maximum value in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_argmax(r)).collect()
    }

    /// Row-wise softmax (non-differentiable helper; the differentiable version
    /// lives on the tape). Parallel over rows for large matrices.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        kernel::for_each_row(&mut out.data, self.cols, |_, row| softmax_row_in_place(row));
        out
    }

    /// Applies ReLU entry-wise.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// L2-normalizes every row (rows with tiny norm are left unchanged).
    /// Parallel over rows for large matrices.
    pub fn l2_normalize_rows(&self) -> Matrix {
        let mut out = self.clone();
        kernel::for_each_row(&mut out.data, self.cols, |_, row| {
            Self::l2_normalize_row(row)
        });
        out
    }

    /// L2-normalizes one row slice in place (left unchanged when its norm
    /// is tiny): the per-row body of [`Matrix::l2_normalize_rows`].
    pub fn l2_normalize_row(row: &mut [f32]) {
        let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }

    /// Cosine similarity between two row slices (0 when either is ~zero).
    pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "cosine_similarity: length mismatch");
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (&x, &y) in a.iter().zip(b.iter()) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        let denom = na.sqrt() * nb.sqrt();
        if denom < 1e-12 {
            0.0
        } else {
            dot / denom
        }
    }

    /// Euclidean distance between two row slices.
    pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "euclidean_distance: length mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    /// Whether every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Whether any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Clamps all entries to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        self.map(|v| v.clamp(lo, hi))
    }
}

/// The one softmax-row routine every softmax in the workspace shares
/// (max-shifted exp, in-order sum, divide with a zero-sum guard).  The
/// tape's fused cross-entropy backward replays exactly this sequence, so
/// keeping a single copy is what preserves the engine's bit-identity
/// guarantee.
pub fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_and_indexes() {
        let m = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer_length() {
        let _ = Matrix::new(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let via_helper = a.transpose_matmul(&b);
        let via_explicit = a.transpose().matmul(&b);
        assert!(via_helper.approx_eq(&via_explicit, 1e-6));
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::new(4, 3, vec![1.0; 12]);
        let via_helper = a.matmul_transpose(&b);
        let via_explicit = a.matmul(&b.transpose());
        assert!(via_helper.approx_eq(&via_explicit, 1e-6));
    }

    #[test]
    fn one_hot_encodes_labels() {
        let m = Matrix::one_hot(&[0, 2, 1], 3);
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(2), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_finds_maxima() {
        let m = Matrix::new(2, 3, vec![0.1, 0.9, 0.0, 3.0, 1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn stacking_preserves_content() {
        let a = Matrix::new(1, 2, vec![1.0, 2.0]);
        let b = Matrix::new(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let h = b.hstack(&b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::new(3, 3, (1..=9).map(|v| v as f32).collect());
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn cosine_similarity_behaves() {
        assert!((Matrix::cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((Matrix::cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert_eq!(Matrix::cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn reductions_are_consistent() {
        let m = Matrix::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
        assert!((m.frobenius_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let m = Matrix::new(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let n = m.l2_normalize_rows();
        let norm0: f32 = n.row(0).iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm0 - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }
}
