//! Compressed sparse row (CSR) matrices for graph adjacency storage.
//!
//! The original graphs in the paper (up to Reddit with 57M edges) are far too
//! large for dense storage, so the adjacency matrix, its GCN normalization
//! and the sparse-dense product `Â · X` all operate on this CSR type.

use std::sync::OnceLock;

use crate::kernel;
use crate::matrix::Matrix;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, grouped per row.
    indices: Vec<usize>,
    /// Non-zero values, aligned with `indices`.
    values: Vec<f32>,
    /// Lazily computed transpose, shared across backward passes: a graph
    /// adjacency is transposed once per [`CsrMatrix`] instead of once per
    /// epoch (see [`CsrMatrix::spmm_transpose`]).
    transpose_cache: OnceLock<Box<CsrMatrix>>,
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        // The cache is dropped on clone; it repopulates on first use.
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            transpose_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The transpose cache is derived state and excluded from equality.
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Duplicate entries are summed.  Entries with value `0.0` are dropped.
    ///
    /// # Panics
    /// Panics when a triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        // Counting sort over row indices into one flat buffer: O(nnz + rows)
        // and two allocations total, instead of the per-row `Vec<Vec<_>>`
        // construction this replaced (O(rows) allocations).
        let mut offsets = vec![0usize; rows + 2];
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "CsrMatrix::from_triplets: entry ({}, {}) out of bounds for {}x{}",
                r,
                c,
                rows,
                cols
            );
            offsets[r + 2] += 1;
        }
        for r in 2..offsets.len() {
            offsets[r] += offsets[r - 1];
        }
        // `offsets[r + 1]` is now the insertion cursor of row `r`; after the
        // scatter it has advanced to the row's end, making `offsets[..=rows]`
        // the row-boundary array.
        let mut entries: Vec<(usize, f32)> = vec![(0, 0.0); triplets.len()];
        for &(r, c, v) in triplets {
            entries[offsets[r + 1]] = (c, v);
            offsets[r + 1] += 1;
        }

        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for r in 0..rows {
            let row = &mut entries[offsets[r]..offsets[r + 1]];
            // Stable sort keeps duplicate entries in insertion order, so
            // their (floating-point) summation order is deterministic.
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Builds a CSR matrix directly from pre-validated components, skipping
    /// the counting sort of [`CsrMatrix::from_triplets`]. The hot sampled
    /// data plane assembles blocks in row/column order already; this
    /// constructor lets it avoid re-sorting ~nnz entries per block.
    ///
    /// Requirements (checked in debug builds): `indptr` has `rows + 1`
    /// monotone entries starting at 0 and ending at `indices.len()`;
    /// `indices` and `values` have equal length; each row's columns are
    /// strictly ascending and `< cols`; values are non-zero.
    ///
    /// # Panics
    /// Panics (debug builds) when the components violate the CSR invariants.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indptr.first(), Some(&0));
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), values.len());
        #[cfg(debug_assertions)]
        for r in 0..rows {
            debug_assert!(indptr[r] <= indptr[r + 1], "indptr must be monotone");
            let row = &indices[indptr[r]..indptr[r + 1]];
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {} columns must be strictly ascending",
                r
            );
            debug_assert!(
                row.iter().all(|&c| c < cols),
                "row {} has a column out of bounds",
                r
            );
        }
        debug_assert!(values.iter().all(|&v| v != 0.0), "values must be non-zero");
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Builds an unweighted adjacency matrix (every edge has weight 1) from an
    /// edge list.  The edges are inserted as given; call
    /// [`CsrMatrix::symmetrize`] for an undirected graph.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let triplets: Vec<(usize, usize, f32)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// The symmetric 0/1 adjacency of an undirected graph on `n` nodes, from
    /// its edges as `(u, v)` pairs with `u < v`, sorted and free of
    /// duplicates: the matrix `from_edges(n, edges).symmetrize()` builds, in
    /// one counting pass without triplets or per-row sorts.  Scattering the
    /// sorted pairs in order fills every row in ascending column order: row
    /// `r` receives its `(u, r)` entries (all `u < r`, ascending) before its
    /// `(r, v)` entries (all `v > r`, ascending).
    ///
    /// # Panics
    /// Panics when a pair has `u >= v` or `v >= n`, or when the pairs are
    /// not strictly ascending.
    pub fn from_sorted_undirected_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut indptr = vec![0usize; n + 1];
        let mut previous = None;
        for &(u, v) in edges {
            assert!(
                u < v && v < n,
                "CsrMatrix::from_sorted_undirected_edges: edge ({}, {}) is not u < v < {}",
                u,
                v,
                n
            );
            assert!(
                previous < Some((u, v)),
                "CsrMatrix::from_sorted_undirected_edges: edges must be sorted and unique"
            );
            previous = Some((u, v));
            indptr[u + 1] += 1;
            indptr[v + 1] += 1;
        }
        for r in 1..indptr.len() {
            indptr[r] += indptr[r - 1];
        }
        let mut cursor = indptr[..n].to_vec();
        let mut indices = vec![0usize; 2 * edges.len()];
        for &(u, v) in edges {
            indices[cursor[u]] = v;
            cursor[u] += 1;
            indices[cursor[v]] = u;
            cursor[v] += 1;
        }
        Self {
            rows: n,
            cols: n,
            indptr,
            values: vec![1.0; indices.len()],
            indices,
            transpose_cache: OnceLock::new(),
        }
    }

    /// The identity matrix as CSR.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0)).collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            transpose_cache: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.indptr[r];
        let end = self.indptr[r + 1];
        self.indices[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Neighbour column indices of row `r`.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Out-degree (number of stored entries) of row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Weighted degree (sum of values) of every row.
    pub fn weighted_degrees(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Unweighted degree (entry count) of every row.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// Reads a single entry (O(row nnz)).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.row_iter(r)
            .find(|&(col, _)| col == c)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Returns all `(row, col, value)` triplets.
    pub fn triplets(&self) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.push((r, c, v));
            }
        }
        out
    }

    /// Transpose (also CSR), via a direct counting sort over column indices:
    /// `O(nnz + cols)`, no intermediate triplet materialization. Within each
    /// output row the entries stay ordered by their source row, which keeps
    /// downstream floating-point accumulation order identical to a serial
    /// scatter — [`CsrMatrix::spmm_transpose`] relies on this.
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for c in 1..indptr.len() {
            indptr[c] += indptr[c - 1];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let slot = cursor[c];
                indices[slot] = r;
                values[slot] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// The transpose, computed once per matrix and cached (the backward pass
    /// of `Â · X` message passing hits this every epoch).
    pub fn transposed_cached(&self) -> &CsrMatrix {
        self.transpose_cache
            .get_or_init(|| Box::new(self.transpose()))
    }

    /// Returns `max(self, self^T)` entry-wise, making an adjacency symmetric.
    pub fn symmetrize(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        let mut triplets = Vec::with_capacity(self.nnz() * 2);
        for (r, c, v) in self.triplets() {
            triplets.push((r, c, v));
            if r != c {
                triplets.push((c, r, v));
            }
        }
        // Duplicate (r,c) pairs sum in from_triplets; clamp weights back to the
        // max to keep an unweighted adjacency unweighted.
        let summed = CsrMatrix::from_triplets(self.rows, self.cols, &triplets);
        let capped: Vec<(usize, usize, f32)> = summed
            .triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v.min(self.get(r, c).max(self.get(c, r)))))
            .collect();
        CsrMatrix::from_triplets(self.rows, self.cols, &capped)
    }

    /// Adds the identity to a square matrix (self-loops).
    pub fn add_self_loops(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "add_self_loops requires square");
        let mut triplets = self.triplets();
        for i in 0..self.rows {
            if self.get(i, i) == 0.0 {
                triplets.push((i, i, 1.0));
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Symmetric GCN normalization `D^{-1/2} (A + I) D^{-1/2}`, where `A + I`
    /// is [`CsrMatrix::add_self_loops`] (a unit loop on every row that stores
    /// no diagonal; a stored diagonal keeps its weight) and `D` holds its row
    /// sums.  One pass over the sorted rows sums the degrees and a second
    /// emits the scaled entries, both merging the loop in at its column; so
    /// every sum runs in the order, and every entry is the product, of the
    /// triplet chain it replaced ([`CsrMatrix::gcn_normalize_via_triplets`]),
    /// bit for bit.  Entries that scale to zero are dropped, as
    /// [`CsrMatrix::from_triplets`] drops them.
    pub fn gcn_normalize(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "gcn_normalize requires square");
        let inv_sqrt: Vec<f32> = (0..self.rows)
            .map(|r| {
                let d: f32 = self.row_with_self_loop(r).map(|(_, v)| v).sum();
                if d > 0.0 {
                    1.0 / d.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        let capacity = self.nnz() + self.rows;
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(capacity);
        let mut values = Vec::with_capacity(capacity);
        indptr.push(0);
        for r in 0..self.rows {
            self.row_with_self_loop(r).for_each(|(c, v)| {
                let scaled = v * inv_sqrt[r] * inv_sqrt[c];
                if scaled != 0.0 {
                    indices.push(c);
                    values.push(scaled);
                }
            });
            indptr.push(indices.len());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Row `r` of [`CsrMatrix::add_self_loops`] without building it: the
    /// stored entries in column order, with `(r, 1.0)` merged in at its
    /// column when the row stores no diagonal.
    fn row_with_self_loop(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (start, end) = (self.indptr[r], self.indptr[r + 1]);
        let split = start + self.indices[start..end].partition_point(|&c| c < r);
        let self_loop = (split == end || self.indices[split] != r).then_some((r, 1.0));
        let entries = |range: std::ops::Range<usize>| {
            self.indices[range.clone()]
                .iter()
                .copied()
                .zip(self.values[range].iter().copied())
        };
        entries(start..split)
            .chain(self_loop)
            .chain(entries(split..end))
    }

    /// The triplet chain [`CsrMatrix::gcn_normalize`] replaced —
    /// [`CsrMatrix::add_self_loops`], [`CsrMatrix::weighted_degrees`], then
    /// one [`CsrMatrix::from_triplets`] of the scaled entries — kept as the
    /// reference it is checked against bit for bit.
    #[doc(hidden)]
    pub fn gcn_normalize_via_triplets(&self) -> CsrMatrix {
        let with_loops = self.add_self_loops();
        let deg = with_loops.weighted_degrees();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let triplets: Vec<(usize, usize, f32)> = with_loops
            .triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v * inv_sqrt[r] * inv_sqrt[c]))
            .collect();
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Row-stochastic normalization `D^{-1} A` (no self-loops added).
    pub fn row_normalize(&self) -> CsrMatrix {
        let deg = self.weighted_degrees();
        let triplets: Vec<(usize, usize, f32)> = self
            .triplets()
            .into_iter()
            .map(|(r, c, v)| {
                let d = deg[r];
                (r, c, if d > 0.0 { v / d } else { 0.0 })
            })
            .collect();
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Splits `0..rows` into at most `parts` contiguous ranges of roughly
    /// equal non-zero count (row boundaries only). Returns the boundary
    /// array `b` with `b[0] = 0` and `b.last() = rows`.
    fn balanced_row_partition(&self, parts: usize) -> Vec<usize> {
        let total = self.nnz();
        let parts = parts.max(1);
        let target = total.div_ceil(parts).max(1);
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0);
        let mut threshold = target;
        for r in 1..self.rows {
            if self.indptr[r] >= threshold {
                bounds.push(r);
                threshold = self.indptr[r] + target;
            }
        }
        bounds.push(self.rows);
        bounds
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// Parallel over contiguous row ranges with balanced non-zero counts
    /// (so power-law degree distributions don't serialize on the hub rows);
    /// each range owns a disjoint slice of the output, and per-row
    /// accumulation order is fixed, so results are bit-identical across
    /// thread counts. Small products run serially.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// Panics unless `self * dense` fits into `out`.
    fn check_spmm_shapes(&self, dense: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: inner dimensions differ ({}x{} * {}x{})",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, dense.cols()),
            "spmm_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            dense.cols()
        );
    }

    /// [`CsrMatrix::spmm`] into a caller-provided (pool-backed) output.
    ///
    /// `out` must be `rows x dense.cols()`; every row is overwritten.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.check_spmm_shapes(dense, out);
        let work = self.nnz() * dense.cols();
        if work >= kernel::PAR_SPMM_WORK && rayon::current_num_threads() > 1 {
            self.spmm_partitioned_into(dense, out, rayon::current_num_threads() * 4);
        } else {
            self.spmm_serial_into(dense, out);
        }
    }

    /// Recomputes only the listed `rows` of `self * dense` into `out` and
    /// leaves every other row of `out` untouched.  Each listed row is
    /// bit-identical to the same row of [`CsrMatrix::spmm`]: both run the
    /// one per-row body.  Serial, because it is meant for row subsets that
    /// are a small share of the matrix (an in-place update of a propagated
    /// layer whose inputs changed in a few rows).
    ///
    /// # Panics
    /// Panics on a shape mismatch or a row index `>= rows`.
    pub fn spmm_rows_into(&self, dense: &Matrix, rows: &[usize], out: &mut Matrix) {
        self.check_spmm_shapes(dense, out);
        for &r in rows {
            assert!(
                r < self.rows,
                "spmm_rows_into: row {} out of bounds for {} rows",
                r,
                self.rows
            );
            self.spmm_row_into(r, dense, out.row_mut(r));
        }
    }

    /// Row `r` of `self * dense.select_rows(row_of)` without the gather:
    /// column `c` of `self` reads row `row_of[c]` of `dense`.  It runs the
    /// per-row body of [`CsrMatrix::spmm`], so the row is bit-identical to
    /// row `r` of the product over the gathered rows (a sampled block's row
    /// computed straight from the global feature matrix).
    ///
    /// # Panics
    /// Panics unless `r < rows`, `row_of` maps every column and `out_row`
    /// has `dense.cols()` entries.
    pub fn spmm_row_gathered_into(
        &self,
        r: usize,
        dense: &Matrix,
        row_of: &[usize],
        out_row: &mut [f32],
    ) {
        assert!(
            r < self.rows,
            "spmm_row_gathered_into: row {r} out of bounds"
        );
        assert_eq!(
            row_of.len(),
            self.cols,
            "spmm_row_gathered_into: column map"
        );
        assert_eq!(
            out_row.len(),
            dense.cols(),
            "spmm_row_gathered_into: row length"
        );
        self.spmm_row_with(r, out_row, |c| dense.row(row_of[c]));
    }

    /// Row `r` of `self * dense`.
    #[inline]
    fn spmm_row_into(&self, r: usize, dense: &Matrix, out_row: &mut [f32]) {
        self.spmm_row_with(r, out_row, |c| dense.row(c));
    }

    /// Row `r` of the product, reading the dense row of column `c` as
    /// `row(c)`: zero `out_row`, then one `axpy` per stored entry in column
    /// order.  The only per-row body of every SpMM path, so the serial,
    /// partitioned, row-subset and gathered-row products cannot diverge.
    /// The row starts from `+0.0`, as a zeroed output does: seeding it with
    /// the first product would keep a `-0.0` that `0.0 + (-0.0) = +0.0`
    /// erases.
    #[inline]
    fn spmm_row_with<'a>(&self, r: usize, out_row: &mut [f32], row: impl Fn(usize) -> &'a [f32]) {
        out_row.fill(0.0);
        for (c, v) in self.row_iter(r) {
            kernel::axpy(out_row, v, row(c));
        }
    }

    /// The serial row loop of [`CsrMatrix::spmm_into`] — also the reference
    /// the partitioned path must match bit for bit.
    fn spmm_serial_into(&self, dense: &Matrix, out: &mut Matrix) {
        for r in 0..self.rows {
            self.spmm_row_into(r, dense, out.row_mut(r));
        }
    }

    /// The partitioned body of [`CsrMatrix::spmm_into`]: splits the
    /// destination rows into `parts` balanced-nnz contiguous ranges, each
    /// owning a disjoint slice of the output.  Per-row accumulation order is
    /// the same as the serial loop, so the result is bit-identical for every
    /// partition and thread count.  Works for bipartite (non-square) shapes:
    /// the partition runs over *destination* rows while every range gathers
    /// from all of `dense`.
    fn spmm_partitioned_into(&self, dense: &Matrix, out: &mut Matrix, parts: usize) {
        use rayon::prelude::*;
        let cols = dense.cols();
        let bounds = self.balanced_row_partition(parts);
        // Slice the output into one disjoint block per row range.
        let mut blocks: Vec<(usize, &mut [f32])> = Vec::with_capacity(bounds.len() - 1);
        let mut rest = out.data_mut();
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut((w[1] - w[0]) * cols);
            blocks.push((w[0], head));
            rest = tail;
        }
        blocks.into_par_iter().for_each(|(row0, block)| {
            for (i, out_row) in block.chunks_mut(cols).enumerate() {
                self.spmm_row_into(row0 + i, dense, out_row);
            }
        });
    }

    /// Test hooks: the serial reference and the forced-partition path of
    /// [`CsrMatrix::spmm`], exposed so bit-identity can be checked on any
    /// machine regardless of its thread count or the work threshold.
    #[doc(hidden)]
    pub fn spmm_serial(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_serial_into(dense, &mut out);
        out
    }

    /// See [`CsrMatrix::spmm_serial`].
    #[doc(hidden)]
    pub fn spmm_partitioned(&self, dense: &Matrix, parts: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        if dense.cols() > 0 && self.nnz() > 0 {
            self.spmm_partitioned_into(dense, &mut out, parts);
        }
        out
    }

    /// Sparse-transpose times dense: `self^T * dense`.
    ///
    /// Large products use the cached CSR transpose (computed once per
    /// matrix, see [`CsrMatrix::transposed_cached`]) and run the parallel
    /// gather-form [`CsrMatrix::spmm`]; because the transpose keeps source
    /// rows ordered, this produces bit-identical results to the serial
    /// scatter fallback.
    pub fn spmm_transpose(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        self.spmm_transpose_into(dense, &mut out);
        out
    }

    /// [`CsrMatrix::spmm_transpose`] into a caller-provided (pool-backed)
    /// output.
    ///
    /// `out` must be `cols x dense.cols()` and **zeroed**.
    pub fn spmm_transpose_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            dense.rows(),
            "spmm_transpose: row mismatch {} vs {}",
            self.rows,
            dense.rows()
        );
        let cols = dense.cols();
        let work = self.nnz() * cols;
        if work >= kernel::PAR_SPMM_WORK && rayon::current_num_threads() > 1 {
            self.transposed_cached().spmm_into(dense, out);
            return;
        }
        assert_eq!(
            out.shape(),
            (self.cols, cols),
            "spmm_transpose_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.cols,
            cols
        );
        for r in 0..self.rows {
            let src = dense.row(r);
            for (c, v) in self.row_iter(r) {
                kernel::axpy(out.row_mut(c), v, src);
            }
        }
    }

    /// Densifies the matrix (only sensible for small matrices such as
    /// condensed graphs).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Builds a CSR matrix from a dense matrix, dropping entries below `tol`.
    pub fn from_dense(dense: &Matrix, tol: f32) -> CsrMatrix {
        let mut triplets = Vec::new();
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v.abs() > tol {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(dense.rows(), dense.cols(), &triplets)
    }

    /// Extracts the induced submatrix on the given (row = col) index set.
    /// Index `i` of the result corresponds to `nodes[i]` of the original.
    pub fn induced_submatrix(&self, nodes: &[usize]) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "induced_submatrix requires square");
        let mut position = vec![usize::MAX; self.rows];
        for (new, &old) in nodes.iter().enumerate() {
            position[old] = new;
        }
        let mut triplets = Vec::new();
        for (new_r, &old_r) in nodes.iter().enumerate() {
            for (c, v) in self.row_iter(old_r) {
                let new_c = position[c];
                if new_c != usize::MAX {
                    triplets.push((new_r, new_c, v));
                }
            }
        }
        CsrMatrix::from_triplets(nodes.len(), nodes.len(), &triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // 0 - 1, 1 - 2 (undirected)
        CsrMatrix::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)])
    }

    #[test]
    fn builds_from_triplets_and_dedups() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 0.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn degrees_and_row_iter() {
        let m = small();
        assert_eq!(m.degrees(), vec![1, 2, 1]);
        let row1: Vec<(usize, f32)> = m.row_iter(1).collect();
        assert_eq!(row1, vec![(0, 1.0), (2, 1.0)]);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = small();
        let x = Matrix::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sparse_result = m.spmm(&x);
        let dense_result = m.to_dense().matmul(&x);
        assert!(sparse_result.approx_eq(&dense_result, 1e-6));
    }

    #[test]
    fn partitioned_spmm_is_bit_identical_to_serial_on_bipartite_blocks() {
        // A sampled bipartite block: 193 destination rows gathering from 611
        // source nodes, with a skewed degree distribution (hub rows) so the
        // balanced-nnz partition produces uneven row ranges.  Values use
        // odd reciprocals so any accumulation-order change flips bits.
        let mut triplets = Vec::new();
        for r in 0..193usize {
            let degree = if r % 37 == 0 { 143 } else { 1 + (r * 7) % 11 };
            for k in 0..degree {
                let c = (r * 131 + k * 17) % 611;
                triplets.push((r, c, 1.0 / (1.0 + (r * 613 + c) as f32)));
            }
        }
        let block = CsrMatrix::from_triplets(193, 611, &triplets);
        // Column 0 is all `-0.0`: a zeroed output row sums it to `+0.0`.
        let x = Matrix::from_fn(611, 23, |r, c| {
            if c == 0 {
                -0.0
            } else {
                ((r * 29 + c * 7) % 97) as f32 / 9.7 - 5.0
            }
        });
        let serial = block.spmm_serial(&x);
        assert!((0..193).all(|r| serial.get(r, 0).to_bits() == 0.0f32.to_bits()));
        for parts in [1, 2, 3, 7, 16, 64] {
            let partitioned = block.spmm_partitioned(&x, parts);
            assert_eq!(
                serial
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                partitioned
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "partitioned spmm diverged from serial at parts={parts}"
            );
        }
        // The public entry point (whatever path it picks on this machine)
        // must agree too.
        assert_eq!(serial.data(), block.spmm(&x).data());
        // The row-subset product recomputes exactly the listed rows, bit for
        // bit, over a NaN-filled output whose other rows it must not touch:
        // empty, full and hub-heavy (every `r % 37 == 0` row is a hub) sets.
        let hub_heavy: Vec<usize> = (0..193)
            .filter(|r| r % 37 == 0 || r % 37 == 1 || r % 11 == 5)
            .collect();
        for rows in [Vec::new(), (0..193).collect(), hub_heavy] {
            let mut out = Matrix::from_fn(193, 23, |_, _| f32::NAN);
            block.spmm_rows_into(&x, &rows, &mut out);
            for r in 0..193 {
                let got: Vec<u32> = out.row(r).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = if rows.contains(&r) {
                    serial.row(r).iter().map(|v| v.to_bits()).collect()
                } else {
                    vec![f32::NAN.to_bits(); 23]
                };
                assert_eq!(got, want, "row {r} of a {}-row subset", rows.len());
            }
        }
        // A gathered row reads the columns' rows straight out of a larger
        // matrix and matches the product over the gathered copy bit for bit.
        let row_of: Vec<usize> = (0..611).map(|c| 3 * c + 1).collect();
        let wide = Matrix::from_fn(3 * 611 + 1, 23, |r, c| {
            if r % 3 == 1 {
                x.get(r / 3, c)
            } else {
                f32::NAN
            }
        });
        for r in 0..193 {
            let mut out = vec![f32::NAN; 23];
            block.spmm_row_gathered_into(r, &wide, &row_of, &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = serial.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "gathered row {r}");
        }
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 2, 3.0)]);
        let x = Matrix::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let a = m.spmm_transpose(&x);
        let b = m.to_dense().transpose().matmul(&x);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn gcn_normalization_rows_bounded() {
        let m = small();
        let norm = m.gcn_normalize();
        // Every entry of the normalized adjacency is in (0, 1].
        for (_, _, v) in norm.triplets() {
            assert!(v > 0.0 && v <= 1.0);
        }
        // Self-loops present.
        for i in 0..3 {
            assert!(norm.get(i, i) > 0.0);
        }
    }

    /// Every stored entry with its value's bits.
    fn entry_bits(m: &CsrMatrix) -> Vec<(usize, usize, u32)> {
        m.triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    #[test]
    fn one_pass_gcn_normalization_matches_the_triplet_chain() {
        // Weighted, negative and stored-diagonal entries, empty rows (3 and
        // 5), a row whose degree cancels to zero (6) and one that goes
        // negative (4).
        let m = CsrMatrix::from_triplets(
            7,
            7,
            &[
                (0, 0, 2.5),
                (0, 2, 0.75),
                (0, 6, -1.0),
                (1, 0, 3.0),
                (1, 1, -0.5),
                (2, 0, 0.75),
                (2, 4, 1.0),
                (4, 2, -4.0),
                (4, 4, 0.125),
                (6, 0, -1.0),
            ],
        );
        for m in [m, small(), CsrMatrix::zeros(4, 4), CsrMatrix::zeros(0, 0)] {
            let (one_pass, chain) = (m.gcn_normalize(), m.gcn_normalize_via_triplets());
            assert_eq!(entry_bits(&one_pass), entry_bits(&chain));
            assert_eq!(one_pass, chain);
        }
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_undirected_edges_panic() {
        let _ = CsrMatrix::from_sorted_undirected_edges(4, &[(1, 2), (0, 3)]);
    }

    #[test]
    #[should_panic(expected = "is not u < v")]
    fn reversed_undirected_edges_panic() {
        let _ = CsrMatrix::from_sorted_undirected_edges(4, &[(2, 1)]);
    }

    #[test]
    fn row_normalize_rows_sum_to_one() {
        let m = small();
        let norm = m.row_normalize();
        for r in 0..3 {
            let s: f32 = norm.row_iter(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let m = CsrMatrix::from_edges(3, &[(0, 1), (2, 1)]);
        let s = m.symmetrize();
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 2), 1.0);
    }

    #[test]
    fn induced_submatrix_relabels() {
        let m = small();
        let sub = m.induced_submatrix(&[1, 2]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.get(0, 1), 1.0); // old (1,2)
        assert_eq!(sub.get(1, 0), 1.0);
        assert_eq!(sub.get(0, 0), 0.0);
    }

    #[test]
    fn dense_round_trip() {
        let m = small();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d, 1e-9);
        assert_eq!(back, m);
    }
}
