//! Reverse-mode automatic differentiation on dense matrices.
//!
//! Every gradient-based component of the paper — GNN training (Eq. 12, 16),
//! trigger-generator updates (Eq. 13, 17), and the gradient-matching update of
//! the condensed graph (Eq. 14, 18) — is expressed as a computation recorded
//! on a [`Tape`].  The tape stores the forward values of every intermediate
//! node; [`Tape::backward`] then walks the nodes in reverse and accumulates
//! exact analytical gradients.
//!
//! The design favours clarity over generality: the operation set is exactly
//! what graph condensation and graph backdoor attacks need (sparse-dense
//! products, ReLU/softmax non-linearities, cross-entropy, row normalization,
//! straight-through binarization for discrete trigger structure, a one-row
//! propagation readout for trigger updates, per-column cosine matching for
//! gradient matching, and a differentiable SPD solve for kernel ridge
//! regression).
//!
//! # The allocation-free training engine
//!
//! Training loops record the *same* computation graph every epoch, so the
//! tape is built to be **pooled** rather than rebuilt:
//!
//! * [`Tape::reset`] clears the recorded nodes but parks every owned value
//!   buffer in the tape's [`BufferPool`]; the next epoch's operations draw
//!   their output buffers from the pool instead of the allocator.
//! * [`Tape::const_leaf`] records an `Arc<Matrix>` **by reference** — epoch
//!   constants (features, fixed adjacencies, matching targets) are never
//!   copied onto the tape.  [`Tape::leaf_copied`] records a pool-backed copy
//!   for values that change between epochs (model parameters).
//! * [`Tape::backward`] accumulates gradients **in place** into pool-backed
//!   buffers (axpy-style `+=`, no clone-then-add), seeds each node's slot by
//!   move, and fuses the element-wise backward rules (ReLU masks, softmax
//!   cross-entropy, MSE) into single passes.
//! * [`Tape::absorb`] returns a [`Gradients`] value's buffers to the pool
//!   once the optimizer step has consumed them.
//!
//! All pooled paths are **bit-identical** to the allocating implementation
//! they replaced: buffers are either zero-filled or fully overwritten, and
//! every fused rule performs the same floating-point operations in the same
//! order (property-tested in `bgc-nn`).

use std::sync::Arc;

use crate::kernel;
use crate::matrix::{softmax_row_in_place, Matrix};
use crate::pool::{BufferPool, PoolStats};
use crate::sparse::CsrMatrix;

/// A handle to a node recorded on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// The tape-internal index of this variable.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The operation that produced a node (used by the backward pass).
enum Op {
    /// Input or parameter; gradient is accumulated but not propagated further.
    Leaf,
    MatMul(usize, usize),
    /// Sparse constant (left) times variable (right).
    SpMM(Arc<CsrMatrix>, usize),
    /// Dense constant (left) times variable (right).
    ConstMul(Arc<Matrix>, usize),
    /// Variable times transposed dense constant (`x * c^T`).
    MatMulTransposeConst(usize, Arc<Matrix>),
    /// Row `row` of `adj^steps · [features[base]; tail]`; only `tail` is a
    /// variable.
    PropagateRow {
        adj: Arc<Matrix>,
        tail: usize,
        steps: usize,
        row: usize,
    },
    Add(usize, usize),
    Sub(usize, usize),
    /// `x + bias` where `bias` is a `1 x d` row broadcast over the rows of `x`.
    AddBias(usize, usize),
    Scale(usize, f32),
    Hadamard(usize, usize),
    HadamardConst(usize, Arc<Matrix>),
    Relu(usize),
    Sigmoid(usize),
    Transpose(usize),
    RowSelect(usize, Vec<usize>),
    ConcatRows(usize, usize),
    SoftmaxRows(usize),
    RowNormalize(usize),
    Reshape(usize),
    L2NormalizeRows(usize),
    SoftmaxCrossEntropy {
        logits: usize,
        labels: Vec<usize>,
    },
    MeanAll(usize),
    SumAll(usize),
    FrobeniusMse(usize, Arc<Matrix>),
    BinarizeSte(usize),
    CosineMatchToConst(usize, Arc<Matrix>),
    SolveSpd {
        a: usize,
        b: usize,
    },
}

/// The forward value of a node: owned (pool-recyclable) or shared by
/// reference with the caller ([`Tape::const_leaf`]).
enum Payload {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Payload {
    #[inline]
    fn matrix(&self) -> &Matrix {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(m) => m,
        }
    }
}

struct Node {
    value: Payload,
    op: Op,
    /// Whether any gradient-carrying leaf is reachable below this node.
    /// Backward skips accumulation into (and hence traversal of) subtrees
    /// that only lead to constants — the values read by callers are
    /// unaffected, the wasted matrix products are not performed.
    needs_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
///
/// The contained matrices are pool-backed; hand the value back to
/// [`Tape::absorb`] after the optimizer step to keep the hot loop
/// allocation-free (dropping it instead simply releases the buffers to the
/// allocator).
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if `v` participated in the
    /// computation of the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Gradient of `v`, or a zero matrix with the given shape when `v` did not
    /// influence the loss.
    pub fn get_or_zeros(&self, v: Var, rows: usize, cols: usize) -> Matrix {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(rows, cols))
    }

    /// Gradient of `v`, or `fallback` (typically a preallocated zero matrix)
    /// when `v` did not influence the loss.  The allocation-free counterpart
    /// of [`Gradients::get_or_zeros`].
    pub fn get_or<'a>(&'a self, v: Var, fallback: &'a Matrix) -> &'a Matrix {
        self.get(v).unwrap_or(fallback)
    }
}

/// The autodiff tape.  See the module documentation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Recycled gradient-slot storage for [`Tape::backward`].
    grad_slots: Vec<Option<Matrix>>,
}

impl Tape {
    /// Creates an empty tape with an empty buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the recorded computation while retaining node capacity and
    /// parking every owned value buffer in the pool, so the next epoch's
    /// recording reuses this epoch's memory.  Shared ([`Tape::const_leaf`])
    /// values are released back to their `Arc` without copying.
    pub fn reset(&mut self) {
        let Self { nodes, pool, .. } = self;
        for node in nodes.drain(..) {
            if let Payload::Owned(m) = node.value {
                pool.recycle(m);
            }
            match node.op {
                Op::RowSelect(_, indices) => pool.recycle_indices(indices),
                Op::SoftmaxCrossEntropy { labels, .. } => pool.recycle_indices(labels),
                _ => {}
            }
        }
    }

    /// Returns a [`Gradients`] value's buffers to the pool (call after the
    /// optimizer step).
    pub fn absorb(&mut self, gradients: Gradients) {
        let mut slots = gradients.grads;
        for m in slots.drain(..).flatten() {
            self.pool.recycle(m);
        }
        if slots.capacity() > self.grad_slots.capacity() {
            self.grad_slots = slots;
        }
    }

    /// Allocation counters of the tape's buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Zeroes the pool's allocation counters.
    pub fn reset_pool_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// Direct access to the tape's buffer pool, for callers that want to
    /// recycle their own scratch buffers through it (and for the training
    /// bench / stale-buffer tests, which clear or poison parked buffers).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    fn push(&mut self, value: Payload, op: Op, needs_grad: bool) -> Var {
        debug_assert!(
            !value.matrix().has_non_finite(),
            "tape produced a non-finite value (op index {})",
            self.nodes.len()
        );
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Pushes a non-leaf node, deriving `needs_grad` from its operands.
    fn push_owned(&mut self, value: Matrix, op: Op) -> Var {
        let needs_grad = self.op_needs_grad(&op);
        self.push(Payload::Owned(value), op, needs_grad)
    }

    fn op_needs_grad(&self, op: &Op) -> bool {
        let n = |i: usize| self.nodes[i].needs_grad;
        match op {
            Op::Leaf => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::AddBias(a, b)
            | Op::Hadamard(a, b)
            | Op::ConcatRows(a, b)
            | Op::SolveSpd { a, b } => n(*a) || n(*b),
            Op::SpMM(_, x)
            | Op::ConstMul(_, x)
            | Op::MatMulTransposeConst(x, _)
            | Op::PropagateRow { tail: x, .. }
            | Op::Scale(x, _)
            | Op::HadamardConst(x, _)
            | Op::Relu(x)
            | Op::Sigmoid(x)
            | Op::Transpose(x)
            | Op::RowSelect(x, _)
            | Op::SoftmaxRows(x)
            | Op::RowNormalize(x)
            | Op::Reshape(x)
            | Op::L2NormalizeRows(x)
            | Op::SoftmaxCrossEntropy { logits: x, .. }
            | Op::MeanAll(x)
            | Op::SumAll(x)
            | Op::FrobeniusMse(x, _)
            | Op::BinarizeSte(x)
            | Op::CosineMatchToConst(x, _) => n(*x),
        }
    }

    #[inline]
    fn val(&self, v: usize) -> &Matrix {
        self.nodes[v].value.matrix()
    }

    /// A pool-backed copy of node `idx`'s value.
    fn copy_val(&mut self, idx: usize) -> Matrix {
        let Self { nodes, pool, .. } = self;
        pool.copy_of(nodes[idx].value.matrix())
    }

    /// Registers an input/parameter matrix on the tape (by value).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Payload::Owned(value), Op::Leaf, true)
    }

    /// Registers a **shared** constant leaf: the value is recorded by
    /// reference, so epoch-invariant inputs (features, fixed adjacencies,
    /// matching targets) are never copied onto the tape.  Constant leaves
    /// carry no gradient; backward prunes subtrees that reach only
    /// constants.
    pub fn const_leaf(&mut self, value: Arc<Matrix>) -> Var {
        self.push(Payload::Shared(value), Op::Leaf, false)
    }

    /// Registers a pool-backed **copy** of `value` as a leaf.  This is the
    /// epoch-loop form for values that change between epochs (model
    /// parameters): the copy costs no allocation once the pool is warm.
    pub fn leaf_copied(&mut self, value: &Matrix) -> Var {
        let copy = self.pool.copy_of(value);
        self.push(Payload::Owned(copy), Op::Leaf, true)
    }

    /// Registers a pool-backed copy of `value` as a **detached** leaf: the
    /// value participates in the forward computation but carries no
    /// gradient (e.g. a frozen surrogate weight).  Backward prunes the
    /// wasted products into it.
    pub fn leaf_detached(&mut self, value: &Matrix) -> Var {
        let copy = self.pool.copy_of(value);
        self.push(Payload::Owned(copy), Op::Leaf, false)
    }

    /// Registers an owned matrix that is semantically a constant (no
    /// gradient is tracked into it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Payload::Owned(value), Op::Leaf, false)
    }

    /// Returns a reference to the forward value of `v`.  (The historical
    /// cloning `value()` accessor is gone: clone explicitly off `value_ref`
    /// where ownership is required.)
    pub fn value_ref(&self, v: Var) -> &Matrix {
        self.nodes[v.0].value.matrix()
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value_ref(v).shape()
    }

    /// Scalar value of a `1x1` node.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value_ref(v);
        assert_eq!(m.shape(), (1, 1), "scalar() called on a non-scalar node");
        m.get(0, 0)
    }

    // ------------------------------------------------------------------
    // Differentiable operations
    // ------------------------------------------------------------------

    /// Dense matrix product of two variables.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, ka) = self.shape(a);
        let (kb, n) = self.shape(b);
        assert_eq!(
            ka, kb,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            m, ka, kb, n
        );
        let mut out = self.pool.zeros(m, n);
        kernel::gemm(
            m,
            ka,
            n,
            self.val(a.0).data(),
            self.val(b.0).data(),
            out.data_mut(),
        );
        self.push_owned(out, Op::MatMul(a.0, b.0))
    }

    /// Sparse constant times variable (`S * x`).  Used for `Â · X` message
    /// passing on the large original graph.
    pub fn spmm(&mut self, sparse: Arc<CsrMatrix>, x: Var) -> Var {
        let mut out = self.pool.zeros(sparse.rows(), self.shape(x).1);
        sparse.spmm_into(self.val(x.0), &mut out);
        self.push_owned(out, Op::SpMM(sparse, x.0))
    }

    /// Dense constant times variable (`C * x`).  Used for message passing on
    /// small dense adjacencies (condensed graphs, attached trigger blocks).
    pub fn const_matmul(&mut self, constant: Arc<Matrix>, x: Var) -> Var {
        let (m, ka) = constant.shape();
        let (kb, n) = self.shape(x);
        assert_eq!(
            ka, kb,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            m, ka, kb, n
        );
        let mut out = self.pool.zeros(m, n);
        kernel::gemm(
            m,
            ka,
            n,
            constant.data(),
            self.val(x.0).data(),
            out.data_mut(),
        );
        self.push_owned(out, Op::ConstMul(constant, x.0))
    }

    /// Variable times a transposed dense constant (`x * c^T`), computed
    /// without materializing the transpose on the tape. This is the shape
    /// of the SNTK cross-kernel `K(X', Z)` and runs on the blocked
    /// `matmul_transpose` substrate directly.
    pub fn matmul_transpose_const(&mut self, x: Var, constant: Arc<Matrix>) -> Var {
        let (m, ka) = self.shape(x);
        let (n, kb) = constant.shape();
        assert_eq!(ka, kb, "matmul_transpose: column mismatch {} vs {}", ka, kb);
        let mut packed = self.pool.raw(kb, n);
        kernel::transpose_into(n, kb, constant.data(), packed.data_mut());
        let mut out = self.pool.zeros(m, n);
        kernel::gemm(
            m,
            ka,
            n,
            self.val(x.0).data(),
            packed.data(),
            out.data_mut(),
        );
        self.pool.recycle(packed);
        self.push_owned(out, Op::MatMulTransposeConst(x.0, constant))
    }

    /// Row `row` of `adj^steps · [features[base]; tail]` as a `1 x d`
    /// node: `steps` dense propagation hops over the rows `base` of
    /// `features` stacked on `tail`, read at one row.  `features` is
    /// constant; only `tail` carries a gradient.  This is the centre-node
    /// readout of an attached trigger block: `features` is the graph's
    /// feature matrix and `base` the computation graph's node ids, gathered
    /// into the buffer the first hop reads, so no caller keeps a copy of
    /// the rows.
    ///
    /// The value and the `tail` gradient equal those of `concat_rows` →
    /// `steps` x [`Tape::const_matmul`] → [`Tape::row_select`] bit for bit,
    /// but only `row`'s receptive field is computed:
    ///
    /// * forward, each hop computes only the rows the next hop reads (the
    ///   columns with a non-zero entry of `adj` in the next hop's rows);
    /// * backward, the last hop is the depth-1 product `adj[row, :]ᵀ · d`,
    ///   and each earlier hop computes only the rows of `adjᵀ · d` that
    ///   lead to `tail`, ending at the `tail` rows.
    ///
    /// Every computed row runs through the row kernels of [`kernel::gemm`]
    /// or [`kernel::gemm_tn`] at the full depth `n`, so it keeps the
    /// chain's `KU` groups.  Every skipped term is a product with an exact
    /// zero (a zero entry of `adj`, or a gradient row that is zero in the
    /// chain), and adding `±0` never changes an accumulator that starts at
    /// `+0.0`.
    pub fn propagate_row(
        &mut self,
        adj: Arc<Matrix>,
        features: &Matrix,
        base: &[usize],
        tail: Var,
        steps: usize,
        row: usize,
    ) -> Var {
        let n = adj.rows();
        let (t, d) = self.shape(tail);
        assert_eq!(adj.cols(), n, "propagate_row: adjacency is not square");
        assert_eq!(
            (base.len() + t, features.cols()),
            (n, d),
            "propagate_row: [base; tail] does not match the {n}x{n} adjacency and {d} columns"
        );
        assert!(
            row < n,
            "propagate_row: row {row} out of bounds for {n} rows"
        );
        let Self { nodes, pool, .. } = self;
        // `fields[k]`: the rows of hop `steps - k`'s output that `row` reads.
        let mut fields: Vec<Vec<usize>> = Vec::with_capacity(steps);
        for k in 0..steps {
            let rows = match k {
                0 => pool.copy_indices(&[row]),
                _ => stored_columns(pool, &adj, &fields[k - 1]),
            };
            fields.push(rows);
        }
        let mut z = pool.raw(n, d);
        for (i, &id) in base.iter().enumerate() {
            z.row_mut(i).copy_from_slice(features.row(id));
        }
        z.data_mut()[base.len() * d..].copy_from_slice(nodes[tail.0].value.matrix().data());
        for rows in fields.into_iter().rev() {
            // Unread rows stay zero: finite, and multiplied by zeros only.
            let mut next = pool.zeros(n, d);
            for &i in &rows {
                kernel::gemm(1, n, d, adj.row(i), z.data(), next.row_mut(i));
            }
            pool.recycle(z);
            pool.recycle_indices(rows);
            z = next;
        }
        let mut out = pool.raw(1, d);
        out.data_mut().copy_from_slice(z.row(row));
        pool.recycle(z);
        let op = Op::PropagateRow {
            adj,
            tail: tail.0,
            steps,
            row,
        };
        self.push_owned(out, op)
    }

    fn binary_elementwise(
        &mut self,
        a: Var,
        b: Var,
        op: Op,
        name: &str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Var {
        assert_eq!(
            self.shape(a),
            self.shape(b),
            "{}: shape mismatch {:?} vs {:?}",
            name,
            self.shape(a),
            self.shape(b)
        );
        let (r, c) = self.shape(a);
        let mut out = self.pool.raw(r, c);
        kernel::binary_map_into(
            self.val(a.0).data(),
            self.val(b.0).data(),
            out.data_mut(),
            f,
        );
        self.push_owned(out, op)
    }

    fn unary_elementwise(&mut self, x: Var, op: Op, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let (r, c) = self.shape(x);
        let mut out = self.pool.raw(r, c);
        kernel::unary_map_into(self.val(x.0).data(), out.data_mut(), f);
        self.push_owned(out, op)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary_elementwise(a, b, Op::Add(a.0, b.0), "add", |x, y| x + y)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary_elementwise(a, b, Op::Sub(a.0, b.0), "sub", |x, y| x - y)
    }

    /// Adds a `1 x d` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (xr, xc) = self.shape(x);
        let (br, bc) = self.shape(bias);
        assert_eq!(br, 1, "add_bias: bias must have exactly one row");
        assert_eq!(xc, bc, "add_bias: column mismatch {} vs {}", xc, bc);
        let mut value = self.copy_val(x.0);
        let bv = self.val(bias.0);
        for r in 0..xr {
            for c in 0..xc {
                value.add_at(r, c, bv.get(0, c));
            }
        }
        self.push_owned(value, Op::AddBias(x.0, bias.0))
    }

    /// Multiplies every entry by a constant scalar.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.unary_elementwise(x, Op::Scale(x.0, s), move |v| v * s)
    }

    /// Element-wise product of two variables.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        self.binary_elementwise(a, b, Op::Hadamard(a.0, b.0), "hadamard", |x, y| x * y)
    }

    /// Element-wise product with a constant mask (e.g. dropout mask).
    pub fn hadamard_const(&mut self, x: Var, mask: Arc<Matrix>) -> Var {
        assert_eq!(
            self.shape(x),
            mask.shape(),
            "hadamard: shape mismatch {:?} vs {:?}",
            self.shape(x),
            mask.shape()
        );
        let (r, c) = self.shape(x);
        let mut out = self.pool.raw(r, c);
        kernel::binary_map_into(self.val(x.0).data(), mask.data(), out.data_mut(), |a, b| {
            a * b
        });
        self.push_owned(out, Op::HadamardConst(x.0, mask))
    }

    /// ReLU non-linearity.
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary_elementwise(x, Op::Relu(x.0), |v| v.max(0.0))
    }

    /// Logistic sigmoid non-linearity.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary_elementwise(x, Op::Sigmoid(x.0), |v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let mut out = self.pool.raw(c, r);
        kernel::transpose_into(r, c, self.val(x.0).data(), out.data_mut());
        self.push_owned(out, Op::Transpose(x.0))
    }

    /// Selects (and possibly repeats) rows of `x`.
    pub fn row_select(&mut self, x: Var, indices: &[usize]) -> Var {
        let (rows, cols) = self.shape(x);
        let mut out = self.pool.raw(indices.len(), cols);
        {
            let src = self.val(x.0);
            for (i, &idx) in indices.iter().enumerate() {
                assert!(
                    idx < rows,
                    "select_rows: index {} out of bounds for {} rows",
                    idx,
                    rows
                );
                out.row_mut(i).copy_from_slice(src.row(idx));
            }
        }
        let recorded = self.pool.copy_indices(indices);
        self.push_owned(out, Op::RowSelect(x.0, recorded))
    }

    /// Vertically stacks `a` over `b`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, bc, "vstack: column mismatch {} vs {}", ac, bc);
        let mut out = self.pool.raw(ar + br, ac);
        out.data_mut()[..ar * ac].copy_from_slice(self.val(a.0).data());
        out.data_mut()[ar * ac..].copy_from_slice(self.val(b.0).data());
        self.push_owned(out, Op::ConcatRows(a.0, b.0))
    }

    /// Reshapes a node to `(rows, cols)` preserving row-major element order
    /// (e.g. turning one `1 x (t*d)` trigger row into a `t x d` block).
    pub fn reshape(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let len = self.val(x.0).len();
        assert_eq!(
            len,
            rows * cols,
            "reshape: cannot view {} elements as {}x{}",
            len,
            rows,
            cols
        );
        let Self { nodes, pool, .. } = self;
        let value = pool.copy_reshaped(nodes[x.0].value.matrix(), rows, cols);
        self.push_owned(value, Op::Reshape(x.0))
    }

    /// L2-normalizes every row (rows with tiny norm are passed through
    /// unchanged).  Used to keep generated trigger features on the data's
    /// scale.
    pub fn l2_normalize_rows(&mut self, x: Var) -> Var {
        let cols = self.shape(x).1;
        let mut value = self.copy_val(x.0);
        kernel::for_each_row(value.data_mut(), cols, |_, row| {
            let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        });
        self.push_owned(value, Op::L2NormalizeRows(x.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let cols = self.shape(x).1;
        let mut value = self.copy_val(x.0);
        kernel::for_each_row(value.data_mut(), cols, |_, row| softmax_row_in_place(row));
        self.push_owned(value, Op::SoftmaxRows(x.0))
    }

    /// Divides every row by its sum (plus a small epsilon).  Used to
    /// normalize generated trigger adjacency blocks differentiably.
    pub fn row_normalize(&mut self, x: Var) -> Var {
        let mut value = self.copy_val(x.0);
        for r in 0..value.rows() {
            let sum: f32 = value.row(r).iter().sum::<f32>() + 1e-8;
            for v in value.row_mut(r) {
                *v /= sum;
            }
        }
        self.push_owned(value, Op::RowNormalize(x.0))
    }

    /// Mean softmax cross-entropy between the rows of `logits` and integer
    /// `labels`.  Produces a `1x1` scalar node.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = self.val(logits.0);
        assert_eq!(
            lv.rows(),
            labels.len(),
            "softmax_cross_entropy: {} logit rows but {} labels",
            lv.rows(),
            labels.len()
        );
        // Fused: per row, only the label's softmax probability is needed;
        // the max / exp / sum accumulation order matches `softmax_rows`.
        let mut loss = 0.0;
        for (r, &label) in labels.iter().enumerate() {
            assert!(
                label < lv.cols(),
                "softmax_cross_entropy: label {} out of range ({} classes)",
                label,
                lv.cols()
            );
            let row = lv.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            let mut label_exp = 0.0;
            for (c, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                sum += e;
                if c == label {
                    label_exp = e;
                }
            }
            let p = if sum > 0.0 {
                label_exp / sum
            } else {
                label_exp
            };
            loss -= (p + 1e-12).ln();
        }
        let n = labels.len().max(1) as f32;
        let value = self.pool.filled(1, 1, loss / n);
        let labels = self.pool.copy_indices(labels);
        self.push_owned(
            value,
            Op::SoftmaxCrossEntropy {
                logits: logits.0,
                labels,
            },
        )
    }

    /// Mean of all entries (scalar node).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let mean = self.val(x.0).mean();
        let value = self.pool.filled(1, 1, mean);
        self.push_owned(value, Op::MeanAll(x.0))
    }

    /// Sum of all entries (scalar node).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let sum = self.val(x.0).sum();
        let value = self.pool.filled(1, 1, sum);
        self.push_owned(value, Op::SumAll(x.0))
    }

    /// Mean squared error against a constant target (scalar node).
    pub fn mse_to_const(&mut self, x: Var, target: Arc<Matrix>) -> Var {
        let xv = self.val(x.0);
        assert_eq!(
            xv.shape(),
            target.shape(),
            "mse_to_const: shape mismatch {:?} vs {:?}",
            xv.shape(),
            target.shape()
        );
        // Fused (a - b)^2 accumulation in element order.
        let mut sum = 0.0f32;
        for (&a, &b) in xv.data().iter().zip(target.data()) {
            let d = a - b;
            sum += d * d;
        }
        let mse = if xv.is_empty() {
            0.0
        } else {
            sum / xv.len() as f32
        };
        let value = self.pool.filled(1, 1, mse);
        self.push_owned(value, Op::FrobeniusMse(x.0, target))
    }

    /// Straight-through binarization: forward thresholds at 0.5, backward
    /// passes the gradient unchanged (Hubara et al., used by the trigger
    /// structure head, Eq. 11).
    pub fn binarize_ste(&mut self, x: Var) -> Var {
        self.unary_elementwise(
            x,
            Op::BinarizeSte(x.0),
            |v| {
                if v >= 0.5 {
                    1.0
                } else {
                    0.0
                }
            },
        )
    }

    /// Per-column cosine matching loss `sum_j (1 - cos(x[:,j], target[:,j]))`
    /// against a constant target.  This is the distance `D` used by gradient
    /// matching (Eq. 6), where the target is the (detached) gradient on the
    /// original/poisoned graph.
    pub fn cosine_match_to_const(&mut self, x: Var, target: Arc<Matrix>) -> Var {
        let xv = self.val(x.0);
        assert_eq!(
            xv.shape(),
            target.shape(),
            "cosine_match_to_const: shape mismatch {:?} vs {:?}",
            xv.shape(),
            target.shape()
        );
        // Strided column walk (no per-column copies); accumulation order per
        // column matches `Matrix::cosine_similarity` over materialized
        // columns.
        let (rows, cols) = xv.shape();
        let mut loss = 0.0;
        for j in 0..cols {
            let mut dot = 0.0;
            let mut na = 0.0;
            let mut nb = 0.0;
            for i in 0..rows {
                let a = xv.get(i, j);
                let b = target.get(i, j);
                dot += a * b;
                na += a * a;
                nb += b * b;
            }
            let denom = na.sqrt() * nb.sqrt();
            let cos = if denom < 1e-12 { 0.0 } else { dot / denom };
            loss += 1.0 - cos;
        }
        let value = self.pool.filled(1, 1, loss);
        self.push_owned(value, Op::CosineMatchToConst(x.0, target))
    }

    /// Differentiable solve of the SPD system `A X = B` (via Cholesky).
    /// Both `A` and `B` may carry gradients; used by the kernel ridge
    /// regression objective of GC-SNTK.
    pub fn solve_spd(&mut self, a: Var, b: Var) -> Var {
        #[expect(
            clippy::expect_used,
            reason = "the one caller, GC-SNTK, adds a ridge term, so the system is positive definite"
        )]
        let value = crate::linalg::solve_spd(self.val(a.0), self.val(b.0))
            .expect("solve_spd: matrix is not positive definite");
        self.push_owned(value, Op::SolveSpd { a: a.0, b: b.0 })
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Gradients accumulate **in place** into pool-backed buffers; return
    /// the result to [`Tape::absorb`] after use to recycle them.
    ///
    /// # Panics
    /// Panics when `loss` is not a `1x1` node.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(
            self.value_ref(loss).shape(),
            (1, 1),
            "backward must start from a scalar (1x1) node"
        );
        let mut grads = std::mem::take(&mut self.grad_slots);
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        let Self { nodes, pool, .. } = self;
        let nodes: &[Node] = nodes;
        grads[loss.0] = Some(pool.filled(1, 1, 1.0));

        for idx in (0..=loss.0).rev() {
            // Seed by move; the slot is re-seeded (again by move, no clone)
            // after the node's rule has consumed the gradient by reference.
            let grad = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            let val = |v: usize| nodes[v].value.matrix();
            // Constant-only subtrees receive no gradient (see `needs_grad`);
            // multi-operand rules check per operand before computing the
            // (potentially large) delta product.
            let needs = |v: usize| nodes[v].needs_grad;
            match &nodes[idx].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    // y = a b  =>  da = dy b^T, db = a^T dy.
                    if needs(*a) {
                        let da = matmul_transpose_pooled(pool, &grad, val(*b));
                        accumulate(&mut grads, pool, *a, da);
                    }
                    if needs(*b) {
                        let db = transpose_matmul_pooled(pool, val(*a), &grad);
                        accumulate(&mut grads, pool, *b, db);
                    }
                }
                Op::SpMM(sparse, x) => {
                    let mut dx = pool.zeros(sparse.cols(), grad.cols());
                    sparse.spmm_transpose_into(&grad, &mut dx);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::ConstMul(c, x) => {
                    let dx = transpose_matmul_pooled(pool, c, &grad);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::MatMulTransposeConst(x, c) => {
                    // y = x c^T  =>  dx = dy * c
                    let mut dx = pool.zeros(grad.rows(), c.cols());
                    kernel::gemm(
                        grad.rows(),
                        grad.cols(),
                        c.cols(),
                        grad.data(),
                        c.data(),
                        dx.data_mut(),
                    );
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::PropagateRow {
                    adj,
                    tail,
                    steps,
                    row,
                } => {
                    let (n, d) = (adj.rows(), grad.cols());
                    let sub = n - val(*tail).rows();
                    let dtail = if *steps == 0 {
                        // The chain's row-select scatter, then its tail copy.
                        let mut dtail = pool.zeros(n - sub, d);
                        if *row >= sub {
                            for c in 0..d {
                                dtail.add_at(*row - sub, c, grad.get(0, c));
                            }
                        }
                        dtail
                    } else {
                        // `rows`: the rows of the last hop's input gradient
                        // that lead to `tail`; `earlier` holds those of the
                        // hops before it, first hop (the `tail` rows) first.
                        let mut rows = pool.copy_indices(&[]);
                        rows.extend(sub..n);
                        let mut earlier = Vec::with_capacity(*steps);
                        for _ in 1..*steps {
                            let next = stored_rows(pool, adj, &rows);
                            earlier.push(std::mem::replace(&mut rows, next));
                        }
                        // The last hop's output gradient is `grad` at `row`
                        // and zero elsewhere: its input gradient is the
                        // depth-1 product `adj[row, :]ᵀ · grad`.
                        let mut dz = transpose_matmul_rows(pool, adj.row(*row), &rows, &grad);
                        while let Some(next) = earlier.pop() {
                            let mut full = pool.zeros(n, d);
                            for (i, &r) in rows.iter().enumerate() {
                                full.row_mut(r).copy_from_slice(dz.row(i));
                            }
                            pool.recycle(dz);
                            dz = transpose_matmul_rows(pool, adj.data(), &next, &full);
                            pool.recycle(full);
                            pool.recycle_indices(std::mem::replace(&mut rows, next));
                        }
                        pool.recycle_indices(rows);
                        dz
                    };
                    accumulate(&mut grads, pool, *tail, dtail);
                }
                Op::Add(a, b) => {
                    if needs(*a) {
                        accumulate_copy(&mut grads, pool, *a, &grad);
                    }
                    if needs(*b) {
                        accumulate_copy(&mut grads, pool, *b, &grad);
                    }
                }
                Op::Sub(a, b) => {
                    if needs(*a) {
                        accumulate_copy(&mut grads, pool, *a, &grad);
                    }
                    if needs(*b) {
                        let mut db = pool.raw(grad.rows(), grad.cols());
                        kernel::unary_map_into(grad.data(), db.data_mut(), |v| -v);
                        accumulate(&mut grads, pool, *b, db);
                    }
                }
                Op::AddBias(x, bias) => {
                    if needs(*x) {
                        accumulate_copy(&mut grads, pool, *x, &grad);
                    }
                    if needs(*bias) {
                        // Column sums of the gradient, in row order.
                        let mut db = pool.zeros(1, grad.cols());
                        for r in 0..grad.rows() {
                            for (s, &v) in db.data_mut().iter_mut().zip(grad.row(r)) {
                                *s += v;
                            }
                        }
                        accumulate(&mut grads, pool, *bias, db);
                    }
                }
                Op::Scale(x, s) => {
                    let s = *s;
                    let mut dx = pool.raw(grad.rows(), grad.cols());
                    kernel::unary_map_into(grad.data(), dx.data_mut(), move |v| v * s);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::Hadamard(a, b) => {
                    if needs(*a) {
                        let mut da = pool.raw(grad.rows(), grad.cols());
                        kernel::binary_map_into(
                            grad.data(),
                            val(*b).data(),
                            da.data_mut(),
                            |g, v| g * v,
                        );
                        accumulate(&mut grads, pool, *a, da);
                    }
                    if needs(*b) {
                        let mut db = pool.raw(grad.rows(), grad.cols());
                        kernel::binary_map_into(
                            grad.data(),
                            val(*a).data(),
                            db.data_mut(),
                            |g, v| g * v,
                        );
                        accumulate(&mut grads, pool, *b, db);
                    }
                }
                Op::HadamardConst(x, mask) => {
                    let mut dx = pool.raw(grad.rows(), grad.cols());
                    kernel::binary_map_into(grad.data(), mask.data(), dx.data_mut(), |g, v| g * v);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::Relu(x) => {
                    // Fused mask: g * (x > 0 ? 1 : 0), same multiply as the
                    // former materialized mask.
                    let mut dx = pool.raw(grad.rows(), grad.cols());
                    kernel::binary_map_into(grad.data(), val(*x).data(), dx.data_mut(), |g, v| {
                        g * if v > 0.0 { 1.0 } else { 0.0 }
                    });
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::Sigmoid(x) => {
                    let y = nodes[idx].value.matrix();
                    let mut dx = pool.raw(grad.rows(), grad.cols());
                    kernel::binary_map_into(grad.data(), y.data(), dx.data_mut(), |g, v| {
                        g * (v * (1.0 - v))
                    });
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::Transpose(x) => {
                    let mut dx = pool.raw(grad.cols(), grad.rows());
                    kernel::transpose_into(grad.rows(), grad.cols(), grad.data(), dx.data_mut());
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::RowSelect(x, indices) => {
                    let (rows, cols) = val(*x).shape();
                    let mut dx = pool.zeros(rows, cols);
                    for (i, &src) in indices.iter().enumerate() {
                        for c in 0..cols {
                            dx.add_at(src, c, grad.get(i, c));
                        }
                    }
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::ConcatRows(a, b) => {
                    let a_rows = val(*a).rows();
                    let cols = grad.cols();
                    if needs(*a) {
                        let mut da = pool.raw(a_rows, cols);
                        da.data_mut().copy_from_slice(&grad.data()[..a_rows * cols]);
                        accumulate(&mut grads, pool, *a, da);
                    }
                    if needs(*b) {
                        let mut db = pool.raw(grad.rows() - a_rows, cols);
                        db.data_mut().copy_from_slice(&grad.data()[a_rows * cols..]);
                        accumulate(&mut grads, pool, *b, db);
                    }
                }
                Op::SoftmaxRows(x) => {
                    let y = nodes[idx].value.matrix();
                    let mut dx = pool.raw(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let gr = grad.row(r);
                        let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                        for (d, (&yv, &gv)) in
                            dx.row_mut(r).iter_mut().zip(yr.iter().zip(gr.iter()))
                        {
                            *d = yv * (gv - dot);
                        }
                    }
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::RowNormalize(x) => {
                    let xv = val(*x);
                    let y = nodes[idx].value.matrix();
                    let mut dx = pool.raw(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        let sum: f32 = xv.row(r).iter().sum::<f32>() + 1e-8;
                        let gr = grad.row(r);
                        let yr = y.row(r);
                        let dot: f32 = gr.iter().zip(yr.iter()).map(|(&a, &b)| a * b).sum();
                        for (d, &g) in dx.row_mut(r).iter_mut().zip(gr.iter()) {
                            *d = (g - dot) / sum;
                        }
                    }
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::Reshape(x) => {
                    let (rows, cols) = val(*x).shape();
                    let dx = pool.copy_reshaped(&grad, rows, cols);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::L2NormalizeRows(x) => {
                    let xv = val(*x);
                    let y = nodes[idx].value.matrix();
                    let mut dx = pool.raw(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        let norm = xv.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
                        let gr = grad.row(r);
                        if norm <= 1e-12 {
                            // Pass-through for (near-)zero rows.
                            dx.row_mut(r).copy_from_slice(gr);
                            continue;
                        }
                        let yr = y.row(r);
                        let dot: f32 = gr.iter().zip(yr.iter()).map(|(&a, &b)| a * b).sum();
                        for (d, (&g, &yv)) in dx.row_mut(r).iter_mut().zip(gr.iter().zip(yr.iter()))
                        {
                            *d = (g - dot * yv) / norm;
                        }
                    }
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::SoftmaxCrossEntropy { logits, labels } => {
                    // Fused single pass: dx = (softmax(logits) - onehot) * s,
                    // replicating the softmax / subtract / scale sequence of
                    // the former three-pass implementation element for
                    // element.
                    let lv = val(*logits);
                    let n = labels.len().max(1) as f32;
                    let scale = grad.get(0, 0) / n;
                    let mut dx = pool.raw(lv.rows(), lv.cols());
                    for (r, &label) in labels.iter().enumerate() {
                        let dst = dx.row_mut(r);
                        dst.copy_from_slice(lv.row(r));
                        softmax_row_in_place(dst);
                        dst[label] += -1.0;
                        for v in dst.iter_mut() {
                            *v *= scale;
                        }
                    }
                    accumulate(&mut grads, pool, *logits, dx);
                }
                Op::MeanAll(x) => {
                    let (rows, cols) = val(*x).shape();
                    let scale = grad.get(0, 0) / (rows * cols).max(1) as f32;
                    let dx = pool.filled(rows, cols, scale);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::SumAll(x) => {
                    let (rows, cols) = val(*x).shape();
                    let scale = grad.get(0, 0);
                    let dx = pool.filled(rows, cols, scale);
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::FrobeniusMse(x, target) => {
                    // Fused (x - t) * s, matching the former subtract-then-
                    // scale passes.
                    let xv = val(*x);
                    let scale = 2.0 * grad.get(0, 0) / xv.len().max(1) as f32;
                    let mut dx = pool.raw(xv.rows(), xv.cols());
                    kernel::binary_map_into(
                        xv.data(),
                        target.data(),
                        dx.data_mut(),
                        move |a, b| (a - b) * scale,
                    );
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::BinarizeSte(x) => {
                    accumulate_copy(&mut grads, pool, *x, &grad);
                }
                Op::CosineMatchToConst(x, target) => {
                    let xv = val(*x);
                    let scale = grad.get(0, 0);
                    let (rows, cols) = xv.shape();
                    let mut dx = pool.zeros(rows, cols);
                    for j in 0..cols {
                        let mut dot = 0.0;
                        let mut na = 0.0;
                        let mut nb = 0.0;
                        for i in 0..rows {
                            let a = xv.get(i, j);
                            let b = target.get(i, j);
                            dot += a * b;
                            na += a * a;
                            nb += b * b;
                        }
                        let na = na.sqrt();
                        let nb = nb.sqrt();
                        if na < 1e-12 || nb < 1e-12 {
                            continue;
                        }
                        for i in 0..rows {
                            let ai = xv.get(i, j);
                            let bi = target.get(i, j);
                            // d(1 - cos)/da_i = -(b_i/(na*nb) - dot*a_i/(na^3*nb))
                            let g = -(bi / (na * nb) - dot * ai / (na * na * na * nb));
                            dx.add_at(i, j, scale * g);
                        }
                    }
                    accumulate(&mut grads, pool, *x, dx);
                }
                Op::SolveSpd { a, b } => {
                    // C = A^{-1} B.  dB = A^{-1} dC, dA = -dB C^T.
                    let av = val(*a);
                    let c = nodes[idx].value.matrix();
                    #[expect(
                        clippy::expect_used,
                        reason = "the forward solve of the same matrix succeeded"
                    )]
                    let db = crate::linalg::solve_spd(av, &grad)
                        .expect("solve_spd backward: matrix is not positive definite");
                    if needs(*a) {
                        let mut da = matmul_transpose_pooled(pool, &db, c);
                        da.scale_assign(-1.0);
                        accumulate(&mut grads, pool, *a, da);
                    }
                    if needs(*b) {
                        accumulate(&mut grads, pool, *b, db);
                    } else {
                        pool.recycle(db);
                    }
                }
            }
            grads[idx] = Some(grad);
        }
        Gradients { grads }
    }
}

/// Pooled `a * b^T` (the backward rule of [`Op::MatMul`]'s left operand).
fn matmul_transpose_pooled(pool: &mut BufferPool, a: &Matrix, b: &Matrix) -> Matrix {
    debug_assert_eq!(a.cols(), b.cols());
    let mut packed = pool.raw(b.cols(), b.rows());
    kernel::transpose_into(b.rows(), b.cols(), b.data(), packed.data_mut());
    let mut out = pool.zeros(a.rows(), b.rows());
    kernel::gemm(
        a.rows(),
        a.cols(),
        b.rows(),
        a.data(),
        packed.data(),
        out.data_mut(),
    );
    pool.recycle(packed);
    out
}

/// Pooled `a^T * b` (the backward rule of [`Op::MatMul`]'s right operand
/// and of [`Op::ConstMul`]).
fn transpose_matmul_pooled(pool: &mut BufferPool, a: &Matrix, b: &Matrix) -> Matrix {
    debug_assert_eq!(a.rows(), b.rows());
    let mut out = pool.zeros(a.cols(), b.cols());
    kernel::gemm_tn(
        a.rows(),
        a.cols(),
        b.cols(),
        a.data(),
        b.data(),
        out.data_mut(),
    );
    out
}

/// Rows `cols` of `aᵀ · b`, where `a` is `r x m` and `b` is `r x d`, both
/// row-major.  The listed columns of `a` are packed into an `r x cols.len()`
/// operand of [`transpose_matmul_pooled`], so each row receives the
/// depth-`r` updates of the whole product (the backward rule of
/// [`Op::PropagateRow`]).
fn transpose_matmul_rows(pool: &mut BufferPool, a: &[f32], cols: &[usize], b: &Matrix) -> Matrix {
    let r = b.rows();
    let mut packed = pool.raw(r, cols.len());
    for (k, src) in a.chunks_exact(a.len() / r).enumerate() {
        for (dst, &c) in packed.row_mut(k).iter_mut().zip(cols) {
            *dst = src[c];
        }
    }
    let out = transpose_matmul_pooled(pool, &packed, b);
    pool.recycle(packed);
    out
}

/// The columns of `adj` with a non-zero entry in one of `rows`, ascending.
fn stored_columns(pool: &mut BufferPool, adj: &Matrix, rows: &[usize]) -> Vec<usize> {
    let mut out = pool.copy_indices(&[]);
    out.extend((0..adj.cols()).filter(|&c| rows.iter().any(|&r| adj.get(r, c) != 0.0)));
    out
}

/// The rows of `adj` with a non-zero entry in one of `cols`, ascending.
fn stored_rows(pool: &mut BufferPool, adj: &Matrix, cols: &[usize]) -> Vec<usize> {
    let mut out = pool.copy_indices(&[]);
    out.extend((0..adj.rows()).filter(|&r| cols.iter().any(|&c| adj.get(r, c) != 0.0)));
    out
}

/// Accumulates an owned delta into a gradient slot: in-place `+=` (recycling
/// the delta) when the slot is occupied, a move when it is empty.
fn accumulate(grads: &mut [Option<Matrix>], pool: &mut BufferPool, idx: usize, delta: Matrix) {
    match &mut grads[idx] {
        Some(existing) => {
            existing.add_assign(&delta);
            pool.recycle(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Accumulates a borrowed delta: in-place `+=` when the slot is occupied, a
/// pool-backed copy when it is empty.
fn accumulate_copy(
    grads: &mut [Option<Matrix>],
    pool: &mut BufferPool,
    idx: usize,
    delta: &Matrix,
) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(delta),
        slot @ None => *slot = Some(pool.copy_of(delta)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, rng_from_seed};

    /// Numerically checks the gradient of `f` w.r.t. a leaf built from `x0`.
    fn finite_difference_check(x0: &Matrix, build: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        let grads = tape.backward(loss);
        let analytic = grads
            .get(x)
            .expect("leaf should receive a gradient")
            .clone();

        let eps = 1e-2_f32;
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let mut plus = x0.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = x0.clone();
                minus.set(r, c, minus.get(r, c) - eps);

                let mut tp = Tape::new();
                let vp = tp.leaf(plus);
                let lp = build(&mut tp, vp);
                let mut tm = Tape::new();
                let vm = tm.leaf(minus);
                let lm = build(&mut tm, vm);

                let numeric = (tp.scalar(lp) - tm.scalar(lm)) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (numeric - a).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                    "gradient mismatch at ({}, {}): numeric {} vs analytic {}",
                    r,
                    c,
                    numeric,
                    a
                );
            }
        }
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = rng_from_seed(1);
        let x0 = randn(3, 4, 0.0, 1.0, &mut rng);
        let w = randn(4, 2, 0.0, 1.0, &mut rng);
        finite_difference_check(
            &x0,
            move |tape, x| {
                let wv = tape.leaf(w.clone());
                let y = tape.matmul(x, wv);
                tape.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn relu_sigmoid_gradcheck() {
        let mut rng = rng_from_seed(2);
        let x0 = randn(3, 3, 0.3, 1.0, &mut rng);
        finite_difference_check(
            &x0,
            |tape, x| {
                let r = tape.relu(x);
                let s = tape.sigmoid(r);
                tape.sum_all(s)
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_cross_entropy_gradcheck() {
        let mut rng = rng_from_seed(3);
        let x0 = randn(4, 3, 0.0, 1.0, &mut rng);
        let labels = vec![0usize, 2, 1, 1];
        finite_difference_check(
            &x0,
            move |tape, x| tape.softmax_cross_entropy(x, &labels),
            2e-2,
        );
    }

    #[test]
    fn spmm_gradcheck() {
        let mut rng = rng_from_seed(4);
        let x0 = randn(3, 2, 0.0, 1.0, &mut rng);
        let adj =
            Arc::new(CsrMatrix::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).gcn_normalize());
        finite_difference_check(
            &x0,
            move |tape, x| {
                let y = tape.spmm(adj.clone(), x);
                tape.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn cosine_match_gradcheck() {
        let mut rng = rng_from_seed(5);
        let x0 = randn(4, 3, 0.0, 1.0, &mut rng);
        let target = Arc::new(randn(4, 3, 0.0, 1.0, &mut rng));
        finite_difference_check(
            &x0,
            move |tape, x| tape.cosine_match_to_const(x, target.clone()),
            3e-2,
        );
    }

    #[test]
    fn row_normalize_and_softmax_gradcheck() {
        let mut rng = rng_from_seed(6);
        let x0 = randn(3, 4, 1.5, 0.3, &mut rng);
        finite_difference_check(
            &x0,
            |tape, x| {
                let s = tape.softmax_rows(x);
                let n = tape.row_normalize(s);
                tape.sum_all(n)
            },
            3e-2,
        );
    }

    #[test]
    fn mse_and_bias_gradcheck() {
        let mut rng = rng_from_seed(7);
        let x0 = randn(3, 3, 0.0, 1.0, &mut rng);
        let target = Arc::new(randn(3, 3, 0.0, 1.0, &mut rng));
        let bias = randn(1, 3, 0.0, 1.0, &mut rng);
        finite_difference_check(
            &x0,
            move |tape, x| {
                let b = tape.leaf(bias.clone());
                let y = tape.add_bias(x, b);
                tape.mse_to_const(y, target.clone())
            },
            2e-2,
        );
    }

    #[test]
    fn solve_spd_gradcheck_rhs() {
        let mut rng = rng_from_seed(8);
        // SPD matrix A = M M^T + n I
        let m = randn(3, 3, 0.0, 1.0, &mut rng);
        let a = m
            .matmul(&m.transpose())
            .add(&Matrix::identity(3).scale(3.0));
        let b0 = randn(3, 2, 0.0, 1.0, &mut rng);
        finite_difference_check(
            &b0,
            move |tape, b| {
                let av = tape.leaf(a.clone());
                let c = tape.solve_spd(av, b);
                tape.sum_all(c)
            },
            2e-2,
        );
    }

    #[test]
    fn concat_and_select_gradcheck() {
        let mut rng = rng_from_seed(9);
        let x0 = randn(3, 2, 0.0, 1.0, &mut rng);
        let other = randn(2, 2, 0.0, 1.0, &mut rng);
        finite_difference_check(
            &x0,
            move |tape, x| {
                let o = tape.leaf(other.clone());
                let cat = tape.concat_rows(x, o);
                let sel = tape.row_select(cat, &[0, 4, 2, 0]);
                tape.mean_all(sel)
            },
            1e-2,
        );
    }

    #[test]
    fn reshape_gradcheck() {
        let mut rng = rng_from_seed(10);
        let x0 = randn(2, 6, 0.0, 1.0, &mut rng);
        let w = randn(3, 2, 0.0, 1.0, &mut rng);
        finite_difference_check(
            &x0,
            move |tape, x| {
                let r = tape.reshape(x, 4, 3);
                let wv = tape.leaf(w.clone());
                let y = tape.matmul(r, wv);
                tape.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn l2_normalize_rows_gradcheck() {
        let mut rng = rng_from_seed(11);
        let x0 = randn(3, 4, 0.5, 1.0, &mut rng);
        let target = Arc::new(randn(3, 4, 0.0, 1.0, &mut rng));
        finite_difference_check(
            &x0,
            move |tape, x| {
                let n = tape.l2_normalize_rows(x);
                tape.mse_to_const(n, target.clone())
            },
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_bad_sizes() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 3));
        let _ = tape.reshape(x, 4, 2);
    }

    #[test]
    fn binarize_ste_passes_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::new(1, 3, vec![0.2, 0.7, 0.9]));
        let b = tape.binarize_ste(x);
        assert_eq!(tape.value_ref(b).data(), &[0.0, 1.0, 1.0]);
        let loss = tape.sum_all(b);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn gradient_accumulates_over_reused_nodes() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::new(1, 1, vec![3.0]));
        // y = x * x  (via hadamard of the same node)
        let y = tape.hadamard(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // d(x^2)/dx = 2x = 6
        assert!((grads.get(x).unwrap().get(0, 0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn unrelated_leaf_has_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 2));
        let y = tape.leaf(Matrix::ones(2, 2));
        let loss = tape.mean_all(x);
        let grads = tape.backward(loss);
        assert!(grads.get(y).is_none());
        assert!(grads.get(x).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 2));
        let _ = tape.backward(x);
    }

    /// Records one representative epoch (every pooled op class) and returns
    /// the loss, the leaf gradient, and an intermediate value.
    fn representative_epoch(tape: &mut Tape, x0: &Matrix, features: &Arc<Matrix>) -> (f32, Matrix) {
        let adj = Arc::new(
            CsrMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
                .symmetrize()
                .gcn_normalize(),
        );
        let x = tape.leaf_copied(x0);
        let f = tape.const_leaf(features.clone());
        let fx = tape.hadamard(x, f);
        let p = tape.spmm(adj, fx);
        let r = tape.relu(p);
        let s = tape.sigmoid(r);
        let t = tape.transpose(s);
        let tt = tape.transpose(t);
        let sel = tape.row_select(tt, &[0, 2, 1, 3]);
        let cat = tape.concat_rows(sel, tt);
        let soft = tape.softmax_rows(cat);
        let norm = tape.row_normalize(soft);
        let l2 = tape.l2_normalize_rows(norm);
        let resh = tape.reshape(l2, 2, 12);
        let back = tape.reshape(resh, 4, 6);
        let scaled = tape.scale(back, 1.3);
        let rescaled = tape.scale(scaled, -0.7);
        let loss = tape.softmax_cross_entropy(rescaled, &[0, 3, 1, 2]);
        let loss_value = tape.scalar(loss);
        let grads = tape.backward(loss);
        let gx = grads.get(x).expect("leaf gradient").clone();
        tape.absorb(grads);
        (loss_value, gx)
    }

    #[test]
    fn reset_reuses_buffers_and_reproduces_results_bitwise() {
        let mut rng = rng_from_seed(21);
        let x0 = randn(4, 3, 0.0, 1.0, &mut rng);
        let features = Arc::new(randn(4, 3, 0.5, 0.8, &mut rng));

        let mut tape = Tape::new();
        let (loss1, grad1) = representative_epoch(&mut tape, &x0, &features);
        tape.reset();
        tape.reset_pool_stats();
        let (loss2, grad2) = representative_epoch(&mut tape, &x0, &features);

        assert_eq!(loss1.to_bits(), loss2.to_bits(), "loss must be bit-stable");
        assert_eq!(grad1.data(), grad2.data(), "gradient must be bit-stable");
        let stats = tape.pool_stats();
        assert_eq!(
            stats.fresh_allocations, 0,
            "a warm pool must serve every buffer of a repeated epoch: {:?}",
            stats
        );
        assert!(stats.reuses > 0);
    }

    /// Poisoning every parked pool buffer with NaN must not change the next
    /// epoch's results: every pooled buffer is either zero-filled or fully
    /// overwritten before it is read, so `reset()` can never leak values
    /// between epochs.
    #[test]
    fn poisoned_pool_buffers_never_leak_into_results() {
        let mut rng = rng_from_seed(22);
        let x0 = randn(4, 3, 0.0, 1.0, &mut rng);
        let features = Arc::new(randn(4, 3, 0.5, 0.8, &mut rng));

        let mut fresh = Tape::new();
        let (want_loss, want_grad) = representative_epoch(&mut fresh, &x0, &features);

        let mut tape = Tape::new();
        let _ = representative_epoch(&mut tape, &x0, &features);
        tape.reset();
        tape.pool_mut().poison(f32::NAN);
        let (loss, grad) = representative_epoch(&mut tape, &x0, &features);
        assert_eq!(want_loss.to_bits(), loss.to_bits());
        assert_eq!(want_grad.data(), grad.data());
    }

    #[test]
    fn const_leaf_shares_the_caller_buffer() {
        let features = Arc::new(Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let f = tape.const_leaf(features.clone());
        assert!(std::ptr::eq(tape.value_ref(f), &*features));
        // Resetting releases the reference instead of recycling it.
        tape.reset();
        assert_eq!(Arc::strong_count(&features), 1);
    }

    #[test]
    fn absorb_recycles_gradient_buffers() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(3, 3));
        let loss = tape.mean_all(x);
        let grads = tape.backward(loss);
        tape.absorb(grads);
        tape.reset();
        tape.reset_pool_stats();
        let x = tape.leaf(Matrix::ones(3, 3));
        let loss = tape.mean_all(x);
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_some());
        assert_eq!(tape.pool_stats().fresh_allocations, 0);
    }

    /// A normalized attached-graph adjacency: a sparse random graph on `sub`
    /// nodes (a tree plus a few one-way chords, so the pattern is not
    /// symmetric) and a fully connected block of `t` trigger nodes linked to
    /// node 0, with self-loops.
    fn attached_adjacency(sub: usize, t: usize, seed: u64) -> Matrix {
        let n = sub + t;
        let coins = crate::init::uniform(n, n, 0.0, 1.0, &mut rng_from_seed(seed));
        let mut a = Matrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                let tree = i < sub && j == (i - 1) / 2;
                let chord = i < sub && coins.get(i, j) < 0.05;
                let trigger = i >= sub && (j == 0 || j >= sub);
                if tree || trigger {
                    a.set(i, j, 1.0);
                    a.set(j, i, 1.0);
                } else if chord {
                    a.set(i, j, 1.0);
                }
            }
        }
        let inv_sqrt: Vec<f32> = a.row_sums().iter().map(|&d| 1.0 / d.sqrt()).collect();
        Matrix::from_fn(n, n, |r, c| a.get(r, c) * inv_sqrt[r] * inv_sqrt[c])
    }

    /// The chain [`Tape::propagate_row`] replaces, on a copied base.
    fn propagate_row_chain(
        tape: &mut Tape,
        adj: &Arc<Matrix>,
        base: &Arc<Matrix>,
        tail: Var,
        steps: usize,
        row: usize,
    ) -> Var {
        let base = tape.const_leaf(base.clone());
        let mut z = tape.concat_rows(base, tail);
        for _ in 0..steps {
            z = tape.const_matmul(adj.clone(), z);
        }
        tape.row_select(z, &[row])
    }

    /// [`Tape::propagate_row`] gives the bits of concat → `steps` x
    /// `const_matmul` → row select, for the value and for the gradient of a
    /// `tail` that one or two readouts share.  The op gathers its base rows
    /// from a larger feature matrix at non-contiguous, unordered ids; the
    /// chain reads a copy of those rows.  The shapes cover the quick
    /// grid's (24 rows, 64 features), a narrow output (`d < LANES`), one
    /// trigger row, and the large tier's (81 rows, 128 features), where the
    /// chain's products take the parallel gemm path.  The adjacency's
    /// pattern is not symmetric, and the upstream gradient carries signed
    /// zeros.
    #[test]
    fn propagate_row_matches_the_propagation_chain_bitwise() {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        const { assert!(5 < kernel::LANES && 81 * 81 * 128 >= kernel::PAR_GEMM_WORK) };
        for &(sub, t, d) in &[
            (20usize, 4usize, 64usize),
            (23, 1, 64),
            (20, 4, 5),
            (77, 4, 128),
        ] {
            let mut rng = rng_from_seed((sub * 1009 + t * 31 + d) as u64);
            let adj = Arc::new(attached_adjacency(sub, t, sub as u64));
            let features = randn(3 * sub + 5, d, 0.0, 1.0, &mut rng);
            // Every third row, from the far end: scattered and descending.
            let ids: Vec<usize> = (0..sub).map(|i| 3 * (sub - 1 - i) + 2).collect();
            let base = Arc::new(features.select_rows(&ids));
            let tail0 = randn(t, d, 0.0, 1.0, &mut rng);
            let mut g = randn(1, d, 0.0, 1.0, &mut rng);
            g.set(0, 1, 0.0);
            g.set(0, 2, -0.0);
            let g = Arc::new(g);
            for steps in 0..=3 {
                for rows in [vec![0], vec![sub + t - 1], vec![sub / 2, 0]] {
                    let run = |fused: bool| {
                        let mut tape = Tape::new();
                        let tail = tape.leaf_copied(&tail0);
                        let mut values = Vec::new();
                        let mut total = None;
                        for &row in &rows {
                            let out = if fused {
                                tape.propagate_row(adj.clone(), &features, &ids, tail, steps, row)
                            } else {
                                propagate_row_chain(&mut tape, &adj, &base, tail, steps, row)
                            };
                            values.extend(bits(tape.value_ref(out)));
                            let weighted = tape.hadamard_const(out, g.clone());
                            let term = tape.sum_all(weighted);
                            total = Some(match total {
                                Some(acc) => tape.add(acc, term),
                                None => term,
                            });
                        }
                        let grads = tape.backward(total.expect("one readout per row"));
                        (values, bits(grads.get(tail).expect("tail gradient")))
                    };
                    assert_eq!(
                        run(true),
                        run(false),
                        "sub {sub}, t {t}, d {d}, steps {steps}, rows {rows:?}"
                    );
                }
            }
        }
    }

    /// The `Aᵀ · B` backward products of [`Op::MatMul`] (`dw = aᵀ dy`) and
    /// [`Op::ConstMul`] (`dx = cᵀ dy`) carry the bits of a whole-matrix
    /// transpose pack followed by the portable gemm, on narrow, wide and
    /// mixed shapes.
    #[test]
    fn transpose_products_in_backward_match_transpose_then_gemm_scalar() {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = rng_from_seed(11);
        for &(r, m, n) in &[
            (4, 3, 2),
            (5, 9, 7),
            (129, 65, 3),
            (260, 7, 9),
            (128, 33, 64),
        ] {
            let a = randn(r, m, 0.0, 1.0, &mut rng);
            let w = randn(m, n, 0.0, 1.0, &mut rng);
            // Upstream gradient of `y`: `d sum(y ⊙ g) / dy = g` exactly.
            let g = Arc::new(randn(r, n, 0.0, 1.0, &mut rng));
            let mut want = Matrix::zeros(m, n);
            kernel::gemm_scalar(m, r, n, a.transpose().data(), g.data(), want.data_mut());

            let mut tape = Tape::new();
            let av = tape.leaf(a.clone());
            let wv = tape.leaf(w.clone());
            let y = tape.matmul(av, wv);
            let weighted = tape.hadamard_const(y, g.clone());
            let loss = tape.sum_all(weighted);
            let grads = tape.backward(loss);
            assert_eq!(
                bits(grads.get(wv).unwrap()),
                bits(&want),
                "MatMul at ({r}, {m}, {n})"
            );

            let mut tape = Tape::new();
            let xv = tape.leaf(w);
            let y = tape.const_matmul(Arc::new(a), xv);
            let weighted = tape.hadamard_const(y, g);
            let loss = tape.sum_all(weighted);
            let grads = tape.backward(loss);
            assert_eq!(
                bits(grads.get(xv).unwrap()),
                bits(&want),
                "ConstMul at ({r}, {m}, {n})"
            );
        }
    }
}
