//! # bgc-tensor
//!
//! Numerical substrate for the Rust reproduction of *"Backdoor Graph
//! Condensation"* (ICDE 2025).  The crate provides:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix with the kernels graph
//!   neural networks need (mat-mul, transposes, reductions, softmax, ...).
//! * [`CsrMatrix`] — compressed sparse row adjacency matrices with GCN
//!   normalization and sparse-dense products.
//! * [`Tape`] / [`Var`] — a reverse-mode automatic differentiation tape whose
//!   operation set covers GNN training, gradient matching and the BGC trigger
//!   generator (including straight-through binarization and a differentiable
//!   SPD solve for kernel ridge regression).
//! * [`BufferPool`] — the length-keyed buffer pool behind the
//!   allocation-free training engine: [`Tape::reset`] parks every epoch's
//!   buffers for reuse by the next epoch (see `crates/tensor/README.md`).
//! * [`init`] — seeded random initializers (Gaussian, Xavier, Kaiming).
//! * [`linalg`] — Cholesky factorization and SPD solves.
//! * [`kernel`] — the blocked, rayon-parallel kernel substrate every dense
//!   and sparse hot path above is routed through (see
//!   `crates/tensor/README.md` for the tiling scheme and thresholds).
//!
//! The paper's original implementation relied on PyTorch; this crate is the
//! from-scratch substitute (see "Substitutions" in the workspace README).

// `unsafe` is denied crate-wide with exactly one sanctioned exception: the
// runtime-dispatched AVX2 micro-kernels in [`kernel`] (`std::arch`
// intrinsics are unsafe by construction). That module carries a scoped
// `allow(unsafe_code)` and is pinned bit-for-bit to the portable kernels by
// the dispatch agreement tests; everything else in the crate must stay
// safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod pool;
pub mod sparse;
pub mod tape;

pub use matrix::Matrix;
pub use pool::{BufferPool, PoolStats};
pub use sparse::CsrMatrix;
pub use tape::{Gradients, Tape, Var};

#[cfg(test)]
mod proptests {
    use super::*;
    use init::{randn, rng_from_seed};
    use proptest::prelude::*;

    fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |data| Matrix::new(rows, cols, data))
    }

    /// Dimensions that exercise the substrate's edge cases: empty, 1xN,
    /// exact multiples of the MC/KC/NC tiles, and off-by-one around them.
    const AWKWARD_DIMS: [usize; 10] = [0, 1, 2, 7, 31, 63, 64, 65, 129, 160];

    fn awkward_dim() -> impl Strategy<Value = usize> {
        (0usize..AWKWARD_DIMS.len()).prop_map(|i| AWKWARD_DIMS[i])
    }

    /// Relative agreement within `tol`, scaled by magnitude.
    fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matmul_is_associative_with_identity(m in matrix_strategy(4, 5)) {
            let left = Matrix::identity(4).matmul(&m);
            let right = m.matmul(&Matrix::identity(5));
            prop_assert!(left.approx_eq(&m, 1e-4));
            prop_assert!(right.approx_eq(&m, 1e-4));
        }

        #[test]
        fn transpose_is_involution(m in matrix_strategy(3, 6)) {
            prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
        }

        #[test]
        fn add_is_commutative(a in matrix_strategy(4, 4), b in matrix_strategy(4, 4)) {
            prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-5));
        }

        #[test]
        fn softmax_rows_are_probability_distributions(m in matrix_strategy(5, 4)) {
            let s = m.softmax_rows();
            for r in 0..5 {
                let sum: f32 = s.row(r).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }

        #[test]
        fn csr_roundtrip_preserves_values(
            entries in proptest::collection::vec((0usize..6, 0usize..6, 0.5f32..5.0), 0..20)
        ) {
            // Deduplicate coordinates so the sum-on-duplicate rule does not
            // interfere with the round-trip comparison.
            let mut seen = std::collections::HashSet::new();
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _)| seen.insert((r, c)))
                .collect();
            let csr = CsrMatrix::from_triplets(6, 6, &entries);
            for &(r, c, v) in &entries {
                prop_assert!((csr.get(r, c) - v).abs() < 1e-6);
            }
            prop_assert_eq!(csr.nnz(), entries.len());
        }

        #[test]
        fn spmm_matches_dense_reference(
            edges in proptest::collection::vec((0usize..8, 0usize..8), 1..24),
            x in matrix_strategy(8, 3),
        ) {
            let csr = CsrMatrix::from_edges(8, &edges);
            let sparse = csr.spmm(&x);
            let dense = csr.to_dense().matmul(&x);
            prop_assert!(sparse.approx_eq(&dense, 1e-4));
        }

        #[test]
        fn gcn_normalization_is_symmetric(
            edges in proptest::collection::vec((0usize..7, 0usize..7), 1..20)
        ) {
            let adj = CsrMatrix::from_edges(7, &edges).symmetrize();
            let norm = adj.gcn_normalize();
            for (r, c, v) in norm.triplets() {
                prop_assert!((norm.get(c, r) - v).abs() < 1e-5);
            }
        }

        /// The blocked `matmul` agrees with the retained naive reference
        /// across randomized awkward shapes (satellite of the kernel
        /// substrate rewrite).
        #[test]
        fn blocked_matmul_agrees_with_naive(
            m in awkward_dim(),
            k in awkward_dim(),
            n in awkward_dim(),
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed);
            let a = randn(m, k, 0.0, 1.0, &mut rng);
            let b = randn(k, n, 0.0, 1.0, &mut rng);
            let blocked = a.matmul(&b);
            let mut reference = Matrix::zeros(m, n);
            kernel::naive_matmul(m, k, n, a.data(), b.data(), reference.data_mut());
            prop_assert!(close(&blocked, &reference, 1e-4), "matmul {}x{}x{} diverged", m, k, n);
        }

        /// Both transpose variants share the blocked kernel and agree with
        /// their naive references.
        #[test]
        fn blocked_transpose_variants_agree_with_naive(
            m in awkward_dim(),
            k in awkward_dim(),
            n in awkward_dim(),
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed ^ 0xBEEF);
            // A (m x k), B (n x k): A * B^T is m x n.
            let a = randn(m, k, 0.0, 1.0, &mut rng);
            let b = randn(n, k, 0.0, 1.0, &mut rng);
            let blocked = a.matmul_transpose(&b);
            let mut reference = Matrix::zeros(m, n);
            kernel::naive_matmul_transpose(m, k, n, a.data(), b.data(), reference.data_mut());
            prop_assert!(close(&blocked, &reference, 1e-4), "matmul_transpose {}x{}x{} diverged", m, k, n);

            // C (m x k), D (m x n): C^T * D is k x n.
            let c = randn(m, k, 0.0, 1.0, &mut rng);
            let d = randn(m, n, 0.0, 1.0, &mut rng);
            let blocked = c.transpose_matmul(&d);
            let mut reference = Matrix::zeros(k, n);
            kernel::naive_transpose_matmul(m, k, n, c.data(), d.data(), reference.data_mut());
            prop_assert!(close(&blocked, &reference, 1e-4), "transpose_matmul {}x{}x{} diverged", m, k, n);
        }

        /// Same seed => bit-identical output: the parallel kernel must match
        /// the forced-serial path exactly, for every thread count.
        #[test]
        fn blocked_kernels_are_deterministic(seed in 0u64..200) {
            let mut rng = rng_from_seed(seed);
            // Big enough to clear PAR_GEMM_WORK so the parallel path engages
            // on multi-core machines.
            let (m, k, n) = (130, 70, 90);
            let a = randn(m, k, 0.0, 1.0, &mut rng);
            let b = randn(k, n, 0.0, 1.0, &mut rng);
            let first = a.matmul(&b);
            let second = a.matmul(&b);
            prop_assert_eq!(first.data(), second.data());
            let mut serial = Matrix::zeros(m, n);
            kernel::gemm_serial(m, k, n, a.data(), b.data(), serial.data_mut());
            prop_assert_eq!(first.data(), serial.data());
        }

        /// Parallel SpMM (balanced-nnz partitioning) is bit-deterministic
        /// and agrees with the dense product.
        #[test]
        fn parallel_spmm_is_deterministic(seed in 0u64..50) {
            let nodes = 400usize;
            let edges: Vec<(usize, usize)> = (0..nodes * 8)
                .map(|i| {
                    let s = i as u64 ^ seed;
                    ((s.wrapping_mul(31) % nodes as u64) as usize,
                     (s.wrapping_mul(17) .wrapping_add(5) % nodes as u64) as usize)
                })
                .collect();
            let adj = CsrMatrix::from_edges(nodes, &edges).symmetrize().gcn_normalize();
            let mut rng = rng_from_seed(seed);
            // nnz * cols clears PAR_SPMM_WORK => parallel path on multi-core.
            let x = randn(nodes, 32, 0.0, 1.0, &mut rng);
            let first = adj.spmm(&x);
            let second = adj.spmm(&x);
            prop_assert_eq!(first.data(), second.data());
            let dense = adj.to_dense().matmul(&x);
            prop_assert!(close(&first, &dense, 1e-4));
            // spmm_transpose routes through the CSR transpose on this size;
            // it must agree with the dense computation too.
            let t = adj.spmm_transpose(&x);
            let dense_t = adj.to_dense().transpose().matmul(&x);
            prop_assert!(close(&t, &dense_t, 1e-4));
        }

        #[test]
        fn backward_of_linear_map_matches_closed_form(
            x in matrix_strategy(3, 4),
            w in matrix_strategy(4, 2),
        ) {
            // loss = mean(X W)  =>  dX = (1/(3*2)) * ones(3,2) W^T
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            let y = tape.matmul(xv, wv);
            let loss = tape.mean_all(y);
            let grads = tape.backward(loss);
            let expected = Matrix::filled(3, 2, 1.0 / 6.0).matmul(&w.transpose());
            prop_assert!(grads.get(xv).unwrap().approx_eq(&expected, 1e-4));
        }
    }
}
