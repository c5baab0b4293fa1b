//! Criterion micro-benchmarks of the numerical substrate: dense matmul,
//! sparse-dense products, GCN normalization, autograd forward+backward, and
//! k-means — the kernels every experiment spends its time in.
//!
//! Beyond the micro-benchmarks, [`bench_substrate_speedup`] measures the
//! blocked kernel substrate (`bgc_tensor::kernel`) against the retained
//! naive reference implementations at 2048x512-shaped operands, at the
//! narrow 6393x128x7 per-class gradient shape of large-tier Flickr
//! condensation, and at Cora/Citeseer/ogbn-arxiv-like shapes, times one
//! GC-SNTK condensation iteration end-to-end, and writes the results to
//! `BENCH_substrate.json` at the workspace root so the speedup is recorded,
//! not asserted (both `matmul_transpose` and `transpose_matmul` warn below
//! 3x at 2048x512).  Hard same-run gates: the runtime-dispatched SIMD gemm
//! must agree with the scalar reference on awkward shapes and be
//! deterministic, and `transpose_matmul` (the panel-packed
//! `kernel::gemm_tn`) must equal a whole-matrix transpose pack followed by
//! the scalar gemm bit for bit on awkward and narrow shapes, and
//! `Tape::propagate_row` must equal the concat → `const_matmul` → row-select
//! chain it replaces bit for bit, readout and gradient, at trigger-step
//! shapes (its timings at the quick and large-tier shapes are recorded), and
//! the one-pass `CsrMatrix::gcn_normalize` must equal the triplet chain it
//! replaces bit for bit on the large-tier Flickr adjacency, as generated and
//! with stored diagonals (both timings are recorded), and the fused
//! softmax-regression gradient (`Matrix::softmax_regression_grad_into`) and
//! its portable twin must equal the matmul → softmax → `transpose_matmul`
//! chain they replace bit for bit at class-block shapes of large-tier Flickr,
//! quick Reddit and quick Cora and at 260 features (both timings are
//! recorded; the kernel being slower at a quick shape is warned on).  A
//! `thread_scaling` column (threads 1/2/4/physical) is measured by
//! re-executing this binary per thread count (`bgc_bench::scaling`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Child-mode env var / stdout marker of the thread-scaling re-execution.
const CHILD_FLAG: &str = "BENCH_SUBSTRATE_CHILD";
const CHILD_MARKER: &str = "SUBSTRATE_SCALING_RESULT";

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bgc_condense::{condense_sntk, CondensationConfig};
use bgc_graph::DatasetKind;
use bgc_nn::{AdjacencyRef, GnnArchitecture};
use bgc_tensor::init::{randn, rng_from_seed};
use bgc_tensor::{kernel, CsrMatrix, Matrix, Tape, Var};

/// Runs first in the group: in a thread-scaling child process, measure the
/// representative kernels at this process's pinned thread count, print the
/// parseable result line and exit before the rest of the harness runs.
fn scaling_child_gate(_c: &mut Criterion) {
    if !bgc_bench::scaling::is_scaling_child(CHILD_FLAG) {
        return;
    }
    let mut rng = rng_from_seed(42);
    let (m, k) = (2048usize, 512usize);
    let a = randn(m, k, 0.0, 1.0, &mut rng);
    let b = randn(m, k, 0.0, 1.0, &mut rng);
    let mt_secs = best_secs(1, || {
        black_box(a.matmul_transpose(&b));
    });
    let (nodes, deg, feats) = (16934usize, 13usize, 128usize);
    let edges: Vec<(usize, usize)> = (0..nodes * deg)
        .map(|i| (i % nodes, (i * 7 + 3) % nodes))
        .collect();
    let adj = CsrMatrix::from_edges(nodes, &edges)
        .symmetrize()
        .gcn_normalize();
    let x = randn(nodes, feats, 0.0, 1.0, &mut rng);
    let spmm_secs = best_secs(1, || {
        black_box(adj.spmm(&x));
    });
    println!(
        "{}",
        bgc_bench::scaling::child_result_line(
            CHILD_MARKER,
            &[
                (
                    "matmul_transpose_gflops",
                    2.0 * (m * m * k) as f64 / mt_secs / 1e9,
                ),
                (
                    "spmm_gflops",
                    2.0 * (adj.nnz() * feats) as f64 / spmm_secs / 1e9,
                ),
            ],
        )
    );
    std::process::exit(0);
}

/// Same-run gate: the runtime-dispatched SIMD gemm must agree with the
/// scalar reference on awkward shapes (remainder rows/columns/depths) and
/// be deterministic across repeated dispatches.
fn simd_agreement_gate() -> f64 {
    let mut max_abs_diff = 0.0f64;
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (3, 5, 7),
        (13, 1, 17),
        (17, 31, 13),
        (64, 64, 64),
        (65, 129, 33),
        (7, 513, 130),
    ] {
        let mut rng = rng_from_seed((m * 1_000_003 + k * 1009 + n) as u64);
        let a = randn(m, k, 0.0, 1.0, &mut rng);
        let b = randn(k, n, 0.0, 1.0, &mut rng);
        let mut dispatched = vec![0.0f32; m * n];
        let mut repeat = vec![0.0f32; m * n];
        let mut scalar = vec![0.0f32; m * n];
        kernel::gemm(m, k, n, a.data(), b.data(), &mut dispatched);
        kernel::gemm(m, k, n, a.data(), b.data(), &mut repeat);
        kernel::gemm_scalar(m, k, n, a.data(), b.data(), &mut scalar);
        assert_eq!(
            dispatched, repeat,
            "dispatched gemm is non-deterministic at ({m}, {k}, {n})"
        );
        for (d, s) in dispatched.iter().zip(scalar.iter()) {
            let diff = (*d as f64 - *s as f64).abs();
            max_abs_diff = max_abs_diff.max(diff);
            assert!(
                diff <= 1e-4,
                "simd gemm diverged from scalar by {diff:e} at ({m}, {k}, {n})"
            );
        }
    }
    max_abs_diff
}

/// Same-run gate: `transpose_matmul` must equal the whole-matrix transpose
/// pack followed by the scalar gemm bit for bit. The shapes straddle the
/// depth unroll and panel depth (`KU`, `KC`), the vector width and output
/// block (`LANES`, `MC`), and include narrow outputs (`n < 8 <= m`, the
/// in-kernel `(Bᵀ · A)ᵀ` path) and shapes narrow on both sides. Returns the
/// number of shapes checked.
fn transpose_matmul_gate() -> usize {
    let shapes = [
        (1usize, 1usize, 1usize),
        (3, 2, 5),
        (5, 9, 7),
        (127, 7, 9),
        (129, 65, 3),
        (260, 33, 8),
        (130, 64, 65),
        (6393, 128, 7),
    ];
    for &(r, m, n) in &shapes {
        let mut rng = rng_from_seed((r * 1_000_003 + m * 1009 + n) as u64);
        let a = randn(r, m, 0.0, 1.0, &mut rng);
        let b = randn(r, n, 0.0, 1.0, &mut rng);
        let got = a.transpose_matmul(&b);
        let mut packed = vec![0.0f32; r * m];
        kernel::transpose_into(r, m, a.data(), &mut packed);
        let mut want = vec![0.0f32; m * n];
        kernel::gemm_scalar(m, r, n, &packed, b.data(), &mut want);
        assert!(
            got.data()
                .iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "transpose_matmul diverged from pack + scalar gemm at ({r}, {m}, {n})"
        );
    }
    shapes.len()
}

/// A GCN-normalized attached computation graph, shaped like the attack's
/// trigger-step graphs: centre 0, `hop1` first-hop neighbours, the other
/// `sub - 1 - hop1` nodes spread over them as the second hop, and a fully
/// connected block of `t` trigger nodes linked to the centre.  The centre's
/// row reads `1 + hop1 + t` rows.
fn attached_tree(sub: usize, hop1: usize, t: usize) -> Matrix {
    let n = sub + t;
    let mut a = Matrix::identity(n);
    let mut link = |i: usize, j: usize| {
        a.set(i, j, 1.0);
        a.set(j, i, 1.0);
    };
    for i in 1..sub {
        let parent = if i <= hop1 {
            0
        } else {
            1 + (i - hop1 - 1) % hop1
        };
        link(i, parent);
    }
    for i in sub..n {
        link(i, 0);
        for j in sub..i {
            link(i, j);
        }
    }
    let inv_sqrt: Vec<f32> = a.row_sums().iter().map(|&d| 1.0 / d.sqrt()).collect();
    Matrix::from_fn(n, n, |r, c| a.get(r, c) * inv_sqrt[r] * inv_sqrt[c])
}

/// The base rows of a readout: `ids` into a feature matrix larger than the
/// computation graph, and `copy`, those rows copied out (the chain's base).
struct ReadoutBase {
    features: Matrix,
    ids: Vec<usize>,
    copy: Arc<Matrix>,
}

impl ReadoutBase {
    /// Every third row of `features` from the far end, `sub` of them:
    /// scattered and descending.
    fn new(features: Matrix, sub: usize) -> Self {
        let ids: Vec<usize> = (0..sub).map(|i| 3 * (sub - 1 - i) + 2).collect();
        let copy = Arc::new(features.select_rows(&ids));
        Self {
            features,
            ids,
            copy,
        }
    }
}

/// Records the centre readout (row 0) of `adj^steps · [base; tail]` on
/// `tape` — by `Tape::propagate_row`, gathering the base rows by id, when
/// `fused`, else by the chain it replaces (concat of the copied base →
/// `steps` x `const_matmul` → row select) — and a loss whose gradient at the
/// readout is `g`.  Returns `(tail, readout, loss)`.
fn record_readout(
    tape: &mut Tape,
    adj: &Arc<Matrix>,
    base: &ReadoutBase,
    tail: &Matrix,
    g: &Arc<Matrix>,
    steps: usize,
    fused: bool,
) -> (Var, Var, Var) {
    let tail = tape.leaf_copied(tail);
    let out = if fused {
        tape.propagate_row(adj.clone(), &base.features, &base.ids, tail, steps, 0)
    } else {
        let base = tape.const_leaf(base.copy.clone());
        let mut z = tape.concat_rows(base, tail);
        for _ in 0..steps {
            z = tape.const_matmul(adj.clone(), z);
        }
        tape.row_select(z, &[0])
    };
    let weighted = tape.hadamard_const(out, g.clone());
    (tail, out, tape.sum_all(weighted))
}

/// `(sub, hop1, t, d)` of the trigger-step readouts the propagate-row gate
/// checks: the quick grid's shape (24 rows, 64 features), a narrow output
/// (`d < LANES`), a single trigger row, and the large tier's shape (81 rows,
/// 128 features, where the chain's products take the parallel gemm path).
const PROPAGATE_ROW_SHAPES: [(usize, usize, usize, usize); 4] = [
    (20, 4, 4, 64),
    (20, 4, 4, 5),
    (23, 4, 1, 64),
    (77, 8, 4, 128),
];

/// Same-run gate: `Tape::propagate_row` must give the bits of the chain it
/// replaces, for the readout and for the `tail` gradient, at 1, 2 and 3
/// propagation steps on every shape of [`PROPAGATE_ROW_SHAPES`]. Returns the
/// number of cases checked.
fn propagate_row_gate() -> usize {
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut cases = 0;
    for &(sub, hop1, t, d) in &PROPAGATE_ROW_SHAPES {
        let mut rng = rng_from_seed((sub * 1009 + t * 31 + d) as u64);
        let adj = Arc::new(attached_tree(sub, hop1, t));
        let base = ReadoutBase::new(randn(3 * sub + 5, d, 0.0, 1.0, &mut rng), sub);
        let tail = randn(t, d, 0.0, 1.0, &mut rng);
        let g = Arc::new(randn(1, d, 0.0, 1.0, &mut rng));
        for steps in 1..=3 {
            let run = |fused| {
                let mut tape = Tape::new();
                let (tail, out, loss) =
                    record_readout(&mut tape, &adj, &base, &tail, &g, steps, fused);
                let value = bits(tape.value_ref(out));
                let grads = tape.backward(loss);
                let grad = grads.get(tail).expect("the readout reaches the tail");
                (value, bits(grad))
            };
            assert!(
                run(true) == run(false),
                "propagate_row diverged from the propagation chain at {} rows, d {d}, \
                 t {t}, {steps} steps",
                sub + t
            );
            cases += 1;
        }
    }
    cases
}

/// Best-of-`reps` microseconds per centre readout (forward and backward on a
/// pooled tape, two propagation steps) by `Tape::propagate_row` and by the
/// chain it replaces, at the trigger-step shapes of the quick grid (24 rows,
/// 64 features) and of large-tier Flickr (81 rows, 128 features).
fn propagate_row_timings(reps: usize) -> Vec<String> {
    let mut entries = Vec::new();
    for (name, (sub, hop1, t, d), iters) in [
        ("quick_24x64", PROPAGATE_ROW_SHAPES[0], 4000),
        ("large_flickr_81x128", PROPAGATE_ROW_SHAPES[3], 400),
    ] {
        let mut rng = rng_from_seed(31);
        let adj = Arc::new(attached_tree(sub, hop1, t));
        let base = ReadoutBase::new(randn(3 * sub + 5, d, 0.0, 1.0, &mut rng), sub);
        let tail = randn(t, d, 0.0, 1.0, &mut rng);
        let g = Arc::new(randn(1, d, 0.0, 1.0, &mut rng));
        let mut tape = Tape::new();
        let mut per_readout_us = |fused: bool| {
            let secs = best_secs(reps, || {
                for _ in 0..iters {
                    tape.reset();
                    let (_, _, loss) = record_readout(&mut tape, &adj, &base, &tail, &g, 2, fused);
                    let grads = tape.backward(loss);
                    tape.absorb(grads);
                }
            });
            secs / iters as f64 * 1e6
        };
        let chain_us = per_readout_us(false);
        let op_us = per_readout_us(true);
        println!(
            "substrate_speedup/propagate_row/{:<20} chain {:.2} us  op {:.2} us  speedup {:.2}x",
            name,
            chain_us,
            op_us,
            chain_us / op_us
        );
        entries.push(format!(
            "    \"{}\": {{\"rows\": {}, \"cols\": {}, \"steps\": 2, \"centre_reads\": {}, \"chain_us\": {:.3}, \"op_us\": {:.3}, \"speedup\": {:.3}}}",
            name,
            sub + t,
            d,
            1 + hop1 + t,
            chain_us,
            op_us,
            chain_us / op_us
        ));
    }
    entries
}

/// Same-run gate: the one-pass `CsrMatrix::gcn_normalize` must give the bits
/// of the triplet chain it replaced (`gcn_normalize_via_triplets`) on the
/// large-tier Flickr adjacency (89,250 nodes), as generated and with a
/// weighted diagonal stored on every third row.  Returns one JSON entry per
/// case with the best-of-`reps` time of both.
fn gcn_normalize_gate(reps: usize) -> Vec<String> {
    let bits = |m: &CsrMatrix| {
        m.triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect::<Vec<_>>()
    };
    let adjacency = DatasetKind::Flickr.load_large(17).adjacency;
    let mut triplets = adjacency.triplets();
    triplets.extend(
        (0..adjacency.rows())
            .step_by(3)
            .map(|r| (r, r, 0.5 + (r % 5) as f32 * 0.25)),
    );
    let with_diagonal = CsrMatrix::from_triplets(adjacency.rows(), adjacency.cols(), &triplets);
    drop(triplets);
    let mut entries = Vec::new();
    for (name, m) in [
        ("large_flickr", &*adjacency),
        ("large_flickr_with_diagonal", &with_diagonal),
    ] {
        assert!(
            bits(&m.gcn_normalize()) == bits(&m.gcn_normalize_via_triplets()),
            "gcn_normalize diverged from the triplet chain on {name}"
        );
        let chain_secs = best_secs(reps, || {
            black_box(m.gcn_normalize_via_triplets());
        });
        let one_pass_secs = best_secs(reps, || {
            black_box(m.gcn_normalize());
        });
        println!(
            "substrate_speedup/gcn_normalize/{:<27} nnz {}  chain {:.2} ms  one pass {:.2} ms  speedup {:.2}x",
            name,
            m.nnz(),
            chain_secs * 1e3,
            one_pass_secs * 1e3,
            chain_secs / one_pass_secs
        );
        entries.push(format!(
            "    \"{}\": {{\"rows\": {}, \"nnz\": {}, \"chain_ms\": {:.3}, \"one_pass_ms\": {:.3}, \"speedup\": {:.3}}}",
            name,
            m.rows(),
            m.nnz(),
            chain_secs * 1e3,
            one_pass_secs * 1e3,
            chain_secs / one_pass_secs
        ));
    }
    entries
}

/// `(name, rows, features, classes)` of the fused softmax-regression
/// gradient gate: a large-tier Flickr class block, a quick Reddit and a quick
/// Cora class block, and 260 features (past `KC = 128`) over `rows % 4 = 3`.
const SOFTMAX_GRAD_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("large_flickr_6393x128x7", 6393, 128, 7),
    ("quick_reddit_77x64x10", 77, 64, 10),
    ("quick_cora_4x64x7", 4, 64, 7),
    ("awkward_131x260x10", 131, 260, 10),
];

/// Seeded `Z`, `W` and per-row labels of a `rows x features` softmax
/// regression over `classes`.
fn softmax_grad_inputs(
    rows: usize,
    features: usize,
    classes: usize,
) -> (Matrix, Matrix, Vec<usize>) {
    let mut rng = rng_from_seed((rows * 1009 + features * 31 + classes) as u64);
    let z = randn(rows, features, 0.0, 1.0, &mut rng);
    let w = randn(features, classes, 0.0, 0.5, &mut rng);
    let labels = (0..rows).map(|r| (r * 7 + 3) % classes).collect();
    (z, w, labels)
}

/// Same-run gate: the fused softmax-regression gradient kernel
/// (`Matrix::softmax_regression_grad_into`) and its portable twin must give
/// the bits of the matmul → softmax → `−1` → `transpose_matmul` → scale chain
/// they replace (`softmax_regression_grad_via_chain`) on every shape of
/// [`SOFTMAX_GRAD_SHAPES`], for a class block's uniform label and for
/// per-row labels. Returns the number of cases checked.
fn softmax_grad_gate() -> usize {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut scratch = kernel::SoftmaxGradScratch::default();
    let mut cases = 0;
    for &(name, rows, features, classes) in &SOFTMAX_GRAD_SHAPES {
        let (z, w, row_labels) = softmax_grad_inputs(rows, features, classes);
        for labels in [
            kernel::RowLabels::Uniform(classes - 1),
            kernel::RowLabels::PerRow(&row_labels),
        ] {
            let chain = z.softmax_regression_grad_via_chain(&w, labels);
            let mut fused = Matrix::zeros(features, classes);
            z.softmax_regression_grad_into(&w, labels, &mut scratch, &mut fused);
            let mut portable = vec![0.0f32; features * classes];
            kernel::softmax_regression_grad_scalar(
                rows,
                features,
                classes,
                z.data(),
                w.data(),
                labels,
                &mut scratch,
                &mut portable,
            );
            assert!(
                bits(fused.data()) == bits(chain.data()),
                "softmax_regression_grad diverged from the chain at {name} ({labels:?})"
            );
            assert!(
                bits(&portable) == bits(chain.data()),
                "portable softmax_regression_grad diverged from the chain at {name} ({labels:?})"
            );
            cases += 1;
        }
    }
    cases
}

/// Best-of-`reps` microseconds per class-block gradient by the chain, by
/// the dispatched fused kernel and by its portable twin (scratch and output
/// reused) at the first three shapes of [`SOFTMAX_GRAD_SHAPES`]. Warns when
/// the kernel is slower than the chain at a quick shape, and when the
/// dispatched tier is no faster than the portable twin (its AVX2 code would
/// then buy nothing).
fn softmax_grad_timings(reps: usize) -> Vec<String> {
    let mut entries = Vec::new();
    for (&(name, rows, features, classes), iters) in
        SOFTMAX_GRAD_SHAPES.iter().zip([20usize, 4000, 40000])
    {
        let (z, w, _) = softmax_grad_inputs(rows, features, classes);
        let labels = kernel::RowLabels::Uniform(0);
        let per_call_us = |secs: f64| secs / iters as f64 * 1e6;
        let chain_us = per_call_us(best_secs(reps, || {
            for _ in 0..iters {
                black_box(z.softmax_regression_grad_via_chain(&w, labels));
            }
        }));
        let mut scratch = kernel::SoftmaxGradScratch::default();
        let mut grad = Matrix::zeros(features, classes);
        let kernel_us = per_call_us(best_secs(reps, || {
            for _ in 0..iters {
                z.softmax_regression_grad_into(&w, labels, &mut scratch, &mut grad);
                black_box(&grad);
            }
        }));
        let mut portable = vec![0.0f32; features * classes];
        let portable_us = per_call_us(best_secs(reps, || {
            for _ in 0..iters {
                kernel::softmax_regression_grad_scalar(
                    rows,
                    features,
                    classes,
                    z.data(),
                    w.data(),
                    labels,
                    &mut scratch,
                    &mut portable,
                );
                black_box(&portable);
            }
        }));
        println!(
            "substrate_speedup/softmax_regression_grad/{:<24} chain {:.2} us  kernel {:.2} us  \
             portable {:.2} us  speedup {:.2}x",
            name,
            chain_us,
            kernel_us,
            portable_us,
            chain_us / kernel_us
        );
        if name.starts_with("quick") && kernel_us > chain_us {
            eprintln!(
                "substrate_speedup: WARNING: the fused softmax-regression gradient is slower \
                 than the chain at {name} on this machine ({kernel_us:.2} us against {chain_us:.2} us)"
            );
        }
        if kernel::simd_level() != kernel::SimdLevel::Scalar && kernel_us >= portable_us {
            eprintln!(
                "substrate_speedup: WARNING: the {} softmax-regression gradient is no faster \
                 than its portable twin at {name} on this machine ({kernel_us:.2} us against \
                 {portable_us:.2} us)",
                kernel::simd_level().label()
            );
        }
        entries.push(format!(
            "    \"{}\": {{\"rows\": {}, \"features\": {}, \"classes\": {}, \"chain_us\": {:.3}, \"kernel_us\": {:.3}, \"portable_us\": {:.3}, \"speedup\": {:.3}}}",
            name,
            rows,
            features,
            classes,
            chain_us,
            kernel_us,
            portable_us,
            chain_us / kernel_us
        ));
    }
    entries
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = rng_from_seed(0);
        let a = randn(n, n, 0.0, 1.0, &mut rng);
        let b = randn(n, n, 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b))
        });
    }
    group.finish();
}

/// Dense products at the shapes the paper's pipelines actually produce:
/// feature-times-weight at Cora/Citeseer/ogbn-arxiv-like dimensions.
fn bench_dense_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_substrate");
    for &(name, m, k, n) in &[
        ("cora_xw_2708x1433x64", 2708usize, 1433usize, 64usize),
        ("citeseer_xw_3327x3703x64", 3327, 3703, 64),
        ("arxiv_xw_16934x128x256", 16934, 128, 256),
        ("sntk_gram_2048x512", 2048, 512, 2048),
    ] {
        let mut rng = rng_from_seed(7);
        let a = randn(m, k, 0.0, 1.0, &mut rng);
        let b = randn(n, k, 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |bench, _| {
            bench.iter(|| a.matmul_transpose(&b))
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_dense_spmm");
    // The third entry is ogbn-arxiv-like: ~17k nodes, average degree ~13,
    // 128-wide features.
    for &(nodes, deg, feats) in &[
        (1000usize, 5usize, 64usize),
        (5000, 10, 64),
        (16934, 13, 128),
    ] {
        let mut rng = rng_from_seed(1);
        let edges: Vec<(usize, usize)> = (0..nodes * deg)
            .map(|i| (i % nodes, (i * 7 + 3) % nodes))
            .collect();
        let adj = CsrMatrix::from_edges(nodes, &edges)
            .symmetrize()
            .gcn_normalize();
        let x = randn(nodes, feats, 0.0, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}x{}x{}", nodes, deg, feats)),
            &nodes,
            |bench, _| bench.iter(|| adj.spmm(&x)),
        );
    }
    group.finish();
}

fn bench_gcn_normalize(c: &mut Criterion) {
    let graph = DatasetKind::Cora.load_small(0);
    c.bench_function("gcn_normalize_small_cora", |b| {
        b.iter(|| graph.adjacency.gcn_normalize())
    });
}

fn bench_gcn_forward_backward(c: &mut Criterion) {
    let graph = DatasetKind::Cora.load_small(0);
    let adj = AdjacencyRef::from_graph(&graph);
    let mut rng = rng_from_seed(2);
    let model =
        GnnArchitecture::Gcn.build(graph.num_features(), 32, graph.num_classes, 2, &mut rng);
    let labels: Vec<usize> = graph.labels.clone();
    c.bench_function("gcn_forward_backward_small_cora", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let x = tape.leaf((*graph.features).clone());
            let pass = model.forward(&mut tape, &adj, x);
            let loss = tape.softmax_cross_entropy(pass.logits, &labels);
            tape.backward(loss)
        })
    });
}

fn bench_sntk_iteration(c: &mut Criterion) {
    // End-to-end GC-SNTK condensation time (kernel Gram matrices, the
    // differentiable SPD solve and the tape backward pass all included).
    let graph = DatasetKind::Cora.load_small(2);
    let mut config = CondensationConfig::quick(0.2);
    config.outer_epochs = 5;
    c.bench_function("sntk_condense_small_cora_5_iters", |b| {
        b.iter(|| condense_sntk(&graph, &config).expect("condensation runs"))
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = rng_from_seed(3);
    let points = randn(500, 16, 0.0, 1.0, &mut rng);
    c.bench_function("kmeans_500x16_k5", |b| {
        b.iter(|| bgc_core::kmeans(&points, 5, 20, &mut rng))
    });
}

fn bench_cholesky_solve(c: &mut Criterion) {
    let mut rng = rng_from_seed(4);
    let m = randn(60, 60, 0.0, 1.0, &mut rng);
    let a = m
        .matmul(&m.transpose())
        .add(&Matrix::identity(60).scale(60.0));
    let b = randn(60, 8, 0.0, 1.0, &mut rng);
    c.bench_function("spd_solve_60x60", |bench| {
        bench.iter(|| bgc_tensor::linalg::solve_spd(&a, &b).unwrap())
    });
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measures blocked vs. naive kernels and records `BENCH_substrate.json`.
fn bench_substrate_speedup(_c: &mut Criterion) {
    let mut rng = rng_from_seed(42);
    let mut sections: Vec<String> = Vec::new();
    // Honor the shim's quick mode (`BENCH_QUICK=1`): single rep per
    // measurement instead of best-of-3.
    let reps = if std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        1
    } else {
        3
    };

    // --- Dense: blocked substrate vs the retained naive references at the
    // --- acceptance shape (2048x512 operands).
    let (m, k) = (2048usize, 512usize);
    let a = randn(m, k, 0.0, 1.0, &mut rng);
    let b = randn(m, k, 0.0, 1.0, &mut rng);
    let flops_mt = 2.0 * (m * m * k) as f64;
    let flops_tm = 2.0 * (k * k * m) as f64;

    let mut naive_out = vec![0.0f32; m * m];
    let naive_mt = best_secs(reps, || {
        naive_out.iter_mut().for_each(|v| *v = 0.0);
        kernel::naive_matmul_transpose(m, k, m, a.data(), b.data(), &mut naive_out);
        black_box(&naive_out);
    });
    let blocked_mt = best_secs(reps, || {
        black_box(a.matmul_transpose(&b));
    });

    let mut naive_out_tm = vec![0.0f32; k * k];
    let naive_tm = best_secs(reps, || {
        naive_out_tm.iter_mut().for_each(|v| *v = 0.0);
        kernel::naive_transpose_matmul(m, k, k, a.data(), b.data(), &mut naive_out_tm);
        black_box(&naive_out_tm);
    });
    let blocked_tm = best_secs(reps, || {
        black_box(a.transpose_matmul(&b));
    });

    // The narrow per-class gradient shape `Z_cᵀ (softmax(Z_c W) - Y_c)` of
    // large-tier Flickr condensation: 6393 class rows, 128 features, 7
    // classes. `pack_then_gemm` is the former whole-matrix formulation.
    let (nr, nm, nn) = (6393usize, 128usize, 7usize);
    let za = randn(nr, nm, 0.0, 1.0, &mut rng);
    let zb = randn(nr, nn, 0.0, 1.0, &mut rng);
    let flops_narrow = 2.0 * (nr * nm * nn) as f64;
    let mut naive_out_narrow = vec![0.0f32; nm * nn];
    let naive_narrow = best_secs(reps, || {
        naive_out_narrow.iter_mut().for_each(|v| *v = 0.0);
        kernel::naive_transpose_matmul(nr, nm, nn, za.data(), zb.data(), &mut naive_out_narrow);
        black_box(&naive_out_narrow);
    });
    let pack_then_gemm_narrow = best_secs(reps, || {
        black_box(za.transpose().matmul(&zb));
    });
    let blocked_narrow = best_secs(reps, || {
        black_box(za.transpose_matmul(&zb));
    });

    let mt_speedup = naive_mt / blocked_mt;
    let tm_speedup = naive_tm / blocked_tm;
    let narrow_speedup = naive_narrow / blocked_narrow;
    println!(
        "substrate_speedup/matmul_transpose_2048x512   naive {:.3}s ({:.2} GFLOP/s)  blocked {:.3}s ({:.2} GFLOP/s)  speedup {:.2}x",
        naive_mt, flops_mt / naive_mt / 1e9, blocked_mt, flops_mt / blocked_mt / 1e9, mt_speedup
    );
    println!(
        "substrate_speedup/transpose_matmul_2048x512   naive {:.3}s ({:.2} GFLOP/s)  blocked {:.3}s ({:.2} GFLOP/s)  speedup {:.2}x",
        naive_tm, flops_tm / naive_tm / 1e9, blocked_tm, flops_tm / blocked_tm / 1e9, tm_speedup
    );
    sections.push(format!(
        "  \"matmul_transpose_2048x512\": {{\n    \"naive_seconds\": {:.6},\n    \"blocked_seconds\": {:.6},\n    \"naive_gflops\": {:.3},\n    \"blocked_gflops\": {:.3},\n    \"speedup\": {:.3}\n  }}",
        naive_mt, blocked_mt, flops_mt / naive_mt / 1e9, flops_mt / blocked_mt / 1e9, mt_speedup
    ));
    sections.push(format!(
        "  \"transpose_matmul_2048x512\": {{\n    \"naive_seconds\": {:.6},\n    \"blocked_seconds\": {:.6},\n    \"naive_gflops\": {:.3},\n    \"blocked_gflops\": {:.3},\n    \"speedup\": {:.3}\n  }}",
        naive_tm, blocked_tm, flops_tm / naive_tm / 1e9, flops_tm / blocked_tm / 1e9, tm_speedup
    ));
    println!(
        "substrate_speedup/transpose_matmul_6393x128x7 naive {:.5}s  pack+gemm {:.5}s  blocked {:.5}s ({:.2} GFLOP/s)  speedup {:.2}x",
        naive_narrow, pack_then_gemm_narrow, blocked_narrow, flops_narrow / blocked_narrow / 1e9, narrow_speedup
    );
    sections.push(format!(
        "  \"transpose_matmul_6393x128x7\": {{\n    \"naive_seconds\": {:.6},\n    \"pack_then_gemm_seconds\": {:.6},\n    \"blocked_seconds\": {:.6},\n    \"naive_gflops\": {:.3},\n    \"blocked_gflops\": {:.3},\n    \"speedup\": {:.3}\n  }}",
        naive_narrow,
        pack_then_gemm_narrow,
        blocked_narrow,
        flops_narrow / naive_narrow / 1e9,
        flops_narrow / blocked_narrow / 1e9,
        narrow_speedup
    ));

    // --- Dense GFLOP/s at dataset-like shapes (blocked substrate).
    let mut dense_entries = Vec::new();
    for &(name, dm, dk, dn) in &[
        ("cora_xw_2708x1433x64", 2708usize, 1433usize, 64usize),
        ("citeseer_xw_3327x3703x64", 3327, 3703, 64),
        ("arxiv_xw_16934x128x256", 16934, 128, 256),
    ] {
        let a = randn(dm, dk, 0.0, 1.0, &mut rng);
        let b = randn(dk, dn, 0.0, 1.0, &mut rng);
        let secs = best_secs(reps, || {
            black_box(a.matmul(&b));
        });
        let gflops = 2.0 * (dm * dk * dn) as f64 / secs / 1e9;
        println!(
            "substrate_speedup/dense/{:<28} {:.4}s  {:.2} GFLOP/s",
            name, secs, gflops
        );
        dense_entries.push(format!(
            "    \"{}\": {{\"seconds\": {:.6}, \"gflops\": {:.3}}}",
            name, secs, gflops
        ));
    }
    sections.push(format!(
        "  \"dense_matmul\": {{\n{}\n  }}",
        dense_entries.join(",\n")
    ));

    // --- Sparse GFLOP/s (2 * nnz * feats flops) at dataset-like shapes.
    let mut sparse_entries = Vec::new();
    for &(name, nodes, deg, feats) in &[
        ("cora_like_2708x4x64", 2708usize, 4usize, 64usize),
        ("arxiv_like_16934x13x128", 16934, 13, 128),
    ] {
        let edges: Vec<(usize, usize)> = (0..nodes * deg)
            .map(|i| (i % nodes, (i * 7 + 3) % nodes))
            .collect();
        let adj = CsrMatrix::from_edges(nodes, &edges)
            .symmetrize()
            .gcn_normalize();
        let x = randn(nodes, feats, 0.0, 1.0, &mut rng);
        let secs = best_secs(reps, || {
            black_box(adj.spmm(&x));
        });
        let gflops = 2.0 * (adj.nnz() * feats) as f64 / secs / 1e9;
        println!(
            "substrate_speedup/spmm/{:<29} {:.4}s  {:.2} GFLOP/s",
            name, secs, gflops
        );
        sparse_entries.push(format!(
            "    \"{}\": {{\"seconds\": {:.6}, \"nnz\": {}, \"gflops\": {:.3}}}",
            name,
            secs,
            adj.nnz(),
            gflops
        ));
    }
    sections.push(format!(
        "  \"sparse_spmm\": {{\n{}\n  }}",
        sparse_entries.join(",\n")
    ));

    // --- GC-SNTK end-to-end iteration time.
    let graph = DatasetKind::Cora.load_small(2);
    let mut config = CondensationConfig::quick(0.2);
    config.outer_epochs = 5;
    let secs = best_secs(reps, || {
        black_box(condense_sntk(&graph, &config).expect("condensation runs"));
    });
    let per_iter_ms = secs / config.outer_epochs as f64 * 1e3;
    println!(
        "substrate_speedup/sntk_iteration_small_cora   {:.2} ms/outer-iteration",
        per_iter_ms
    );
    sections.push(format!(
        "  \"sntk_small_cora\": {{\"outer_iterations\": {}, \"total_seconds\": {:.6}, \"ms_per_iteration\": {:.3}}}",
        config.outer_epochs, secs, per_iter_ms
    ));

    // --- SIMD dispatch: level, agreement with the scalar reference (hard
    // --- same-run gate, awkward shapes) and determinism.
    let max_abs_diff = simd_agreement_gate();
    println!(
        "substrate_speedup/simd: level {} agrees with scalar (max |diff| {:.1e}) and is deterministic",
        kernel::simd_level().label(),
        max_abs_diff
    );
    sections.push(format!(
        "  \"simd\": {{\"level\": \"{}\", \"max_abs_diff_vs_scalar\": {:.3e}}}",
        kernel::simd_level().label(),
        max_abs_diff
    ));
    let tm_shapes = transpose_matmul_gate();
    println!(
        "substrate_speedup/transpose_matmul: bit-identical to pack + scalar gemm on {} shapes",
        tm_shapes
    );
    sections.push(format!(
        "  \"transpose_matmul_gate\": {{\"shapes\": {}, \"bit_identical_to_pack_then_scalar_gemm\": true}}",
        tm_shapes
    ));

    let pr_cases = propagate_row_gate();
    println!(
        "substrate_speedup/propagate_row: bit-identical to concat + const_matmul + row select in {} cases",
        pr_cases
    );
    sections.push(format!(
        "  \"propagate_row_gate\": {{\"cases\": {}, \"bit_identical_to_chain\": true}}",
        pr_cases
    ));
    sections.push(format!(
        "  \"propagate_row\": {{\n{}\n  }}",
        propagate_row_timings(reps).join(",\n")
    ));

    let softmax_grad_cases = softmax_grad_gate();
    println!(
        "substrate_speedup/softmax_regression_grad: bit-identical to the chain in {} cases",
        softmax_grad_cases
    );
    sections.push(format!(
        "  \"softmax_regression_grad_gate\": {{\"cases\": {}, \"bit_identical_to_chain\": true}}",
        softmax_grad_cases
    ));
    sections.push(format!(
        "  \"softmax_regression_grad\": {{\n{}\n  }}",
        softmax_grad_timings(reps).join(",\n")
    ));

    let gcn_normalize = gcn_normalize_gate(reps);
    println!(
        "substrate_speedup/gcn_normalize: bit-identical to the triplet chain in {} cases",
        gcn_normalize.len()
    );
    sections.push(format!(
        "  \"gcn_normalize_gate\": {{\"cases\": {}, \"bit_identical_to_chain\": true}}",
        gcn_normalize.len()
    ));
    sections.push(format!(
        "  \"gcn_normalize\": {{\n{}\n  }}",
        gcn_normalize.join(",\n")
    ));

    // --- Multi-thread scaling column (re-executed children; the rayon shim
    // --- pins its pool size once per process).
    let scaling = bgc_bench::scaling::run_scaling_children(CHILD_FLAG, CHILD_MARKER)
        .expect("thread-scaling children must succeed");
    for (threads, metrics) in &scaling {
        println!(
            "substrate_speedup/scaling {} threads: matmul_transpose {:.2} GFLOP/s, spmm {:.2} GFLOP/s",
            threads,
            metrics.get("matmul_transpose_gflops").copied().unwrap_or(0.0),
            metrics.get("spmm_gflops").copied().unwrap_or(0.0),
        );
    }
    sections.push(format!(
        "  \"thread_scaling\": {{\n{}\n  }}",
        bgc_bench::scaling::scaling_json(&scaling, "    ")
    ));

    sections.push(format!("  \"threads\": {}", rayon::current_num_threads()));
    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    // benches run with cwd = crate root (crates/bench); record at the
    // workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("substrate_speedup: wrote {}", path),
        Err(err) => eprintln!("substrate_speedup: could not write {}: {}", path, err),
    }
    // Recorded, not asserted: a loaded or low-IPC machine should not turn a
    // measurement into a bench failure. The checked-in BENCH_substrate.json
    // documents the reference result.
    if mt_speedup < 3.0 {
        eprintln!(
            "substrate_speedup: WARNING: blocked matmul_transpose is only {:.2}x the naive \
             reference on this machine (reference result: >= 3x)",
            mt_speedup
        );
    }
    if tm_speedup < 3.0 {
        eprintln!(
            "substrate_speedup: WARNING: blocked transpose_matmul is only {:.2}x the naive \
             reference on this machine (reference result: >= 3x)",
            tm_speedup
        );
    }
}

criterion_group!(
    benches,
    scaling_child_gate,
    bench_matmul,
    bench_dense_substrate,
    bench_spmm,
    bench_gcn_normalize,
    bench_gcn_forward_backward,
    bench_sntk_iteration,
    bench_kmeans,
    bench_cholesky_solve,
    bench_substrate_speedup
);
criterion_main!(benches);
