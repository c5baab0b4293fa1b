//! The blocked, parallel kernel substrate behind every dense hot path.
//!
//! All three mat-mul variants of [`crate::matrix::Matrix`] (`matmul`,
//! `transpose_matmul`, `matmul_transpose`), the CSR SpMM of
//! [`crate::sparse::CsrMatrix`] and the element-wise / row-wise helpers the
//! autodiff tape leans on are routed through this module. The design:
//!
//! * **One set of row kernels.** [`gemm`] computes `C = A · B` over an
//!   `MC x KC x NC` cache tiling with the depth loop unrolled by [`KU`] and
//!   the column loop written with `chunks_exact` so LLVM autovectorizes it
//!   (each output lane is an independent accumulation — no floating-point
//!   reassociation is required, unlike a dot-product formulation).
//!   [`gemm_tn`] computes `C = Aᵀ · B` (`transpose_matmul`) on the same row
//!   kernels: each output task packs `Aᵀ` one `KC`-deep *panel* at a time
//!   instead of transposing the whole operand, and a narrow output
//!   (`n < LANES`) is computed as `(Bᵀ · A)ᵀ` so its accumulators stay
//!   vector-wide. `matmul_transpose` packs `Bᵀ` with [`transpose_into`] and
//!   runs [`gemm`]. All three variants give the bits of the transpose-then-
//!   [`gemm`] formulation.
//! * **Parallelism over output row-blocks.** Each rayon task owns `MC`
//!   consecutive output rows (a disjoint `&mut` chunk of `C`), so no
//!   synchronization is needed and the floating-point evaluation order —
//!   hence the bit pattern of the result — is identical for the serial and
//!   parallel paths and for every thread count.
//! * **Serial fallbacks.** Problems below [`PAR_GEMM_WORK`] multiply-adds
//!   (or [`PAR_ELEM_WORK`] elements for the element-wise helpers) skip the
//!   pool entirely.
//! * **One fused softmax-regression gradient.**
//!   [`softmax_regression_grad`] computes `Zᵀ (softmax(Z · W) − Y) / rows`,
//!   the weight gradient of a linear softmax classifier, in one pass that
//!   reads `Z` [`KU`] rows at a time. It keeps the bits of the chain it
//!   replaced, for every shape and on both tiers: the logits in [`gemm`]'s
//!   per-element order, `softmax_row_in_place`, `−1` at the label, the
//!   gradient in [`gemm_tn`]'s accumulation order, then the scale. The
//!   chain stays as `Matrix::softmax_regression_grad_via_chain`, the
//!   reference of a property test and of a substrate-bench gate.
//!
//! The pre-substrate reference implementations are retained as
//! [`naive_matmul`], [`naive_transpose_matmul`] and
//! [`naive_matmul_transpose`]; property tests assert agreement and the
//! `substrate` criterion bench measures the speedup against them.

use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Rows of `C` (and `A`) each parallel task owns.
pub const MC: usize = 64;
/// Depth (`k`) blocking factor: one `KC x NC` tile of `B` stays hot in L2.
pub const KC: usize = 128;
/// Column (`n`) blocking factor.
pub const NC: usize = 512;
/// Unroll factor of the depth loop inside the micro-kernel.
pub const KU: usize = 4;
/// Vector width the micro-kernel is written for (f32 lanes of one AVX2
/// register; wider ISAs fuse adjacent iterations).
pub const LANES: usize = 8;

/// Minimum multiply-add count before a mat-mul goes parallel.
pub const PAR_GEMM_WORK: usize = 1 << 18;
/// Minimum element count before element-wise/row-wise ops go parallel.
pub const PAR_ELEM_WORK: usize = 1 << 16;
/// Minimum `nnz * dense_cols` before SpMM goes parallel.
pub const PAR_SPMM_WORK: usize = 1 << 16;
/// Element-wise parallel chunk size (elements per task).
const ELEM_CHUNK: usize = 1 << 15;

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

/// The instruction-set tier the micro-kernels run at, selected once per
/// process by [`simd_level`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Portable blocked loops (LLVM autovectorizes them for the build
    /// target's baseline ISA).
    Scalar,
    /// Hand-written AVX2 kernels with register-resident accumulators.
    /// Selected when the CPU reports both AVX2 and FMA; the kernels still
    /// use separate multiply/add steps in the scalar association order, so
    /// results are bit-identical to the portable path.
    Avx2,
}

impl SimdLevel {
    /// Stable label for benchmark JSON and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Returns the micro-kernel tier, detected once at first use.
///
/// Set `BGC_SIMD=scalar` to force the portable fallback (useful when
/// bisecting a suspected kernel bug); any other value keeps auto-detection.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var_os("BGC_SIMD").is_some_and(|v| v == "scalar") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    })
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

/// `c[j] += a0 * b0[j]` over equal-length slices.
#[inline]
#[allow(
    unsafe_code,
    reason = "sanctioned SIMD dispatch (see the crate-level note)"
)]
pub fn axpy(c: &mut [f32], a0: f32, b0: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: the Avx2 level is only ever selected when the CPU
        // reports AVX2 support.
        unsafe { avx2::axpy(c, a0, b0) };
        return;
    }
    axpy_scalar(c, a0, b0);
}

/// Portable body of [`axpy`] (also the reference the AVX2 twin must match
/// bit-for-bit).
#[inline]
fn axpy_scalar(c: &mut [f32], a0: f32, b0: &[f32]) {
    let n = c.len();
    let b0 = &b0[..n];
    let split = n - n % LANES;
    let (c_main, c_tail) = c.split_at_mut(split);
    for (cc, bb) in c_main
        .chunks_exact_mut(LANES)
        .zip(b0[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            cc[l] += a0 * bb[l];
        }
    }
    for (cc, &bb) in c_tail.iter_mut().zip(&b0[split..]) {
        *cc += a0 * bb;
    }
}

/// Four fused axpy rows: `c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]`.
///
/// This is the register-blocked heart of [`gemm`]: four rows of `B` are
/// consumed per pass over the output row, quartering the `C` read/write
/// traffic, and every lane is an independent sum so the loop vectorizes
/// without `-ffast-math`-style reassociation.
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "four fused rows, each a coefficient and a slice"
)]
fn axpy4(
    c: &mut [f32],
    a0: f32,
    b0: &[f32],
    a1: f32,
    b1: &[f32],
    a2: f32,
    b2: &[f32],
    a3: f32,
    b3: &[f32],
) {
    let n = c.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let split = n - n % LANES;
    let (c_main, c_tail) = c.split_at_mut(split);
    let iter = c_main
        .chunks_exact_mut(LANES)
        .zip(b0[..split].chunks_exact(LANES))
        .zip(b1[..split].chunks_exact(LANES))
        .zip(b2[..split].chunks_exact(LANES))
        .zip(b3[..split].chunks_exact(LANES));
    for ((((cc, v0), v1), v2), v3) in iter {
        for l in 0..LANES {
            cc[l] += a0 * v0[l] + a1 * v1[l] + a2 * v2[l] + a3 * v3[l];
        }
    }
    // Iterator-zipped tail: the same fused four-term expression per element
    // (bit-identical), but free of bounds checks so LLVM vectorizes the
    // narrow-output case (e.g. `n = num_classes` logits products).
    let tail = c_tail
        .iter_mut()
        .zip(&b0[split..])
        .zip(&b1[split..])
        .zip(&b2[split..])
        .zip(&b3[split..]);
    for ((((cc, &v0), &v1), &v2), &v3) in tail {
        *cc += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
    }
}

/// Computes one `MC`-row block of `C += A_rows · B` through the cache tiling.
///
/// `a_rows` holds the block's rows of `A` (`mb x k`), `c_block` the matching
/// rows of `C` (`mb x n`); `b` is the full `k x n` right operand.
fn gemm_block(
    level: SimdLevel,
    a_rows: &[f32],
    k: usize,
    n: usize,
    b: &[f32],
    c_block: &mut [f32],
) {
    debug_assert_eq!(c_block.len() % n, 0);
    debug_assert_eq!(a_rows.len(), c_block.len() / n * k);
    if n < LANES {
        narrow_block(a_rows, k, n, b, c_block);
        return;
    }
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        let tile = Tile {
            data: b,
            off: k0 * n,
            stride: n,
        };
        wide_panel(level, &a_rows[k0..], k, kb, tile, c_block, n);
    }
}

/// A window of a row-major operand: its row `kk` starts at
/// `data[off + kk * stride]`.
#[derive(Clone, Copy)]
struct Tile<'a> {
    data: &'a [f32],
    off: usize,
    stride: usize,
}

/// One `kb`-deep panel of the cache tiling on the wide row kernels:
/// `c_i += a_i · B_tile` for every `width`-wide row `c_i` of `c`, where
/// `a_i` is `a[i * lda..][..kb]` and `b` holds the `kb x width` tile.
///
/// The AVX2 `gemm_row` and the portable `axpy4`/`axpy` rows apply the same
/// [`KU`]-fused updates in the same order, so both tiers agree bit for bit.
#[allow(
    unsafe_code,
    reason = "sanctioned SIMD dispatch (see the crate-level note)"
)]
fn wide_panel(
    level: SimdLevel,
    a: &[f32],
    lda: usize,
    kb: usize,
    b: Tile<'_>,
    c: &mut [f32],
    width: usize,
) {
    let rows = c.len() / width;
    assert!(
        kb == 0 || b.off + (kb - 1) * b.stride + width <= b.data.len(),
        "wide_panel: the {kb} x {width} tile overruns its operand"
    );
    for j0 in (0..width).step_by(NC) {
        let nb = NC.min(width - j0);
        for i in 0..rows {
            let a_row = &a[i * lda..][..kb];
            let c_row = &mut c[i * width + j0..][..nb];
            #[cfg(target_arch = "x86_64")]
            if level == SimdLevel::Avx2 {
                // SAFETY: Avx2 is only selected when the CPU has it; the
                // row kernel's `kb x nb` window at column `j0` lies inside
                // the `kb x width` tile, which the assert above keeps inside
                // `b.data`.
                unsafe { avx2::gemm_row(a_row, b.data, b.off + j0, b.stride, c_row) };
                continue;
            }
            gemm_row_portable(a_row, b, j0, c_row);
        }
    }
}

/// Portable twin of `avx2::gemm_row`: `c_row += a_row · B_tile[.., j0..]`
/// as [`KU`]-fused `axpy4` passes in ascending depth, then single-row
/// updates for the depth tail.
fn gemm_row_portable(a_row: &[f32], b: Tile<'_>, j0: usize, c_row: &mut [f32]) {
    let nb = c_row.len();
    let row = |kk: usize| &b.data[b.off + kk * b.stride + j0..][..nb];
    let kb = a_row.len();
    let mut kk = 0;
    while kk + KU <= kb {
        axpy4(
            c_row,
            a_row[kk],
            row(kk),
            a_row[kk + 1],
            row(kk + 1),
            a_row[kk + 2],
            row(kk + 2),
            a_row[kk + 3],
            row(kk + 3),
        );
        kk += KU;
    }
    while kk < kb {
        axpy_scalar(c_row, a_row[kk], row(kk));
        kk += 1;
    }
}

/// Narrow-output (`n < LANES`) dispatch shared by the portable and SIMD
/// paths: outputs below one vector width (e.g. `num_classes`-wide logits)
/// keep the whole output row in a register-resident accumulator across the
/// depth loop instead of streaming it through memory per `axpy4` pass. The
/// per-element floating-point sequence is identical to the wide path's
/// (same fused four-term updates in the same order), so results stay
/// bit-identical.
fn narrow_block(a_rows: &[f32], k: usize, n: usize, b: &[f32], c_block: &mut [f32]) {
    match n {
        0 => {}
        1 => narrow_rows::<1>(a_rows, k, b, c_block),
        2 => narrow_rows::<2>(a_rows, k, b, c_block),
        3 => narrow_rows::<3>(a_rows, k, b, c_block),
        4 => narrow_rows::<4>(a_rows, k, b, c_block),
        5 => narrow_rows::<5>(a_rows, k, b, c_block),
        6 => narrow_rows::<6>(a_rows, k, b, c_block),
        7 => narrow_rows::<7>(a_rows, k, b, c_block),
        _ => unreachable!("narrow path requires n < LANES"),
    }
}

/// Narrow (`N < LANES`) gemm rows: `c += a · B` with a compile-time output
/// width, so the whole output row lives in a register-resident `[f32; N]`
/// accumulator and the inner loops fully unroll without bounds checks.
/// Performs exactly the wide path's per-element operations — `c[j] +=
/// a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` per `KU`-group, then
/// single-row updates for the depth tail — in the same order, so results
/// are bit-identical to the `axpy4`/`axpy` path.
fn narrow_rows<const N: usize>(a_rows: &[f32], k: usize, b: &[f32], c_block: &mut [f32]) {
    let row_at = |kk: usize| -> [f32; N] {
        let mut row = [0.0f32; N];
        row.copy_from_slice(&b[kk * N..kk * N + N]);
        row
    };
    for (a_row, c_row) in a_rows.chunks_exact(k).zip(c_block.chunks_exact_mut(N)) {
        let mut acc = [0.0f32; N];
        acc.copy_from_slice(c_row);
        let mut kk = 0;
        while kk + KU <= k {
            let a0 = a_row[kk];
            let a1 = a_row[kk + 1];
            let a2 = a_row[kk + 2];
            let a3 = a_row[kk + 3];
            let (b0, b1, b2, b3) = (row_at(kk), row_at(kk + 1), row_at(kk + 2), row_at(kk + 3));
            for j in 0..N {
                acc[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += KU;
        }
        while kk < k {
            let a0 = a_row[kk];
            let b0 = row_at(kk);
            for j in 0..N {
                acc[j] += a0 * b0[j];
            }
            kk += 1;
        }
        c_row.copy_from_slice(&acc);
    }
}

/// Dense `C = A · B` into a zeroed output buffer.
///
/// `a` is `m x k`, `b` is `k x n`, `out` is `m x n` and must be zeroed (or
/// hold a partial sum to accumulate onto). Parallel over `MC`-row blocks of
/// the output above [`PAR_GEMM_WORK`] multiply-adds; the serial and parallel
/// paths produce bit-identical results.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_at(simd_level(), goes_parallel(m * k * n), m, k, n, a, b, out);
}

/// Serial-only variant of [`gemm`] (used by the determinism property test to
/// check that the parallel path is bit-identical).
#[doc(hidden)]
pub fn gemm_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_at(simd_level(), false, m, k, n, a, b, out);
}

/// Serial variant of [`gemm`] that never dispatches to the SIMD
/// micro-kernels: the reference side of the SIMD agreement gates in the
/// substrate bench and the kernel tests. The dispatched path must match it
/// bit for bit on every shape.
#[doc(hidden)]
pub fn gemm_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_at(SimdLevel::Scalar, false, m, k, n, a, b, out);
}

/// [`gemm`] at a fixed micro-kernel tier, on the pool when `parallel`.
#[allow(
    clippy::too_many_arguments,
    reason = "the gemm shape and operands plus the tier and pool choice"
)]
fn gemm_at(
    level: SimdLevel,
    parallel: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for_each_row_block(out, n, parallel, |i0, c_block| {
        let mb = c_block.len() / n;
        gemm_block(level, &a[i0 * k..(i0 + mb) * k], k, n, b, c_block);
    });
}

/// Whether a product of `work` multiply-adds runs on the pool.
fn goes_parallel(work: usize) -> bool {
    work >= PAR_GEMM_WORK && rayon::current_num_threads() > 1
}

/// Runs `block(i0, c_block)` over the `MC`-row blocks of an `n`-wide output
/// (`i0` is the block's first row), as pool tasks when `parallel`. One task
/// owns one block and computes it the same way on either path, so the
/// result is bit-identical for every thread count.
fn for_each_row_block(
    out: &mut [f32],
    n: usize,
    parallel: bool,
    block: impl Fn(usize, &mut [f32]) + Sync,
) {
    if parallel {
        out.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(blk, c_block)| block(blk * MC, c_block));
    } else {
        for (blk, c_block) in out.chunks_mut(MC * n).enumerate() {
            block(blk * MC, c_block);
        }
    }
}

thread_local! {
    /// Per-thread panel scratch of [`gemm_tn`]: one `KC`-deep transposed
    /// panel, at most `MC x KC` floats, reused across calls.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Dense `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// `a` is `r x m`, `b` is `r x n`, `out` is `m x n` and must be zeroed (or
/// hold a partial sum to accumulate onto). Each `MC`-row output task packs
/// its columns of `A` one `KC`-deep panel at a time (at most `MC x KC`
/// floats, so the panel stays in cache) and runs [`gemm`]'s row kernels on
/// it. Every element therefore receives exactly the updates of
/// [`transpose_into`] followed by [`gemm`]: [`KU`]-groups in ascending `r`,
/// then the single-row tail.
///
/// A narrow output (`n < LANES <= m`, e.g. a `d x num_classes` gradient) is
/// computed as `(Bᵀ · A)ᵀ`: the task packs panels of `Bᵀ` instead and runs
/// the wide row kernels across its columns of `A`, accumulating into the
/// block's transpose. IEEE multiplication commutes and the grouping over
/// `r` is unchanged, so this is bit-identical too, while the accumulators
/// stay vector-wide.
///
/// Parallel over `MC`-row output blocks above [`PAR_GEMM_WORK`]
/// multiply-adds; the serial and parallel paths produce bit-identical
/// results.
pub fn gemm_tn(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_tn_at(goes_parallel(r * m * n), r, m, n, a, b, out);
}

/// [`gemm_tn`], on the pool when `parallel`.
fn gemm_tn_at(parallel: bool, r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), m * n);
    if r == 0 || m == 0 || n == 0 {
        return;
    }
    for_each_row_block(out, n, parallel, |i0, c_block| {
        PANEL.with(|panel| {
            let mut panel = panel.borrow_mut();
            if panel.len() < MC * KC {
                panel.resize(MC * KC, 0.0);
            }
            gemm_tn_block(r, m, n, a, b, i0, c_block, &mut panel);
        })
    });
}

/// Rows `i0..i0 + mb` of `C += Aᵀ · B`, i.e. columns `i0..i0 + mb` of `A`,
/// one `KC`-deep panel at a time. `panel` holds at least `MC x KC` floats.
#[allow(
    clippy::too_many_arguments,
    reason = "the gemm shape and operands plus the block's offset and scratch panel"
)]
fn gemm_tn_block(
    r: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    i0: usize,
    c_block: &mut [f32],
    panel: &mut [f32],
) {
    let level = simd_level();
    let mb = c_block.len() / n;
    // Depth rows `k0..` of this block's columns of `A` and of `B`.
    let tiles = |k0: usize| {
        let a_tile = Tile {
            data: a,
            off: k0 * m + i0,
            stride: m,
        };
        let b_tile = Tile {
            data: b,
            off: k0 * n,
            stride: n,
        };
        (a_tile, b_tile)
    };
    if n < LANES && m >= LANES {
        // Narrow output: accumulate the block's transpose `Cᵀ += Bᵀ · A`,
        // whose `mb`-wide rows run on the wide row kernels.
        let mut ct = [0.0f32; LANES * MC];
        let ct = &mut ct[..n * mb];
        transpose_into(mb, n, c_block, ct);
        for k0 in (0..r).step_by(KC) {
            let kb = KC.min(r - k0);
            let (a_tile, b_tile) = tiles(k0);
            let panel = &mut panel[..n * kb];
            pack_transposed(b_tile, kb, n, panel);
            wide_panel(level, panel, kb, kb, a_tile, ct, mb);
        }
        transpose_into(n, mb, ct, c_block);
        return;
    }
    for k0 in (0..r).step_by(KC) {
        let kb = KC.min(r - k0);
        let (a_tile, b_tile) = tiles(k0);
        let panel = &mut panel[..mb * kb];
        pack_transposed(a_tile, kb, mb, panel);
        if n < LANES {
            narrow_block(panel, kb, n, &b[k0 * n..(k0 + kb) * n], c_block);
        } else {
            wide_panel(level, panel, kb, kb, b_tile, c_block, n);
        }
    }
}

/// Packs the transpose of the first `cols` columns of the tile's `kb` rows
/// into `panel` (`cols x kb`, row-major).
fn pack_transposed(src: Tile<'_>, kb: usize, cols: usize, panel: &mut [f32]) {
    debug_assert_eq!(panel.len(), cols * kb);
    for kk in 0..kb {
        let src_row = &src.data[src.off + kk * src.stride..][..cols];
        for (i, &v) in src_row.iter().enumerate() {
            panel[i * kb + kk] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused softmax-regression gradient
// ---------------------------------------------------------------------------

/// The labels of [`softmax_regression_grad`]'s rows.
#[derive(Clone, Copy, Debug)]
pub enum RowLabels<'a> {
    /// Every row has this label (one class's block of rows).
    Uniform(usize),
    /// Row `r` has label `labels[r]`.
    PerRow(&'a [usize]),
}

impl RowLabels<'_> {
    /// The label of row `row`.
    pub(crate) fn label(&self, row: usize) -> usize {
        match *self {
            RowLabels::Uniform(label) => label,
            RowLabels::PerRow(labels) => labels[row],
        }
    }
}

/// Caller-owned scratch of [`softmax_regression_grad`]: reused across
/// calls, so a steady-state call allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SoftmaxGradScratch {
    /// `W` with its columns zero-padded to a multiple of [`LANES`].
    w: Vec<f32>,
    /// The gradient accumulator, `features x` the padded class count.
    acc: Vec<f32>,
    /// One [`KU`]-group of padded logit rows, turned into `p - y` in place.
    probs: Vec<f32>,
}

impl SoftmaxGradScratch {
    /// Sizes the buffers for `features x classes` weights padded to `cp`
    /// columns, copies `w` in and zeroes the accumulator.
    fn prepare(&mut self, features: usize, classes: usize, cp: usize, w: &[f32]) {
        self.w.clear();
        self.w.resize(features * cp, 0.0);
        for (dst, src) in self.w.chunks_exact_mut(cp).zip(w.chunks_exact(classes)) {
            dst[..classes].copy_from_slice(src);
        }
        self.acc.clear();
        self.acc.resize(features * cp, 0.0);
        self.probs.clear();
        self.probs.resize(KU * cp, 0.0);
    }
}

/// Weight gradient of a linear softmax classifier,
/// `grad = Zᵀ (softmax(Z · W) − onehot(labels)) · (1 / max(rows, 1))`, in one
/// pass over `Z` (`rows x features`) for `W` and `grad` of `features x
/// classes`.
///
/// It reads `Z` [`KU`] rows at a time: their logits, their softmax minus the
/// label's one, and their rank-`KU` update of the gradient, so `Z` is read
/// once and nothing is allocated beyond `scratch`. Every element gets the
/// bits of the chain it replaces — [`gemm`], `softmax_row_in_place`, `−1` at
/// the label, [`gemm_tn`], then the scale:
///
/// * each logit is the gemm's sum: [`KU`]-fused groups in ascending depth,
///   then the single-step depth tail;
/// * each probability row runs `softmax_row_in_place` over its `classes`
///   entries, then subtracts `1` at the label;
/// * each gradient element gets `gemm_tn`'s updates: [`KU`]-groups of rows in
///   ascending order, then the single-row tail;
/// * the result is multiplied by `1 / max(rows, 1)`.
///
/// The AVX2 lanes run over the classes zero-padded to a multiple of
/// [`LANES`]; the portable twin performs the same operations and agrees bit
/// for bit. Serial: a caller with independent problems (one per class) runs
/// them as pool tasks.
///
/// # Panics
/// On a shape mismatch or a label outside `0..classes`.
#[allow(
    clippy::too_many_arguments,
    reason = "the problem shape and operands plus the labels, scratch and output"
)]
pub fn softmax_regression_grad(
    rows: usize,
    features: usize,
    classes: usize,
    z: &[f32],
    w: &[f32],
    labels: RowLabels<'_>,
    scratch: &mut SoftmaxGradScratch,
    grad: &mut [f32],
) {
    softmax_regression_grad_at(
        simd_level(),
        rows,
        features,
        classes,
        z,
        w,
        labels,
        scratch,
        grad,
    );
}

/// [`softmax_regression_grad`] on the portable kernels only: the reference
/// its AVX2 path is checked against.
#[doc(hidden)]
#[allow(
    clippy::too_many_arguments,
    reason = "the problem shape and operands plus the labels, scratch and output"
)]
pub fn softmax_regression_grad_scalar(
    rows: usize,
    features: usize,
    classes: usize,
    z: &[f32],
    w: &[f32],
    labels: RowLabels<'_>,
    scratch: &mut SoftmaxGradScratch,
    grad: &mut [f32],
) {
    softmax_regression_grad_at(
        SimdLevel::Scalar,
        rows,
        features,
        classes,
        z,
        w,
        labels,
        scratch,
        grad,
    );
}

/// [`softmax_regression_grad`] at a fixed micro-kernel tier.
#[allow(
    clippy::too_many_arguments,
    reason = "the problem shape and operands plus the tier, labels, scratch and output"
)]
fn softmax_regression_grad_at(
    level: SimdLevel,
    rows: usize,
    features: usize,
    classes: usize,
    z: &[f32],
    w: &[f32],
    labels: RowLabels<'_>,
    scratch: &mut SoftmaxGradScratch,
    grad: &mut [f32],
) {
    assert_eq!(z.len(), rows * features, "softmax_regression_grad: Z shape");
    assert_eq!(
        w.len(),
        features * classes,
        "softmax_regression_grad: W shape"
    );
    assert_eq!(grad.len(), w.len(), "softmax_regression_grad: output shape");
    if let RowLabels::PerRow(labels) = labels {
        assert_eq!(
            labels.len(),
            rows,
            "softmax_regression_grad: one label per row"
        );
    }
    if grad.is_empty() {
        return;
    }
    let cp = classes.next_multiple_of(LANES);
    scratch.prepare(features, classes, cp, w);
    let SoftmaxGradScratch { w, acc, probs } = scratch;
    let mut pass = FusedPass {
        level,
        features,
        classes,
        labels,
        w,
        probs,
        acc,
    };
    let mut r = 0;
    while r + KU <= rows {
        pass.rows::<KU>(r, &z[r * features..(r + KU) * features]);
        r += KU;
    }
    for r in r..rows {
        pass.rows::<1>(r, &z[r * features..(r + 1) * features]);
    }
    let scale = 1.0 / rows.max(1) as f32;
    for (g_row, a_row) in grad.chunks_exact_mut(classes).zip(acc.chunks_exact(cp)) {
        for (g, &a) in g_row.iter_mut().zip(a_row) {
            *g = a * scale;
        }
    }
}

/// One [`softmax_regression_grad`] call's operands: `w` and `acc` are `W`
/// and the gradient accumulator with their columns padded to `cp`, a
/// multiple of [`LANES`]; `probs` holds one [`KU`]-group of padded residual
/// rows. Padding columns carry zero-weight sums that are never read back.
struct FusedPass<'a> {
    level: SimdLevel,
    features: usize,
    classes: usize,
    labels: RowLabels<'a>,
    w: &'a [f32],
    probs: &'a mut [f32],
    acc: &'a mut [f32],
}

impl FusedPass<'_> {
    /// Rows `r0..r0 + R` (`z`, `R x features`): their residuals
    /// `softmax(z_r · W) − onehot(label_r)` into `probs`, then their
    /// rank-`R` update of the accumulator. `R` is [`KU`] for a group of
    /// `gemm_tn`'s depth and 1 for its tail.
    fn rows<const R: usize>(&mut self, r0: usize, z: &[f32]) {
        let cp = self.w.len() / self.features;
        let probs = &mut self.probs[..R * cp];
        logits_rows::<R>(self.level, z, self.features, self.w, probs);
        for (i, p) in probs.chunks_exact_mut(cp).enumerate() {
            let label = self.labels.label(r0 + i);
            assert!(
                label < self.classes,
                "softmax_regression_grad: label {label} out of range for {} classes",
                self.classes
            );
            crate::matrix::softmax_row_in_place(&mut p[..self.classes]);
            p[label] -= 1.0;
        }
        rank_update::<R>(self.level, z, self.features, probs, self.acc);
    }
}

/// [`logits_rows_portable`] at a micro-kernel tier.
#[allow(
    unsafe_code,
    reason = "sanctioned SIMD dispatch (see the crate-level note)"
)]
fn logits_rows<const R: usize>(
    level: SimdLevel,
    z: &[f32],
    features: usize,
    w: &[f32],
    out: &mut [f32],
) {
    let cp = out.len() / R;
    assert!(
        cp.is_multiple_of(LANES) && z.len() == R * features && w.len() == features * cp,
        "logits_rows: shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only selected when the CPU has it; the shapes
        // are checked above.
        unsafe { avx2::logits_rows::<R>(z, features, w, out) };
        return;
    }
    logits_rows_portable::<R>(z, features, w, out);
}

/// [`rank_update_portable`] at a micro-kernel tier.
#[allow(
    unsafe_code,
    reason = "sanctioned SIMD dispatch (see the crate-level note)"
)]
fn rank_update<const R: usize>(
    level: SimdLevel,
    z: &[f32],
    features: usize,
    p: &[f32],
    acc: &mut [f32],
) {
    let cp = p.len() / R;
    assert!(
        cp.is_multiple_of(LANES) && z.len() == R * features && acc.len() == features * cp,
        "rank_update: shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only selected when the CPU has it; the shapes
        // are checked above.
        unsafe { avx2::rank_update::<R>(z, features, p, acc) };
        return;
    }
    rank_update_portable::<R>(z, features, p, acc);
}

/// `out_r = z_r · W` for the `R` rows of `z` (`R x features`) into the
/// `R x cp` rows of `out`, where `w` is `W` padded to `cp` columns: per
/// element [`gemm`]'s sum from `+0.0`, [`KU`]-fused groups
/// `((z0·w0 + z1·w1) + z2·w2) + z3·w3` in ascending depth, then the depth
/// tail one product at a time. One [`LANES`]-wide column chunk at a time,
/// with the `R` accumulators in registers.
fn logits_rows_portable<const R: usize>(z: &[f32], features: usize, w: &[f32], out: &mut [f32]) {
    let cp = out.len() / R;
    for v in (0..cp).step_by(LANES) {
        let w_lanes = |kk: usize| &w[kk * cp + v..][..LANES];
        let mut acc = [[0.0f32; LANES]; R];
        let mut kk = 0;
        while kk + KU <= features {
            let (w0, w1, w2, w3) = (
                w_lanes(kk),
                w_lanes(kk + 1),
                w_lanes(kk + 2),
                w_lanes(kk + 3),
            );
            for (r, acc) in acc.iter_mut().enumerate() {
                let zr = &z[r * features + kk..][..KU];
                for l in 0..LANES {
                    acc[l] += zr[0] * w0[l] + zr[1] * w1[l] + zr[2] * w2[l] + zr[3] * w3[l];
                }
            }
            kk += KU;
        }
        while kk < features {
            let w0 = w_lanes(kk);
            for (r, acc) in acc.iter_mut().enumerate() {
                let zr = z[r * features + kk];
                for l in 0..LANES {
                    acc[l] += zr * w0[l];
                }
            }
            kk += 1;
        }
        for (r, acc) in acc.iter().enumerate() {
            out[r * cp + v..][..LANES].copy_from_slice(acc);
        }
    }
}

/// `acc_i += ((z0[i]·p0 + z1[i]·p1) + z2[i]·p2) + z3[i]·p3` for every
/// `cp`-wide row `acc_i` of the accumulator (`features x cp`), with `R`
/// rows `z_r` of `z` and residual rows `p_r` of `p` (`R = 4` as shown;
/// `R = 1` is `acc_i += z0[i]·p0`): [`gemm_tn`]'s update of one depth
/// group or tail row. One [`LANES`]-wide chunk at a time, its `p` lanes in
/// registers.
fn rank_update_portable<const R: usize>(z: &[f32], features: usize, p: &[f32], acc: &mut [f32]) {
    let cp = p.len() / R;
    for v in (0..cp).step_by(LANES) {
        let mut pv = [[0.0f32; LANES]; R];
        for (r, pv) in pv.iter_mut().enumerate() {
            pv.copy_from_slice(&p[r * cp + v..][..LANES]);
        }
        for i in 0..features {
            let mut s = [0.0f32; LANES];
            for l in 0..LANES {
                s[l] = z[i] * pv[0][l];
            }
            for (r, pv) in pv.iter().enumerate().skip(1) {
                let zr = z[r * features + i];
                for l in 0..LANES {
                    s[l] += zr * pv[l];
                }
            }
            let a = &mut acc[i * cp + v..][..LANES];
            for l in 0..LANES {
                a[l] += s[l];
            }
        }
    }
}

/// Cache-blocked transpose: writes the `cols x rows` transpose of the
/// row-major `rows x cols` matrix `src` into `dst`.
///
/// Used both as the public transpose and as the pack step that lets
/// `matmul_transpose` share the [`gemm`] kernel.
pub fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    for r0 in (0..rows).step_by(TB) {
        let rb = TB.min(rows - r0);
        for c0 in (0..cols).step_by(TB) {
            let cb = TB.min(cols - c0);
            for r in r0..r0 + rb {
                for c in c0..c0 + cb {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Element-wise / row-wise substrate
// ---------------------------------------------------------------------------

/// `dst[i] = f(src[i])`, parallel above [`PAR_ELEM_WORK`] elements.
pub fn unary_map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(src.len(), dst.len());
    if dst.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
    } else {
        dst.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let src = &src[off..off + chunk.len()];
                for (d, &s) in chunk.iter_mut().zip(src) {
                    *d = f(s);
                }
            });
    }
}

/// `dst[i] = f(a[i], b[i])`, parallel above [`PAR_ELEM_WORK`] elements.
pub fn binary_map_into(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    if dst.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
            *d = f(x, y);
        }
    } else {
        dst.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let (a, b) = (&a[off..off + chunk.len()], &b[off..off + chunk.len()]);
                for (d, (&x, &y)) in chunk.iter_mut().zip(a.iter().zip(b)) {
                    *d = f(x, y);
                }
            });
    }
}

/// `a[i] = f(a[i])` in place, parallel above [`PAR_ELEM_WORK`] elements.
pub fn unary_map_inplace(a: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    if a.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for v in a.iter_mut() {
            *v = f(*v);
        }
    } else {
        a.par_chunks_mut(ELEM_CHUNK).for_each(|chunk| {
            for v in chunk.iter_mut() {
                *v = f(*v);
            }
        });
    }
}

/// `a[i] = f(a[i], b[i])` in place, parallel above [`PAR_ELEM_WORK`] elements.
pub fn binary_map_inplace(a: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = f(*x, y);
        }
    } else {
        a.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let b = &b[off..off + chunk.len()];
                for (x, &y) in chunk.iter_mut().zip(b) {
                    *x = f(*x, y);
                }
            });
    }
}

/// Applies `f(row_index, row)` to every `cols`-wide row of `data` in place,
/// parallel above [`PAR_ELEM_WORK`] total elements. Each row is owned by
/// exactly one task, so per-row reductions stay deterministic.
pub fn for_each_row(data: &mut [f32], cols: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if cols == 0 {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    if data.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (r, row) in data.chunks_mut(cols).enumerate() {
            f(r, row);
        }
    } else {
        let rows_per_task = (ELEM_CHUNK / cols).max(1);
        data.par_chunks_mut(rows_per_task * cols)
            .enumerate()
            .for_each(|(blk, block)| {
                let r0 = blk * rows_per_task;
                for (i, row) in block.chunks_mut(cols).enumerate() {
                    f(r0 + i, row);
                }
            });
    }
}

/// Writes `f(row_index, row)` of a `cols`-wide row-major matrix into `out`
/// (one value per row), parallel above [`PAR_ELEM_WORK`] source elements.
pub fn map_rows_into(
    data: &[f32],
    cols: usize,
    out: &mut [f32],
    f: impl Fn(usize, &[f32]) -> f32 + Sync,
) {
    if cols == 0 {
        for (r, o) in out.iter_mut().enumerate() {
            *o = f(r, &[]);
        }
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    debug_assert_eq!(out.len(), data.len() / cols);
    if data.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (r, o) in out.iter_mut().enumerate() {
            *o = f(r, &data[r * cols..(r + 1) * cols]);
        }
    } else {
        let rows_per_task = (ELEM_CHUNK / cols).max(1);
        out.par_chunks_mut(rows_per_task)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let r0 = blk * rows_per_task;
                for (i, o) in chunk.iter_mut().enumerate() {
                    let r = r0 + i;
                    *o = f(r, &data[r * cols..(r + 1) * cols]);
                }
            });
    }
}

// ---------------------------------------------------------------------------
// Retained naive reference implementations
// ---------------------------------------------------------------------------

/// The pre-substrate serial `ikj` mat-mul (branch-free): reference for
/// property tests and the `substrate` benchmark baseline.
pub fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let b_row = &b[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-substrate serial `A^T · B` (outer-product accumulation over rows).
pub fn naive_transpose_matmul(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for row in 0..r {
        let a_row = &a[row * m..(row + 1) * m];
        let b_row = &b[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-substrate serial `A · B^T` (per-entry dot products — the scalar
/// reduction LLVM cannot vectorize, which is what the substrate replaces).
pub fn naive_matmul_transpose(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 micro-kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "the crate's one sanctioned unsafe surface (std::arch)"
)]
mod avx2 {
    //! AVX2 twins of the portable micro-kernels.
    //!
    //! Bit-identity contract: every lane performs exactly the portable
    //! path's operation sequence — [`KU`]-grouped updates in ascending depth
    //! order, each group summed left-to-right with separate multiply and add
    //! steps (never an FMA instruction, which would drop an intermediate
    //! rounding) — so the dispatched and scalar kernels produce
    //! byte-identical matrices and cached experiment cells stay valid
    //! across machines with and without AVX2.
    use super::{KU, LANES};
    use std::arch::x86_64::*;

    // The unrolled broadcast groups below are written for the current
    // depth-unroll factor.
    const _: () = assert!(KU == 4, "avx2 kernels unroll the depth loop by 4");

    /// `c[j] += a0 * b0[j]`, vector twin of [`super::axpy_scalar`].
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(c: &mut [f32], a0: f32, b0: &[f32]) {
        let n = c.len();
        let b0 = &b0[..n];
        let split = n - n % LANES;
        let va = _mm256_set1_ps(a0);
        let cp = c.as_mut_ptr();
        let bp = b0.as_ptr();
        let mut j = 0;
        while j < split {
            let prod = _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(cp.add(j), _mm256_add_ps(_mm256_loadu_ps(cp.add(j)), prod));
            j += LANES;
        }
        while j < n {
            *cp.add(j) += a0 * *bp.add(j);
            j += 1;
        }
    }

    /// One output row of the cache-tiled gemm: `c_row += a_row · B_tile`,
    /// where the `kb x nb` tile of `B` starts at flat offset `b_off` in `b`
    /// with row stride `n`. Output lanes live in register accumulators
    /// across the whole depth loop — the portable path streams `c_row`
    /// through memory every [`KU`] steps instead, but applies the same
    /// values in the same order, so results match bit for bit while this
    /// path skips almost all of the `C` read/write traffic.
    ///
    /// # Safety
    /// Requires AVX2; the caller guarantees the tile window
    /// `b[b_off + kk*n + j]` for `kk < kb, j < nb` lies inside `b`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_row(a_row: &[f32], b: &[f32], b_off: usize, n: usize, c_row: &mut [f32]) {
        let kb = a_row.len();
        let nb = c_row.len();
        debug_assert!(kb == 0 || b_off + (kb - 1) * n + nb <= b.len());
        let split = nb - nb % LANES;
        let ap = a_row.as_ptr();
        let bp = b.as_ptr().add(b_off);
        let cp = c_row.as_mut_ptr();
        const WIDE: usize = 4 * LANES;
        let mut j = 0;
        // Four accumulators (32 lanes) per pass over the depth loop.
        while j + WIDE <= split {
            let mut acc0 = _mm256_loadu_ps(cp.add(j));
            let mut acc1 = _mm256_loadu_ps(cp.add(j + LANES));
            let mut acc2 = _mm256_loadu_ps(cp.add(j + 2 * LANES));
            let mut acc3 = _mm256_loadu_ps(cp.add(j + 3 * LANES));
            let mut kk = 0;
            while kk + KU <= kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let a1 = _mm256_set1_ps(*ap.add(kk + 1));
                let a2 = _mm256_set1_ps(*ap.add(kk + 2));
                let a3 = _mm256_set1_ps(*ap.add(kk + 3));
                let r0 = bp.add(kk * n + j);
                let r1 = bp.add((kk + 1) * n + j);
                let r2 = bp.add((kk + 2) * n + j);
                let r3 = bp.add((kk + 3) * n + j);
                // acc += ((a0*b0 + a1*b1) + a2*b2) + a3*b3 per lane — the
                // scalar axpy4 association, with explicit mul/add steps.
                let mut s0 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a1, _mm256_loadu_ps(r1)));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a2, _mm256_loadu_ps(r2)));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a3, _mm256_loadu_ps(r3)));
                acc0 = _mm256_add_ps(acc0, s0);
                let mut s1 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(LANES)));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(LANES))));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(LANES))));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(LANES))));
                acc1 = _mm256_add_ps(acc1, s1);
                let mut s2 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(2 * LANES)));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(2 * LANES))));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(2 * LANES))));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(2 * LANES))));
                acc2 = _mm256_add_ps(acc2, s2);
                let mut s3 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(3 * LANES)));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(3 * LANES))));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(3 * LANES))));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(3 * LANES))));
                acc3 = _mm256_add_ps(acc3, s3);
                kk += KU;
            }
            while kk < kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let r0 = bp.add(kk * n + j);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, _mm256_loadu_ps(r0)));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(LANES))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(2 * LANES))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(3 * LANES))));
                kk += 1;
            }
            _mm256_storeu_ps(cp.add(j), acc0);
            _mm256_storeu_ps(cp.add(j + LANES), acc1);
            _mm256_storeu_ps(cp.add(j + 2 * LANES), acc2);
            _mm256_storeu_ps(cp.add(j + 3 * LANES), acc3);
            j += WIDE;
        }
        // Single-vector remainder columns.
        while j < split {
            let mut acc = _mm256_loadu_ps(cp.add(j));
            let mut kk = 0;
            while kk + KU <= kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let a1 = _mm256_set1_ps(*ap.add(kk + 1));
                let a2 = _mm256_set1_ps(*ap.add(kk + 2));
                let a3 = _mm256_set1_ps(*ap.add(kk + 3));
                let mut s = _mm256_mul_ps(a0, _mm256_loadu_ps(bp.add(kk * n + j)));
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a1, _mm256_loadu_ps(bp.add((kk + 1) * n + j))),
                );
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a2, _mm256_loadu_ps(bp.add((kk + 2) * n + j))),
                );
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a3, _mm256_loadu_ps(bp.add((kk + 3) * n + j))),
                );
                acc = _mm256_add_ps(acc, s);
                kk += KU;
            }
            while kk < kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(a0, _mm256_loadu_ps(bp.add(kk * n + j))));
                kk += 1;
            }
            _mm256_storeu_ps(cp.add(j), acc);
            j += LANES;
        }
        // Scalar tail columns, same depth grouping and association.
        while j < nb {
            let mut acc = *cp.add(j);
            let mut kk = 0;
            while kk + KU <= kb {
                acc += *ap.add(kk) * *bp.add(kk * n + j)
                    + *ap.add(kk + 1) * *bp.add((kk + 1) * n + j)
                    + *ap.add(kk + 2) * *bp.add((kk + 2) * n + j)
                    + *ap.add(kk + 3) * *bp.add((kk + 3) * n + j);
                kk += KU;
            }
            while kk < kb {
                acc += *ap.add(kk) * *bp.add(kk * n + j);
                kk += 1;
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// Vector twin of [`super::logits_rows_portable`]: the same per-lane
    /// operations, with the `R` accumulators of one column chunk in
    /// registers and each chunk of four `W` rows loaded once for all `R`
    /// rows.
    ///
    /// # Safety
    /// Requires AVX2; `z.len() == R * features`, `w.len() == features * cp`
    /// and `out.len() == R * cp` with `cp` a multiple of `LANES`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn logits_rows<const R: usize>(
        z: &[f32],
        features: usize,
        w: &[f32],
        out: &mut [f32],
    ) {
        let cp = out.len() / R;
        let zp = z.as_ptr();
        let wp = w.as_ptr();
        let op = out.as_mut_ptr();
        let mut v = 0;
        while v < cp {
            let mut acc = [_mm256_setzero_ps(); R];
            let mut kk = 0;
            while kk + KU <= features {
                let w0 = _mm256_loadu_ps(wp.add(kk * cp + v));
                let w1 = _mm256_loadu_ps(wp.add((kk + 1) * cp + v));
                let w2 = _mm256_loadu_ps(wp.add((kk + 2) * cp + v));
                let w3 = _mm256_loadu_ps(wp.add((kk + 3) * cp + v));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let zr = zp.add(r * features + kk);
                    let mut s = _mm256_mul_ps(_mm256_set1_ps(*zr), w0);
                    s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_set1_ps(*zr.add(1)), w1));
                    s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_set1_ps(*zr.add(2)), w2));
                    s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_set1_ps(*zr.add(3)), w3));
                    *acc = _mm256_add_ps(*acc, s);
                }
                kk += KU;
            }
            while kk < features {
                let w0 = _mm256_loadu_ps(wp.add(kk * cp + v));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let zr = _mm256_set1_ps(*zp.add(r * features + kk));
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(zr, w0));
                }
                kk += 1;
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * cp + v), *acc);
            }
            v += LANES;
        }
    }

    /// Vector twin of [`super::rank_update_portable`]: the same per-lane
    /// operations, with the `R` residual chunks of one column chunk in
    /// registers while the loop walks the features.
    ///
    /// # Safety
    /// Requires AVX2; `z.len() == R * features`, `p.len() == R * cp` and
    /// `acc.len() == features * cp` with `cp` a multiple of `LANES`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank_update<const R: usize>(
        z: &[f32],
        features: usize,
        p: &[f32],
        acc: &mut [f32],
    ) {
        let cp = p.len() / R;
        let zp = z.as_ptr();
        let pp = p.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut v = 0;
        while v < cp {
            let mut pv = [_mm256_setzero_ps(); R];
            for (r, pv) in pv.iter_mut().enumerate() {
                *pv = _mm256_loadu_ps(pp.add(r * cp + v));
            }
            for i in 0..features {
                let mut s = _mm256_mul_ps(_mm256_set1_ps(*zp.add(i)), pv[0]);
                for (r, pv) in pv.iter().enumerate().skip(1) {
                    let zr = _mm256_set1_ps(*zp.add(r * features + i));
                    s = _mm256_add_ps(s, _mm256_mul_ps(zr, *pv));
                }
                let a = ap.add(i * cp + v);
                _mm256_storeu_ps(a, _mm256_add_ps(_mm256_loadu_ps(a), s));
            }
            v += LANES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-1, 1].
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {}: {} vs {}",
                i,
                x,
                y
            );
        }
    }

    #[test]
    fn gemm_matches_naive_across_awkward_shapes() {
        // Shapes straddling every blocking boundary: empty, single row/col,
        // exact multiples of MC/KC/NC, and off-by-one around them.
        for &(m, k, n) in &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 130, 1),
            (2, 3, 5),
            (7, 129, 17),
            (64, 128, 512),
            (65, 127, 513),
            (33, 260, 9),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut got);
            naive_matmul(m, k, n, &a, &b, &mut want);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn gemm_parallel_is_bit_identical_to_serial() {
        let (m, k, n) = (150, 96, 75);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut serial = vec![0.0; m * n];
        let mut parallel = vec![0.0; m * n];
        gemm_serial(m, k, n, &a, &b, &mut serial);
        gemm(m, k, n, &a, &b, &mut parallel);
        assert_eq!(serial, parallel, "parallel gemm must be bit-identical");
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar_kernels() {
        // On AVX2 hardware this pins the hand-written kernels to the
        // portable path bit-for-bit (the determinism contract the cached
        // experiment grid depends on); elsewhere both sides run the same
        // code and the test is trivially green. Shapes straddle the 32-wide
        // accumulator block, the single-vector loop, the scalar column
        // tail, and the KU depth remainder.
        for &(m, k, n) in &[
            (1, 1, 8),
            (3, 5, 9),
            (7, 129, 17),
            (2, 6, 31),
            (5, 130, 33),
            (64, 128, 512),
            (65, 127, 513),
            (33, 260, 40),
            (4, 3, 7), // narrow path (shared code, sanity)
        ] {
            let a = fill(m * k, 11);
            let b = fill(k * n, 12);
            let mut dispatched = vec![0.0; m * n];
            let mut scalar = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut dispatched);
            gemm_scalar(m, k, n, &a, &b, &mut scalar);
            assert_eq!(
                dispatched, scalar,
                "simd gemm diverged from scalar at ({}, {}, {})",
                m, k, n
            );
        }
    }

    /// The pre-`gemm_tn` formulation of `Aᵀ · B`: a whole-matrix transpose
    /// pack, then the portable gemm.
    fn transpose_then_gemm_scalar(
        r: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let mut packed = vec![0.0; r * m];
        transpose_into(r, m, a, &mut packed);
        gemm_scalar(m, r, n, &packed, b, out);
    }

    #[test]
    fn gemm_tn_is_bit_identical_to_transpose_then_gemm_scalar() {
        // Depths straddle KU and KC; widths straddle LANES, the 32-lane
        // accumulator block and MC, covering the narrow-output transpose
        // (n < 8 <= m) and the case where both sides are narrow. The output
        // starts from a partial sum, which the kernel accumulates onto.
        const DEPTHS: [usize; 9] = [0, 1, 3, 4, 5, 127, 128, 129, 260];
        const WIDTHS: [usize; 7] = [1, 7, 8, 9, 33, 64, 65];
        for &r in &DEPTHS {
            for &m in &WIDTHS {
                for &n in &WIDTHS {
                    let a = fill(r * m, 31);
                    let b = fill(r * n, 32);
                    let start = fill(m * n, 33);
                    let mut want = start.clone();
                    transpose_then_gemm_scalar(r, m, n, &a, &b, &mut want);
                    let mut serial = start.clone();
                    gemm_tn_at(false, r, m, n, &a, &b, &mut serial);
                    let mut parallel = start.clone();
                    gemm_tn_at(true, r, m, n, &a, &b, &mut parallel);
                    let mut dispatched = start;
                    gemm_tn(r, m, n, &a, &b, &mut dispatched);
                    assert_eq!(
                        bits(&serial),
                        bits(&want),
                        "gemm_tn diverged at ({r}, {m}, {n})"
                    );
                    assert_eq!(
                        bits(&parallel),
                        bits(&serial),
                        "parallel gemm_tn at ({r}, {m}, {n})"
                    );
                    assert_eq!(
                        bits(&dispatched),
                        bits(&serial),
                        "gemm_tn at ({r}, {m}, {n})"
                    );
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Feature and class counts of the softmax-regression gradient checks:
    /// features cross the `KU` groups and `KC = 128`, classes cross `LANES`
    /// (the narrow and the wide gemm paths) and its padding.
    const SR_FEATURES: [usize; 8] = [1, 3, 5, 64, 127, 128, 129, 260];
    const SR_CLASSES: [usize; 8] = [1, 2, 7, 8, 10, 16, 17, 41];

    /// The chain's, the dispatched kernel's and the portable kernel's bits
    /// of the gradient of a `rows x features` problem over `classes`.
    fn softmax_regression_bits(
        rows: usize,
        features: usize,
        classes: usize,
        per_row: bool,
        seed: u64,
    ) -> [Vec<u32>; 3] {
        let mut rng = crate::init::rng_from_seed(seed);
        let z = crate::init::randn(rows, features, 0.0, 1.0, &mut rng);
        let w = crate::init::randn(features, classes, 0.0, 0.5, &mut rng);
        let row_labels: Vec<usize> = (0..rows)
            .map(|r| (r * 7 + seed as usize) % classes)
            .collect();
        let labels = if per_row {
            RowLabels::PerRow(&row_labels)
        } else {
            RowLabels::Uniform(seed as usize % classes)
        };
        let chain = z.softmax_regression_grad_via_chain(&w, labels);
        let mut scratch = SoftmaxGradScratch::default();
        let mut dispatched = vec![f32::NAN; features * classes];
        softmax_regression_grad(
            rows,
            features,
            classes,
            z.data(),
            w.data(),
            labels,
            &mut scratch,
            &mut dispatched,
        );
        let mut portable = vec![f32::NAN; features * classes];
        softmax_regression_grad_scalar(
            rows,
            features,
            classes,
            z.data(),
            w.data(),
            labels,
            &mut scratch,
            &mut portable,
        );
        [bits(chain.data()), bits(&dispatched), bits(&portable)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn softmax_regression_grad_matches_the_chain_bit_for_bit(
            rows in 1usize..301,
            f in 0usize..SR_FEATURES.len(),
            c in 0usize..SR_CLASSES.len(),
            per_row in 0usize..2,
            seed in 0u64..1000,
        ) {
            let (features, classes) = (SR_FEATURES[f], SR_CLASSES[c]);
            let [chain, dispatched, portable] =
                softmax_regression_bits(rows, features, classes, per_row == 1, seed);
            proptest::prop_assert!(
                dispatched == chain,
                "kernel diverged from the chain at {}x{}x{}", rows, features, classes
            );
            proptest::prop_assert!(
                portable == chain,
                "portable kernel diverged from the chain at {}x{}x{}", rows, features, classes
            );
        }
    }

    #[test]
    fn softmax_regression_grad_covers_every_shape_of_the_grid() {
        // Every feature and class count at one row count per `rows % KU`,
        // with both label kinds, on one reused scratch.
        for (i, &rows) in [4usize, 9, 14, 3].iter().enumerate() {
            for &features in &SR_FEATURES {
                for &classes in &SR_CLASSES {
                    let per_row = (features + classes + i) % 2 == 0;
                    let [chain, dispatched, portable] =
                        softmax_regression_bits(rows, features, classes, per_row, i as u64);
                    assert_eq!(dispatched, chain, "kernel at {rows}x{features}x{classes}");
                    assert_eq!(portable, chain, "portable at {rows}x{features}x{classes}");
                }
            }
        }
    }

    #[test]
    fn softmax_regression_grad_of_no_rows_is_zero() {
        let w = vec![0.5f32; 3 * 7];
        let mut grad = vec![f32::NAN; 3 * 7];
        let mut scratch = SoftmaxGradScratch::default();
        let labels = RowLabels::PerRow(&[]);
        softmax_regression_grad(0, 3, 7, &[], &w, labels, &mut scratch, &mut grad);
        assert!(grad.iter().all(|&g| g.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn softmax_regression_grad_rejects_a_label_outside_the_classes() {
        let (z, w) = (fill(2 * 3, 1), fill(3 * 4, 2));
        let mut grad = vec![0.0; 3 * 4];
        let mut scratch = SoftmaxGradScratch::default();
        let labels = RowLabels::PerRow(&[0, 4]);
        softmax_regression_grad(2, 3, 4, &z, &w, labels, &mut scratch, &mut grad);
    }

    #[test]
    fn dispatched_axpy_is_bit_identical_to_scalar() {
        for &n in &[0usize, 1, 7, 8, 9, 64, 67, 513] {
            let b = fill(n, 21);
            let mut dispatched = fill(n, 22);
            let mut scalar = dispatched.clone();
            axpy(&mut dispatched, 0.73, &b);
            axpy_scalar(&mut scalar, 0.73, &b);
            assert_eq!(dispatched, scalar, "simd axpy diverged at n = {}", n);
        }
    }

    #[test]
    fn transpose_round_trips() {
        for &(r, c) in &[(0, 5), (1, 1), (7, 33), (64, 64), (65, 31)] {
            let src = fill(r * c, 5);
            let mut t = vec![0.0; r * c];
            let mut back = vec![0.0; r * c];
            transpose_into(r, c, &src, &mut t);
            transpose_into(c, r, &t, &mut back);
            assert_eq!(src, back);
        }
    }

    #[test]
    fn elementwise_helpers_match_serial_semantics() {
        let n = PAR_ELEM_WORK + 37; // force the parallel path on multi-core
        let a = fill(n, 6);
        let b = fill(n, 7);
        let mut out = vec![0.0; n];
        binary_map_into(&a, &b, &mut out, |x, y| x * y + 1.0);
        for i in (0..n).step_by(997) {
            assert_eq!(out[i], a[i] * b[i] + 1.0);
        }
        let mut inplace = a.clone();
        binary_map_inplace(&mut inplace, &b, |x, y| x - y);
        for i in (0..n).step_by(997) {
            assert_eq!(inplace[i], a[i] - b[i]);
        }
        let mut mapped = vec![0.0; n];
        unary_map_into(&a, &mut mapped, |x| x.max(0.0));
        let mut mapped_inplace = a.clone();
        unary_map_inplace(&mut mapped_inplace, |x| x.max(0.0));
        assert_eq!(mapped, mapped_inplace);
    }

    #[test]
    fn row_helpers_cover_every_row_once() {
        let (rows, cols) = (513, 129); // > PAR_ELEM_WORK elements
        let mut data = vec![0.0f32; rows * cols];
        for_each_row(&mut data, cols, |r, row| {
            for v in row.iter_mut() {
                *v += (r + 1) as f32;
            }
        });
        for r in 0..rows {
            assert_eq!(data[r * cols], (r + 1) as f32);
        }
        let mut sums = vec![0.0f32; rows];
        map_rows_into(&data, cols, &mut sums, |_, row| row.iter().sum());
        for (r, &s) in sums.iter().enumerate() {
            assert_eq!(s, (r + 1) as f32 * cols as f32);
        }
    }
}
