//! Timed calls into single layers: process start, the tensor kernels at the
//! shapes of a first GCN layer, one sampler epoch and the poisoned-node
//! selector.

use std::hint::black_box;
use std::time::Instant;

use bgc_condense::working_graph;
use bgc_core::{select_poisoned_nodes, BgcConfig};
use bgc_eval::ExperimentScale;
use bgc_graph::{mix_seed, DatasetKind, Graph, NeighborSampler};
use bgc_tensor::{CsrMatrix, Matrix};

use crate::child;
use crate::report::{median, Report};
use crate::Ctx;

/// The fanouts and batch size of the large tier's sampled plan
/// (`b1024:f10x10`).
const FANOUTS: [usize; 2] = [10, 10];
const BATCH: usize = 1024;

/// Each kernel probe repeats its call until this much time has passed.
const KERNEL_MIN_S: f64 = 0.25;

/// Median wall clock of a no-op `bgc list scales` child.
pub fn process_start_s(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let args = ["list", "scales"].map(String::from);
    let mut walls = Vec::new();
    for _ in 0..9 {
        report.attempted += 1;
        match child::spawn(&ctx.exe, &ctx.work, child::INVOKE, &args) {
            Ok(outcome) => walls.push(outcome.wall_s),
            Err(err) => report.fail("bgc list scales", &err),
        }
    }
    if walls.is_empty() {
        return Err("no `bgc list scales` probe succeeded".into());
    }
    Ok(median(&walls))
}

/// Calls `f` until [`KERNEL_MIN_S`] has passed; returns seconds per call.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed().as_secs_f64() < KERNEL_MIN_S {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

fn dense(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt) % 97) as f32 / 97.0 - 0.5
    })
}

/// Records `tensor.<kernel>_gflops.<shape>` with the FLOPs and the bytes of
/// the call's operands and result, both computed from the shapes.
fn record(report: &mut Report, kernel: &str, shape: &str, flop: f64, bytes: f64, secs: f64) {
    report.metric(
        &format!("tensor.{kernel}_gflops.{shape}"),
        flop / secs / 1e9,
        "GFLOP/s",
    );
    report.metric(&format!("tensor.{kernel}_flop.{shape}"), flop, "flop");
    report.metric(&format!("tensor.{kernel}_bytes.{shape}"), bytes, "B");
}

/// `X · W`: a graph's features times a first-layer weight.
fn gemm_probe(report: &mut Report, shape: &str, features: &Matrix, hidden: usize) {
    let (m, k) = features.shape();
    let weight = dense(k, hidden, 1);
    let secs = per_call_s(|| {
        black_box(black_box(features).matmul(black_box(&weight)));
    });
    let flop = 2.0 * (m * k * hidden) as f64;
    let bytes = 4.0 * (m * k + k * hidden + m * hidden) as f64;
    record(report, "gemm", shape, flop, bytes, secs);
}

/// `Â · H`: a normalized adjacency times a hidden-width dense operand.
fn spmm_probe(report: &mut Report, shape: &str, adj: &CsrMatrix, hidden: usize) {
    let operand = dense(adj.cols(), hidden, 2);
    let secs = per_call_s(|| {
        black_box(black_box(adj).spmm(black_box(&operand)));
    });
    let nnz = adj.nnz() as f64;
    let flop = 2.0 * nnz * hidden as f64;
    // CSR values (f32) and column indices (usize), the row pointer, the
    // dense operand and the result.
    let bytes = nnz * 12.0
        + 8.0 * (adj.rows() + 1) as f64
        + 4.0 * ((adj.cols() + adj.rows()) * hidden) as f64;
    record(report, "spmm", shape, flop, bytes, secs);
}

/// The kernel probes and one sampler epoch.  `quick` is the quick-scale
/// Cora graph; `flickr` the full-scale Flickr graph.
pub fn kernels_and_sampler(report: &mut Report, quick: &Graph, flickr: &Graph, seed: u64) {
    let hidden = ExperimentScale::Quick.victim_spec().hidden_dim;
    gemm_probe(report, "quick", &quick.features, hidden);
    gemm_probe(report, "flickr", &flickr.features, hidden);
    spmm_probe(report, "flickr-adj", &flickr.normalized, hidden);

    let mut train = flickr.split.train.clone();
    train.sort_unstable();
    let sampler = NeighborSampler::new(FANOUTS.to_vec(), seed);
    let block = sampler.sample(&flickr.normalized, &train[..BATCH.min(train.len())], 0);
    if let Some(first) = block.blocks.first() {
        spmm_probe(report, "flickr-block", &first.adj, hidden);
    }

    let started = Instant::now();
    for (index, batch) in train.chunks(BATCH).enumerate() {
        black_box(sampler.sample(&flickr.normalized, batch, mix_seed(&[0, index as u64])));
    }
    report.metric("graph.sample_s", started.elapsed().as_secs_f64(), "s");
}

/// `select_poisoned_nodes` on the working graph of a freshly generated
/// instance of `dataset`, as the attack calls it: the selector memoizes per
/// graph instance, so a graph the attack already saw would time a memo hit.
pub fn select_s(scale: ExperimentScale, dataset: DatasetKind, config: &BgcConfig) -> f64 {
    let graph = working_graph(&scale.load(dataset, config.seed));
    let started = Instant::now();
    black_box(select_poisoned_nodes(&graph, config));
    started.elapsed().as_secs_f64()
}
