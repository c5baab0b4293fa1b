//! Sampled data-plane benchmark: training-node throughput (nodes/sec) of
//! neighbour-sampled minibatch training vs full-batch training on a
//! large-tier-style SBM graph.  Results are written to
//! `BENCH_sampling.json` at the workspace root.
//!
//! Same-run smoke gates (machine-independent; CI runs with `BENCH_QUICK=1`):
//!
//! * the sampler is deterministic — two draws with the same seed/key are
//!   bit-identical;
//! * unbounded blocks are exact — a block forward pass reproduces the
//!   full-batch logits bit for bit on the batch rows;
//! * both engines report finite, positive throughput;
//! * the sampled path (prefetch pipeline + batched gathers on) stays above
//!   its historical **0.15x** full-batch per-node throughput — the
//!   regression floor for the overlapped data plane (both engines measured
//!   in the same run, so machine differences cannot produce false
//!   failures); the aspirational 0.4x target is warn-only, because on this
//!   graph shape the two-hop receptive field of every 1024-target batch
//!   covers most of the graph — a ~25x layer-1 FLOP-volume gap per train
//!   node that no engine work can close while the bit-identity contract
//!   pins the operation order (sampling buys *memory*, not mid-size
//!   throughput; see `crates/nn/README.md`).
//!
//! The benchmarked model is a GCN, so the sampled engine takes the
//! first-step path: the producer emits the first block's output rows
//! (verbatim rows copied from one `Â · X` per run, fanout-capped rows
//! summed per batch) instead of raw input rows, and the trainer skips the
//! first block's SpMM.  This is exact — the rows equal the block SpMM over
//! the raw gather bit for bit.  It gains little here: with average degree
//! 12 and fanout 10 the cap bites on 83% of the first-block rows, and each
//! capped row still costs a per-batch sum, now on the producer thread.
//! Graphs whose degrees mostly sit under the cap gain the most, like the
//! large tier's Flickr training graph, where 94% of the rows are copies.
//!
//! A `thread_scaling` column (threads 1/2/4/physical) is measured by
//! re-executing this binary per thread count (`bgc_bench::scaling`), since
//! the rayon shim pins its pool size once per process.

use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use bgc_graph::{
    datasets::synthetic::{generate_sbm_graph_chunked, SbmSpec},
    Graph, NeighborSampler, TaskSetting,
};
use bgc_nn::{
    train_with_plan, AdjacencyRef, GnnArchitecture, SampledPlan, TrainConfig, TrainingPlan,
};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::Tape;

/// A large-tier-style benchmark graph (chunked generation path).
fn bench_graph(quick: bool) -> Graph {
    let num_nodes = if quick { 12_000 } else { 60_000 };
    let spec = SbmSpec {
        name: "bench-sampling",
        num_nodes,
        num_classes: 7,
        num_features: 64,
        avg_degree: 12.0,
        homophily: 0.6,
        feature_noise: 1.0,
        train_size: num_nodes / 2,
        val_size: num_nodes / 10,
        test_size: num_nodes / 5,
        setting: TaskSetting::Inductive,
        scale_note: None,
    };
    let mut g = generate_sbm_graph_chunked(&spec, 7);
    g.split.train.sort_unstable();
    // No validation split: the trainer always evaluates on the final epoch
    // when one exists, and a full-graph forward pass inside the timed
    // region would distort both engines' throughput numbers.
    g.split.val.clear();
    g
}

struct EngineRun {
    nodes_per_second: f64,
    epochs: usize,
}

fn run_plan(graph: &Graph, plan: &TrainingPlan, epochs: usize) -> EngineRun {
    let mut rng = rng_from_seed(0);
    let mut model =
        GnnArchitecture::Gcn.build(graph.num_features(), 32, graph.num_classes, 2, &mut rng);
    let config = TrainConfig {
        epochs,
        patience: None,
        ..TrainConfig::quick()
    };
    let start = Instant::now();
    let report = train_with_plan(model.as_mut(), graph, &config, plan, 11);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.epochs_run, epochs);
    EngineRun {
        nodes_per_second: (graph.split.train.len() * epochs) as f64 / elapsed,
        epochs,
    }
}

/// Gate: sampler determinism and unbounded-block exactness.
fn smoke_gates(graph: &Graph) {
    // Determinism across draws.
    let sampler = NeighborSampler::new(vec![10, 10], 3);
    let targets: Vec<usize> = graph.split.train.iter().copied().take(256).collect();
    let a = sampler.sample(&graph.normalized, &targets, 5);
    let b = sampler.sample(&graph.normalized, &targets, 5);
    for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
        assert_eq!(x.src_nodes, y.src_nodes, "sampler must be deterministic");
        assert_eq!(*x.adj, *y.adj, "sampler must be deterministic");
    }

    // Unbounded blocks reproduce the full forward bitwise.
    let mut rng = rng_from_seed(1);
    let model =
        GnnArchitecture::Gcn.build(graph.num_features(), 16, graph.num_classes, 2, &mut rng);
    let full_adj = AdjacencyRef::from_graph(graph);
    let full_logits = model.logits(&full_adj, &graph.features);
    let exact = NeighborSampler::new(vec![0, 0], 3);
    let batch: Vec<usize> = graph.split.train.iter().copied().take(64).collect();
    let sampled = Arc::new(exact.sample(&graph.normalized, &batch, 0));
    let inputs = sampled.input_nodes().to_vec();
    let adj = AdjacencyRef::blocks(sampled);
    let mut tape = Tape::new();
    let x = tape.leaf(graph.features.select_rows(&inputs));
    let pass = model.forward(&mut tape, &adj, x);
    let block_logits = tape.value_ref(pass.logits);
    for (r, &node) in batch.iter().enumerate() {
        for c in 0..graph.num_classes {
            assert_eq!(
                block_logits.get(r, c).to_bits(),
                full_logits.get(node, c).to_bits(),
                "unbounded block forward must be bit-identical to full batch"
            );
        }
    }
}

/// Child-mode env var / stdout marker of the thread-scaling re-execution.
const CHILD_FLAG: &str = "BENCH_SAMPLING_CHILD";
const CHILD_MARKER: &str = "SAMPLING_SCALING_RESULT";

fn bench_sampling(_c: &mut Criterion) {
    let quick = std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let graph = bench_graph(quick);
    let epochs = if quick { 1 } else { 2 };
    let sampled_plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![10, 10],
        batch_size: 1024,
    });

    if bgc_bench::scaling::is_scaling_child(CHILD_FLAG) {
        // Scaling child: measure both engines at this process's pinned
        // thread count, print the parseable result line, and exit before
        // the rest of the harness runs.
        let sampled = run_plan(&graph, &sampled_plan, epochs);
        let full = run_plan(&graph, &TrainingPlan::FullBatch, epochs);
        let stats = bgc_nn::prefetch_stats();
        println!(
            "{}",
            bgc_bench::scaling::child_result_line(
                CHILD_MARKER,
                &[
                    ("sampled_nodes_per_second", sampled.nodes_per_second),
                    ("full_nodes_per_second", full.nodes_per_second),
                    ("trainer_stall_ms", stats.trainer_stall_ms as f64),
                    ("sampler_idle_ms", stats.sampler_idle_ms as f64),
                ],
            )
        );
        std::process::exit(0);
    }

    println!(
        "sampling/graph: {} nodes, {} edges, {} train",
        graph.num_nodes(),
        graph.num_edges(),
        graph.split.train.len()
    );

    smoke_gates(&graph);
    println!("sampling/gates: determinism + unbounded-block exactness OK");

    let sampled = run_plan(&graph, &sampled_plan, epochs);
    let full = run_plan(&graph, &TrainingPlan::FullBatch, epochs);
    println!(
        "sampling/sampled    {:.0} train-nodes/s ({} epochs, fanouts 10x10, batch 1024)",
        sampled.nodes_per_second, sampled.epochs
    );
    println!(
        "sampling/full-batch {:.0} train-nodes/s ({} epochs)",
        full.nodes_per_second, full.epochs
    );

    // Hard gates: both engines must actually make progress.
    assert!(
        sampled.nodes_per_second.is_finite() && sampled.nodes_per_second > 0.0,
        "sampled engine reported no throughput"
    );
    assert!(
        full.nodes_per_second.is_finite() && full.nodes_per_second > 0.0,
        "full-batch engine reported no throughput"
    );
    let ratio = sampled.nodes_per_second / full.nodes_per_second;
    println!("sampling/ratio      {:.3}x sampled/full", ratio);
    // Regression floor for the overlapped data plane: the prefetch pipeline,
    // batched gathers and SIMD kernels lifted this ratio from its historical
    // 0.151x; falling back below that baseline is a real regression.  Same
    // run, so the gate is machine-independent.
    assert!(
        ratio >= 0.15,
        "sampled path fell to {:.3}x full-batch throughput (regression floor: >= 0.15x)",
        ratio
    );
    // 0.4x is the aspirational target, warn-only: with two-hop fanouts
    // 10x10 on this avg-degree-12 graph each 1024-target batch's receptive
    // field covers most of the graph, so the sampled path performs ~25x the
    // layer-1 projection FLOPs per train node that full batch amortizes
    // across the whole split.  That volume gap is inherent to the workload
    // shape (and to the bit-identity contract, which pins the operation
    // order); overlap and kernels cannot close it on any core count.
    if ratio < 0.4 {
        eprintln!(
            "sampling/ratio WARNING: sampled path is only {:.3}x full batch \
             (target: 0.4x; FLOP-volume bound on this graph shape, see module doc)",
            ratio
        );
    }

    let scaling = bgc_bench::scaling::run_scaling_children(CHILD_FLAG, CHILD_MARKER)
        .expect("thread-scaling children must succeed");
    for (threads, metrics) in &scaling {
        println!(
            "sampling/scaling    {} threads: sampled {:.0} nodes/s, full {:.0} nodes/s",
            threads,
            metrics
                .get("sampled_nodes_per_second")
                .copied()
                .unwrap_or(0.0),
            metrics.get("full_nodes_per_second").copied().unwrap_or(0.0),
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"sampled_vs_full_batch_gcn\",");
    let _ = writeln!(
        json,
        "  \"graph\": {{\n    \"nodes\": {},\n    \"edges\": {},\n    \"train_nodes\": {}\n  }},",
        graph.num_nodes(),
        graph.num_edges(),
        graph.split.train.len()
    );
    let _ = writeln!(
        json,
        "  \"sampled\": {{\n    \"nodes_per_second\": {:.1},\n    \"fanouts\": [10, 10],\n    \"batch_size\": 1024,\n    \"prefetch_depth\": {}\n  }},",
        sampled.nodes_per_second,
        bgc_nn::PREFETCH_DEPTH
    );
    let _ = writeln!(
        json,
        "  \"full_batch\": {{\n    \"nodes_per_second\": {:.1}\n  }},",
        full.nodes_per_second
    );
    let _ = writeln!(json, "  \"sampled_over_full_ratio\": {:.3},", ratio);
    let _ = writeln!(
        json,
        "  \"thread_scaling\": {{\n{}\n  }}",
        bgc_bench::scaling::scaling_json(&scaling, "    ")
    );
    json.push('}');
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json");
    if let Err(err) = fs::write(path, &json) {
        eprintln!("warning: could not write BENCH_sampling.json: {}", err);
    }
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
