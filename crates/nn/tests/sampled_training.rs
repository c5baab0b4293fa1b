//! Property tests of the sampled data plane:
//!
//! * a `Sampled` plan with unbounded fanouts and one batch is **bit
//!   identical** to full-batch training on GCN and GraphSAGE (losses,
//!   validation trace, early stopping, restored parameters, predictions);
//! * under real multi-batch sampling with unbounded fanouts, the block
//!   forward pass reproduces the full-batch logits bit for bit on the batch
//!   rows;
//! * models that read their input only through a first propagation step
//!   (GCN, SGC) train bit-identically whether the producer hands them the
//!   first block's output rows or raw input rows;
//! * the sampler (and sampled training on top of it) is deterministic across
//!   runs and across thread counts — the thread-count axis is checked by
//!   re-running the digest computation in a child process pinned to one
//!   pool thread (`BGC_NUM_THREADS=1`).

use std::sync::Arc;

use bgc_graph::{DatasetKind, Graph, NeighborSampler};
use bgc_nn::{
    train_node_classifier, train_with_plan, AdjacencyRef, ForwardPass, GnnArchitecture, GnnModel,
    SampledPlan, TrainConfig, TrainingPlan,
};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::{Matrix, Tape, Var};

/// A small graph whose training split is ascending-sorted: sampled batches
/// are always sorted, so a sorted split makes the single-batch plan's node
/// order coincide with the full-batch loop's.
fn sorted_split_graph(kind: DatasetKind, seed: u64) -> Graph {
    let mut g = kind.load_small(seed);
    g.split.train.sort_unstable();
    g
}

fn test_config() -> TrainConfig {
    TrainConfig {
        epochs: 30,
        lr: 0.05,
        weight_decay: 5e-4,
        eval_every: 3,
        patience: Some(3),
    }
}

#[test]
fn unbounded_single_batch_plan_is_bit_identical_to_full_batch() {
    for arch in [GnnArchitecture::Gcn, GnnArchitecture::Sage] {
        let g = sorted_split_graph(DatasetKind::Cora, 11);
        let config = test_config();
        let build = || {
            let mut rng = rng_from_seed(31);
            arch.build(g.num_features(), 16, g.num_classes, 2, &mut rng)
        };

        let mut full_model = build();
        let adj = AdjacencyRef::from_graph(&g);
        let full = train_node_classifier(
            full_model.as_mut(),
            &adj,
            &g.features,
            &g.labels,
            &g.split.train,
            &g.split.val,
            &config,
        );

        let mut sampled_model = build();
        let plan = TrainingPlan::Sampled(SampledPlan {
            fanouts: vec![0, 0],
            batch_size: usize::MAX,
        });
        let sampled = train_with_plan(sampled_model.as_mut(), &g, &config, &plan, 999);

        assert_eq!(full.epochs_run, sampled.epochs_run, "{}", arch.name());
        assert_eq!(
            full.best_val_accuracy.to_bits(),
            sampled.best_val_accuracy.to_bits(),
            "{}",
            arch.name()
        );
        assert_eq!(full.train_losses.len(), sampled.train_losses.len());
        for (e, (a, b)) in full
            .train_losses
            .iter()
            .zip(sampled.train_losses.iter())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} loss diverges at epoch {}: {} vs {}",
                arch.name(),
                e,
                a,
                b
            );
        }
        for (i, (p, q)) in full_model
            .parameters()
            .iter()
            .zip(sampled_model.parameters().iter())
            .enumerate()
        {
            assert!(
                p.approx_eq(q, 0.0),
                "{} parameter {} differs after training",
                arch.name(),
                i
            );
        }
        assert_eq!(
            full_model.predict(&adj, &g.features),
            sampled_model.predict(&adj, &g.features),
            "{}",
            arch.name()
        );
    }
}

#[test]
fn unbounded_multi_batch_forward_matches_full_batch_rows_bitwise() {
    // Every architecture with exactly one propagation step per layer
    // (2 layers here ⇒ 2 blocks): GCN, SAGE, SGC (k = 2), Cheby, and
    // APPNP (k = max(num_layers, 2) power iterations).
    for arch in [
        GnnArchitecture::Gcn,
        GnnArchitecture::Sage,
        GnnArchitecture::Sgc,
        GnnArchitecture::Cheby,
        GnnArchitecture::Appnp,
    ] {
        let g = sorted_split_graph(DatasetKind::Citeseer, 7);
        let mut rng = rng_from_seed(5);
        let model = arch.build(g.num_features(), 8, g.num_classes, 2, &mut rng);
        let full_adj = AdjacencyRef::from_graph(&g);
        let full_logits = model.logits(&full_adj, &g.features);

        let sampler = NeighborSampler::new(vec![0, 0], 17);
        for batch in g.split.train.chunks(g.split.train.len() / 3 + 1) {
            let mut batch = batch.to_vec();
            batch.sort_unstable();
            let sampled = Arc::new(sampler.sample(&g.normalized, &batch, 0));
            let inputs = sampled.input_nodes().to_vec();
            let adj = AdjacencyRef::blocks(sampled);
            let mut tape = bgc_tensor::Tape::new();
            let x = tape.leaf(g.features.select_rows(&inputs));
            let pass = model.forward(&mut tape, &adj, x);
            let block_logits = tape.value_ref(pass.logits);
            assert_eq!(block_logits.rows(), batch.len());
            for (r, &node) in batch.iter().enumerate() {
                for c in 0..g.num_classes {
                    assert_eq!(
                        block_logits.get(r, c).to_bits(),
                        full_logits.get(node, c).to_bits(),
                        "{}: logits for node {} class {} differ",
                        arch.name(),
                        node,
                        c
                    );
                }
            }
        }
    }
}

#[test]
fn mlp_under_a_sampled_plan_maps_target_rows_correctly() {
    // The MLP ignores the adjacency: its block output stays input-sized and
    // the trainer must map the target rows back out.  Training still has to
    // learn the (feature-separable) classes.
    let g = sorted_split_graph(DatasetKind::Cora, 13);
    let mut rng = rng_from_seed(2);
    let mut model = GnnArchitecture::Mlp.build(g.num_features(), 16, g.num_classes, 2, &mut rng);
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![4, 4],
        batch_size: 32,
    });
    let report = train_with_plan(model.as_mut(), &g, &TrainConfig::quick(), &plan, 5);
    assert!(
        report.final_loss() < report.train_losses[0],
        "sampled MLP loss must decrease ({} -> {})",
        report.train_losses[0],
        report.final_loss()
    );
}

#[test]
fn sampled_training_with_real_fanouts_learns() {
    let g = sorted_split_graph(DatasetKind::Cora, 19);
    let mut rng = rng_from_seed(4);
    let mut model = GnnArchitecture::Gcn.build(g.num_features(), 32, g.num_classes, 2, &mut rng);
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![8, 8],
        batch_size: 48,
    });
    let report = train_with_plan(model.as_mut(), &g, &TrainConfig::quick(), &plan, 21);
    assert!(report.final_loss() < report.train_losses[0]);
    let adj = AdjacencyRef::from_graph(&g);
    let preds = model.predict(&adj, &g.features);
    let correct = g
        .split
        .test
        .iter()
        .filter(|&&i| preds[i] == g.labels[i])
        .count();
    let acc = correct as f32 / g.split.test.len() as f32;
    assert!(acc > 0.5, "sampled-trained GCN accuracy {} too low", acc);
}

#[test]
#[should_panic(expected = "depth mismatch")]
fn too_many_fanouts_fail_with_a_clear_error() {
    // A 2-layer GCN consumes 2 of 3 blocks: its output rows match neither
    // the batch nor the input nodes, which must be a hard error (selecting
    // rows from a mid-chain matrix would silently train on wrong nodes).
    let g = sorted_split_graph(DatasetKind::Cora, 3);
    let mut rng = rng_from_seed(1);
    let mut model = GnnArchitecture::Gcn.build(g.num_features(), 8, g.num_classes, 2, &mut rng);
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![4, 4, 4],
        batch_size: 16,
    });
    let _ = train_with_plan(model.as_mut(), &g, &TrainConfig::quick(), &plan, 1);
}

#[test]
#[should_panic(expected = "block adjacency exhausted")]
fn too_few_fanouts_fail_with_a_clear_error() {
    let g = sorted_split_graph(DatasetKind::Cora, 3);
    let mut rng = rng_from_seed(1);
    let mut model = GnnArchitecture::Gcn.build(g.num_features(), 8, g.num_classes, 2, &mut rng);
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![4],
        batch_size: 16,
    });
    let _ = train_with_plan(model.as_mut(), &g, &TrainConfig::quick(), &plan, 1);
}

/// Delegates everything to the wrapped model but keeps the trait's default
/// `propagates_input_first`, so the sampled trainer feeds it raw input rows.
struct RawInput(Box<dyn GnnModel>);

impl GnnModel for RawInput {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass {
        self.0.forward(tape, adj, x)
    }

    fn parameters(&self) -> Vec<&Matrix> {
        self.0.parameters()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.0.parameters_mut()
    }

    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }
}

#[test]
fn first_step_input_trains_bit_identically_to_raw_input() {
    // Every node outside validation and test trains: 122 nodes, so batches
    // of 40 leave a partial last batch.  Fanout 3 caps the first-block rows
    // of nodes with more than two neighbours and keeps the others verbatim.
    let mut g = DatasetKind::Cora.load_small(29);
    let held_out: std::collections::BTreeSet<usize> =
        g.split.val.iter().chain(&g.split.test).copied().collect();
    g.split.train = (0..g.num_nodes())
        .filter(|v| !held_out.contains(v))
        .collect();
    assert_ne!(
        g.split.train.len() % 40,
        0,
        "the last batch must be partial"
    );
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![3, 3],
        batch_size: 40,
    });
    let sampler = NeighborSampler::new(vec![3, 3], 1);
    let first_block = &sampler
        .sample(&g.normalized, &g.split.train[..40], 0)
        .blocks[0];
    let verbatim = first_block
        .dst_nodes
        .iter()
        .filter(|&&v| sampler.keeps_row_verbatim(0, g.normalized.row_nnz(v)))
        .count();
    assert!(
        verbatim > 0 && verbatim < first_block.num_dst(),
        "{verbatim} of {} first-block rows verbatim",
        first_block.num_dst()
    );

    let adj = AdjacencyRef::from_graph(&g);
    for arch in [GnnArchitecture::Gcn, GnnArchitecture::Sgc] {
        let build = || {
            let mut rng = rng_from_seed(43);
            arch.build(g.num_features(), 16, g.num_classes, 2, &mut rng)
        };
        let config = test_config();
        let mut first_step = build();
        assert!(first_step.propagates_input_first(), "{}", arch.name());
        let a = train_with_plan(first_step.as_mut(), &g, &config, &plan, 55);
        let mut raw = RawInput(build());
        let b = train_with_plan(&mut raw, &g, &config, &plan, 55);

        let tag = arch.name();
        assert_eq!(a.epochs_run, b.epochs_run, "{}", tag);
        let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.train_losses),
            bits(&b.train_losses),
            "{} losses",
            tag
        );
        assert_eq!(
            a.best_val_accuracy.to_bits(),
            b.best_val_accuracy.to_bits(),
            "{}",
            tag
        );
        for (i, (p, q)) in first_step
            .parameters()
            .iter()
            .zip(raw.parameters().iter())
            .enumerate()
        {
            assert_eq!(bits(p.data()), bits(q.data()), "{} parameter {}", tag, i);
        }
        assert_eq!(
            first_step.predict(&adj, &g.features),
            raw.predict(&adj, &g.features),
            "{}",
            tag
        );
    }
}

/// FNV-1a digest of every sampled block plus the trained parameters —
/// anything the thread count could conceivably perturb.
fn sampled_digest() -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let g = sorted_split_graph(DatasetKind::Flickr, 3);
    let sampler = NeighborSampler::new(vec![5, 5], 77);
    let mut batch: Vec<usize> = g.split.train.iter().copied().take(40).collect();
    batch.sort_unstable();
    let sampled = sampler.sample(&g.normalized, &batch, 12);
    for block in &sampled.blocks {
        for &n in &block.src_nodes {
            put(n as u64);
        }
        for (r, c, v) in block.adj.triplets() {
            put(r as u64);
            put(c as u64);
            put(v.to_bits() as u64);
        }
    }
    let plan = TrainingPlan::Sampled(SampledPlan {
        fanouts: vec![5, 5],
        batch_size: 64,
    });
    // GraphSAGE trains on raw input rows, GCN on first-step rows.
    for arch in [GnnArchitecture::Sage, GnnArchitecture::Gcn] {
        let mut rng = rng_from_seed(6);
        let mut model = arch.build(g.num_features(), 8, g.num_classes, 2, &mut rng);
        let report = train_with_plan(
            model.as_mut(),
            &g,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::quick()
            },
            &plan,
            77,
        );
        for loss in &report.train_losses {
            put(loss.to_bits() as u64);
        }
        for p in model.parameters() {
            for r in 0..p.rows() {
                for &v in p.row(r) {
                    put(v.to_bits() as u64);
                }
            }
        }
    }
    hash
}

#[test]
fn sampler_and_sampled_training_are_deterministic_across_thread_counts() {
    const CHILD_MARKER: &str = "BGC_SAMPLED_DIGEST_CHILD";
    let digest = sampled_digest();
    if std::env::var(CHILD_MARKER).is_ok() {
        // Child mode (single pool thread): print the digest for the parent.
        println!("SAMPLED_DIGEST={:016x}", digest);
        return;
    }
    // Same-process re-run: bit-identical.
    assert_eq!(digest, sampled_digest(), "in-process determinism");

    // Thread-count invariance: re-run this very test in a child process with
    // the kernel pool pinned to one thread and compare digests.
    let exe = std::env::current_exe().expect("test executable path");
    let output = std::process::Command::new(exe)
        .args([
            "sampler_and_sampled_training_are_deterministic_across_thread_counts",
            "--exact",
            "--nocapture",
        ])
        .env(CHILD_MARKER, "1")
        .env("BGC_NUM_THREADS", "1")
        .output()
        .expect("spawn single-thread child");
    assert!(
        output.status.success(),
        "single-thread child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The libtest harness prints its `test <name> ...` prefix on the same
    // line, so match the marker anywhere in the output.
    let child_digest = stdout
        .split("SAMPLED_DIGEST=")
        .nth(1)
        .map(|rest| &rest[..16])
        .unwrap_or_else(|| {
            panic!(
                "child printed no digest.\nstdout:\n{}\nstderr:\n{}",
                stdout,
                String::from_utf8_lossy(&output.stderr)
            )
        });
    assert_eq!(
        child_digest,
        format!("{:016x}", digest),
        "sampled results must be bit-identical on a single-thread pool"
    );
}
