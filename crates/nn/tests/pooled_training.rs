//! Bit-identity of the pooled training engine.
//!
//! `train_node_classifier` reuses one pooled tape across epochs, records the
//! features as a shared constant leaf, reads validation predictions off the
//! training pass's logits (deferred one epoch, see `trainer.rs`), and keeps
//! best-validation parameters in preallocated buffers.  These tests pin the
//! engine against a reference implementation of the historical loop — a
//! fresh tape every epoch, `features.clone()` leaves, a second full forward
//! pass (`predict`) on every eval epoch, and clone-based best-parameter
//! snapshots — and require **bit-identical** losses, early-stopping
//! behaviour, final parameters and predictions.

use proptest::prelude::*;

use bgc_nn::{
    accuracy, train_node_classifier, Adam, AdjacencyRef, GnnArchitecture, GnnModel, Optimizer,
    TrainConfig, TrainReport,
};
use bgc_tensor::init::{randn, rng_from_seed};
use bgc_tensor::{CsrMatrix, Matrix, Tape};

/// The historical (pre-pooling) training loop, kept verbatim as the
/// reference: fresh tape per epoch, owned feature leaf, eager second-forward
/// validation, clone-based best parameters.
#[allow(clippy::too_many_arguments)]
fn reference_train(
    model: &mut dyn GnnModel,
    adj: &AdjacencyRef,
    features: &Matrix,
    labels: &[usize],
    train_idx: &[usize],
    val_idx: &[usize],
    config: &TrainConfig,
) -> TrainReport {
    let train_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let val_labels: Vec<usize> = val_idx.iter().map(|&i| labels[i]).collect();
    let param_shapes: Vec<(usize, usize)> = model.parameters().iter().map(|p| p.shape()).collect();
    let mut optimizer = Adam::new(config.lr, config.weight_decay);
    let mut losses = Vec::with_capacity(config.epochs);
    let mut best_val = 0.0f32;
    let mut best_params: Option<Vec<Matrix>> = None;
    let mut evals_since_improvement = 0usize;
    let mut epochs_run = 0usize;

    for epoch in 0..config.epochs {
        epochs_run = epoch + 1;
        let mut tape = Tape::new();
        let x = tape.leaf(features.clone());
        let pass = model.forward(&mut tape, adj, x);
        let train_logits = tape.row_select(pass.logits, train_idx);
        let loss = tape.softmax_cross_entropy(train_logits, &train_labels);
        losses.push(tape.scalar(loss));
        let grads = tape.backward(loss);
        let grad_mats: Vec<Matrix> = pass
            .param_vars
            .iter()
            .zip(param_shapes.iter())
            .map(|(&v, &(r, c))| grads.get_or_zeros(v, r, c))
            .collect();
        let grad_refs: Vec<&Matrix> = grad_mats.iter().collect();
        let mut params = model.parameters_mut();
        optimizer.step(&mut params, &grad_refs);

        let is_eval_epoch = !val_idx.is_empty()
            && (epoch % config.eval_every == config.eval_every - 1 || epoch + 1 == config.epochs);
        if is_eval_epoch {
            let preds = model.predict(adj, features);
            let val_preds: Vec<usize> = val_idx.iter().map(|&i| preds[i]).collect();
            let val_acc = accuracy(&val_preds, &val_labels);
            if val_acc > best_val {
                best_val = val_acc;
                best_params = Some(model.parameters().iter().map(|p| (*p).clone()).collect());
                evals_since_improvement = 0;
            } else {
                evals_since_improvement += 1;
                if let Some(patience) = config.patience {
                    if evals_since_improvement >= patience {
                        break;
                    }
                }
            }
        }
    }

    if let Some(best) = best_params {
        for (param, saved) in model.parameters_mut().into_iter().zip(best) {
            *param = saved;
        }
    }

    TrainReport {
        train_losses: losses,
        best_val_accuracy: best_val,
        epochs_run,
    }
}

/// A small deterministic graph with awkward dimensions: a ring plus chords,
/// split into train/val/test.
fn toy_setup(
    nodes: usize,
    feat_dim: usize,
    classes: usize,
    seed: u64,
) -> (AdjacencyRef, Matrix, Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut rng = rng_from_seed(seed);
    let mut edges = Vec::new();
    for i in 0..nodes {
        edges.push((i, (i + 1) % nodes));
        if i % 3 == 0 {
            edges.push((i, (i + nodes / 2) % nodes));
        }
    }
    let adj = AdjacencyRef::sparse(
        CsrMatrix::from_edges(nodes, &edges)
            .symmetrize()
            .gcn_normalize(),
    );
    let features = randn(nodes, feat_dim, 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..nodes).map(|i| i % classes).collect();
    // Deterministic split: 50% train, 25% val (the remainder is unused).
    let train: Vec<usize> = (0..nodes / 2).collect();
    let val: Vec<usize> = (nodes / 2..nodes / 2 + nodes / 4).collect();
    (adj, features, labels, train, val)
}

#[allow(clippy::too_many_arguments)]
fn assert_bit_identical_training(
    arch: GnnArchitecture,
    nodes: usize,
    feat_dim: usize,
    hidden: usize,
    layers: usize,
    classes: usize,
    seed: u64,
    config: &TrainConfig,
) {
    let (adj, features, labels, train, val) = toy_setup(nodes, feat_dim, classes, seed);

    let mut rng_a = rng_from_seed(seed ^ 0xabc);
    let mut rng_b = rng_from_seed(seed ^ 0xabc);
    let mut pooled_model = arch.build(feat_dim, hidden, classes, layers, &mut rng_a);
    let mut reference_model = arch.build(feat_dim, hidden, classes, layers, &mut rng_b);

    let pooled = train_node_classifier(
        pooled_model.as_mut(),
        &adj,
        &features,
        &labels,
        &train,
        &val,
        config,
    );
    let reference = reference_train(
        reference_model.as_mut(),
        &adj,
        &features,
        &labels,
        &train,
        &val,
        config,
    );

    assert_eq!(
        pooled.epochs_run,
        reference.epochs_run,
        "{}: early stopping diverged",
        arch.name()
    );
    assert_eq!(
        pooled.best_val_accuracy.to_bits(),
        reference.best_val_accuracy.to_bits(),
        "{}: best validation accuracy diverged",
        arch.name()
    );
    let pooled_bits: Vec<u32> = pooled.train_losses.iter().map(|l| l.to_bits()).collect();
    let reference_bits: Vec<u32> = reference.train_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        pooled_bits,
        reference_bits,
        "{}: loss trace diverged",
        arch.name()
    );
    for (i, (p, r)) in pooled_model
        .parameters()
        .iter()
        .zip(reference_model.parameters())
        .enumerate()
    {
        assert_eq!(
            p.data(),
            r.data(),
            "{}: restored parameter {} diverged",
            arch.name(),
            i
        );
    }
    assert_eq!(
        pooled_model.predict(&adj, &features),
        reference_model.predict(&adj, &features),
        "{}: predictions diverged",
        arch.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pooled-tape training is bit-identical to fresh-tape training for the
    /// three architectures the paper trains most, across awkward shapes
    /// (narrow sub-vector-width class counts, single-layer models, odd
    /// hidden/feature dimensions) and early-stopping configurations.
    #[test]
    fn pooled_training_is_bit_identical_to_fresh_tape_training(
        arch_idx in 0usize..3,
        dims_idx in 0usize..4,
        layers_idx in 0usize..3,
        patience_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let arch = [GnnArchitecture::Gcn, GnnArchitecture::Sgc, GnnArchitecture::Mlp][arch_idx];
        let layers = layers_idx + 1;
        let patience = [None, Some(1), Some(2)][patience_idx];
        // (nodes, feat_dim, hidden, classes) — deliberately awkward: class
        // counts below the kernel's vector width, hidden dims straddling it.
        let (nodes, feat_dim, hidden, classes) =
            [(24, 5, 3, 2), (33, 17, 7, 3), (40, 8, 9, 5), (21, 33, 16, 7)][dims_idx];
        let config = TrainConfig {
            epochs: 11,
            lr: 0.05,
            weight_decay: 5e-4,
            eval_every: 3,
            patience,
        };
        assert_bit_identical_training(arch, nodes, feat_dim, hidden, layers, classes, seed, &config);
    }
}

/// The deferred-eval path where the final epoch is itself an eval epoch
/// (`epochs % eval_every == 0`) runs one extra forward after the loop; this
/// exercises that branch deterministically.
#[test]
fn final_epoch_eval_is_bit_identical() {
    let config = TrainConfig {
        epochs: 6,
        lr: 0.05,
        weight_decay: 5e-4,
        eval_every: 3,
        patience: None,
    };
    assert_bit_identical_training(GnnArchitecture::Gcn, 24, 6, 8, 2, 3, 77, &config);
}

/// Early stopping must fire on the same epoch in both engines.
#[test]
fn early_stopping_epoch_is_bit_identical() {
    let config = TrainConfig {
        epochs: 40,
        lr: 0.05,
        weight_decay: 5e-4,
        eval_every: 2,
        patience: Some(1),
    };
    assert_bit_identical_training(GnnArchitecture::Mlp, 28, 9, 6, 2, 4, 13, &config);
}
