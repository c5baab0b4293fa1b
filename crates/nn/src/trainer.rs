//! Training loops for node classification, on both the original graph
//! (Eq. 1 left-hand side, the "clean GNN") and the condensed graph (Eq. 5,
//! the victim GNN trained on `S`).
//!
//! Two strategies share the allocation-free engine, selected by a
//! [`TrainingPlan`] through [`train_with_plan`]:
//!
//! * **Full batch** ([`train_node_classifier`]) — one pooled [`Tape`] is
//!   reset (not rebuilt) every epoch, the feature matrix is recorded once as
//!   a shared constant leaf ([`Tape::const_leaf`]), validation predictions
//!   are read off the epoch's already-computed logits instead of running a
//!   second forward pass, and the best-validation parameters are kept in
//!   preallocated buffers.  The control flow is bit-identical to the
//!   historical fresh-tape/`predict`-based loop (property-tested here).
//! * **Sampled** ([`TrainingPlan::Sampled`]) — per epoch the training nodes
//!   are shuffled into ascending-sorted minibatches, each batch's receptive
//!   field is materialized as a bipartite block chain by the deterministic
//!   [`NeighborSampler`] and only those rows flow through the model.  The
//!   batches come from the prefetch pipeline's producer thread
//!   (`pipeline.rs`), which samples up to [`crate::PREFETCH_DEPTH`] batches
//!   ahead of the trainer.  All randomness derives from the plan seed plus
//!   `(epoch, batch)` keys, so results are bit-identical across thread
//!   counts and runs.  A plan that samples nothing (one batch covering the
//!   training set, every fanout unbounded) collapses onto the full
//!   propagation operator and is bit-identical to [`train_node_classifier`]
//!   (property-tested in `tests/sampled_training.rs`).

use std::sync::Arc;

use bgc_graph::{CondensedGraph, Graph, NeighborSampler};
use bgc_tensor::{Matrix, Tape};

use crate::adjacency::AdjacencyRef;
use crate::metrics::accuracy;
use crate::model::GnnModel;
use crate::optim::{Adam, Optimizer};
use crate::pipeline::{with_prefetcher, BatchInput, BatchSchedule, Prefetcher, PreparedBatch};
use crate::plan::{SampledPlan, TrainingPlan};

/// Hyper-parameters of a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Evaluate on the validation split every this many epochs (when a
    /// validation split is provided).
    pub eval_every: usize,
    /// Stop when the validation accuracy has not improved for this many
    /// evaluations; `None` disables early stopping.
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 0.01,
            weight_decay: 5e-4,
            eval_every: 10,
            patience: Some(10),
        }
    }
}

impl TrainConfig {
    /// A short configuration for unit tests and quick experiments.
    pub fn quick() -> Self {
        Self {
            epochs: 60,
            lr: 0.05,
            weight_decay: 5e-4,
            eval_every: 10,
            patience: None,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Cross-entropy training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Best validation accuracy observed (0 when no validation split).
    pub best_val_accuracy: f32,
    /// Number of epochs actually executed.
    pub epochs_run: usize,
}

impl TrainReport {
    /// The final training loss.
    pub fn final_loss(&self) -> f32 {
        self.train_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Preallocated zero-gradient fallbacks and best-validation parameter
/// buffers matching the model's parameter shapes — the training loops only
/// copy into these, never clone the parameter set.
fn param_buffers(model: &dyn GnnModel) -> (Vec<Matrix>, Vec<Matrix>) {
    let shapes: Vec<(usize, usize)> = model.parameters().iter().map(|p| p.shape()).collect();
    let zero_grads = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
    let best_params = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
    (zero_grads, best_params)
}

/// One optimizer step off pool-backed gradients (borrowed, with zero
/// fallbacks for unreached parameters), recycling the gradient buffers
/// afterwards.  Shared by the full-batch and sampled loops.
fn step_and_absorb(
    tape: &mut Tape,
    model: &mut dyn GnnModel,
    optimizer: &mut Adam,
    param_vars: &[bgc_tensor::Var],
    zero_grads: &[Matrix],
    grads: bgc_tensor::Gradients,
) {
    {
        let grad_refs: Vec<&Matrix> = param_vars
            .iter()
            .zip(zero_grads.iter())
            .map(|(&v, zero)| grads.get_or(v, zero))
            .collect();
        let mut params = model.parameters_mut();
        optimizer.step(&mut params, &grad_refs);
    }
    tape.absorb(grads);
}

/// Copies the model's current parameters into the best-parameter buffers.
fn save_params(best_params: &mut [Matrix], model: &dyn GnnModel) {
    for (saved, param) in best_params.iter_mut().zip(model.parameters()) {
        saved.copy_from(param);
    }
}

/// Restores saved best-validation parameters into the model.
fn restore_params(model: &mut dyn GnnModel, best_params: &[Matrix]) {
    for (param, saved) in model.parameters_mut().into_iter().zip(best_params.iter()) {
        param.copy_from(saved);
    }
}

/// Trains `model` on the given graph data with full-batch Adam.
///
/// `train_idx`/`val_idx` index rows of `features`; labels are the full label
/// vector of the graph.  When `val_idx` is non-empty the best-validation
/// parameters are restored at the end (the standard Planetoid protocol).
pub fn train_node_classifier(
    model: &mut dyn GnnModel,
    adj: &AdjacencyRef,
    features: &Matrix,
    labels: &[usize],
    train_idx: &[usize],
    val_idx: &[usize],
    config: &TrainConfig,
) -> TrainReport {
    assert!(!train_idx.is_empty(), "training split must not be empty");
    assert_eq!(
        features.rows(),
        labels.len(),
        "feature rows must equal label count"
    );
    let train_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let val_labels: Vec<usize> = val_idx.iter().map(|&i| labels[i]).collect();

    // Recorded once as a shared constant leaf; epochs never copy it again.
    let features: Arc<Matrix> = Arc::new(features.clone());
    let (zero_grads, mut best_params) = param_buffers(model);
    let mut has_best = false;
    let mut optimizer = Adam::new(config.lr, config.weight_decay);
    let mut losses = Vec::with_capacity(config.epochs);
    let mut best_val = 0.0f32;
    let mut evals_since_improvement = 0usize;
    let mut epochs_run = 0usize;

    // Validation bookkeeping for an eval epoch `e` runs on the *next*
    // epoch's forward pass (same parameters — the optimizer has not stepped
    // in between), which makes eval epochs free: the training forward pass
    // doubles as the evaluation pass.  Only a run whose final epoch is an
    // eval epoch needs one extra forward, after the loop.  The observable
    // behaviour (accuracies, early stopping, restored parameters, loss
    // trace) is identical to evaluating eagerly with a second forward pass.
    let mut tape = Tape::new();
    let mut pending_eval = false;
    let mut stopped_early = false;
    'epochs: for epoch in 0..config.epochs {
        bgc_runtime::checkpoint();
        bgc_runtime::fault::fire("trainer.epoch");
        tape.reset();
        let x = tape.const_leaf(features.clone());
        let pass = model.forward(&mut tape, adj, x);
        if pending_eval {
            pending_eval = false;
            let logits = tape.value_ref(pass.logits);
            let val_preds: Vec<usize> = val_idx.iter().map(|&i| logits.row_argmax(i)).collect();
            let val_acc = accuracy(&val_preds, &val_labels);
            if val_acc > best_val {
                best_val = val_acc;
                save_params(&mut best_params, model);
                has_best = true;
                evals_since_improvement = 0;
            } else {
                evals_since_improvement += 1;
                if let Some(patience) = config.patience {
                    if evals_since_improvement >= patience {
                        stopped_early = true;
                        break 'epochs;
                    }
                }
            }
        }
        epochs_run = epoch + 1;
        let train_logits = tape.row_select(pass.logits, train_idx);
        let loss = tape.softmax_cross_entropy(train_logits, &train_labels);
        losses.push(tape.scalar(loss));
        let grads = tape.backward(loss);
        step_and_absorb(
            &mut tape,
            model,
            &mut optimizer,
            &pass.param_vars,
            &zero_grads,
            grads,
        );

        let is_eval_epoch = !val_idx.is_empty()
            && (epoch % config.eval_every == config.eval_every - 1 || epoch + 1 == config.epochs);
        if is_eval_epoch {
            pending_eval = true;
        }
    }
    if pending_eval && !stopped_early {
        // The final epoch was an eval epoch: one extra forward pass for its
        // deferred evaluation (early stopping can no longer trigger).
        tape.reset();
        let x = tape.const_leaf(features.clone());
        let pass = model.forward(&mut tape, adj, x);
        let logits = tape.value_ref(pass.logits);
        let val_preds: Vec<usize> = val_idx.iter().map(|&i| logits.row_argmax(i)).collect();
        let val_acc = accuracy(&val_preds, &val_labels);
        if val_acc > best_val {
            best_val = val_acc;
            save_params(&mut best_params, model);
            has_best = true;
        }
    }

    if has_best {
        restore_params(model, &best_params);
    }

    TrainReport {
        train_losses: losses,
        best_val_accuracy: best_val,
        epochs_run,
    }
}

/// Trains `model` on an original graph's training split under the given
/// [`TrainingPlan`], using the graph's own train/validation split.
///
/// * [`TrainingPlan::FullBatch`] delegates to [`train_node_classifier`]
///   (byte-identical to calling it directly).
/// * [`TrainingPlan::Sampled`] runs the neighbour-sampled minibatch loop;
///   `plan_seed` keys every sampling decision (batch composition and
///   neighbour draws), so a `(graph, model, config, plan, plan_seed)` tuple
///   fully determines the result regardless of thread count.
pub fn train_with_plan(
    model: &mut dyn GnnModel,
    graph: &Graph,
    config: &TrainConfig,
    plan: &TrainingPlan,
    plan_seed: u64,
) -> TrainReport {
    match plan {
        TrainingPlan::FullBatch => {
            let adj = AdjacencyRef::from_graph(graph);
            train_node_classifier(
                model,
                &adj,
                &graph.features,
                &graph.labels,
                &graph.split.train,
                &graph.split.val,
                config,
            )
        }
        TrainingPlan::Sampled(sampled) => train_sampled(model, graph, config, sampled, plan_seed),
    }
}

/// Eager validation bookkeeping shared by the sampled loops: full-graph
/// evaluation, best-parameter tracking and patience-based early stopping.
struct ValTracker {
    val_labels: Vec<usize>,
    best_params: Vec<Matrix>,
    has_best: bool,
    best_val: f32,
    evals_since_improvement: usize,
}

impl ValTracker {
    fn new(graph: &Graph, best_params: Vec<Matrix>) -> Self {
        Self {
            val_labels: graph.split.val.iter().map(|&i| graph.labels[i]).collect(),
            best_params,
            has_best: false,
            best_val: 0.0,
            evals_since_improvement: 0,
        }
    }

    /// Runs one eager evaluation; `true` when patience is exhausted.
    fn observe(
        &mut self,
        model: &mut dyn GnnModel,
        tape: &mut Tape,
        full_adj: &AdjacencyRef,
        graph: &Graph,
        patience: Option<usize>,
    ) -> bool {
        let preds = model.predict_on(tape, full_adj, &graph.features);
        let val_preds: Vec<usize> = graph.split.val.iter().map(|&i| preds[i]).collect();
        let val_acc = accuracy(&val_preds, &self.val_labels);
        if val_acc > self.best_val {
            self.best_val = val_acc;
            save_params(&mut self.best_params, model);
            self.has_best = true;
            self.evals_since_improvement = 0;
            false
        } else {
            self.evals_since_improvement += 1;
            patience.is_some_and(|p| self.evals_since_improvement >= p)
        }
    }

    /// Restores the best parameters (when any) and reports the best value.
    fn finish(self, model: &mut dyn GnnModel) -> f32 {
        if self.has_best {
            restore_params(model, &self.best_params);
        }
        self.best_val
    }
}

/// The neighbour-sampled minibatch loop (see [`train_with_plan`]).
///
/// Batches are ascending-sorted node lists: sorting keeps the block source
/// sets aligned with global node order (so sampled forward passes reproduce
/// full-batch rows bit for bit under unbounded fanouts) and gives the
/// degenerate single-batch/unbounded plan an exact collapse onto the
/// full-batch operator.  Validation runs eagerly on the full graph every
/// `eval_every` epochs — observably the same protocol (accuracies, early
/// stopping, restored parameters) as the full-batch loop's deferred
/// evaluation.
///
/// Batches are produced by the overlapped producer/consumer pipeline
/// ([`with_prefetcher`]), which samples on its own thread ahead of the
/// trainer.
fn train_sampled(
    model: &mut dyn GnnModel,
    graph: &Graph,
    config: &TrainConfig,
    plan: &SampledPlan,
    plan_seed: u64,
) -> TrainReport {
    let train_idx = &graph.split.train;
    assert!(!train_idx.is_empty(), "training split must not be empty");
    let batch_size = plan.batch_size.max(1).min(train_idx.len());
    // A plan that samples nothing collapses onto the full propagation
    // operator: same blocks for every batch ⇒ share the graph's CSR instead
    // of re-slicing it, and the computation matches full-batch training bit
    // for bit (modulo the sorted batch order).
    let collapses = batch_size >= train_idx.len() && plan.is_unbounded();
    if collapses {
        return train_sampled_collapsed(model, graph, config, train_idx);
    }
    let sampler = NeighborSampler::new(plan.fanouts.clone(), plan_seed);
    let schedule = BatchSchedule {
        train_idx,
        batch_size,
        epochs: config.epochs,
        plan_seed,
    };
    // A model that reads its input only through a first propagation step
    // receives that step's output rows, built from one `Â · X` for the run.
    let propagated = model
        .propagates_input_first()
        .then(|| graph.normalized.spmm(&graph.features));
    let input = match &propagated {
        Some(propagated) => BatchInput::FirstStep(propagated),
        None => BatchInput::Raw,
    };
    with_prefetcher(graph, &sampler, input, schedule, |prefetcher| {
        train_sampled_epochs(model, graph, config, plan, prefetcher)
    })
}

/// The degenerate single-batch/unbounded sampled plan: full propagation
/// operator, sorted-batch row selection — bit-identical to full-batch
/// training modulo the sorted batch order.
fn train_sampled_collapsed(
    model: &mut dyn GnnModel,
    graph: &Graph,
    config: &TrainConfig,
    train_idx: &[usize],
) -> TrainReport {
    let full_adj = AdjacencyRef::from_graph(graph);
    let mut batch = train_idx.to_vec();
    batch.sort_unstable();
    let batch_labels: Vec<usize> = batch.iter().map(|&i| graph.labels[i]).collect();
    let (zero_grads, best_params) = param_buffers(model);
    let mut tracker = ValTracker::new(graph, best_params);
    let mut optimizer = Adam::new(config.lr, config.weight_decay);
    let mut losses = Vec::with_capacity(config.epochs);
    let mut epochs_run = 0usize;
    let mut tape = Tape::new();

    'epochs: for epoch in 0..config.epochs {
        bgc_runtime::checkpoint();
        bgc_runtime::fault::fire("trainer.epoch");
        tape.reset();
        let x = tape.const_leaf(graph.features.clone());
        let pass = model.forward(&mut tape, &full_adj, x);
        let selected = tape.row_select(pass.logits, &batch);
        let loss = tape.softmax_cross_entropy(selected, &batch_labels);
        // Kept in the general loop's weighted-mean form (scale up by the
        // batch size, divide by the split size) so the loss trace stays
        // bit-identical to the historical shared epoch loop.
        let epoch_loss = tape.scalar(loss) * batch.len() as f32;
        losses.push(epoch_loss / train_idx.len() as f32);
        let grads = tape.backward(loss);
        step_and_absorb(
            &mut tape,
            model,
            &mut optimizer,
            &pass.param_vars,
            &zero_grads,
            grads,
        );
        epochs_run = epoch + 1;

        let is_eval_epoch = !graph.split.val.is_empty()
            && (epoch % config.eval_every == config.eval_every - 1 || epoch + 1 == config.epochs);
        if is_eval_epoch && tracker.observe(model, &mut tape, &full_adj, graph, config.patience) {
            break 'epochs;
        }
    }

    TrainReport {
        train_losses: losses,
        best_val_accuracy: tracker.finish(model),
        epochs_run,
    }
}

/// The epoch/consumption loop over the batches a [`Prefetcher`] delivers.
fn train_sampled_epochs(
    model: &mut dyn GnnModel,
    graph: &Graph,
    config: &TrainConfig,
    plan: &SampledPlan,
    prefetcher: &mut Prefetcher,
) -> TrainReport {
    let train_idx = &graph.split.train;
    let batch_size = plan.batch_size.max(1).min(train_idx.len());
    let batches_per_epoch = train_idx.len().div_ceil(batch_size);
    let full_adj = AdjacencyRef::from_graph(graph);

    let (zero_grads, best_params) = param_buffers(model);
    let mut tracker = ValTracker::new(graph, best_params);
    let mut optimizer = Adam::new(config.lr, config.weight_decay);
    let mut losses = Vec::with_capacity(config.epochs);
    let mut epochs_run = 0usize;
    let mut tape = Tape::new();
    // The features of the previously consumed batch: its tape reference is
    // released by the next `tape.reset()`, at which point the storage flows
    // back to the producer's pool.
    let mut spent_features: Option<Arc<Matrix>> = None;

    'epochs: for epoch in 0..config.epochs {
        bgc_runtime::checkpoint();
        bgc_runtime::fault::fire("trainer.epoch");
        let mut epoch_loss = 0.0f32;
        for index in 0..batches_per_epoch {
            tape.reset();
            if let Some(features) = spent_features.take() {
                prefetcher.recycle(features);
            }
            let PreparedBatch {
                targets,
                labels,
                sampled,
                first_step_applied,
                target_positions,
                input_features,
                ..
            } = prefetcher.next_batch(epoch, index);
            let num_inputs = input_features.rows();
            let adj = AdjacencyRef::blocks(Arc::new(sampled));
            let adj = if first_step_applied {
                adj.after_first_step()
            } else {
                adj
            };
            let x = tape.const_leaf(input_features.clone());
            spent_features = Some(input_features);
            let pass = model.forward(&mut tape, &adj, x);
            // Propagating models shrink their output to exactly the
            // batch rows; propagation-free models (MLP) stay input-sized
            // and need the target rows mapped out.  Anything in between
            // means the model consumed fewer propagation steps than the
            // plan provides fanouts — selecting rows from a mid-chain
            // matrix would silently train on the wrong nodes.
            let rows = tape.shape(pass.logits).0;
            #[expect(
                clippy::panic,
                reason = "a plan whose fanouts do not match the model's depth is a caller bug"
            )]
            let selected = if rows == targets.len() {
                pass.logits
            } else if rows == num_inputs {
                tape.row_select(pass.logits, &target_positions)
            } else {
                panic!(
                    "sampled-plan depth mismatch: the model produced {} output rows for a \
                     batch of {} targets ({} input rows) — a sampled plan needs exactly \
                     one fanout per propagation step of the model ({} provided)",
                    rows,
                    targets.len(),
                    num_inputs,
                    plan.fanouts.len()
                );
            };
            let loss = tape.softmax_cross_entropy(selected, &labels);
            epoch_loss += tape.scalar(loss) * targets.len() as f32;
            let grads = tape.backward(loss);
            step_and_absorb(
                &mut tape,
                model,
                &mut optimizer,
                &pass.param_vars,
                &zero_grads,
                grads,
            );
        }
        losses.push(epoch_loss / train_idx.len() as f32);
        epochs_run = epoch + 1;

        let is_eval_epoch = !graph.split.val.is_empty()
            && (epoch % config.eval_every == config.eval_every - 1 || epoch + 1 == config.epochs);
        if is_eval_epoch && tracker.observe(model, &mut tape, &full_adj, graph, config.patience) {
            break 'epochs;
        }
    }

    TrainReport {
        train_losses: losses,
        best_val_accuracy: tracker.finish(model),
        epochs_run,
    }
}

/// Trains `model` on a condensed graph `S = {A', X', Y'}`; every synthetic
/// node is a training example (Eq. 5).
pub fn train_on_condensed(
    model: &mut dyn GnnModel,
    condensed: &CondensedGraph,
    config: &TrainConfig,
) -> TrainReport {
    let adj = AdjacencyRef::from_condensed(condensed);
    let all: Vec<usize> = (0..condensed.num_nodes()).collect();
    train_node_classifier(
        model,
        &adj,
        &condensed.features,
        &condensed.labels,
        &all,
        &[],
        config,
    )
}

/// Accuracy of `model` on the listed nodes.
pub fn evaluate(
    model: &dyn GnnModel,
    adj: &AdjacencyRef,
    features: &Matrix,
    labels: &[usize],
    idx: &[usize],
) -> f32 {
    let preds = model.predict(adj, features);
    let selected_preds: Vec<usize> = idx.iter().map(|&i| preds[i]).collect();
    let selected_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
    accuracy(&selected_preds, &selected_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnArchitecture;
    use bgc_graph::DatasetKind;
    use bgc_tensor::init::rng_from_seed;

    #[test]
    fn gcn_learns_a_small_homophilous_graph() {
        let g = DatasetKind::Cora.load_small(11);
        let adj = AdjacencyRef::from_graph(&g);
        let mut rng = rng_from_seed(0);
        let mut model =
            GnnArchitecture::Gcn.build(g.num_features(), 32, g.num_classes, 2, &mut rng);
        let report = train_node_classifier(
            model.as_mut(),
            &adj,
            &g.features,
            &g.labels,
            &g.split.train,
            &g.split.val,
            &TrainConfig::quick(),
        );
        let test_acc = evaluate(model.as_ref(), &adj, &g.features, &g.labels, &g.split.test);
        assert!(
            test_acc > 0.5,
            "GCN should beat random guessing by a wide margin, got {}",
            test_acc
        );
        assert!(
            report.final_loss() < report.train_losses[0],
            "loss must decrease"
        );
    }

    #[test]
    fn training_on_condensed_graph_runs() {
        use bgc_tensor::init::randn;
        let mut rng = rng_from_seed(5);
        let features = randn(10, 8, 0.0, 1.0, &mut rng);
        let condensed =
            CondensedGraph::structure_free(features, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 2);
        let mut model = GnnArchitecture::Sgc.build(8, 16, 2, 2, &mut rng);
        let report = train_on_condensed(model.as_mut(), &condensed, &TrainConfig::quick());
        assert!(report.final_loss() < report.train_losses[0]);
        // The model should fit 10 separable synthetic nodes almost perfectly.
        let adj = AdjacencyRef::from_condensed(&condensed);
        let train_acc = evaluate(
            model.as_ref(),
            &adj,
            &condensed.features,
            &condensed.labels,
            &(0..10).collect::<Vec<_>>(),
        );
        assert!(train_acc >= 0.8, "train accuracy {} too low", train_acc);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let g = DatasetKind::Citeseer.load_small(3);
        let adj = AdjacencyRef::from_graph(&g);
        let mut rng = rng_from_seed(1);
        let mut model =
            GnnArchitecture::Mlp.build(g.num_features(), 16, g.num_classes, 2, &mut rng);
        let config = TrainConfig {
            epochs: 400,
            eval_every: 2,
            patience: Some(2),
            ..TrainConfig::default()
        };
        let report = train_node_classifier(
            model.as_mut(),
            &adj,
            &g.features,
            &g.labels,
            &g.split.train,
            &g.split.val,
            &config,
        );
        assert!(report.epochs_run < 400, "early stopping should trigger");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_split_panics() {
        let g = DatasetKind::Cora.load_small(2);
        let adj = AdjacencyRef::from_graph(&g);
        let mut rng = rng_from_seed(1);
        let mut model = GnnArchitecture::Gcn.build(g.num_features(), 8, g.num_classes, 2, &mut rng);
        let _ = train_node_classifier(
            model.as_mut(),
            &adj,
            &g.features,
            &g.labels,
            &[],
            &[],
            &TrainConfig::quick(),
        );
    }
}
