//! Algorithm 1 of the paper: condensation with a trigger that is updated
//! inside the condensation loop.
//!
//! BGC and the adapted DOORPING baseline run the same loop,
//! `condense_with_trigger`, and differ only in the `TrainableTrigger` it
//! trains: BGC's adaptive generator gives every poisoned node its own
//! trigger, DOORPING's universal trigger is one block shared by all of them.
//! Per condensation epoch the loop (i) refreshes/trains the surrogate SGC
//! model on the current condensed graph (Eq. 16), (ii) updates the trigger
//! so that the surrogate misclassifies triggered computation graphs into the
//! target class (Eq. 17, `trigger_step`, which GTA's pre-training also
//! runs), (iii) attaches the current triggers to the selected poisoned nodes
//! of the poisoned graph `G_P`, and (iv) performs one gradient-matching
//! update of the condensed graph against `G_P`'s propagated features
//! `Â_P^K X_P` (Eq. 18).  `G_P` is built once, before the loop, as a
//! `PoisonedGraph`: step (iii) overwrites only its trigger rows and
//! re-propagates only the rows those reach, so step (iv) sees exactly the
//! features a from-scratch rebuild would give.  Step (ii) scores only the
//! centre node of each triggered computation graph, so it propagates only
//! the centre's receptive field (`Tape::propagate_row`), with the bits of a
//! whole-graph propagation.  A `TrainableTrigger` is a [`TriggerProvider`]
//! that also exposes its parameters and records a batch differentiably;
//! step (iii) reads `G_P`'s trigger rows through
//! [`TriggerProvider::triggers`], the call the ASR evaluation makes for its
//! test nodes.  The output is the poisoned condensed graph plus the trained
//! trigger used at inference time.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use bgc_condense::{
    working_graph, CondensationKind, CondensationMethod, CondenseError, GradientMatchingState,
    MatchingVariant,
};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, AdjacencyRef, Optimizer};
use bgc_tensor::init::{rng_from_seed, sample_without_replacement};
use bgc_tensor::{Matrix, Tape, Var};

use crate::attach::{
    attach_to_computation_graph, build_poisoned_graph, AttachedGraph, PoisonedGraph,
};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::{select_with, LazySelector, SelectionResult};
use crate::trigger::{TriggerGenerator, TriggerProvider};

/// Result of a BGC attack run.
pub struct BgcOutcome {
    /// The poisoned condensed graph `S` handed to the victim.
    pub condensed: CondensedGraph,
    /// The trained adaptive trigger generator `f_g` (used at test time).
    pub generator: TriggerGenerator,
    /// The poisoned node set `V_P` (indices into the working graph).
    pub poisoned_nodes: Vec<usize>,
    /// The graph the condensation actually ran on (training subgraph for
    /// inductive datasets, the full graph otherwise).
    pub working_graph: Graph,
    /// Gradient-matching loss per condensation epoch.
    pub matching_losses: Vec<f32>,
    /// Trigger-generator loss per generator update.
    pub trigger_losses: Vec<f32>,
    /// Details of the poisoned-node selection.
    pub selection: SelectionResult,
}

/// The BGC attack (the malicious condensation service provider).
pub struct BgcAttack {
    /// Attack configuration.
    pub config: BgcConfig,
}

impl BgcAttack {
    /// Creates an attack with the given configuration.
    pub fn new(config: BgcConfig) -> Self {
        Self { config }
    }

    /// Runs the attack against one of the built-in condensation methods.
    pub fn run(&self, graph: &Graph, kind: CondensationKind) -> Result<BgcOutcome, BgcError> {
        self.run_with(graph, kind.build().as_ref(), None)
    }

    /// Runs the attack against an arbitrary registered condensation method.
    ///
    /// For gradient-matching methods (those reporting a
    /// [`CondensationMethod::matching_variant`], e.g. DC-Graph, GCond,
    /// GCond-X) the trigger updates are interleaved with the condensation
    /// updates exactly as in Algorithm 1.  For kernel methods like GC-SNTK
    /// the triggers are optimized against a gradient-matching surrogate and
    /// the final poisoned graph is then condensed with the method itself (the
    /// adaptation is listed under "Substitutions" in the workspace README);
    /// the method's capacity check preserves the OOM behaviour of GC-SNTK.
    /// Representative selection takes the selector output on the working
    /// graph from `selector`, after the capacity check; `None` trains the
    /// selector in place.
    pub fn run_with(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
        selector: Option<LazySelector<'_>>,
    ) -> Result<BgcOutcome, BgcError> {
        let config = &self.config;
        let (work, selection) = prepare(graph, method, config, selector)?;
        assert!(
            !selection.poisoned_nodes.is_empty(),
            "poisoned node selection returned no nodes"
        );
        let mut rng = rng_from_seed(config.seed ^ 0xb6c);
        let mut generator = TriggerGenerator::with_feature_scale(
            config.generator,
            work.num_features(),
            config.hidden_dim,
            config.trigger_size,
            config.trigger_feature_scale,
            &mut rng,
        );
        let (condensed, matching_losses, trigger_losses) = condense_with_trigger(
            config,
            &work,
            method,
            &selection.poisoned_nodes,
            &mut generator,
            &mut rng,
        )?;
        Ok(BgcOutcome {
            condensed,
            generator,
            poisoned_nodes: selection.poisoned_nodes.clone(),
            working_graph: work,
            matching_losses,
            trigger_losses,
            selection,
        })
    }
}

/// The prologue of every attack that poisons the graph before or during
/// condensation (BGC, DOORPING, GTA): the working graph, which must have
/// training nodes, the method's capacity check and the poisoned-node
/// selection.  Representative selection takes the selector output on the
/// working graph from `selector`, after the capacity check; `None` trains
/// the selector in place.
pub(crate) fn prepare(
    graph: &Graph,
    method: &dyn CondensationMethod,
    config: &BgcConfig,
    selector: Option<LazySelector<'_>>,
) -> Result<(Graph, SelectionResult), BgcError> {
    let work = working_graph(graph);
    if work.split.train.is_empty() {
        return Err(CondenseError::NoTrainingNodes.into());
    }
    method.check_capacity(&work, &config.condensation)?;
    let selection = select_with(&work, config, selector);
    Ok((work, selection))
}

/// A trigger that [`trigger_step`] trains and `condense_with_trigger`
/// attaches to `G_P`.
pub(crate) trait TrainableTrigger: TriggerProvider {
    /// Mutable views of the trained parameters, aligned with the handles
    /// [`TrainableTrigger::record`] returns.
    fn parameters_mut(&mut self) -> Vec<&mut Matrix>;

    /// Records the triggers of `nodes` on `tape`: one `trigger_size x d`
    /// block per node, in order, plus the parameter handles.
    fn record(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> (Vec<Var>, Vec<Var>);
}

impl TrainableTrigger for TriggerGenerator {
    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        TriggerGenerator::parameters_mut(self)
    }

    fn record(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> (Vec<Var>, Vec<Var>) {
        let batch = self.generate(tape, adj, features, nodes);
        let size = self.trigger_size();
        let blocks = (0..nodes.len())
            .map(|i| {
                let rows: Vec<usize> = (i * size..(i + 1) * size).collect();
                tape.row_select(batch.features, &rows)
            })
            .collect();
        (blocks, batch.param_vars)
    }
}

/// Runs the interleaved loop of Algorithm 1 with `trigger` on the working
/// graph `work` and returns the condensed graph, the gradient-matching loss
/// per epoch and the trigger loss per trigger update.
///
/// Kernel methods (those without a matching variant, GC-SNTK) cannot
/// interleave: the loop trains the trigger against a GCond-X matching
/// surrogate, then `G_P` is poisoned with the final triggers and condensed
/// with the method itself.
pub(crate) fn condense_with_trigger(
    config: &BgcConfig,
    work: &Graph,
    method: &dyn CondensationMethod,
    poisoned_nodes: &[usize],
    trigger: &mut impl TrainableTrigger,
    rng: &mut StdRng,
) -> Result<(CondensedGraph, Vec<f32>, Vec<f32>), BgcError> {
    let adj = AdjacencyRef::from_graph(work);
    let variant = method.matching_variant().unwrap_or(MatchingVariant::GCondX);
    let mut state = GradientMatchingState::new(work, variant, config.condensation.clone());
    let mut optimizer = Adam::new(config.generator_lr, 0.0);
    let mut cache = BTreeMap::new();
    // One pooled tape serves every trigger update and trigger
    // materialization of the loop.
    let mut tape = Tape::new();
    let zero_grads = zero_grads(trigger);
    let mut poisoned = PoisonedGraph::new(
        work,
        poisoned_nodes,
        config.trigger_size,
        config.target_class,
        state.real_propagation_steps(),
    );
    // G_P's training rows are gathered into class blocks once; each epoch
    // re-copies only the rows its new triggers reach.
    state.set_real(poisoned.graph(), poisoned.representation());
    let mut matching_losses = Vec::new();
    let mut trigger_losses = Vec::new();
    for epoch in 0..config.condensation.outer_epochs {
        bgc_runtime::checkpoint();
        if epoch % config.condensation.surrogate_resample_every == 0 {
            state.resample_surrogate();
        }
        // (i) T surrogate steps on the current condensed graph (Eq. 16).
        state.train_surrogate(config.surrogate_steps);
        // (ii) M trigger steps (Eq. 17).
        for _ in 0..config.generator_steps {
            trigger_losses.push(trigger_step(
                config,
                &mut tape,
                trigger,
                &mut optimizer,
                &zero_grads,
                work,
                &adj,
                &state.surrogate_weight,
                rng,
                &mut cache,
            ));
        }
        // (iii) attach the updated triggers to V_P: G_P in place.
        poisoned.set_triggers(&trigger.triggers(&mut tape, &adj, &work.features, poisoned_nodes));
        state.update_real_rows(poisoned.representation(), poisoned.rewritten_rows());
        // (iv) one condensed-graph update against G_P (Eq. 18).
        matching_losses.push(state.matching_step());
    }
    let condensed = if method.matching_variant().is_none() {
        let triggers = trigger.triggers(&mut tape, &adj, &work.features, poisoned_nodes);
        let poisoned = build_poisoned_graph(
            work,
            poisoned_nodes,
            &triggers,
            config.trigger_size,
            config.target_class,
        );
        method.condense(&poisoned, &config.condensation)?
    } else {
        state.to_condensed()
    };
    Ok((condensed, matching_losses, trigger_losses))
}

/// Preallocated zero gradients, one per trigger parameter: the fallback
/// [`trigger_step`] hands the optimizer for a parameter the loss does not
/// reach.
pub(crate) fn zero_grads(trigger: &mut impl TrainableTrigger) -> Vec<Matrix> {
    trigger
        .parameters_mut()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect()
}

/// One trigger update step (Eq. 17): sample `V_U`, attach the triggers to
/// each sampled node's computation graph, and minimize the surrogate's
/// cross-entropy towards the target class.  Shared by the interleaved loop
/// and the GTA baseline (which optimizes against a static surrogate).
///
/// The surrogate scores only the centre node of each attached graph, so
/// [`Tape::propagate_row`] propagates only the centre's receptive field
/// (the rows its `K` hops read) and sends the gradient back only to the
/// trigger rows.  It gathers the computation graph's rows of
/// `graph.features` by node id, so `cache` holds ids and adjacencies, no
/// feature rows.  Losses and trigger updates are bit-identical to
/// propagating the whole attached graph.
///
/// `tape` is a pooled tape reused across steps (reset here); `zero_grads`
/// come from [`zero_grads`].
#[allow(
    clippy::too_many_arguments,
    reason = "the step borrows each part of the attack loop's state separately"
)]
pub(crate) fn trigger_step(
    config: &BgcConfig,
    tape: &mut Tape,
    trigger: &mut impl TrainableTrigger,
    optimizer: &mut Adam,
    zero_grads: &[Matrix],
    graph: &Graph,
    adj: &AdjacencyRef,
    surrogate_weight: &Matrix,
    rng: &mut StdRng,
    cache: &mut BTreeMap<usize, AttachedGraph>,
) -> f32 {
    let sample_size = config.update_sample_size.min(graph.num_nodes()).max(1);
    let sample = sample_without_replacement(graph.num_nodes(), sample_size, rng);
    for &node in &sample {
        cache.entry(node).or_insert_with(|| {
            attach_to_computation_graph(
                graph,
                node,
                config.trigger_size,
                config.khop,
                config.max_neighbors_per_hop,
            )
        });
    }
    tape.reset();
    let (blocks, param_vars) = trigger.record(tape, adj, &graph.features, &sample);
    let w_const = tape.leaf_detached(surrogate_weight);
    let mut total: Option<Var> = None;
    for (&node, &block) in sample.iter().zip(&blocks) {
        // Populated for every sampled node above; a (impossible) miss
        // drops the node from the batch instead of panicking.
        let Some(attached) = cache.get(&node) else {
            continue;
        };
        let center = tape.propagate_row(
            attached.norm_adj.clone(),
            &graph.features,
            &attached.nodes,
            block,
            config.condensation.propagation_steps,
            attached.center,
        );
        let logits = tape.matmul(center, w_const);
        let term = tape.softmax_cross_entropy(logits, &[config.target_class]);
        total = Some(match total {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    // `sample_size` is clamped to ≥ 1, so a term always accumulates; an
    // empty batch is a no-op step rather than a panic.
    let Some(total) = total else {
        return 0.0;
    };
    let loss = tape.scale(total, 1.0 / sample.len() as f32);
    let loss_value = tape.scalar(loss);
    let grads = tape.backward(loss);
    {
        let grad_refs: Vec<&Matrix> = param_vars
            .iter()
            .zip(zero_grads)
            .map(|(&v, zero)| grads.get_or(v, zero))
            .collect();
        optimizer.step(&mut trigger.parameters_mut(), &grad_refs);
    }
    tape.absorb(grads);
    loss_value
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baselines::DoorpingAttack;
    use crate::config::GeneratorKind;
    use crate::selector::select_poisoned_nodes;
    use crate::trigger::UniversalTrigger;
    use bgc_graph::{DatasetKind, PoisonBudget};

    fn tiny_config() -> BgcConfig {
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 15;
        config.condensation.ratio = 0.2;
        config.poison_budget = PoisonBudget::Count(8);
        config.update_sample_size = 8;
        config.max_neighbors_per_hop = 6;
        config
    }

    #[test]
    fn attack_produces_condensed_graph_and_decreasing_trigger_loss() {
        let graph = DatasetKind::Cora.load_small(21);
        let attack = BgcAttack::new(tiny_config());
        let outcome = attack
            .run(&graph, CondensationKind::GCondX)
            .expect("attack should run");
        assert!(outcome.condensed.num_nodes() >= graph.num_classes);
        assert_eq!(outcome.matching_losses.len(), 15);
        assert!(!outcome.trigger_losses.is_empty());
        // The trigger loss at the end should be far below the start: the
        // generator learns to flip the surrogate towards the target class.
        let first = outcome.trigger_losses[0];
        let last = *outcome.trigger_losses.last().unwrap();
        assert!(
            last < first,
            "trigger loss should decrease ({} -> {})",
            first,
            last
        );
        // Poisoned nodes never come from the target class.
        for &p in &outcome.poisoned_nodes {
            assert_ne!(outcome.working_graph.labels[p], attack.config.target_class);
        }
    }

    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The former [`trigger_step`]: each attached graph's feature rows are
    /// copied and the graph is propagated whole (concat → K x
    /// `const_matmul` → centre row select).  The oracle the receptive-field
    /// readout must match bit for bit.
    #[allow(clippy::too_many_arguments, reason = "mirrors `trigger_step`")]
    fn chain_trigger_step(
        config: &BgcConfig,
        tape: &mut Tape,
        trigger: &mut impl TrainableTrigger,
        optimizer: &mut Adam,
        zero_grads: &[Matrix],
        graph: &Graph,
        adj: &AdjacencyRef,
        surrogate_weight: &Matrix,
        rng: &mut StdRng,
        cache: &mut BTreeMap<usize, AttachedGraph>,
    ) -> f32 {
        let sample_size = config.update_sample_size.min(graph.num_nodes()).max(1);
        let sample = sample_without_replacement(graph.num_nodes(), sample_size, rng);
        for &node in &sample {
            cache.entry(node).or_insert_with(|| {
                attach_to_computation_graph(
                    graph,
                    node,
                    config.trigger_size,
                    config.khop,
                    config.max_neighbors_per_hop,
                )
            });
        }
        tape.reset();
        let (blocks, param_vars) = trigger.record(tape, adj, &graph.features, &sample);
        let w_const = tape.leaf_detached(surrogate_weight);
        let mut total: Option<Var> = None;
        for (node, &block) in sample.iter().zip(&blocks) {
            let attached = &cache[node];
            let base = tape.constant(graph.features.select_rows(&attached.nodes));
            let mut z = tape.concat_rows(base, block);
            for _ in 0..config.condensation.propagation_steps {
                z = tape.const_matmul(attached.norm_adj.clone(), z);
            }
            let center = tape.row_select(z, &[attached.center]);
            let logits = tape.matmul(center, w_const);
            let term = tape.softmax_cross_entropy(logits, &[config.target_class]);
            total = Some(match total {
                Some(acc) => tape.add(acc, term),
                None => term,
            });
        }
        let loss = tape.scale(total.expect("a sampled node"), 1.0 / sample.len() as f32);
        let loss_value = tape.scalar(loss);
        let grads = tape.backward(loss);
        {
            let grad_refs: Vec<&Matrix> = param_vars
                .iter()
                .zip(zero_grads)
                .map(|(&v, zero)| grads.get_or(v, zero))
                .collect();
            optimizer.step(&mut trigger.parameters_mut(), &grad_refs);
        }
        tape.absorb(grads);
        loss_value
    }

    /// Bits of the loss and of every trigger parameter after each of
    /// `steps` trigger steps, by [`trigger_step`] (`chain == false`) or by
    /// the chain oracle.
    fn trigger_step_trace<T: TrainableTrigger>(
        config: &BgcConfig,
        graph: &Graph,
        mut trigger: T,
        steps: usize,
        chain: bool,
    ) -> Vec<Vec<u32>> {
        let adj = AdjacencyRef::from_graph(graph);
        let mut rng = rng_from_seed(config.seed ^ 0x75);
        let surrogate =
            bgc_tensor::init::xavier_uniform(graph.num_features(), graph.num_classes, &mut rng);
        let mut optimizer = Adam::new(config.generator_lr, 0.0);
        let zero_grads = zero_grads(&mut trigger);
        let (mut tape, mut cache) = (Tape::new(), BTreeMap::new());
        let step = if chain {
            chain_trigger_step
        } else {
            trigger_step
        };
        (0..steps)
            .map(|_| {
                let loss = step(
                    config,
                    &mut tape,
                    &mut trigger,
                    &mut optimizer,
                    &zero_grads,
                    graph,
                    &adj,
                    &surrogate,
                    &mut rng,
                    &mut cache,
                );
                let mut trace = vec![loss.to_bits()];
                for p in trigger.parameters_mut() {
                    trace.extend(bits(p.data()));
                }
                trace
            })
            .collect()
    }

    /// BGC's generator (MLP encoder, one block per sampled node) and
    /// DOORPING's universal trigger (one block read by every sampled node)
    /// train to the same bits through [`trigger_step`]'s receptive-field
    /// readout and through the whole-graph propagation chain, at every
    /// propagation depth the op supports.
    #[test]
    fn trigger_steps_match_the_whole_graph_propagation_chain() {
        let graph = DatasetKind::Cora.load_small(25);
        let mut config = tiny_config();
        for steps in 0..=3 {
            config.condensation.propagation_steps = steps;
            let mut rng = rng_from_seed(config.seed);
            let generator = TriggerGenerator::with_feature_scale(
                GeneratorKind::Mlp,
                graph.num_features(),
                config.hidden_dim,
                config.trigger_size,
                config.trigger_feature_scale,
                &mut rng,
            );
            let universal = UniversalTrigger::new(bgc_tensor::init::randn(
                config.trigger_size,
                graph.num_features(),
                0.0,
                0.5,
                &mut rng,
            ));
            assert_eq!(
                trigger_step_trace(&config, &graph, generator.clone(), 6, false),
                trigger_step_trace(&config, &graph, generator, 6, true),
                "BGC, K = {steps}"
            );
            assert_eq!(
                trigger_step_trace(&config, &graph, universal.clone(), 6, false),
                trigger_step_trace(&config, &graph, universal, 6, true),
                "DOORPING, K = {steps}"
            );
        }
    }

    /// The interleaved loop with `G_P` rebuilt by `build_poisoned_graph`
    /// and fully re-propagated by `state.step` every epoch: the oracle the
    /// in-place `PoisonedGraph` update must match bit for bit.  `trigger`
    /// and `rng` arrive as the attack initialized them; `block` computes the
    /// trigger rows of `G_P` independently of [`TriggerProvider::triggers`].
    pub(crate) fn rebuild_every_epoch<T: TrainableTrigger>(
        config: &BgcConfig,
        graph: &Graph,
        kind: CondensationKind,
        trigger: &mut T,
        rng: &mut StdRng,
        block: impl Fn(&T, &mut Tape, &AdjacencyRef, &Matrix, &[usize]) -> Matrix,
    ) -> (Vec<f32>, Vec<f32>, CondensedGraph) {
        let work = working_graph(graph);
        let selection = select_poisoned_nodes(&work, config);
        let adj = AdjacencyRef::from_graph(&work);
        let variant = kind.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state = GradientMatchingState::new(&work, variant, config.condensation.clone());
        let mut optimizer = Adam::new(config.generator_lr, 0.0);
        let mut cache = BTreeMap::new();
        let mut tape = Tape::new();
        let zero_grads = zero_grads(trigger);
        let (mut matching_losses, mut trigger_losses) = (Vec::new(), Vec::new());
        for epoch in 0..config.condensation.outer_epochs {
            if epoch % config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            state.train_surrogate(config.surrogate_steps);
            for _ in 0..config.generator_steps {
                trigger_losses.push(trigger_step(
                    config,
                    &mut tape,
                    trigger,
                    &mut optimizer,
                    &zero_grads,
                    &work,
                    &adj,
                    &state.surrogate_weight,
                    rng,
                    &mut cache,
                ));
            }
            let triggers = block(
                trigger,
                &mut tape,
                &adj,
                &work.features,
                &selection.poisoned_nodes,
            );
            let poisoned = build_poisoned_graph(
                &work,
                &selection.poisoned_nodes,
                &triggers,
                config.trigger_size,
                config.target_class,
            );
            matching_losses.push(state.step(&poisoned));
        }
        (matching_losses, trigger_losses, state.to_condensed())
    }

    #[test]
    fn in_place_poisoned_graph_matches_a_per_epoch_rebuild() {
        let graph = DatasetKind::Cora.load_small(24);
        let mut config = tiny_config();
        config.selector_epochs = 5;
        config.condensation.outer_epochs = 6;
        config.condensation.surrogate_resample_every = 4;
        for kind in [
            CondensationKind::DcGraph,
            CondensationKind::GCond,
            CondensationKind::GCondX,
        ] {
            let outcome = BgcAttack::new(config.clone())
                .run(&graph, kind)
                .expect("attack should run");
            let mut rng = rng_from_seed(config.seed ^ 0xb6c);
            let mut generator = TriggerGenerator::with_feature_scale(
                config.generator,
                graph.num_features(),
                config.hidden_dim,
                config.trigger_size,
                config.trigger_feature_scale,
                &mut rng,
            );
            let (matching, trigger, condensed) = rebuild_every_epoch(
                &config,
                &graph,
                kind,
                &mut generator,
                &mut rng,
                |g, tape, adj, x, nodes| {
                    tape.reset();
                    let batch = g.generate(tape, adj, x, nodes);
                    tape.value_ref(batch.features).clone()
                },
            );
            assert_eq!(bits(&outcome.matching_losses), bits(&matching), "{kind:?}");
            assert_eq!(bits(&outcome.trigger_losses), bits(&trigger), "{kind:?}");
            assert_eq!(
                bits(outcome.condensed.features.data()),
                bits(condensed.features.data()),
                "{kind:?}"
            );
            assert_eq!(
                bits(outcome.condensed.adjacency.data()),
                bits(condensed.adjacency.data()),
                "{kind:?}"
            );
        }
    }

    /// BGC and DOORPING against GC-SNTK, which takes the loop's kernel tail.
    fn sntk_attacks(config: &BgcConfig, graph: &Graph) -> [Result<CondensedGraph, BgcError>; 2] {
        let kind = CondensationKind::GcSntk;
        [
            BgcAttack::new(config.clone())
                .run(graph, kind)
                .map(|o| o.condensed),
            DoorpingAttack::new(config.clone())
                .run(graph, kind)
                .map(|o| o.condensed),
        ]
    }

    #[test]
    fn attack_reports_oom_for_sntk_above_limit() {
        let graph = DatasetKind::Cora.load_small(22);
        let mut config = tiny_config();
        config.condensation.sntk_node_limit = 2;
        for result in sntk_attacks(&config, &graph) {
            assert!(matches!(result, Err(err) if err.is_oom()));
        }
    }

    #[test]
    fn attack_against_sntk_produces_structure_free_graph() {
        let graph = DatasetKind::Citeseer.load_small(23);
        let mut config = tiny_config();
        config.condensation.outer_epochs = 8;
        for result in sntk_attacks(&config, &graph) {
            let condensed = result.expect("attack should run");
            assert!(!condensed.has_structure(1e-6));
        }
    }
}
