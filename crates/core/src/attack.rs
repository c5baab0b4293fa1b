//! The BGC attack loop (Algorithm 1 of the paper).
//!
//! Per condensation epoch the attack (i) refreshes/trains the surrogate SGC
//! model on the current condensed graph (Eq. 16), (ii) updates the adaptive
//! trigger generator so that the surrogate misclassifies triggered computation
//! graphs into the target class (Eq. 17), (iii) attaches the current triggers
//! to the selected poisoned nodes of the poisoned graph `G_P`, and
//! (iv) performs one gradient-matching update of the condensed graph against
//! `G_P`'s propagated features `Â_P^K X_P` (Eq. 18).  `G_P` is built once,
//! before the loop, as a `PoisonedGraph`: step (iii) overwrites only its
//! trigger rows and re-propagates only the rows those reach, so step (iv)
//! sees exactly the features a from-scratch rebuild would give.  The output
//! is the poisoned condensed graph plus the trained trigger generator used
//! at inference time.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use bgc_condense::{
    working_graph, CondensationKind, CondensationMethod, CondenseError, GradientMatchingState,
    MatchingVariant,
};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, AdjacencyRef, Optimizer};
use bgc_tensor::init::{rng_from_seed, sample_without_replacement};
use bgc_tensor::{Matrix, Tape};

use crate::attach::{
    attach_to_computation_graph, build_poisoned_graph, AttachedGraph, PoisonedGraph,
};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::{select_poisoned_nodes, SelectionResult};
use crate::trigger::TriggerGenerator;

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
        self.run_with(graph, kind.build().as_ref())
    }

    /// Runs the attack against an arbitrary registered condensation method.
    ///
    /// For gradient-matching methods (those reporting a
    /// [`CondensationMethod::matching_variant`], e.g. DC-Graph, GCond,
    /// GCond-X) the trigger updates are interleaved with the condensation
    /// updates exactly as in Algorithm 1.  For kernel methods like GC-SNTK
    /// the triggers are optimized against a gradient-matching surrogate and
    /// the final poisoned graph is then condensed with the method itself (the
    /// adaptation is documented in DESIGN.md); the method's capacity check
    /// preserves the OOM behaviour of GC-SNTK.
    pub fn run_with(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
    ) -> Result<BgcOutcome, BgcError> {
        let work = working_graph(graph);
        if work.split.train.is_empty() {
            return Err(CondenseError::NoTrainingNodes.into());
        }
        method.check_capacity(&work, &self.config.condensation)?;
        let selection = select_poisoned_nodes(&work, &self.config);
        assert!(
            !selection.poisoned_nodes.is_empty(),
            "poisoned node selection returned no nodes"
        );
        let mut rng = rng_from_seed(self.config.seed ^ 0xb6c);
        let mut generator = TriggerGenerator::with_feature_scale(
            self.config.generator,
            work.num_features(),
            self.config.hidden_dim,
            self.config.trigger_size,
            self.config.trigger_feature_scale,
            &mut rng,
        );
        let adj = AdjacencyRef::from_graph(&work);
        let matching_variant = method.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state =
            GradientMatchingState::new(&work, matching_variant, self.config.condensation.clone());
        let mut generator_opt = Adam::new(self.config.generator_lr, 0.0);
        let mut attached_cache: BTreeMap<usize, AttachedGraph> = BTreeMap::new();
        let mut matching_losses = Vec::new();
        let mut trigger_losses = Vec::new();
        // One pooled tape serves every generator update and trigger
        // materialization of the attack loop; zero-gradient fallbacks are
        // preallocated per generator parameter.
        let mut scratch_tape = Tape::new();
        let gen_zero_grads: Vec<Matrix> = generator
            .parameters()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let mut poisoned = PoisonedGraph::new(
            &work,
            &selection.poisoned_nodes,
            self.config.trigger_size,
            self.config.target_class,
            state.real_propagation_steps(),
        );

        for epoch in 0..self.config.condensation.outer_epochs {
            bgc_runtime::checkpoint();
            if epoch % self.config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            // (i) T surrogate steps on the current condensed graph (Eq. 16).
            state.train_surrogate(self.config.surrogate_steps);
            // (ii) M trigger-generator steps (Eq. 17).
            for _ in 0..self.config.generator_steps {
                let loss = generator_update_step(
                    &self.config,
                    &mut scratch_tape,
                    &mut generator,
                    &mut generator_opt,
                    &gen_zero_grads,
                    &work,
                    &adj,
                    &state.surrogate_weight,
                    &mut rng,
                    &mut attached_cache,
                );
                trigger_losses.push(loss);
            }
            // (iii) attach the updated triggers to V_P: G_P in place.
            let trigger_features = generator.generate_plain_on(
                &mut scratch_tape,
                &adj,
                &work.features,
                &selection.poisoned_nodes,
            );
            poisoned.set_triggers(&trigger_features);
            // (iv) one condensed-graph update against G_P (Eq. 18).
            matching_losses.push(
                state.step_with_real_representation(poisoned.graph(), poisoned.representation()),
            );
        }

        let condensed = if method.matching_variant().is_none() {
            // Kernel methods (GC-SNTK) cannot interleave: poison the graph
            // with the final triggers and condense it with the method itself.
            let trigger_features =
                generator.generate_plain(&adj, &work.features, &selection.poisoned_nodes);
            let poisoned = build_poisoned_graph(
                &work,
                &selection.poisoned_nodes,
                &trigger_features,
                self.config.trigger_size,
                self.config.target_class,
            );
            method.condense(&poisoned, &self.config.condensation)?
        } else {
            state.to_condensed()
        };

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

/// One trigger-generator update step (Eq. 17): sample `V_U`, attach the
/// generated triggers to each node's computation graph, and minimize the
/// surrogate's cross-entropy towards the target class.  Shared with the GTA
/// baseline (which optimizes against a static surrogate).
///
/// `tape` is a pooled tape reused across steps (reset here); `zero_grads`
/// are preallocated per-parameter zero fallbacks aligned with
/// [`TriggerGenerator::parameters`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn generator_update_step(
    config: &BgcConfig,
    tape: &mut Tape,
    generator: &mut TriggerGenerator,
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
    let batch = generator.generate(tape, adj, &graph.features, &sample);
    let w_const = tape.leaf_detached(surrogate_weight);
    let mut total: Option<bgc_tensor::Var> = None;
    for (i, &node) in sample.iter().enumerate() {
        // Populated for every sampled node above; a (impossible) miss
        // drops the node from the batch instead of panicking.
        let attached = match cache.get(&node) {
            Some(attached) => attached.clone(),
            None => continue,
        };
        let rows: Vec<usize> = (i * config.trigger_size..(i + 1) * config.trigger_size).collect();
        let trigger_block = tape.row_select(batch.features, &rows);
        let x = attached.combined_features(tape, trigger_block);
        let mut z = x;
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
    // `sample_size` is clamped to ≥ 1, so a term always accumulates; an
    // empty batch is a no-op step rather than a panic.
    let Some(total) = total else {
        return 0.0;
    };
    let loss = tape.scale(total, 1.0 / sample.len() as f32);
    let loss_value = tape.scalar(loss);
    let grads = tape.backward(loss);
    {
        let grad_refs: Vec<&Matrix> = batch
            .param_vars
            .iter()
            .zip(zero_grads.iter())
            .map(|(&v, zero)| grads.get_or(v, zero))
            .collect();
        let mut params = generator.parameters_mut();
        optimizer.step(&mut params, &grad_refs);
    }
    tape.absorb(grads);
    loss_value
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The attack loop with `G_P` rebuilt by `build_poisoned_graph` and
    /// fully re-propagated by `state.step` every epoch: the oracle the
    /// in-place `PoisonedGraph` update must match bit for bit.
    fn rebuild_every_epoch(
        config: &BgcConfig,
        graph: &Graph,
        kind: CondensationKind,
    ) -> (Vec<f32>, Vec<f32>, CondensedGraph) {
        let work = working_graph(graph);
        let selection = select_poisoned_nodes(&work, config);
        let mut rng = rng_from_seed(config.seed ^ 0xb6c);
        let mut generator = TriggerGenerator::with_feature_scale(
            config.generator,
            work.num_features(),
            config.hidden_dim,
            config.trigger_size,
            config.trigger_feature_scale,
            &mut rng,
        );
        let adj = AdjacencyRef::from_graph(&work);
        let variant = kind.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state = GradientMatchingState::new(&work, variant, config.condensation.clone());
        let mut generator_opt = Adam::new(config.generator_lr, 0.0);
        let mut cache = BTreeMap::new();
        let mut tape = Tape::new();
        let zero_grads: Vec<Matrix> = generator
            .parameters()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let (mut matching_losses, mut trigger_losses) = (Vec::new(), Vec::new());
        for epoch in 0..config.condensation.outer_epochs {
            if epoch % config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            state.train_surrogate(config.surrogate_steps);
            for _ in 0..config.generator_steps {
                trigger_losses.push(generator_update_step(
                    config,
                    &mut tape,
                    &mut generator,
                    &mut generator_opt,
                    &zero_grads,
                    &work,
                    &adj,
                    &state.surrogate_weight,
                    &mut rng,
                    &mut cache,
                ));
            }
            let triggers = generator.generate_plain_on(
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
            let (matching, trigger, condensed) = rebuild_every_epoch(&config, &graph, kind);
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

    #[test]
    fn attack_reports_oom_for_sntk_above_limit() {
        let graph = DatasetKind::Cora.load_small(22);
        let mut config = tiny_config();
        config.condensation.sntk_node_limit = 2;
        let attack = BgcAttack::new(config);
        let result = attack.run(&graph, CondensationKind::GcSntk);
        assert!(matches!(result, Err(err) if err.is_oom()));
    }

    #[test]
    fn attack_against_sntk_produces_structure_free_graph() {
        let graph = DatasetKind::Citeseer.load_small(23);
        let mut config = tiny_config();
        config.condensation.outer_epochs = 8;
        let attack = BgcAttack::new(config);
        let outcome = attack
            .run(&graph, CondensationKind::GcSntk)
            .expect("attack should run");
        assert!(!outcome.condensed.has_structure(1e-6));
    }
}
