//! DOORPING (Liu et al., NDSS 2023) adapted from dataset distillation on
//! images to graph condensation.
//!
//! DOORPING learns a *universal* trigger — a single feature pattern shared by
//! every poisoned sample — and keeps updating it during the condensation
//! loop.  The adaptation here follows the paper's Section VI-B: the poisoned
//! nodes are chosen with BGC's selection module, the trigger is a single
//! `|g| x d` feature block optimized against the condensation surrogate, and
//! the poisoned graph's trigger rows are set to the current trigger (in
//! place, see `PoisonedGraph`) before every condensed-graph update.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use bgc_condense::{
    working_graph, CondensationKind, CondensationMethod, CondenseError, GradientMatchingState,
    MatchingVariant,
};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, Optimizer};
use bgc_tensor::init::{randn, rng_from_seed, sample_without_replacement};
use bgc_tensor::{Matrix, Tape};

use crate::attach::{
    attach_to_computation_graph, build_poisoned_graph, AttachedGraph, PoisonedGraph,
};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::{select_poisoned_nodes, SelectionResult};
use crate::trigger::UniversalTrigger;

/// Result of the adapted DOORPING attack.
pub struct DoorpingOutcome {
    /// The poisoned condensed graph.
    pub condensed: CondensedGraph,
    /// The learned universal trigger.
    pub trigger: UniversalTrigger,
    /// Selected poisoned nodes.
    pub poisoned_nodes: Vec<usize>,
    /// Graph the condensation operated on.
    pub working_graph: Graph,
    /// Gradient-matching loss per condensation epoch.
    pub matching_losses: Vec<f32>,
    /// Trigger loss per universal-trigger update.
    pub trigger_losses: Vec<f32>,
    /// Selection details.
    pub selection: SelectionResult,
}

/// The adapted DOORPING baseline.
pub struct DoorpingAttack {
    /// Shared attack configuration.
    pub config: BgcConfig,
}

impl DoorpingAttack {
    /// Creates the attack.
    pub fn new(config: BgcConfig) -> Self {
        Self { config }
    }

    /// One universal-trigger update against the current surrogate.
    ///
    /// `tape` is a pooled tape reused across updates (reset here);
    /// `trigger_zero_grad` is the preallocated zero fallback.
    #[allow(clippy::too_many_arguments)]
    fn update_trigger(
        &self,
        tape: &mut Tape,
        trigger: &mut Matrix,
        optimizer: &mut Adam,
        trigger_zero_grad: &Matrix,
        graph: &Graph,
        surrogate_weight: &Matrix,
        rng: &mut StdRng,
        cache: &mut BTreeMap<usize, AttachedGraph>,
    ) -> f32 {
        let sample_size = self.config.update_sample_size.min(graph.num_nodes()).max(1);
        let sample = sample_without_replacement(graph.num_nodes(), sample_size, rng);
        tape.reset();
        let trig_var = tape.leaf_copied(trigger);
        let w_const = tape.leaf_detached(surrogate_weight);
        let mut total: Option<bgc_tensor::Var> = None;
        for &node in &sample {
            let attached = cache
                .entry(node)
                .or_insert_with(|| {
                    attach_to_computation_graph(
                        graph,
                        node,
                        self.config.trigger_size,
                        self.config.khop,
                        self.config.max_neighbors_per_hop,
                    )
                })
                .clone();
            let x = attached.combined_features(tape, trig_var);
            let mut z = x;
            for _ in 0..self.config.condensation.propagation_steps {
                z = tape.const_matmul(attached.norm_adj.clone(), z);
            }
            let center = tape.row_select(z, &[attached.center]);
            let logits = tape.matmul(center, w_const);
            let term = tape.softmax_cross_entropy(logits, &[self.config.target_class]);
            total = Some(match total {
                Some(acc) => tape.add(acc, term),
                None => term,
            });
        }
        // `sample` has at least one node, so `total` is always `Some`; the
        // early return keeps the update a no-op rather than a panic if that
        // invariant ever changes.
        let Some(total) = total else {
            return 0.0;
        };
        let loss = tape.scale(total, 1.0 / sample.len() as f32);
        let loss_value = tape.scalar(loss);
        let grads = tape.backward(loss);
        optimizer.step(&mut [trigger], &[grads.get_or(trig_var, trigger_zero_grad)]);
        tape.absorb(grads);
        loss_value
    }

    /// Runs the attack against one of the built-in condensation methods.
    pub fn run(&self, graph: &Graph, kind: CondensationKind) -> Result<DoorpingOutcome, BgcError> {
        self.run_with(graph, kind.build().as_ref())
    }

    /// Runs the attack against an arbitrary registered condensation method
    /// (interleaved for gradient-matching methods, poison-then-condense for
    /// kernel methods).
    pub fn run_with(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
    ) -> Result<DoorpingOutcome, BgcError> {
        let work = working_graph(graph);
        if work.split.train.is_empty() {
            return Err(CondenseError::NoTrainingNodes.into());
        }
        method.check_capacity(&work, &self.config.condensation)?;
        let selection = select_poisoned_nodes(&work, &self.config);
        let mut rng = rng_from_seed(self.config.seed ^ 0xd00);
        let mut trigger = randn(
            self.config.trigger_size,
            work.num_features(),
            0.0,
            0.5,
            &mut rng,
        );
        let variant = method.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state =
            GradientMatchingState::new(&work, variant, self.config.condensation.clone());
        let mut optimizer = Adam::new(self.config.generator_lr, 0.0);
        let mut cache = BTreeMap::new();
        let mut tape = Tape::new();
        let trigger_zero_grad = Matrix::zeros(trigger.rows(), trigger.cols());
        let mut matching_losses = Vec::new();
        let mut trigger_losses = Vec::new();
        let mut poisoned = PoisonedGraph::new(
            &work,
            &selection.poisoned_nodes,
            self.config.trigger_size,
            self.config.target_class,
            state.real_propagation_steps(),
        );
        for epoch in 0..self.config.condensation.outer_epochs {
            if epoch % self.config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            state.train_surrogate(self.config.surrogate_steps);
            for _ in 0..self.config.generator_steps {
                trigger_losses.push(self.update_trigger(
                    &mut tape,
                    &mut trigger,
                    &mut optimizer,
                    &trigger_zero_grad,
                    &work,
                    &state.surrogate_weight,
                    &mut rng,
                    &mut cache,
                ));
            }
            poisoned.set_triggers(&tile_trigger(&trigger, selection.poisoned_nodes.len()));
            matching_losses.push(
                state.step_with_real_representation(poisoned.graph(), poisoned.representation()),
            );
        }
        let condensed = if method.matching_variant().is_none() {
            let poisoned = build_poisoned_graph(
                &work,
                &selection.poisoned_nodes,
                &tile_trigger(&trigger, selection.poisoned_nodes.len()),
                self.config.trigger_size,
                self.config.target_class,
            );
            method.condense(&poisoned, &self.config.condensation)?
        } else {
            state.to_condensed()
        };
        Ok(DoorpingOutcome {
            condensed,
            trigger: UniversalTrigger::new(trigger),
            poisoned_nodes: selection.poisoned_nodes.clone(),
            working_graph: work,
            matching_losses,
            trigger_losses,
            selection,
        })
    }
}

/// The trigger block of `G_P`: every one of the `copies` poisoned nodes
/// receives the same universal trigger, stacked in one allocation.
fn tile_trigger(trigger: &Matrix, copies: usize) -> Matrix {
    Matrix::new(
        copies * trigger.rows(),
        trigger.cols(),
        trigger.data().repeat(copies),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::{DatasetKind, PoisonBudget};

    #[test]
    fn doorping_runs_and_learns_a_shared_trigger() {
        let graph = DatasetKind::Cora.load_small(51);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 10;
        config.condensation.ratio = 0.2;
        config.poison_budget = PoisonBudget::Count(6);
        config.max_neighbors_per_hop = 6;
        let attack = DoorpingAttack::new(config.clone());
        let outcome = attack
            .run(&graph, CondensationKind::GCondX)
            .expect("DOORPING should run");
        assert_eq!(
            outcome.trigger.features.shape(),
            (config.trigger_size, graph.num_features())
        );
        assert!(outcome.condensed.num_nodes() >= graph.num_classes);
        // The trigger moved away from its random initialization.
        assert!(outcome.trigger.features.frobenius_norm() > 0.0);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The DOORPING loop with the trigger tiled by repeated `vstack`, `G_P`
    /// rebuilt by `build_poisoned_graph` and fully re-propagated by
    /// `state.step` every epoch: the oracle for the one-allocation tiling
    /// and the in-place `PoisonedGraph` update.
    fn rebuild_every_epoch(
        attack: &DoorpingAttack,
        graph: &Graph,
        kind: CondensationKind,
    ) -> (Vec<f32>, Vec<f32>, CondensedGraph, Matrix) {
        let config = &attack.config;
        let work = working_graph(graph);
        let selection = select_poisoned_nodes(&work, config);
        let mut rng = rng_from_seed(config.seed ^ 0xd00);
        let mut trigger = randn(config.trigger_size, work.num_features(), 0.0, 0.5, &mut rng);
        let variant = kind.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state = GradientMatchingState::new(&work, variant, config.condensation.clone());
        let mut optimizer = Adam::new(config.generator_lr, 0.0);
        let mut cache = BTreeMap::new();
        let mut tape = Tape::new();
        let zero_grad = Matrix::zeros(trigger.rows(), trigger.cols());
        let (mut matching_losses, mut trigger_losses) = (Vec::new(), Vec::new());
        for epoch in 0..config.condensation.outer_epochs {
            if epoch % config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            state.train_surrogate(config.surrogate_steps);
            for _ in 0..config.generator_steps {
                trigger_losses.push(attack.update_trigger(
                    &mut tape,
                    &mut trigger,
                    &mut optimizer,
                    &zero_grad,
                    &work,
                    &state.surrogate_weight,
                    &mut rng,
                    &mut cache,
                ));
            }
            let stacked = (1..selection.poisoned_nodes.len())
                .fold(trigger.clone(), |acc, _| acc.vstack(&trigger));
            let poisoned = build_poisoned_graph(
                &work,
                &selection.poisoned_nodes,
                &stacked,
                config.trigger_size,
                config.target_class,
            );
            matching_losses.push(state.step(&poisoned));
        }
        (
            matching_losses,
            trigger_losses,
            state.to_condensed(),
            trigger,
        )
    }

    #[test]
    fn in_place_poisoned_graph_matches_a_per_epoch_rebuild() {
        let graph = DatasetKind::Cora.load_small(52);
        let mut config = BgcConfig::quick();
        config.selector_epochs = 5;
        config.condensation.outer_epochs = 6;
        config.condensation.surrogate_resample_every = 4;
        config.condensation.ratio = 0.2;
        config.poison_budget = PoisonBudget::Count(6);
        config.max_neighbors_per_hop = 6;
        let attack = DoorpingAttack::new(config);
        for kind in [
            CondensationKind::DcGraph,
            CondensationKind::GCond,
            CondensationKind::GCondX,
        ] {
            let outcome = attack.run(&graph, kind).expect("DOORPING should run");
            let (matching, trigger_losses, condensed, trigger) =
                rebuild_every_epoch(&attack, &graph, kind);
            assert_eq!(bits(&outcome.matching_losses), bits(&matching), "{kind:?}");
            assert_eq!(
                bits(&outcome.trigger_losses),
                bits(&trigger_losses),
                "{kind:?}"
            );
            assert_eq!(
                bits(outcome.trigger.features.data()),
                bits(trigger.data()),
                "{kind:?}"
            );
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
}
