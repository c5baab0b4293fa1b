//! DOORPING (Liu et al., NDSS 2023) adapted from dataset distillation on
//! images to graph condensation.
//!
//! DOORPING learns a *universal* trigger — a single feature pattern shared by
//! every poisoned sample — and keeps updating it during the condensation
//! loop.  The adaptation follows the paper's Section VI-B: the poisoned nodes
//! are chosen with BGC's selection module, and the trigger, a single
//! `|g| x d` feature block, runs through BGC's own interleaved loop
//! (`condense_with_trigger` in [`crate::attack`]) as a [`UniversalTrigger`]:
//! every sampled node of a trigger step and every poisoned node of `G_P`
//! receives the same block.

use bgc_condense::{CondensationKind, CondensationMethod};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::AdjacencyRef;
use bgc_tensor::init::{randn, rng_from_seed};
use bgc_tensor::{Matrix, Tape, Var};

use crate::attack::{condense_with_trigger, prepare, TrainableTrigger};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::SelectionResult;
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
        let config = &self.config;
        let (work, selection) = prepare(graph, method, config)?;
        let mut rng = rng_from_seed(config.seed ^ 0xd00);
        let mut trigger = UniversalTrigger::new(randn(
            config.trigger_size,
            work.num_features(),
            0.0,
            0.5,
            &mut rng,
        ));
        let (condensed, matching_losses, trigger_losses) = condense_with_trigger(
            config,
            &work,
            method,
            &selection.poisoned_nodes,
            &mut trigger,
            &mut rng,
        )?;
        Ok(DoorpingOutcome {
            condensed,
            trigger,
            poisoned_nodes: selection.poisoned_nodes.clone(),
            working_graph: work,
            matching_losses,
            trigger_losses,
            selection,
        })
    }
}

impl TrainableTrigger for UniversalTrigger {
    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.features]
    }

    fn record(
        &self,
        tape: &mut Tape,
        _adj: &AdjacencyRef,
        _features: &Matrix,
        nodes: &[usize],
    ) -> (Vec<Var>, Vec<Var>) {
        let shared = tape.leaf_copied(&self.features);
        (vec![shared; nodes.len()], vec![shared])
    }

    /// Every poisoned node receives the same trigger, stacked in one
    /// allocation.
    fn poisoned_block(
        &self,
        _tape: &mut Tape,
        _adj: &AdjacencyRef,
        _features: &Matrix,
        poisoned_nodes: &[usize],
    ) -> Matrix {
        let copies = poisoned_nodes.len();
        Matrix::new(
            copies * self.features.rows(),
            self.features.cols(),
            self.features.data().repeat(copies),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::tests::{bits, rebuild_every_epoch};
    use crate::config::SelectionStrategy;
    use bgc_graph::{DatasetKind, PoisonBudget};
    use bgc_runtime::{CancelToken, CancelUnwind};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let attack = DoorpingAttack::new(config.clone());
        for kind in [
            CondensationKind::DcGraph,
            CondensationKind::GCond,
            CondensationKind::GCondX,
        ] {
            let outcome = attack.run(&graph, kind).expect("DOORPING should run");
            let mut rng = rng_from_seed(config.seed ^ 0xd00);
            let mut trigger = UniversalTrigger::new(randn(
                config.trigger_size,
                graph.num_features(),
                0.0,
                0.5,
                &mut rng,
            ));
            // The reference tiling: one `vstack` per extra poisoned node.
            let (matching, trigger_losses, condensed) = rebuild_every_epoch(
                &config,
                &graph,
                kind,
                &mut trigger,
                &mut rng,
                |t, _, _, _, nodes| {
                    (1..nodes.len()).fold(t.features.clone(), |acc, _| acc.vstack(&t.features))
                },
            );
            assert_eq!(bits(&outcome.matching_losses), bits(&matching), "{kind:?}");
            assert_eq!(
                bits(&outcome.trigger_losses),
                bits(&trigger_losses),
                "{kind:?}"
            );
            assert_eq!(
                bits(outcome.trigger.features.data()),
                bits(trigger.features.data()),
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

    #[test]
    fn cancelled_run_stops_inside_the_condensation_loop() {
        let graph = DatasetKind::Cora.load_small(53);
        let mut config = BgcConfig::quick();
        // Random selection trains no selector, so the loop's checkpoint is
        // the first one the run reaches.
        config.selection = SelectionStrategy::Random;
        let token = CancelToken::new();
        token.cancel();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _scope = token.enter();
            DoorpingAttack::new(config).run(&graph, CondensationKind::GCondX)
        }));
        let payload = result
            .err()
            .expect("a cancelled run must unwind, not complete");
        assert!(payload.downcast_ref::<CancelUnwind>().is_some());
    }
}
