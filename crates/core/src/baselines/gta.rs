//! GTA (Xi et al., USENIX Security 2021) adapted to graph condensation.
//!
//! GTA trains an adaptive trigger generator against a surrogate fitted on the
//! *original* graph, poisons the original graph once, and only then hands the
//! poisoned graph to the condensation method.  Because the triggers are never
//! updated during condensation, their influence is partially washed out by the
//! synthetic-graph optimization — which is exactly the gap Figure 4 shows.

use std::collections::BTreeMap;

use bgc_condense::{CondensationKind, CondensationMethod};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, AdjacencyRef};
use bgc_tensor::init::{rng_from_seed, xavier_uniform};
use bgc_tensor::kernel::{RowLabels, SoftmaxGradScratch};
use bgc_tensor::{Matrix, Tape};

use crate::attach::build_poisoned_graph;
use crate::attack::{prepare, trigger_step, zero_grads};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::{LazySelector, SelectionResult};
use crate::trigger::{TriggerGenerator, TriggerProvider};

/// Result of the adapted GTA attack.
pub struct GtaOutcome {
    /// Condensed graph produced from the statically poisoned graph.
    pub condensed: CondensedGraph,
    /// The trigger generator (frozen after pre-training).
    pub generator: TriggerGenerator,
    /// Selected poisoned nodes.
    pub poisoned_nodes: Vec<usize>,
    /// Graph the condensation operated on.
    pub working_graph: Graph,
    /// Selection details.
    pub selection: SelectionResult,
}

/// The adapted GTA baseline.
pub struct GtaAttack {
    /// Shared attack configuration (selection, trigger size, target class...).
    pub config: BgcConfig,
    /// Number of generator pre-training steps against the static surrogate.
    pub pretrain_steps: usize,
}

impl GtaAttack {
    /// Creates the attack with a default pre-training budget.
    pub fn new(config: BgcConfig) -> Self {
        Self {
            config,
            pretrain_steps: 60,
        }
    }

    /// Trains a static SGC surrogate on the original (working) graph: 200
    /// full-batch gradient steps of softmax regression on the training
    /// nodes' propagated features, each one call of the fused kernel.
    fn static_surrogate(&self, graph: &Graph) -> Matrix {
        let mut rng = rng_from_seed(self.config.seed ^ 0x67a);
        let z = graph.propagated_features(self.config.condensation.propagation_steps);
        let train = &graph.split.train;
        let z_train = z.select_rows(train);
        let labels = graph.labels_of(train);
        let mut w = xavier_uniform(graph.num_features(), graph.num_classes, &mut rng);
        let mut grad = Matrix::zeros(w.rows(), w.cols());
        let mut scratch = SoftmaxGradScratch::default();
        for _ in 0..200 {
            let labels = RowLabels::PerRow(&labels);
            z_train.softmax_regression_grad_into(&w, labels, &mut scratch, &mut grad);
            w.add_scaled_assign(&grad, -0.5);
        }
        w
    }

    /// Runs the attack against one of the built-in condensation methods.
    pub fn run(&self, graph: &Graph, kind: CondensationKind) -> Result<GtaOutcome, BgcError> {
        self.run_with(graph, kind.build().as_ref(), None)
    }

    /// Runs the attack: pre-train the generator against the static surrogate,
    /// poison the graph once, then condense the poisoned graph with `method`.
    /// `selector` supplies the selector output, as in
    /// [`crate::BgcAttack::run_with`].
    pub fn run_with(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
        selector: Option<LazySelector<'_>>,
    ) -> Result<GtaOutcome, BgcError> {
        let (work, selection) = prepare(graph, method, &self.config, selector)?;
        let mut rng = rng_from_seed(self.config.seed ^ 0x67b);
        let mut generator = TriggerGenerator::with_feature_scale(
            self.config.generator,
            work.num_features(),
            self.config.hidden_dim,
            self.config.trigger_size,
            self.config.trigger_feature_scale,
            &mut rng,
        );
        let adj = AdjacencyRef::from_graph(&work);
        let surrogate = self.static_surrogate(&work);
        let mut optimizer = Adam::new(self.config.generator_lr, 0.0);
        let mut cache = BTreeMap::new();
        let mut tape = Tape::new();
        let zero_grads = zero_grads(&mut generator);
        for _ in 0..self.pretrain_steps {
            bgc_runtime::checkpoint();
            trigger_step(
                &self.config,
                &mut tape,
                &mut generator,
                &mut optimizer,
                &zero_grads,
                &work,
                &adj,
                &surrogate,
                &mut rng,
                &mut cache,
            );
        }
        let trigger_features =
            generator.triggers(&mut tape, &adj, &work.features, &selection.poisoned_nodes);
        let poisoned = build_poisoned_graph(
            &work,
            &selection.poisoned_nodes,
            &trigger_features,
            self.config.trigger_size,
            self.config.target_class,
        );
        let condensed = method.condense(&poisoned, &self.config.condensation)?;
        Ok(GtaOutcome {
            condensed,
            generator,
            poisoned_nodes: selection.poisoned_nodes.clone(),
            working_graph: work,
            selection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::{DatasetKind, PoisonBudget};

    /// `static_surrogate` as written before the fused kernel: `matmul` →
    /// `softmax_rows` → `sub` → `transpose_matmul` → `scale` per step.
    fn chain_surrogate(attack: &GtaAttack, graph: &Graph) -> Matrix {
        let mut rng = rng_from_seed(attack.config.seed ^ 0x67a);
        let z = graph.propagated_features(attack.config.condensation.propagation_steps);
        let train = &graph.split.train;
        let z_train = z.select_rows(train);
        let y = Matrix::one_hot(&graph.labels_of(train), graph.num_classes);
        let mut w = xavier_uniform(graph.num_features(), graph.num_classes, &mut rng);
        let n = train.len().max(1) as f32;
        for _ in 0..200 {
            let logits = z_train.matmul(&w);
            let probs = logits.softmax_rows();
            let diff = probs.sub(&y);
            let grad = z_train.transpose_matmul(&diff).scale(1.0 / n);
            w.add_scaled_assign(&grad, -0.5);
        }
        w
    }

    #[test]
    fn static_surrogate_keeps_the_bits_of_the_chain() {
        // Quick Cora's 7 classes put the chain's logits on the narrow gemm
        // path, quick Reddit's 10 on the wide one.
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (dataset, classes) in [(DatasetKind::Cora, 7), (DatasetKind::Reddit, 10)] {
            let graph = dataset.load_small(17);
            assert_eq!(graph.num_classes, classes);
            let attack = GtaAttack::new(BgcConfig::quick());
            assert_eq!(
                bits(&attack.static_surrogate(&graph)),
                bits(&chain_surrogate(&attack, &graph)),
                "{dataset}"
            );
        }
    }

    #[test]
    fn gta_runs_end_to_end() {
        let graph = DatasetKind::Cora.load_small(41);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 10;
        config.condensation.ratio = 0.2;
        config.poison_budget = PoisonBudget::Count(6);
        config.max_neighbors_per_hop = 6;
        let mut attack = GtaAttack::new(config);
        attack.pretrain_steps = 10;
        let outcome = attack
            .run(&graph, CondensationKind::GCondX)
            .expect("GTA should run");
        assert!(outcome.condensed.num_nodes() >= graph.num_classes);
        assert_eq!(outcome.poisoned_nodes.len(), 6);
    }
}
