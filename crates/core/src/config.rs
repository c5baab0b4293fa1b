//! Configuration of the BGC attack (Section IV of the paper).

use std::fmt;
use std::str::FromStr;

use bgc_condense::CondensationConfig;
use bgc_graph::PoisonBudget;
use bgc_nn::TrainingPlan;

/// Which encoder backs the adaptive trigger generator `f_g` (Table V studies
/// MLP, GCN and Transformer encoders).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GeneratorKind {
    /// Two-layer MLP encoder (the paper's default).
    Mlp,
    /// Two-layer GCN encoder (uses the graph structure).
    Gcn,
    /// Single-layer multi-head self-attention over the trigger slots.
    Transformer,
}

impl GeneratorKind {
    /// All encoder variants in the order of Table V.
    pub fn all() -> [GeneratorKind; 3] {
        [
            GeneratorKind::Mlp,
            GeneratorKind::Gcn,
            GeneratorKind::Transformer,
        ]
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorKind::Mlp => "MLP",
            GeneratorKind::Gcn => "GCN",
            GeneratorKind::Transformer => "Transformer",
        }
    }
}

impl fmt::Display for GeneratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GeneratorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GeneratorKind::all()
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown trigger-generator kind '{}'", s))
    }
}

/// How the poisoned nodes `V_P` are chosen (Figure 5 ablates representative
/// vs. random selection; Table VI studies the directed variant).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SelectionStrategy {
    /// Representative selection: per-class K-means on GCN representations and
    /// the degree-balanced score of Eq. 9 (the paper's default).
    Representative,
    /// Uniformly random selection (the `BGC_Rand` ablation).
    Random,
    /// Representative selection restricted to a single source class (the
    /// directed-attack variant of Table VI).
    DirectedFrom(usize),
}

/// Full configuration of a BGC attack run.
#[derive(Clone, Debug)]
pub struct BgcConfig {
    /// Attacker's target class `y_t`.
    pub target_class: usize,
    /// Trigger size `|g_i|` (number of injected trigger nodes per poisoned
    /// node); the paper defaults to 4.
    pub trigger_size: usize,
    /// Poisoning budget `Delta_P`.
    pub poison_budget: PoisonBudget,
    /// Poisoned-node selection strategy.
    pub selection: SelectionStrategy,
    /// Balance weight `lambda` of the selection score (Eq. 9).
    pub selection_lambda: f32,
    /// Number of K-means clusters per class.
    pub kmeans_clusters: usize,
    /// Hidden dimension of the selector GCN and of the trigger generator.
    pub hidden_dim: usize,
    /// Training epochs of the selector GCN.
    pub selector_epochs: usize,
    /// Trigger-generator encoder variant.
    pub generator: GeneratorKind,
    /// L2 norm of every generated trigger row (the original node features are
    /// L2-normalized, so values slightly above 1 keep triggers on-distribution
    /// while remaining influential).
    pub trigger_feature_scale: f32,
    /// Learning rate of the trigger generator (searched in
    /// {0.01, 0.05, 0.1, 0.5} in the paper).
    pub generator_lr: f32,
    /// Number of generator update steps `M` per condensation epoch (Eq. 17).
    pub generator_steps: usize,
    /// Number of surrogate update steps `T` per condensation epoch (Eq. 16).
    pub surrogate_steps: usize,
    /// Number of nodes sampled into `V_U` per generator step (Eq. 13).
    pub update_sample_size: usize,
    /// Receptive-field depth used when extracting computation graphs.
    pub khop: usize,
    /// Cap on neighbours expanded per hop (keeps Reddit-style hubs tractable).
    pub max_neighbors_per_hop: usize,
    /// How full-graph training stages of the attack (the selector GCN) run:
    /// full batch, or neighbour-sampled minibatches for paper-scale graphs.
    pub training_plan: TrainingPlan,
    /// Condensation hyper-parameters (shared with the clean baseline).
    pub condensation: CondensationConfig,
    /// Base random seed.
    pub seed: u64,
}

impl Default for BgcConfig {
    fn default() -> Self {
        Self {
            target_class: 0,
            trigger_size: 4,
            poison_budget: PoisonBudget::Ratio(0.1),
            selection: SelectionStrategy::Representative,
            selection_lambda: 0.05,
            kmeans_clusters: 3,
            hidden_dim: 32,
            selector_epochs: 100,
            generator: GeneratorKind::Mlp,
            trigger_feature_scale: 3.0,
            generator_lr: 0.05,
            generator_steps: 3,
            surrogate_steps: 5,
            update_sample_size: 24,
            khop: 2,
            max_neighbors_per_hop: 16,
            training_plan: TrainingPlan::FullBatch,
            condensation: CondensationConfig::default(),
            seed: 0,
        }
    }
}

impl BgcConfig {
    /// A reduced configuration for unit tests and the `quick` experiment
    /// scale.
    pub fn quick() -> Self {
        Self {
            selector_epochs: 40,
            condensation: CondensationConfig::quick(0.1),
            update_sample_size: 12,
            generator_steps: 2,
            surrogate_steps: 3,
            ..Self::default()
        }
    }

    /// Paper-style configuration for a given condensation ratio.
    pub fn paper(ratio: f32) -> Self {
        Self {
            condensation: CondensationConfig::paper(ratio),
            ..Self::default()
        }
    }

    /// Canonical, bit-exact description of every attack hyper-parameter
    /// (floats by IEEE-754 bits), including the nested condensation canon.
    /// The content-addressed artifact store keys attack-stage artifacts on
    /// this: equal canons imply bit-identical attack outputs.
    pub fn canon(&self) -> String {
        let budget = match self.poison_budget {
            PoisonBudget::Ratio(r) => format!("ratio:{:08x}", r.to_bits()),
            PoisonBudget::Count(n) => format!("count:{}", n),
        };
        let selection = match self.selection {
            SelectionStrategy::Representative => "rep".to_string(),
            SelectionStrategy::Random => "rand".to_string(),
            SelectionStrategy::DirectedFrom(c) => format!("dir:{}", c),
        };
        format!(
            "tc={}|ts={}|pb={}|sel={}|sl={:08x}|km={}|hd={}|se={}|gen={}|tfs={:08x}|glr={:08x}|gs={}|sus={}|uss={}|khop={}|mnh={}|plan={}|cond=[{}]|seed={}",
            self.target_class,
            self.trigger_size,
            budget,
            selection,
            self.selection_lambda.to_bits(),
            self.kmeans_clusters,
            self.hidden_dim,
            self.selector_epochs,
            self.generator.name(),
            self.trigger_feature_scale.to_bits(),
            self.generator_lr.to_bits(),
            self.generator_steps,
            self.surrogate_steps,
            self.update_sample_size,
            self.khop,
            self.max_neighbors_per_hop,
            self.training_plan,
            self.condensation.canon(),
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = BgcConfig::default();
        assert_eq!(
            cfg.trigger_size, 4,
            "trigger size defaults to 4 (Section V)"
        );
        assert_eq!(cfg.generator, GeneratorKind::Mlp);
        assert!(matches!(cfg.selection, SelectionStrategy::Representative));
        assert_eq!(cfg.poison_budget, PoisonBudget::Ratio(0.1));
    }

    #[test]
    fn generator_kinds_have_unique_names() {
        let names: std::collections::BTreeSet<_> =
            GeneratorKind::all().iter().map(|g| g.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn canon_distinguishes_every_edit() {
        let base = BgcConfig::quick();
        assert_eq!(base.canon(), BgcConfig::quick().canon());
        let mut other = base.clone();
        other.trigger_feature_scale += 1e-6;
        assert_ne!(base.canon(), other.canon());
        let mut other = base.clone();
        other.selection = SelectionStrategy::DirectedFrom(2);
        assert_ne!(base.canon(), other.canon());
        let mut other = base.clone();
        other.condensation.seed ^= 1;
        assert_ne!(
            base.canon(),
            other.canon(),
            "nested condensation canon is included"
        );
    }

    #[test]
    fn quick_config_is_cheaper() {
        assert!(
            BgcConfig::quick().condensation.outer_epochs
                < BgcConfig::default().condensation.outer_epochs
        );
    }
}
