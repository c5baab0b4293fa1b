//! A cell's overrides: the one declaration of how a cell departs from its
//! scale's baseline configuration.
//!
//! The paper varies a cell one factor at a time: victim architecture and
//! depth (Tables III and VIII), trigger generator (Table V), directed source
//! class (Table VI), poisoning budget (Table VII), condensation epochs and
//! trigger size (Figures 6 and 8); the large tier adds the training plan.
//! [`CellOverrides`] owns every decision about such a factor: which values
//! are valid ([`CellOverrides::validate`]), which equal the baseline
//! ([`CellOverrides::normalized`]), how it changes a cell's inputs
//! ([`CellOverrides::apply`]) and its part of the cell canon.  The `bgc` CLI
//! parses each experiment flag straight into one value, and the experiment
//! builder takes it whole, so a new override is one field plus its arms
//! here.

use bgc_core::{
    directed_attack, BgcConfig, BgcError, EvaluationOptions, GeneratorKind, VictimSpec,
};
use bgc_graph::{DatasetKind, PoisonBudget};
use bgc_nn::{GnnArchitecture, TrainingPlan};

use crate::runner::DEFAULT_BASE_SEED;
use crate::scale::ExperimentScale;

/// A poisoning-budget override, hashable (the ratio is stored as f32 bits).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BudgetOverride {
    /// Fraction of the training nodes (stored as `f32::to_bits`).
    RatioBits(u32),
    /// Absolute number of nodes.
    Count(usize),
}

impl From<PoisonBudget> for BudgetOverride {
    fn from(budget: PoisonBudget) -> Self {
        match budget {
            PoisonBudget::Ratio(r) => BudgetOverride::RatioBits(r.to_bits()),
            PoisonBudget::Count(c) => BudgetOverride::Count(c),
        }
    }
}

impl BudgetOverride {
    /// Converts back to the graph crate's budget type.
    pub fn to_budget(self) -> PoisonBudget {
        match self {
            BudgetOverride::RatioBits(bits) => PoisonBudget::Ratio(f32::from_bits(bits)),
            BudgetOverride::Count(c) => PoisonBudget::Count(c),
        }
    }

    fn canon(&self) -> String {
        match self {
            BudgetOverride::RatioBits(bits) => format!("ratio{:08x}", bits),
            BudgetOverride::Count(c) => format!("count{}", c),
        }
    }
}

/// Deviations of a cell from the scale's baseline configuration, and the
/// only way a cell departs from its scale's defaults.
///
/// `None` means "the scale's default"; `Runner::group` normalizes overrides
/// that equal the baseline back to `None` ([`CellOverrides::normalized`]),
/// so semantically identical cells from different tables share one cache
/// entry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellOverrides {
    /// Trigger-generator encoder (Table V).
    pub generator: Option<GeneratorKind>,
    /// Trigger size (Figure 8).
    pub trigger_size: Option<usize>,
    /// Condensation epochs (Figure 6).
    pub outer_epochs: Option<usize>,
    /// Poisoning budget (Table VII).
    pub poison_budget: Option<BudgetOverride>,
    /// Directed attack from this source class; also restricts the ASR
    /// estimate to that class (Table VI).
    pub source_class: Option<usize>,
    /// Victim architecture (Table III).
    pub architecture: Option<GnnArchitecture>,
    /// Victim layer count (Table VIII).
    pub num_layers: Option<usize>,
    /// Training plan of full-graph stages (the selector's training and the
    /// ASR computation-graph extraction).  `None` means the scale's
    /// per-dataset default (sampled on the large tier's big graphs, full
    /// batch elsewhere).
    pub plan: Option<TrainingPlan>,
}

/// The scale's attack configuration of a cell on `dataset` at `ratio`, the
/// baseline the overrides deviate from.  The seed is the grid default: a
/// cell's seed sets only `BgcConfig::seed`, which no override replaces.
fn baseline(scale: ExperimentScale, dataset: DatasetKind, ratio: f32) -> BgcConfig {
    scale.bgc_config(dataset, ratio, DEFAULT_BASE_SEED)
}

impl CellOverrides {
    /// Applies the overrides to a cell's inputs.
    pub fn apply(
        &self,
        config: &mut BgcConfig,
        victim: &mut VictimSpec,
        options: &mut EvaluationOptions,
    ) {
        if let Some(generator) = self.generator {
            config.generator = generator;
        }
        if let Some(trigger_size) = self.trigger_size {
            config.trigger_size = trigger_size;
        }
        if let Some(epochs) = self.outer_epochs {
            config.condensation.outer_epochs = epochs;
        }
        if let Some(budget) = self.poison_budget {
            config.poison_budget = budget.to_budget();
        }
        if let Some(source) = self.source_class {
            *config = directed_attack(config, source);
            options.asr_source_class = Some(source);
        }
        if let Some(architecture) = self.architecture {
            victim.architecture = architecture;
        }
        if let Some(layers) = self.num_layers {
            victim.num_layers = layers;
        }
        if let Some(plan) = &self.plan {
            config.training_plan = plan.clone();
            options.plan = plan.clone();
        }
    }

    /// The overrides with every field that equals the scale's baseline for
    /// a cell on `dataset` at `ratio` reset to `None`.
    pub fn normalized(mut self, scale: ExperimentScale, dataset: DatasetKind, ratio: f32) -> Self {
        let baseline = baseline(scale, dataset, ratio);
        let victim = scale.victim_spec();
        if self.generator == Some(baseline.generator) {
            self.generator = None;
        }
        if self.trigger_size == Some(baseline.trigger_size) {
            self.trigger_size = None;
        }
        if self.outer_epochs == Some(baseline.condensation.outer_epochs) {
            self.outer_epochs = None;
        }
        if self.poison_budget.map(BudgetOverride::to_budget) == Some(baseline.poison_budget) {
            self.poison_budget = None;
        }
        if self.architecture == Some(victim.architecture) {
            self.architecture = None;
        }
        if self.num_layers == Some(victim.num_layers) {
            self.num_layers = None;
        }
        if self.plan.as_ref() == Some(&baseline.training_plan) {
            self.plan = None;
        }
        self
    }

    /// Rejects overrides no cell on `dataset` at `ratio` can run with:
    /// zero sizes, epochs and layers, out-of-range budgets, sampled plans
    /// that do not match the victim's depth, and directed attacks from the
    /// target class or a class the dataset lacks.
    pub fn validate(
        &self,
        scale: ExperimentScale,
        dataset: DatasetKind,
        ratio: f32,
    ) -> Result<(), BgcError> {
        if self.trigger_size == Some(0) {
            return Err(BgcError::invalid("trigger size must be at least 1"));
        }
        if self.outer_epochs == Some(0) {
            return Err(BgcError::invalid("condensation needs at least one epoch"));
        }
        if self.num_layers == Some(0) {
            return Err(BgcError::invalid("the victim needs at least one layer"));
        }
        match self.poison_budget {
            Some(BudgetOverride::RatioBits(bits)) => {
                let r = f32::from_bits(bits);
                if !r.is_finite() || r <= 0.0 || r > 1.0 {
                    return Err(BgcError::invalid(format!(
                        "poisoning ratio must lie in (0, 1], got {}",
                        r
                    )));
                }
            }
            Some(BudgetOverride::Count(0)) => {
                return Err(BgcError::invalid(
                    "poisoning budget must be at least 1 node",
                ));
            }
            _ => {}
        }
        if let Some(TrainingPlan::Sampled(plan)) = &self.plan {
            if plan.batch_size == 0 {
                return Err(BgcError::invalid(
                    "sampled plans need a non-zero batch size",
                ));
            }
            if plan.fanouts.is_empty() {
                return Err(BgcError::invalid(
                    "sampled plans need at least one fanout (one per propagation step)",
                ));
            }
            // Victims train full batch, but the ASR evaluation extracts each
            // triggered computation graph with the plan's fanouts, one hop
            // per fanout (`attach_for_evaluation`).  An explicitly requested
            // plan must therefore provide one fanout per propagation step of
            // the victim, so the extraction is as deep as the victim's
            // receptive field (the selector GCN adapts any plan to its fixed
            // depth).
            let victim = scale.victim_spec();
            let architecture = self.architecture.unwrap_or(victim.architecture);
            let layers = self.num_layers.unwrap_or(victim.num_layers);
            if let Some(depth) = architecture.propagation_depth(layers) {
                if plan.fanouts.len() != depth {
                    return Err(BgcError::invalid(format!(
                        "the sampled plan provides {} fanouts but a {}-layer {} victim \
                         performs {} propagation steps — pass one fanout per step",
                        plan.fanouts.len(),
                        layers,
                        architecture,
                        depth
                    )));
                }
            }
        }
        if let Some(source) = self.source_class {
            if source == baseline(scale, dataset, ratio).target_class {
                return Err(BgcError::invalid(format!(
                    "directed source class {} equals the attack's target class",
                    source
                )));
            }
            let num_classes = dataset.spec().num_classes;
            if source >= num_classes {
                return Err(BgcError::invalid(format!(
                    "source class {} is out of range for {} ({} classes)",
                    source,
                    dataset.name(),
                    num_classes
                )));
            }
        }
        Ok(())
    }

    /// Fixed-order canonical encoding (part of [`CellKey::canon`](crate::CellKey::canon)).
    pub(crate) fn canon(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or_else(|| "-".to_string(), T::to_string)
        }
        let mut canon = format!(
            "gen={}|tsz={}|ep={}|budget={}|src={}|arch={}|layers={}",
            self.generator.map_or("-", |g| g.name()),
            opt(&self.trigger_size),
            opt(&self.outer_epochs),
            self.poison_budget
                .map_or_else(|| "-".to_string(), |b| b.canon()),
            opt(&self.source_class),
            self.architecture.map_or("-", |a| a.name()),
            opt(&self.num_layers),
        );
        // Appended only when set: pre-plan cell canons (and the `eval` store
        // keys built from them) must stay byte-identical.
        if let Some(plan) = &self.plan {
            canon.push_str(&format!("|plan={}", plan));
        }
        canon
    }
}
