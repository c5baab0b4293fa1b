//! The typed experiment builder — the one construction path shared by the
//! grid runner, the CLI, the examples and external callers.
//!
//! ```no_run
//! use bgc_eval::{Experiment, ExperimentScale, Runner};
//! use bgc_graph::DatasetKind;
//!
//! let experiment = Experiment::builder()
//!     .dataset(DatasetKind::Cora)
//!     .attack("BGC")
//!     .method("GCond")
//!     .ratio(0.026)
//!     .build()
//!     .expect("valid experiment");
//! let runner = Runner::new(ExperimentScale::Quick);
//! let row = experiment.run(&runner).expect("experiment runs");
//! println!("{}", row.table_row());
//! ```
//!
//! `build()` validates everything that can be validated without running:
//! registry membership of the attack/method/defense names, ratio and knob
//! ranges, and directed-attack consistency.  The built [`Experiment`] lowers
//! to a [`CellGroup`] of the same [`CellKey`](crate::CellKey)s the
//! table/figure regenerators declare, and runs through [`Runner`], so
//! builder-driven runs share cache entries with them bit-for-bit.

use bgc_condense::MethodId;
use bgc_core::{AttackId, BgcError, GeneratorKind};
use bgc_defense::DefenseId;
use bgc_graph::{DatasetKind, PoisonBudget};
use bgc_nn::{GnnArchitecture, TrainingPlan};

use crate::protocol::{lookup_attack, lookup_method, AttackKind, RunMetrics};
use crate::runner::{CellGroup, CellOverrides, EvalKind, Runner, DEFAULT_BASE_SEED};
use crate::scale::ExperimentScale;

/// A validated experiment description: one (dataset, method, attack, ratio,
/// eval mode, overrides) configuration at one scale.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Dataset under attack.
    pub dataset: DatasetKind,
    /// Condensation method under attack (registry name).
    pub method: MethodId,
    /// Attack to run (registry name).
    pub attack: AttackId,
    /// Condensation ratio.
    pub ratio: f32,
    /// Victim evaluation mode (standard or a registered defense).
    pub eval: EvalKind,
    /// Base seed; repetition `i` uses `seed + i`.
    pub seed: u64,
    /// Deviations from the scale's baseline configuration.
    pub overrides: CellOverrides,
}

impl Experiment {
    /// Starts a builder with the defaults of the paper (BGC against GCond,
    /// quick scale, seed 17, standard evaluation).
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Lowers to a grid-runner [`CellGroup`] (one key per repetition).  The
    /// runner must be at the experiment's scale.
    pub fn group(&self, runner: &Runner) -> Result<CellGroup, BgcError> {
        if runner.scale() != self.scale {
            return Err(BgcError::invalid(format!(
                "experiment is at {} scale but the runner is at {} scale",
                self.scale,
                runner.scale()
            )));
        }
        Ok(runner.group_seeded(
            self.dataset,
            self.method.clone(),
            self.attack.clone(),
            self.ratio,
            self.eval.clone(),
            self.overrides.clone(),
            self.seed,
        ))
    }

    /// Runs the experiment through the grid runner (parallel repetitions,
    /// stage sharing, disk cache) and aggregates the Table II-style row.
    pub fn run(&self, runner: &Runner) -> Result<RunMetrics, BgcError> {
        let group = self.group(runner)?;
        runner.metrics(&group)
    }
}

/// Builder for [`Experiment`]; see the module docs.
#[derive(Clone, Debug)]
pub struct ExperimentBuilder {
    scale: ExperimentScale,
    dataset: Option<DatasetKind>,
    method: MethodId,
    attack: AttackId,
    ratio: Option<f32>,
    eval: EvalKind,
    seed: u64,
    overrides: CellOverrides,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        Self {
            scale: ExperimentScale::Quick,
            dataset: None,
            method: bgc_condense::CondensationKind::GCond.into(),
            attack: AttackKind::Bgc.into(),
            ratio: None,
            eval: EvalKind::Standard,
            seed: DEFAULT_BASE_SEED,
            overrides: CellOverrides::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Experiment scale (default: quick).
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = scale;
        self
    }

    /// Dataset under attack (required).
    pub fn dataset(mut self, dataset: DatasetKind) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Condensation method, by kind or registry name (default: GCond).
    pub fn method(mut self, method: impl Into<MethodId>) -> Self {
        self.method = method.into();
        self
    }

    /// Attack, by kind or registry name (default: BGC).
    pub fn attack(mut self, attack: impl Into<AttackId>) -> Self {
        self.attack = attack.into();
        self
    }

    /// Condensation ratio (default: the dataset's middle paper ratio).
    pub fn ratio(mut self, ratio: f32) -> Self {
        self.ratio = Some(ratio);
        self
    }

    /// Evaluate the victim through a registered defense (Table IV).
    pub fn defense(mut self, defense: impl Into<DefenseId>) -> Self {
        self.eval = EvalKind::Defended(defense.into());
        self
    }

    /// Evaluation mode, parsed/constructed directly (`standard` or a defense
    /// name).
    pub fn eval(mut self, eval: EvalKind) -> Self {
        self.eval = eval;
        self
    }

    /// Victim GNN architecture (Table III; default: the scale's GCN victim).
    pub fn victim(mut self, architecture: GnnArchitecture) -> Self {
        self.overrides.architecture = Some(architecture);
        self
    }

    /// Victim layer count (Table VIII).
    pub fn num_layers(mut self, layers: usize) -> Self {
        self.overrides.num_layers = Some(layers);
        self
    }

    /// Trigger-generator encoder (Table V).
    pub fn generator(mut self, generator: GeneratorKind) -> Self {
        self.overrides.generator = Some(generator);
        self
    }

    /// Trigger size (Figure 8).
    pub fn trigger_size(mut self, size: usize) -> Self {
        self.overrides.trigger_size = Some(size);
        self
    }

    /// Condensation epochs (Figure 6).
    pub fn outer_epochs(mut self, epochs: usize) -> Self {
        self.overrides.outer_epochs = Some(epochs);
        self
    }

    /// Poisoning budget (Table VII).
    pub fn poison_budget(mut self, budget: PoisonBudget) -> Self {
        self.overrides.poison_budget = Some(budget.into());
        self
    }

    /// Directed attack from this source class (Table VI).
    pub fn source_class(mut self, class: usize) -> Self {
        self.overrides.source_class = Some(class);
        self
    }

    /// Training plan of the full-graph stages (`full` or a sampled
    /// minibatch plan; default: the scale's per-dataset choice).
    pub fn plan(mut self, plan: TrainingPlan) -> Self {
        self.overrides.plan = Some(plan);
        self
    }

    /// Base seed (default: the grid default, 17).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the description and produces the [`Experiment`].
    pub fn build(self) -> Result<Experiment, BgcError> {
        let dataset = self
            .dataset
            .ok_or_else(|| BgcError::invalid("a dataset is required (builder.dataset(..))"))?;
        // Registry membership: fail here, not mid-grid.  Resolution also
        // re-canonicalizes spellings of ids that were constructed before
        // their entry was registered.
        let attack = AttackId::new(lookup_attack(&self.attack)?.name());
        let method = MethodId::new(lookup_method(&self.method)?.name());
        let eval = match &self.eval {
            EvalKind::Standard => EvalKind::Standard,
            EvalKind::Defended(id) => {
                let defense = bgc_defense::resolve_defense(id.as_str())
                    .ok_or_else(|| BgcError::UnknownDefense(id.to_string()))?;
                EvalKind::Defended(bgc_defense::DefenseId::new(defense.name()))
            }
        };
        let ratio = self
            .ratio
            .unwrap_or_else(|| dataset.paper_condensation_ratios()[1]);
        if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.0 {
            return Err(BgcError::invalid(format!(
                "condensation ratio must lie in (0, 1], got {}",
                ratio
            )));
        }
        if self.overrides.trigger_size == Some(0) {
            return Err(BgcError::invalid("trigger size must be at least 1"));
        }
        if self.overrides.outer_epochs == Some(0) {
            return Err(BgcError::invalid("condensation needs at least one epoch"));
        }
        if self.overrides.num_layers == Some(0) {
            return Err(BgcError::invalid("the victim needs at least one layer"));
        }
        match self.overrides.poison_budget {
            Some(crate::runner::BudgetOverride::RatioBits(bits)) => {
                let r = f32::from_bits(bits);
                if !r.is_finite() || r <= 0.0 || r > 1.0 {
                    return Err(BgcError::invalid(format!(
                        "poisoning ratio must lie in (0, 1], got {}",
                        r
                    )));
                }
            }
            Some(crate::runner::BudgetOverride::Count(0)) => {
                return Err(BgcError::invalid(
                    "poisoning budget must be at least 1 node",
                ));
            }
            _ => {}
        }
        if let Some(TrainingPlan::Sampled(plan)) = &self.overrides.plan {
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
            let architecture = self.overrides.architecture.unwrap_or(GnnArchitecture::Gcn);
            let layers = self.overrides.num_layers.unwrap_or(2);
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
        if let Some(source) = self.overrides.source_class {
            let baseline = self.scale.bgc_config(dataset, ratio, self.seed);
            if source == baseline.target_class {
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
        Ok(Experiment {
            scale: self.scale,
            dataset,
            method,
            attack,
            ratio,
            eval,
            seed: self.seed,
            overrides: self.overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use bgc_condense::CondensationKind;

    #[test]
    fn builder_defaults_follow_the_paper() {
        let experiment = Experiment::builder()
            .dataset(DatasetKind::Cora)
            .build()
            .expect("defaults validate");
        assert_eq!(experiment.attack.as_str(), "BGC");
        assert_eq!(experiment.method.as_str(), "GCond");
        assert_eq!(experiment.scale, ExperimentScale::Quick);
        assert_eq!(experiment.seed, DEFAULT_BASE_SEED);
        assert_eq!(
            experiment.ratio,
            DatasetKind::Cora.paper_condensation_ratios()[1]
        );
        assert_eq!(experiment.eval, EvalKind::Standard);
    }

    #[test]
    fn builder_accepts_names_and_canonicalizes_spellings() {
        let experiment = Experiment::builder()
            .dataset(DatasetKind::Citeseer)
            .attack("gta")
            .method("gcond-x")
            .defense("PRUNE")
            .build()
            .expect("names resolve");
        assert_eq!(experiment.attack.as_str(), "GTA");
        assert_eq!(experiment.method.as_str(), "GCond-X");
        assert_eq!(experiment.eval, EvalKind::prune());
    }

    #[test]
    fn builder_rejects_invalid_descriptions() {
        // Missing dataset.
        assert!(matches!(
            Experiment::builder().build(),
            Err(BgcError::InvalidExperiment(_))
        ));
        // Unknown registry names.
        assert!(matches!(
            Experiment::builder()
                .dataset(DatasetKind::Cora)
                .attack("Ghost")
                .build(),
            Err(BgcError::UnknownAttack(name)) if name == "Ghost"
        ));
        assert!(matches!(
            Experiment::builder()
                .dataset(DatasetKind::Cora)
                .method("Vapour")
                .build(),
            Err(BgcError::UnknownMethod(name)) if name == "Vapour"
        ));
        assert!(matches!(
            Experiment::builder()
                .dataset(DatasetKind::Cora)
                .defense("moat")
                .build(),
            Err(BgcError::UnknownDefense(name)) if name == "moat"
        ));
        // Out-of-range knobs.
        for ratio in [0.0, -0.5, 1.5, f32::NAN] {
            assert!(matches!(
                Experiment::builder()
                    .dataset(DatasetKind::Cora)
                    .ratio(ratio)
                    .build(),
                Err(BgcError::InvalidExperiment(_))
            ));
        }
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .trigger_size(0)
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .num_layers(0)
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .outer_epochs(0)
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .poison_budget(PoisonBudget::Ratio(2.0))
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .poison_budget(PoisonBudget::Count(0))
            .build()
            .is_err());
        // Sampled-plan depth validation: fanout count must match the
        // victim's propagation depth.
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .plan("sampled:b64:f8x8".parse().unwrap())
            .build()
            .is_ok());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .plan("sampled:b64:f8".parse().unwrap())
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .num_layers(3)
            .plan("sampled:b64:f8x8x8".parse().unwrap())
            .build()
            .is_ok());
        // Directed-attack consistency: class 0 is the target class.
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .source_class(0)
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .source_class(99)
            .build()
            .is_err());
        assert!(Experiment::builder()
            .dataset(DatasetKind::Cora)
            .source_class(1)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_lowers_to_the_same_cell_keys_as_the_runner() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let experiment = Experiment::builder()
            .dataset(DatasetKind::Cora)
            .method(CondensationKind::GCond)
            .attack(AttackKind::Bgc)
            .ratio(0.026)
            .build()
            .unwrap();
        let from_builder = experiment.group(&runner).unwrap();
        let by_hand = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCond, 0.026);
        assert_eq!(from_builder.keys, by_hand.keys);
        // Scale mismatch is rejected up front.
        let paper_runner = Runner::in_memory(ExperimentScale::Paper);
        assert!(experiment.group(&paper_runner).is_err());
    }
}
