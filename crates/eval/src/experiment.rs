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
//! registry membership of the attack/method/defense names, the ratio, and
//! the cell's [`CellOverrides`] ([`CellOverrides::validate`]).  The built
//! [`Experiment`] lowers to a [`CellGroup`] of the same
//! [`CellKey`](crate::CellKey)s the table/figure regenerators declare, and
//! runs through [`Runner`], so builder-driven runs share cache entries with
//! them bit-for-bit.

use bgc_condense::MethodId;
use bgc_core::{AttackId, BgcError};
use bgc_defense::DefenseId;
use bgc_graph::DatasetKind;

use crate::overrides::CellOverrides;
use crate::protocol::{lookup_attack, lookup_method, AttackKind, RunMetrics};
use crate::runner::{CellGroup, EvalKind, Runner, DEFAULT_BASE_SEED};
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

    /// Deviations from the scale's baseline configuration (default: none):
    /// victim architecture and depth, trigger generator and size,
    /// condensation epochs, poisoning budget, directed source class and
    /// training plan.
    pub fn overrides(mut self, overrides: CellOverrides) -> Self {
        self.overrides = overrides;
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
        self.overrides.validate(self.scale, dataset, ratio)?;
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
    use bgc_graph::PoisonBudget;
    use bgc_nn::TrainingPlan;

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
        // Out-of-range overrides.
        let with = |overrides: CellOverrides| {
            Experiment::builder()
                .dataset(DatasetKind::Cora)
                .overrides(overrides)
                .build()
        };
        let plan = |text: &str| Some(text.parse::<TrainingPlan>().unwrap());
        for invalid in [
            CellOverrides {
                trigger_size: Some(0),
                ..CellOverrides::default()
            },
            CellOverrides {
                num_layers: Some(0),
                ..CellOverrides::default()
            },
            CellOverrides {
                outer_epochs: Some(0),
                ..CellOverrides::default()
            },
            CellOverrides {
                poison_budget: Some(PoisonBudget::Ratio(2.0).into()),
                ..CellOverrides::default()
            },
            CellOverrides {
                poison_budget: Some(PoisonBudget::Count(0).into()),
                ..CellOverrides::default()
            },
            // Sampled-plan depth validation: the fanout count must match
            // the victim's propagation depth.
            CellOverrides {
                plan: plan("sampled:b64:f8"),
                ..CellOverrides::default()
            },
            // Directed-attack consistency: class 0 is the target class.
            CellOverrides {
                source_class: Some(0),
                ..CellOverrides::default()
            },
            CellOverrides {
                source_class: Some(99),
                ..CellOverrides::default()
            },
        ] {
            assert!(
                matches!(with(invalid.clone()), Err(BgcError::InvalidExperiment(_))),
                "{:?}",
                invalid
            );
        }
        for valid in [
            CellOverrides {
                plan: plan("sampled:b64:f8x8"),
                ..CellOverrides::default()
            },
            CellOverrides {
                num_layers: Some(3),
                plan: plan("sampled:b64:f8x8x8"),
                ..CellOverrides::default()
            },
            CellOverrides {
                source_class: Some(1),
                ..CellOverrides::default()
            },
        ] {
            assert!(with(valid.clone()).is_ok(), "{:?}", valid);
        }
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
