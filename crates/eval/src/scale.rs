//! Experiment scales.
//!
//! Every `bgc` report and cell command accepts `--scale quick|paper|large`:
//!
//! * **Quick** (default) — reduced dataset sizes (the `small_spec` presets),
//!   reduced epoch counts and a single repetition, so the entire suite runs on
//!   a laptop in minutes.  The *shape* of the paper's results (who wins, by
//!   roughly what factor) is preserved.
//! * **Paper** — Table I-sized datasets (with the historical 10–20x
//!   down-scaling of Flickr/Reddit), the paper's epoch counts and three
//!   repetitions.  Substantially slower; intended for overnight runs.
//! * **Large** — the *full* Table I node counts (89k-node Flickr, 233k-node
//!   Reddit, the 169k-node arxiv-like graph), generated through the chunked
//!   SBM path.  Full-graph training stages (the clean reference GNN, the
//!   selector) switch to neighbour-sampled minibatch plans on the big
//!   datasets, and the epoch budget is trimmed so one cell completes in
//!   minutes: this tier exists to exercise paper-scale scenarios end to end,
//!   not to converge overnight sweeps.

use std::fmt;
use std::str::FromStr;

use bgc_condense::CondensationConfig;
use bgc_core::{BgcConfig, EvaluationOptions, VictimSpec};
use bgc_graph::{DatasetKind, Graph};
use bgc_nn::{SampledPlan, TrainConfig, TrainingPlan};

/// Node count at and above which the `large` scale switches a dataset's
/// full-graph training stages to a sampled plan.
pub const SAMPLED_PLAN_NODE_THRESHOLD: usize = 20_000;

/// Quick (laptop), paper-faithful, or full-scale sampled experiment scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExperimentScale {
    /// Reduced datasets / epochs / repetitions.
    Quick,
    /// Paper-sized datasets and epoch counts.
    Paper,
    /// Full Table I node counts with sampled training plans.
    Large,
}

impl fmt::Display for ExperimentScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ExperimentScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown experiment scale '{}'", s))
    }
}

impl ExperimentScale {
    /// Parses `"quick"` / `"paper"` / `"large"` (case-insensitive).
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "quick" => Some(ExperimentScale::Quick),
            "paper" => Some(ExperimentScale::Paper),
            "large" => Some(ExperimentScale::Large),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Paper => "paper",
            ExperimentScale::Large => "large",
        }
    }

    /// Loads a dataset at this scale.
    pub fn load(&self, dataset: DatasetKind, seed: u64) -> Graph {
        match self {
            ExperimentScale::Quick => dataset.load_small(seed),
            ExperimentScale::Paper => dataset.load(seed),
            ExperimentScale::Large => dataset.load_large(seed),
        }
    }

    /// Number of repetitions per configuration (the paper repeats 3 times).
    pub fn repetitions(&self) -> usize {
        match self {
            ExperimentScale::Quick | ExperimentScale::Large => 1,
            ExperimentScale::Paper => 3,
        }
    }

    /// The training plan of full-graph stages for a dataset at this scale:
    /// sampled minibatches on the large tier's big graphs, full batch
    /// everywhere else.
    pub fn training_plan(&self, dataset: DatasetKind) -> TrainingPlan {
        match self {
            ExperimentScale::Quick | ExperimentScale::Paper => TrainingPlan::FullBatch,
            ExperimentScale::Large => {
                if dataset.large_spec().num_nodes >= SAMPLED_PLAN_NODE_THRESHOLD {
                    TrainingPlan::Sampled(SampledPlan {
                        fanouts: vec![10, 10],
                        batch_size: 1024,
                    })
                } else {
                    TrainingPlan::FullBatch
                }
            }
        }
    }

    /// Condensation configuration for a given ratio.
    ///
    /// At quick scale the paper's condensation ratios would collapse the small
    /// datasets to fewer nodes than classes, so the ratio is widened by 10x
    /// (the datasets are ~10x smaller) — the relative ordering between ratios
    /// is preserved.  The large tier keeps the paper ratios (its datasets are
    /// full scale) but trims the outer-epoch budget: each condensation step
    /// propagates a multi-hundred-thousand-node graph.
    pub fn condensation_config(&self, ratio: f32) -> CondensationConfig {
        match self {
            ExperimentScale::Quick => CondensationConfig::quick((ratio * 10.0).min(0.5)),
            ExperimentScale::Paper => CondensationConfig::paper(ratio),
            ExperimentScale::Large => CondensationConfig {
                outer_epochs: 30,
                surrogate_resample_every: 10,
                surrogate_steps: 3,
                ..CondensationConfig::paper(ratio)
            },
        }
    }

    /// BGC attack configuration for a dataset at a given condensation ratio.
    pub fn bgc_config(&self, dataset: DatasetKind, ratio: f32, seed: u64) -> BgcConfig {
        let mut config = match self {
            ExperimentScale::Quick => BgcConfig::quick(),
            ExperimentScale::Paper => BgcConfig::default(),
            ExperimentScale::Large => BgcConfig {
                // Full-graph attack stages are budgeted for one pass over a
                // 233k-node graph, not a sweep: a handful of selector epochs
                // under the sampled plan, small trigger-update samples, and
                // tightly capped computation graphs.
                selector_epochs: 4,
                generator_steps: 4,
                surrogate_steps: 3,
                update_sample_size: 16,
                max_neighbors_per_hop: 8,
                ..BgcConfig::default()
            },
        };
        config.condensation = self.condensation_config(ratio);
        config.poison_budget = self.scale_budget(dataset.paper_poison_budget());
        config.training_plan = self.training_plan(dataset);
        if *self == ExperimentScale::Quick {
            config.max_neighbors_per_hop = 8;
            config.condensation.outer_epochs = 40;
        }
        config.seed = seed;
        config
    }

    /// Rescales a paper-scale poisoning budget to this scale: the absolute
    /// poison counts of the inductive datasets shrink with the 10x-smaller
    /// quick datasets, ratio budgets are scale-free.  Shared by
    /// [`Self::bgc_config`] and the Table VII budget sweep.
    pub fn scale_budget(&self, budget: bgc_graph::PoisonBudget) -> bgc_graph::PoisonBudget {
        match (self, budget) {
            (ExperimentScale::Quick, bgc_graph::PoisonBudget::Count(c)) => {
                bgc_graph::PoisonBudget::Count((c / 10).max(4))
            }
            (_, budget) => budget,
        }
    }

    /// Victim model specification.  The victim trains on the condensed graph
    /// (tiny at every scale), so the large tier borrows the quick training
    /// budget; use [`Self::victim_spec_for`] to also carry the dataset's
    /// full-graph training plan.
    pub fn victim_spec(&self) -> VictimSpec {
        match self {
            ExperimentScale::Quick | ExperimentScale::Large => VictimSpec::quick(),
            ExperimentScale::Paper => VictimSpec {
                train: TrainConfig {
                    epochs: 400,
                    patience: None,
                    ..TrainConfig::default()
                },
                ..VictimSpec::default()
            },
        }
    }

    /// [`Self::victim_spec`] with the dataset's training plan attached (used
    /// by full-graph victim stages such as the Figure 1 reference model).
    pub fn victim_spec_for(&self, dataset: DatasetKind) -> VictimSpec {
        VictimSpec {
            plan: self.training_plan(dataset),
            ..self.victim_spec()
        }
    }

    /// ASR evaluation options.
    pub fn evaluation_options(&self, seed: u64) -> EvaluationOptions {
        EvaluationOptions {
            max_asr_nodes: match self {
                ExperimentScale::Quick => 60,
                ExperimentScale::Paper => 500,
                ExperimentScale::Large => 50,
            },
            asr_source_class: None,
            plan: TrainingPlan::FullBatch,
            seed,
        }
    }

    /// [`Self::evaluation_options`] with the dataset's plan attached: under
    /// a sampled plan the ASR computation graphs are extracted with the
    /// plan's randomized fanout caps.
    pub fn evaluation_options_for(&self, dataset: DatasetKind, seed: u64) -> EvaluationOptions {
        EvaluationOptions {
            plan: self.training_plan(dataset),
            ..self.evaluation_options(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_accepts_all_scales() {
        assert_eq!(
            ExperimentScale::parse("quick"),
            Some(ExperimentScale::Quick)
        );
        assert_eq!(
            ExperimentScale::parse("PAPER"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(
            ExperimentScale::parse("large"),
            Some(ExperimentScale::Large)
        );
        assert_eq!(ExperimentScale::parse("huge"), None);
    }

    #[test]
    fn quick_scale_is_cheaper_than_paper_scale() {
        let quick = ExperimentScale::Quick.bgc_config(DatasetKind::Cora, 0.026, 0);
        let paper = ExperimentScale::Paper.bgc_config(DatasetKind::Cora, 0.026, 0);
        assert!(quick.condensation.outer_epochs < paper.condensation.outer_epochs);
        assert!(ExperimentScale::Quick.repetitions() < ExperimentScale::Paper.repetitions());
    }

    #[test]
    fn quick_datasets_are_small() {
        let g = ExperimentScale::Quick.load(DatasetKind::Reddit, 0);
        assert!(g.num_nodes() < 2000);
    }

    #[test]
    fn inductive_poison_budget_is_scaled_down_at_quick_scale() {
        let cfg = ExperimentScale::Quick.bgc_config(DatasetKind::Flickr, 0.005, 0);
        match cfg.poison_budget {
            bgc_graph::PoisonBudget::Count(c) => assert!(c <= 8),
            other => panic!("expected a count budget, got {:?}", other),
        }
    }

    #[test]
    fn large_tier_selects_sampled_plans_for_big_graphs_only() {
        for dataset in [DatasetKind::Flickr, DatasetKind::Reddit, DatasetKind::Arxiv] {
            assert!(
                ExperimentScale::Large.training_plan(dataset).is_sampled(),
                "{} should train sampled at large scale",
                dataset
            );
        }
        for dataset in [DatasetKind::Cora, DatasetKind::Citeseer] {
            assert_eq!(
                ExperimentScale::Large.training_plan(dataset),
                TrainingPlan::FullBatch
            );
        }
        // Other scales never sample.
        for scale in [ExperimentScale::Quick, ExperimentScale::Paper] {
            assert_eq!(
                scale.training_plan(DatasetKind::Reddit),
                TrainingPlan::FullBatch
            );
        }
    }

    #[test]
    fn large_configs_carry_the_plan_through() {
        let cfg = ExperimentScale::Large.bgc_config(DatasetKind::Reddit, 0.001, 1);
        assert!(cfg.training_plan.is_sampled());
        // The paper ratio is kept (the datasets are full scale)...
        assert_eq!(cfg.condensation.ratio, 0.001);
        // ...but the epoch budget is trimmed for tractability.
        assert!(cfg.condensation.outer_epochs <= 40);
        assert!(cfg.condensation.outer_epochs >= 12);
        let victim = ExperimentScale::Large.victim_spec_for(DatasetKind::Reddit);
        assert!(victim.plan.is_sampled());
        let options = ExperimentScale::Large.evaluation_options_for(DatasetKind::Reddit, 1);
        assert!(options.plan.is_sampled());
        // Quick configs are untouched by the plan plumbing.
        let quick = ExperimentScale::Quick.bgc_config(DatasetKind::Reddit, 0.001, 1);
        assert_eq!(quick.training_plan, TrainingPlan::FullBatch);
        assert_eq!(
            ExperimentScale::Quick
                .evaluation_options_for(DatasetKind::Reddit, 1)
                .plan,
            TrainingPlan::FullBatch
        );
    }
}
