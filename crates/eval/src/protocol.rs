//! The Table II row type and the stage entry points of the evaluation
//! protocol.  [`crate::Runner`] is the one place that composes a cell's
//! stages (clean condensation, attack, victim training, C-CTA / CTA /
//! C-ASR / ASR estimation); it condenses the clean reference through
//! [`clean_stage`] and aggregates each row with [`RunMetrics::aggregate`].
//! [`attack_stage`] runs one attack without the runner's shared selector,
//! for tools that replay the stages one at a time.
//!
//! Attacks and condensation methods are resolved from the open registries
//! ([`bgc_core::resolve_attack`], [`bgc_condense::resolve_condenser`]) and
//! dispatched through trait objects, so registering a new attack or method
//! never touches this crate.

use serde::Serialize;

use bgc_condense::{resolve_condenser, CondensationMethod, MethodId};
use bgc_core::{resolve_attack, Attack, AttackId, BgcConfig, BgcError};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::mean_std;

use crate::runner::{CellGroup, CellResult};

pub use bgc_core::{AttackArtifacts, AttackKind};

/// Aggregated metrics of one experiment configuration (means and standard
/// deviations over the repetitions), mirroring a Table II cell.
#[derive(Clone, Debug, Serialize)]
pub struct RunMetrics {
    /// Dataset name.
    pub dataset: String,
    /// Condensation method name.
    pub method: String,
    /// Attack name.
    pub attack: String,
    /// Condensation ratio.
    pub ratio: f32,
    /// Clean-model clean test accuracy (mean).
    pub c_cta: f32,
    /// Clean-model CTA standard deviation.
    pub c_cta_std: f32,
    /// Backdoored-model clean test accuracy (mean).
    pub cta: f32,
    /// Backdoored-model CTA standard deviation.
    pub cta_std: f32,
    /// Clean-model attack success rate (mean).
    pub c_asr: f32,
    /// Clean-model ASR standard deviation.
    pub c_asr_std: f32,
    /// Backdoored-model attack success rate (mean).
    pub asr: f32,
    /// Backdoored-model ASR standard deviation.
    pub asr_std: f32,
    /// Whether the condensation method reported out-of-memory (GC-SNTK on
    /// Reddit).
    pub oom: bool,
}

impl RunMetrics {
    /// Aggregates a group's per-repetition results into the paper's
    /// `mean (std)` row (sample standard deviation over the repetitions).
    /// A group with an OOM repetition is the paper's `OOM` row, with no
    /// measurements.
    pub fn aggregate(group: &CellGroup, results: &[CellResult]) -> Self {
        let oom = results.iter().any(|r| r.oom);
        let column = |f: fn(&CellResult) -> f32| -> (f32, f32) {
            if oom {
                (0.0, 0.0)
            } else {
                mean_std(&results.iter().map(f).collect::<Vec<_>>())
            }
        };
        let (c_cta, c_cta_std) = column(|r| r.c_cta);
        let (cta, cta_std) = column(|r| r.cta);
        let (c_asr, c_asr_std) = column(|r| r.c_asr);
        let (asr, asr_std) = column(|r| r.asr);
        Self {
            dataset: group.dataset.to_string(),
            method: group.method.to_string(),
            attack: group.attack.to_string(),
            ratio: group.ratio,
            c_cta,
            c_cta_std,
            cta,
            cta_std,
            c_asr,
            c_asr_std,
            asr,
            asr_std,
            oom,
        }
    }

    /// Renders the row in the paper's `value (std)` percent format.
    pub fn table_row(&self) -> String {
        if self.oom {
            return format!(
                "{:<10} {:<9} {:<11} {:>6.2}%   OOM",
                self.dataset,
                self.method,
                self.attack,
                self.ratio * 100.0
            );
        }
        format!(
            "{:<10} {:<9} {:<11} {:>6.2}%   C-CTA {:>6.2} ({:>4.2})  CTA {:>6.2} ({:>4.2})  C-ASR {:>6.2} ({:>4.2})  ASR {:>6.2} ({:>4.2})",
            self.dataset,
            self.method,
            self.attack,
            self.ratio * 100.0,
            self.c_cta * 100.0,
            self.c_cta_std * 100.0,
            self.cta * 100.0,
            self.cta_std * 100.0,
            self.c_asr * 100.0,
            self.c_asr_std * 100.0,
            self.asr * 100.0,
            self.asr_std * 100.0
        )
    }
}

/// Clean-reference condensation stage: condenses the unpoisoned graph with
/// the method under attack (shared by every attack on the same cell
/// coordinates).
pub fn clean_stage(
    graph: &Graph,
    method: &dyn CondensationMethod,
    config: &BgcConfig,
) -> Result<CondensedGraph, BgcError> {
    Ok(method.condense(graph, &config.condensation)?)
}

/// Attack stage: runs `attack` against `method` on `graph` and returns the
/// poisoned condensed graph plus the test-time trigger provider.  Attacks
/// that report [`Attack::needs_clean_reference`] (the Naive Poison baseline)
/// receive the clean condensed graph through `clean`; every other attack
/// ignores it.  An attack that selects representative nodes trains its
/// selector in place.
pub fn attack_stage(
    attack: &dyn Attack,
    method: &dyn CondensationMethod,
    graph: &Graph,
    config: &BgcConfig,
    clean: Option<&CondensedGraph>,
) -> Result<AttackArtifacts, BgcError> {
    attack.run(graph, method, config, clean, None)
}

/// Resolves a cell's attack from the registry.
pub(crate) fn lookup_attack(id: &AttackId) -> Result<std::sync::Arc<dyn Attack>, BgcError> {
    resolve_attack(id.as_str()).ok_or_else(|| BgcError::UnknownAttack(id.to_string()))
}

/// Resolves a cell's condensation method from the registry.
pub(crate) fn lookup_method(
    id: &MethodId,
) -> Result<std::sync::Arc<dyn CondensationMethod>, BgcError> {
    resolve_condenser(id.as_str()).ok_or_else(|| BgcError::UnknownMethod(id.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalKind;
    use bgc_condense::CondensationKind;
    use bgc_graph::DatasetKind;

    #[test]
    fn aggregate_reports_mean_and_sample_std_or_the_oom_row() {
        let group = CellGroup {
            dataset: DatasetKind::Cora,
            method: CondensationKind::GCond.into(),
            attack: AttackKind::Bgc.into(),
            ratio: 0.026,
            eval: EvalKind::Standard,
            keys: Vec::new(),
        };
        let first = CellResult {
            c_cta: 0.5,
            cta: 0.25,
            c_asr: 0.0,
            asr: 1.0,
            asr_nodes: 60,
            oom: false,
        };
        let second = CellResult { cta: 0.75, ..first };
        let row = RunMetrics::aggregate(&group, &[first, second]);
        assert_eq!(row.dataset, "cora");
        assert_eq!(row.method, "GCond");
        assert_eq!(row.attack, "BGC");
        assert!(!row.oom);
        assert_eq!((row.c_cta, row.c_cta_std), (0.5, 0.0));
        assert_eq!((row.cta, row.cta_std), (0.5, 0.125f32.sqrt()));

        // One OOM repetition turns the whole row into the paper's OOM entry.
        let oom = CellResult {
            oom: true,
            ..second
        };
        let row = RunMetrics::aggregate(&group, &[first, oom]);
        assert!(row.oom);
        assert_eq!((row.cta, row.asr, row.asr_std), (0.0, 0.0, 0.0));
        assert!(row.table_row().ends_with("OOM"));
    }
}
