//! The evaluation protocol shared by every table and figure: run an attack,
//! condense a clean reference, train victims, and report C-CTA / CTA /
//! C-ASR / ASR aggregated over repetitions (mean and standard deviation), as
//! in Table II of the paper.
//!
//! Attacks and condensation methods are resolved from the open registries
//! ([`bgc_core::resolve_attack`], [`bgc_condense::resolve_condenser`]) and
//! dispatched through trait objects, so registering a new attack or method
//! never touches this crate.

use serde::Serialize;

use bgc_condense::{resolve_condenser, CondensationMethod, MethodId};
use bgc_core::{
    evaluate_backdoor, resolve_attack, Attack, AttackId, BgcConfig, BgcError, EvaluationOptions,
    VictimSpec,
};
use bgc_graph::{CondensedGraph, DatasetKind, Graph};
use bgc_nn::mean_std;

use crate::scale::ExperimentScale;

pub use bgc_core::{AttackArtifacts, AttackKind};

/// One experiment configuration (a cell of Table II, or one point of a
/// figure).
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Dataset under attack.
    pub dataset: DatasetKind,
    /// Condensation method under attack (registry name).
    pub method: MethodId,
    /// Condensation ratio `r` (paper-scale value; the quick scale rescales
    /// it internally).
    pub ratio: f32,
    /// Attack to run (registry name).
    pub attack: AttackId,
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Base seed; repetition `i` uses `seed + i`.
    pub seed: u64,
}

impl RunSpec {
    /// A BGC run spec with the defaults of the paper.
    pub fn bgc(
        dataset: DatasetKind,
        method: impl Into<MethodId>,
        ratio: f32,
        scale: ExperimentScale,
    ) -> Self {
        Self {
            dataset,
            method: method.into(),
            ratio,
            attack: AttackKind::Bgc.into(),
            scale,
            seed: 17,
        }
    }
}

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
    /// An OOM placeholder row.
    pub fn oom(spec: &RunSpec) -> Self {
        Self {
            dataset: spec.dataset.to_string(),
            method: spec.method.to_string(),
            attack: spec.attack.to_string(),
            ratio: spec.ratio,
            c_cta: 0.0,
            c_cta_std: 0.0,
            cta: 0.0,
            cta_std: 0.0,
            c_asr: 0.0,
            c_asr_std: 0.0,
            asr: 0.0,
            asr_std: 0.0,
            oom: true,
        }
    }

    /// Aggregates per-repetition measurements into the paper's
    /// `mean (std)` cell (sample standard deviation over the repetitions).
    #[allow(clippy::too_many_arguments)]
    pub fn from_repetitions(
        dataset: &str,
        method: &str,
        attack: &str,
        ratio: f32,
        c_ctas: &[f32],
        ctas: &[f32],
        c_asrs: &[f32],
        asrs: &[f32],
    ) -> Self {
        let (c_cta, c_cta_std) = mean_std(c_ctas);
        let (cta, cta_std) = mean_std(ctas);
        let (c_asr, c_asr_std) = mean_std(c_asrs);
        let (asr, asr_std) = mean_std(asrs);
        Self {
            dataset: dataset.to_string(),
            method: method.to_string(),
            attack: attack.to_string(),
            ratio,
            c_cta,
            c_cta_std,
            cta,
            cta_std,
            c_asr,
            c_asr_std,
            asr,
            asr_std,
            oom: false,
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

/// Per-repetition raw measurements.
struct RepetitionOutcome {
    c_cta: f32,
    cta: f32,
    c_asr: f32,
    asr: f32,
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

/// Resolves a spec's attack from the registry.
pub(crate) fn lookup_attack(id: &AttackId) -> Result<std::sync::Arc<dyn Attack>, BgcError> {
    resolve_attack(id.as_str()).ok_or_else(|| BgcError::UnknownAttack(id.to_string()))
}

/// Resolves a spec's condensation method from the registry.
pub(crate) fn lookup_method(
    id: &MethodId,
) -> Result<std::sync::Arc<dyn CondensationMethod>, BgcError> {
    resolve_condenser(id.as_str()).ok_or_else(|| BgcError::UnknownMethod(id.to_string()))
}

fn run_once(
    attack: &dyn Attack,
    method: &dyn CondensationMethod,
    graph: &Graph,
    config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
) -> Result<RepetitionOutcome, BgcError> {
    // Clean reference condensation (shared by every attack).
    let clean = clean_stage(graph, method, config)?;
    let artifacts = attack_stage(attack, method, graph, config, Some(&clean))?;
    let backdoored = evaluate_backdoor(
        graph,
        &artifacts.condensed,
        artifacts.provider.as_ref(),
        config,
        victim,
        options,
    );
    let reference = evaluate_backdoor(
        graph,
        &clean,
        artifacts.provider.as_ref(),
        config,
        victim,
        options,
    );
    Ok(RepetitionOutcome {
        c_cta: reference.cta,
        cta: backdoored.cta,
        c_asr: reference.asr,
        asr: backdoored.asr,
    })
}

/// Runs one experiment configuration for the scale's number of repetitions
/// and aggregates the metrics.  GC-SNTK OOM conditions are reported as an
/// `oom` row rather than an error, matching Table II; every other failure
/// (including unknown attack/method names) is a typed [`BgcError`].
pub fn run_spec(spec: &RunSpec) -> Result<RunMetrics, BgcError> {
    run_spec_with(spec, |_, _| {})
}

/// Same as [`run_spec`] but lets the caller tweak the attack configuration
/// and the victim.  This is the serial reference the integration tests
/// compare the grid runner against; the ablation tables do not use it, they
/// express their deviations as [`crate::CellOverrides`].
pub fn run_spec_with(
    spec: &RunSpec,
    customize: impl Fn(&mut BgcConfig, &mut VictimSpec),
) -> Result<RunMetrics, BgcError> {
    let attack = lookup_attack(&spec.attack)?;
    let method = lookup_method(&spec.method)?;
    let mut c_ctas = Vec::new();
    let mut ctas = Vec::new();
    let mut c_asrs = Vec::new();
    let mut asrs = Vec::new();
    for rep in 0..spec.scale.repetitions() {
        let seed = spec.seed + rep as u64;
        let graph = spec.scale.load(spec.dataset, seed);
        let mut config = spec.scale.bgc_config(spec.dataset, spec.ratio, seed);
        let mut victim = spec.scale.victim_spec_for(spec.dataset);
        customize(&mut config, &mut victim);
        let options = spec.scale.evaluation_options_for(spec.dataset, seed);
        match run_once(
            attack.as_ref(),
            method.as_ref(),
            &graph,
            &config,
            &victim,
            &options,
        ) {
            Ok(outcome) => {
                c_ctas.push(outcome.c_cta);
                ctas.push(outcome.cta);
                c_asrs.push(outcome.c_asr);
                asrs.push(outcome.asr);
            }
            Err(err) if err.is_oom() => return Ok(RunMetrics::oom(spec)),
            Err(err) => return Err(err),
        }
    }
    Ok(RunMetrics::from_repetitions(
        spec.dataset.name(),
        spec.method.as_str(),
        spec.attack.as_str(),
        spec.ratio,
        &c_ctas,
        &ctas,
        &c_asrs,
        &asrs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_condense::CondensationKind;

    #[test]
    fn bgc_run_reproduces_the_headline_shape() {
        // One quick-scale Table II cell: BGC on Cora with GCond-X.
        let spec = RunSpec::bgc(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            0.026,
            ExperimentScale::Quick,
        );
        let metrics = run_spec(&spec).expect("spec runs");
        assert!(!metrics.oom);
        assert!(
            metrics.asr > 0.7,
            "BGC should reach a high ASR, got {}",
            metrics.asr
        );
        assert!(
            metrics.asr > metrics.c_asr + 0.3,
            "backdoored ASR ({}) must clearly exceed the clean model's ASR ({})",
            metrics.asr,
            metrics.c_asr
        );
        assert!(
            metrics.cta > metrics.c_cta - 0.25,
            "the CTA drop must stay bounded ({} vs {})",
            metrics.cta,
            metrics.c_cta
        );
        assert!(metrics.table_row().contains("cora"));
    }

    #[test]
    fn oom_rows_render_as_oom() {
        let spec = RunSpec::bgc(
            DatasetKind::Reddit,
            CondensationKind::GcSntk,
            0.001,
            ExperimentScale::Quick,
        );
        let row = RunMetrics::oom(&spec).table_row();
        assert!(row.contains("OOM"));
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let mut spec = RunSpec::bgc(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            0.026,
            ExperimentScale::Quick,
        );
        spec.attack = AttackId::new("Ghost");
        assert!(matches!(
            run_spec(&spec),
            Err(BgcError::UnknownAttack(name)) if name == "Ghost"
        ));
        let mut spec = RunSpec::bgc(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            0.026,
            ExperimentScale::Quick,
        );
        spec.method = MethodId::new("Vapour");
        assert!(matches!(
            run_spec(&spec),
            Err(BgcError::UnknownMethod(name)) if name == "Vapour"
        ));
    }
}
