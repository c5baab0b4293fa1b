//! Reference values reported by the paper.  The integration tests check
//! that they encode the paper's headline claims (ASR near 100%, C-ASR far
//! below it).
//!
//! Only the headline Table II cells for the GCond method are recorded here;
//! the comparison of interest is the *shape* (ASR close to 1.0, CTA close to
//! C-CTA), not the absolute numbers, because the datasets are synthetic
//! stand-ins (see "Substitutions" in the workspace README).
//!
//! **ASR protocol note.** This reproduction estimates ASR/C-ASR on a candidate
//! pool that *excludes* test nodes whose true label already equals the target
//! class (a model predicting the target class for a genuine target-class node
//! is not an attack success).  The paper samples the whole test split, so its
//! ASR and especially C-ASR columns include a `1/C`-sized fraction of such
//! free "successes"; measured C-ASR here therefore sits slightly *below* the
//! quoted reference values, and ASR differences of up to roughly one
//! target-class fraction are protocol, not reproduction, error.

use bgc_graph::DatasetKind;

/// A Table II reference cell (GCond column of the paper), values in percent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTable2Cell {
    /// Condensation ratio.
    pub ratio: f32,
    /// Clean-model clean test accuracy.
    pub c_cta: f32,
    /// Backdoored-model clean test accuracy.
    pub cta: f32,
    /// Clean-model attack success rate.
    pub c_asr: f32,
    /// Backdoored-model attack success rate.
    pub asr: f32,
}

/// Paper Table II values for the GCond condensation method.
pub fn table2_gcond_reference(dataset: DatasetKind) -> Vec<PaperTable2Cell> {
    match dataset {
        DatasetKind::Cora => vec![
            PaperTable2Cell {
                ratio: 0.013,
                c_cta: 81.33,
                cta: 81.23,
                c_asr: 11.23,
                asr: 100.0,
            },
            PaperTable2Cell {
                ratio: 0.026,
                c_cta: 81.27,
                cta: 80.67,
                c_asr: 13.42,
                asr: 100.0,
            },
            PaperTable2Cell {
                ratio: 0.052,
                c_cta: 80.53,
                cta: 80.70,
                c_asr: 11.78,
                asr: 100.0,
            },
        ],
        DatasetKind::Citeseer => vec![
            PaperTable2Cell {
                ratio: 0.009,
                c_cta: 71.43,
                cta: 71.57,
                c_asr: 16.65,
                asr: 100.0,
            },
            PaperTable2Cell {
                ratio: 0.018,
                c_cta: 72.03,
                cta: 71.03,
                c_asr: 14.64,
                asr: 100.0,
            },
            PaperTable2Cell {
                ratio: 0.036,
                c_cta: 71.20,
                cta: 70.60,
                c_asr: 16.18,
                asr: 100.0,
            },
        ],
        DatasetKind::Flickr => vec![
            PaperTable2Cell {
                ratio: 0.001,
                c_cta: 46.85,
                cta: 46.54,
                c_asr: 2.18,
                asr: 99.83,
            },
            PaperTable2Cell {
                ratio: 0.005,
                c_cta: 46.62,
                cta: 47.15,
                c_asr: 2.25,
                asr: 99.97,
            },
            PaperTable2Cell {
                ratio: 0.01,
                c_cta: 46.91,
                cta: 46.84,
                c_asr: 2.21,
                asr: 99.77,
            },
        ],
        DatasetKind::Reddit => vec![
            PaperTable2Cell {
                ratio: 0.0005,
                c_cta: 88.86,
                cta: 88.50,
                c_asr: 0.45,
                asr: 99.84,
            },
            PaperTable2Cell {
                ratio: 0.001,
                c_cta: 89.20,
                cta: 90.37,
                c_asr: 0.47,
                asr: 99.99,
            },
            PaperTable2Cell {
                ratio: 0.002,
                c_cta: 90.10,
                cta: 90.40,
                c_asr: 0.45,
                asr: 99.06,
            },
        ],
        // The arxiv-like graph is not part of the paper's Table II.
        DatasetKind::Arxiv => Vec::new(),
    }
}

/// The qualitative claims every reproduction run is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperClaim {
    /// The backdoored model's ASR approaches 1.0 in every setting (Table II).
    HighAsr,
    /// The backdoored model's CTA stays close to the clean model's CTA.
    UtilityPreserved,
    /// The clean model's ASR stays near chance level.
    CleanModelUnaffected,
    /// Naive direct poisoning of the condensed graph hurts CTA far more than
    /// BGC (Figure 1).
    NaivePoisonHurtsUtility,
    /// The defenses trade CTA for limited ASR reduction (Table IV).
    DefenseTradeOff,
}

impl PaperClaim {
    /// Human-readable statement of the claim.
    pub fn statement(&self) -> &'static str {
        match self {
            PaperClaim::HighAsr => "BGC reaches an attack success rate close to 1.0",
            PaperClaim::UtilityPreserved => "the backdoored CTA stays close to the clean CTA",
            PaperClaim::CleanModelUnaffected => "the clean model's ASR stays near chance",
            PaperClaim::NaivePoisonHurtsUtility => {
                "naive poisoning of the condensed graph degrades CTA far more than BGC"
            }
            PaperClaim::DefenseTradeOff => {
                "Prune/Randsmooth trade large CTA losses for limited ASR reduction"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_cells_match_the_paper_ratios() {
        for dataset in DatasetKind::all() {
            let cells = table2_gcond_reference(dataset);
            assert_eq!(cells.len(), 3);
            let ratios: Vec<f32> = cells.iter().map(|c| c.ratio).collect();
            assert_eq!(ratios, dataset.paper_condensation_ratios().to_vec());
            // Headline claim encoded in the reference values.
            assert!(cells.iter().all(|c| c.asr > 99.0));
            assert!(cells.iter().all(|c| (c.c_cta - c.cta).abs() < 2.0));
        }
    }

    #[test]
    fn claims_have_statements() {
        assert!(PaperClaim::HighAsr.statement().contains("1.0"));
        assert!(PaperClaim::DefenseTradeOff.statement().contains("ASR"));
    }
}
