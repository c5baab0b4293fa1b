//! Benchmark datasets.
//!
//! The paper evaluates on Cora, Citeseer (transductive) and Flickr, Reddit
//! (inductive), downloaded through PyTorch-Geometric.  Those downloads are
//! not available here, so each dataset is replaced by a *class-conditioned
//! stochastic block model* whose statistics (node count, edge count, class
//! count, feature dimensionality, public split sizes) follow Table I of the
//! paper.  See "Substitutions" in the workspace README.
//!
//! Three size presets exist per dataset:
//!
//! * [`DatasetKind::small_spec`] — ~10x reduced, for tests and the `quick`
//!   experiment scale;
//! * [`DatasetKind::spec`] — the `paper` scale preset (Flickr/Reddit are
//!   still scaled down 10–20x, the historical compromise);
//! * [`DatasetKind::large_spec`] — the *full* Table I node/split counts
//!   (89k-node Flickr, 233k-node Reddit, plus an ogbn-arxiv-like 169k-node
//!   graph), generated through the chunked counting-sort path and meant for
//!   the `large` experiment scale's sampled training plans.  Feature
//!   dimensionality is capped at [`LARGE_FEATURE_CAP`] so the feature matrix
//!   stays within a laptop/CI memory envelope; the cap is recorded in the
//!   spec's `scale_note`.

pub mod synthetic;

use std::fmt;
use std::str::FromStr;

use crate::graph::{Graph, TaskSetting};
pub use synthetic::{generate_sbm_graph, generate_sbm_graph_chunked, SbmSpec};

/// Feature-dimensionality cap of the [`DatasetKind::large_spec`] presets.
pub const LARGE_FEATURE_CAP: usize = 128;

/// Node count above which [`DatasetKind::load_large`] routes through the
/// chunked generator ([`generate_sbm_graph_chunked`]).
pub const CHUNKED_GENERATION_THRESHOLD: usize = 50_000;

/// The benchmark datasets: the paper's four (Table I) plus an
/// ogbn-arxiv-like large citation graph used by the `large` scale tier.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetKind {
    /// Cora citation network (transductive).
    Cora,
    /// Citeseer citation network (transductive).
    Citeseer,
    /// Flickr image-relationship graph (inductive).
    Flickr,
    /// Reddit post-comment graph (inductive).
    Reddit,
    /// ogbn-arxiv-like citation graph (~170k nodes, 40 classes); not part of
    /// the paper's Table I — an additional large-scale scenario.
    Arxiv,
}

impl DatasetKind {
    /// The paper's four datasets in Table I order (the reports iterate
    /// these; [`DatasetKind::Arxiv`] is an extra large-scale scenario).
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Cora,
            DatasetKind::Citeseer,
            DatasetKind::Flickr,
            DatasetKind::Reddit,
        ]
    }

    /// Every known dataset, including the non-paper extras.
    pub fn extended() -> [DatasetKind; 5] {
        [
            DatasetKind::Cora,
            DatasetKind::Citeseer,
            DatasetKind::Flickr,
            DatasetKind::Reddit,
            DatasetKind::Arxiv,
        ]
    }

    /// Lower-case dataset name as used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cora => "cora",
            DatasetKind::Citeseer => "citeseer",
            DatasetKind::Flickr => "flickr",
            DatasetKind::Reddit => "reddit",
            DatasetKind::Arxiv => "arxiv",
        }
    }

    /// Transductive or inductive protocol (Table I).
    pub fn setting(&self) -> TaskSetting {
        match self {
            DatasetKind::Cora | DatasetKind::Citeseer | DatasetKind::Arxiv => {
                TaskSetting::Transductive
            }
            DatasetKind::Flickr | DatasetKind::Reddit => TaskSetting::Inductive,
        }
    }

    /// The condensation ratios the paper evaluates for this dataset
    /// (Section V, "Runtime Configuration"; arxiv follows the GCond sweep).
    pub fn paper_condensation_ratios(&self) -> [f32; 3] {
        match self {
            DatasetKind::Cora => [0.013, 0.026, 0.052],
            DatasetKind::Citeseer => [0.009, 0.018, 0.036],
            DatasetKind::Flickr => [0.001, 0.005, 0.01],
            DatasetKind::Reddit => [0.0005, 0.001, 0.002],
            DatasetKind::Arxiv => [0.0005, 0.0025, 0.005],
        }
    }

    /// Default poisoning budget: a ratio of the training set for the
    /// transductive datasets, an absolute node count for the inductive ones
    /// (Section V: 0.1 / 0.1 / 80 / 180; arxiv gets a Reddit-like count).
    pub fn paper_poison_budget(&self) -> PoisonBudget {
        match self {
            DatasetKind::Cora | DatasetKind::Citeseer => PoisonBudget::Ratio(0.1),
            DatasetKind::Flickr => PoisonBudget::Count(80),
            DatasetKind::Reddit => PoisonBudget::Count(180),
            DatasetKind::Arxiv => PoisonBudget::Count(120),
        }
    }

    /// The `paper`-scale generator specification mimicking Table I.
    ///
    /// Flickr and Reddit are scaled down (the originals have 89k / 233k nodes
    /// and up to 57M edges) and arxiv 10x down; the scaling factor is
    /// recorded in [`SbmSpec::scale_note`].  [`DatasetKind::large_spec`]
    /// restores the full node counts.
    pub fn spec(&self) -> SbmSpec {
        match self {
            DatasetKind::Cora => SbmSpec {
                name: "cora",
                num_nodes: 2708,
                num_classes: 7,
                num_features: 1433,
                avg_degree: 4.0,
                homophily: 0.81,
                feature_noise: 1.0,
                train_size: 140,
                val_size: 500,
                test_size: 1000,
                setting: TaskSetting::Transductive,
                scale_note: None,
            },
            DatasetKind::Citeseer => SbmSpec {
                name: "citeseer",
                num_nodes: 3327,
                num_classes: 6,
                num_features: 3703,
                avg_degree: 2.8,
                homophily: 0.74,
                feature_noise: 1.1,
                train_size: 120,
                val_size: 500,
                test_size: 1000,
                setting: TaskSetting::Transductive,
                scale_note: None,
            },
            DatasetKind::Flickr => SbmSpec {
                name: "flickr",
                num_nodes: 8925,
                num_classes: 7,
                num_features: 500,
                avg_degree: 10.0,
                homophily: 0.32,
                feature_noise: 2.2,
                train_size: 4462,
                val_size: 2231,
                test_size: 2231,
                setting: TaskSetting::Inductive,
                scale_note: Some("scaled 10x from 89,250 nodes; 40 classes collapsed to 7"),
            },
            DatasetKind::Reddit => SbmSpec {
                name: "reddit",
                num_nodes: 11648,
                num_classes: 10,
                num_features: 602,
                avg_degree: 25.0,
                homophily: 0.78,
                feature_noise: 1.2,
                train_size: 7696,
                val_size: 1184,
                test_size: 2766,
                setting: TaskSetting::Inductive,
                scale_note: Some("scaled 20x from 232,965 nodes; 210 classes collapsed to 10"),
            },
            DatasetKind::Arxiv => SbmSpec {
                name: "arxiv",
                num_nodes: 16934,
                num_classes: 40,
                num_features: 128,
                avg_degree: 13.0,
                homophily: 0.65,
                feature_noise: 1.3,
                train_size: 9094,
                val_size: 2980,
                test_size: 4860,
                setting: TaskSetting::Transductive,
                scale_note: Some("scaled 10x from 169,343 nodes (ogbn-arxiv-like)"),
            },
        }
    }

    /// The full-scale specification: Table I node and split counts (89,250 /
    /// 232,965 nodes for Flickr / Reddit, 169,343 for the arxiv-like graph),
    /// with the feature dimensionality capped at [`LARGE_FEATURE_CAP`] to
    /// bound the feature-matrix footprint.  Cora and Citeseer are already
    /// full scale, so their large spec equals [`DatasetKind::spec`].
    pub fn large_spec(&self) -> SbmSpec {
        match self {
            DatasetKind::Cora | DatasetKind::Citeseer => self.spec(),
            DatasetKind::Flickr => SbmSpec {
                num_nodes: 89_250,
                train_size: 44_625,
                val_size: 22_312,
                test_size: 22_313,
                num_features: LARGE_FEATURE_CAP,
                scale_note: Some(
                    "full 89,250-node scale; features capped at 128 (from 500) for memory",
                ),
                ..self.spec()
            },
            DatasetKind::Reddit => SbmSpec {
                num_nodes: 232_965,
                train_size: 153_431,
                val_size: 23_831,
                test_size: 55_703,
                num_features: LARGE_FEATURE_CAP,
                scale_note: Some(
                    "full 232,965-node scale; features capped at 128 (from 602) for memory",
                ),
                ..self.spec()
            },
            DatasetKind::Arxiv => SbmSpec {
                num_nodes: 169_343,
                train_size: 90_941,
                val_size: 29_799,
                test_size: 48_603,
                num_features: LARGE_FEATURE_CAP,
                scale_note: Some("full 169,343-node scale (ogbn-arxiv-like)"),
                ..self.spec()
            },
        }
    }

    /// A reduced specification used by fast tests and the `quick` experiment
    /// scale: same class structure and split proportions, ~10x fewer nodes
    /// and a much smaller feature dimensionality.
    pub fn small_spec(&self) -> SbmSpec {
        let full = self.spec();
        let num_nodes = (full.num_nodes / 10).max(120).max(full.num_classes * 8);
        let train_size = (full.train_size * num_nodes / full.num_nodes).max(4 * full.num_classes);
        let val_size = (full.val_size * num_nodes / full.num_nodes).max(2 * full.num_classes);
        let test_size = (full.test_size * num_nodes / full.num_nodes).max(4 * full.num_classes);
        SbmSpec {
            num_nodes,
            num_features: full.num_features.min(64),
            train_size,
            val_size,
            test_size,
            scale_note: Some("reduced preset for fast tests / quick experiments"),
            ..full
        }
    }

    /// Generates the `paper`-scale graph for this dataset.
    pub fn load(&self, seed: u64) -> Graph {
        generate_sbm_graph(&self.spec(), seed)
    }

    /// Generates the reduced graph for this dataset.
    pub fn load_small(&self, seed: u64) -> Graph {
        generate_sbm_graph(&self.small_spec(), seed)
    }

    /// Generates the full-scale graph for this dataset, routing through the
    /// chunked counting-sort generator above
    /// [`CHUNKED_GENERATION_THRESHOLD`] nodes.
    pub fn load_large(&self, seed: u64) -> Graph {
        let spec = self.large_spec();
        if spec.num_nodes >= CHUNKED_GENERATION_THRESHOLD {
            generate_sbm_graph_chunked(&spec, seed)
        } else {
            generate_sbm_graph(&spec, seed)
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DatasetKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DatasetKind::extended()
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown dataset '{}'", s))
    }
}

/// Poisoning budget `Delta_P`: either a fraction of the training set or an
/// absolute node count.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum PoisonBudget {
    /// Fraction of the training nodes.
    Ratio(f32),
    /// Absolute number of nodes.
    Count(usize),
}

impl PoisonBudget {
    /// Resolves the budget to an absolute node count given the training-set
    /// size (at least 1).
    pub fn resolve(&self, train_size: usize) -> usize {
        match *self {
            PoisonBudget::Ratio(r) => ((train_size as f32 * r).round() as usize).max(1),
            PoisonBudget::Count(c) => c.min(train_size).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_one_statistics() {
        let cora = DatasetKind::Cora.spec();
        assert_eq!(cora.num_nodes, 2708);
        assert_eq!(cora.num_classes, 7);
        assert_eq!(cora.num_features, 1433);
        assert_eq!(
            (cora.train_size, cora.val_size, cora.test_size),
            (140, 500, 1000)
        );

        let citeseer = DatasetKind::Citeseer.spec();
        assert_eq!(citeseer.num_nodes, 3327);
        assert_eq!(citeseer.num_classes, 6);

        assert!(DatasetKind::Flickr.spec().scale_note.is_some());
        assert!(DatasetKind::Reddit.spec().scale_note.is_some());
    }

    #[test]
    fn large_specs_restore_paper_node_counts() {
        assert_eq!(DatasetKind::Flickr.large_spec().num_nodes, 89_250);
        assert_eq!(DatasetKind::Reddit.large_spec().num_nodes, 232_965);
        assert_eq!(DatasetKind::Arxiv.large_spec().num_nodes, 169_343);
        // Reddit's full split counts follow Table I.
        let reddit = DatasetKind::Reddit.large_spec();
        assert_eq!(
            (reddit.train_size, reddit.val_size, reddit.test_size),
            (153_431, 23_831, 55_703)
        );
        // Features are capped for memory; class structure is preserved.
        assert_eq!(reddit.num_features, LARGE_FEATURE_CAP);
        assert_eq!(reddit.num_classes, DatasetKind::Reddit.spec().num_classes);
        // Cora/Citeseer are already full scale.
        assert_eq!(DatasetKind::Cora.large_spec().num_nodes, 2708);
        // Splits stay within the node budget.
        for kind in DatasetKind::extended() {
            let spec = kind.large_spec();
            assert!(spec.train_size + spec.val_size + spec.test_size <= spec.num_nodes);
        }
    }

    #[test]
    fn names_round_trip_through_display_and_from_str() {
        for kind in DatasetKind::extended() {
            assert_eq!(kind.to_string().parse::<DatasetKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_ascii_uppercase().parse::<DatasetKind>(),
                Ok(kind)
            );
        }
        assert!("imagenet".parse::<DatasetKind>().is_err());
    }

    #[test]
    fn paper_table_keeps_four_datasets() {
        // The reports iterate `all()`: adding arxiv must not change the
        // paper-table sweeps (it is reachable via `extended()` / the CLI).
        assert_eq!(DatasetKind::all().len(), 4);
        assert!(!DatasetKind::all().contains(&DatasetKind::Arxiv));
        assert!(DatasetKind::extended().contains(&DatasetKind::Arxiv));
    }

    #[test]
    fn settings_follow_the_paper() {
        assert_eq!(DatasetKind::Cora.setting(), TaskSetting::Transductive);
        assert_eq!(DatasetKind::Reddit.setting(), TaskSetting::Inductive);
        assert_eq!(DatasetKind::Arxiv.setting(), TaskSetting::Transductive);
    }

    #[test]
    fn poison_budget_resolution() {
        assert_eq!(PoisonBudget::Ratio(0.1).resolve(140), 14);
        assert_eq!(PoisonBudget::Count(80).resolve(1000), 80);
        assert_eq!(PoisonBudget::Count(80).resolve(10), 10);
        assert_eq!(PoisonBudget::Ratio(0.0).resolve(100), 1);
    }

    #[test]
    fn small_specs_are_small_but_consistent() {
        for kind in DatasetKind::extended() {
            let small = kind.small_spec();
            let full = kind.spec();
            assert!(small.num_nodes < full.num_nodes);
            assert_eq!(small.num_classes, full.num_classes);
            assert!(small.train_size + small.val_size + small.test_size <= small.num_nodes);
        }
    }

    #[test]
    fn small_graphs_generate_quickly_and_validate() {
        let g = DatasetKind::Cora.load_small(7);
        assert_eq!(g.num_classes, 7);
        assert!(g.num_nodes() >= 120);
        assert!(
            g.edge_homophily() > 0.5,
            "Cora-like graph should be homophilous"
        );
    }

    #[test]
    fn arxiv_small_graph_generates() {
        let g = DatasetKind::Arxiv.load_small(3);
        assert_eq!(g.num_classes, 40);
        assert!(g.split.train.len() >= 160);
    }
}
