//! Naive Poison: inject triggers directly into the condensed graph.
//!
//! This is the strawman of Figure 1: because the condensed graph has only a
//! handful of nodes, appending trigger nodes and flipping labels inside it
//! wrecks the GNN utility (CTA) even though the attack itself can succeed.

use rand::Rng;

use bgc_graph::CondensedGraph;
use bgc_tensor::init::{randn, rng_from_seed, sample_without_replacement};
use bgc_tensor::Matrix;

use crate::trigger::UniversalTrigger;

/// Configuration of the naive direct-injection attack.
#[derive(Clone, Debug)]
pub struct NaivePoisonConfig {
    /// Attacker target class.
    pub target_class: usize,
    /// Trigger size (nodes appended per poisoned synthetic node).
    pub trigger_size: usize,
    /// Fraction of synthetic nodes that receive a trigger and the target
    /// label.
    pub poison_fraction: f32,
    /// Random seed.
    pub seed: u64,
}

impl Default for NaivePoisonConfig {
    fn default() -> Self {
        Self {
            target_class: 0,
            trigger_size: 4,
            poison_fraction: 0.3,
            seed: 0,
        }
    }
}

/// Result of the naive attack.
pub struct NaivePoisonOutcome {
    /// The directly-poisoned condensed graph.
    pub condensed: CondensedGraph,
    /// The universal trigger pattern injected (reused at test time).
    pub trigger: UniversalTrigger,
    /// Synthetic node indices that were poisoned.
    pub poisoned_synthetic_nodes: Vec<usize>,
}

/// The Naive-Poison baseline attack.
pub struct NaivePoisonAttack {
    /// Attack configuration.
    pub config: NaivePoisonConfig,
}

impl NaivePoisonAttack {
    /// Creates the attack.
    pub fn new(config: NaivePoisonConfig) -> Self {
        Self { config }
    }

    /// Injects the trigger into an already condensed graph.
    pub fn poison_condensed(
        &self,
        clean: &CondensedGraph,
        feature_dim: usize,
    ) -> NaivePoisonOutcome {
        let mut rng = rng_from_seed(self.config.seed ^ 0x4e50);
        let trigger_features = randn(self.config.trigger_size, feature_dim, 0.0, 1.0, &mut rng)
            .l2_normalize_rows()
            .scale(2.0);
        let n = clean.num_nodes();
        let num_poison = ((n as f32 * self.config.poison_fraction).round() as usize).clamp(1, n);
        let poisoned = sample_without_replacement(n, num_poison, &mut rng);

        // Append one shared trigger block per poisoned synthetic node and
        // rewire: trigger nodes fully connected, linked to the poisoned node.
        let t = self.config.trigger_size;
        let total = n + poisoned.len() * t;
        let mut features = Matrix::zeros(total, feature_dim);
        for i in 0..n {
            features.row_mut(i).copy_from_slice(clean.features.row(i));
        }
        let mut adjacency = Matrix::zeros(total, total);
        for r in 0..n {
            for c in 0..n {
                adjacency.set(r, c, clean.adjacency.get(r, c));
            }
        }
        let mut labels = clean.labels.clone();
        for (j, &p) in poisoned.iter().enumerate() {
            labels[p] = self.config.target_class;
            let base = n + j * t;
            for a in 0..t {
                features
                    .row_mut(base + a)
                    .copy_from_slice(trigger_features.row(a));
                labels.push(self.config.target_class);
                for b in 0..t {
                    if a != b {
                        adjacency.set(base + a, base + b, 1.0);
                    }
                }
            }
            adjacency.set(p, base, 1.0);
            adjacency.set(base, p, 1.0);
            // Random extra noise edge to another synthetic node, making the
            // injection even more disruptive (as naive attackers do).
            let other = rng.gen_range(0..n);
            adjacency.set(other, base, 1.0);
            adjacency.set(base, other, 1.0);
        }
        let condensed = CondensedGraph::new(features, adjacency, labels, clean.num_classes);
        NaivePoisonOutcome {
            condensed,
            trigger: UniversalTrigger::new(trigger_features),
            poisoned_synthetic_nodes: poisoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::randn;

    fn clean_condensed() -> CondensedGraph {
        let mut rng = rng_from_seed(1);
        let features = randn(10, 6, 0.0, 1.0, &mut rng);
        CondensedGraph::structure_free(features, vec![0, 0, 1, 1, 1, 2, 2, 0, 1, 2], 3)
    }

    #[test]
    fn poisoning_grows_the_graph_and_relabels() {
        let clean = clean_condensed();
        let attack = NaivePoisonAttack::new(NaivePoisonConfig {
            poison_fraction: 0.4,
            ..Default::default()
        });
        let outcome = attack.poison_condensed(&clean, 6);
        assert_eq!(outcome.poisoned_synthetic_nodes.len(), 4);
        assert_eq!(outcome.condensed.num_nodes(), 10 + 4 * 4);
        for &p in &outcome.poisoned_synthetic_nodes {
            assert_eq!(outcome.condensed.labels[p], 0);
        }
        // Appended trigger nodes all carry the target label.
        for i in 10..outcome.condensed.num_nodes() {
            assert_eq!(outcome.condensed.labels[i], 0);
        }
        assert_eq!(outcome.trigger.features.shape(), (4, 6));
    }

    #[test]
    fn poison_fraction_is_clamped() {
        let clean = clean_condensed();
        let attack = NaivePoisonAttack::new(NaivePoisonConfig {
            poison_fraction: 5.0,
            ..Default::default()
        });
        let outcome = attack.poison_condensed(&clean, 6);
        assert_eq!(outcome.poisoned_synthetic_nodes.len(), 10);
    }
}
