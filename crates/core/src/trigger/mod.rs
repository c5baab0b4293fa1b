//! Triggers (Section IV-C, Eq. 10–11): BGC's adaptive generator and the
//! baselines' universal trigger, both behind [`TriggerProvider`].  Its one
//! method, [`TriggerProvider::triggers`], returns the trigger blocks of a
//! batch of nodes: the attack loop reads `G_P`'s trigger rows from it every
//! epoch, and the ASR evaluation reads its whole node sample in one call.

pub mod generator;

pub use generator::{GeneratorSnapshot, TriggerBatch, TriggerGenerator};

use std::sync::Arc;

use bgc_nn::AdjacencyRef;
use bgc_tensor::{Matrix, Tape};

/// Plain-data image of a trigger provider, used by the artifact store to
/// persist attack outputs across processes.  Third-party providers registered
/// through [`crate::register_attack`] may not be snapshottable; their attack
/// artifacts simply stay process-local.
#[derive(Clone, Debug)]
pub enum TriggerSnapshot {
    /// BGC's adaptive generator with all of its weights.
    Generator(GeneratorSnapshot),
    /// A sample-agnostic universal trigger block.
    Universal(Matrix),
}

impl TriggerSnapshot {
    /// Rebuilds the provider this snapshot was taken from.  Returns `None`
    /// for structurally invalid generator snapshots (treated as corruption
    /// by store read paths).
    pub fn into_provider(self) -> Option<Arc<dyn TriggerProvider + Send + Sync>> {
        match self {
            TriggerSnapshot::Generator(snap) => {
                let gen = TriggerGenerator::from_snapshot(snap)?;
                Some(Arc::new(gen))
            }
            TriggerSnapshot::Universal(features) => {
                if features.rows() == 0 {
                    return None;
                }
                Some(Arc::new(UniversalTrigger::new(features)))
            }
        }
    }
}

/// Anything that can produce the trigger features of nodes: BGC's adaptive
/// generator, or the universal trigger of the DOORPING and Naive-Poison
/// baselines.
pub trait TriggerProvider {
    /// Number of trigger nodes produced per poisoned/target node.
    fn trigger_size(&self) -> usize;

    /// Trigger node features of `nodes`: one `trigger_size x d` block per
    /// node, stacked in order, computed on the pooled `tape` (providers
    /// without a differentiable generator ignore it).  A batch gives every
    /// node the bits a one-node call gives it.
    fn triggers(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> Matrix;

    /// Plain-data image of this provider for artifact persistence, or `None`
    /// when the provider cannot be snapshotted (the default for third-party
    /// providers), in which case its artifacts stay process-local.
    fn snapshot(&self) -> Option<TriggerSnapshot> {
        None
    }
}

impl TriggerProvider for TriggerGenerator {
    fn trigger_size(&self) -> usize {
        TriggerGenerator::trigger_size(self)
    }

    /// The value of [`TriggerGenerator::generate`] on the reset `tape`.
    fn triggers(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> Matrix {
        tape.reset();
        let batch = self.generate(tape, adj, features, nodes);
        tape.value_ref(batch.features).clone()
    }

    fn snapshot(&self) -> Option<TriggerSnapshot> {
        Some(TriggerSnapshot::Generator(TriggerGenerator::snapshot(self)))
    }
}

/// A single trigger pattern shared by every node (sample-agnostic), as used by
/// the DOORPING and Naive-Poison baselines.
#[derive(Clone, Debug)]
pub struct UniversalTrigger {
    /// The shared trigger feature block (`trigger_size x d`).
    pub features: Matrix,
}

impl UniversalTrigger {
    /// Wraps a fixed trigger feature block.
    pub fn new(features: Matrix) -> Self {
        Self { features }
    }
}

impl TriggerProvider for UniversalTrigger {
    fn trigger_size(&self) -> usize {
        self.features.rows()
    }

    /// Every node receives the same block, stacked in one allocation.
    fn triggers(
        &self,
        _tape: &mut Tape,
        _adj: &AdjacencyRef,
        _features: &Matrix,
        nodes: &[usize],
    ) -> Matrix {
        let copies = nodes.len();
        Matrix::new(
            copies * self.features.rows(),
            self.features.cols(),
            self.features.data().repeat(copies),
        )
    }

    fn snapshot(&self) -> Option<TriggerSnapshot> {
        Some(TriggerSnapshot::Universal(self.features.clone()))
    }
}
