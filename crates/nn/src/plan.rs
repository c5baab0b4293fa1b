//! Training plans: the strategy axis of the data plane.
//!
//! The one full-graph training stage of an attack, the selector GCN that
//! ranks candidate poisoned nodes, runs through a [`TrainingPlan`]:
//!
//! * [`TrainingPlan::FullBatch`] — the historical path: one forward/backward
//!   over the whole graph per epoch.  Byte-identical to the pre-plan code.
//! * [`TrainingPlan::Sampled`] — minibatch neighbour sampling: per epoch the
//!   training nodes are shuffled into batches, each batch's receptive field
//!   is materialized as a chain of bipartite blocks
//!   ([`bgc_graph::sampling::NeighborSampler`]) and only those rows flow
//!   through the model.  This is what unlocks paper-scale Flickr/Reddit.
//!
//! Plans are plain configuration: hashable (they participate in experiment
//! cell keys), displayable and parseable (`full` /
//! `sampled:b<batch>:f<f1>x<f2>...`).

use std::fmt;
use std::str::FromStr;

/// Parameters of the sampled (minibatch) training strategy.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampledPlan {
    /// Per-layer fanout caps, input-side first; `0` means "take every
    /// neighbour" (no cap).  The length must match the number of
    /// message-passing steps of the model being trained.
    pub fanouts: Vec<usize>,
    /// Number of target nodes per minibatch.
    pub batch_size: usize,
}

impl SampledPlan {
    /// The default sampled plan: two layers, fanout 10, batches of 1024.
    pub fn default_two_layer() -> Self {
        Self {
            fanouts: vec![10, 10],
            batch_size: 1024,
        }
    }

    /// Whether this plan caps nothing (every fanout unbounded).
    pub fn is_unbounded(&self) -> bool {
        self.fanouts.iter().all(|&f| f == 0)
    }

    /// The same plan with exactly `depth` fanouts: truncated, or extended by
    /// repeating the last fanout.  A stage with a fixed propagation depth
    /// (the 2-layer selector GCN) adapts a shared plan through this instead
    /// of panicking on a length mismatch.
    pub fn with_depth(&self, depth: usize) -> SampledPlan {
        assert!(depth >= 1, "a sampled plan needs at least one step");
        let mut fanouts = self.fanouts.clone();
        // Constructors guarantee at least one fanout; 0 (= unbounded) keeps
        // an impossible empty plan usable instead of panicking.
        let last = fanouts.last().copied().unwrap_or(0);
        fanouts.resize(depth, last);
        SampledPlan {
            fanouts,
            batch_size: self.batch_size,
        }
    }
}

/// How a model is trained on an original (non-condensed) graph.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrainingPlan {
    /// One full-graph forward/backward per epoch (the historical default).
    #[default]
    FullBatch,
    /// Neighbour-sampled minibatch training.
    Sampled(SampledPlan),
}

impl TrainingPlan {
    /// The default sampled plan (see [`SampledPlan::default_two_layer`]).
    pub fn sampled_default() -> Self {
        TrainingPlan::Sampled(SampledPlan::default_two_layer())
    }

    /// Whether this is a sampled plan.
    pub fn is_sampled(&self) -> bool {
        matches!(self, TrainingPlan::Sampled(_))
    }

    /// The sampled parameters, when sampled.
    pub fn sampled(&self) -> Option<&SampledPlan> {
        match self {
            TrainingPlan::FullBatch => None,
            TrainingPlan::Sampled(plan) => Some(plan),
        }
    }
}

impl fmt::Display for TrainingPlan {
    /// Canonical spelling: `full` or `sampled:b<batch>:f<f1>x<f2>...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainingPlan::FullBatch => f.write_str("full"),
            TrainingPlan::Sampled(plan) => {
                write!(f, "sampled:b{}:f", plan.batch_size)?;
                for (i, fanout) in plan.fanouts.iter().enumerate() {
                    if i > 0 {
                        f.write_str("x")?;
                    }
                    write!(f, "{}", fanout)?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for TrainingPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if lower == "full" || lower == "fullbatch" || lower == "full-batch" {
            return Ok(TrainingPlan::FullBatch);
        }
        let Some(rest) = lower.strip_prefix("sampled") else {
            return Err(format!(
                "unknown training plan '{}' (expected 'full' or 'sampled[:b<batch>][:f<f1>x<f2>...]')",
                s
            ));
        };
        let mut plan = SampledPlan::default_two_layer();
        for part in rest.split(':').filter(|p| !p.is_empty()) {
            if let Some(batch) = part.strip_prefix('b') {
                plan.batch_size = batch
                    .parse()
                    .map_err(|_| format!("malformed batch size '{}' in plan '{}'", batch, s))?;
            } else if let Some(fanouts) = part.strip_prefix('f') {
                plan.fanouts = fanouts
                    .split('x')
                    .map(|f| {
                        f.parse()
                            .map_err(|_| format!("malformed fanout '{}' in plan '{}'", f, s))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                if plan.fanouts.is_empty() {
                    return Err(format!("plan '{}' lists no fanouts", s));
                }
            } else {
                return Err(format!(
                    "unknown plan component '{}' in '{}' (expected b<batch> or f<f1>x<f2>...)",
                    part, s
                ));
            }
        }
        if plan.batch_size == 0 {
            return Err(format!("plan '{}' has a zero batch size", s));
        }
        Ok(TrainingPlan::Sampled(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for plan in [
            TrainingPlan::FullBatch,
            TrainingPlan::sampled_default(),
            TrainingPlan::Sampled(SampledPlan {
                fanouts: vec![5, 0, 3],
                batch_size: 256,
            }),
        ] {
            let spelled = plan.to_string();
            assert_eq!(
                spelled.parse::<TrainingPlan>(),
                Ok(plan.clone()),
                "{}",
                spelled
            );
        }
        assert_eq!("full".parse::<TrainingPlan>(), Ok(TrainingPlan::FullBatch));
        assert_eq!(
            "FULL-BATCH".parse::<TrainingPlan>(),
            Ok(TrainingPlan::FullBatch)
        );
        assert_eq!(
            "sampled".parse::<TrainingPlan>(),
            Ok(TrainingPlan::sampled_default())
        );
        assert_eq!(
            "sampled:b64".parse::<TrainingPlan>(),
            Ok(TrainingPlan::Sampled(SampledPlan {
                batch_size: 64,
                ..SampledPlan::default_two_layer()
            }))
        );
        assert_eq!(
            "sampled:f4x4:b32".parse::<TrainingPlan>(),
            Ok(TrainingPlan::Sampled(SampledPlan {
                fanouts: vec![4, 4],
                batch_size: 32,
            }))
        );
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "minibatch",
            "sampled:b0",
            "sampled:bx",
            "sampled:f",
            "sampled:fx",
            "sampled:q9",
            "sampled:f4x-1",
        ] {
            assert!(bad.parse::<TrainingPlan>().is_err(), "{}", bad);
        }
    }

    #[test]
    fn unbounded_detection() {
        assert!(SampledPlan {
            fanouts: vec![0, 0],
            batch_size: 8,
        }
        .is_unbounded());
        assert!(!SampledPlan::default_two_layer().is_unbounded());
        assert!(TrainingPlan::sampled_default().sampled().is_some());
        assert!(TrainingPlan::FullBatch.sampled().is_none());
    }
}
