//! The workspace-wide error type.
//!
//! Every fallible library path of the attack/condensation/evaluation stack
//! reports a [`BgcError`]; binaries and tests match on variants instead of
//! panicking inside the libraries.  [`CondenseError`] converts via `From`, so
//! `?` threads condensation failures (including the paper's GC-SNTK `OOM`
//! condition) straight through the attack and evaluation layers.

use std::fmt;

use bgc_condense::CondenseError;

/// Unified error of the BGC workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BgcError {
    /// A condensation method failed (OOM, empty split, singular kernel).
    Condense(CondenseError),
    /// No attack with this name is registered.
    UnknownAttack(String),
    /// No condensation method with this name is registered.
    UnknownMethod(String),
    /// No defense with this name is registered.
    UnknownDefense(String),
    /// No dataset with this name exists.
    UnknownDataset(String),
    /// An experiment description failed validation (builder / CLI).
    InvalidExperiment(String),
    /// An attack that needs the clean condensed reference ran without one.
    MissingCleanReference {
        /// Name of the offending attack.
        attack: String,
    },
    /// A result was requested for an experiment cell that never ran.
    CellNotExecuted {
        /// Canonical key of the missing cell.
        canon: String,
    },
    /// A cell panicked; the panic was caught at the cell boundary instead of
    /// poisoning the grid.
    CellPanicked {
        /// Canonical key of the panicked cell.
        canon: String,
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// A cell exceeded its deadline and was cooperatively cancelled.
    CellTimedOut {
        /// Canonical key of the cancelled cell.
        canon: String,
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// Several cells of one grid failed; every per-cell error is retained
    /// (a 10-cell failure is reported as 10, not 1).
    Grid {
        /// The per-cell failures, in grid submission order.
        failures: Vec<BgcError>,
    },
    /// Filesystem or serialization failure (reports).
    Io(String),
}

impl BgcError {
    /// Whether this error is the paper's out-of-memory condition (rendered as
    /// an `OOM` table row rather than a failure).
    pub fn is_oom(&self) -> bool {
        matches!(self, BgcError::Condense(CondenseError::OutOfMemory { .. }))
    }

    /// Convenience constructor for validation failures.
    pub fn invalid(message: impl Into<String>) -> Self {
        BgcError::InvalidExperiment(message.into())
    }

    /// Whether this error reports cells failing *during execution* (panic,
    /// timeout, condensation/I-O failure) as opposed to a misconfigured
    /// experiment (unknown names, invalid builder input).  Drives the CLI's
    /// distinct cell-failure exit code.
    pub fn is_cell_failure(&self) -> bool {
        match self {
            BgcError::Condense(_)
            | BgcError::CellPanicked { .. }
            | BgcError::CellTimedOut { .. }
            | BgcError::Io(_) => true,
            BgcError::Grid { failures } => failures.iter().any(BgcError::is_cell_failure),
            _ => false,
        }
    }

    /// Aggregates per-cell failures into one error: `None` for an empty
    /// list, the error itself for a single failure, [`BgcError::Grid`]
    /// retaining every failure otherwise.
    pub fn aggregate(mut failures: Vec<BgcError>) -> Option<BgcError> {
        match failures.len() {
            0 => None,
            1 => failures.pop(),
            _ => Some(BgcError::Grid { failures }),
        }
    }
}

impl fmt::Display for BgcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgcError::Condense(err) => write!(f, "condensation failed: {}", err),
            BgcError::UnknownAttack(name) => write!(f, "unknown attack '{}'", name),
            BgcError::UnknownMethod(name) => write!(f, "unknown condensation method '{}'", name),
            BgcError::UnknownDefense(name) => write!(f, "unknown defense '{}'", name),
            BgcError::UnknownDataset(name) => write!(f, "unknown dataset '{}'", name),
            BgcError::InvalidExperiment(msg) => write!(f, "invalid experiment: {}", msg),
            BgcError::MissingCleanReference { attack } => write!(
                f,
                "attack '{}' needs the clean condensed reference but none was provided",
                attack
            ),
            BgcError::CellNotExecuted { canon } => {
                write!(f, "cell was not executed: {}", canon)
            }
            BgcError::CellPanicked { canon, message } => {
                write!(f, "cell panicked ({}): {}", message, canon)
            }
            BgcError::CellTimedOut { canon, limit_ms } => {
                write!(f, "cell timed out after {} ms: {}", limit_ms, canon)
            }
            BgcError::Grid { failures } => {
                write!(f, "{} cells failed:", failures.len())?;
                for failure in failures {
                    write!(f, "\n  - {}", failure)?;
                }
                Ok(())
            }
            BgcError::Io(msg) => write!(f, "io error: {}", msg),
        }
    }
}

impl std::error::Error for BgcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BgcError::Condense(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CondenseError> for BgcError {
    fn from(err: CondenseError) -> Self {
        BgcError::Condense(err)
    }
}

impl From<std::io::Error> for BgcError {
    fn from(err: std::io::Error) -> Self {
        BgcError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condense_errors_convert_and_classify_oom() {
        let err: BgcError = CondenseError::OutOfMemory {
            nodes: 100,
            limit: 10,
        }
        .into();
        assert!(err.is_oom());
        assert!(err.to_string().contains("out of memory"));
        let err: BgcError = CondenseError::NoTrainingNodes.into();
        assert!(!err.is_oom());
    }

    #[test]
    fn display_names_the_offender() {
        assert!(BgcError::UnknownAttack("Ghost".into())
            .to_string()
            .contains("Ghost"));
        assert!(BgcError::MissingCleanReference {
            attack: "NaivePoison".into()
        }
        .to_string()
        .contains("NaivePoison"));
        assert!(BgcError::invalid("ratio out of range")
            .to_string()
            .contains("ratio"));
    }

    #[test]
    fn aggregate_keeps_every_failure() {
        assert_eq!(BgcError::aggregate(Vec::new()), None);
        let single = BgcError::aggregate(vec![BgcError::Io("disk full".into())]).unwrap();
        assert_eq!(single, BgcError::Io("disk full".into()));
        let both = BgcError::aggregate(vec![
            BgcError::Io("disk full".into()),
            BgcError::CellPanicked {
                canon: "v2|quick|cora".into(),
                message: "boom".into(),
            },
        ])
        .unwrap();
        let rendered = both.to_string();
        assert!(rendered.contains("2 cells failed"));
        assert!(rendered.contains("disk full"));
        assert!(rendered.contains("boom"));
    }

    #[test]
    fn failure_classes_drive_exit_codes() {
        let panicked = BgcError::CellPanicked {
            canon: "c".into(),
            message: "m".into(),
        };
        let timed_out = BgcError::CellTimedOut {
            canon: "c".into(),
            limit_ms: 50,
        };
        assert!(panicked.is_cell_failure());
        assert!(BgcError::Io("x".into()).is_cell_failure());
        assert!(timed_out.is_cell_failure());
        assert!(!BgcError::UnknownAttack("Ghost".into()).is_cell_failure());
        assert!(BgcError::Grid {
            failures: vec![timed_out]
        }
        .is_cell_failure());
        assert!(!BgcError::Grid {
            failures: vec![BgcError::UnknownAttack("Ghost".into())]
        }
        .is_cell_failure());
    }
}
