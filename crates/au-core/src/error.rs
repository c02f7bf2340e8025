//! Framework error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the Autonomizer runtime.
#[derive(Debug)]
pub enum AuError {
    /// A primitive referenced a model name never passed to `au_config`.
    UnknownModel(String),
    /// `au_config` was called twice for the same name with a different
    /// configuration in the same run.
    ModelExists(String),
    /// The database store has no entry (or not enough values) under a name.
    MissingData {
        /// The database-store key.
        name: String,
        /// Values requested.
        wanted: usize,
        /// Values available.
        available: usize,
    },
    /// A model received input of a different width than it was built for.
    InputSizeChanged {
        /// Model name.
        model: String,
        /// Width the model was built with.
        built: usize,
        /// Width of the offending input.
        got: usize,
    },
    /// An SL primitive was applied to an RL model or vice versa.
    WrongAlgorithm {
        /// Model name.
        model: String,
        /// What the call expected (`"supervised"` / `"reinforcement"`).
        expected: &'static str,
    },
    /// No network can be built from this configuration or for these
    /// widths (a zero hidden width, input width or output width (action
    /// count), or a CNN frame that is under 8×8 pixels or whose volume is
    /// not the input width), or a training dataset does not fit one (it
    /// is empty, its sides do not pair up, or its labels are ragged or of
    /// another width than the network's output).
    InvalidShape {
        /// Model name.
        model: String,
        /// What does not fit.
        reason: String,
    },
    /// Model persistence failed (deployment-mode `loadModel`).
    Backend(au_nn::NnError),
    /// Deployment mode requires a trained model on disk, but none was found.
    ModelNotTrained(String),
    /// The monitor's fallback policy has marked this model degraded (drift,
    /// quality collapse, or non-finite output): the engine refuses to serve
    /// further predictions so the caller can fall back to the original
    /// (pre-autonomization) code path.
    ModelDegraded(String),
}

impl fmt::Display for AuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            AuError::ModelExists(name) => {
                write!(f, "model `{name}` already configured differently")
            }
            AuError::MissingData {
                name,
                wanted,
                available,
            } => write!(
                f,
                "database store entry `{name}` has {available} values, {wanted} requested"
            ),
            AuError::InputSizeChanged { model, built, got } => write!(
                f,
                "model `{model}` was built for {built} inputs but received {got}"
            ),
            AuError::WrongAlgorithm { model, expected } => {
                write!(f, "model `{model}` does not use a {expected} algorithm")
            }
            AuError::InvalidShape { model, reason } => {
                write!(f, "invalid shape for model `{model}`: {reason}")
            }
            AuError::Backend(e) => write!(f, "model backend error: {e}"),
            AuError::ModelNotTrained(name) => {
                write!(f, "no trained model `{name}` available for deployment")
            }
            AuError::ModelDegraded(name) => {
                write!(
                    f,
                    "model `{name}` is degraded (monitoring fallback active); use the original code path"
                )
            }
        }
    }
}

impl Error for AuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<au_nn::NnError> for AuError {
    fn from(e: au_nn::NnError) -> Self {
        AuError::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = AuError::MissingData {
            name: "HIST".into(),
            wanted: 3,
            available: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("HIST"));
        assert!(msg.contains('3'));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn backend_errors_chain() {
        let inner = au_nn::NnError::Format("bad".into());
        let e = AuError::from(inner);
        assert!(e.source().is_some());
    }
}
