//! Error type for the SSCN golden model.

use esca_tensor::TensorError;
use std::fmt;

/// Errors produced by SSCN golden-model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SscnError {
    /// A layer received an input whose channel count does not match its
    /// weights.
    ChannelMismatch {
        /// Channels the layer expects.
        expected: usize,
        /// Channels the input carries.
        got: usize,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A network configuration is inconsistent.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A decoded model holds a weight or bias that is not finite (a JSON
    /// number beyond the `f32` range decodes to ±∞).
    NonFiniteWeight {
        /// The layer that holds it.
        layer: String,
    },
}

impl fmt::Display for SscnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SscnError::ChannelMismatch { expected, got } => {
                write!(f, "layer channel mismatch: expected {expected}, got {got}")
            }
            SscnError::Tensor(e) => write!(f, "tensor error: {e}"),
            SscnError::InvalidConfig { reason } => write!(f, "invalid network config: {reason}"),
            SscnError::NonFiniteWeight { layer } => {
                write!(f, "non-finite weight or bias in layer {layer}")
            }
        }
    }
}

impl std::error::Error for SscnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SscnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SscnError {
    fn from(e: TensorError) -> Self {
        SscnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SscnError::ChannelMismatch {
            expected: 16,
            got: 8,
        };
        assert!(e.to_string().contains("16"));
        let t = SscnError::from(TensorError::CapacityOverflow { reason: "x".into() });
        assert!(std::error::Error::source(&t).is_some());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SscnError>();
    }
}
