//! Error types shared by the tensor substrate.

use crate::coord::{Coord3, Extent3};
use std::fmt;

/// Errors produced by tensor-substrate operations.
///
/// All fallible public functions in this crate return
/// [`crate::Result`], whose error type is this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// A coordinate lies outside the tensor extent.
    OutOfBounds {
        /// The offending coordinate.
        coord: Coord3,
        /// The extent it was checked against.
        extent: Extent3,
    },
    /// A feature slice had the wrong number of channels.
    ChannelMismatch {
        /// Channels the tensor expects.
        expected: usize,
        /// Channels the caller supplied.
        got: usize,
    },
    /// Two tensors that must share an extent do not.
    ExtentMismatch {
        /// Extent of the left operand.
        left: Extent3,
        /// Extent of the right operand.
        right: Extent3,
    },
    /// A tile shape does not evenly relate to the extent or is zero-sized.
    InvalidTileShape {
        /// Human-readable reason.
        reason: String,
    },
    /// A quantization parameter is outside its legal range.
    InvalidQuantParams {
        /// Human-readable reason.
        reason: String,
    },
    /// A dimension or capacity would overflow the address space.
    CapacityOverflow {
        /// Human-readable reason.
        reason: String,
    },
    /// A bulk constructor was handed the same coordinate twice.
    DuplicateCoord {
        /// The coordinate that appeared more than once.
        coord: Coord3,
    },
    /// A validated ingestion path saw a NaN or infinite feature value.
    NonFiniteFeature {
        /// Storage index of the offending site.
        site: usize,
        /// Channel within the site's feature vector.
        channel: usize,
    },
    /// A validated ingestion path was handed a frame with no active sites.
    EmptyFrame,
    /// A validated ingestion path was handed a channel count of zero.
    ZeroChannels,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::OutOfBounds { coord, extent } => {
                write!(f, "coordinate {coord} out of bounds for extent {extent}")
            }
            TensorError::ChannelMismatch { expected, got } => {
                write!(f, "channel mismatch: expected {expected}, got {got}")
            }
            TensorError::ExtentMismatch { left, right } => {
                write!(f, "extent mismatch: {left} vs {right}")
            }
            TensorError::InvalidTileShape { reason } => {
                write!(f, "invalid tile shape: {reason}")
            }
            TensorError::InvalidQuantParams { reason } => {
                write!(f, "invalid quantization parameters: {reason}")
            }
            TensorError::CapacityOverflow { reason } => {
                write!(f, "capacity overflow: {reason}")
            }
            TensorError::DuplicateCoord { coord } => {
                write!(f, "duplicate coordinate {coord}")
            }
            TensorError::NonFiniteFeature { site, channel } => {
                write!(f, "non-finite feature at site {site} channel {channel}")
            }
            TensorError::EmptyFrame => {
                write!(f, "empty frame: no active sites")
            }
            TensorError::ZeroChannels => {
                write!(f, "channel count must be nonzero")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TensorError::ChannelMismatch {
            expected: 4,
            got: 2,
        };
        let s = e.to_string();
        assert!(s.starts_with("channel mismatch"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn out_of_bounds_mentions_both_sides() {
        let e = TensorError::OutOfBounds {
            coord: Coord3::new(1, 2, 3),
            extent: Extent3::new(1, 1, 1),
        };
        let s = e.to_string();
        assert!(s.contains("(1, 2, 3)"));
        assert!(s.contains("1x1x1"));
    }
}
