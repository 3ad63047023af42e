//! Error type for the accelerator model.

use esca_sscn::SscnError;
use esca_tensor::TensorError;
use std::fmt;

/// Errors produced by the ESCA accelerator model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EscaError {
    /// An inconsistent accelerator configuration.
    Config {
        /// Human-readable reason.
        reason: String,
    },
    /// A workload does not fit the configured on-chip buffers.
    CapacityExceeded {
        /// Which buffer overflowed.
        buffer: &'static str,
        /// Bytes required.
        required: usize,
        /// Bytes available.
        capacity: usize,
    },
    /// Layer/input channel mismatch.
    ChannelMismatch {
        /// Channels the layer expects.
        expected: usize,
        /// Channels the input carries.
        got: usize,
    },
    /// An underlying tensor-substrate failure.
    Tensor(TensorError),
    /// An underlying golden-model failure.
    Sscn(SscnError),
    /// A modeled memory-integrity fault was detected (parity or checksum
    /// mismatch on an on-chip buffer line, FIFO entry, or frame transfer).
    /// Detected faults are transient: the frame is eligible for retry.
    MemoryFault {
        /// The protected structure the fault hit.
        buffer: &'static str,
        /// Line (or word) index within the structure.
        line: u64,
        /// Bit position within the line.
        bit: u8,
        /// The detection mechanism that caught it.
        mechanism: &'static str,
    },
    /// A worker job panicked while running a frame; the panic was caught
    /// and the worker survived.
    WorkerPanic {
        /// Frame index the job was running.
        frame: usize,
    },
    /// The worker-pool queue channel was disconnected; the submitted job
    /// was rejected and will never run.
    PoolClosed,
    /// A thread of a layer's sharded tile walk panicked; the panic was
    /// caught and the layer failed.
    ShardPanic,
}

impl fmt::Display for EscaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EscaError::Config { reason } => write!(f, "invalid accelerator config: {reason}"),
            EscaError::CapacityExceeded {
                buffer,
                required,
                capacity,
            } => write!(
                f,
                "{buffer} capacity exceeded: need {required} bytes, have {capacity}"
            ),
            EscaError::ChannelMismatch { expected, got } => {
                write!(
                    f,
                    "channel mismatch: layer expects {expected}, input has {got}"
                )
            }
            EscaError::Tensor(e) => write!(f, "tensor error: {e}"),
            EscaError::Sscn(e) => write!(f, "golden model error: {e}"),
            EscaError::MemoryFault {
                buffer,
                line,
                bit,
                mechanism,
            } => write!(
                f,
                "memory fault in {buffer} line {line} bit {bit} (detected by {mechanism})"
            ),
            EscaError::WorkerPanic { frame } => {
                write!(f, "worker panicked running frame {frame} (caught)")
            }
            EscaError::PoolClosed => write!(f, "worker pool closed: job rejected"),
            EscaError::ShardPanic => write!(f, "tile shard thread panicked (caught)"),
        }
    }
}

impl std::error::Error for EscaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EscaError::Tensor(e) => Some(e),
            EscaError::Sscn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for EscaError {
    fn from(e: TensorError) -> Self {
        EscaError::Tensor(e)
    }
}

impl From<SscnError> for EscaError {
    fn from(e: SscnError) -> Self {
        EscaError::Sscn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = EscaError::CapacityExceeded {
            buffer: "activation buffer",
            required: 1000,
            capacity: 512,
        };
        let s = e.to_string();
        assert!(s.contains("activation buffer") && s.contains("1000"));
    }

    #[test]
    fn send_sync_and_source() {
        fn check<T: Send + Sync>() {}
        check::<EscaError>();
        let e: EscaError = TensorError::CapacityOverflow { reason: "r".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
