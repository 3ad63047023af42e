//! On-chip buffer models.
//!
//! The paper uses four block-RAM buffers (Fig. 9): mask, activation,
//! weight and output. [`BufferModel`] tracks capacity, occupancy peaks and
//! write counts. DRAM traffic is priced in
//! [`crate::accelerator::Esca`] through
//! [`crate::config::EscaConfig::dram_cycles`].

use crate::error::EscaError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// One BRAM-backed buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferModel {
    name: &'static str,
    capacity_bytes: usize,
    occupancy_bytes: usize,
    peak_bytes: usize,
    writes: u64,
}

impl BufferModel {
    /// Creates an empty buffer with the given capacity.
    pub fn new(name: &'static str, capacity_bytes: usize) -> Self {
        BufferModel {
            name,
            capacity_bytes,
            occupancy_bytes: 0,
            peak_bytes: 0,
            writes: 0,
        }
    }

    /// Buffer name (for error messages and reports).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Configured capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Current fill level in bytes.
    #[inline]
    pub fn occupancy_bytes(&self) -> usize {
        self.occupancy_bytes
    }

    /// Highest fill level observed.
    #[inline]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Write access count.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Loads `bytes` into the buffer (a DMA fill).
    ///
    /// # Errors
    ///
    /// Returns [`EscaError::CapacityExceeded`] when the fill exceeds
    /// capacity — the workload does not fit this configuration.
    pub fn fill(&mut self, bytes: usize) -> Result<()> {
        let next = self.occupancy_bytes + bytes;
        if next > self.capacity_bytes {
            return Err(EscaError::CapacityExceeded {
                buffer: self.name,
                required: next,
                capacity: self.capacity_bytes,
            });
        }
        self.occupancy_bytes = next;
        self.peak_bytes = self.peak_bytes.max(next);
        Ok(())
    }

    /// Releases `bytes` (tile retired, double-buffer swap).
    pub fn drain(&mut self, bytes: usize) {
        self.occupancy_bytes = self.occupancy_bytes.saturating_sub(bytes);
    }

    /// Records `n` write accesses.
    #[inline]
    pub fn record_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// 36 Kb BRAM blocks this buffer consumes (ZCU102 BRAM36 units),
    /// assuming full-depth packing.
    pub fn bram36(&self) -> f64 {
        (self.capacity_bytes as f64 * 8.0 / 36_864.0).ceil()
    }

    /// Point-in-time telemetry view (peak fill, capacity, write count)
    /// for [`crate::telemetry::LayerTelemetry`].
    pub fn telemetry(&self) -> crate::telemetry::BufferTelemetry {
        crate::telemetry::BufferTelemetry {
            name: self.name,
            peak_bytes: self.peak_bytes as u64,
            capacity_bytes: self.capacity_bytes as u64,
            writes: self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_drain_and_peak() {
        let mut b = BufferModel::new("activation buffer", 1000);
        b.fill(600).unwrap();
        b.drain(200);
        b.fill(500).unwrap();
        assert_eq!(b.occupancy_bytes(), 900);
        assert_eq!(b.peak_bytes(), 900);
        b.drain(10_000);
        assert_eq!(b.occupancy_bytes(), 0);
    }

    #[test]
    fn overflow_is_an_error_naming_the_buffer() {
        let mut b = BufferModel::new("weight buffer", 100);
        let err = b.fill(101).unwrap_err();
        match err {
            EscaError::CapacityExceeded {
                buffer,
                required,
                capacity,
            } => {
                assert_eq!(buffer, "weight buffer");
                assert_eq!(required, 101);
                assert_eq!(capacity, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bram_block_accounting() {
        // 36 Kb = 4608 bytes per block.
        assert_eq!(BufferModel::new("x", 4608).bram36(), 1.0);
        assert_eq!(BufferModel::new("x", 4609).bram36(), 2.0);
        assert_eq!(BufferModel::new("x", 96 * 1024).bram36(), 22.0);
    }

    #[test]
    fn access_counters() {
        let mut b = BufferModel::new("mask buffer", 10);
        b.record_writes(2);
        assert_eq!(b.writes(), 2);
    }
}
