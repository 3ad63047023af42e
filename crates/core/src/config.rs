//! Accelerator configuration.
//!
//! The defaults reproduce the paper's design point: 8³ tiles, 3×3×3
//! kernels (SDMU parallelism K² = 9), a 16×16 computing array (256 DSP
//! MACs), 270 MHz on a ZCU102, and buffer sizes consistent with the
//! Table II BRAM budget. The DRAM-path parameters model the PL→DDR4 HP
//! ports of the ZCU102 and are the calibrated part of the timing model
//! (see DESIGN.md §6).

use crate::error::EscaError;
use crate::Result;
use esca_tensor::TileShape;
use serde::{Deserialize, Serialize};

/// Full configuration of an ESCA instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EscaConfig {
    /// Tile shape for the zero removing strategy (paper design point: 8³).
    pub tile: TileShape,
    /// Sub-Conv kernel size K (paper: 3; SDMU parallelism is K²).
    pub kernel: u32,
    /// Input-channel parallelism of each computing unit (paper: 16).
    pub ic_parallel: usize,
    /// Output-channel parallelism — number of computing units (paper: 16).
    pub oc_parallel: usize,
    /// Depth of each match FIFO in the FIFO group.
    pub fifo_depth: usize,
    /// Clock frequency in MHz (paper: 270).
    pub clock_mhz: f64,
    /// Mask buffer capacity in bytes.
    pub mask_buffer_bytes: usize,
    /// Activation buffer capacity in bytes.
    pub act_buffer_bytes: usize,
    /// Weight buffer capacity in bytes.
    pub weight_buffer_bytes: usize,
    /// Output buffer capacity in bytes.
    pub out_buffer_bytes: usize,
    /// Sustained DRAM bandwidth of the PL HP port, bytes per PL cycle.
    /// The default, 1.1 B/cycle ≈ 0.30 GB/s at 270 MHz, is the effective
    /// figure for the short, scattered per-tile bursts this dataflow
    /// issues (HP ports only approach their multi-GB/s peak on long
    /// sequential bursts).
    pub dram_bytes_per_cycle: f64,
    /// Fraction of activation/output DRAM traffic overlapped with compute
    /// (double-buffered tiles); the remainder stalls the pipeline.
    pub dram_overlap: f64,
    /// Whether the weight load overlaps the previous layer's compute.
    pub weight_load_overlap: bool,
    /// Fixed per-tile overhead (descriptor fetch, address setup), cycles.
    pub per_tile_overhead_cycles: u64,
    /// Fixed per-layer overhead (host handshake, descriptor setup and
    /// synchronization through the PS — ≈74 µs at the default clock,
    /// typical for an interrupt-driven PYNQ-style flow).
    pub per_layer_overhead_cycles: u64,
    /// Pipeline fill cycles per (x, y) scan line inside a tile.
    pub pipeline_fill_cycles: u64,
    /// Record a pipeline event trace while running (costly; off for
    /// benches, on for the Fig. 7(b) example).
    pub record_trace: bool,
}

impl Default for EscaConfig {
    fn default() -> Self {
        EscaConfig {
            tile: TileShape::cube(8),
            kernel: 3,
            ic_parallel: 16,
            oc_parallel: 16,
            fifo_depth: 16,
            clock_mhz: 270.0,
            // Sized in whole BRAM36 blocks (4608 bytes each): 22 + 144 +
            // 63 + 132 = 361 blocks; with the 9 half-BRAM match FIFOs the
            // total is Table II's 365.5.
            mask_buffer_bytes: 22 * 4608,
            act_buffer_bytes: 144 * 4608,
            weight_buffer_bytes: 63 * 4608,
            out_buffer_bytes: 132 * 4608,
            dram_bytes_per_cycle: 1.1,
            dram_overlap: 0.35,
            weight_load_overlap: false,
            per_tile_overhead_cycles: 24,
            per_layer_overhead_cycles: 20_000,
            pipeline_fill_cycles: 2,
            record_trace: false,
        }
    }
}

impl EscaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EscaError::Config`] for a zero tile side, zero/even
    /// kernel, zero parallelism, a non-positive or non-finite clock or
    /// DRAM bandwidth, empty buffers, or out-of-range overlap.
    pub fn validate(&self) -> Result<()> {
        let TileShape { n, m, l } = self.tile;
        if n == 0 || m == 0 || l == 0 {
            return Err(EscaError::Config {
                reason: format!("tile sides must be nonzero, got {n}×{m}×{l}"),
            });
        }
        if self.kernel == 0 || self.kernel.is_multiple_of(2) {
            return Err(EscaError::Config {
                reason: format!("kernel must be odd and nonzero, got {}", self.kernel),
            });
        }
        if self.ic_parallel == 0 || self.oc_parallel == 0 {
            return Err(EscaError::Config {
                reason: "ic/oc parallelism must be nonzero".into(),
            });
        }
        if self.fifo_depth == 0 {
            return Err(EscaError::Config {
                reason: "fifo depth must be nonzero".into(),
            });
        }
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err(EscaError::Config {
                reason: format!("clock must be positive and finite, got {}", self.clock_mhz),
            });
        }
        if !(self.dram_bytes_per_cycle.is_finite() && self.dram_bytes_per_cycle > 0.0) {
            return Err(EscaError::Config {
                reason: format!(
                    "dram bandwidth must be positive and finite, got {}",
                    self.dram_bytes_per_cycle
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.dram_overlap) {
            return Err(EscaError::Config {
                reason: "dram_overlap must be within [0, 1]".into(),
            });
        }
        if self.mask_buffer_bytes == 0
            || self.act_buffer_bytes == 0
            || self.weight_buffer_bytes == 0
            || self.out_buffer_bytes == 0
        {
            return Err(EscaError::Config {
                reason: "all buffers must have nonzero capacity".into(),
            });
        }
        Ok(())
    }

    /// Cycles to move `bytes` over the DRAM port, rounded up: the cycle
    /// model's one conversion from transferred bytes to time.
    ///
    /// # Errors
    ///
    /// Returns [`EscaError::Config`] naming the bandwidth when the
    /// transfer takes more than 2^48 cycles: a port that slow would
    /// overflow the per-frame and per-batch cycle sums.
    pub fn dram_cycles(&self, bytes: u64) -> Result<u64> {
        const MAX_CYCLES: u64 = 1 << 48;
        let cycles = (bytes as f64 / self.dram_bytes_per_cycle).ceil();
        if cycles > MAX_CYCLES as f64 {
            return Err(EscaError::Config {
                reason: format!(
                    "dram bandwidth {} B/cycle needs {cycles:e} cycles for {bytes} bytes, \
                     over the 2^48-cycle bound",
                    self.dram_bytes_per_cycle
                ),
            });
        }
        Ok(cycles as u64)
    }

    /// SDMU decoder parallelism: the K² kernel columns.
    #[inline]
    pub fn columns(&self) -> usize {
        (self.kernel * self.kernel) as usize
    }

    /// Total MAC lanes in the computing array (Table II's 256 DSPs).
    #[inline]
    pub fn mac_lanes(&self) -> usize {
        self.ic_parallel * self.oc_parallel
    }

    /// Cycles a single match occupies the computing array for a layer with
    /// the given channel counts: `⌈ic/16⌉ × ⌈oc/16⌉` group iterations
    /// (Fig. 8(a)'s IC/OC loops).
    #[inline]
    pub fn match_cycles(&self, in_ch: usize, out_ch: usize) -> u64 {
        (in_ch.div_ceil(self.ic_parallel) * out_ch.div_ceil(self.oc_parallel)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_design_point() {
        let c = EscaConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.tile, TileShape::cube(8));
        assert_eq!(c.kernel, 3);
        assert_eq!(c.columns(), 9);
        assert_eq!(c.mac_lanes(), 256);
        assert_eq!(c.clock_mhz, 270.0);
    }

    #[test]
    fn match_cycles_groups() {
        let c = EscaConfig::default();
        assert_eq!(c.match_cycles(16, 16), 1);
        assert_eq!(c.match_cycles(1, 16), 1);
        assert_eq!(c.match_cycles(17, 16), 2);
        assert_eq!(c.match_cycles(32, 48), 6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = EscaConfig::default();
        c.kernel = 4;
        assert!(c.validate().is_err());
        let mut c = EscaConfig::default();
        c.ic_parallel = 0;
        assert!(c.validate().is_err());
        let mut c = EscaConfig::default();
        c.dram_overlap = 1.5;
        assert!(c.validate().is_err());
        let mut c = EscaConfig::default();
        c.act_buffer_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = EscaConfig::default();
        c.clock_mhz = 0.0;
        assert!(c.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let mut c = EscaConfig::default();
            c.clock_mhz = bad;
            assert!(c.validate().is_err(), "clock {bad}");
            let mut c = EscaConfig::default();
            c.dram_bytes_per_cycle = bad;
            assert!(c.validate().is_err(), "dram bandwidth {bad}");
        }
    }
}
