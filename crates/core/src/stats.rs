//! Cycle and activity accounting for the accelerator model.
//!
//! Every hardware unit increments counters here; the performance numbers
//! the benches report (Fig. 10 layer times, Table III GOPS) are derived
//! from these counts and the configured clock.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Aggregated cycle/activity statistics of one layer (or network) run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    // --- cycles ---
    /// Cycles the pipeline spent actively processing tiles (scan ∥ fetch ∥
    /// compute, whichever bound each cycle).
    pub pipeline_cycles: u64,
    /// Of the pipeline cycles, how many had the computing array busy.
    pub compute_busy_cycles: u64,
    /// Cycles lost to FIFO backpressure (fetch stalled on a full FIFO).
    pub stall_cycles: u64,
    /// Per-tile fixed overhead cycles.
    pub tile_overhead_cycles: u64,
    /// Per-layer fixed overhead cycles.
    pub layer_overhead_cycles: u64,
    /// DRAM-bound cycles that could not be overlapped with compute.
    pub dram_stall_cycles: u64,
    /// Cycles spent in the zero-removing pre-pass.
    pub zero_removing_cycles: u64,
    /// Of the pipeline cycles, how many the **matching** stages (mask
    /// scan + activation fetch) were busy — the work that collapses to
    /// zero when the layer runs matching-resident (its geometry is cached).
    /// Deserialization defaults to 0, keeping older snapshots valid.
    #[serde(default)]
    pub match_cycles: u64,
    /// Whether any merged layer ran in matching-resident mode (see
    /// [`crate::accelerator::LayerOpts::matching_resident`]). OR-merged by
    /// `+=`; defaults to `false` for older snapshots.
    #[serde(default)]
    pub matching_resident: bool,

    // --- work ---
    /// Matches dispatched to the computing core.
    pub matches: u64,
    /// Effective (nonzero) MACs executed — the paper's GOPS numerator / 2.
    pub effective_macs: u64,
    /// MAC-lane slots offered while the array was busy
    /// (`busy_cycles × lanes`); `effective_macs / lane_slots` is array
    /// utilization.
    pub lane_slots: u64,
    /// Active centres (match groups) processed.
    pub match_groups: u64,
    /// Sites scanned by the mask judger (active-tile sites only).
    pub scanned_sites: u64,

    // --- memory ---
    /// Index-mask bits read by the judger.
    pub mask_bits_read: u64,
    /// Activation-buffer reads (entries).
    pub act_reads: u64,
    /// Weight-buffer reads (words).
    pub weight_reads: u64,
    /// Output-buffer writes (words).
    pub out_writes: u64,
    /// FIFO pushes across the FIFO group.
    pub fifo_pushes: u64,
    /// Bytes fetched from DRAM.
    pub dram_bytes_in: u64,
    /// Bytes written back to DRAM.
    pub dram_bytes_out: u64,

    // --- workload shape ---
    /// Active tiles processed.
    pub active_tiles: u64,
    /// Total tiles in the grid (pre zero-removing).
    pub total_tiles: u64,
    /// Peak activation-buffer occupancy observed, bytes.
    pub peak_act_buffer_bytes: u64,
    /// Peak per-FIFO occupancy observed, entries.
    pub peak_fifo_occupancy: u64,
}

impl CycleStats {
    /// Total cycles attributed to the run.
    pub fn total_cycles(&self) -> u64 {
        self.pipeline_cycles
            + self.tile_overhead_cycles
            + self.layer_overhead_cycles
            + self.dram_stall_cycles
            + self.zero_removing_cycles
    }

    /// Wall-clock seconds at `clock_mhz`.
    pub fn time_s(&self, clock_mhz: f64) -> f64 {
        self.total_cycles() as f64 / (clock_mhz * 1e6)
    }

    /// Effective operations (2 ops per nonzero MAC), the paper's metric.
    pub fn effective_ops(&self) -> u64 {
        2 * self.effective_macs
    }

    /// Effective GOPS at `clock_mhz` (0 for a zero-cycle run).
    pub fn effective_gops(&self, clock_mhz: f64) -> f64 {
        let t = self.time_s(clock_mhz);
        if t > 0.0 {
            self.effective_ops() as f64 / t / 1e9
        } else {
            0.0
        }
    }

    /// MAC-array utilization while busy (effective MACs / offered lane
    /// slots), in [0, 1].
    pub fn array_utilization(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.effective_macs as f64 / self.lane_slots as f64
        }
    }

    /// Fraction of total cycles with the computing array busy.
    pub fn compute_occupancy(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.compute_busy_cycles as f64 / t as f64
        }
    }

    /// Mean matches per match group (average match-group size).
    pub fn mean_match_group(&self) -> f64 {
        if self.match_groups == 0 {
            0.0
        } else {
            self.matches as f64 / self.match_groups as f64
        }
    }
}

impl AddAssign<&CycleStats> for CycleStats {
    fn add_assign(&mut self, rhs: &CycleStats) {
        self.pipeline_cycles += rhs.pipeline_cycles;
        self.compute_busy_cycles += rhs.compute_busy_cycles;
        self.stall_cycles += rhs.stall_cycles;
        self.tile_overhead_cycles += rhs.tile_overhead_cycles;
        self.layer_overhead_cycles += rhs.layer_overhead_cycles;
        self.dram_stall_cycles += rhs.dram_stall_cycles;
        self.zero_removing_cycles += rhs.zero_removing_cycles;
        self.match_cycles += rhs.match_cycles;
        self.matching_resident |= rhs.matching_resident;
        self.matches += rhs.matches;
        self.effective_macs += rhs.effective_macs;
        self.lane_slots += rhs.lane_slots;
        self.match_groups += rhs.match_groups;
        self.scanned_sites += rhs.scanned_sites;
        self.mask_bits_read += rhs.mask_bits_read;
        self.act_reads += rhs.act_reads;
        self.weight_reads += rhs.weight_reads;
        self.out_writes += rhs.out_writes;
        self.fifo_pushes += rhs.fifo_pushes;
        self.dram_bytes_in += rhs.dram_bytes_in;
        self.dram_bytes_out += rhs.dram_bytes_out;
        self.active_tiles += rhs.active_tiles;
        self.total_tiles += rhs.total_tiles;
        self.peak_act_buffer_bytes = self.peak_act_buffer_bytes.max(rhs.peak_act_buffer_bytes);
        self.peak_fifo_occupancy = self.peak_fifo_occupancy.max(rhs.peak_fifo_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_derived_metrics() {
        let s = CycleStats {
            pipeline_cycles: 800,
            compute_busy_cycles: 600,
            tile_overhead_cycles: 100,
            layer_overhead_cycles: 50,
            dram_stall_cycles: 50,
            effective_macs: 120_000,
            lane_slots: 600 * 256,
            ..CycleStats::default()
        };
        assert_eq!(s.total_cycles(), 1000);
        assert_eq!(s.effective_ops(), 240_000);
        // time at 270 MHz
        let t = s.time_s(270.0);
        assert!((t - 1000.0 / 270e6).abs() < 1e-15);
        let gops = s.effective_gops(270.0);
        assert!((gops - 240_000.0 / t / 1e9).abs() < 1e-6);
        assert!((s.array_utilization() - 120_000.0 / 153_600.0).abs() < 1e-12);
        assert!((s.compute_occupancy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn add_assign_merges_and_maxes_peaks() {
        let mut a = CycleStats {
            pipeline_cycles: 10,
            peak_fifo_occupancy: 3,
            matches: 5,
            match_groups: 1,
            ..CycleStats::default()
        };
        let b = CycleStats {
            pipeline_cycles: 20,
            peak_fifo_occupancy: 2,
            matches: 7,
            match_groups: 2,
            ..CycleStats::default()
        };
        a += &b;
        assert_eq!(a.pipeline_cycles, 30);
        assert_eq!(a.peak_fifo_occupancy, 3);
        assert_eq!(a.matches, 12);
        assert!((a.mean_match_group() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_stats_do_not_divide_by_zero() {
        let s = CycleStats::default();
        assert_eq!(s.array_utilization(), 0.0);
        assert_eq!(s.compute_occupancy(), 0.0);
        assert_eq!(s.mean_match_group(), 0.0);
        assert_eq!(s.effective_gops(270.0), 0.0);
    }
}
