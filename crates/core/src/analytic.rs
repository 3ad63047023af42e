//! Closed-form analytical performance model — a fast companion to the
//! cycle simulator (Timeloop-style).
//!
//! Given only workload *statistics* (active tiles, matches, channel
//! widths), the analytical model predicts the layer's cycle count without
//! simulating. Its purposes:
//!
//! 1. **Cross-validation**: the simulator and the closed form are
//!    independent derivations of the same microarchitecture; tests require
//!    them to agree within a tolerance, catching accounting bugs in
//!    either.
//! 2. **Fast design-space exploration**: evaluating a configuration takes
//!    microseconds instead of simulating millions of cycles.

use crate::config::EscaConfig;
use esca_sscn::ops;
use esca_tensor::{SparseTensor, TileGrid, Q16};
use serde::{Deserialize, Serialize};

/// Workload statistics the analytical model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerShape {
    /// Active (nonzero) sites.
    pub nnz: u64,
    /// Total matches (Σ active neighbors over active centres).
    pub matches: u64,
    /// Active tiles after zero removing.
    pub active_tiles: u64,
    /// Sites covered by the active tiles (scan work).
    pub scanned_sites: u64,
    /// Scan lines within active tiles (pipeline fills).
    pub scan_lines: u64,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
}

impl LayerShape {
    /// Extracts the statistics of a concrete layer input.
    pub fn measure(input: &SparseTensor<Q16>, cfg: &EscaConfig, out_ch: usize) -> Self {
        let grid = TileGrid::new(input.extent(), cfg.tile);
        let report = grid.classify(&input.occupancy_mask());
        let mut scanned = 0u64;
        let mut lines = 0u64;
        for info in report.active() {
            let hi = info.max_corner(grid.shape(), grid.extent());
            let dx = (hi.x - info.origin.x + 1) as u64;
            let dy = (hi.y - info.origin.y + 1) as u64;
            let dz = (hi.z - info.origin.z + 1) as u64;
            scanned += dx * dy * dz;
            lines += dx * dy;
        }
        LayerShape {
            nnz: input.nnz() as u64,
            matches: ops::count_matches(input, cfg.kernel),
            active_tiles: report.active_tiles() as u64,
            scanned_sites: scanned,
            scan_lines: lines,
            in_ch: input.channels(),
            out_ch,
        }
    }
}

/// Analytical cycle estimate, broken down like [`crate::CycleStats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticEstimate {
    /// Pipeline cycles (scan ∥ fetch ∥ compute, bound by the slower).
    pub pipeline_cycles: u64,
    /// Tile + layer overheads.
    pub overhead_cycles: u64,
    /// Zero-removing pre-pass cycles.
    pub zero_removing_cycles: u64,
    /// Exposed DRAM cycles (weight load + unhidden streaming).
    pub dram_stall_cycles: u64,
}

impl AnalyticEstimate {
    /// Total estimated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.pipeline_cycles
            + self.overhead_cycles
            + self.zero_removing_cycles
            + self.dram_stall_cycles
    }
}

/// Predicts a layer's cycles from its shape statistics under `cfg`.
///
/// Derivation (mirrors the simulator's dataflow):
///
/// * scan work = scanned sites + pipeline fills per line;
/// * compute work = matches × ⌈ic/P⌉⌈oc/P⌉ + a drain per centre;
/// * the SDMU and CC run in pipeline, so the steady state is bound by the
///   *maximum* of the two, not their sum — plus a small coupling term for
///   the cycles where the scan finds a group and the array immediately
///   consumes it (modelled as the minimum of the two, scaled by the
///   observed interleave inefficiency ≈ 12 %).
pub fn estimate_layer(shape: &LayerShape, cfg: &EscaConfig) -> AnalyticEstimate {
    let groups = cfg.match_cycles(shape.in_ch, shape.out_ch);
    let scan = shape.scanned_sites + shape.scan_lines * cfg.pipeline_fill_cycles;
    let drain = shape.out_ch.div_ceil(cfg.oc_parallel) as u64;
    let compute = shape.matches * groups + shape.nnz * (drain + 1);
    let pipeline = scan.max(compute) + ((scan.min(compute) as f64) * 0.12) as u64;

    let overhead =
        shape.active_tiles * cfg.per_tile_overhead_cycles + cfg.per_layer_overhead_cycles;

    let zr = shape.nnz.div_ceil(4) + 2 * shape.active_tiles;

    // DRAM traffic mirrors the simulator's accounting.
    let taps = u64::from(cfg.kernel).pow(3);
    let weight_bytes = taps * shape.in_ch as u64 * shape.out_ch as u64 + shape.out_ch as u64 * 4;
    let act_bytes = shape.nnz * shape.in_ch as u64 * 2 + shape.nnz * 4;
    let mask_bytes = shape.active_tiles * (cfg.tile.volume() / 8);
    let out_bytes = shape.nnz * shape.out_ch as u64 * 2;
    let streaming = act_bytes + mask_bytes + out_bytes + weight_bytes;
    let raw = (streaming as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let hideable = ((pipeline + overhead) as f64 * cfg.dram_overlap) as u64;
    let weight_cycles = if cfg.weight_load_overlap {
        0
    } else {
        (weight_bytes as f64 / cfg.dram_bytes_per_cycle).ceil() as u64
    };
    let dram = weight_cycles + raw.saturating_sub(hideable.min(raw));

    AnalyticEstimate {
        pipeline_cycles: pipeline,
        overhead_cycles: overhead,
        zero_removing_cycles: zr,
        dram_stall_cycles: dram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Esca;
    use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;
    use esca_tensor::{Coord3, Extent3, QuantParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_qinput(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<Q16> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::<f32>::new(Extent3::cube(side), ch);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        quantize_tensor(&t, QuantParams::new(8).unwrap())
    }

    #[test]
    fn analytic_tracks_simulator_within_tolerance() {
        let cfg = EscaConfig::default();
        let esca = Esca::new(cfg).unwrap();
        for (seed, ch, oc, n) in [
            (1u64, 2usize, 8usize, 60usize),
            (2, 4, 16, 120),
            (3, 16, 16, 200),
        ] {
            let qin = random_qinput(seed, 24, ch, n);
            let w = ConvWeights::seeded(3, ch, oc, seed + 40);
            let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
            let run = esca.run_layer(&qin, &qw, false).unwrap();
            let shape = LayerShape::measure(&qin, &cfg, oc);
            let est = estimate_layer(&shape, &cfg);
            let sim = run.stats.total_cycles() as f64;
            let ana = est.total_cycles() as f64;
            let rel = (ana - sim).abs() / sim;
            assert!(
                rel < 0.25,
                "analytic {ana} vs simulated {sim} ({:.1}% off) at seed {seed}",
                rel * 100.0
            );
        }
    }

    #[test]
    fn shape_measurement_matches_simulator_counters() {
        let cfg = EscaConfig::default();
        let qin = random_qinput(7, 20, 2, 80);
        let w = ConvWeights::seeded(3, 2, 4, 9);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let run = Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap();
        let shape = LayerShape::measure(&qin, &cfg, 4);
        assert_eq!(shape.matches, run.stats.matches);
        assert_eq!(shape.active_tiles, run.stats.active_tiles);
        assert_eq!(shape.scanned_sites, run.stats.scanned_sites);
        assert_eq!(shape.nnz, run.stats.match_groups);
    }

    #[test]
    fn weight_term_prices_the_simulators_weight_bytes_at_k5() {
        let mut cfg = EscaConfig::default();
        cfg.kernel = 5;
        let esca = Esca::new(cfg).unwrap();
        let qin = random_qinput(11, 16, 4, 90);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(5, 4, 8, 12), 8, 10).unwrap();
        let loaded = esca.run_layer_opts(&qin, &qw, false, true).unwrap();
        let resident = esca.run_layer_opts(&qin, &qw, false, false).unwrap();
        let weight_bytes = loaded.stats.dram_bytes_in - resident.stats.dram_bytes_in;

        let shape = LayerShape::measure(&qin, &cfg, 8);
        let exposed = estimate_layer(&shape, &cfg).dram_stall_cycles;
        let overlapped = estimate_layer(
            &shape,
            &EscaConfig {
                weight_load_overlap: true,
                ..cfg
            },
        )
        .dram_stall_cycles;
        assert_eq!(exposed - overlapped, cfg.dram_cycles(weight_bytes).unwrap());
    }

    #[test]
    fn estimate_scales_with_channel_groups() {
        let cfg = EscaConfig::default();
        let base = LayerShape {
            nnz: 1000,
            matches: 8000,
            active_tiles: 20,
            scanned_sites: 20 * 512,
            scan_lines: 20 * 64,
            in_ch: 16,
            out_ch: 16,
        };
        let narrow = estimate_layer(&base, &cfg);
        let wide = estimate_layer(
            &LayerShape {
                in_ch: 64,
                out_ch: 64,
                ..base
            },
            &cfg,
        );
        assert!(wide.pipeline_cycles > 10 * narrow.pipeline_cycles / 2);
    }
}
