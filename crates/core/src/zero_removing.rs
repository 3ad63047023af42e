//! The tile-based zero removing strategy (§III-A, Fig. 3).
//!
//! The voxelized feature map arrives as a coordinate list; the zero
//! removing unit derives tile occupancy from the coordinates in a single
//! streaming pass and emits the active-tile list. Fully sparse tiles are
//! never shipped on-chip or scanned by the SDMU — which is exactly why the
//! strategy is output-invariant: a removed tile contributes neither
//! centres (no active sites) nor neighbor values (all zeros).

use esca_tensor::{SparseTensor, TileGrid, TileReport, TileShape, Q16};
use serde::{Deserialize, Serialize};

/// Cycle cost model of the streaming zero-removing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroRemovingCost {
    /// Coordinates classified per cycle (hash-to-tile + occupancy update).
    pub coords_per_cycle: u64,
    /// Fixed cycles to emit each active tile descriptor.
    pub cycles_per_active_tile: u64,
}

impl Default for ZeroRemovingCost {
    fn default() -> Self {
        ZeroRemovingCost {
            coords_per_cycle: 4,
            cycles_per_active_tile: 2,
        }
    }
}

/// Result of the zero-removing pre-pass.
#[derive(Debug, Clone)]
pub struct ZeroRemovingRun {
    /// Active-tile classification.
    pub report: TileReport,
    /// Cycles the pass took under the cost model.
    pub cycles: u64,
}

/// The zero removing unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroRemovingUnit {
    cost: ZeroRemovingCost,
}

impl ZeroRemovingUnit {
    /// Creates a unit with the given cost model.
    pub fn new(cost: ZeroRemovingCost) -> Self {
        ZeroRemovingUnit { cost }
    }

    /// Streams the coordinate list of `t`, classifying tiles of shape
    /// `tile` and charging cycles per the cost model.
    pub fn run(&self, t: &SparseTensor<Q16>, tile: TileShape) -> ZeroRemovingRun {
        let grid = TileGrid::new(t.extent(), tile);
        let report = grid.classify(&t.occupancy_mask());
        let cycles = self.cycles(t.nnz(), &report);
        ZeroRemovingRun { report, cycles }
    }

    /// Cycles the pass takes to stream `nnz` coordinates and emit the
    /// active tiles of `report`, per the cost model.
    pub fn cycles(&self, nnz: usize, report: &TileReport) -> u64 {
        let coord_cycles = (nnz as u64).div_ceil(self.cost.coords_per_cycle.max(1));
        coord_cycles + report.active_tiles() as u64 * self.cost.cycles_per_active_tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::{Coord3, Extent3};

    fn sample(n: usize) -> SparseTensor<Q16> {
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(32), 1);
        for i in 0..n {
            // Cluster in one corner so few tiles are active.
            let c = Coord3::new((i % 4) as i32, ((i / 4) % 4) as i32, (i / 16) as i32);
            t.insert(c, &[Q16(i as i16 + 1)]).unwrap();
        }
        t
    }

    #[test]
    fn classification_matches_tile_grid() {
        let t = sample(20);
        let unit = ZeroRemovingUnit::default();
        let run = unit.run(&t, TileShape::cube(8));
        let expect = TileGrid::new(t.extent(), TileShape::cube(8)).classify(&t.occupancy_mask());
        assert_eq!(run.report, expect);
    }

    #[test]
    fn cycle_cost_scales_with_nnz_not_volume() {
        let unit = ZeroRemovingUnit::default();
        let small = unit.run(&sample(8), TileShape::cube(8));
        let big = unit.run(&sample(64), TileShape::cube(8));
        assert!(big.cycles > small.cycles);
        // Crucially the cost is tied to nnz (coordinate stream), not to the
        // 32³ = 32768-site volume: far fewer cycles than sites.
        assert!(big.cycles < 32_768 / 4);
    }

    #[test]
    fn empty_input_costs_almost_nothing() {
        let t = SparseTensor::<Q16>::new(Extent3::cube(64), 1);
        let run = ZeroRemovingUnit::default().run(&t, TileShape::cube(8));
        assert_eq!(run.report.active_tiles(), 0);
        assert_eq!(run.cycles, 0);
    }

    /// Fig. 3's claim: removal of fully sparse tiles does not affect the
    /// Sub-Conv output. Rebuilding the tensor from only the active tiles'
    /// sites is the identity, so any computation downstream is unchanged.
    #[test]
    fn removal_is_output_invariant() {
        let t = sample(30);
        let run = ZeroRemovingUnit::default().run(&t, TileShape::cube(4));
        let grid = run.report.grid();
        // Collect sites tile-by-tile from the active list.
        let mut rebuilt = SparseTensor::<Q16>::new(t.extent(), 1);
        for info in run.report.active() {
            let hi = info.max_corner(grid.shape(), t.extent());
            for x in info.origin.x..=hi.x {
                for y in info.origin.y..=hi.y {
                    for z in info.origin.z..=hi.z {
                        let c = Coord3::new(x, y, z);
                        if let Some(f) = t.feature(c) {
                            rebuilt.insert(c, f).unwrap();
                        }
                    }
                }
            }
        }
        assert!(rebuilt.same_content(&t));
    }
}
