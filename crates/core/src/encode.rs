//! The encoding scheme (§III-B): a feature map becomes an **index mask**
//! (one bit per site) plus **valid data** (the nonzero activations, banked
//! per column line, and the weights).
//!
//! [`EncodedFeatureMap`] is the geometry of what the DMA engine deposits
//! into the on-chip buffers: the mask feeds the mask buffer and the SDMU's
//! mask judger; the z-line index ([`LineRuns`]) lays out the activation
//! banks exactly so the `(A, B)` state index addresses them as contiguous
//! fragments. The map holds no feature values; its byte accounting prices
//! the valid data they make up.

use crate::Result;
use esca_tensor::{LineRuns, OccupancyMask, SparseTensor, TileGrid, TileReport, TileShape, Q16};

/// Bytes of valid data for `sites` active sites of `channels` INT16
/// features each.
pub(crate) fn activation_bytes(sites: usize, channels: usize) -> usize {
    sites * channels * 2
}

/// A feature map in the accelerator's encoded form.
#[derive(Debug, Clone)]
pub struct EncodedFeatureMap {
    mask: OccupancyMask,
    lines: LineRuns,
    tiles: TileReport,
    channels: usize,
    nnz: usize,
}

impl EncodedFeatureMap {
    /// Encodes a quantized sparse tensor under the given tile shape.
    ///
    /// # Errors
    ///
    /// Currently infallible for in-invariant tensors, but returns
    /// [`crate::EscaError`] to keep the encoding path uniform with the
    /// buffer-capacity checks done by the accelerator.
    pub fn encode(t: &SparseTensor<Q16>, tile: TileShape) -> Result<Self> {
        let mask = t.occupancy_mask();
        let lines = LineRuns::new(t.coords());
        let grid = TileGrid::new(t.extent(), tile);
        let tiles = grid.classify(&mask);
        Ok(EncodedFeatureMap {
            mask,
            lines,
            tiles,
            channels: t.channels(),
            nnz: t.nnz(),
        })
    }

    /// The index mask.
    #[inline]
    pub fn mask(&self) -> &OccupancyMask {
        &self.mask
    }

    /// The z-line index that addresses the activation banks (valid data).
    #[inline]
    pub fn lines(&self) -> &LineRuns {
        &self.lines
    }

    /// Active-tile report from the zero-removing pre-pass.
    #[inline]
    pub fn tiles(&self) -> &TileReport {
        &self.tiles
    }

    /// Feature channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Nonzero (active) sites.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Bytes of index mask covering only the **active tiles** — what is
    /// actually shipped on-chip after zero removing.
    pub fn active_mask_bytes(&self) -> usize {
        let per_tile_bits = self.tiles.grid().shape().volume() as usize;
        (self.tiles.active_tiles() * per_tile_bits).div_ceil(8)
    }

    /// Bytes of valid activation data (INT16 features).
    pub fn act_bytes(&self) -> usize {
        activation_bytes(self.nnz, self.channels)
    }

    /// Bytes of coordinate metadata shipped with the valid data: one
    /// (line-id, z) record per entry (4 bytes, covering grids ≤ 2¹⁶ per
    /// axis).
    pub fn coord_bytes(&self) -> usize {
        self.nnz * 4
    }

    /// Bytes that do not scale with the channel count: the active tiles'
    /// index masks and the coordinate metadata.
    pub fn metadata_bytes(&self) -> usize {
        self.active_mask_bytes() + self.coord_bytes()
    }

    /// Total DRAM footprint of the encoded map.
    pub fn total_bytes(&self) -> usize {
        self.metadata_bytes() + self.act_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::{Coord3, Extent3};

    fn sample() -> SparseTensor<Q16> {
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(16), 2);
        t.insert(Coord3::new(1, 2, 3), &[Q16(10), Q16(-5)]).unwrap();
        t.insert(Coord3::new(1, 2, 4), &[Q16(7), Q16(0)]).unwrap();
        t.insert(Coord3::new(9, 9, 9), &[Q16(1), Q16(1)]).unwrap();
        t.canonicalize();
        t
    }

    #[test]
    fn encode_exposes_all_three_views() {
        let t = sample();
        let e = EncodedFeatureMap::encode(&t, TileShape::cube(8)).unwrap();
        assert_eq!(e.nnz(), 3);
        assert_eq!(e.channels(), 2);
        assert_eq!(e.mask().count_ones(), 3);
        assert_eq!(e.lines().zs().len(), 3);
        assert_eq!(e.tiles().active_tiles(), 2);
        assert_eq!(e.tiles().total_tiles(), 8);
    }

    #[test]
    fn byte_accounting() {
        let t = sample();
        let e = EncodedFeatureMap::encode(&t, TileShape::cube(8)).unwrap();
        // 2 active tiles × 512 bits = 128 bytes of mask.
        assert_eq!(e.active_mask_bytes(), 128);
        // 3 entries × 2 ch × 2 B = 12 bytes of activations.
        assert_eq!(e.act_bytes(), 12);
        assert_eq!(e.coord_bytes(), 12);
        assert_eq!(e.metadata_bytes(), 140);
        assert_eq!(e.total_bytes(), 152);
    }

    #[test]
    fn empty_map_encodes_to_nothing_active() {
        let t = SparseTensor::<Q16>::new(Extent3::cube(8), 1);
        let e = EncodedFeatureMap::encode(&t, TileShape::cube(4)).unwrap();
        assert_eq!(e.tiles().active_tiles(), 0);
        assert_eq!(e.active_mask_bytes(), 0);
        assert_eq!(e.total_bytes(), 0);
    }

    #[test]
    fn window_queries_reach_halo_across_tiles() {
        // Entry at tile boundary: the window query from the neighbor tile's
        // perspective still finds it (global line banks, not per-tile).
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(16), 1);
        t.insert(Coord3::new(7, 7, 7), &[Q16(3)]).unwrap();
        let e = EncodedFeatureMap::encode(&t, TileShape::cube(8)).unwrap();
        assert_eq!(e.lines().window(7, 7, 6, 9).len(), 1);
    }
}
