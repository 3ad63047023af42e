//! Fixed-size tiling of a voxel grid with active/empty classification —
//! the substrate of the paper's *tile-based zero removing strategy*
//! (§III-A, Fig. 3, Table I).
//!
//! The grid is divided into tiles of a configurable shape `N × M × L`;
//! tiles whose sites are all zero are *fully sparse* and can be removed
//! without affecting any submanifold-convolution output, because a removed
//! tile contributes neither centres nor nonzero neighbor values.

use crate::coord::{Coord3, Extent3};
use crate::error::TensorError;
use crate::mask::OccupancyMask;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of one tile, the paper's configurable `N × M × L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    /// Tile size along x.
    pub n: u32,
    /// Tile size along y.
    pub m: u32,
    /// Tile size along z.
    pub l: u32,
}

impl TileShape {
    /// Creates a tile shape.
    ///
    /// # Panics
    ///
    /// Panics if any side is zero.
    pub fn new(n: u32, m: u32, l: u32) -> Self {
        assert!(n > 0 && m > 0 && l > 0, "tile sides must be nonzero");
        TileShape { n, m, l }
    }

    /// The cubic tile `s × s × s` used throughout the paper's Table I
    /// (4³, 8³, 12³, 16³; the design point is 8³).
    pub fn cube(s: u32) -> Self {
        TileShape::new(s, s, s)
    }

    /// Sites per tile.
    #[inline]
    pub fn volume(self) -> u64 {
        self.n as u64 * self.m as u64 * self.l as u64
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.n, self.m, self.l)
    }
}

/// Descriptor of a single tile inside a [`TileGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileInfo {
    /// Raster index of the tile within the tile grid.
    pub index: usize,
    /// Grid coordinate of the tile's minimum corner.
    pub origin: Coord3,
    /// Number of active sites inside the tile.
    pub nnz: usize,
}

impl TileInfo {
    /// Inclusive maximum corner of the tile (clamped to the grid).
    pub fn max_corner(&self, shape: TileShape, extent: Extent3) -> Coord3 {
        Coord3::new(
            (self.origin.x + shape.n as i32 - 1).min(extent.x as i32 - 1),
            (self.origin.y + shape.m as i32 - 1).min(extent.y as i32 - 1),
            (self.origin.z + shape.l as i32 - 1).min(extent.z as i32 - 1),
        )
    }
}

/// Partition of an extent into tiles of a fixed shape.
///
/// Tiles at the high boundary may be partial when the extent is not a
/// multiple of the tile shape (the paper's 192³ grids divide evenly by all
/// four evaluated tile sizes).
///
/// # Example
///
/// ```
/// use esca_tensor::{Extent3, TileGrid, TileShape};
///
/// let g = TileGrid::new(Extent3::cube(192), TileShape::cube(8));
/// assert_eq!(g.total_tiles(), 24 * 24 * 24); // 13824, as in Table I
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGrid {
    extent: Extent3,
    shape: TileShape,
    tiles: (u32, u32, u32),
}

impl TileGrid {
    /// Creates a tile grid over `extent` with the given tile shape.
    pub fn new(extent: Extent3, shape: TileShape) -> Self {
        let tiles = (
            extent.x.div_ceil(shape.n),
            extent.y.div_ceil(shape.m),
            extent.z.div_ceil(shape.l),
        );
        TileGrid {
            extent,
            shape,
            tiles,
        }
    }

    /// The grid extent being tiled.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// The tile shape.
    #[inline]
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// Total tile count (Table I's "All Tiles" column).
    #[inline]
    pub fn total_tiles(&self) -> usize {
        self.tiles.0 as usize * self.tiles.1 as usize * self.tiles.2 as usize
    }

    /// The tile raster index containing coordinate `c`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `c` is outside the extent.
    pub fn tile_of(&self, c: Coord3) -> Result<usize> {
        if !self.extent.contains(c) {
            return Err(TensorError::OutOfBounds {
                coord: c,
                extent: self.extent,
            });
        }
        let tx = c.x as u32 / self.shape.n;
        let ty = c.y as u32 / self.shape.m;
        let tz = c.z as u32 / self.shape.l;
        Ok(((tx * self.tiles.1 + ty) * self.tiles.2 + tz) as usize)
    }

    /// The minimum-corner coordinate of tile `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_tiles()`.
    pub fn tile_origin(&self, index: usize) -> Coord3 {
        assert!(index < self.total_tiles(), "tile index out of range");
        let tz = index as u32 % self.tiles.2;
        let rest = index as u32 / self.tiles.2;
        let ty = rest % self.tiles.1;
        let tx = rest / self.tiles.1;
        Coord3::new(
            (tx * self.shape.n) as i32,
            (ty * self.shape.m) as i32,
            (tz * self.shape.l) as i32,
        )
    }

    /// Classifies every tile against an occupancy mask, producing the
    /// active-tile report used by the zero-removing unit and Table I.
    pub fn classify(&self, mask: &OccupancyMask) -> TileReport {
        assert_eq!(
            mask.extent(),
            self.extent,
            "mask extent must match tile grid extent"
        );
        // One pass over the active sites rather than over all tiles: with
        // 99.9 % sparsity this is orders of magnitude cheaper than probing
        // every tile's box.
        let mut nnz_per_tile = vec![0usize; self.total_tiles()];
        for c in mask.iter_active() {
            let t = self.tile_of(c).expect("active coords are in bounds");
            nnz_per_tile[t] += 1;
        }
        let active: Vec<TileInfo> = nnz_per_tile
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &nnz)| TileInfo {
                index,
                origin: self.tile_origin(index),
                nnz,
            })
            .collect();
        TileReport {
            grid: *self,
            active,
        }
    }
}

/// Result of classifying a grid's tiles: the data behind Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileReport {
    grid: TileGrid,
    active: Vec<TileInfo>,
}

impl TileReport {
    /// The tile grid this report describes.
    #[inline]
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// Active tiles, in tile raster order.
    #[inline]
    pub fn active(&self) -> &[TileInfo] {
        &self.active
    }

    /// Table I's "Active Tiles".
    #[inline]
    pub fn active_tiles(&self) -> usize {
        self.active.len()
    }

    /// Table I's "All Tiles".
    #[inline]
    pub fn total_tiles(&self) -> usize {
        self.grid.total_tiles()
    }

    /// Table I's "Removing Ratio": fraction of tiles removed.
    pub fn removing_ratio(&self) -> f64 {
        1.0 - self.active_tiles() as f64 / self.total_tiles() as f64
    }

    /// Mean density (nnz / tile volume) over active tiles; a measure of the
    /// load-imbalance relief the strategy provides.
    pub fn mean_active_density(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        let v = self.grid.shape().volume() as f64;
        self.active.iter().map(|t| t.nnz as f64 / v).sum::<f64>() / self.active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_with(coords: &[Coord3], extent: Extent3) -> OccupancyMask {
        let mut m = OccupancyMask::new(extent);
        for &c in coords {
            m.set(c, true).unwrap();
        }
        m
    }

    #[test]
    fn table1_tile_counts_at_192() {
        let e = Extent3::cube(192);
        assert_eq!(TileGrid::new(e, TileShape::cube(4)).total_tiles(), 110592);
        assert_eq!(TileGrid::new(e, TileShape::cube(8)).total_tiles(), 13824);
        assert_eq!(TileGrid::new(e, TileShape::cube(12)).total_tiles(), 4096);
        assert_eq!(TileGrid::new(e, TileShape::cube(16)).total_tiles(), 1728);
    }

    #[test]
    fn tile_of_and_origin_roundtrip() {
        let g = TileGrid::new(Extent3::new(16, 8, 8), TileShape::new(4, 4, 4));
        for idx in 0..g.total_tiles() {
            let o = g.tile_origin(idx);
            assert_eq!(g.tile_of(o).unwrap(), idx);
        }
    }

    #[test]
    fn classify_counts_per_tile() {
        let e = Extent3::cube(8);
        let g = TileGrid::new(e, TileShape::cube(4));
        let m = mask_with(
            &[
                Coord3::new(0, 0, 0),
                Coord3::new(1, 1, 1),
                Coord3::new(7, 7, 7),
            ],
            e,
        );
        let r = g.classify(&m);
        assert_eq!(r.total_tiles(), 8);
        assert_eq!(r.active_tiles(), 2);
        assert_eq!(r.active().iter().map(|t| t.nnz).sum::<usize>(), 3);
        let first = &r.active()[0];
        assert_eq!(first.origin, Coord3::ORIGIN);
        assert_eq!(first.nnz, 2);
        assert!((r.removing_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_mask_removes_everything() {
        let e = Extent3::cube(16);
        let g = TileGrid::new(e, TileShape::cube(4));
        let r = g.classify(&OccupancyMask::new(e));
        assert_eq!(r.active_tiles(), 0);
        assert!((r.removing_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(r.mean_active_density(), 0.0);
    }

    #[test]
    fn uneven_extent_gets_partial_tiles() {
        let g = TileGrid::new(Extent3::new(10, 10, 10), TileShape::cube(4));
        assert_eq!(g.total_tiles(), 27);
    }

    #[test]
    fn max_corner_clamps_at_boundary() {
        let e = Extent3::new(10, 10, 10);
        let g = TileGrid::new(e, TileShape::cube(4));
        let r = g.classify(&mask_with(&[Coord3::new(9, 9, 9)], e));
        let t = r.active()[0];
        assert_eq!(t.origin, Coord3::new(8, 8, 8));
        assert_eq!(t.max_corner(g.shape(), e), Coord3::new(9, 9, 9));
    }

    #[test]
    fn mean_density_single_full_tile() {
        let e = Extent3::cube(4);
        let g = TileGrid::new(e, TileShape::cube(4));
        let all: Vec<Coord3> = e.iter().collect();
        let r = g.classify(&mask_with(&all, e));
        assert_eq!(r.active_tiles(), 1);
        assert!((r.mean_active_density() - 1.0).abs() < 1e-12);
    }
}
