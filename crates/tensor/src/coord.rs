//! Voxel coordinates, grid extents and kernel offset iteration.

use crate::error::TensorError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A signed 3-D voxel coordinate.
///
/// Coordinates are signed so that kernel-offset arithmetic near the grid
/// boundary cannot underflow; validity against an [`Extent3`] is checked
/// explicitly via [`Extent3::contains`].
///
/// The canonical traversal order used throughout the workspace is
/// **raster order with z fastest**: `(x, y, z)` compared lexicographically.
/// This matches the hardware's per-line processing along z (§III-C of the
/// paper), so "lines" are runs of constant `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord3 {
    /// x component (slowest-varying in raster order).
    pub x: i32,
    /// y component.
    pub y: i32,
    /// z component (fastest-varying in raster order; the SDMU's column axis).
    pub z: i32,
}

impl Coord3 {
    /// The origin coordinate `(0, 0, 0)`.
    pub const ORIGIN: Coord3 = Coord3 { x: 0, y: 0, z: 0 };

    /// Creates a coordinate from its components.
    ///
    /// ```
    /// # use esca_tensor::Coord3;
    /// let c = Coord3::new(1, -2, 3);
    /// assert_eq!((c.x, c.y, c.z), (1, -2, 3));
    /// ```
    #[inline]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        Coord3 { x, y, z }
    }

    /// Component-wise offset by `(dx, dy, dz)`.
    #[inline]
    pub const fn offset(self, dx: i32, dy: i32, dz: i32) -> Self {
        Coord3 {
            x: self.x + dx,
            y: self.y + dy,
            z: self.z + dz,
        }
    }

    /// Chebyshev (L∞) distance to `other`. Two voxels are within the same
    /// K×K×K receptive field iff their Chebyshev distance is ≤ K/2. No
    /// library path calls it; `crates/sscn/tests/proptests.rs` counts
    /// matches by brute force with it.
    #[inline]
    pub fn chebyshev(self, other: Coord3) -> u32 {
        self.x
            .abs_diff(other.x)
            .max(self.y.abs_diff(other.y))
            .max(self.z.abs_diff(other.z))
    }
}

impl fmt::Display for Coord3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Add for Coord3 {
    type Output = Coord3;
    #[inline]
    fn add(self, rhs: Coord3) -> Coord3 {
        Coord3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Coord3 {
    type Output = Coord3;
    #[inline]
    fn sub(self, rhs: Coord3) -> Coord3 {
        Coord3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl From<(i32, i32, i32)> for Coord3 {
    #[inline]
    fn from((x, y, z): (i32, i32, i32)) -> Self {
        Coord3::new(x, y, z)
    }
}

impl From<Coord3> for (i32, i32, i32) {
    #[inline]
    fn from(c: Coord3) -> Self {
        (c.x, c.y, c.z)
    }
}

/// The size of a 3-D voxel grid.
///
/// All components are nonzero in a valid extent (enforced by [`Extent3::new`]
/// panicking on zero; use [`Extent3::try_new`] for a fallible variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extent3 {
    /// Size along x.
    pub x: u32,
    /// Size along y.
    pub y: u32,
    /// Size along z.
    pub z: u32,
}

impl Extent3 {
    /// Creates an extent.
    ///
    /// # Panics
    ///
    /// Panics if any component is zero. Use [`Extent3::try_new`] to get a
    /// `Result` instead.
    #[inline]
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Self::try_new(x, y, z).expect("extent components must be nonzero")
    }

    /// Fallible constructor; errors if any component is zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidTileShape`] when a component is zero.
    pub fn try_new(x: u32, y: u32, z: u32) -> Result<Self> {
        if x == 0 || y == 0 || z == 0 {
            return Err(TensorError::InvalidTileShape {
                reason: format!("extent components must be nonzero, got {x}x{y}x{z}"),
            });
        }
        Ok(Extent3 { x, y, z })
    }

    /// A cubic extent `s × s × s`, the common case in the paper (192³ grids).
    #[inline]
    pub fn cube(s: u32) -> Self {
        Extent3::new(s, s, s)
    }

    /// Total number of voxel sites.
    #[inline]
    pub fn volume(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Whether `c` lies inside `[0, extent)` on all axes.
    #[inline]
    pub fn contains(self, c: Coord3) -> bool {
        c.x >= 0
            && c.y >= 0
            && c.z >= 0
            && (c.x as u32) < self.x
            && (c.y as u32) < self.y
            && (c.z as u32) < self.z
    }

    /// Raster-order linear index of `c` (z fastest), or an error if out of
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `c` is outside the extent.
    #[inline]
    pub fn linear(self, c: Coord3) -> Result<usize> {
        if !self.contains(c) {
            return Err(TensorError::OutOfBounds {
                coord: c,
                extent: self,
            });
        }
        Ok(self.linear_unchecked(c))
    }

    /// Raster-order linear index without a bounds check.
    ///
    /// The caller must ensure `self.contains(c)`; otherwise the returned
    /// index is meaningless (but no memory unsafety can result — this crate
    /// is `forbid(unsafe_code)`).
    #[inline]
    pub fn linear_unchecked(self, c: Coord3) -> usize {
        ((c.x as usize * self.y as usize) + c.y as usize) * self.z as usize + c.z as usize
    }

    /// Inverse of [`Extent3::linear`]: the coordinate at raster index `i`.
    #[inline]
    pub fn delinear(self, i: usize) -> Coord3 {
        let z = (i % self.z as usize) as i32;
        let rest = i / self.z as usize;
        let y = (rest % self.y as usize) as i32;
        let x = (rest / self.y as usize) as i32;
        Coord3::new(x, y, z)
    }

    /// Iterates every coordinate in raster order (z fastest).
    pub fn iter(self) -> impl Iterator<Item = Coord3> {
        (0..self.x as i32).flat_map(move |x| {
            (0..self.y as i32)
                .flat_map(move |y| (0..self.z as i32).map(move |z| Coord3::new(x, y, z)))
        })
    }
}

impl fmt::Display for Extent3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// The set of relative offsets covered by a K×K×K convolution kernel,
/// centred at the origin.
///
/// Offsets are enumerated in **column order**: `(dx, dy)` pairs (the K²
/// "columns" of §III-C) in raster order, with `dz` fastest within a column.
/// This ordering is shared by the golden model's weight layout and by the
/// accelerator's SDMU/weight buffer, so that weights and matches line up
/// positionally ("weights and activations have a positional correspondence
/// in each match group", §III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOffsets {
    k: u32,
    offsets: Vec<Coord3>,
}

impl KernelOffsets {
    /// Builds the offset table for an odd kernel size `k` (the paper uses
    /// K = 3 everywhere).
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero — submanifold convolution requires a
    /// well-defined centre site.
    pub fn new(k: u32) -> Self {
        assert!(k % 2 == 1 && k > 0, "kernel size must be odd and nonzero");
        let r = (k / 2) as i32;
        let mut offsets = Vec::with_capacity((k * k * k) as usize);
        for dx in -r..=r {
            for dy in -r..=r {
                for dz in -r..=r {
                    offsets.push(Coord3::new(dx, dy, dz));
                }
            }
        }
        KernelOffsets { k, offsets }
    }

    /// Kernel size K.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Kernel radius K/2.
    #[inline]
    pub fn radius(&self) -> i32 {
        (self.k / 2) as i32
    }

    /// Number of offsets, K³.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the kernel is empty (never true for a valid kernel).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Number of columns, K². Matches the decoder parallelism of the SDMU.
    #[inline]
    pub fn columns(&self) -> usize {
        (self.k * self.k) as usize
    }

    /// All offsets in column order (dz fastest).
    #[inline]
    pub fn offsets(&self) -> &[Coord3] {
        &self.offsets
    }

    /// The linear *kernel tap index* of an offset, i.e. its position in
    /// [`KernelOffsets::offsets`]; `None` when the offset is outside the
    /// kernel support. No library path calls it; the SDMU's unit tests and
    /// `crates/tensor/tests/proptests.rs` check tap numbering with it.
    pub fn tap_index(&self, off: Coord3) -> Option<usize> {
        let r = self.radius();
        if off.x.abs() > r || off.y.abs() > r || off.z.abs() > r {
            return None;
        }
        let k = self.k as usize;
        let ux = (off.x + r) as usize;
        let uy = (off.y + r) as usize;
        let uz = (off.z + r) as usize;
        Some((ux * k + uy) * k + uz)
    }

    /// The column index (0..K²) of an offset's `(dx, dy)` pair. No library
    /// path calls it; `crates/tensor/tests/proptests.rs` checks
    /// [`KernelOffsets::column_offset`] against it.
    pub fn column_index(&self, off: Coord3) -> Option<usize> {
        let r = self.radius();
        if off.x.abs() > r || off.y.abs() > r {
            return None;
        }
        let k = self.k as usize;
        Some(((off.x + r) as usize) * k + (off.y + r) as usize)
    }

    /// The `(dx, dy)` pair of a column index (inverse of
    /// [`KernelOffsets::column_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `col >= K²`.
    #[inline]
    pub fn column_offset(&self, col: usize) -> (i32, i32) {
        assert!(col < self.columns(), "column index out of range");
        // Column `col` owns offsets `col·K .. col·K + K` (dz fastest), so a
        // table read replaces the division by K.
        let o = self.offsets[col * self.k as usize];
        (o.x, o.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_roundtrip() {
        let e = Extent3::new(4, 5, 6);
        for i in 0..e.volume() as usize {
            let c = e.delinear(i);
            assert_eq!(e.linear(c).unwrap(), i);
        }
    }

    #[test]
    fn linear_is_raster_z_fastest() {
        let e = Extent3::new(2, 2, 4);
        assert_eq!(e.linear(Coord3::new(0, 0, 0)).unwrap(), 0);
        assert_eq!(e.linear(Coord3::new(0, 0, 1)).unwrap(), 1);
        assert_eq!(e.linear(Coord3::new(0, 1, 0)).unwrap(), 4);
        assert_eq!(e.linear(Coord3::new(1, 0, 0)).unwrap(), 8);
    }

    #[test]
    fn contains_rejects_negative_and_overflow() {
        let e = Extent3::cube(3);
        assert!(e.contains(Coord3::new(0, 0, 0)));
        assert!(e.contains(Coord3::new(2, 2, 2)));
        assert!(!e.contains(Coord3::new(-1, 0, 0)));
        assert!(!e.contains(Coord3::new(0, 3, 0)));
    }

    #[test]
    fn out_of_bounds_linear_errors() {
        let e = Extent3::cube(2);
        let err = e.linear(Coord3::new(2, 0, 0)).unwrap_err();
        assert!(matches!(err, TensorError::OutOfBounds { .. }));
    }

    #[test]
    fn extent_iter_covers_volume_in_order() {
        let e = Extent3::new(2, 3, 2);
        let coords: Vec<_> = e.iter().collect();
        assert_eq!(coords.len(), e.volume() as usize);
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(e.linear(*c).unwrap(), i);
        }
        // Raster order is strictly increasing.
        let mut sorted = coords.clone();
        sorted.sort();
        assert_eq!(coords, sorted);
    }

    #[test]
    fn zero_extent_rejected() {
        assert!(Extent3::try_new(0, 1, 1).is_err());
        assert!(Extent3::try_new(1, 0, 1).is_err());
        assert!(Extent3::try_new(1, 1, 0).is_err());
    }

    #[test]
    fn kernel_offsets_k3_has_27_taps_9_columns() {
        let k = KernelOffsets::new(3);
        assert_eq!(k.len(), 27);
        assert_eq!(k.columns(), 9);
        assert_eq!(k.radius(), 1);
        // Centre tap is the middle of the table.
        assert_eq!(k.tap_index(Coord3::ORIGIN), Some(13));
    }

    #[test]
    fn kernel_offsets_k1_is_identity() {
        let k = KernelOffsets::new(1);
        assert_eq!(k.len(), 1);
        assert_eq!(k.offsets()[0], Coord3::ORIGIN);
        assert_eq!(k.columns(), 1);
    }

    #[test]
    fn kernel_tap_index_matches_enumeration() {
        let k = KernelOffsets::new(5);
        for (i, off) in k.offsets().iter().enumerate() {
            assert_eq!(k.tap_index(*off), Some(i));
        }
        assert_eq!(k.tap_index(Coord3::new(3, 0, 0)), None);
    }

    #[test]
    fn kernel_column_roundtrip() {
        let k = KernelOffsets::new(3);
        for col in 0..k.columns() {
            let (dx, dy) = k.column_offset(col);
            assert_eq!(k.column_index(Coord3::new(dx, dy, 0)), Some(col));
        }
    }

    #[test]
    fn column_order_is_dz_fastest() {
        let k = KernelOffsets::new(3);
        // First three taps belong to column 0 with dz = -1, 0, 1.
        assert_eq!(k.offsets()[0], Coord3::new(-1, -1, -1));
        assert_eq!(k.offsets()[1], Coord3::new(-1, -1, 0));
        assert_eq!(k.offsets()[2], Coord3::new(-1, -1, 1));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = KernelOffsets::new(2);
    }

    #[test]
    fn distances() {
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(1, -2, 3);
        assert_eq!(a.chebyshev(b), 3);
    }

    #[test]
    fn coord_arithmetic() {
        let a = Coord3::new(1, 2, 3);
        let b = Coord3::new(-1, 1, 0);
        assert_eq!(a + b, Coord3::new(0, 3, 3));
        assert_eq!(a - b, Coord3::new(2, 1, 3));
        assert_eq!(a.offset(1, 1, 1), Coord3::new(2, 3, 4));
    }
}
