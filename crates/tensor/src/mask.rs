//! Bit-packed 3-D occupancy masks — the bulk form of the paper's
//! *index mask* (§III-B).
//!
//! The paper encodes a feature map as one-bit masks ("the activation is
//! zero or not") plus valid data. [`OccupancyMask`] is that mask over the
//! whole grid, stored 64 sites per word in raster order.

use crate::coord::{Coord3, Extent3};
use crate::Result;
use serde::{Deserialize, Serialize};

/// A bit-per-site occupancy grid.
///
/// # Example
///
/// ```
/// use esca_tensor::{Coord3, Extent3, OccupancyMask};
///
/// let mut m = OccupancyMask::new(Extent3::cube(4));
/// m.set(Coord3::new(1, 2, 3), true)?;
/// assert!(m.get(Coord3::new(1, 2, 3))?);
/// assert_eq!(m.count_ones(), 1);
/// # Ok::<(), esca_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyMask {
    extent: Extent3,
    words: Vec<u64>,
}

impl OccupancyMask {
    /// Creates an all-zero mask.
    pub fn new(extent: Extent3) -> Self {
        let sites = extent.volume() as usize;
        OccupancyMask {
            extent,
            words: vec![0; sites.div_ceil(64)],
        }
    }

    /// Grid extent.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Reads the bit at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::OutOfBounds`] when `c` is outside the extent.
    #[inline]
    pub fn get(&self, c: Coord3) -> Result<bool> {
        let i = self.extent.linear(c)?;
        Ok(self.get_linear(i))
    }

    /// Reads bit `z` of the z-line whose `z = 0` site has raster index
    /// `line_base` (`extent.linear(Coord3::new(x, y, 0))`), treating `z`
    /// outside the grid as empty — the semantics the mask judger needs at
    /// tile borders, since beyond the grid there are never activations.
    /// Resolving the base once per line makes each further read one
    /// compare and one word load.
    ///
    /// `line_base` must be the base of an in-grid line: any other value
    /// reads an unrelated bit or panics on an out-of-range word.
    #[inline]
    pub fn line_bit(&self, line_base: usize, z: i32) -> bool {
        (z as u32) < self.extent.z && self.get_linear(line_base + z as usize)
    }

    #[inline]
    fn get_linear(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes the bit at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::OutOfBounds`] when `c` is outside the extent.
    pub fn set(&mut self, c: Coord3, value: bool) -> Result<()> {
        let i = self.extent.linear(c)?;
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
        Ok(())
    }

    /// Number of set bits (active sites).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of unset sites.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.count_ones() as f64 / self.extent.volume() as f64
    }

    /// Iterates the coordinates of all set bits in raster order.
    pub fn iter_active(&self) -> impl Iterator<Item = Coord3> + '_ {
        let e = self.extent;
        let total = e.volume() as usize;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + b)
                    }
                })
            })
            .filter(move |&i| i < total)
            .map(move |i| e.delinear(i))
    }

    /// Whether any site inside the axis-aligned box `[lo, hi]` (inclusive,
    /// clamped to the grid) is active. This is the primitive the tile
    /// classifier uses.
    pub fn any_in_box(&self, lo: Coord3, hi: Coord3) -> bool {
        let x0 = lo.x.max(0);
        let y0 = lo.y.max(0);
        let z0 = lo.z.max(0);
        let x1 = hi.x.min(self.extent.x as i32 - 1);
        let y1 = hi.y.min(self.extent.y as i32 - 1);
        let z1 = hi.z.min(self.extent.z as i32 - 1);
        for x in x0..=x1 {
            for y in y0..=y1 {
                for z in z0..=z1 {
                    if self.get_linear(self.extent.linear_unchecked(Coord3::new(x, y, z))) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Counts active sites inside the inclusive, clamped box `[lo, hi]`.
    pub fn count_in_box(&self, lo: Coord3, hi: Coord3) -> usize {
        let x0 = lo.x.max(0);
        let y0 = lo.y.max(0);
        let z0 = lo.z.max(0);
        let x1 = hi.x.min(self.extent.x as i32 - 1);
        let y1 = hi.y.min(self.extent.y as i32 - 1);
        let z1 = hi.z.min(self.extent.z as i32 - 1);
        let mut n = 0;
        for x in x0..=x1 {
            for y in y0..=y1 {
                for z in z0..=z1 {
                    if self.get_linear(self.extent.linear_unchecked(Coord3::new(x, y, z))) {
                        n += 1;
                    }
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut m = OccupancyMask::new(Extent3::cube(3));
        let c = Coord3::new(2, 1, 0);
        assert!(!m.get(c).unwrap());
        m.set(c, true).unwrap();
        assert!(m.get(c).unwrap());
        m.set(c, false).unwrap();
        assert!(!m.get(c).unwrap());
    }

    #[test]
    fn out_of_bounds_is_error_or_empty() {
        let m = OccupancyMask::new(Extent3::cube(2));
        assert!(m.get(Coord3::new(2, 0, 0)).is_err());
        assert!(!m.line_bit(0, -1));
        assert!(!m.line_bit(0, 2));
    }

    #[test]
    fn count_ones_and_sparsity() {
        let mut m = OccupancyMask::new(Extent3::new(4, 4, 4));
        for i in 0..5 {
            m.set(Coord3::new(i % 4, (i / 4) % 4, 0), true).unwrap();
        }
        assert_eq!(m.count_ones(), 5);
        assert!((m.sparsity() - (1.0 - 5.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn iter_active_matches_sets_in_raster_order() {
        let mut m = OccupancyMask::new(Extent3::new(3, 3, 3));
        let coords = [
            Coord3::new(2, 2, 2),
            Coord3::new(0, 0, 1),
            Coord3::new(1, 0, 0),
        ];
        for &c in &coords {
            m.set(c, true).unwrap();
        }
        let active: Vec<_> = m.iter_active().collect();
        assert_eq!(active.len(), 3);
        let mut expect = coords.to_vec();
        expect.sort_by_key(|c| m.extent().linear_unchecked(*c));
        assert_eq!(active, expect);
    }

    #[test]
    fn iter_active_over_word_boundary() {
        // 5x5x5 = 125 sites spans two u64 words.
        let mut m = OccupancyMask::new(Extent3::cube(5));
        let c = Coord3::new(4, 4, 4); // index 124, in word 1
        m.set(c, true).unwrap();
        assert_eq!(m.iter_active().collect::<Vec<_>>(), vec![c]);
    }

    #[test]
    fn box_queries_clamp() {
        let mut m = OccupancyMask::new(Extent3::cube(4));
        m.set(Coord3::new(0, 0, 0), true).unwrap();
        m.set(Coord3::new(3, 3, 3), true).unwrap();
        assert!(m.any_in_box(Coord3::new(-5, -5, -5), Coord3::new(0, 0, 0)));
        assert_eq!(
            m.count_in_box(Coord3::new(0, 0, 0), Coord3::new(10, 10, 10)),
            2
        );
        assert!(!m.any_in_box(Coord3::new(1, 1, 1), Coord3::new(2, 2, 2)));
    }

    #[test]
    fn line_bit_reads_the_line_and_empty_beyond_it() {
        let e = Extent3::new(3, 2, 5);
        let mut m = OccupancyMask::new(e);
        for c in [
            Coord3::new(0, 0, 0),
            Coord3::new(1, 1, 4),
            Coord3::new(2, 0, 2),
        ] {
            m.set(c, true).unwrap();
        }
        for x in 0..3 {
            for y in 0..2 {
                let base = e.linear_unchecked(Coord3::new(x, y, 0));
                for z in -3..8 {
                    let c = Coord3::new(x, y, z);
                    assert_eq!(
                        m.line_bit(base, z),
                        m.get(c).unwrap_or(false),
                        "({x}, {y}, {z})"
                    );
                }
            }
        }
    }
}
