//! Dense 3-D tensors with a channel dimension.
//!
//! Dense tensors are the exchange format between the sparse world and the
//! *traditional convolution* reference (the paper's Fig. 2(a) contrast), and
//! double as small scratch volumes in tests.

use crate::coord::{Coord3, Extent3};
use crate::error::TensorError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A dense row-major 3-D tensor of `T` with `channels` features per site.
///
/// Memory layout: site-major in raster order (z fastest), channel-minor —
/// i.e. `data[linear(coord) * channels + c]`.
///
/// # Example
///
/// ```
/// use esca_tensor::{Coord3, Dense3, Extent3};
///
/// let mut d = Dense3::<f32>::zeros(Extent3::cube(4), 2);
/// d.set(Coord3::new(1, 2, 3), &[0.5, -0.5]).unwrap();
/// assert_eq!(d.get(Coord3::new(1, 2, 3)).unwrap(), &[0.5, -0.5]);
/// assert_eq!(d.get(Coord3::new(0, 0, 0)).unwrap(), &[0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense3<T> {
    extent: Extent3,
    channels: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Dense3<T> {
    /// Creates a tensor of default-valued elements (zeros for numeric `T`).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or the total element count would overflow
    /// `usize`.
    pub fn zeros(extent: Extent3, channels: usize) -> Self {
        assert!(channels > 0, "channel count must be nonzero");
        let sites = usize::try_from(extent.volume()).expect("extent volume overflows usize");
        let len = sites
            .checked_mul(channels)
            .expect("dense tensor size overflows usize");
        Dense3 {
            extent,
            channels,
            data: vec![T::default(); len],
        }
    }
}

impl<T: Copy> Dense3<T> {
    /// Creates a tensor from raw site-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ChannelMismatch`] when `data.len()` is not
    /// `extent.volume() * channels`.
    pub fn from_raw(extent: Extent3, channels: usize, data: Vec<T>) -> Result<Self> {
        let expected = extent.volume() as usize * channels;
        if data.len() != expected {
            return Err(TensorError::ChannelMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Dense3 {
            extent,
            channels,
            data,
        })
    }

    /// Grid extent.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Feature channels per site.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The feature vector at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `c` is outside the extent.
    pub fn get(&self, c: Coord3) -> Result<&[T]> {
        let i = self.extent.linear(c)?;
        Ok(&self.data[i * self.channels..(i + 1) * self.channels])
    }

    /// The feature vector at `c`, or `None` when out of bounds. Convenience
    /// for kernels that treat outside-the-grid as zero.
    pub fn get_opt(&self, c: Coord3) -> Option<&[T]> {
        if self.extent.contains(c) {
            let i = self.extent.linear_unchecked(c);
            Some(&self.data[i * self.channels..(i + 1) * self.channels])
        } else {
            None
        }
    }

    /// Overwrites the feature vector at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for a bad coordinate and
    /// [`TensorError::ChannelMismatch`] for a wrong-length feature slice.
    pub fn set(&mut self, c: Coord3, features: &[T]) -> Result<()> {
        if features.len() != self.channels {
            return Err(TensorError::ChannelMismatch {
                expected: self.channels,
                got: features.len(),
            });
        }
        let i = self.extent.linear(c)?;
        self.data[i * self.channels..(i + 1) * self.channels].copy_from_slice(features);
        Ok(())
    }

    /// Mutable access to the feature vector at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `c` is outside the extent.
    pub fn get_mut(&mut self, c: Coord3) -> Result<&mut [T]> {
        let i = self.extent.linear(c)?;
        Ok(&mut self.data[i * self.channels..(i + 1) * self.channels])
    }

    /// The raw site-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Iterates `(coord, features)` over every site in raster order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord3, &[T])> {
        let e = self.extent;
        let ch = self.channels;
        self.data
            .chunks_exact(ch)
            .enumerate()
            .map(move |(i, f)| (e.delinear(i), f))
    }
}

impl Dense3<f32> {
    /// Number of sites whose feature vector is not all-zero.
    pub fn nonzero_sites(&self) -> usize {
        self.data
            .chunks_exact(self.channels)
            .filter(|f| f.iter().any(|v| *v != 0.0))
            .count()
    }

    /// Fraction of all-zero sites, the paper's notion of sparsity.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nonzero_sites() as f64 / self.extent.volume() as f64
    }

    /// Maximum absolute element difference against `other`: with
    /// [`crate::SparseTensor::max_abs_diff`], the comparison oracle of the
    /// equivalence tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ExtentMismatch`] /
    /// [`TensorError::ChannelMismatch`] when the shapes differ.
    pub fn max_abs_diff(&self, other: &Dense3<f32>) -> Result<f32> {
        if self.extent != other.extent {
            return Err(TensorError::ExtentMismatch {
                left: self.extent,
                right: other.extent,
            });
        }
        if self.channels != other.channels {
            return Err(TensorError::ChannelMismatch {
                expected: self.channels,
                got: other.channels,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut d = Dense3::<f32>::zeros(Extent3::new(2, 3, 4), 3);
        assert_eq!(d.channels(), 3);
        let c = Coord3::new(1, 2, 3);
        d.set(c, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.get(c).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_wrong_channels_errors() {
        let mut d = Dense3::<f32>::zeros(Extent3::cube(2), 2);
        let err = d.set(Coord3::ORIGIN, &[1.0]).unwrap_err();
        assert!(matches!(err, TensorError::ChannelMismatch { .. }));
    }

    #[test]
    fn get_out_of_bounds_errors() {
        let d = Dense3::<f32>::zeros(Extent3::cube(2), 1);
        assert!(d.get(Coord3::new(2, 0, 0)).is_err());
        assert!(d.get_opt(Coord3::new(-1, 0, 0)).is_none());
    }

    #[test]
    fn from_raw_validates_length() {
        let e = Extent3::cube(2);
        assert!(Dense3::from_raw(e, 1, vec![0.0f32; 8]).is_ok());
        assert!(Dense3::from_raw(e, 1, vec![0.0f32; 7]).is_err());
    }

    #[test]
    fn sparsity_counts_sites_not_elements() {
        let mut d = Dense3::<f32>::zeros(Extent3::cube(2), 2);
        d.set(Coord3::ORIGIN, &[0.0, 1.0]).unwrap();
        assert_eq!(d.nonzero_sites(), 1);
        assert!((d.sparsity() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_raster_order() {
        let mut d = Dense3::<f32>::zeros(Extent3::new(1, 2, 2), 1);
        d.set(Coord3::new(0, 1, 1), &[9.0]).unwrap();
        let v: Vec<_> = d.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[3].0, Coord3::new(0, 1, 1));
        assert_eq!(v[3].1, &[9.0]);
    }

    #[test]
    fn max_abs_diff_detects_mismatch() {
        let a = Dense3::<f32>::zeros(Extent3::cube(2), 1);
        let b = Dense3::<f32>::zeros(Extent3::cube(3), 1);
        assert!(a.max_abs_diff(&b).is_err());
        let mut c = Dense3::<f32>::zeros(Extent3::cube(2), 1);
        c.set(Coord3::ORIGIN, &[2.5]).unwrap();
        assert_eq!(a.max_abs_diff(&c).unwrap(), 2.5);
    }
}
