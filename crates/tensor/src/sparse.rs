//! Coordinate-list sparse tensors — the canonical functional representation
//! of a voxelized point-cloud feature map.
//!
//! A [`SparseTensor`] stores only the *active* (nonzero) sites together with
//! their feature vectors. The sites live in one shared, reference-counted
//! active set: every tensor on the same sites in the same order (a
//! submanifold layer's output, a channel concat, a quantized copy) points
//! at the same coordinates, fingerprint memo and coordinate index. The
//! index is a hash map built on the first point lookup, so tensors that
//! are only streamed in storage order never pay for it. This is the
//! representation the golden SSCN model computes on, and the source from
//! which the accelerator's index-mask / valid-data encoding is built.

use crate::coord::{Coord3, Extent3};
use crate::dense::Dense3;
use crate::error::TensorError;
use crate::mask::OccupancyMask;
use crate::Result;
use serde::{Content, Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A sparse 3-D tensor: a set of active sites with `channels` features each.
///
/// Invariants maintained by the public API:
///
/// * every stored coordinate lies inside [`SparseTensor::extent`];
/// * coordinates are unique (inserting twice overwrites);
/// * `features.len() == coords.len() * channels`.
///
/// Storage order is insertion order; call [`SparseTensor::canonicalize`] to
/// sort entries into raster order (z fastest), which the constructors that
/// ingest bulk data already do. Two tensors with the same sites and values
/// but different storage order compare equal under
/// [`SparseTensor::same_content`].
///
/// Cloning, [`SparseTensor::map`] and [`SparseTensor::from_template`]
/// share the active set in O(1); inserting a new site copies it first, so
/// the tensors that shared it never see the change.
///
/// Deserialization goes through [`SparseTensor::from_coord_features`], so
/// a payload with an out-of-bounds or repeated coordinate or a wrong
/// feature length is rejected.
///
/// # Example
///
/// ```
/// use esca_tensor::{Coord3, Extent3, SparseTensor};
///
/// let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 2);
/// t.insert(Coord3::new(1, 1, 1), &[1.0, 2.0])?;
/// assert_eq!(t.nnz(), 1);
/// assert_eq!(t.feature(Coord3::new(1, 1, 1)), Some(&[1.0, 2.0][..]));
/// assert_eq!(t.feature(Coord3::new(0, 0, 0)), None);
/// # Ok::<(), esca_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseTensor<T = f32> {
    extent: Extent3,
    channels: usize,
    features: Vec<T>,
    set: Arc<ActiveSet>,
}

/// The geometry half of a tensor, shared by every tensor on the same
/// coordinate sequence. Adding a site goes through [`Arc::make_mut`], so a
/// shared set is copied before it changes; reordering installs a new set.
#[derive(Debug, Clone, Default)]
struct ActiveSet {
    /// Active coordinates in storage order.
    coords: Vec<Coord3>,
    /// Memo of [`SparseTensor::active_fingerprint`]; cleared when a site
    /// is added.
    fingerprint: OnceLock<ActiveSetFingerprint>,
    /// Coordinate → storage position, built on the first point lookup.
    index: OnceLock<HashMap<Coord3, usize>>,
}

impl ActiveSet {
    fn index(&self) -> &HashMap<Coord3, usize> {
        self.index.get_or_init(|| {
            self.coords
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect()
        })
    }
}

/// The wire shape is the flat `{extent, channels, coords, features}` map;
/// the index and the fingerprint memo are not serialized.
impl<T: Serialize> Serialize for SparseTensor<T> {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("extent".to_string(), self.extent.to_content()),
            ("channels".to_string(), self.channels.to_content()),
            ("coords".to_string(), self.set.coords.to_content()),
            ("features".to_string(), self.features.to_content()),
        ])
    }
}

impl<T: Copy + Deserialize> Deserialize for SparseTensor<T> {
    fn from_content(content: &Content) -> std::result::Result<Self, serde::Error> {
        /// The serialized fields; the index and the memo are not sent.
        #[derive(Deserialize)]
        struct Wire<T> {
            extent: Extent3,
            channels: usize,
            coords: Vec<Coord3>,
            features: Vec<T>,
        }
        let w = Wire::<T>::from_content(content)?;
        if w.channels == 0 {
            return Err(serde::Error::custom(TensorError::ZeroChannels));
        }
        SparseTensor::from_coord_features(w.extent, w.channels, w.coords, w.features)
            .map_err(serde::Error::custom)
    }
}

/// An order-sensitive identity of a tensor's active set: extent, site
/// count and a 128-bit digest of the coordinate *sequence* in storage
/// order.
///
/// Two tensors share a fingerprint exactly when they store the same
/// coordinates in the same order over the same extent (up to hash
/// collision, which the 128-bit digest makes negligible). This is the
/// cache key for matching-reuse: a rulebook built over one tensor applies
/// verbatim to any other tensor with the same fingerprint, because rule
/// indices refer to storage positions. Feature values and channel count
/// are deliberately excluded — matching is a property of geometry only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActiveSetFingerprint {
    /// Grid extent the active set lives in.
    pub extent: Extent3,
    /// Number of active sites.
    pub nnz: usize,
    /// FNV-1a digest of the ordered coordinate stream, first 64-bit lane.
    pub digest_lo: u64,
    /// Second, independently seeded 64-bit digest lane (together with
    /// `digest_lo` this gives 128 bits of collision resistance).
    pub digest_hi: u64,
}

impl ActiveSetFingerprint {
    /// Fingerprints an explicit coordinate sequence over `extent`, exactly
    /// as [`SparseTensor::active_fingerprint`] does for a stored tensor.
    /// This keys geometry artifacts that are defined by a coordinate list
    /// *without* a backing tensor — e.g. a transpose convolution's target
    /// active set, which arrives as a plain `&[Coord3]` skip-connection
    /// slice.
    pub fn of_coords(extent: Extent3, coords: &[Coord3]) -> ActiveSetFingerprint {
        let (digest_lo, digest_hi) = fnv1a_coords(extent, coords);
        ActiveSetFingerprint {
            extent,
            nnz: coords.len(),
            digest_lo,
            digest_hi,
        }
    }
}

/// Both FNV-1a lanes over the coordinate stream, in one pass: the lanes'
/// multiply chains are independent, so the CPU overlaps them.
fn fnv1a_coords(extent: Extent3, coords: &[Coord3]) -> (u64, u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (mut lo, mut hi) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64);
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            lo = (lo ^ u64::from(b)).wrapping_mul(PRIME);
            hi = (hi ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(i64::from(extent.x));
    eat(i64::from(extent.y));
    eat(i64::from(extent.z));
    for c in coords {
        eat(i64::from(c.x));
        eat(i64::from(c.y));
        eat(i64::from(c.z));
    }
    (lo, hi)
}

impl<T: Copy> SparseTensor<T> {
    /// Creates an empty sparse tensor.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(extent: Extent3, channels: usize) -> Self {
        assert!(channels > 0, "channel count must be nonzero");
        SparseTensor {
            extent,
            channels,
            features: Vec::new(),
            set: Arc::default(),
        }
    }

    /// Builds a tensor directly from parallel coordinate and flat feature
    /// arrays (`features.len() == coords.len() * channels`, site-major),
    /// **preserving the given storage order**. This is the zero-rehash
    /// assembly path for kernels that accumulate into a flat matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ChannelMismatch`] when the feature length is
    /// not `coords.len() * channels`, and otherwise the error of the first
    /// bad position in `coords`: [`TensorError::OutOfBounds`] for a
    /// coordinate outside `extent`, [`TensorError::DuplicateCoord`] for a
    /// repeat of an earlier one. A strictly raster-increasing list cannot
    /// repeat, so it is checked for bounds only and its index is left to
    /// the first lookup.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn from_coord_features(
        extent: Extent3,
        channels: usize,
        coords: Vec<Coord3>,
        features: Vec<T>,
    ) -> Result<Self> {
        assert!(channels > 0, "channel count must be nonzero");
        if features.len() != coords.len() * channels {
            return Err(TensorError::ChannelMismatch {
                expected: coords.len() * channels,
                got: features.len(),
            });
        }
        let index = if coords.windows(2).all(|w| w[0] < w[1]) {
            if let Some(&c) = coords.iter().find(|&&c| !extent.contains(c)) {
                return Err(TensorError::OutOfBounds { coord: c, extent });
            }
            OnceLock::new()
        } else {
            let mut map = HashMap::with_capacity(coords.len());
            for (i, &c) in coords.iter().enumerate() {
                if !extent.contains(c) {
                    return Err(TensorError::OutOfBounds { coord: c, extent });
                }
                if map.insert(c, i).is_some() {
                    return Err(TensorError::DuplicateCoord { coord: c });
                }
            }
            OnceLock::from(map)
        };
        Ok(SparseTensor {
            extent,
            channels,
            features,
            set: Arc::new(ActiveSet {
                coords,
                index,
                ..ActiveSet::default()
            }),
        })
    }

    /// Builds a tensor on `template`'s active set — same extent, same
    /// coordinates in the same storage order — carrying new flat features
    /// (`template.nnz() * channels` elements, site-major). The output
    /// shares the template's active set (coordinates, index and
    /// fingerprint memo) in O(1), so this is the cheap output-assembly
    /// path for submanifold kernels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ChannelMismatch`] when the feature length is
    /// not `template.nnz() * channels`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn from_template<S: Copy>(
        template: &SparseTensor<S>,
        channels: usize,
        features: Vec<T>,
    ) -> Result<Self> {
        assert!(channels > 0, "channel count must be nonzero");
        if features.len() != template.nnz() * channels {
            return Err(TensorError::ChannelMismatch {
                expected: template.nnz() * channels,
                got: features.len(),
            });
        }
        Ok(SparseTensor {
            extent: template.extent,
            channels,
            features,
            set: Arc::clone(&template.set),
        })
    }

    /// The order-sensitive [`ActiveSetFingerprint`] of this tensor's
    /// active set — the matching-reuse cache key. O(nnz) on first use,
    /// then memoized on the shared active set until the coordinate
    /// sequence changes.
    pub fn active_fingerprint(&self) -> ActiveSetFingerprint {
        *self
            .set
            .fingerprint
            .get_or_init(|| ActiveSetFingerprint::of_coords(self.extent, &self.set.coords))
    }

    /// Grid extent.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Feature channels per active site.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of active sites.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.set.coords.len()
    }

    /// Whether no site is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.coords.is_empty()
    }

    /// Fraction of inactive sites, the paper's notion of sparsity
    /// (ShapeNet ≈ 0.999 at 192³).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / self.extent.volume() as f64
    }

    /// Whether `c` is an active site.
    #[inline]
    pub fn contains(&self, c: Coord3) -> bool {
        self.set.index().contains_key(&c)
    }

    /// The feature vector at `c`, or `None` when the site is inactive.
    pub fn feature(&self, c: Coord3) -> Option<&[T]> {
        self.set
            .index()
            .get(&c)
            .map(|&i| &self.features[i * self.channels..(i + 1) * self.channels])
    }

    /// Inserts (or overwrites) the feature vector at `c`. A new site
    /// copies a shared active set before adding to it; an overwrite leaves
    /// the set shared.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `c` is outside the extent
    /// and [`TensorError::ChannelMismatch`] for a wrong-length slice.
    pub fn insert(&mut self, c: Coord3, features: &[T]) -> Result<()> {
        if !self.extent.contains(c) {
            return Err(TensorError::OutOfBounds {
                coord: c,
                extent: self.extent,
            });
        }
        if features.len() != self.channels {
            return Err(TensorError::ChannelMismatch {
                expected: self.channels,
                got: features.len(),
            });
        }
        if let Some(&i) = self.set.index().get(&c) {
            self.features[i * self.channels..(i + 1) * self.channels].copy_from_slice(features);
        } else {
            let set = Arc::make_mut(&mut self.set);
            let i = set.coords.len();
            set.coords.push(c);
            set.fingerprint.take();
            if let Some(index) = set.index.get_mut() {
                index.insert(c, i);
            }
            self.features.extend_from_slice(features);
        }
        Ok(())
    }

    /// Whether storage order is raster order (z fastest), i.e. whether
    /// [`SparseTensor::canonicalize`] would leave the tensor unchanged.
    pub fn is_canonical(&self) -> bool {
        self.set.coords.windows(2).all(|w| w[0] < w[1])
    }

    /// Sorts entries into raster order (z fastest) on a new active set.
    /// Idempotent: an already canonical tensor is left untouched.
    pub fn canonicalize(&mut self) {
        if self.is_canonical() {
            return;
        }
        let (e, old) = (self.extent, &self.set.coords);
        let mut order: Vec<usize> = (0..old.len()).collect();
        order.sort_by_key(|&i| e.linear_unchecked(old[i]));
        let ch = self.channels;
        let coords = order.iter().map(|&i| old[i]).collect::<Vec<_>>();
        let mut features = Vec::with_capacity(self.features.len());
        for &i in &order {
            features.extend_from_slice(&self.features[i * ch..(i + 1) * ch]);
        }
        self.set = Arc::new(ActiveSet {
            coords,
            ..ActiveSet::default()
        });
        self.features = features;
    }

    /// Active coordinates in storage order. Tensors that share one active
    /// set return the same slice, so `std::ptr::eq` on two results is an
    /// O(1) test for "same sites in the same order".
    #[inline]
    pub fn coords(&self) -> &[Coord3] {
        &self.set.coords
    }

    /// Flat feature storage (`nnz * channels` elements, site-major).
    #[inline]
    pub fn features(&self) -> &[T] {
        &self.features
    }

    /// Iterates `(coord, features)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord3, &[T])> {
        self.set
            .coords
            .iter()
            .copied()
            .zip(self.features.chunks_exact(self.channels))
    }

    /// The occupancy mask of the active set — the bulk form of the paper's
    /// *index mask*.
    pub fn occupancy_mask(&self) -> OccupancyMask {
        let mut m = OccupancyMask::new(self.extent);
        for &c in &self.set.coords {
            m.set(c, true).expect("stored coords are in bounds");
        }
        m
    }

    /// Maps every feature element through `f`, sharing the active set.
    pub fn map<U: Copy, F: FnMut(T) -> U>(&self, mut f: F) -> SparseTensor<U> {
        SparseTensor {
            extent: self.extent,
            channels: self.channels,
            features: self.features.iter().map(|&v| f(v)).collect(),
            set: Arc::clone(&self.set),
        }
    }

    /// Structural + value equality independent of storage order.
    pub fn same_content(&self, other: &SparseTensor<T>) -> bool
    where
        T: PartialEq,
    {
        if self.extent != other.extent
            || self.channels != other.channels
            || self.nnz() != other.nnz()
        {
            return false;
        }
        self.iter()
            .all(|(c, f)| other.feature(c).map(|g| g == f).unwrap_or(false))
    }

    /// Whether both tensors have exactly the same active set (the
    /// submanifold property: output pattern == input pattern), in any
    /// storage order. O(1) when the two share one active set.
    pub fn same_active_set<U: Copy>(&self, other: &SparseTensor<U>) -> bool {
        self.extent == other.extent
            && (Arc::ptr_eq(&self.set, &other.set)
                || self.nnz() == other.nnz() && self.set.coords.iter().all(|c| other.contains(*c)))
    }
}

impl SparseTensor<f32> {
    /// Validated frame ingestion: [`SparseTensor::from_coord_features`]
    /// plus the checks a service boundary needs before a frame may reach
    /// the kernels — a NaN or infinity would silently poison every
    /// downstream accumulation, and an empty frame has no work for the
    /// accelerator to do. Corrupted or truncated frames (a transfer
    /// glitch, a buggy voxelizer) fail here with a typed error instead of
    /// deep inside a convolution. No library path calls it; it stays as
    /// the validating reader of frames from outside the process.
    ///
    /// # Errors
    ///
    /// Everything [`SparseTensor::from_coord_features`] rejects, plus
    /// [`TensorError::ZeroChannels`] when `channels == 0`,
    /// [`TensorError::EmptyFrame`] when `coords` is empty and
    /// [`TensorError::NonFiniteFeature`] (naming the first offending
    /// site/channel) when any feature value is NaN or infinite.
    pub fn try_from_coord_features(
        extent: Extent3,
        channels: usize,
        coords: Vec<Coord3>,
        features: Vec<f32>,
    ) -> Result<Self> {
        if channels == 0 {
            return Err(TensorError::ZeroChannels);
        }
        if coords.is_empty() {
            return Err(TensorError::EmptyFrame);
        }
        if let Some(bad) = features.iter().position(|v| !v.is_finite()) {
            return Err(TensorError::NonFiniteFeature {
                site: bad / channels,
                channel: bad % channels,
            });
        }
        SparseTensor::from_coord_features(extent, channels, coords, features)
    }

    /// Converts from a dense tensor, keeping sites with any nonzero channel.
    pub fn from_dense(d: &Dense3<f32>) -> Self {
        let mut t = SparseTensor::new(d.extent(), d.channels());
        for (c, f) in d.iter() {
            if f.iter().any(|v| *v != 0.0) {
                t.insert(c, f).expect("dense iter yields in-bounds coords");
            }
        }
        // Dense iteration is already raster order: no canonicalize needed.
        t
    }

    /// Converts to a dense tensor (zeros at inactive sites).
    pub fn to_dense(&self) -> Dense3<f32> {
        let mut d = Dense3::zeros(self.extent, self.channels);
        for (c, f) in self.iter() {
            d.set(c, f).expect("stored coords are in bounds");
        }
        d
    }

    /// Maximum absolute difference over the union of active sets
    /// (an inactive site contributes its counterpart's magnitude). No
    /// library path calls it; it is the comparison oracle of the
    /// equivalence suites.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ExtentMismatch`] /
    /// [`TensorError::ChannelMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &SparseTensor<f32>) -> Result<f32> {
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
        let mut worst = 0.0f32;
        for (c, f) in self.iter() {
            match other.feature(c) {
                Some(g) => {
                    for (a, b) in f.iter().zip(g) {
                        worst = worst.max((a - b).abs());
                    }
                }
                None => {
                    for a in f {
                        worst = worst.max(a.abs());
                    }
                }
            }
        }
        for (c, g) in other.iter() {
            if !self.contains(c) {
                for b in g {
                    worst = worst.max(b.abs());
                }
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(4), 2);
        t.insert(Coord3::new(3, 0, 0), &[1.0, 2.0]).unwrap();
        t.insert(Coord3::new(0, 0, 1), &[3.0, 4.0]).unwrap();
        t.insert(Coord3::new(0, 0, 0), &[5.0, 6.0]).unwrap();
        t
    }

    #[test]
    fn insert_and_lookup() {
        let t = tiny();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.feature(Coord3::new(0, 0, 1)), Some(&[3.0, 4.0][..]));
        assert!(!t.contains(Coord3::new(1, 1, 1)));
    }

    #[test]
    fn insert_overwrites() {
        let mut t = tiny();
        t.insert(Coord3::new(0, 0, 0), &[9.0, 9.0]).unwrap();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.feature(Coord3::new(0, 0, 0)), Some(&[9.0, 9.0][..]));
    }

    #[test]
    fn insert_out_of_bounds_errors() {
        let mut t = tiny();
        assert!(matches!(
            t.insert(Coord3::new(4, 0, 0), &[0.0, 0.0]),
            Err(TensorError::OutOfBounds { .. })
        ));
        assert!(matches!(
            t.insert(Coord3::new(0, 0, 0), &[0.0]),
            Err(TensorError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn canonicalize_sorts_raster() {
        let mut t = tiny();
        t.canonicalize();
        let coords = t.coords().to_vec();
        let mut sorted = coords.clone();
        sorted.sort_by_key(|c| t.extent().linear_unchecked(*c));
        assert_eq!(coords, sorted);
        // Values follow their coordinates.
        assert_eq!(t.feature(Coord3::new(3, 0, 0)), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn dense_roundtrip() {
        let mut t = tiny();
        t.canonicalize();
        let d = t.to_dense();
        let back = SparseTensor::from_dense(&d);
        assert!(t.same_content(&back));
        assert_eq!(d.nonzero_sites(), 3);
    }

    #[test]
    fn same_content_ignores_order() {
        let t = tiny();
        let mut u = tiny();
        u.canonicalize();
        assert!(t.same_content(&u));
        assert!(u.same_content(&t));
    }

    #[test]
    fn same_content_detects_value_change() {
        let t = tiny();
        let mut u = tiny();
        u.insert(Coord3::new(0, 0, 0), &[-1.0, 6.0]).unwrap();
        assert!(!t.same_content(&u));
    }

    #[test]
    fn same_active_set_across_types() {
        let t = tiny();
        let q = t.map(|v| v as i32);
        assert!(t.same_active_set(&q));
    }

    #[test]
    fn occupancy_mask_matches() {
        let t = tiny();
        let m = t.occupancy_mask();
        assert_eq!(m.count_ones(), 3);
        for &c in t.coords() {
            assert!(m.get(c).unwrap());
        }
    }

    #[test]
    fn sparsity_value() {
        let t = tiny();
        assert!((t.sparsity() - (1.0 - 3.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_union_semantics() {
        let mut a = SparseTensor::<f32>::new(Extent3::cube(2), 1);
        a.insert(Coord3::new(0, 0, 0), &[1.0]).unwrap();
        let mut b = SparseTensor::<f32>::new(Extent3::cube(2), 1);
        b.insert(Coord3::new(1, 1, 1), &[-2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 2.0);
    }

    #[test]
    fn fingerprint_is_order_sensitive_geometry_identity() {
        let t = tiny();
        let mut u = tiny();
        // Same sites, same order, different values: same fingerprint.
        u.insert(Coord3::new(0, 0, 0), &[99.0, 6.0]).unwrap();
        assert_eq!(t.active_fingerprint(), u.active_fingerprint());
        // Channel count is excluded too (geometry only).
        let q = t.map(|v| v as i32);
        assert_eq!(t.active_fingerprint(), q.active_fingerprint());
        // Reordering the same set changes the fingerprint.
        let mut c = tiny();
        c.canonicalize();
        assert_ne!(t.active_fingerprint(), c.active_fingerprint());
        // A different set changes it.
        let mut d = tiny();
        d.insert(Coord3::new(2, 2, 2), &[0.0, 0.0]).unwrap();
        assert_ne!(t.active_fingerprint(), d.active_fingerprint());
        // A different extent changes it even for identical coords.
        let mut e = SparseTensor::<f32>::new(Extent3::cube(8), 2);
        for (c, f) in t.iter() {
            e.insert(c, f).unwrap();
        }
        assert_ne!(t.active_fingerprint(), e.active_fingerprint());
    }

    /// The memo must always equal a fresh digest of the coordinates.
    fn memo_is_fresh<T: Copy>(t: &SparseTensor<T>) {
        assert_eq!(
            t.active_fingerprint(),
            ActiveSetFingerprint::of_coords(t.extent(), t.coords())
        );
    }

    #[test]
    fn fingerprint_memo_tracks_every_coordinate_change() {
        let mut t = SparseTensor::<f32>::new(Extent3::cube(4), 2);
        memo_is_fresh(&t);
        for c in [
            Coord3::new(3, 0, 0),
            Coord3::new(0, 0, 1),
            Coord3::new(0, 0, 0),
        ] {
            t.insert(c, &[1.0, 2.0]).unwrap();
            memo_is_fresh(&t);
        }
        // An overwrite keeps the set and the memo.
        let before = t.active_fingerprint();
        t.insert(Coord3::new(0, 0, 1), &[9.0, 9.0]).unwrap();
        assert_eq!(t.active_fingerprint(), before);
        memo_is_fresh(&t);
        t.canonicalize();
        assert_ne!(t.active_fingerprint(), before, "order changed");
        memo_is_fresh(&t);
        t.canonicalize();
        memo_is_fresh(&t);
        // Derived tensors inherit a memo that stays correct.
        let u: SparseTensor<f32> = SparseTensor::from_template(&t, 1, vec![0.0; 3]).unwrap();
        memo_is_fresh(&u);
        memo_is_fresh(&t.map(|v| v as i32));
        let mut c = t.clone();
        memo_is_fresh(&c);
        c.insert(Coord3::new(2, 2, 2), &[0.0, 0.0]).unwrap();
        memo_is_fresh(&c);
        memo_is_fresh(&t);
    }

    #[test]
    fn fingerprint_lanes_equal_separate_fnv1a_passes() {
        // The digest as two independent byte-wise FNV-1a passes; the fused
        // single-pass form must give the same cache keys.
        fn lane(mut h: u64, extent: Extent3, coords: &[Coord3]) -> u64 {
            let dims = [extent.x, extent.y, extent.z].map(i64::from);
            let stream = coords.iter().flat_map(|c| [c.x, c.y, c.z].map(i64::from));
            for v in dims.into_iter().chain(stream) {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        }
        let t = tiny();
        let fp = t.active_fingerprint();
        assert_eq!(
            fp.digest_lo,
            lane(0xcbf2_9ce4_8422_2325, t.extent(), t.coords())
        );
        assert_eq!(
            fp.digest_hi,
            lane(0x6c62_272e_07bb_0142, t.extent(), t.coords())
        );
        assert_eq!(fp.nnz, 3);
    }

    #[test]
    fn from_coord_features_preserves_order_and_validates() {
        let t = SparseTensor::from_coord_features(
            Extent3::cube(4),
            2,
            vec![Coord3::new(3, 0, 0), Coord3::new(0, 0, 1)],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(t.coords()[0], Coord3::new(3, 0, 0));
        assert_eq!(t.feature(Coord3::new(0, 0, 1)), Some(&[3.0, 4.0][..]));
        assert!(matches!(
            SparseTensor::from_coord_features(
                Extent3::cube(4),
                2,
                vec![Coord3::new(0, 0, 0)],
                vec![1.0],
            ),
            Err(TensorError::ChannelMismatch { .. })
        ));
        assert!(matches!(
            SparseTensor::from_coord_features(
                Extent3::cube(4),
                1,
                vec![Coord3::new(4, 0, 0)],
                vec![1.0],
            ),
            Err(TensorError::OutOfBounds { .. })
        ));
        assert!(matches!(
            SparseTensor::from_coord_features(
                Extent3::cube(4),
                1,
                vec![Coord3::new(1, 1, 1), Coord3::new(1, 1, 1)],
                vec![1.0, 2.0],
            ),
            Err(TensorError::DuplicateCoord { .. })
        ));
        // The first bad position decides the error on both paths: the
        // raster-increasing one (bounds only) and the general one.
        let (a, b, oob) = (
            Coord3::new(0, 0, 0),
            Coord3::new(1, 1, 1),
            Coord3::new(4, 0, 0),
        );
        let cases = [
            (
                vec![a, b, oob],
                TensorError::OutOfBounds {
                    coord: oob,
                    extent: Extent3::cube(4),
                },
            ),
            (vec![b, a, b, oob], TensorError::DuplicateCoord { coord: b }),
            (
                vec![b, a, oob, b],
                TensorError::OutOfBounds {
                    coord: oob,
                    extent: Extent3::cube(4),
                },
            ),
        ];
        for (coords, want) in cases {
            let n = coords.len();
            let got = SparseTensor::from_coord_features(Extent3::cube(4), 1, coords, vec![0.0; n]);
            assert_eq!(got.unwrap_err(), want);
        }
        // A raster-increasing list leaves its index to the first lookup;
        // any other list has it built by the validation pass.
        let sorted =
            SparseTensor::from_coord_features(Extent3::cube(4), 1, vec![a, b], vec![1.0, 2.0])
                .unwrap();
        assert!(sorted.set.index.get().is_none());
        assert_eq!(sorted.feature(b), Some(&[2.0][..]));
        assert!(sorted.set.index.get().is_some());
        let unsorted =
            SparseTensor::from_coord_features(Extent3::cube(4), 1, vec![b, a], vec![2.0, 1.0])
                .unwrap();
        assert!(unsorted.set.index.get().is_some());
    }

    #[test]
    fn try_from_coord_features_accepts_valid_and_rejects_malformed() {
        // A zero channel count is a typed error, not a panic.
        for (coords, features) in [(vec![Coord3::new(0, 0, 0)], vec![]), (vec![], vec![1.0])] {
            assert_eq!(
                SparseTensor::try_from_coord_features(Extent3::cube(4), 0, coords, features)
                    .unwrap_err(),
                TensorError::ZeroChannels
            );
        }
        // A well-formed frame passes through unchanged, order preserved.
        let t = SparseTensor::try_from_coord_features(
            Extent3::cube(4),
            2,
            vec![Coord3::new(3, 0, 0), Coord3::new(0, 0, 1)],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(t.coords()[0], Coord3::new(3, 0, 0));
        // Empty frames are rejected before any kernel sees them.
        assert!(matches!(
            SparseTensor::try_from_coord_features(Extent3::cube(4), 2, vec![], vec![]),
            Err(TensorError::EmptyFrame)
        ));
        // NaN and infinity name the first offending site/channel.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = SparseTensor::try_from_coord_features(
                Extent3::cube(4),
                2,
                vec![Coord3::new(0, 0, 0), Coord3::new(1, 0, 0)],
                vec![1.0, 2.0, 3.0, bad],
            )
            .unwrap_err();
            assert_eq!(
                err,
                TensorError::NonFiniteFeature {
                    site: 1,
                    channel: 1
                }
            );
        }
        // Out-of-grid, truncated and duplicated frames still fail as in
        // the unchecked constructor.
        assert!(matches!(
            SparseTensor::try_from_coord_features(
                Extent3::cube(4),
                1,
                vec![Coord3::new(4, 0, 0)],
                vec![1.0],
            ),
            Err(TensorError::OutOfBounds { .. })
        ));
        assert!(matches!(
            SparseTensor::try_from_coord_features(
                Extent3::cube(4),
                2,
                vec![Coord3::new(0, 0, 0)],
                vec![1.0],
            ),
            Err(TensorError::ChannelMismatch { .. })
        ));
        assert!(matches!(
            SparseTensor::try_from_coord_features(
                Extent3::cube(4),
                1,
                vec![Coord3::new(1, 1, 1), Coord3::new(1, 1, 1)],
                vec![1.0, 2.0],
            ),
            Err(TensorError::DuplicateCoord { .. })
        ));
    }

    #[test]
    fn from_template_shares_active_set_and_order() {
        let t = tiny();
        let u: SparseTensor<f32> =
            SparseTensor::from_template(&t, 1, vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(u.coords(), t.coords());
        assert_eq!(u.channels(), 1);
        assert_eq!(u.feature(Coord3::new(0, 0, 1)), Some(&[20.0][..]));
        assert_eq!(t.active_fingerprint(), u.active_fingerprint());
        assert!(matches!(
            SparseTensor::<f32>::from_template(&t, 2, vec![0.0; 5]),
            Err(TensorError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn template_map_and_clone_share_one_set_and_one_index() {
        let t = SparseTensor::from_coord_features(
            Extent3::cube(4),
            1,
            vec![Coord3::new(0, 0, 1), Coord3::new(2, 0, 0)],
            vec![1.0, 2.0],
        )
        .unwrap();
        let u: SparseTensor<f32> = SparseTensor::from_template(&t, 2, vec![0.0; 4]).unwrap();
        let q = u.map(|v| v as i32);
        let c = q.clone();
        for set in [&u.set, &q.set, &c.set] {
            assert!(Arc::ptr_eq(&t.set, set));
        }
        assert!(t.same_active_set(&c));
        assert!(std::ptr::eq(t.coords(), c.coords()));
        // One lookup on any of them builds the one index all of them use.
        assert!(t.set.index.get().is_none());
        assert!(c.contains(Coord3::new(2, 0, 0)));
        assert!(t.set.index.get().is_some());
        assert_eq!(t.feature(Coord3::new(2, 0, 0)), Some(&[2.0][..]));
        assert_eq!(u.feature(Coord3::new(2, 0, 0)), Some(&[0.0, 0.0][..]));
    }

    #[test]
    fn inserting_a_new_site_leaves_siblings_unchanged() {
        for build_index_first in [false, true] {
            let t = tiny();
            let before = t.active_fingerprint();
            if build_index_first {
                assert!(t.contains(Coord3::new(0, 0, 0)));
            }
            let mut u = t.clone();
            let q = t.map(|v| v as i32);
            let new = Coord3::new(2, 2, 2);
            u.insert(new, &[7.0, 8.0]).unwrap();
            assert!(!Arc::ptr_eq(&t.set, &u.set));
            assert!(Arc::ptr_eq(&t.set, &q.set));
            for coords in [t.coords(), q.coords()] {
                assert_eq!(coords, tiny().coords());
            }
            assert!(!t.contains(new) && !q.contains(new));
            assert_eq!(t.feature(Coord3::new(3, 0, 0)), Some(&[1.0, 2.0][..]));
            assert_eq!(t.active_fingerprint(), before);
            assert_eq!(q.active_fingerprint(), before);
            memo_is_fresh(&t);
            assert_eq!(u.nnz(), 4);
            assert_eq!(u.feature(new), Some(&[7.0, 8.0][..]));
            assert_eq!(u.feature(Coord3::new(0, 0, 0)), Some(&[5.0, 6.0][..]));
            memo_is_fresh(&u);
        }
    }

    #[test]
    fn overwriting_a_site_keeps_the_set_shared() {
        let t = tiny();
        let mut u = t.clone();
        u.insert(Coord3::new(0, 0, 1), &[9.0, 9.0]).unwrap();
        u.insert(Coord3::new(3, 0, 0), &[-1.0, 2.0]).unwrap();
        assert!(Arc::ptr_eq(&t.set, &u.set));
        assert_eq!(u.feature(Coord3::new(0, 0, 1)), Some(&[9.0, 9.0][..]));
        assert_eq!(t.feature(Coord3::new(0, 0, 1)), Some(&[3.0, 4.0][..]));
        assert_eq!(t.feature(Coord3::new(3, 0, 0)), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn canonicalize_installs_a_fresh_set_only_when_it_reorders() {
        let t = tiny();
        let before = t.active_fingerprint();
        let mut u = t.clone();
        u.canonicalize();
        assert!(!Arc::ptr_eq(&t.set, &u.set));
        assert_eq!(t.coords(), tiny().coords());
        assert_eq!(t.active_fingerprint(), before);
        memo_is_fresh(&u);
        assert_eq!(u.feature(Coord3::new(3, 0, 0)), Some(&[1.0, 2.0][..]));
        let mut v = u.clone();
        v.canonicalize();
        assert!(Arc::ptr_eq(&u.set, &v.set));
    }

    #[test]
    fn sparse_tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseTensor<f32>>();
    }
}
