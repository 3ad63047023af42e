//! Replayable **geometry maps** for the non-submanifold ops a sparse
//! network performs.
//!
//! PointAcc's observation (PAPERS.md) is that once the MACs are fast,
//! *mapping* operations — neighbor search, rulebook construction, pooling
//! maps — dominate sparse point-cloud inference. The submanifold layers
//! reuse rulebooks through the [`crate::engine::RulebookCache`]; this
//! module gives the remaining geometry ops the same treatment, as
//! artifacts the same per-op cache stores:
//!
//! * [`StridedMap`] — the in→out site map of
//!   [`crate::sparse_ops::strided_conv3d`] (which fine site feeds which
//!   coarse row through which tap). Max pooling shares the strided
//!   convolution's active-set rule, so [`StridedMap::max_pool`] replays
//!   the same map as [`crate::pool::sparse_max_pool`];
//! * [`TransposeMap`] — the out→in gather map of
//!   [`crate::sparse_ops::transpose_conv3d`].
//!
//! **Bit-identity contract.** Replaying a cached map reproduces the
//! direct kernel's output *bit for bit*: each map stores canonical
//! (raster-ordered) output coordinates, and the apply kernels visit input
//! sites in storage order, so every output element sees the same
//! floating-point additions in the same order as the direct kernel
//! followed by its trailing `canonicalize()`. The replay hot paths are
//! pure index-array walks — no hash-map iteration or per-site hash
//! probes (lint **L2**) — and the builds hash no coordinate either: they
//! derive the coarse active set by sort-and-dedup and find each site's
//! row by binary search.

use crate::error::SscnError;
use crate::sparse_ops::{downsampled_extent, StridedWeights};
use crate::Result;
use esca_tensor::{Coord3, Extent3, SparseTensor, TensorError};

/// Sentinel in [`TransposeMap::sources`]: the covering coarse site is
/// inactive, so the output row stays zero.
pub const NO_SOURCE: u32 = u32::MAX;

/// The cached geometry of one strided (downsampling) convolution: for
/// every input site (in storage order) the canonical output row it
/// accumulates into and the corner-anchored tap it uses, plus the coarse
/// active set in raster order.
///
/// The map depends only on the input's active set and `kd` — never on
/// feature values or channel counts — so one map serves every layer and
/// frame that shares the geometry, and max pooling over the same set and
/// window ([`StridedMap::max_pool`]) as well.
#[derive(Debug, Clone)]
pub struct StridedMap {
    kd: u32,
    in_extent: Extent3,
    out_extent: Extent3,
    /// Per input site (storage order): canonical coarse output row.
    rows: Vec<u32>,
    /// Per input site (storage order): corner-anchored tap index.
    taps: Vec<u32>,
    /// Coarse active set in raster (canonical) order.
    out_coords: Vec<Coord3>,
}

impl StridedMap {
    /// Builds the map from an input geometry: the coarse active set by
    /// sort-and-dedup, each site's canonical row by binary search.
    pub fn build<T: Copy>(input: &SparseTensor<T>, kd: u32) -> StridedMap {
        assert!(kd > 0, "stride must be nonzero");
        let (out_coords, rows) = coarse_rows(input.extent(), input.coords(), kd);
        let taps = input.coords().iter().map(|&c| corner_tap(c, kd)).collect();
        StridedMap {
            kd,
            in_extent: input.extent(),
            out_extent: downsampled_extent(input.extent(), kd),
            rows,
            taps,
            out_coords,
        }
    }

    /// Replays the map over a concrete input: flat gather → per-tap MAC →
    /// scatter into the canonical output matrix. **Bit-identical** to
    /// [`crate::sparse_ops::strided_conv3d`] on the geometry the map was
    /// built from (per-output-element addition order is input storage
    /// order in both), on every backend. Each output row's sixteen-lane
    /// blocks stay in registers across the input-channel loop, and zero
    /// activations are masked rather than branched on (see
    /// `mac_skipping_zeros`).
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
    /// [`SscnError::InvalidConfig`] when the map does not fit the
    /// input/layer.
    pub fn apply(
        &self,
        input: &SparseTensor<f32>,
        w: &StridedWeights,
    ) -> Result<SparseTensor<f32>> {
        if input.channels() != w.in_ch() {
            return Err(SscnError::ChannelMismatch {
                expected: w.in_ch(),
                got: input.channels(),
            });
        }
        if self.kd != w.kd() || self.rows.len() != input.nnz() || self.in_extent != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: "strided map does not match this input/layer".into(),
            });
        }
        let in_ch = w.in_ch();
        let out_ch = w.out_ch();
        let mut acc = vec![0.0f32; self.out_coords.len() * out_ch];
        let mut keep = vec![0u32; in_ch];
        for ((f, &row), &tap) in input
            .features()
            .chunks_exact(in_ch)
            .zip(&self.rows)
            .zip(&self.taps)
        {
            let dst = &mut acc[row as usize * out_ch..][..out_ch];
            mac_skipping_zeros(f, &mut keep, w.tap_slice(tap as usize), dst);
        }
        // `out_coords` is already raster-sorted, so no canonicalize pass.
        SparseTensor::from_coord_features(self.out_extent, out_ch, self.out_coords.clone(), acc)
            .map_err(SscnError::from)
    }

    /// Replays the map as a max pooling with window = stride = K_d: first
    /// touch of an output row copies the feature vector, later touches
    /// take the per-channel maximum — exactly the occupied/vacant split of
    /// [`crate::pool::sparse_max_pool`], so the output is
    /// **bit-identical** on the geometry the map was built from.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] when the map does not fit the
    /// input.
    pub fn max_pool(&self, input: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
        if self.rows.len() != input.nnz() || self.in_extent != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: "strided map does not match this input".into(),
            });
        }
        let ch = input.channels();
        let mut acc = vec![0.0f32; self.out_coords.len() * ch];
        let mut seen = vec![false; self.out_coords.len()];
        for (f, &row) in input.features().chunks_exact(ch).zip(&self.rows) {
            let r = row as usize;
            let dst = &mut acc[r * ch..][..ch];
            if seen[r] {
                for (dst, &v) in dst.iter_mut().zip(f) {
                    *dst = dst.max(v);
                }
            } else {
                dst.copy_from_slice(f);
                seen[r] = true;
            }
        }
        SparseTensor::from_coord_features(self.out_extent, ch, self.out_coords.clone(), acc)
            .map_err(SscnError::from)
    }

    /// Stride/window K_d.
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Number of input sites the map covers.
    pub fn sites(&self) -> usize {
        self.rows.len()
    }

    /// The coarse (output) active set, raster-ordered.
    pub fn out_coords(&self) -> &[Coord3] {
        &self.out_coords
    }

    /// Per input site (storage order): its row in [`StridedMap::out_coords`].
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Per input site (storage order): its corner-anchored tap index.
    pub fn taps(&self) -> &[u32] {
        &self.taps
    }

    /// Heap bytes retained by the map's index arrays (the LRU currency).
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * 4 + self.taps.len() * 4 + self.out_coords.len() * size_of::<Coord3>()
    }
}

/// The cached geometry of one transpose (upsampling) convolution: for
/// every canonical output (fine) site, the coarse storage row it gathers
/// from (or [`NO_SOURCE`]) and the tap it applies.
///
/// The map depends on **both** active sets — the coarse input's and the
/// fine target's — so its cache key carries both fingerprints.
#[derive(Debug, Clone)]
pub struct TransposeMap {
    kd: u32,
    coarse_extent: Extent3,
    fine_extent: Extent3,
    /// Number of coarse input sites the map was built over.
    coarse_sites: usize,
    /// Per canonical output row: coarse storage row, or [`NO_SOURCE`].
    src: Vec<u32>,
    /// Per canonical output row: corner-anchored tap index.
    taps: Vec<u32>,
    /// The fine target active set in raster (canonical) order.
    out_coords: Vec<Coord3>,
}

impl TransposeMap {
    /// Builds the map from a coarse input geometry and an explicit fine
    /// target set (the skip connection's active set).
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] when `fine_extent` does not
    /// downsample to the input's extent, and a tensor error for an
    /// out-of-bounds or duplicated target coordinate — the same contract
    /// as [`crate::sparse_ops::transpose_conv3d`].
    pub fn build<T: Copy>(
        input: &SparseTensor<T>,
        kd: u32,
        fine_extent: Extent3,
        target: &[Coord3],
    ) -> Result<TransposeMap> {
        assert!(kd > 0, "stride must be nonzero");
        if downsampled_extent(fine_extent, kd) != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: format!(
                    "fine extent {fine_extent} does not downsample to coarse extent {}",
                    input.extent()
                ),
            });
        }
        let out_coords = canonical_targets(fine_extent, target).map_err(SscnError::from)?;
        // Coarse storage rows keyed by raster index, in raster order (no
        // sort on canonical input): a binary search finds the site
        // covering each target.
        let coarse_extent = input.extent();
        let mut by_key: Vec<(usize, u32)> = input
            .coords()
            .iter()
            .map(|&c| coarse_extent.linear_unchecked(c))
            .zip(0u32..)
            .collect();
        if !input.is_canonical() {
            by_key.sort_unstable();
        }
        let mut src = Vec::with_capacity(out_coords.len());
        let mut taps = Vec::with_capacity(out_coords.len());
        for &p in &out_coords {
            let key = coarse_extent.linear_unchecked(parent(p, kd));
            match by_key.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(pos) => {
                    src.push(by_key[pos].1);
                    taps.push(corner_tap(p, kd));
                }
                Err(_) => {
                    src.push(NO_SOURCE);
                    taps.push(0);
                }
            }
        }
        Ok(TransposeMap {
            kd,
            coarse_extent: input.extent(),
            fine_extent,
            coarse_sites: input.nnz(),
            src,
            taps,
            out_coords,
        })
    }

    /// Replays the map: every output row gathers from its (single)
    /// covering coarse site. **Bit-identical** to
    /// [`crate::sparse_ops::transpose_conv3d`] on the geometry the map
    /// was built from — output rows are independent, so computing them in
    /// canonical order reproduces the direct kernel's canonicalized
    /// output exactly. The MACs run register-resident and branch-free, as
    /// in [`StridedMap::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
    /// [`SscnError::InvalidConfig`] when the map does not fit the
    /// input/layer.
    pub fn apply(
        &self,
        input: &SparseTensor<f32>,
        w: &StridedWeights,
    ) -> Result<SparseTensor<f32>> {
        if input.channels() != w.in_ch() {
            return Err(SscnError::ChannelMismatch {
                expected: w.in_ch(),
                got: input.channels(),
            });
        }
        if self.kd != w.kd()
            || self.coarse_sites != input.nnz()
            || self.coarse_extent != input.extent()
        {
            return Err(SscnError::InvalidConfig {
                reason: "transpose map does not match this input/layer".into(),
            });
        }
        let in_ch = w.in_ch();
        let out_ch = w.out_ch();
        let feats = input.features();
        let mut out = vec![0.0f32; self.out_coords.len() * out_ch];
        let mut keep = vec![0u32; in_ch];
        for ((&row, &tap), dst) in self
            .src
            .iter()
            .zip(&self.taps)
            .zip(out.chunks_exact_mut(out_ch))
        {
            if row == NO_SOURCE {
                continue;
            }
            let f = &feats[row as usize * in_ch..][..in_ch];
            mac_skipping_zeros(f, &mut keep, w.tap_slice(tap as usize), dst);
        }
        SparseTensor::from_coord_features(self.fine_extent, out_ch, self.out_coords.clone(), out)
            .map_err(SscnError::from)
    }

    /// Stride/window K_d.
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Number of fine output sites the map produces.
    pub fn sites(&self) -> usize {
        self.out_coords.len()
    }

    /// The fine target active set, raster-ordered.
    pub fn out_coords(&self) -> &[Coord3] {
        &self.out_coords
    }

    /// Per output row: the coarse storage row it gathers from, or
    /// [`NO_SOURCE`].
    pub fn sources(&self) -> &[u32] {
        &self.src
    }

    /// Per output row: its corner-anchored tap index (0 without a source).
    pub fn taps(&self) -> &[u32] {
        &self.taps
    }

    /// Heap bytes retained by the map's index arrays.
    pub fn heap_bytes(&self) -> usize {
        self.src.len() * 4 + self.taps.len() * 4 + self.out_coords.len() * size_of::<Coord3>()
    }
}

/// Output-channel block the replays keep in registers: sixteen lanes, two
/// AVX registers at the pinned x86-64-v3 codegen level.
const LANES: usize = 16;

/// `dst[oc] += a[ic] · panel[ic · out_ch + oc]` over input channels in
/// order, one rounded product and one rounded addition per term, leaving
/// `dst` as if every term with `a[ic] == 0` (either sign) were skipped —
/// the direct kernels' sparse broadcast — without a branch.
///
/// Each full sixteen-lane block of `dst` stays in registers across the
/// input-channel loop, and a zero activation's product is masked to +0
/// instead of skipped. That is exact because the callers start `dst` at
/// +0: round-to-nearest gives −0 only for a sum of two −0s, so an
/// accumulator is never −0, and adding +0 leaves it unchanged (a NaN
/// stays the same NaN, ±∞ stays ±∞). Without the mask the result would
/// differ only for a non-finite weight, where `0 × ∞` is NaN.
fn mac_skipping_zeros(a: &[f32], keep: &mut [u32], panel: &[f32], dst: &mut [f32]) {
    let out_ch = dst.len();
    // The masks go through memory so the compiler cannot turn them back
    // into a branch on `a[ic]` (it does for a mask computed in the loop).
    for (m, &a) in keep.iter_mut().zip(a) {
        *m = u32::from(a != 0.0).wrapping_neg();
    }
    let (blocks, tail) = dst.split_at_mut(out_ch - out_ch % LANES);
    for (b, block) in blocks.chunks_exact_mut(LANES).enumerate() {
        let oc0 = b * LANES;
        let mut tile = [0.0f32; LANES];
        tile.copy_from_slice(block);
        for ((&a, &m), w) in a.iter().zip(&*keep).zip(panel.chunks_exact(out_ch)) {
            let w = &w[oc0..oc0 + LANES];
            for j in 0..LANES {
                tile[j] += f32::from_bits((a * w[j]).to_bits() & m);
            }
        }
        block.copy_from_slice(&tile);
    }
    let oc0 = out_ch - tail.len();
    for (off, d) in tail.iter_mut().enumerate() {
        let mut s = *d;
        for ((&a, &m), w) in a.iter().zip(&*keep).zip(panel.chunks_exact(out_ch)) {
            s += f32::from_bits((a * w[oc0 + off]).to_bits() & m);
        }
        *d = s;
    }
}

/// The coarse site covering fine site `c` under window `kd`.
fn parent(c: Coord3, kd: u32) -> Coord3 {
    let kd = kd as i32;
    Coord3::new(c.x.div_euclid(kd), c.y.div_euclid(kd), c.z.div_euclid(kd))
}

/// The corner-anchored tap (dz fastest) of fine site `c` within its
/// window, as [`StridedWeights::tap`] numbers it.
fn corner_tap(c: Coord3, kd: u32) -> u32 {
    let kd = kd as i32;
    ((c.x.rem_euclid(kd) * kd + c.y.rem_euclid(kd)) * kd + c.z.rem_euclid(kd)) as u32
}

/// The coarse active set of `coords` (sites on `extent`) under window
/// `kd` in raster order, and each site's row in it — the first-touch rows
/// of the direct kernels after their trailing `canonicalize()`, without a
/// hash map. Parents are sorted and searched by their raster index, which
/// orders exactly as the coordinates do.
fn coarse_rows(extent: Extent3, coords: &[Coord3], kd: u32) -> (Vec<Coord3>, Vec<u32>) {
    let coarse_extent = downsampled_extent(extent, kd);
    let keys: Vec<usize> = coords
        .iter()
        .map(|&c| coarse_extent.linear_unchecked(parent(c, kd)))
        .collect();
    let mut coarse = keys.clone();
    coarse.sort_unstable();
    coarse.dedup();
    let rows = keys
        .iter()
        .map(|k| {
            let row = coarse.binary_search(k);
            row.expect("every site's parent is in the coarse set") as u32
        })
        .collect();
    let coarse = coarse
        .into_iter()
        .map(|k| coarse_extent.delinear(k))
        .collect();
    (coarse, rows)
}

/// `target` in raster order, validated as
/// [`SparseTensor::from_coord_features`] validates coordinates: the first
/// failing position in `target` order decides the error, out of bounds
/// before repeated.
fn canonical_targets(extent: Extent3, target: &[Coord3]) -> esca_tensor::Result<Vec<Coord3>> {
    let oob = target.iter().position(|&c| !extent.contains(c));
    if oob.is_none() && target.windows(2).all(|w| w[0] < w[1]) {
        return Ok(target.to_vec());
    }
    // Only positions before the first out-of-bounds one are checked for
    // repeats; a repeat is any position holding an earlier coordinate.
    let checked = &target[..oob.unwrap_or(target.len())];
    let mut sorted: Vec<(Coord3, u32)> = checked.iter().copied().zip(0u32..).collect();
    sorted.sort_unstable();
    let first_repeat = sorted
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1 as usize)
        .min();
    if let Some(i) = first_repeat {
        return Err(TensorError::DuplicateCoord { coord: target[i] });
    }
    if let Some(i) = oob {
        return Err(TensorError::OutOfBounds {
            coord: target[i],
            extent,
        });
    }
    Ok(sorted.into_iter().map(|(c, _)| c).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::sparse_max_pool;
    use crate::sparse_ops::{strided_conv3d, transpose_conv3d};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_input(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(side), ch);
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
        t
    }

    #[test]
    fn strided_map_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let input = random_input(seed, 13, 3, 80);
            let w = StridedWeights::seeded(2, 3, 5, seed + 50);
            let direct = strided_conv3d(&input, &w).unwrap();
            let map = StridedMap::build(&input, 2);
            let replay = map.apply(&input, &w).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
            // The map is value-independent: new features, same geometry.
            let other = input.map(|v| v * -1.5);
            let replay2 = map.apply(&other, &w).unwrap();
            let direct2 = strided_conv3d(&other, &w).unwrap();
            assert_eq!(replay2.features(), direct2.features());
        }
    }

    #[test]
    fn transpose_map_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let fine = random_input(seed + 10, 12, 1, 60);
            let down = StridedWeights::seeded(2, 1, 4, seed + 60);
            let coarse = strided_conv3d(&fine, &down).unwrap();
            let up = StridedWeights::seeded(2, 4, 3, seed + 70);
            let direct = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
            let map = TransposeMap::build(&coarse, 2, fine.extent(), fine.coords()).unwrap();
            let replay = map.apply(&coarse, &up).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
        }
    }

    #[test]
    fn max_pool_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let input = random_input(seed + 20, 11, 4, 70);
            let direct = sparse_max_pool(&input, 2);
            let map = StridedMap::build(&input, 2);
            let replay = map.max_pool(&input).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
        }
    }

    #[test]
    fn transpose_map_keeps_direct_error_contract() {
        let coarse = random_input(30, 4, 1, 6);
        // Mismatched fine extent.
        assert!(matches!(
            TransposeMap::build(&coarse, 2, Extent3::cube(16), &[]),
            Err(SscnError::InvalidConfig { .. })
        ));
        // Duplicated target coordinate.
        let dup = [Coord3::new(1, 1, 1), Coord3::new(1, 1, 1)];
        assert!(TransposeMap::build(&coarse, 2, Extent3::cube(8), &dup).is_err());
    }

    #[test]
    fn maps_reject_mismatched_inputs() {
        let a = random_input(40, 10, 2, 30);
        let b = random_input(41, 10, 2, 31);
        let w = StridedWeights::seeded(2, 2, 3, 90);
        let map = StridedMap::build(&a, 2);
        assert!(matches!(
            map.apply(&b, &w),
            Err(SscnError::InvalidConfig { .. })
        ));
        let w_bad = StridedWeights::seeded(2, 3, 3, 91);
        assert!(matches!(
            map.apply(&a, &w_bad),
            Err(SscnError::ChannelMismatch { .. })
        ));
        assert!(matches!(
            map.max_pool(&b),
            Err(SscnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_input_maps_work() {
        let t = SparseTensor::<f32>::new(Extent3::cube(8), 2);
        let w = StridedWeights::seeded(2, 2, 3, 92);
        let map = StridedMap::build(&t, 2);
        let out = map.apply(&t, &w).unwrap();
        assert!(out.is_empty());
        let pooled = map.max_pool(&t).unwrap();
        assert!(pooled.is_empty());
    }
}
