//! Sparse convolutions that *change* the active set: strided downsampling
//! convolution and its transpose (upsampling), plus channel concatenation.
//! These are the non-submanifold layers of the SS U-Net \[12\]; the paper's
//! accelerator targets the Sub-Conv layers, and these run on the host.
//!
//! Active-set rules (exactly as in Graham et al.'s SparseConvNet):
//!
//! * **Downsample** (kernel K_d, stride K_d, default 2): a coarse site is
//!   active iff any fine site in its K_d³ block is active.
//! * **Upsample** (transpose of the above): the output active set is given
//!   explicitly — the skip connection's active set at the finer scale — so
//!   the U-Net's decoder restores exactly the encoder's submanifolds.

use crate::error::SscnError;
use crate::Result;
use esca_tensor::{Coord3, Extent3, SparseTensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Weights of a K_d×K_d×K_d strided (down/up) convolution. Unlike
/// [`crate::weights::ConvWeights`], taps are the *corner-anchored* offsets
/// `(0..K_d)³` (dz fastest), since strided kernels have no centre site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StridedWeights {
    kd: u32,
    in_ch: usize,
    out_ch: usize,
    data: Vec<f32>,
}

impl StridedWeights {
    /// Zero-initialized strided weights.
    ///
    /// # Panics
    ///
    /// Panics if `kd == 0` or a channel count is zero.
    pub fn zeros(kd: u32, in_ch: usize, out_ch: usize) -> Self {
        assert!(kd > 0, "stride kernel must be nonzero");
        assert!(in_ch > 0 && out_ch > 0, "channel counts must be nonzero");
        StridedWeights {
            kd,
            in_ch,
            out_ch,
            data: vec![0.0; (kd * kd * kd) as usize * in_ch * out_ch],
        }
    }

    /// Seeded uniform init (same scheme as [`crate::weights::ConvWeights::seeded`]).
    pub fn seeded(kd: u32, in_ch: usize, out_ch: usize, seed: u64) -> Self {
        let mut w = StridedWeights::zeros(kd, in_ch, out_ch);
        let fan_in = (kd * kd * kd) as f32 * in_ch as f32;
        let bound = (3.0 / fan_in).sqrt();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xd04e_5a1e);
        for v in &mut w.data {
            *v = (rng.gen::<f32>() * 2.0 - 1.0) * bound;
        }
        w
    }

    /// Whether these are well-formed K_d-stride `in_ch → out_ch` weights:
    /// the header fields match and the weight vector has the length they
    /// imply (a decoded model's shape check).
    pub(crate) fn has_shape(&self, kd: u32, in_ch: usize, out_ch: usize) -> bool {
        let len = (kd as usize)
            .checked_pow(3)
            .and_then(|taps| taps.checked_mul(in_ch))
            .and_then(|n| n.checked_mul(out_ch));
        (self.kd, self.in_ch, self.out_ch) == (kd, in_ch, out_ch) && len == Some(self.data.len())
    }

    /// Mutable raw weight storage, tap-major (a test hook for weights no
    /// seed produces).
    #[cfg(test)]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Whether every weight is finite (a decoded model's value check).
    pub(crate) fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Kernel/stride size K_d.
    #[inline]
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Input channels.
    #[inline]
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    #[inline]
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Tap index of the corner-anchored offset `(dx, dy, dz)`.
    ///
    /// # Panics
    ///
    /// Panics if an offset component is outside `0..kd`.
    #[inline]
    pub fn tap(&self, dx: i32, dy: i32, dz: i32) -> usize {
        let kd = self.kd as i32;
        assert!(
            (0..kd).contains(&dx) && (0..kd).contains(&dy) && (0..kd).contains(&dz),
            "strided tap offset out of range"
        );
        ((dx * kd + dy) * kd + dz) as usize
    }

    /// Per-OC weight slice for `(tap, ic)`.
    pub fn oc_slice(&self, tap: usize, ic: usize) -> &[f32] {
        let base = (tap * self.in_ch + ic) * self.out_ch;
        &self.data[base..base + self.out_ch]
    }

    /// The contiguous `in_ch × out_ch` row-major weight panel of one tap.
    pub(crate) fn tap_slice(&self, tap: usize) -> &[f32] {
        let len = self.in_ch * self.out_ch;
        &self.data[tap * len..(tap + 1) * len]
    }
}

/// The coarse extent after a stride-`kd` downsample (ceiling division).
pub fn downsampled_extent(e: Extent3, kd: u32) -> Extent3 {
    Extent3::new(e.x.div_ceil(kd), e.y.div_ceil(kd), e.z.div_ceil(kd))
}

/// Strided sparse convolution (downsample). A coarse output site is active
/// iff its K_d³ fine block contains any active input.
///
/// # Errors
///
/// Returns [`SscnError::ChannelMismatch`] when channels do not match.
pub fn strided_conv3d(input: &SparseTensor<f32>, w: &StridedWeights) -> Result<SparseTensor<f32>> {
    if input.channels() != w.in_ch() {
        return Err(SscnError::ChannelMismatch {
            expected: w.in_ch(),
            got: input.channels(),
        });
    }
    let kd = w.kd() as i32;
    let coarse = downsampled_extent(input.extent(), w.kd());
    let out_ch = w.out_ch();
    // Flat accumulation: one contiguous sites×out_ch matrix, coarse sites
    // indexed through a single u32 map in first-touch order. Per-site
    // accumulation order equals input storage order, as before.
    let mut rows: HashMap<Coord3, u32> = HashMap::new();
    let mut coarse_coords: Vec<Coord3> = Vec::new();
    let mut acc: Vec<f32> = Vec::new();
    for (c, f) in input.iter() {
        let q = Coord3::new(c.x.div_euclid(kd), c.y.div_euclid(kd), c.z.div_euclid(kd));
        let tap = w.tap(c.x - q.x * kd, c.y - q.y * kd, c.z - q.z * kd);
        let row = *rows.entry(q).or_insert_with(|| {
            coarse_coords.push(q);
            acc.resize(acc.len() + out_ch, 0.0);
            (coarse_coords.len() - 1) as u32
        }) as usize;
        let dst = &mut acc[row * out_ch..(row + 1) * out_ch];
        for (ic, &a) in f.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (dst, &wv) in dst.iter_mut().zip(w.oc_slice(tap, ic)) {
                *dst += a * wv;
            }
        }
    }
    let mut out = SparseTensor::from_coord_features(coarse, out_ch, coarse_coords, acc)
        .expect("coarse coords are in bounds and unique");
    out.canonicalize();
    Ok(out)
}

/// Transpose strided convolution (upsample). `target` specifies the output
/// active set explicitly (the encoder skip's active set); every target site
/// gathers from the single coarse site covering it.
///
/// # Errors
///
/// Returns [`SscnError::ChannelMismatch`] on a channel mismatch,
/// [`SscnError::InvalidConfig`] when `fine_extent` does not downsample to
/// the input's extent, and a tensor error for an out-of-bounds or
/// duplicated target coordinate.
pub fn transpose_conv3d(
    input: &SparseTensor<f32>,
    w: &StridedWeights,
    fine_extent: Extent3,
    target: &[Coord3],
) -> Result<SparseTensor<f32>> {
    if input.channels() != w.in_ch() {
        return Err(SscnError::ChannelMismatch {
            expected: w.in_ch(),
            got: input.channels(),
        });
    }
    if downsampled_extent(fine_extent, w.kd()) != input.extent() {
        return Err(SscnError::InvalidConfig {
            reason: format!(
                "fine extent {fine_extent} does not downsample to coarse extent {}",
                input.extent()
            ),
        });
    }
    let kd = w.kd() as i32;
    let out_ch = w.out_ch();
    // Flat assembly: the target list *is* the output coordinate array;
    // features are computed straight into one contiguous matrix.
    let mut feats = vec![0.0f32; target.len() * out_ch];
    for (p, dst) in target.iter().zip(feats.chunks_exact_mut(out_ch)) {
        let q = Coord3::new(p.x.div_euclid(kd), p.y.div_euclid(kd), p.z.div_euclid(kd));
        let Some(f) = input.feature(q) else {
            continue;
        };
        let tap = w.tap(p.x - q.x * kd, p.y - q.y * kd, p.z - q.z * kd);
        for (ic, &a) in f.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (dst, &wv) in dst.iter_mut().zip(w.oc_slice(tap, ic)) {
                *dst += a * wv;
            }
        }
    }
    let mut out = SparseTensor::from_coord_features(fine_extent, out_ch, target.to_vec(), feats)?;
    out.canonicalize();
    Ok(out)
}

/// Concatenates the channels of two tensors defined on the same active set
/// (the U-Net skip connection join). The output keeps `a`'s storage order.
/// When both operands store the same coordinate sequence — the U-Net's
/// case, since the transpose convolution restores the skip's canonical set
/// — rows are interleaved onto `a`'s active set with no coordinate lookup.
/// Operands that share one active set pass that test in O(1), on the
/// pointer of their coordinate slice.
///
/// # Errors
///
/// Returns [`SscnError::InvalidConfig`] when extents or active sets differ.
pub fn concat_channels(a: &SparseTensor<f32>, b: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
    if a.extent() == b.extent()
        && (std::ptr::eq(a.coords(), b.coords()) || a.coords() == b.coords())
    {
        let (ca, cb) = (a.channels(), b.channels());
        let mut feats = Vec::with_capacity(a.nnz() * (ca + cb));
        for (fa, fb) in a
            .features()
            .chunks_exact(ca)
            .zip(b.features().chunks_exact(cb))
        {
            feats.extend_from_slice(fa);
            feats.extend_from_slice(fb);
        }
        return SparseTensor::from_template(a, ca + cb, feats).map_err(SscnError::from);
    }
    if a.extent() != b.extent() || !a.same_active_set(b) {
        return Err(SscnError::InvalidConfig {
            reason: "concat requires identical extents and active sets".into(),
        });
    }
    let mut out = SparseTensor::new(a.extent(), a.channels() + b.channels());
    let mut buf = vec![0.0f32; a.channels() + b.channels()];
    for (c, fa) in a.iter() {
        let fb = b.feature(c).expect("same active set");
        buf[..fa.len()].copy_from_slice(fa);
        buf[fa.len()..].copy_from_slice(fb);
        out.insert(c, &buf)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_with(coords: &[(Coord3, f32)], side: u32) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(side), 1);
        for &(c, v) in coords {
            t.insert(c, &[v]).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn downsample_active_rule() {
        let t = input_with(
            &[
                (Coord3::new(0, 0, 0), 1.0),
                (Coord3::new(1, 1, 1), 2.0), // same 2³ block as above
                (Coord3::new(6, 6, 6), 3.0),
            ],
            8,
        );
        let w = StridedWeights::seeded(2, 1, 2, 5);
        let out = strided_conv3d(&t, &w).unwrap();
        assert_eq!(out.extent(), Extent3::cube(4));
        assert_eq!(out.nnz(), 2);
        assert!(out.contains(Coord3::new(0, 0, 0)));
        assert!(out.contains(Coord3::new(3, 3, 3)));
    }

    #[test]
    fn downsample_sums_block_contributions() {
        let mut w = StridedWeights::zeros(2, 1, 1);
        // All-ones kernel.
        for tap in 0..8 {
            let base = tap; // in_ch = out_ch = 1
            w.data[base] = 1.0;
        }
        let t = input_with(
            &[
                (Coord3::new(0, 0, 0), 1.0),
                (Coord3::new(0, 0, 1), 10.0),
                (Coord3::new(1, 1, 1), 100.0),
            ],
            4,
        );
        let out = strided_conv3d(&t, &w).unwrap();
        assert_eq!(out.feature(Coord3::new(0, 0, 0)), Some(&[111.0][..]));
    }

    #[test]
    fn upsample_restores_target_active_set() {
        let fine = input_with(
            &[
                (Coord3::new(0, 0, 0), 1.0),
                (Coord3::new(1, 0, 0), 2.0),
                (Coord3::new(5, 5, 5), 3.0),
            ],
            8,
        );
        let down = StridedWeights::seeded(2, 1, 4, 6);
        let coarse = strided_conv3d(&fine, &down).unwrap();
        let up = StridedWeights::seeded(2, 4, 2, 7);
        let restored = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
        assert!(restored.same_active_set(&fine));
        assert_eq!(restored.channels(), 2);
    }

    #[test]
    fn upsample_rejects_mismatched_extent() {
        let coarse = input_with(&[(Coord3::new(0, 0, 0), 1.0)], 4);
        let up = StridedWeights::seeded(2, 1, 1, 8);
        let err = transpose_conv3d(&coarse, &up, Extent3::cube(16), &[]).unwrap_err();
        assert!(matches!(err, SscnError::InvalidConfig { .. }));
    }

    #[test]
    fn down_up_roundtrip_values() {
        // Identity-ish: kd=2 kernel with 1.0 only at tap (0,0,0); coarse
        // value = value of the block's corner site; upsample with the same
        // tap puts it back at the corner.
        let mut down = StridedWeights::zeros(2, 1, 1);
        let t = down.tap(0, 0, 0);
        down.data[t] = 1.0;
        let mut up = StridedWeights::zeros(2, 1, 1);
        let t = up.tap(0, 0, 0);
        up.data[t] = 1.0;
        let fine = input_with(&[(Coord3::new(2, 2, 2), 7.0)], 8);
        let coarse = strided_conv3d(&fine, &down).unwrap();
        assert_eq!(coarse.feature(Coord3::new(1, 1, 1)), Some(&[7.0][..]));
        let back = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
        assert_eq!(back.feature(Coord3::new(2, 2, 2)), Some(&[7.0][..]));
    }

    #[test]
    fn concat_joins_channels() {
        let a = input_with(&[(Coord3::new(1, 1, 1), 1.0)], 4);
        let b = input_with(&[(Coord3::new(1, 1, 1), 2.0)], 4);
        let out = concat_channels(&a, &b).unwrap();
        assert_eq!(out.channels(), 2);
        assert_eq!(out.feature(Coord3::new(1, 1, 1)), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn concat_fast_path_matches_the_general_path_bit_for_bit() {
        let a = input_with(
            &[
                (Coord3::new(3, 0, 1), -1.5),
                (Coord3::new(0, 2, 2), 2.25),
                (Coord3::new(1, 1, 1), 0.0),
            ],
            4,
        );
        let b = a.map(|v| v * 3.0 + 0.5);
        let fast = concat_channels(&a, &b).unwrap();
        // A reordered copy of `b` shares the active set but not the
        // coordinate sequence, so it takes the general path.
        let mut shuffled = SparseTensor::new(b.extent(), 1);
        for (c, f) in b.iter().collect::<Vec<_>>().into_iter().rev() {
            shuffled.insert(c, f).unwrap();
        }
        assert_ne!(shuffled.coords(), b.coords());
        let general = concat_channels(&a, &shuffled).unwrap();
        assert_eq!(fast.coords(), a.coords());
        assert_eq!(fast.coords(), general.coords());
        let bits =
            |t: &SparseTensor<f32>| t.features().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&general));
        assert_eq!(fast.feature(Coord3::new(0, 2, 2)), Some(&[2.25, 7.25][..]));
        assert_eq!(fast.active_fingerprint(), a.active_fingerprint());
    }

    #[test]
    fn concat_rejects_different_active_sets() {
        let a = input_with(&[(Coord3::new(1, 1, 1), 1.0)], 4);
        let b = input_with(&[(Coord3::new(0, 0, 0), 2.0)], 4);
        assert!(concat_channels(&a, &b).is_err());
    }

    #[test]
    fn odd_extent_downsample_ceils() {
        assert_eq!(
            downsampled_extent(Extent3::new(5, 6, 7), 2),
            Extent3::new(3, 3, 4)
        );
        let t = input_with(&[(Coord3::new(4, 4, 4), 1.0)], 5);
        let w = StridedWeights::seeded(2, 1, 1, 9);
        let out = strided_conv3d(&t, &w).unwrap();
        assert!(out.contains(Coord3::new(2, 2, 2)));
    }
}
