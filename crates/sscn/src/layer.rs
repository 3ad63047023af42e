//! Pointwise layers: ReLU, batch normalization (foldable into a preceding
//! convolution, as done before deployment quantization), and linear
//! (1×1×1) layers.

use crate::error::SscnError;
use crate::weights::ConvWeights;
use crate::Result;
use esca_tensor::SparseTensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Applies ReLU to every feature element, preserving the active set
/// (submanifold activity is positional — a clamped site stays active).
pub fn relu(t: &SparseTensor<f32>) -> SparseTensor<f32> {
    t.map(|v| v.max(0.0))
}

/// Per-channel affine normalization `y = x·scale + shift` — inference-time
/// batch norm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchNorm {
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BatchNorm {
    /// Creates from explicit per-channel scale and shift.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or are zero.
    pub fn new(scale: Vec<f32>, shift: Vec<f32>) -> Self {
        assert!(!scale.is_empty() && scale.len() == shift.len());
        BatchNorm { scale, shift }
    }

    /// Seeded random parameters (scale near 1, shift near 0) for tests and
    /// synthetic networks.
    pub fn seeded(channels: usize, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xba7c_4045);
        BatchNorm {
            scale: (0..channels)
                .map(|_| 0.8 + 0.4 * rng.gen::<f32>())
                .collect(),
            shift: (0..channels)
                .map(|_| 0.2 * (rng.gen::<f32>() - 0.5))
                .collect(),
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.scale.len()
    }

    /// Applies the normalization.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] when channels differ.
    pub fn apply(&self, t: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
        if t.channels() != self.channels() {
            return Err(SscnError::ChannelMismatch {
                expected: self.channels(),
                got: t.channels(),
            });
        }
        let mut feats = Vec::with_capacity(t.features().len());
        for f in t.features().chunks_exact(self.channels()) {
            feats.extend(
                f.iter()
                    .zip(self.scale.iter().zip(&self.shift))
                    .map(|(&v, (&scale, &shift))| v * scale + shift),
            );
        }
        Ok(SparseTensor::from_template(t, self.channels(), feats)?)
    }

    /// Folds this normalization into the preceding convolution's weights
    /// and bias (`w'[·,oc] = w[·,oc]·scale[oc]`,
    /// `b'[oc] = b[oc]·scale[oc] + shift[oc]`), the standard deployment
    /// transformation before quantization.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] when the conv's output
    /// channels differ from this norm's channels.
    pub fn fold_into(&self, conv: &ConvWeights) -> Result<ConvWeights> {
        if conv.out_ch() != self.channels() {
            return Err(SscnError::ChannelMismatch {
                expected: self.channels(),
                got: conv.out_ch(),
            });
        }
        let mut out = conv.clone();
        // Tap-major storage ends in the output channel, so the scale
        // cycles with period `out_ch`.
        for (row, src) in out
            .as_mut_slice()
            .chunks_exact_mut(conv.out_ch())
            .zip(conv.as_slice().chunks_exact(conv.out_ch()))
        {
            for ((v, &w), &s) in row.iter_mut().zip(src).zip(&self.scale) {
                *v = w * s;
            }
        }
        for (oc, b) in out.bias_mut().iter_mut().enumerate() {
            *b = conv.bias()[oc] * self.scale[oc] + self.shift[oc];
        }
        Ok(out)
    }
}

/// A linear (fully connected / 1×1×1 convolution) layer applied per active
/// site — the SS U-Net's classification head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_ch: usize,
    out_ch: usize,
    /// `w[ic * out_ch + oc]`
    w: Vec<f32>,
    b: Vec<f32>,
}

impl Linear {
    /// Seeded random linear layer.
    pub fn seeded(in_ch: usize, out_ch: usize, seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0);
        let bound = (3.0 / in_ch as f32).sqrt();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x11ea_11ea);
        Linear {
            in_ch,
            out_ch,
            w: (0..in_ch * out_ch)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * bound)
                .collect(),
            b: vec![0.0; out_ch],
        }
    }

    /// Input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Whether this is a well-formed `in_ch → out_ch` layer: the header
    /// fields match and the weight and bias vectors have the lengths they
    /// imply (a decoded model's shape check).
    pub(crate) fn has_shape(&self, in_ch: usize, out_ch: usize) -> bool {
        (self.in_ch, self.out_ch) == (in_ch, out_ch)
            && in_ch.checked_mul(out_ch) == Some(self.w.len())
            && self.b.len() == out_ch
    }

    /// Whether every weight and bias is finite (a decoded model's value
    /// check).
    pub(crate) fn is_finite(&self) -> bool {
        self.w.iter().chain(&self.b).all(|v| v.is_finite())
    }

    /// Applies the layer at every active site.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] when channels differ.
    pub fn apply(&self, t: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
        if t.channels() != self.in_ch {
            return Err(SscnError::ChannelMismatch {
                expected: self.in_ch,
                got: t.channels(),
            });
        }
        let mut feats = Vec::with_capacity(t.nnz() * self.out_ch);
        for f in t.features().chunks_exact(self.in_ch) {
            let start = feats.len();
            feats.extend_from_slice(&self.b);
            let dst = &mut feats[start..];
            for (ic, &a) in f.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let ws = &self.w[ic * self.out_ch..(ic + 1) * self.out_ch];
                for (d, &w) in dst.iter_mut().zip(ws) {
                    *d += a * w;
                }
            }
        }
        Ok(SparseTensor::from_template(t, self.out_ch, feats)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::submanifold_conv3d;
    use esca_tensor::{Coord3, Extent3};

    fn tiny(ch: usize) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(4), ch);
        let f: Vec<f32> = (0..ch).map(|i| i as f32 - 1.0).collect();
        t.insert(Coord3::new(1, 1, 1), &f).unwrap();
        t.insert(Coord3::new(2, 2, 2), &vec![0.5; ch]).unwrap();
        t
    }

    #[test]
    fn relu_clamps_and_preserves_active_set() {
        let t = tiny(3);
        let r = relu(&t);
        assert!(r.same_active_set(&t));
        assert_eq!(r.feature(Coord3::new(1, 1, 1)), Some(&[0.0, 0.0, 1.0][..]));
    }

    #[test]
    fn batchnorm_identity_is_noop() {
        let t = tiny(3);
        let out = BatchNorm::new(vec![1.0; 3], vec![0.0; 3])
            .apply(&t)
            .unwrap();
        assert!(out.same_content(&t));
    }

    #[test]
    fn batchnorm_applies_affine() {
        let t = tiny(2);
        let bn = BatchNorm::new(vec![2.0, 0.5], vec![1.0, -1.0]);
        let out = bn.apply(&t).unwrap();
        assert_eq!(out.feature(Coord3::new(1, 1, 1)), Some(&[-1.0, -1.0][..]));
    }

    #[test]
    fn fold_into_conv_equals_conv_then_bn() {
        let w = ConvWeights::seeded(3, 2, 3, 21);
        let bn = BatchNorm::seeded(3, 22);
        let t = tiny(2);
        let unfused = bn.apply(&submanifold_conv3d(&t, &w).unwrap()).unwrap();
        let fused_w = bn.fold_into(&w).unwrap();
        let fused = submanifold_conv3d(&t, &fused_w).unwrap();
        assert!(fused.max_abs_diff(&unfused).unwrap() < 1e-5);
    }

    #[test]
    fn linear_is_per_site_matmul() {
        let mut lin = Linear::seeded(2, 2, 1);
        lin.w = vec![1.0, 0.0, 0.0, 1.0]; // identity
        lin.b = vec![0.5, -0.5];
        let t = tiny(2);
        let out = lin.apply(&t).unwrap();
        assert_eq!(out.feature(Coord3::new(2, 2, 2)), Some(&[1.0, 0.0][..]));
    }

    /// A non-canonical input with a zero feature, for the layout tests.
    fn shuffled(ch: usize) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(4), ch);
        for (i, c) in [(3, 0, 2), (0, 1, 1), (2, 2, 0), (0, 0, 3)]
            .into_iter()
            .enumerate()
        {
            let mut f: Vec<f32> = (0..ch).map(|j| (i * ch + j) as f32 * 0.37 - 1.1).collect();
            if c == (0, 1, 1) {
                f[0] = 0.0;
            }
            t.insert(Coord3::from(c), &f).unwrap();
        }
        t
    }

    fn bits(t: &SparseTensor<f32>) -> Vec<u32> {
        t.features().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn linear_output_keeps_sites_order_and_bits() {
        let lin = Linear::seeded(3, 5, 4);
        let t = shuffled(3);
        let out = lin.apply(&t).unwrap();
        // Reference: one insert per site, accumulating exactly as the
        // layer does.
        let mut want = SparseTensor::new(t.extent(), 5);
        for (c, f) in t.iter() {
            let mut buf = lin.b.clone();
            for (ic, &a) in f.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (d, &w) in buf.iter_mut().zip(&lin.w[ic * 5..(ic + 1) * 5]) {
                    *d += a * w;
                }
            }
            want.insert(c, &buf).unwrap();
        }
        assert_eq!(out.coords(), t.coords());
        assert_eq!(bits(&out), bits(&want));
        assert_eq!(
            out.feature(Coord3::new(2, 2, 0)),
            want.feature(Coord3::new(2, 2, 0))
        );
        assert_eq!(out.active_fingerprint(), t.active_fingerprint());
    }

    #[test]
    fn batchnorm_output_keeps_sites_order_and_bits() {
        let bn = BatchNorm::seeded(3, 9);
        let t = shuffled(3);
        let out = bn.apply(&t).unwrap();
        let mut want = SparseTensor::new(t.extent(), 3);
        for (c, f) in t.iter() {
            let buf: Vec<f32> = (0..3).map(|i| f[i] * bn.scale[i] + bn.shift[i]).collect();
            want.insert(c, &buf).unwrap();
        }
        assert_eq!(out.coords(), t.coords());
        assert_eq!(bits(&out), bits(&want));
        assert!(out.contains(Coord3::new(0, 0, 3)));
    }

    #[test]
    fn channel_mismatches_rejected() {
        let t = tiny(2);
        assert!(BatchNorm::new(vec![1.0; 3], vec![0.0; 3])
            .apply(&t)
            .is_err());
        assert!(Linear::seeded(3, 2, 1).apply(&t).is_err());
        let w = ConvWeights::zeros(3, 2, 4);
        assert!(BatchNorm::new(vec![1.0; 3], vec![0.0; 3])
            .fold_into(&w)
            .is_err());
    }
}
