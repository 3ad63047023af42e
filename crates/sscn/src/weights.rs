//! Convolution weight containers.
//!
//! Layout convention (shared with the accelerator's weight buffer): weights
//! are stored **tap-major** in the kernel's column order (see
//! [`esca_tensor::KernelOffsets`]), then input-channel, then output-channel:
//! `data[((tap * in_ch) + ic) * out_ch + oc]`. The positional
//! correspondence between kernel taps and SDMU match positions relies on
//! this shared order (§III-C: "weights and activations have a positional
//! correspondence in each match group").

use crate::error::SscnError;
use crate::Result;
use esca_tensor::KernelOffsets;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Weights (and bias) of one K×K×K convolution layer, in f32.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvWeights {
    k: u32,
    in_ch: usize,
    out_ch: usize,
    data: Vec<f32>,
    bias: Vec<f32>,
}

impl ConvWeights {
    /// Creates a zero-initialized weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even/zero or a channel count is zero.
    pub fn zeros(k: u32, in_ch: usize, out_ch: usize) -> Self {
        assert!(k % 2 == 1 && k > 0, "kernel size must be odd and nonzero");
        assert!(in_ch > 0 && out_ch > 0, "channel counts must be nonzero");
        let taps = (k * k * k) as usize;
        ConvWeights {
            k,
            in_ch,
            out_ch,
            data: vec![0.0; taps * in_ch * out_ch],
            bias: vec![0.0; out_ch],
        }
    }

    /// He-style seeded random init (uniform in ±√(3 / fan_in)), fully
    /// deterministic in the seed. Bias starts at zero.
    pub fn seeded(k: u32, in_ch: usize, out_ch: usize, seed: u64) -> Self {
        let mut w = ConvWeights::zeros(k, in_ch, out_ch);
        let fan_in = (k * k * k) as f32 * in_ch as f32;
        let bound = (3.0 / fan_in).sqrt();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5eed_5eed);
        for v in &mut w.data {
            *v = (rng.gen::<f32>() * 2.0 - 1.0) * bound;
        }
        w
    }

    /// Whether these are well-formed weights of a K×K×K `in_ch → out_ch`
    /// layer: the header fields match and the weight and bias vectors have
    /// the lengths they imply (a decoded model's shape check).
    pub(crate) fn has_shape(&self, k: u32, in_ch: usize, out_ch: usize) -> bool {
        let len = (k as usize)
            .checked_pow(3)
            .and_then(|taps| taps.checked_mul(in_ch))
            .and_then(|n| n.checked_mul(out_ch));
        (self.k, self.in_ch, self.out_ch) == (k, in_ch, out_ch)
            && len == Some(self.data.len())
            && self.bias.len() == out_ch
    }

    /// Kernel size K.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The kernel offset table in the shared column order.
    pub fn offsets(&self) -> KernelOffsets {
        KernelOffsets::new(self.k)
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

    /// The weight at `(tap, ic, oc)`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    #[inline]
    pub fn w(&self, tap: usize, ic: usize, oc: usize) -> f32 {
        self.data[self.index(tap, ic, oc)]
    }

    /// Sets the weight at `(tap, ic, oc)`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn set_w(&mut self, tap: usize, ic: usize, oc: usize, v: f32) {
        let i = self.index(tap, ic, oc);
        self.data[i] = v;
    }

    #[inline]
    fn index(&self, tap: usize, ic: usize, oc: usize) -> usize {
        assert!(
            tap < (self.k * self.k * self.k) as usize && ic < self.in_ch && oc < self.out_ch,
            "weight index out of range"
        );
        (tap * self.in_ch + ic) * self.out_ch + oc
    }

    /// The per-OC slice of weights for `(tap, ic)` — what one broadcast of
    /// an activation multiplies against across the computing array.
    pub fn oc_slice(&self, tap: usize, ic: usize) -> &[f32] {
        let base = self.index(tap, ic, 0);
        &self.data[base..base + self.out_ch]
    }

    /// The contiguous `in_ch × out_ch` row-major weight panel of one tap —
    /// the dense matrix a [`crate::gemm::GemmBackend`] multiplies a tap's
    /// gathered activations against (tap-major layout makes it a single
    /// slice).
    ///
    /// # Panics
    ///
    /// Panics if `tap >= K³`.
    pub fn tap_slice(&self, tap: usize) -> &[f32] {
        let base = self.index(tap, 0, 0);
        &self.data[base..base + self.in_ch * self.out_ch]
    }

    /// Bias per output channel.
    #[inline]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias per output channel.
    #[inline]
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Raw tap-major weight storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Largest absolute weight value (drives quantization scale choice).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Validates that an input channel count matches this layer.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] when it does not.
    pub fn check_input_channels(&self, got: usize) -> Result<()> {
        if got != self.in_ch {
            return Err(SscnError::ChannelMismatch {
                expected: self.in_ch,
                got,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a = ConvWeights::seeded(3, 4, 8, 1);
        let b = ConvWeights::seeded(3, 4, 8, 1);
        assert_eq!(a, b);
        let c = ConvWeights::seeded(3, 4, 8, 2);
        assert_ne!(a, c);
        let bound = (3.0f32 / (27.0 * 4.0)).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(a.max_abs() > 0.0);
    }

    #[test]
    fn index_layout_is_tap_major() {
        let mut w = ConvWeights::zeros(3, 2, 3);
        w.set_w(5, 1, 2, 9.0);
        // Manual layout check: (5 * 2 + 1) * 3 + 2 = 35.
        assert_eq!(w.as_slice()[35], 9.0);
        assert_eq!(w.w(5, 1, 2), 9.0);
    }

    #[test]
    fn oc_slice_matches_w() {
        let w = ConvWeights::seeded(3, 2, 4, 3);
        let s = w.oc_slice(7, 1);
        for (oc, v) in s.iter().enumerate() {
            assert_eq!(*v, w.w(7, 1, oc));
        }
    }

    #[test]
    fn channel_check() {
        let w = ConvWeights::zeros(3, 4, 4);
        assert!(w.check_input_channels(4).is_ok());
        assert!(matches!(
            w.check_input_channels(5),
            Err(SscnError::ChannelMismatch {
                expected: 4,
                got: 5
            })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let w = ConvWeights::zeros(3, 2, 2);
        let _ = w.w(27, 0, 0);
    }
}
