//! INT8-weight / INT16-activation quantization (§IV-A) and the
//! **integer-exact** quantized Sub-Conv.
//!
//! [`submanifold_conv3d_q`] is the bit-level golden reference: the ESCA
//! accelerator model must reproduce its output exactly (same i64
//! accumulation, same shared rounding in
//! [`esca_tensor::fixed::requantize_i64`]).

use crate::conv::site_rows;
use crate::error::SscnError;
use crate::weights::ConvWeights;
use crate::Result;
use esca_tensor::{requantize_i64, KernelOffsets, QuantParams, SparseTensor, Q16, Q8};
use serde::{Deserialize, Serialize};

/// Per-layer quantization scheme: activation-in, weight, activation-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerQuant {
    /// Input activation scale.
    pub act: QuantParams,
    /// Weight scale.
    pub weight: QuantParams,
    /// Output activation scale.
    pub out: QuantParams,
}

impl LayerQuant {
    /// A uniform scheme using the same fractional bits everywhere. No
    /// library path calls it; the `serde_models`, `cycle_vectors` and
    /// `fixture_vectors` suites and the ablations bench build their
    /// weights with it.
    ///
    /// # Errors
    ///
    /// Propagates [`esca_tensor::TensorError::InvalidQuantParams`] via
    /// [`SscnError::Tensor`] for out-of-range bit counts.
    pub fn uniform(act_bits: u8, w_bits: u8) -> Result<Self> {
        Ok(LayerQuant {
            act: QuantParams::new(act_bits).map_err(SscnError::from)?,
            weight: QuantParams::new(w_bits).map_err(SscnError::from)?,
            out: QuantParams::new(act_bits).map_err(SscnError::from)?,
        })
    }
}

/// INT8-quantized convolution weights with bias pre-scaled to the
/// accumulator's fixed-point position (`act.frac + weight.frac`).
///
/// Layout matches [`ConvWeights`]: tap-major (kernel column order), then
/// ic, then oc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedWeights {
    k: u32,
    in_ch: usize,
    out_ch: usize,
    data: Vec<Q8>,
    bias_acc: Vec<i64>,
    quant: LayerQuant,
}

impl QuantizedWeights {
    /// Quantizes float weights under `quant`.
    pub fn from_float(w: &ConvWeights, quant: LayerQuant) -> Self {
        let data = w
            .as_slice()
            .iter()
            .map(|&v| quant.weight.quantize_i8(v))
            .collect();
        let acc_frac = quant.act.frac_bits() as i32 + quant.weight.frac_bits() as i32;
        let bias_acc = w
            .bias()
            .iter()
            .map(|&b| (b as f64 * (1i64 << acc_frac) as f64).round() as i64)
            .collect();
        QuantizedWeights {
            k: w.k(),
            in_ch: w.in_ch(),
            out_ch: w.out_ch(),
            data,
            bias_acc,
            quant,
        }
    }

    /// Picks the largest weight scale (most fractional bits ≤ `max_bits`)
    /// that represents `w` without clipping, then quantizes. The returned
    /// scheme uses `act_bits` for both input and output activations.
    ///
    /// # Errors
    ///
    /// Propagates invalid quantization parameters.
    pub fn auto(w: &ConvWeights, act_bits: u8, max_bits: u8) -> Result<Self> {
        let max_abs = w.max_abs().max(1e-12);
        // Largest f with max_abs * 2^f <= 127.
        let f = (127.0f32 / max_abs)
            .log2()
            .floor()
            .clamp(0.0, max_bits as f32) as u8;
        let quant = LayerQuant {
            act: QuantParams::new(act_bits).map_err(SscnError::from)?,
            weight: QuantParams::new(f).map_err(SscnError::from)?,
            out: QuantParams::new(act_bits).map_err(SscnError::from)?,
        };
        Ok(QuantizedWeights::from_float(w, quant))
    }

    /// Kernel size K.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
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

    /// The layer's quantization scheme.
    #[inline]
    pub fn quant(&self) -> LayerQuant {
        self.quant
    }

    /// The weight at `(tap, ic, oc)`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    #[inline]
    pub fn w(&self, tap: usize, ic: usize, oc: usize) -> Q8 {
        assert!(
            tap < (self.k * self.k * self.k) as usize && ic < self.in_ch && oc < self.out_ch,
            "weight index out of range"
        );
        self.data[(tap * self.in_ch + ic) * self.out_ch + oc]
    }

    /// The per-OC weight slice for `(tap, ic)`.
    pub fn oc_slice(&self, tap: usize, ic: usize) -> &[Q8] {
        let base = (tap * self.in_ch + ic) * self.out_ch;
        &self.data[base..base + self.out_ch]
    }

    /// The contiguous `in_ch × out_ch` row-major weight panel of one tap
    /// (see [`crate::weights::ConvWeights::tap_slice`]) — the per-tap
    /// GEMM operand a [`crate::gemm::GemmBackend`] consumes.
    pub fn tap_slice(&self, tap: usize) -> &[Q8] {
        let base = tap * self.in_ch * self.out_ch;
        &self.data[base..base + self.in_ch * self.out_ch]
    }

    /// Bias in accumulator scale, per OC.
    #[inline]
    pub fn bias_acc(&self) -> &[i64] {
        &self.bias_acc
    }

    /// Raw quantized weight storage (tap-major).
    #[inline]
    pub fn as_slice(&self) -> &[Q8] {
        &self.data
    }

    /// Total weight words — what the accelerator's weight buffer must hold.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the weight tensor is empty (never for valid layers).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Quantizes a float sparse tensor's features to INT16 activations,
/// preserving the active set exactly (a site whose value rounds to zero
/// stays active — submanifold activity is positional, not value-based).
pub fn quantize_tensor(t: &SparseTensor<f32>, params: QuantParams) -> SparseTensor<Q16> {
    t.map(|v| params.quantize_i16(v))
}

/// Dequantizes an INT16 tensor back to float.
pub fn dequantize_tensor(t: &SparseTensor<Q16>, params: QuantParams) -> SparseTensor<f32> {
    t.map(|q| params.dequantize_i16(q))
}

/// Integer-exact quantized submanifold convolution — the golden reference
/// the accelerator model is validated against, bit for bit.
///
/// Accumulation is in i64 (cannot overflow for any realistic layer:
/// |Q16×Q8| ≤ 2²², taps × channels ≤ 2¹⁵), bias is added in accumulator
/// scale, then the result is requantized with shared round-half-away
/// semantics. `relu` fuses a max(0, ·) before requantization-independent
/// clamping (ReLU commutes with the monotone requantizer; applying it on
/// the accumulator keeps one canonical definition).
///
/// # Errors
///
/// Returns [`SscnError::ChannelMismatch`] when the input channel count does
/// not match `weights`.
pub fn submanifold_conv3d_q(
    input: &SparseTensor<Q16>,
    weights: &QuantizedWeights,
    relu: bool,
) -> Result<SparseTensor<Q16>> {
    if input.channels() != weights.in_ch() {
        return Err(SscnError::ChannelMismatch {
            expected: weights.in_ch(),
            got: input.channels(),
        });
    }
    let offsets = KernelOffsets::new(weights.k());
    let q = weights.quant();
    let out_ch = weights.out_ch();
    let neighbour = site_rows(input);
    let mut out = Vec::with_capacity(input.nnz() * out_ch);
    let mut acc = vec![0i64; out_ch];
    for (centre, _) in input.iter() {
        acc.copy_from_slice(weights.bias_acc());
        for (tap, &off) in offsets.offsets().iter().enumerate() {
            let Some(f) = neighbour(centre + off) else {
                continue;
            };
            for (ic, &a) in f.iter().enumerate() {
                if a.0 == 0 {
                    continue; // zero-valued activation contributes nothing
                }
                let ws = weights.oc_slice(tap, ic);
                for (dst, &w) in acc.iter_mut().zip(ws) {
                    *dst += a.0 as i64 * w.0 as i64;
                }
            }
        }
        out.extend(acc.iter().map(|&v| {
            let v = if relu { v.max(0) } else { v };
            requantize_i64(v, q.act, q.weight, q.out)
        }));
    }
    Ok(SparseTensor::from_template(input, out_ch, out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::submanifold_conv3d;
    use esca_tensor::{Coord3, Extent3};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_input(seed: u64, extent: u32, ch: usize, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(extent), ch);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..extent as i32),
                rng.gen_range(0..extent as i32),
                rng.gen_range(0..extent as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-2.0..2.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn quantized_conv_preserves_active_set() {
        let input = random_input(1, 10, 3, 30);
        let w = ConvWeights::seeded(3, 3, 5, 2);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let qin = quantize_tensor(&input, qw.quant().act);
        let out = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        assert!(out.same_active_set(&input));
    }

    #[test]
    fn quantized_tracks_float_reference() {
        let input = random_input(3, 10, 2, 40);
        let w = ConvWeights::seeded(3, 2, 4, 4);
        let qw = QuantizedWeights::auto(&w, 10, 12).unwrap();
        let qin = quantize_tensor(&input, qw.quant().act);
        let qout = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        let f_out = submanifold_conv3d(&input, &w).unwrap();
        let deq = dequantize_tensor(&qout, qw.quant().out);
        // Error bound: input quantization error propagates through ≤ 27 taps
        // × 2 ics; keep a generous envelope.
        let err = deq.max_abs_diff(&f_out).unwrap();
        assert!(err < 0.05, "quantization error too large: {err}");
    }

    #[test]
    fn relu_clamps_negative_accumulators() {
        let mut w = ConvWeights::zeros(3, 1, 1);
        w.set_w(13, 0, 0, -1.0); // centre tap, negating
        let qw = QuantizedWeights::auto(&w, 8, 8).unwrap();
        let mut input = SparseTensor::new(Extent3::cube(4), 1);
        input.insert(Coord3::new(1, 1, 1), &[1.0]).unwrap();
        let qin = quantize_tensor(&input, qw.quant().act);
        let no_relu = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        assert!(no_relu.feature(Coord3::new(1, 1, 1)).unwrap()[0].0 < 0);
        let with_relu = submanifold_conv3d_q(&qin, &qw, true).unwrap();
        assert_eq!(with_relu.feature(Coord3::new(1, 1, 1)).unwrap()[0], Q16(0));
        // Active set still preserved even though the value clamps to zero.
        assert!(with_relu.same_active_set(&input));
    }

    #[test]
    fn bias_lands_in_accumulator_scale() {
        let mut w = ConvWeights::zeros(3, 1, 2);
        w.bias_mut()[0] = 0.5;
        w.bias_mut()[1] = -0.25;
        let quant = LayerQuant::uniform(8, 6).unwrap();
        let qw = QuantizedWeights::from_float(&w, quant);
        // acc frac = 14 bits => 0.5 -> 8192, -0.25 -> -4096.
        assert_eq!(qw.bias_acc(), &[8192, -4096]);
    }

    #[test]
    fn auto_scale_never_clips() {
        for seed in 0..5 {
            let w = ConvWeights::seeded(3, 4, 4, seed);
            let qw = QuantizedWeights::auto(&w, 8, 14).unwrap();
            let step = qw.quant().weight.step();
            for (qv, &fv) in qw.as_slice().iter().zip(w.as_slice()) {
                let back = qv.0 as f32 * step;
                assert!((back - fv).abs() <= step / 2.0 + 1e-7);
                assert!(qv.0 > i8::MIN && qv.0 < i8::MAX || fv.abs() >= 126.0 * step);
            }
        }
    }

    #[test]
    fn zero_valued_active_sites_still_produce_output() {
        // A site quantizing to zero remains active and still gets a
        // convolution output (its neighbors contribute).
        let mut w = ConvWeights::zeros(3, 1, 1);
        for tap in 0..27 {
            w.set_w(tap, 0, 0, 1.0);
        }
        let qw = QuantizedWeights::auto(&w, 8, 4).unwrap();
        let mut input = SparseTensor::new(Extent3::cube(4), 1);
        input.insert(Coord3::new(1, 1, 1), &[0.0]).unwrap(); // active, value 0
        input.insert(Coord3::new(1, 1, 2), &[1.0]).unwrap();
        let qin = quantize_tensor(&input, qw.quant().act);
        let out = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        assert_eq!(out.nnz(), 2);
        let v = out.feature(Coord3::new(1, 1, 1)).unwrap()[0];
        assert!(v.0 > 0, "neighbor contribution missing");
    }

    #[test]
    fn channel_mismatch_rejected() {
        let w = ConvWeights::zeros(3, 2, 2);
        let qw = QuantizedWeights::auto(&w, 8, 8).unwrap();
        let input: SparseTensor<Q16> = SparseTensor::new(Extent3::cube(4), 3);
        assert!(matches!(
            submanifold_conv3d_q(&input, &qw, false),
            Err(SscnError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn quantize_dequantize_tensor_roundtrip() {
        let t = random_input(9, 6, 2, 10);
        let p = QuantParams::new(8).unwrap();
        let q = quantize_tensor(&t, p);
        assert!(q.same_active_set(&t));
        let back = dequantize_tensor(&q, p);
        assert!(back.max_abs_diff(&t).unwrap() <= p.step() / 2.0 + 1e-6);
    }
}
