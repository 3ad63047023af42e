//! Fixed-point arithmetic for the paper's quantization scheme (§IV-A):
//! **INT8 weights, INT16 activations**, wide integer accumulation.
//!
//! Scales are powers of two (`value = raw × 2^−frac_bits`), the standard
//! choice for FPGA datapaths because requantization reduces to an arithmetic
//! shift — no DSP multiplier is spent on rescaling.

use crate::error::TensorError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An 8-bit quantized weight (the paper's weight precision).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Q8(pub i8);

/// A 16-bit quantized activation (the paper's activation precision).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Q16(pub i16);

impl fmt::Display for Q8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Q8> for i32 {
    #[inline]
    fn from(q: Q8) -> i32 {
        q.0 as i32
    }
}

impl From<Q16> for i32 {
    #[inline]
    fn from(q: Q16) -> i32 {
        q.0 as i32
    }
}

/// Power-of-two quantization parameters: `real = raw × 2^−frac_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantParams {
    frac_bits: u8,
}

impl QuantParams {
    /// Creates parameters with the given number of fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantParams`] when `frac_bits > 30`
    /// (the shift would exceed the accumulator width).
    pub fn new(frac_bits: u8) -> Result<Self> {
        if frac_bits > 30 {
            return Err(TensorError::InvalidQuantParams {
                reason: format!("frac_bits {frac_bits} exceeds 30"),
            });
        }
        Ok(QuantParams { frac_bits })
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// The real-valued resolution `2^−frac_bits`.
    #[inline]
    pub fn step(&self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Quantizes a real value to INT8 with round-to-nearest and saturation.
    pub fn quantize_i8(&self, v: f32) -> Q8 {
        let scaled = (v * (1i64 << self.frac_bits) as f32).round();
        Q8(scaled.clamp(i8::MIN as f32, i8::MAX as f32) as i8)
    }

    /// Quantizes a real value to INT16 with round-to-nearest and saturation.
    pub fn quantize_i16(&self, v: f32) -> Q16 {
        let scaled = (v * (1i64 << self.frac_bits) as f32).round();
        Q16(scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16)
    }

    /// Dequantizes an INT16 activation back to a real value.
    #[inline]
    pub fn dequantize_i16(&self, q: Q16) -> f32 {
        q.0 as f32 * self.step()
    }
}

/// Requantizes an accumulator holding `act_params × w_params` products down
/// to an INT16 activation in `out_params`, with round-to-nearest
/// (half away from zero) and saturation — the accumulator→output stage of
/// the computing core.
///
/// The binary point of the accumulator sits at
/// `act_params.frac_bits + w_params.frac_bits`; the shift is the difference
/// to the output's fractional bits. The accumulator is 64 bits wide:
/// 27 taps × 128 channels × |Q16×Q8| can exceed 32 bits. Both the golden
/// model and the accelerator model share this exact rounding, so their
/// outputs are bit-identical.
pub fn requantize_i64(
    acc: i64,
    act_params: QuantParams,
    w_params: QuantParams,
    out_params: QuantParams,
) -> Q16 {
    let acc_frac = act_params.frac_bits() as i32 + w_params.frac_bits() as i32;
    let shift = acc_frac - out_params.frac_bits() as i32;
    let v = acc;
    let shifted = if shift > 0 {
        // Round half away from zero: add ±half before the arithmetic shift.
        let half = 1i64 << (shift - 1);
        if v >= 0 {
            (v + half) >> shift
        } else {
            -((-v + half) >> shift)
        }
    } else {
        v << (-shift)
    };
    Q16(shifted.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_small_values() {
        let p = QuantParams::new(8).unwrap();
        for &v in &[0.0f32, 0.5, -0.25, 0.125, 0.4921875] {
            let q = p.quantize_i16(v);
            assert!((p.dequantize_i16(q) - v).abs() <= p.step() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::new(8).unwrap();
        assert_eq!(p.quantize_i8(1000.0), Q8(i8::MAX));
        assert_eq!(p.quantize_i8(-1000.0), Q8(i8::MIN));
        assert_eq!(p.quantize_i16(1e9), Q16(i16::MAX));
        assert_eq!(p.quantize_i16(-1e9), Q16(i16::MIN));
    }

    #[test]
    fn step_is_power_of_two() {
        let p = QuantParams::new(4).unwrap();
        assert!((p.step() - 0.0625).abs() < 1e-9);
        assert_eq!(QuantParams::new(0).unwrap().step(), 1.0);
    }

    #[test]
    fn invalid_frac_bits_rejected() {
        assert!(QuantParams::new(31).is_err());
        assert!(QuantParams::new(30).is_ok());
    }

    #[test]
    fn requantize_identity_when_scales_cancel() {
        let a = QuantParams::new(8).unwrap();
        let w = QuantParams::new(0).unwrap();
        let o = QuantParams::new(8).unwrap();
        // acc holds act(8 frac) * w(0 frac) => 8 frac bits; output wants 8.
        assert_eq!(requantize_i64(1234, a, w, o), Q16(1234));
    }

    #[test]
    fn requantize_rounds_half_away_from_zero() {
        let a = QuantParams::new(4).unwrap();
        let w = QuantParams::new(4).unwrap();
        let o = QuantParams::new(4).unwrap();
        // shift = 4; 8 >> 4 rounds from 0.5 up to 1.
        assert_eq!(requantize_i64(8, a, w, o), Q16(1));
        assert_eq!(requantize_i64(-8, a, w, o), Q16(-1));
        assert_eq!(requantize_i64(7, a, w, o), Q16(0));
        assert_eq!(requantize_i64(-7, a, w, o), Q16(0));
    }

    #[test]
    fn requantize_saturates_output() {
        let a = QuantParams::new(0).unwrap();
        let w = QuantParams::new(0).unwrap();
        let o = QuantParams::new(0).unwrap();
        assert_eq!(requantize_i64(1 << 20, a, w, o), Q16(i16::MAX));
        assert_eq!(requantize_i64(-(1 << 20), a, w, o), Q16(i16::MIN));
    }

    #[test]
    fn requantize_upshift_when_output_has_more_frac() {
        let a = QuantParams::new(2).unwrap();
        let w = QuantParams::new(2).unwrap();
        let o = QuantParams::new(6).unwrap();
        // shift = -2: multiply by 4.
        assert_eq!(requantize_i64(3, a, w, o), Q16(12));
    }

    #[test]
    fn quantized_dot_product_matches_float_within_bound() {
        let ap = QuantParams::new(8).unwrap();
        let wp = QuantParams::new(6).unwrap();
        let acts = [0.5f32, -0.25, 0.75, 0.1];
        let ws = [0.5f32, 0.25, -0.5, 0.9];
        let exact: f32 = acts.iter().zip(&ws).map(|(a, w)| a * w).sum();
        let acc: i64 = acts
            .iter()
            .zip(&ws)
            .map(|(a, w)| i64::from(ap.quantize_i16(*a).0) * i64::from(wp.quantize_i8(*w).0))
            .sum();
        let got = acc as f32 * (2.0f32).powi(-(8 + 6));
        // Error bound: n terms × (half-step of act × max|w| + half-step of w × max|a|).
        let bound = acts.len() as f32 * (ap.step() / 2.0 + wp.step() / 2.0);
        assert!((got - exact).abs() <= bound, "got {got}, exact {exact}");
    }
}
