//! Pluggable per-tap GEMM backends for the flat matching-reuse engine.
//!
//! [`crate::engine::apply_rulebook_flat_with`] factors a submanifold Sub-Conv
//! layer into gather → **per-tap dense GEMM** → scatter. The sparse
//! mapping half (rulebooks, the SDMU's job in hardware) is fixed; the
//! dense half is exactly the part an implementation is free to trade
//! exactness against throughput on — PointAcc makes the same split
//! explicit by feeding its mapping units into a conventional dense array.
//! This module is that seam: a [`GemmBackend`] receives one tap's rule
//! list plus the layer's contiguous weight panel and accumulates
//! `acc[o] += feats[i] × W_tap` for every `(i, o)` rule pair.
//!
//! Two backends ship today, in two **exactness tiers**:
//!
//! * [`ScalarRef`] — the reference loop. Replays the direct kernels'
//!   per-output-element accumulation order exactly, so the flat engine
//!   stays provably **bit-identical** to
//!   [`crate::conv::submanifold_conv3d`] / the `_q` golden kernel.
//! * [`Blocked`] — a cache-blocked, hand-unrolled microkernel (4-row ×
//!   16-lane f32 register tiles updated by fused multiply-add; i16×16
//!   tiles with i32 inner accumulation on the quantized path). The f32
//!   variant **reassociates** float additions and fuses each multiply into
//!   its add, so it is *epsilon-bounded* against [`ScalarRef`], not
//!   bit-identical — but still a pure function
//!   of the input, byte-stable across runs, worker counts and shard
//!   splits. Each output element gets the same arithmetic wherever its
//!   rule pair falls in the tap's list, so a tap may be cut into any
//!   number of calls over disjoint output rows without changing a bit
//!   (the engine's row split relies on it). The quantized variant stays
//!   **bit-exact**: integer addition is associative and the accumulator
//!   never overflows (see [`Blocked::tap_q`]).
//!
//! The trait is object-safe and backends are stateless statics, so a
//! future offload backend (a GPU gather→GEMM→scatter pipeline staged
//! through device buffers) can slot in behind the same two methods plus
//! [`GemmBackendKind`]'s selection plumbing without touching the engine.
//!
//! Selection: [`GemmBackendKind`] (default [`Blocked`]), overridable per
//! process via the `ESCA_GEMM_BACKEND` environment variable and per
//! engine via [`crate::engine::FlatEngine::with_backend`]. The backend's
//! [`label`](GemmBackend::label) tags the engine's GEMM telemetry
//! counters so traces record which tier produced the numbers.

use crate::rulebook::TapRules;
use esca_tensor::{Q16, Q8};
use std::fmt;
use std::str::FromStr;

/// Output-channel tile width of the f32 microkernel: sixteen lanes is two
/// AVX registers (the workspace pins x86-64-v3 codegen on Linux, see
/// `.cargo/config.toml`), and every U-Net layer width is a multiple of
/// sixteen, so the full-tile path covers the whole hot loop.
const F32_LANES: usize = 16;

/// Rule rows processed together by the f32 microkernel: a 4×16 register
/// tile amortizes each weight-panel load over four activation rows and
/// runs four independent accumulation chains per lane group — 64
/// accumulators, eight AVX registers, no spill at the pinned codegen
/// level.
const F32_ROWS: usize = 4;

/// Output-channel tile width of the quantized microkernel: sixteen i32
/// accumulator lanes, matching one full i16×16 multiply group.
const Q_LANES: usize = 16;

/// Largest input-channel count for which the quantized microkernel may
/// accumulate in i32: `|Q16 × Q8| ≤ 2¹⁵·2⁷ = 2²²`, so a sum of up to 256
/// products stays below `2³⁰ < i32::MAX` — the narrower accumulator is
/// exact, not approximate.
const Q_I32_MAX_IN_CH: usize = 256;

/// One tap's dense multiply-accumulate over a rulebook's `(input, output)`
/// pairs.
///
/// For every rule pair `(i, o)` of `rules`, an implementation must
/// accumulate `acc[o·out_ch + oc] += feats[i·in_ch + ic] · w_tap[ic·out_ch
/// + oc]` over all `(ic, oc)` — the per-tap GEMM of the flat engine, with
/// `w_tap` the tap's contiguous `in_ch × out_ch` row-major weight panel
/// ([`crate::weights::ConvWeights::tap_slice`]).
///
/// Contract: the result must be a pure function of the arguments (no
/// wall-clock, no ambient randomness, no iteration-order dependence), and
/// byte-stable across runs — the determinism contract (DESIGN.md §7)
/// extends to every backend, even epsilon-tier ones. A submanifold
/// rulebook holds at most one pair per `(tap, output)`, so implementations
/// may assume output rows are touched once per call.
pub trait GemmBackend: fmt::Debug + Send + Sync {
    /// Stable identity of this backend, used as the `backend` label on
    /// the engine's GEMM telemetry counters.
    fn label(&self) -> &'static str;

    /// Float per-tap GEMM: accumulates into the bias-initialized `acc`.
    fn tap_f32(
        &self,
        feats: &[f32],
        rules: &TapRules,
        w_tap: &[f32],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [f32],
    );

    /// Quantized per-tap GEMM: i64 accumulation semantics (every backend
    /// must produce bit-identical i64 sums; integer addition is
    /// associative, so blocking cannot change the result).
    fn tap_q(
        &self,
        feats: &[Q16],
        rules: &TapRules,
        w_tap: &[Q8],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [i64],
    );
}

/// The reference backend: the exact loop the direct kernels run, kept as
/// the **bit-exact tier**. Per rule pair it walks input channels in order,
/// skips zero activations (mirroring the direct kernels' sparse broadcast)
/// and accumulates straight into the output row — so every output element
/// sees additions in exactly the order
/// [`crate::conv::submanifold_conv3d`] produces them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarRef;

impl GemmBackend for ScalarRef {
    fn label(&self) -> &'static str {
        "scalar-ref"
    }

    fn tap_f32(
        &self,
        feats: &[f32],
        rules: &TapRules,
        w_tap: &[f32],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [f32],
    ) {
        for (&i, &o) in rules.input.iter().zip(&rules.output) {
            let row = &feats[i as usize * in_ch..(i as usize + 1) * in_ch];
            let dst = &mut acc[o as usize * out_ch..(o as usize + 1) * out_ch];
            for (ic, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (d, &w) in dst.iter_mut().zip(&w_tap[ic * out_ch..(ic + 1) * out_ch]) {
                    *d += a * w;
                }
            }
        }
    }

    fn tap_q(
        &self,
        feats: &[Q16],
        rules: &TapRules,
        w_tap: &[Q8],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [i64],
    ) {
        for (&i, &o) in rules.input.iter().zip(&rules.output) {
            let row = &feats[i as usize * in_ch..(i as usize + 1) * in_ch];
            let dst = &mut acc[o as usize * out_ch..(o as usize + 1) * out_ch];
            for (ic, &a) in row.iter().enumerate() {
                if a.0 == 0 {
                    continue;
                }
                for (d, &w) in dst.iter_mut().zip(&w_tap[ic * out_ch..(ic + 1) * out_ch]) {
                    *d += a.0 as i64 * w.0 as i64;
                }
            }
        }
    }
}

/// The cache-blocked microkernel backend — the **throughput tier**.
///
/// Output channels are tiled sixteen wide (f32 and quantized alike) and
/// rule rows four deep, so each 4×16 tile lives in registers for the
/// whole input-channel loop and every weight load is reused across four
/// activation rows. Everything is safe, branch-light Rust shaped for
/// the autovectorizer — no intrinsics, no `unsafe`, portable-Rust
/// friendly.
///
/// Exactness: the f32 path reassociates additions (register tiles sum
/// partial products before meeting the bias-initialized accumulator),
/// fuses each multiply into its addition (`f32::mul_add`, one rounding;
/// hardware FMA at the pinned codegen level, correctly rounded everywhere)
/// and does **not** skip zero activations, so it is epsilon-bounded
/// against [`ScalarRef`] rather than bit-identical. Its per-element arithmetic
/// does not depend on how a tap's rules are grouped into calls, so a tap
/// split at any rule gives the same bits as one call. The quantized path
/// is bit-exact — see [`Blocked::tap_q`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

impl Blocked {
    /// `R` rule pairs' f32 MACs over every output channel: the R×16
    /// register tile at the heart of the throughput tier (`R` is
    /// [`F32_ROWS`], or a tap's last `len % 4` pairs). Each weight
    /// row is loaded once and broadcast against `R` activation rows, so
    /// the kernel runs `R` independent accumulation chains per lane group.
    ///
    /// Every output element gets the same arithmetic whatever `R` is: a
    /// fused multiply-add chain over input channels in order, starting
    /// from zero, then one addition into the accumulator. So a tap's result does not
    /// depend on how its rules are grouped into calls, which is what lets
    /// the engine split a layer's rows across threads byte for byte.
    #[inline]
    fn f32_rows<const R: usize>(
        feats: &[f32],
        inputs: &[u32],
        outputs: &[u32],
        w_tap: &[f32],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [f32],
    ) {
        let rows: [&[f32]; R] = core::array::from_fn(|r| {
            let i = inputs[r] as usize;
            &feats[i * in_ch..(i + 1) * in_ch]
        });
        let full = out_ch - out_ch % F32_LANES;
        let mut oc0 = 0;
        while oc0 < full {
            let mut tiles = [[0.0f32; F32_LANES]; R];
            for ic in 0..in_ch {
                let w = &w_tap[ic * out_ch + oc0..ic * out_ch + oc0 + F32_LANES];
                for r in 0..R {
                    let a = rows[r][ic];
                    for j in 0..F32_LANES {
                        tiles[r][j] = a.mul_add(w[j], tiles[r][j]);
                    }
                }
            }
            for r in 0..R {
                let o = outputs[r] as usize;
                let d = &mut acc[o * out_ch + oc0..o * out_ch + oc0 + F32_LANES];
                for j in 0..F32_LANES {
                    d[j] += tiles[r][j];
                }
            }
            oc0 += F32_LANES;
        }
        if oc0 < out_ch {
            for r in 0..R {
                let o = outputs[r] as usize;
                let dst = &mut acc[o * out_ch..(o + 1) * out_ch];
                Blocked::f32_tail(rows[r], w_tap, out_ch, oc0, dst);
            }
        }
    }

    /// One rule pair's f32 MACs over the sub-tile remainder columns.
    #[inline]
    fn f32_tail(row: &[f32], w_tap: &[f32], out_ch: usize, oc0: usize, dst: &mut [f32]) {
        for (off, d) in dst[oc0..].iter_mut().enumerate() {
            let mut s = 0.0f32;
            for (ic, &a) in row.iter().enumerate() {
                s = a.mul_add(w_tap[ic * out_ch + oc0 + off], s);
            }
            *d += s;
        }
    }

    /// One rule pair's quantized MACs over a full 16-wide tile, i32 inner
    /// accumulation (exact for `in_ch ≤` [`Q_I32_MAX_IN_CH`]).
    #[inline]
    fn q_tile_i32(row: &[Q16], w_tap: &[Q8], out_ch: usize, oc0: usize, dst: &mut [i64]) {
        let mut c = [0i32; Q_LANES];
        for (ic, &a) in row.iter().enumerate() {
            let a = i32::from(a.0);
            let w = &w_tap[ic * out_ch + oc0..ic * out_ch + oc0 + Q_LANES];
            for j in 0..Q_LANES {
                c[j] += a * i32::from(w[j].0);
            }
        }
        let d = &mut dst[oc0..oc0 + Q_LANES];
        for j in 0..Q_LANES {
            d[j] += i64::from(c[j]);
        }
    }

    /// One rule pair's quantized MACs over a full 16-wide tile, i64 lanes
    /// (the wide-`in_ch` guard path).
    #[inline]
    fn q_tile_i64(row: &[Q16], w_tap: &[Q8], out_ch: usize, oc0: usize, dst: &mut [i64]) {
        let mut c = [0i64; Q_LANES];
        for (ic, &a) in row.iter().enumerate() {
            let a = i64::from(a.0);
            let w = &w_tap[ic * out_ch + oc0..ic * out_ch + oc0 + Q_LANES];
            for j in 0..Q_LANES {
                c[j] += a * i64::from(w[j].0);
            }
        }
        let d = &mut dst[oc0..oc0 + Q_LANES];
        for j in 0..Q_LANES {
            d[j] += c[j];
        }
    }

    /// One rule pair's quantized MACs over the sub-tile remainder columns.
    #[inline]
    fn q_tail(row: &[Q16], w_tap: &[Q8], out_ch: usize, oc0: usize, dst: &mut [i64]) {
        for (off, d) in dst[oc0..].iter_mut().enumerate() {
            let mut s = 0i64;
            for (ic, &a) in row.iter().enumerate() {
                s += i64::from(a.0) * i64::from(w_tap[ic * out_ch + oc0 + off].0);
            }
            *d += s;
        }
    }
}

impl GemmBackend for Blocked {
    fn label(&self) -> &'static str {
        "blocked"
    }

    fn tap_f32(
        &self,
        feats: &[f32],
        rules: &TapRules,
        w_tap: &[f32],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [f32],
    ) {
        let mut in_blocks = rules.input.chunks_exact(F32_ROWS);
        let mut out_blocks = rules.output.chunks_exact(F32_ROWS);
        for (inputs, outputs) in (&mut in_blocks).zip(&mut out_blocks) {
            Blocked::f32_rows::<F32_ROWS>(feats, inputs, outputs, w_tap, in_ch, out_ch, acc);
        }
        let (i, o) = (in_blocks.remainder(), out_blocks.remainder());
        match i.len() {
            1 => Blocked::f32_rows::<1>(feats, i, o, w_tap, in_ch, out_ch, acc),
            2 => Blocked::f32_rows::<2>(feats, i, o, w_tap, in_ch, out_ch, acc),
            3 => Blocked::f32_rows::<3>(feats, i, o, w_tap, in_ch, out_ch, acc),
            _ => {}
        }
    }

    /// Bit-exact despite the blocking: integer addition is associative,
    /// products are bounded (`|Q16 × Q8| ≤ 2²²`) and the i32 inner
    /// accumulator is only used while `in_ch ≤ 256` keeps the running sum
    /// below `2³⁰`, so no intermediate ever wraps and the final i64 sums
    /// equal [`ScalarRef`]'s exactly.
    fn tap_q(
        &self,
        feats: &[Q16],
        rules: &TapRules,
        w_tap: &[Q8],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [i64],
    ) {
        let narrow = in_ch <= Q_I32_MAX_IN_CH;
        let full = out_ch - out_ch % Q_LANES;
        for (&i, &o) in rules.input.iter().zip(&rules.output) {
            let row = &feats[i as usize * in_ch..(i as usize + 1) * in_ch];
            let dst = &mut acc[o as usize * out_ch..(o as usize + 1) * out_ch];
            let mut oc0 = 0;
            while oc0 < full {
                if narrow {
                    Blocked::q_tile_i32(row, w_tap, out_ch, oc0, dst);
                } else {
                    Blocked::q_tile_i64(row, w_tap, out_ch, oc0, dst);
                }
                oc0 += Q_LANES;
            }
            if oc0 < out_ch {
                Blocked::q_tail(row, w_tap, out_ch, oc0, dst);
            }
        }
    }
}

static SCALAR_REF: ScalarRef = ScalarRef;
static BLOCKED: Blocked = Blocked;

/// Name of the environment variable that overrides the default backend
/// for every [`crate::engine::FlatEngine`] built without an explicit kind
/// (`scalar` / `blocked`; unset or unrecognized falls back to the
/// default). This is how CI runs the whole suite under each backend.
pub const GEMM_BACKEND_ENV: &str = "ESCA_GEMM_BACKEND";

/// Selector for the shipped [`GemmBackend`] implementations — the value
/// that flows through engine constructors, session builders and the
/// `--gemm-backend` CLI flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GemmBackendKind {
    /// The bit-exact reference tier ([`ScalarRef`]).
    ScalarRef,
    /// The blocked throughput tier ([`Blocked`]) — the default.
    #[default]
    Blocked,
}

impl GemmBackendKind {
    /// Every shipped backend, for parameterized tests and sweeps.
    pub const ALL: [GemmBackendKind; 2] = [GemmBackendKind::ScalarRef, GemmBackendKind::Blocked];

    /// The backend instance this kind selects.
    pub fn backend(self) -> &'static dyn GemmBackend {
        match self {
            GemmBackendKind::ScalarRef => &SCALAR_REF,
            GemmBackendKind::Blocked => &BLOCKED,
        }
    }

    /// The backend's telemetry label (same as `self.backend().label()`).
    pub fn label(self) -> &'static str {
        self.backend().label()
    }

    /// Resolves the process-wide default: [`GEMM_BACKEND_ENV`] when set to
    /// a recognized name, the [`Default`] kind otherwise. Unrecognized
    /// values fall back to the default rather than failing — library code
    /// must not panic on ambient environment state; the CLI flag is the
    /// strict parse.
    pub fn from_env() -> Self {
        std::env::var(GEMM_BACKEND_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_default()
    }
}

impl fmt::Display for GemmBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error for an unrecognized backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGemmBackendError(String);

impl fmt::Display for ParseGemmBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown gemm backend {:?} (expected \"scalar\" or \"blocked\")",
            self.0
        )
    }
}

impl std::error::Error for ParseGemmBackendError {}

impl FromStr for GemmBackendKind {
    type Err = ParseGemmBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" | "scalar-ref" | "scalarref" | "ref" => Ok(GemmBackendKind::ScalarRef),
            "blocked" | "simd" => Ok(GemmBackendKind::Blocked),
            _ => Err(ParseGemmBackendError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(pairs: &[(u32, u32)]) -> TapRules {
        TapRules {
            input: pairs.iter().map(|&(i, _)| i).collect(),
            output: pairs.iter().map(|&(_, o)| o).collect(),
        }
    }

    /// Deterministic pseudo-random f32 features without an RNG dep here.
    fn lcg_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 2048) as f32 / 1024.0
            })
            .collect()
    }

    #[test]
    fn kinds_parse_display_and_select() {
        assert_eq!("scalar".parse(), Ok(GemmBackendKind::ScalarRef));
        assert_eq!("Scalar-Ref".parse(), Ok(GemmBackendKind::ScalarRef));
        assert_eq!("blocked".parse(), Ok(GemmBackendKind::Blocked));
        assert_eq!("simd".parse(), Ok(GemmBackendKind::Blocked));
        assert!("fpga".parse::<GemmBackendKind>().is_err());
        assert_eq!(GemmBackendKind::default(), GemmBackendKind::Blocked);
        assert_eq!(GemmBackendKind::ScalarRef.to_string(), "scalar-ref");
        assert_eq!(GemmBackendKind::Blocked.label(), "blocked");
        for kind in GemmBackendKind::ALL {
            assert_eq!(kind.backend().label(), kind.label());
        }
    }

    #[test]
    fn blocked_matches_scalar_on_f32_within_epsilon() {
        // Shapes straddling the 8-lane tile: remainders 1..7, K=1, wide.
        for &(in_ch, out_ch) in &[(1usize, 1usize), (3, 7), (4, 8), (5, 9), (16, 24), (2, 15)] {
            let n_in = 6;
            let n_out = 4;
            let feats = lcg_f32(n_in * in_ch, in_ch as u64 * 31 + out_ch as u64);
            let w_tap = lcg_f32(in_ch * out_ch, out_ch as u64 * 17 + 3);
            let r = rules(&[(0, 0), (2, 1), (5, 3), (1, 0)]);
            let mut a = vec![0.5f32; n_out * out_ch];
            let mut b = a.clone();
            ScalarRef.tap_f32(&feats, &r, &w_tap, in_ch, out_ch, &mut a);
            Blocked.tap_f32(&feats, &r, &w_tap, in_ch, out_ch, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "({in_ch},{out_ch}): {x} vs {y}"
                );
            }
        }
    }

    /// A tap's rules cut at any position and run as two calls, the second
    /// rebased onto its own accumulator rows, give the bits of one call:
    /// the engine's row split depends on it for every remainder `len % 4`
    /// and for tail output channels (24 = one full tile plus eight).
    #[test]
    fn split_tap_is_bit_identical_to_one_call() {
        let n = 11;
        for out_ch in [16usize, 24, 48] {
            for in_ch in [1usize, 16, 33] {
                let feats = lcg_f32(n * in_ch, in_ch as u64 * 7 + out_ch as u64);
                let w_tap = lcg_f32(in_ch * out_ch, out_ch as u64 * 13 + 5);
                // Outputs ascending (storage order), one pair per output.
                let pairs: Vec<(u32, u32)> = (0..n as u32)
                    .filter(|o| o % 5 != 3)
                    .map(|o| ((o * 7 + 3) % n as u32, o))
                    .collect();
                let whole = rules(&pairs);
                let bias = lcg_f32(n * out_ch, 99);
                for kind in GemmBackendKind::ALL {
                    let backend = kind.backend();
                    let mut want = bias.clone();
                    backend.tap_f32(&feats, &whole, &w_tap, in_ch, out_ch, &mut want);
                    for cut in 0..=pairs.len() {
                        let base = pairs.get(cut).map_or(n, |&(_, o)| o as usize);
                        let (head, tail) = pairs.split_at(cut);
                        let rebased: Vec<(u32, u32)> =
                            tail.iter().map(|&(i, o)| (i, o - base as u32)).collect();
                        let mut got = bias.clone();
                        let (lo, hi) = got.split_at_mut(base * out_ch);
                        backend.tap_f32(&feats, &rules(head), &w_tap, in_ch, out_ch, lo);
                        backend.tap_f32(&feats, &rules(&rebased), &w_tap, in_ch, out_ch, hi);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{kind} ({in_ch},{out_ch}) cut {cut}"
                        );
                    }
                }
            }
        }
    }

    /// Pins the Blocked f32 arithmetic: per output element, a fused
    /// multiply-add chain over input channels in order starting from zero,
    /// then one addition into the accumulator. Call lengths 1..=8 run every
    /// register-tile depth R = 1..=4, as a whole tile and as a remainder;
    /// `out_ch` 24 runs the tail columns.
    #[test]
    fn blocked_f32_is_a_fused_chain_per_element() {
        for out_ch in [16usize, 24] {
            for in_ch in [1usize, 16, 33] {
                let n = 9;
                // Thirds fill the mantissa, so a product rounds (a fused
                // chain differs from a multiply then an add); every
                // seventh value is an exact zero of either sign.
                let mut feats = lcg_f32(n * in_ch, in_ch as u64 * 3 + out_ch as u64);
                for (k, v) in feats.iter_mut().enumerate() {
                    *v = match k % 7 {
                        2 => 0.0,
                        5 => -0.0,
                        _ => *v / 3.0,
                    };
                }
                let w_tap: Vec<f32> = lcg_f32(in_ch * out_ch, out_ch as u64 * 11 + 1)
                    .iter()
                    .map(|v| v / 3.0)
                    .collect();
                let bias = lcg_f32(n * out_ch, 7);
                for len in 1..=8u32 {
                    let pairs: Vec<(u32, u32)> =
                        (0..len).map(|o| ((o * 5 + 2) % n as u32, o)).collect();
                    let mut want = bias.clone();
                    for &(i, o) in &pairs {
                        let row = &feats[i as usize * in_ch..][..in_ch];
                        for oc in 0..out_ch {
                            let s = row
                                .iter()
                                .enumerate()
                                .fold(0.0f32, |s, (ic, &a)| a.mul_add(w_tap[ic * out_ch + oc], s));
                            want[o as usize * out_ch + oc] += s;
                        }
                    }
                    let mut got = bias.clone();
                    Blocked.tap_f32(&feats, &rules(&pairs), &w_tap, in_ch, out_ch, &mut got);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "({in_ch},{out_ch}) {len} pairs");
                }
            }
        }
    }

    #[test]
    fn blocked_q_is_bit_exact_across_accumulator_widths() {
        // in_ch 300 > 256 exercises the i64-lane guard path.
        for &(in_ch, out_ch) in &[(1usize, 16usize), (7, 17), (256, 16), (300, 33)] {
            let n = 3;
            let feats: Vec<Q16> = (0..n * in_ch)
                .map(|i| Q16((i as i32 * 2731 % 65536 - 32768) as i16))
                .collect();
            let w_tap: Vec<Q8> = (0..in_ch * out_ch)
                .map(|i| Q8((i as i32 * 37 % 256 - 128) as i8))
                .collect();
            let r = rules(&[(0, 1), (2, 0), (1, 2)]);
            let mut a = vec![7i64; n * out_ch];
            let mut b = a.clone();
            ScalarRef.tap_q(&feats, &r, &w_tap, in_ch, out_ch, &mut a);
            Blocked.tap_q(&feats, &r, &w_tap, in_ch, out_ch, &mut b);
            assert_eq!(a, b, "quantized path diverged at ({in_ch},{out_ch})");
        }
    }

    #[test]
    fn empty_rules_are_a_no_op() {
        let r = rules(&[]);
        let mut a = vec![1.0f32; 8];
        let mut q = vec![9i64; 8];
        for kind in GemmBackendKind::ALL {
            kind.backend().tap_f32(&[], &r, &[0.0; 8], 1, 8, &mut a);
            kind.backend().tap_q(&[], &r, &[Q8(1); 8], 1, 8, &mut q);
        }
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(q.iter().all(|&v| v == 9));
    }
}
