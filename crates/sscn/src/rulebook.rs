//! The **rulebook**: SparseConvNet's explicit matching data structure —
//! per kernel tap, the list of (input index, output index) pairs that
//! participate in the convolution.
//!
//! This is how library implementations on CPU/GPU execute Sub-Conv
//! (gather → per-tap GEMM → scatter), i.e. the software counterpart of
//! what ESCA's SDMU does in hardware. The baseline models cost their
//! execution in these terms; the flat kernels in [`crate::engine`]
//! execute a rulebook, and through [`crate::gemm::ScalarRef`] they
//! compute exactly the same function as the direct reference kernels.

use esca_tensor::{KernelOffsets, LineRuns, SparseTensor};
use serde::{Deserialize, Serialize};

/// One tap's gather/scatter list.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TapRules {
    /// Indices into the input's entry storage (gather side).
    pub input: Vec<u32>,
    /// Indices into the output's entry storage (scatter side). The output
    /// entry order equals the input's active-site order (submanifold).
    pub output: Vec<u32>,
}

impl TapRules {
    /// Number of (input, output) pairs for this tap.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Whether this tap participates in no computation.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }
}

/// A full rulebook for one layer: K³ tap rule lists over a fixed active
/// set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rulebook {
    k: u32,
    taps: Vec<TapRules>,
    sites: usize,
}

impl Rulebook {
    /// Builds the rulebook of a K×K×K submanifold convolution over
    /// `input`'s active set.
    ///
    /// Matching is hash-free, the way the SDMU walks z-lines (§III-C):
    /// the sites are grouped into per-(x, y) z-runs ([`LineRuns`]), and
    /// each line is matched against its K×K neighbouring lines by merging
    /// their sorted z-runs. Each tap's pairs are listed in the order of
    /// their output's storage position, with at most one pair per
    /// `(tap, output)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero.
    pub fn build<T: Copy>(input: &SparseTensor<T>, k: u32) -> Self {
        let offsets = KernelOffsets::new(k);
        let r = offsets.radius();
        let k = k as usize;
        let mut taps = vec![TapRules::default(); offsets.len()];
        let runs = LineRuns::new(input.coords());
        let (lines, zs, order) = (runs.lines(), runs.zs(), runs.order());
        // One cursor per (dx, dy) column: the neighbouring line at a fixed
        // offset only moves forward as the centre line advances in raster
        // order, so every column's search is a single forward sweep.
        let mut cursors = vec![0usize; k * k];
        for (centre, &(x, y)) in lines.iter().enumerate() {
            let outs = runs.line(centre);
            for (col, cursor) in cursors.iter_mut().enumerate() {
                let want = (x + (col / k) as i32 - r, y + (col % k) as i32 - r);
                while *cursor < lines.len() && lines[*cursor] < want {
                    *cursor += 1;
                }
                if lines.get(*cursor) != Some(&want) {
                    continue;
                }
                let nbr = runs.line(*cursor);
                let nbr_zs = &zs[nbr.clone()];
                let col_taps = &mut taps[col * k..(col + 1) * k];
                // Merge: `lo` is the first neighbour with z' >= z - r.
                let mut lo = 0;
                for out in outs.clone() {
                    let z = zs[out];
                    while lo < nbr_zs.len() && nbr_zs[lo] < z - r {
                        lo += 1;
                    }
                    for (j, &zn) in nbr_zs.iter().enumerate().skip(lo) {
                        if zn > z + r {
                            break;
                        }
                        let tap = &mut col_taps[(zn - z + r) as usize];
                        tap.input.push(order[nbr.start + j]);
                        tap.output.push(order[out]);
                    }
                }
            }
        }
        // Pairs were emitted in raster order of their output; restore
        // storage order when the two differ.
        if !runs.is_identity() {
            for t in &mut taps {
                let mut pairs: Vec<(u32, u32)> = t
                    .output
                    .iter()
                    .copied()
                    .zip(t.input.iter().copied())
                    .collect();
                pairs.sort_unstable();
                (t.output, t.input) = pairs.into_iter().unzip();
            }
        }
        Rulebook {
            k: offsets.k(),
            taps,
            sites: input.nnz(),
        }
    }

    /// Kernel size K.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Rules of tap `tap`.
    ///
    /// # Panics
    ///
    /// Panics if `tap >= K³`.
    pub fn tap(&self, tap: usize) -> &TapRules {
        &self.taps[tap]
    }

    /// Active sites the rulebook was built over.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Total matches across all taps (equals
    /// [`crate::ops::count_matches`]).
    pub fn total_matches(&self) -> u64 {
        self.taps.iter().map(|t| t.len() as u64).sum()
    }

    /// Heap footprint of the rule lists, in bytes: every (input, output)
    /// index pair costs two `u32`s, plus the per-tap `Vec` headers. This
    /// is the size the [`crate::engine::RulebookCache`] budget counts —
    /// the pair lists dominate a rulebook's memory, mirroring how the
    /// paper's SDMU sizes its on-chip rule storage by match count.
    pub fn heap_bytes(&self) -> usize {
        let pairs: usize = self.taps.iter().map(TapRules::len).sum();
        2 * std::mem::size_of::<u32>() * pairs + self.taps.len() * std::mem::size_of::<TapRules>()
    }

    /// The centre tap always maps every site to itself (identity rules).
    pub fn centre_tap_is_identity(&self) -> bool {
        let centre = self.taps.len() / 2;
        let t = &self.taps[centre];
        t.len() == self.sites && t.input.iter().zip(&t.output).all(|(i, o)| i == o)
    }

    /// Structural integrity check: whether this rulebook is a plausible
    /// matching for `sites` active sites under a K×K×K kernel. This is
    /// the guard the degradation policy runs before trusting a *cached*
    /// rulebook (the paper's artifact keeps match state in BRAM, where a
    /// single-event upset can silently mangle an index): tap count must
    /// equal K³, every tap's gather and scatter lists must pair up, every
    /// index must address a real site, and the centre tap must be the
    /// identity mapping every submanifold matching has. A corrupted index
    /// that stays in range and off the centre tap can still escape — the
    /// check models realistic (not perfect) detection coverage.
    pub fn verify_for_sites(&self, sites: usize, k: u32) -> bool {
        self.k == k
            && self.sites == sites
            && self.taps.len() == (k as usize).pow(3)
            && self.taps.iter().all(|t| {
                t.input.len() == t.output.len()
                    && t.input.iter().all(|&i| (i as usize) < sites)
                    && t.output.iter().all(|&o| (o as usize) < sites)
            })
            && self.centre_tap_is_identity()
    }

    /// Fault-model helper: a copy of this rulebook with one index bit
    /// flipped, the site chosen deterministically from `salt`. Models a
    /// single-event upset in the BRAM-resident match state; pair it with
    /// [`Rulebook::verify_for_sites`] to exercise the detect-and-fall-back
    /// path. A rulebook with no pairs is returned unchanged.
    pub fn corrupted_copy(&self, salt: u64) -> Rulebook {
        let mut out = self.clone();
        let total: u64 = out.taps.iter().map(|t| 2 * t.len() as u64).sum();
        if total == 0 {
            return out;
        }
        let mut pick = salt % total;
        let bit = ((salt >> 48) % 32) as u32;
        for t in &mut out.taps {
            let pairs = t.len() as u64;
            if pick < pairs {
                if let Some(i) = t.input.get_mut(pick as usize) {
                    *i ^= 1 << bit;
                }
                break;
            }
            pick -= pairs;
            if pick < pairs {
                if let Some(o) = t.output.get_mut(pick as usize) {
                    *o ^= 1 << bit;
                }
                break;
            }
            pick -= pairs;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::submanifold_conv3d;
    use crate::engine::{apply_rulebook_flat_q_with, apply_rulebook_flat_with, FlatScratch};
    use crate::error::SscnError;
    use crate::gemm::ScalarRef;
    use crate::weights::ConvWeights;
    use esca_tensor::{Coord3, Extent3};
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
    fn verify_accepts_built_books_and_catches_corruption() {
        let input = random_input(3, 10, 1, 35);
        let rb = Rulebook::build(&input, 3);
        assert!(rb.verify_for_sites(input.nnz(), 3));
        // Wrong kernel or site count: rejected.
        assert!(!rb.verify_for_sites(input.nnz(), 5));
        assert!(!rb.verify_for_sites(input.nnz() + 1, 3));
        // A high-bit flip drives an index out of range — always caught.
        let far = rb.corrupted_copy(u64::MAX);
        assert_ne!(far, rb);
        assert!(!far.verify_for_sites(input.nnz(), 3));
        // The corruption site is a pure function of the salt.
        assert_eq!(rb.corrupted_copy(1234), rb.corrupted_copy(1234));
        // Some low-bit flips stay in range and escape detection — the
        // model's coverage is deliberately imperfect. Just assert the
        // copy differs so the fault actually landed.
        let near = rb.corrupted_copy(7);
        assert_ne!(near, rb);
    }

    #[test]
    fn rulebook_matches_direct_convolution() {
        for seed in 0..4 {
            let input = random_input(seed, 10, 2, 40);
            let w = ConvWeights::seeded(3, 2, 5, seed + 50);
            let rb = Rulebook::build(&input, 3);
            let via_rb = apply_rulebook_flat_with(&input, &rb, &w, false, &ScalarRef).unwrap();
            let direct = submanifold_conv3d(&input, &w).unwrap();
            assert!(via_rb.max_abs_diff(&direct).unwrap() < 1e-4);
        }
    }

    #[test]
    fn total_matches_equals_ops_counter() {
        let input = random_input(9, 12, 1, 60);
        let rb = Rulebook::build(&input, 3);
        assert_eq!(rb.total_matches(), crate::ops::count_matches(&input, 3));
    }

    #[test]
    fn centre_tap_is_identity_permutation() {
        let input = random_input(2, 8, 1, 25);
        let rb = Rulebook::build(&input, 3);
        assert!(rb.centre_tap_is_identity());
        assert_eq!(rb.tap(13).len(), input.nnz());
    }

    #[test]
    fn mismatched_rulebook_rejected() {
        let a = random_input(1, 8, 1, 10);
        let b = random_input(2, 8, 1, 12);
        let rb = Rulebook::build(&a, 3);
        let w = ConvWeights::seeded(3, 1, 2, 1);
        assert!(matches!(
            apply_rulebook_flat_with(&b, &rb, &w, false, &ScalarRef),
            Err(SscnError::InvalidConfig { .. })
        ));
        let w5 = ConvWeights::seeded(5, 1, 2, 1);
        assert!(apply_rulebook_flat_with(&a, &rb, &w5, false, &ScalarRef).is_err());
    }

    #[test]
    fn empty_input_empty_rulebook() {
        let t = SparseTensor::<f32>::new(Extent3::cube(4), 1);
        let rb = Rulebook::build(&t, 3);
        assert_eq!(rb.total_matches(), 0);
        assert!(rb.tap(0).is_empty());
    }

    #[test]
    fn quantized_rulebook_equals_quantized_golden() {
        use crate::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
        for seed in 0..3 {
            let input = random_input(seed + 20, 10, 2, 40);
            let w = ConvWeights::seeded(3, 2, 5, seed + 60);
            let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
            let qin = quantize_tensor(&input, qw.quant().act);
            let rb = Rulebook::build(&qin, 3);
            for relu in [false, true] {
                let via_rb = apply_rulebook_flat_q_with(
                    &qin,
                    &rb,
                    &qw,
                    relu,
                    &mut FlatScratch::default(),
                    &ScalarRef,
                )
                .unwrap();
                let golden = submanifold_conv3d_q(&qin, &qw, relu).unwrap();
                assert!(via_rb.same_content(&golden), "seed {seed} relu {relu}");
            }
        }
    }

    #[test]
    fn quantized_rulebook_validates_inputs() {
        use crate::quant::{quantize_tensor, QuantizedWeights};
        let a = random_input(30, 8, 2, 10);
        let w = ConvWeights::seeded(3, 2, 2, 31);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let qa = quantize_tensor(&a, qw.quant().act);
        let b = random_input(32, 8, 2, 12);
        let qb = quantize_tensor(&b, qw.quant().act);
        let rb = Rulebook::build(&qa, 3);
        assert!(apply_rulebook_flat_q_with(
            &qb,
            &rb,
            &qw,
            false,
            &mut FlatScratch::default(),
            &ScalarRef
        )
        .is_err());
    }

    #[test]
    fn k5_rulebook_works() {
        let input = random_input(7, 10, 1, 30);
        let rb = Rulebook::build(&input, 5);
        let w = ConvWeights::seeded(5, 1, 3, 8);
        let via_rb = apply_rulebook_flat_with(&input, &rb, &w, false, &ScalarRef).unwrap();
        let direct = submanifold_conv3d(&input, &w).unwrap();
        assert!(via_rb.max_abs_diff(&direct).unwrap() < 1e-4);
    }
}
