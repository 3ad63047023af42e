//! Reference convolution kernels: the submanifold sparse convolution
//! (Sub-Conv, Fig. 2(b)) and the traditional dense convolution
//! (Fig. 2(a)).
//!
//! These are straightforward, obviously-correct implementations; the
//! accelerator model and the baselines are all validated against them.

use crate::weights::ConvWeights;
use crate::Result;
use esca_tensor::{Coord3, Dense3, SparseTensor};
use std::collections::HashMap;

/// Submanifold sparse 3-D convolution (Graham et al. \[12\]).
///
/// Computation is restricted to sites where the *centre* activation is
/// nonzero, and within each such site's K×K×K receptive field only active
/// neighbors contribute. The output active set is the input active set
/// (shared, not copied) — sparsity does **not** dilate.
///
/// # Errors
///
/// Returns [`crate::SscnError::ChannelMismatch`] when the input channel count does
/// not match `weights`.
pub fn submanifold_conv3d(
    input: &SparseTensor<f32>,
    weights: &ConvWeights,
) -> Result<SparseTensor<f32>> {
    weights.check_input_channels(input.channels())?;
    let offsets = weights.offsets();
    let in_ch = weights.in_ch();
    let out_ch = weights.out_ch();
    let neighbour = site_rows(input);
    let mut out = Vec::with_capacity(input.nnz() * out_ch);
    let mut acc = vec![0.0f32; out_ch];
    for (centre, _) in input.iter() {
        acc.copy_from_slice(weights.bias());
        for (tap, &off) in offsets.offsets().iter().enumerate() {
            let q = centre + off;
            let Some(f) = neighbour(q) else { continue };
            for (ic, &a) in f.iter().enumerate().take(in_ch) {
                if a == 0.0 {
                    continue;
                }
                let ws = weights.oc_slice(tap, ic);
                for (dst, &w) in acc.iter_mut().zip(ws) {
                    *dst += a * w;
                }
            }
        }
        out.extend_from_slice(&acc);
    }
    Ok(SparseTensor::from_template(input, out_ch, out)?)
}

/// A coordinate → feature-row lookup over `input` that the calling kernel
/// owns and drops. [`SparseTensor::feature`] memoizes its index on the
/// shared active set instead, where it lives as long as the input does.
pub(crate) fn site_rows<'a, T: Copy>(
    input: &'a SparseTensor<T>,
) -> impl Fn(Coord3) -> Option<&'a [T]> + 'a {
    let rows: HashMap<Coord3, u32> = input
        .coords()
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    let ch = input.channels();
    move |c| {
        rows.get(&c)
            .map(|&i| &input.features()[i as usize * ch..(i as usize + 1) * ch])
    }
}

/// Traditional dense 3-D convolution with "same" zero padding — the
/// contrast case of Fig. 2(a): on sparse inputs the output support
/// *dilates* by the kernel radius around every active site.
///
/// # Errors
///
/// Returns [`crate::SscnError::ChannelMismatch`] when the input channel count does
/// not match `weights`.
pub fn dense_conv3d(input: &Dense3<f32>, weights: &ConvWeights) -> Result<Dense3<f32>> {
    weights.check_input_channels(input.channels())?;
    let offsets = weights.offsets();
    let out_ch = weights.out_ch();
    let mut out = Dense3::zeros(input.extent(), out_ch);
    let mut acc = vec![0.0f32; out_ch];
    for centre in input.extent().iter() {
        acc.copy_from_slice(weights.bias());
        for (tap, &off) in offsets.offsets().iter().enumerate() {
            let Some(f) = input.get_opt(centre + off) else {
                continue; // zero padding
            };
            for (ic, &a) in f.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let ws = weights.oc_slice(tap, ic);
                for (dst, &w) in acc.iter_mut().zip(ws) {
                    *dst += a * w;
                }
            }
        }
        out.set(centre, &acc).expect("iter yields in-bounds coords");
    }
    Ok(out)
}

/// The *match group* of one active centre: every `(tap, neighbor)` pair
/// that participates in its convolution, in kernel column order. The
/// accelerator's SDMU must discover exactly this set: no library path
/// calls it, and `crates/core/tests/sdmu_vs_rulebook.rs` uses it as the
/// per-centre match-count oracle.
pub fn match_group(input: &SparseTensor<f32>, k: u32, centre: Coord3) -> Vec<(usize, Coord3)> {
    let offsets = esca_tensor::KernelOffsets::new(k);
    offsets
        .offsets()
        .iter()
        .enumerate()
        .filter_map(|(tap, &off)| {
            let q = centre + off;
            input.contains(q).then_some((tap, q))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SscnError;
    use esca_tensor::Extent3;

    fn identity_weights(in_ch: usize) -> ConvWeights {
        // Centre-tap identity: out == in for matching channels.
        let mut w = ConvWeights::zeros(3, in_ch, in_ch);
        let centre_tap = 13;
        for c in 0..in_ch {
            w.set_w(centre_tap, c, c, 1.0);
        }
        w
    }

    fn two_point_input() -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(8), 2);
        t.insert(Coord3::new(2, 2, 2), &[1.0, -1.0]).unwrap();
        t.insert(Coord3::new(2, 2, 3), &[0.5, 2.0]).unwrap();
        t
    }

    #[test]
    fn submanifold_preserves_active_set() {
        let input = two_point_input();
        let w = ConvWeights::seeded(3, 2, 4, 7);
        let out = submanifold_conv3d(&input, &w).unwrap();
        assert!(out.same_active_set(&input));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let input = two_point_input();
        let out = submanifold_conv3d(&input, &identity_weights(2)).unwrap();
        assert!(out.same_content(&input));
    }

    #[test]
    fn neighbor_contributions_summed() {
        // Kernel with weight 1 on every tap, 1 channel: output at each site
        // = sum of active neighborhood values.
        let mut w = ConvWeights::zeros(3, 1, 1);
        for tap in 0..27 {
            w.set_w(tap, 0, 0, 1.0);
        }
        let mut input = SparseTensor::new(Extent3::cube(8), 1);
        input.insert(Coord3::new(4, 4, 4), &[1.0]).unwrap();
        input.insert(Coord3::new(4, 4, 5), &[10.0]).unwrap();
        input.insert(Coord3::new(4, 5, 4), &[100.0]).unwrap();
        // A far-away point that must not contribute.
        input.insert(Coord3::new(0, 0, 0), &[1000.0]).unwrap();
        let out = submanifold_conv3d(&input, &w).unwrap();
        assert_eq!(out.feature(Coord3::new(4, 4, 4)), Some(&[111.0][..]));
        assert_eq!(out.feature(Coord3::new(4, 4, 5)), Some(&[111.0][..]));
        assert_eq!(out.feature(Coord3::new(0, 0, 0)), Some(&[1000.0][..]));
    }

    #[test]
    fn bias_is_applied_at_active_sites_only() {
        let mut w = identity_weights(1);
        w.bias_mut()[0] = 5.0;
        let mut input = SparseTensor::new(Extent3::cube(4), 1);
        input.insert(Coord3::new(1, 1, 1), &[2.0]).unwrap();
        let out = submanifold_conv3d(&input, &w).unwrap();
        assert_eq!(out.nnz(), 1);
        assert_eq!(out.feature(Coord3::new(1, 1, 1)), Some(&[7.0][..]));
    }

    #[test]
    fn dense_conv_dilates_sparsity() {
        // Fig. 2's contrast: one active site => traditional conv lights up
        // the whole 3³ neighborhood, Sub-Conv keeps a single site.
        let mut w = ConvWeights::zeros(3, 1, 1);
        for tap in 0..27 {
            w.set_w(tap, 0, 0, 1.0);
        }
        let mut sparse = SparseTensor::new(Extent3::cube(8), 1);
        sparse.insert(Coord3::new(4, 4, 4), &[1.0]).unwrap();

        let dense_out = dense_conv3d(&sparse.to_dense(), &w).unwrap();
        assert_eq!(dense_out.nonzero_sites(), 27);

        let sub_out = submanifold_conv3d(&sparse, &w).unwrap();
        assert_eq!(sub_out.nnz(), 1);
    }

    #[test]
    fn dense_and_submanifold_agree_on_fully_dense_interior() {
        // On an all-active input, Sub-Conv == traditional conv at interior
        // sites (where no padding is involved).
        let e = Extent3::cube(5);
        let mut d = Dense3::<f32>::zeros(e, 2);
        for (i, c) in e.iter().enumerate() {
            d.set(c, &[(i % 7) as f32 + 1.0, (i % 3) as f32 - 1.5])
                .unwrap();
        }
        let sparse = SparseTensor::from_dense(&d);
        let w = ConvWeights::seeded(3, 2, 3, 11);
        let dense_out = dense_conv3d(&d, &w).unwrap();
        let sub_out = submanifold_conv3d(&sparse, &w).unwrap();
        for x in 1..4 {
            for y in 1..4 {
                for z in 1..4 {
                    let c = Coord3::new(x, y, z);
                    let a = dense_out.get(c).unwrap();
                    let b = sub_out.feature(c).unwrap();
                    for (u, v) in a.iter().zip(b) {
                        assert!((u - v).abs() < 1e-4, "mismatch at {c}: {u} vs {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn channel_mismatch_rejected() {
        let input = two_point_input();
        let w = ConvWeights::zeros(3, 3, 4);
        assert!(matches!(
            submanifold_conv3d(&input, &w),
            Err(SscnError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn match_group_is_restricted_to_active_neighbors() {
        let input = two_point_input();
        let mg = match_group(&input, 3, Coord3::new(2, 2, 2));
        // Both sites are within each other's kernel: centre + z+1 neighbor.
        assert_eq!(mg.len(), 2);
        assert!(mg.iter().any(|&(_, q)| q == Coord3::new(2, 2, 2)));
        assert!(mg.iter().any(|&(_, q)| q == Coord3::new(2, 2, 3)));
    }

    #[test]
    fn boundary_sites_read_zero_halo() {
        let mut w = ConvWeights::zeros(3, 1, 1);
        for tap in 0..27 {
            w.set_w(tap, 0, 0, 1.0);
        }
        let mut input = SparseTensor::new(Extent3::cube(4), 1);
        input.insert(Coord3::new(0, 0, 0), &[3.0]).unwrap();
        let out = submanifold_conv3d(&input, &w).unwrap();
        assert_eq!(out.feature(Coord3::new(0, 0, 0)), Some(&[3.0][..]));
    }
}
