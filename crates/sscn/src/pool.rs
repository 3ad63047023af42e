//! Sparse pooling layers: strided max pooling (active-set rules identical
//! to the strided convolution) and global pooling over the active set —
//! the reduction layers SSCN classification networks use on top of the
//! Sub-Conv feature extractor.

use esca_tensor::{Coord3, SparseTensor};
use std::collections::HashMap;

use crate::sparse_ops::downsampled_extent;

/// Strided sparse max pooling with window = stride = `kd`. A coarse site
/// is active iff any fine site in its block is active; its feature is the
/// per-channel maximum over the block's active sites.
pub fn sparse_max_pool(input: &SparseTensor<f32>, kd: u32) -> SparseTensor<f32> {
    assert!(kd > 0, "pool window must be nonzero");
    let kd_i = kd as i32;
    let coarse = downsampled_extent(input.extent(), kd);
    let ch = input.channels();
    // Flat accumulation (see `strided_conv3d`): contiguous sites×ch
    // matrix, coarse rows allocated in first-touch order.
    let mut rows: HashMap<Coord3, u32> = HashMap::new();
    let mut coarse_coords: Vec<Coord3> = Vec::new();
    let mut acc: Vec<f32> = Vec::new();
    for (c, f) in input.iter() {
        let q = Coord3::new(
            c.x.div_euclid(kd_i),
            c.y.div_euclid(kd_i),
            c.z.div_euclid(kd_i),
        );
        match rows.entry(q) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let row = *e.get() as usize;
                for (dst, &v) in acc[row * ch..(row + 1) * ch].iter_mut().zip(f) {
                    *dst = dst.max(v);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(coarse_coords.len() as u32);
                coarse_coords.push(q);
                acc.extend_from_slice(f);
            }
        }
    }
    let mut out = SparseTensor::from_coord_features(coarse, ch, coarse_coords, acc)
        .expect("coarse coords are in bounds and unique");
    out.canonicalize();
    out
}

/// Global average pooling over the active set: one feature vector per
/// tensor. Returns zeros for an empty tensor.
pub fn global_avg_pool(input: &SparseTensor<f32>) -> Vec<f32> {
    let ch = input.channels();
    let mut sum = vec![0.0f32; ch];
    if input.is_empty() {
        return sum;
    }
    for (_, f) in input.iter() {
        for (s, &v) in sum.iter_mut().zip(f) {
            *s += v;
        }
    }
    let n = input.nnz() as f32;
    sum.iter_mut().for_each(|s| *s /= n);
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::Extent3;

    fn input() -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(4), 2);
        t.insert(Coord3::new(0, 0, 0), &[1.0, -2.0]).unwrap();
        t.insert(Coord3::new(1, 1, 1), &[3.0, -4.0]).unwrap();
        t.insert(Coord3::new(2, 2, 2), &[5.0, -6.0]).unwrap();
        t
    }

    #[test]
    fn max_pool_takes_blockwise_max() {
        let out = sparse_max_pool(&input(), 2);
        assert_eq!(out.extent(), Extent3::cube(2));
        assert_eq!(out.nnz(), 2);
        // Block (0,0,0) holds two sites; max per channel.
        assert_eq!(out.feature(Coord3::new(0, 0, 0)), Some(&[3.0, -2.0][..]));
        assert_eq!(out.feature(Coord3::new(1, 1, 1)), Some(&[5.0, -6.0][..]));
    }

    #[test]
    fn max_pool_active_rule_matches_strided_conv() {
        let t = input();
        let pooled = sparse_max_pool(&t, 2);
        let w = crate::sparse_ops::StridedWeights::seeded(2, 2, 1, 1);
        let conv = crate::sparse_ops::strided_conv3d(&t, &w).unwrap();
        assert!(pooled.same_active_set(&conv));
    }

    #[test]
    fn global_avg_is_mean_over_active() {
        let avg = global_avg_pool(&input());
        assert!((avg[0] - 3.0).abs() < 1e-6);
        assert!((avg[1] - (-4.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_input_behaviour() {
        let t = SparseTensor::<f32>::new(Extent3::cube(4), 3);
        assert_eq!(global_avg_pool(&t), vec![0.0; 3]);
        assert!(sparse_max_pool(&t, 2).is_empty());
    }
}
