//! Normalization and voxelization of point clouds onto sparse voxel grids.
//!
//! The paper normalizes every sample to a 192×192×192 grid before feeding
//! it to the network (§IV-B). [`normalize_to_grid`] performs the isotropic
//! fit; [`voxelize`] / [`voxelize_occupancy`] produce the sparse tensor the
//! SSCN consumes.

use crate::cloud::PointCloud;
use esca_tensor::{Coord3, Extent3, SparseTensor};
use std::collections::HashMap;

/// Isotropically rescales and recentres a cloud so its bounding box fits a
/// cube of `target_voxels` centred in `grid`, preserving aspect ratio.
/// Returns the transformed copy; the input is untouched.
///
/// An empty cloud is returned unchanged. No library path calls this; it
/// stays for `crates/pointcloud/tests/proptests.rs`, which checks the fit.
pub fn normalize_to_grid(cloud: &PointCloud, grid: Extent3, target_voxels: f32) -> PointCloud {
    let Some(b) = cloud.bounds() else {
        return cloud.clone();
    };
    let scale = if b.max_side() > 0.0 {
        target_voxels / b.max_side()
    } else {
        1.0
    };
    let src_c = b.center();
    let dst_c = [
        grid.x as f32 / 2.0,
        grid.y as f32 / 2.0,
        grid.z as f32 / 2.0,
    ];
    let mut out = cloud.clone();
    for p in out.points_mut() {
        for a in 0..3 {
            p[a] = (p[a] - src_c[a]) * scale + dst_c[a];
        }
    }
    out
}

/// The voxel of `p` on `grid`, or `None` when `p` lies outside the grid or
/// has a non-finite coordinate (a NaN would otherwise cast to voxel 0).
fn voxel_of(p: [f32; 3], grid: Extent3) -> Option<Coord3> {
    if !p.iter().all(|v| v.is_finite()) {
        return None;
    }
    let c = Coord3::new(
        p[0].floor() as i32,
        p[1].floor() as i32,
        p[2].floor() as i32,
    );
    grid.contains(c).then_some(c)
}

/// Voxelizes a cloud onto `grid`, producing a sparse occupancy tensor
/// (single channel, value 1.0 at every occupied voxel). Points outside the
/// grid or with a non-finite coordinate are dropped. The result is in
/// canonical raster order.
pub fn voxelize_occupancy(cloud: &PointCloud, grid: Extent3) -> SparseTensor<f32> {
    let mut t = SparseTensor::new(grid, 1);
    for &p in cloud.points() {
        if let Some(c) = voxel_of(p, grid) {
            t.insert(c, &[1.0]).expect("voxel_of checked bounds");
        }
    }
    t.canonicalize();
    t
}

/// Voxelizes a cloud onto `grid`, averaging per-point features over each
/// voxel. Geometry-only clouds (zero feature channels) voxelize as
/// occupancy. Points outside the grid or with a non-finite coordinate are
/// dropped. The result is in canonical raster order.
pub fn voxelize(cloud: &PointCloud, grid: Extent3) -> SparseTensor<f32> {
    let ch = cloud.feature_channels();
    if ch == 0 {
        return voxelize_occupancy(cloud, grid);
    }
    // Accumulate sums and counts per voxel, then divide.
    let mut acc: HashMap<Coord3, (Vec<f32>, u32)> = HashMap::new();
    for (i, &p) in cloud.points().iter().enumerate() {
        let Some(c) = voxel_of(p, grid) else {
            continue;
        };
        let f = cloud.feature(i).expect("ch > 0 implies features");
        let e = acc.entry(c).or_insert_with(|| (vec![0.0; ch], 0));
        for (dst, src) in e.0.iter_mut().zip(f) {
            *dst += *src;
        }
        e.1 += 1;
    }
    let mut t = SparseTensor::new(grid, ch);
    for (c, (sum, n)) in acc {
        let mean: Vec<f32> = sum.iter().map(|v| v / n as f32).collect();
        t.insert(c, &mean).expect("keys were bounds-checked");
    }
    t.canonicalize();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_fits_target_cube() {
        let cloud: PointCloud = vec![[0.0, 0.0, 0.0], [10.0, 4.0, 2.0]]
            .into_iter()
            .collect();
        let grid = Extent3::cube(192);
        let n = normalize_to_grid(&cloud, grid, 32.0);
        let b = n.bounds().unwrap();
        assert!((b.max_side() - 32.0).abs() < 1e-3);
        let c = b.center();
        for v in c {
            assert!((v - 96.0).abs() < 1e-3);
        }
    }

    #[test]
    fn normalize_empty_cloud_is_noop() {
        let cloud = PointCloud::new();
        let out = normalize_to_grid(&cloud, Extent3::cube(8), 4.0);
        assert!(out.is_empty());
    }

    #[test]
    fn occupancy_voxelization_dedups() {
        let cloud: PointCloud = vec![[1.2, 1.3, 1.4], [1.9, 1.1, 1.0], [3.0, 3.0, 3.0]]
            .into_iter()
            .collect();
        let t = voxelize_occupancy(&cloud, Extent3::cube(8));
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.feature(Coord3::new(1, 1, 1)), Some(&[1.0][..]));
        assert_eq!(t.feature(Coord3::new(3, 3, 3)), Some(&[1.0][..]));
    }

    #[test]
    fn out_of_grid_points_dropped() {
        let cloud: PointCloud = vec![[-1.0, 0.0, 0.0], [100.0, 0.0, 0.0], [2.0, 2.0, 2.0]]
            .into_iter()
            .collect();
        let t = voxelize_occupancy(&cloud, Extent3::cube(4));
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn non_finite_points_dropped() {
        let cloud: PointCloud = vec![[f32::NAN, 1.0, 1.0]].into_iter().collect();
        assert_eq!(voxelize_occupancy(&cloud, Extent3::cube(4)).nnz(), 0);
        let mut feat = PointCloud::with_features(1);
        feat.push_with_features([1.0, f32::INFINITY, 1.0], &[2.0]);
        feat.push_with_features([1.0, 1.0, f32::NAN], &[3.0]);
        feat.push_with_features([2.0, 2.0, 2.0], &[4.0]);
        let t = voxelize(&feat, Extent3::cube(4));
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.feature(Coord3::new(2, 2, 2)), Some(&[4.0][..]));
    }

    #[test]
    fn feature_voxelization_averages() {
        let mut cloud = PointCloud::with_features(2);
        cloud.push_with_features([0.5, 0.5, 0.5], &[1.0, 0.0]);
        cloud.push_with_features([0.6, 0.4, 0.3], &[3.0, 2.0]);
        cloud.push_with_features([2.5, 2.5, 2.5], &[5.0, 5.0]);
        let t = voxelize(&cloud, Extent3::cube(4));
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.feature(Coord3::new(0, 0, 0)), Some(&[2.0, 1.0][..]));
        assert_eq!(t.feature(Coord3::new(2, 2, 2)), Some(&[5.0, 5.0][..]));
    }

    #[test]
    fn geometry_only_voxelize_falls_back_to_occupancy() {
        let cloud: PointCloud = vec![[1.0, 1.0, 1.0]].into_iter().collect();
        let t = voxelize(&cloud, Extent3::cube(4));
        assert_eq!(t.channels(), 1);
        assert_eq!(t.feature(Coord3::new(1, 1, 1)), Some(&[1.0][..]));
    }

    #[test]
    fn result_is_canonical_raster_order() {
        let cloud: PointCloud = vec![[3.0, 3.0, 3.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]
            .into_iter()
            .collect();
        let t = voxelize_occupancy(&cloud, Extent3::cube(4));
        let lin: Vec<usize> = t
            .coords()
            .iter()
            .map(|&c| t.extent().linear_unchecked(c))
            .collect();
        assert!(lin.windows(2).all(|w| w[0] < w[1]));
    }
}
