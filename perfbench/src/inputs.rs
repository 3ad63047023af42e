//! Seeded input generation: one ShapeNet-like object rotating about the
//! grid centre, voxelized per frame.
//!
//! The object class is fixed (a table) so that the seed changes the
//! sampled surface points and the starting angle but not the kind of
//! object: per-frame work then stays nearly the same across seeds, which
//! the run-to-run spread of every timing depends on.

use esca_bench::workloads::GRID_SIDE;
use esca_pointcloud::synthetic::{self, ObjectClass, ShapeNetConfig};
use esca_pointcloud::{transform, voxelize, PointCloud};
use esca_tensor::{Extent3, SparseTensor};
use std::time::Instant;

/// Rotation between consecutive frames, radians (the repository's
/// streaming workload uses the same step).
const STEP_RAD: f32 = 0.1;

/// A rotating-object frame stream on a `grid`³ grid.
pub struct RotatingObject {
    cloud: PointCloud,
    grid: u32,
    phase: f32,
}

impl RotatingObject {
    pub fn new(seed: u64, grid: u32) -> Self {
        let cfg = ShapeNetConfig {
            class: Some(ObjectClass::Table),
            ..ShapeNetConfig::default()
        };
        let cloud = synthetic::shapenet_like(seed, &cfg);
        // Clouds are generated for the paper's 192³ grid and scaled down
        // for smaller ones, as the repository's streaming workload does.
        let cloud = if grid == GRID_SIDE {
            cloud
        } else {
            transform::scale(&cloud, grid as f32 / GRID_SIDE as f32, [0.0; 3])
        };
        let phase = (seed % 628) as f32 * 0.01;
        RotatingObject { cloud, grid, phase }
    }

    /// Voxelizes frames `0..n`, appending each voxelization's host time
    /// (ms) to `voxelize_ms`.
    pub fn frames(&self, n: usize, voxelize_ms: &mut Vec<f64>) -> Vec<SparseTensor<f32>> {
        let c = self.grid as f32 / 2.0;
        (0..n)
            .map(|i| {
                let rotated =
                    transform::rotate_z(&self.cloud, self.phase + STEP_RAD * i as f32, [c, c, c]);
                let t = Instant::now();
                let v = voxelize::voxelize_occupancy(&rotated, Extent3::cube(self.grid));
                voxelize_ms.push(t.elapsed().as_secs_f64() * 1e3);
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_repeat_per_seed_and_move_per_frame() {
        let mut ms = Vec::new();
        let a = RotatingObject::new(5, 48).frames(2, &mut ms);
        let b = RotatingObject::new(5, 48).frames(2, &mut ms);
        assert_eq!(ms.len(), 4);
        assert_eq!(a[0].coords(), b[0].coords());
        assert_ne!(a[0].coords(), a[1].coords());
        let c = RotatingObject::new(6, 48).frames(1, &mut ms);
        assert_ne!(a[0].coords(), c[0].coords());
    }
}
