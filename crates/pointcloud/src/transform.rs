//! Rigid and stochastic point-cloud transforms (augmentation utilities).

use crate::cloud::PointCloud;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Rotates the cloud about the z axis by `radians` around `pivot`.
pub fn rotate_z(cloud: &PointCloud, radians: f32, pivot: [f32; 3]) -> PointCloud {
    let (s, c) = radians.sin_cos();
    let mut out = cloud.clone();
    for p in out.points_mut() {
        let x = p[0] - pivot[0];
        let y = p[1] - pivot[1];
        p[0] = x * c - y * s + pivot[0];
        p[1] = x * s + y * c + pivot[1];
    }
    out
}

/// Uniformly scales the cloud about `pivot`.
pub fn scale(cloud: &PointCloud, factor: f32, pivot: [f32; 3]) -> PointCloud {
    let mut out = cloud.clone();
    for p in out.points_mut() {
        for a in 0..3 {
            p[a] = (p[a] - pivot[a]) * factor + pivot[a];
        }
    }
    out
}

/// Translates the cloud by `delta`. No library path translates a cloud;
/// this stays for `crates/pointcloud/tests/proptests.rs`, which checks
/// that rigid transforms keep the point count.
pub fn translate(cloud: &PointCloud, delta: [f32; 3]) -> PointCloud {
    let mut out = cloud.clone();
    for p in out.points_mut() {
        for a in 0..3 {
            p[a] += delta[a];
        }
    }
    out
}

/// Keeps each point independently with probability `fraction`
/// (deterministic in `seed`). Features are preserved for kept points.
/// No library path subsamples a cloud; this stays for
/// `crates/pointcloud/tests/proptests.rs`, which checks that it never
/// grows a cloud.
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]`.
pub fn subsample(cloud: &PointCloud, fraction: f64, seed: u64) -> PointCloud {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x51ed_270b);
    let ch = cloud.feature_channels();
    let mut out = if ch == 0 {
        PointCloud::new()
    } else {
        PointCloud::with_features(ch)
    };
    for (i, &p) in cloud.points().iter().enumerate() {
        if rng.gen_bool(fraction) {
            if ch == 0 {
                out.push(p);
            } else {
                out.push_with_features(p, cloud.feature(i).expect("ch > 0"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cloud() -> PointCloud {
        vec![[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            .into_iter()
            .collect()
    }

    #[test]
    fn rotate_z_quarter_turn() {
        let c = rotate_z(&unit_cloud(), std::f32::consts::FRAC_PI_2, [0.0; 3]);
        let p = c.points()[0];
        assert!((p[0] - 0.0).abs() < 1e-6);
        assert!((p[1] - 1.0).abs() < 1e-6);
        // z axis fixed point
        assert_eq!(c.points()[2], [0.0, 0.0, 1.0]);
    }

    #[test]
    fn rotation_preserves_distances() {
        let c = unit_cloud();
        let r = rotate_z(&c, 1.234, [0.5, -0.25, 0.0]);
        // All pairwise distances are preserved by a rigid rotation.
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                let d0 = dist(c.points()[i], c.points()[j]);
                let d1 = dist(r.points()[i], r.points()[j]);
                assert!((d0 - d1).abs() < 1e-5);
            }
        }
    }

    fn dist(a: [f32; 3], b: [f32; 3]) -> f32 {
        ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
    }

    #[test]
    fn scale_about_pivot() {
        let c = scale(&unit_cloud(), 2.0, [0.0; 3]);
        assert_eq!(c.points()[0], [2.0, 0.0, 0.0]);
    }

    #[test]
    fn translate_moves_bounds() {
        let c = translate(&unit_cloud(), [1.0, 2.0, 3.0]);
        let b = c.bounds().unwrap();
        assert_eq!(b.min, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn subsample_extremes() {
        let c = unit_cloud();
        assert_eq!(subsample(&c, 1.0, 1).len(), 3);
        assert_eq!(subsample(&c, 0.0, 1).len(), 0);
    }

    #[test]
    fn subsample_keeps_features() {
        let mut c = PointCloud::with_features(1);
        for i in 0..100 {
            c.push_with_features([i as f32, 0.0, 0.0], &[i as f32]);
        }
        let s = subsample(&c, 0.5, 9);
        assert!(s.len() > 20 && s.len() < 80);
        for i in 0..s.len() {
            assert_eq!(s.feature(i).unwrap()[0], s.points()[i][0]);
        }
    }
}
