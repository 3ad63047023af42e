//! Deterministic synthetic point-cloud generators.
//!
//! These stand in for the ShapeNet \[21\] and NYU Depth v2 \[22\] datasets the
//! paper evaluates on (neither is redistributable with this repository).
//! Table I consumes only the **voxel occupancy statistics** of the inputs —
//! active-tile counts at 192³ — so the generators are shaped and calibrated
//! to land in the paper's occupancy regime:
//!
//! * [`shapenet_like`]: a compact, closed, CAD-like object surface
//!   (composed boxes/cylinders/spheres) with a voxel footprint of roughly
//!   30 voxels across. The paper reports 198/42/23/14 active tiles at
//!   4³/8³/12³/16³ — consistent with a closed surface of ≈32-voxel
//!   diameter (4πr² tile shells), which is what this generator emits.
//! * [`nyu_like`]: a 2.5-D indoor scene (floor + walls + furniture) seen
//!   from a single viewpoint with back-facing surfaces culled, again scaled
//!   to the paper's occupancy (161/33/19/9 active tiles).
//!
//! All generators take an explicit `seed` and are reproducible across
//! platforms (ChaCha-based RNG).

use crate::cloud::PointCloud;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A sampled surface point with its outward normal (used for visibility
/// culling in the 2.5-D generator).
#[derive(Debug, Clone, Copy)]
struct SurfSample {
    p: [f32; 3],
    n: [f32; 3],
}

fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f32; 3]) -> f32 {
    (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt()
}

fn normalize(a: [f32; 3]) -> [f32; 3] {
    let n = norm(a).max(1e-12);
    [a[0] / n, a[1] / n, a[2] / n]
}

fn dot(a: [f32; 3], b: [f32; 3]) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn add(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: [f32; 3], s: f32) -> [f32; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

/// Samples a parallelogram `origin + s·u + t·v`, `s, t ∈ [0, 1]`.
fn sample_plane(
    out: &mut Vec<SurfSample>,
    rng: &mut ChaCha12Rng,
    origin: [f32; 3],
    u: [f32; 3],
    v: [f32; 3],
    density: f32,
) {
    let area = norm(cross(u, v));
    let n_pts = (area * density).ceil() as usize;
    let normal = normalize(cross(u, v));
    for _ in 0..n_pts {
        let s: f32 = rng.gen();
        let t: f32 = rng.gen();
        out.push(SurfSample {
            p: add(add(origin, scale(u, s)), scale(v, t)),
            n: normal,
        });
    }
}

/// Samples the six faces of an axis-aligned box shell.
fn sample_box(
    out: &mut Vec<SurfSample>,
    rng: &mut ChaCha12Rng,
    center: [f32; 3],
    half: [f32; 3],
    density: f32,
) {
    let [hx, hy, hz] = half;
    let c = center;
    // ±x faces
    for sgn in [-1.0f32, 1.0] {
        sample_plane(
            out,
            rng,
            [c[0] + sgn * hx, c[1] - hy, c[2] - hz],
            [0.0, 2.0 * hy, 0.0],
            [0.0, 0.0, 2.0 * hz],
            density,
        );
        // Fix normals: overwrite the last chunk's normals to ±x.
        let len = out.len();
        let area = (2.0 * hy) * (2.0 * hz);
        let n_pts = (area * density).ceil() as usize;
        for s in &mut out[len - n_pts..] {
            s.n = [sgn, 0.0, 0.0];
        }
    }
    // ±y faces
    for sgn in [-1.0f32, 1.0] {
        let len0 = out.len();
        sample_plane(
            out,
            rng,
            [c[0] - hx, c[1] + sgn * hy, c[2] - hz],
            [2.0 * hx, 0.0, 0.0],
            [0.0, 0.0, 2.0 * hz],
            density,
        );
        for s in &mut out[len0..] {
            s.n = [0.0, sgn, 0.0];
        }
    }
    // ±z faces
    for sgn in [-1.0f32, 1.0] {
        let len0 = out.len();
        sample_plane(
            out,
            rng,
            [c[0] - hx, c[1] - hy, c[2] + sgn * hz],
            [2.0 * hx, 0.0, 0.0],
            [0.0, 2.0 * hy, 0.0],
            density,
        );
        for s in &mut out[len0..] {
            s.n = [0.0, 0.0, sgn];
        }
    }
}

/// Samples a sphere surface uniformly.
fn sample_sphere(
    out: &mut Vec<SurfSample>,
    rng: &mut ChaCha12Rng,
    center: [f32; 3],
    r: f32,
    density: f32,
) {
    let area = 4.0 * std::f32::consts::PI * r * r;
    let n_pts = (area * density).ceil() as usize;
    for _ in 0..n_pts {
        // Marsaglia: uniform direction via normalized Gaussian triple
        // (Box-Muller, to stay within the approved dependency set).
        let dir = normalize([gaussian(rng), gaussian(rng), gaussian(rng)]);
        out.push(SurfSample {
            p: add(center, scale(dir, r)),
            n: dir,
        });
    }
}

/// Samples a z-axis-aligned cylinder (lateral surface plus end caps).
fn sample_cylinder(
    out: &mut Vec<SurfSample>,
    rng: &mut ChaCha12Rng,
    center: [f32; 3],
    r: f32,
    half_h: f32,
    density: f32,
) {
    use std::f32::consts::PI;
    let lateral_area = 2.0 * PI * r * 2.0 * half_h;
    for _ in 0..(lateral_area * density).ceil() as usize {
        let theta = rng.gen::<f32>() * 2.0 * PI;
        let z = (rng.gen::<f32>() * 2.0 - 1.0) * half_h;
        let n = [theta.cos(), theta.sin(), 0.0];
        out.push(SurfSample {
            p: add(center, [r * n[0], r * n[1], z]),
            n,
        });
    }
    let cap_area = PI * r * r;
    for sgn in [-1.0f32, 1.0] {
        for _ in 0..(cap_area * density).ceil() as usize {
            let theta = rng.gen::<f32>() * 2.0 * PI;
            let rho = r * rng.gen::<f32>().sqrt();
            out.push(SurfSample {
                p: add(center, [rho * theta.cos(), rho * theta.sin(), sgn * half_h]),
                n: [0.0, 0.0, sgn],
            });
        }
    }
}

/// One standard Gaussian sample via Box-Muller.
fn gaussian(rng: &mut ChaCha12Rng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(1e-12);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Object families the ShapeNet-like generator composes. The family only
/// changes the arrangement of primitive surfaces; occupancy statistics stay
/// in the calibrated regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Seat + back + four legs.
    Chair,
    /// Top slab + four legs.
    Table,
    /// Fuselage cylinder + wing slabs + tail.
    Airplane,
    /// Pole + shade (cone approximated by a cylinder) + base.
    Lamp,
    /// Body box + cabin box + four wheel cylinders.
    Car,
}

impl ObjectClass {
    /// All classes, for round-robin selection by seed.
    pub const ALL: [ObjectClass; 5] = [
        ObjectClass::Chair,
        ObjectClass::Table,
        ObjectClass::Airplane,
        ObjectClass::Lamp,
        ObjectClass::Car,
    ];
}

/// Configuration of the ShapeNet-like generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShapeNetConfig {
    /// Approximate voxel-space diameter of the object (paper-calibrated
    /// default reproduces Table I's ShapeNet occupancy at 192³).
    pub extent_voxels: f32,
    /// Surface sampling density in points per voxel² of area.
    pub density: f32,
    /// Centre of the object in grid coordinates.
    pub center: [f32; 3],
    /// Force a specific class; `None` picks by seed.
    pub class: Option<ObjectClass>,
}

impl Default for ShapeNetConfig {
    fn default() -> Self {
        ShapeNetConfig {
            extent_voxels: 45.0,
            density: 2.0,
            center: [96.0, 96.0, 96.0],
            class: None,
        }
    }
}

/// Generates a compact CAD-like object surface cloud in grid coordinates.
///
/// Deterministic in `(seed, config)`.
pub fn shapenet_like(seed: u64, cfg: &ShapeNetConfig) -> PointCloud {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let class = cfg
        .class
        .unwrap_or(ObjectClass::ALL[(seed as usize) % ObjectClass::ALL.len()]);
    let s = cfg.extent_voxels / 2.0; // object "radius" in voxels
    let d = cfg.density;
    let c = cfg.center;
    let mut samples = Vec::new();
    match class {
        ObjectClass::Chair => {
            // Seat slab.
            sample_box(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, -0.1 * s]),
                [0.7 * s, 0.7 * s, 0.08 * s],
                d,
            );
            // Backrest.
            sample_box(
                &mut samples,
                &mut rng,
                add(c, [0.0, -0.65 * s, 0.5 * s]),
                [0.7 * s, 0.06 * s, 0.5 * s],
                d,
            );
            // Legs.
            for (lx, ly) in [(-0.6, -0.6), (-0.6, 0.6), (0.6, -0.6), (0.6, 0.6)] {
                sample_box(
                    &mut samples,
                    &mut rng,
                    add(c, [lx * s, ly * s, -0.55 * s]),
                    [0.07 * s, 0.07 * s, 0.45 * s],
                    d,
                );
            }
        }
        ObjectClass::Table => {
            sample_box(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, 0.4 * s]),
                [0.9 * s, 0.6 * s, 0.06 * s],
                d,
            );
            for (lx, ly) in [(-0.8, -0.5), (-0.8, 0.5), (0.8, -0.5), (0.8, 0.5)] {
                sample_box(
                    &mut samples,
                    &mut rng,
                    add(c, [lx * s, ly * s, -0.25 * s]),
                    [0.06 * s, 0.06 * s, 0.6 * s],
                    d,
                );
            }
        }
        ObjectClass::Airplane => {
            // Fuselage along x.
            sample_cylinder(&mut samples, &mut rng, c, 0.18 * s, 0.9 * s, d);
            // Rotate fuselage: cheat by sampling along z then swapping axes.
            for smp in samples.iter_mut() {
                smp.p = [smp.p[2] - c[2] + c[0], smp.p[1], smp.p[0] - c[0] + c[2]];
                smp.n = [smp.n[2], smp.n[1], smp.n[0]];
            }
            // Wings.
            sample_box(&mut samples, &mut rng, c, [0.25 * s, 0.95 * s, 0.04 * s], d);
            // Tail.
            sample_box(
                &mut samples,
                &mut rng,
                add(c, [-0.8 * s, 0.0, 0.25 * s]),
                [0.12 * s, 0.3 * s, 0.2 * s],
                d,
            );
        }
        ObjectClass::Lamp => {
            sample_cylinder(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, -0.1 * s]),
                0.06 * s,
                0.7 * s,
                d,
            );
            sample_cylinder(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, 0.7 * s]),
                0.45 * s,
                0.25 * s,
                d,
            );
            sample_cylinder(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, -0.85 * s]),
                0.4 * s,
                0.05 * s,
                d,
            );
            // Bulb.
            sample_sphere(
                &mut samples,
                &mut rng,
                add(c, [0.0, 0.0, 0.65 * s]),
                0.2 * s,
                d,
            );
        }
        ObjectClass::Car => {
            sample_box(&mut samples, &mut rng, c, [0.9 * s, 0.45 * s, 0.22 * s], d);
            sample_box(
                &mut samples,
                &mut rng,
                add(c, [0.05 * s, 0.0, 0.4 * s]),
                [0.45 * s, 0.4 * s, 0.18 * s],
                d,
            );
            for (lx, ly) in [(-0.6, -0.45), (-0.6, 0.45), (0.6, -0.45), (0.6, 0.45)] {
                let mut wheel = Vec::new();
                sample_cylinder(&mut wheel, &mut rng, [0.0; 3], 0.18 * s, 0.06 * s, d);
                // Cylinder axis z → rotate to y (wheel axle).
                for smp in wheel.iter_mut() {
                    let p = [smp.p[0], smp.p[2], smp.p[1]];
                    let n = [smp.n[0], smp.n[2], smp.n[1]];
                    samples.push(SurfSample {
                        p: add(add(c, [lx * s, ly * s, -0.35 * s]), p),
                        n,
                    });
                }
            }
        }
    }
    let mut cloud = PointCloud::new();
    for s in samples {
        cloud.push(s.p);
    }
    cloud
}

/// Configuration of the NYU-Depth-like 2.5-D scene generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NyuConfig {
    /// Side length of the (cubic) room footprint in voxels. The
    /// paper-calibrated default reproduces Table I's NYU occupancy.
    pub extent_voxels: f32,
    /// Surface sampling density in points per voxel² of area.
    pub density: f32,
    /// The room's anchor corner (floor level, near corner) in grid
    /// coordinates. The default, 96, is tile-aligned for every Table I
    /// tile size — the regime a normalized real scene tends toward.
    pub center: [f32; 3],
    /// Number of furniture pieces (boxes) in the room.
    pub furniture: usize,
    /// Depth-noise standard deviation in voxels (sensor noise model).
    pub depth_noise: f32,
}

impl Default for NyuConfig {
    fn default() -> Self {
        NyuConfig {
            extent_voxels: 32.0,
            density: 2.0,
            center: [96.0, 96.0, 96.0],
            furniture: 3,
            depth_noise: 0.15,
        }
    }
}

/// Generates a single-viewpoint (2.5-D) indoor scene cloud in grid
/// coordinates: a room corner (floor + two far walls) plus furniture, with
/// surfaces facing away from the virtual camera culled and mild depth noise
/// applied.
///
/// Deterministic in `(seed, config)`.
pub fn nyu_like(seed: u64, cfg: &NyuConfig) -> PointCloud {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xdee9_cafe);
    let w = cfg.extent_voxels; // room side
    let c = cfg.center; // anchor corner: floor level, nearest to camera
    let d = cfg.density;
    let mut samples = Vec::new();

    // Room shell: floor plane plus the two far walls (a camera at the near
    // corner sees exactly these). Sampled just inside the anchor planes so
    // voxelization lands in the tile-aligned layers.
    let eps = 0.5;
    let len0 = samples.len();
    sample_plane(
        &mut samples,
        &mut rng,
        add(c, [eps, eps, eps]),
        [w - 2.0 * eps, 0.0, 0.0],
        [0.0, w - 2.0 * eps, 0.0],
        d,
    );
    for smp in &mut samples[len0..] {
        smp.n = [0.0, 0.0, 1.0]; // floor faces up
    }
    let len1 = samples.len();
    sample_plane(
        &mut samples,
        &mut rng,
        add(c, [eps, w - eps, eps]),
        [w - 2.0 * eps, 0.0, 0.0],
        [0.0, 0.0, w - 2.0 * eps],
        d,
    );
    for smp in &mut samples[len1..] {
        smp.n = [0.0, -1.0, 0.0]; // far wall faces back toward camera
    }
    let len2 = samples.len();
    sample_plane(
        &mut samples,
        &mut rng,
        add(c, [w - eps, eps, eps]),
        [0.0, w - 2.0 * eps, 0.0],
        [0.0, 0.0, w - 2.0 * eps],
        d,
    );
    for smp in &mut samples[len2..] {
        smp.n = [-1.0, 0.0, 0.0];
    }

    // Furniture boxes standing on the floor, inside the room.
    for _ in 0..cfg.furniture {
        let hx = w * (0.06 + 0.09 * rng.gen::<f32>());
        let hy = w * (0.06 + 0.09 * rng.gen::<f32>());
        let hz = w * (0.08 + 0.15 * rng.gen::<f32>());
        let px = w * (0.2 + 0.6 * rng.gen::<f32>());
        let py = w * (0.2 + 0.6 * rng.gen::<f32>());
        sample_box(
            &mut samples,
            &mut rng,
            add(c, [px, py, hz + eps]),
            [hx, hy, hz],
            d,
        );
    }

    // Single-viewpoint culling: camera floats near the open corner.
    let cam = add(c, [-0.8 * w, -0.8 * w, 1.1 * w]);
    let mut cloud = PointCloud::new();
    for smp in samples {
        let view = [cam[0] - smp.p[0], cam[1] - smp.p[1], cam[2] - smp.p[2]];
        if dot(smp.n, view) <= 0.0 {
            continue; // back-facing: a depth camera never sees it
        }
        // Depth noise along the viewing ray.
        let ray = normalize(view);
        let eps = gaussian(&mut rng) * cfg.depth_noise;
        cloud.push(add(smp.p, scale(ray, eps)));
    }
    cloud
}

/// A multi-object scene: `n` ShapeNet-like objects of rotating classes
/// placed on a grid of centres — a heavier, more spread-out workload than
/// a single object (stress case for tiling and buffer sizing). No library
/// path calls it; `tests/stress_workloads.rs` uses it as input.
///
/// Deterministic in `(seed, n, base config)`.
pub fn scene_of_objects(seed: u64, n: usize, cfg: &ShapeNetConfig) -> PointCloud {
    let mut scene = PointCloud::new();
    let cols = (n as f32).sqrt().ceil() as usize;
    let pitch = cfg.extent_voxels * 1.3;
    for i in 0..n {
        let class = ObjectClass::ALL[i % ObjectClass::ALL.len()];
        let row = i / cols;
        let col = i % cols;
        let obj_cfg = ShapeNetConfig {
            class: Some(class),
            center: [
                cfg.center[0] + (col as f32 - (cols as f32 - 1.0) / 2.0) * pitch,
                cfg.center[1] + (row as f32 - ((n.div_ceil(cols)) as f32 - 1.0) / 2.0) * pitch,
                cfg.center[2],
            ],
            ..*cfg
        };
        scene.merge(&shapenet_like(seed.wrapping_add(i as u64), &obj_cfg));
    }
    scene
}

/// Configuration of the LiDAR-like outdoor scan generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LidarConfig {
    /// Number of scan rings (vertical laser channels).
    pub rings: usize,
    /// Points per ring.
    pub points_per_ring: usize,
    /// Maximum range in voxels.
    pub max_range: f32,
    /// Sensor position in grid coordinates.
    pub sensor: [f32; 3],
    /// Range-noise standard deviation in voxels.
    pub range_noise: f32,
}

impl Default for LidarConfig {
    fn default() -> Self {
        LidarConfig {
            rings: 16,
            points_per_ring: 360,
            max_range: 90.0,
            sensor: [96.0, 96.0, 100.0],
            range_noise: 0.2,
        }
    }
}

/// Generates a rotating-scanner (KITTI-like) outdoor sweep: a ground
/// plane plus a few obstacles sampled along laser rays from a single
/// sensor position. A very different occupancy pattern from the paper's
/// datasets — a thin, wide, ring-structured shell — used by the
/// beyond-paper sparsity studies. No library path calls it;
/// `tests/stress_workloads.rs` uses it as input.
///
/// Deterministic in `(seed, config)`.
pub fn lidar_like(seed: u64, cfg: &LidarConfig) -> PointCloud {
    use std::f32::consts::PI;
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x11da_2bee);
    let ground_z = cfg.sensor[2] - 8.0;
    // Obstacles: cylinders on the ground at random bearings/ranges.
    let obstacles: Vec<([f32; 2], f32)> = (0..6)
        .map(|_| {
            let bearing = rng.gen::<f32>() * 2.0 * PI;
            let dist = 10.0 + rng.gen::<f32>() * (cfg.max_range * 0.6);
            (
                [
                    cfg.sensor[0] + dist * bearing.cos(),
                    cfg.sensor[1] + dist * bearing.sin(),
                ],
                2.0 + rng.gen::<f32>() * 4.0, // radius
            )
        })
        .collect();

    let mut cloud = PointCloud::new();
    for ring in 0..cfg.rings {
        // Vertical angles from -15 deg to +1 deg across the rings.
        let v_angle = -15.0 + 16.0 * ring as f32 / cfg.rings.max(1) as f32;
        let v = v_angle.to_radians();
        for p in 0..cfg.points_per_ring {
            let h = 2.0 * PI * p as f32 / cfg.points_per_ring as f32;
            let dir = [v.cos() * h.cos(), v.cos() * h.sin(), v.sin()];
            // Ray-march: ground hit, obstacle hit, or max range (no
            // return -- skip).
            let mut hit: Option<f32> = None;
            if dir[2] < -1e-3 {
                let t = (ground_z - cfg.sensor[2]) / dir[2];
                if t > 0.0 && t <= cfg.max_range {
                    hit = Some(t);
                }
            }
            for (centre, radius) in &obstacles {
                // Cylinder intersection in the horizontal plane.
                let dx = centre[0] - cfg.sensor[0];
                let dy = centre[1] - cfg.sensor[1];
                let proj = dx * dir[0] + dy * dir[1];
                if proj <= 0.0 {
                    continue;
                }
                let closest2 = (dx * dx + dy * dy) - proj * proj;
                if closest2 < radius * radius {
                    let t = proj - (radius * radius - closest2).sqrt();
                    if t > 0.5 && t <= cfg.max_range && hit.map(|h| t < h).unwrap_or(true) {
                        hit = Some(t);
                    }
                }
            }
            if let Some(t) = hit {
                let t = t + gaussian(&mut rng) * cfg.range_noise;
                cloud.push([
                    cfg.sensor[0] + t * dir[0],
                    cfg.sensor[1] + t * dir[1],
                    cfg.sensor[2] + t * dir[2],
                ]);
            }
        }
    }
    cloud
}

/// Uniform random points inside a box of side `side` centred at `center` —
/// a worst-case (structureless) sparsity pattern for stress tests. No
/// library path calls it; `crates/bench/benches/ablations.rs` uses it as
/// input.
pub fn uniform_random(seed: u64, n: usize, center: [f32; 3], side: f32) -> PointCloud {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x0123_4567);
    let mut cloud = PointCloud::new();
    for _ in 0..n {
        cloud.push([
            center[0] + (rng.gen::<f32>() - 0.5) * side,
            center[1] + (rng.gen::<f32>() - 0.5) * side,
            center[2] + (rng.gen::<f32>() - 0.5) * side,
        ]);
    }
    cloud
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapenet_like_is_deterministic() {
        let cfg = ShapeNetConfig::default();
        let a = shapenet_like(42, &cfg);
        let b = shapenet_like(42, &cfg);
        assert_eq!(a, b);
        let c = shapenet_like(43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn nyu_like_is_deterministic() {
        let cfg = NyuConfig::default();
        assert_eq!(nyu_like(1, &cfg), nyu_like(1, &cfg));
    }

    #[test]
    fn shapenet_like_stays_compact() {
        let cfg = ShapeNetConfig::default();
        for seed in 0..5 {
            let cloud = shapenet_like(seed, &cfg);
            assert!(cloud.len() > 1000, "surface sampling too thin");
            let b = cloud.bounds().unwrap();
            // Object fits in ~1.5x the configured extent around the centre.
            assert!(b.max_side() < cfg.extent_voxels * 2.5);
            let ctr = b.center();
            for (c, e) in ctr.iter().zip(&cfg.center) {
                assert!((c - e).abs() < cfg.extent_voxels);
            }
        }
    }

    #[test]
    fn nyu_like_camera_culling_removes_points() {
        let cfg = NyuConfig::default();
        let seen = nyu_like(5, &cfg);
        // With no culling we'd get every sample; the 2.5-D view must drop a
        // visible fraction (hidden faces of furniture, at minimum).
        assert!(seen.len() > 1000);
        let b = seen.bounds().unwrap();
        assert!(b.max_side() < cfg.extent_voxels * 2.5);
    }

    #[test]
    fn each_class_generates() {
        for class in ObjectClass::ALL {
            let cfg = ShapeNetConfig {
                class: Some(class),
                ..ShapeNetConfig::default()
            };
            let cloud = shapenet_like(9, &cfg);
            assert!(cloud.len() > 500, "{class:?} produced too few points");
        }
    }

    #[test]
    fn scene_of_objects_spreads_and_merges() {
        let cfg = ShapeNetConfig {
            extent_voxels: 20.0,
            center: [96.0, 96.0, 96.0],
            ..Default::default()
        };
        let scene = scene_of_objects(3, 4, &cfg);
        let single = shapenet_like(3, &cfg);
        assert!(scene.len() > 2 * single.len());
        // The scene spans multiple object pitches.
        let b = scene.bounds().unwrap();
        assert!(b.max_side() > cfg.extent_voxels * 1.5);
    }

    #[test]
    fn lidar_like_produces_ground_and_obstacles() {
        let cfg = LidarConfig::default();
        let a = lidar_like(2, &cfg);
        assert_eq!(a, lidar_like(2, &cfg), "deterministic");
        assert!(a.len() > 2000, "most rays should return");
        // Returns lie below the sensor (ground/obstacles), within range.
        let b = a.bounds().unwrap();
        assert!(b.max[2] <= cfg.sensor[2] + 2.0);
        assert!(b.max_side() <= 2.2 * cfg.max_range);
    }

    #[test]
    fn uniform_random_count_and_bounds() {
        let c = uniform_random(3, 1000, [10.0; 3], 4.0);
        assert_eq!(c.len(), 1000);
        let b = c.bounds().unwrap();
        assert!(b.min.iter().all(|&v| v >= 8.0 - 1e-4));
        assert!(b.max.iter().all(|&v| v <= 12.0 + 1e-4));
    }
}
