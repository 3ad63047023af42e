//! Stress-workload integration tests: heavier and structurally different
//! inputs than the paper's (multi-object scenes, LiDAR sweeps), verifying
//! the accelerator stays bit-exact and within buffer budgets.

use esca::{Esca, EscaConfig};
use esca_pointcloud::{synthetic, voxelize};
use esca_sscn::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::Extent3;

#[test]
fn multi_object_scene_bit_exact() {
    let cfg = synthetic::ShapeNetConfig {
        extent_voxels: 18.0,
        center: [48.0, 48.0, 48.0],
        ..Default::default()
    };
    let scene = synthetic::scene_of_objects(7, 4, &cfg);
    let input = voxelize::voxelize_occupancy(&scene, Extent3::cube(96));
    assert!(input.nnz() > 1500, "scene should be heavy: {}", input.nnz());

    let w = ConvWeights::seeded(3, 1, 16, 70);
    let qw = QuantizedWeights::auto(&w, 8, 12).unwrap();
    let qin = quantize_tensor(&input, qw.quant().act);
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let run = esca.run_layer(&qin, &qw, true).unwrap();
    let golden = submanifold_conv3d_q(&qin, &qw, true).unwrap();
    assert!(run.output.same_content(&golden));
    // The scene spreads across many tiles (contrast to a single compact
    // object).
    assert!(run.stats.active_tiles > 30);
    assert!((run.stats.peak_act_buffer_bytes as usize) < esca.config().act_buffer_bytes);
}

#[test]
fn lidar_sweep_bit_exact_and_thin() {
    let lcfg = synthetic::LidarConfig {
        sensor: [96.0, 96.0, 100.0],
        ..Default::default()
    };
    let sweep = synthetic::lidar_like(5, &lcfg);
    let input = voxelize::voxelize_occupancy(&sweep, Extent3::cube(192));
    assert!(input.nnz() > 1000);
    // LiDAR shells are thin: mean match group far below the dense-surface
    // regime.
    let mmg = esca_sscn::ops::count_matches(&input, 3) as f64 / input.nnz() as f64;
    assert!(mmg < 8.0, "lidar occupancy unexpectedly dense: {mmg}");

    let w = ConvWeights::seeded(3, 1, 16, 71);
    let qw = QuantizedWeights::auto(&w, 8, 12).unwrap();
    let qin = quantize_tensor(&input, qw.quant().act);
    let run = Esca::new(EscaConfig::default())
        .unwrap()
        .run_layer(&qin, &qw, false)
        .unwrap();
    let golden = submanifold_conv3d_q(&qin, &qw, false).unwrap();
    assert!(run.output.same_content(&golden));
}

#[test]
fn lidar_occupancy_differs_from_object_occupancy() {
    // The structural point of the extra generator: ring shells activate
    // far more tiles per active voxel than compact objects.
    let lidar = voxelize::voxelize_occupancy(
        &synthetic::lidar_like(1, &synthetic::LidarConfig::default()),
        Extent3::cube(192),
    );
    let object = voxelize::voxelize_occupancy(
        &synthetic::shapenet_like(1, &synthetic::ShapeNetConfig::default()),
        Extent3::cube(192),
    );
    let grid = esca_tensor::TileGrid::new(Extent3::cube(192), esca_tensor::TileShape::cube(8));
    let lt = grid.classify(&lidar.occupancy_mask());
    let ot = grid.classify(&object.occupancy_mask());
    let l_ratio = lt.active_tiles() as f64 / lidar.nnz() as f64;
    let o_ratio = ot.active_tiles() as f64 / object.nnz() as f64;
    assert!(
        l_ratio > 1.5 * o_ratio,
        "lidar tiles/voxel {l_ratio:.4} vs object {o_ratio:.4}"
    );
}
