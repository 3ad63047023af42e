//! Property-based tests for the tensor substrate invariants that the
//! accelerator model depends on.

use esca_tensor::{
    Coord3, Extent3, KernelOffsets, LineRuns, OccupancyMask, QuantParams, SparseTensor, TileGrid,
    TileShape,
};
use proptest::prelude::*;

/// Strategy: a small extent and a set of in-bounds coordinates with values.
fn sparse_tensor_strategy() -> impl Strategy<Value = SparseTensor<f32>> {
    (2u32..16, 2u32..16, 2u32..16).prop_flat_map(|(x, y, z)| {
        let extent = Extent3::new(x, y, z);
        let coord = (0..x as i32, 0..y as i32, 0..z as i32)
            .prop_map(|(cx, cy, cz)| Coord3::new(cx, cy, cz));
        proptest::collection::vec((coord, -100.0f32..100.0), 0..64).prop_map(move |entries| {
            let mut t = SparseTensor::new(extent, 1);
            for (c, v) in entries {
                t.insert(c, &[v]).unwrap();
            }
            t.canonicalize();
            t
        })
    })
}

proptest! {
    /// Dense round-trip preserves content exactly.
    #[test]
    fn dense_roundtrip(t in sparse_tensor_strategy()) {
        let back = SparseTensor::from_dense(&t.to_dense());
        // from_dense drops explicitly-stored zeros, which are not "active"
        // in the semantic sense; compare on the nonzero subset.
        for (c, f) in t.iter() {
            if f[0] != 0.0 {
                prop_assert_eq!(back.feature(c), Some(f));
            }
        }
        prop_assert!(back.nnz() <= t.nnz());
    }

    /// The occupancy mask has exactly the tensor's active sites.
    #[test]
    fn mask_matches_active_set(t in sparse_tensor_strategy()) {
        let m = t.occupancy_mask();
        prop_assert_eq!(m.count_ones(), t.nnz());
        for c in t.extent().iter() {
            prop_assert_eq!(m.get(c).unwrap(), t.contains(c));
        }
    }

    /// The z-line index holds every entry exactly once, sorted by z per
    /// line, and every window query, including on the absent lines one
    /// past each grid edge, equals the brute-force filter.
    #[test]
    fn line_runs_windows_match_bruteforce(t in sparse_tensor_strategy(), z0 in -2i32..18, span in 1i32..5) {
        let runs = LineRuns::new(t.coords());
        prop_assert_eq!(runs.zs().len(), t.nnz());
        let z1 = z0 + span;
        let prefix_count = |x: i32, y: i32, z: i32| {
            runs.zs()[runs.line_at(x, y)].partition_point(|&zz| zz <= z)
        };
        for x in -1..t.extent().x as i32 + 1 {
            for y in -1..t.extent().y as i32 + 1 {
                let w = runs.window(x, y, z0, z1);
                let mut expect: Vec<(i32, f32)> = t
                    .iter()
                    .filter(|(c, _)| c.x == x && c.y == y && c.z >= z0 && c.z < z1)
                    .map(|(c, f)| (c.z, f[0]))
                    .collect();
                expect.sort_by_key(|(z, _)| *z);
                let got: Vec<(i32, f32)> = w
                    .clone()
                    .map(|e| {
                        let pos = runs.order()[e] as usize;
                        (runs.zs()[e], t.features()[pos * t.channels()])
                    })
                    .collect();
                prop_assert_eq!(got, expect);
                // (A, B) arithmetic always holds.
                let a = w.end - runs.line_at(x, y).start;
                prop_assert_eq!(a, prefix_count(x, y, z1 - 1));
                prop_assert_eq!(w.len(), a - prefix_count(x, y, z0 - 1));
            }
        }
    }

    /// Tile classification: active tiles partition the active sites; empty
    /// tiles contain none.
    #[test]
    fn tile_report_partitions_nnz(t in sparse_tensor_strategy(), s in 2u32..6) {
        let grid = TileGrid::new(t.extent(), TileShape::cube(s));
        let report = grid.classify(&t.occupancy_mask());
        prop_assert_eq!(report.active().iter().map(|ti| ti.nnz).sum::<usize>(), t.nnz());
        prop_assert!(report.active_tiles() <= report.total_tiles());
        // Every active coordinate falls in some reported active tile.
        for &c in t.coords() {
            let idx = grid.tile_of(c).unwrap();
            prop_assert!(report.active().iter().any(|ti| ti.index == idx));
        }
        // Removing ratio consistent with counts.
        let expect = 1.0 - report.active_tiles() as f64 / report.total_tiles() as f64;
        prop_assert!((report.removing_ratio() - expect).abs() < 1e-12);
    }

    /// Quantize→dequantize error is bounded by half a step (within range).
    #[test]
    fn quantization_error_bounded(v in -60.0f32..60.0, bits in 0u8..9) {
        let p = QuantParams::new(bits).unwrap();
        let q = p.quantize_i16(v);
        let back = p.dequantize_i16(q);
        // Saturation only kicks in outside ±(32767 * step); inputs are chosen
        // inside for bits ≤ 8 (step ≥ 1/256 → range ≥ 128).
        prop_assert!((back - v).abs() <= p.step() / 2.0 + 1e-6);
    }

    /// Kernel offsets: tap/column indexing is a bijection onto 0..K³/0..K².
    #[test]
    fn kernel_offset_bijection(k in prop::sample::select(vec![1u32, 3, 5, 7])) {
        let ko = KernelOffsets::new(k);
        let mut taps: Vec<usize> = ko
            .offsets()
            .iter()
            .map(|&o| ko.tap_index(o).unwrap())
            .collect();
        taps.sort_unstable();
        prop_assert_eq!(taps, (0..ko.len()).collect::<Vec<_>>());
        for col in 0..ko.columns() {
            let (dx, dy) = ko.column_offset(col);
            prop_assert_eq!(ko.column_index(Coord3::new(dx, dy, 0)), Some(col));
        }
    }
}

#[test]
fn mask_box_queries_agree_with_iteration() {
    let extent = Extent3::new(6, 5, 4);
    let mut m = OccupancyMask::new(extent);
    for c in extent.iter().step_by(7) {
        m.set(c, true).unwrap();
    }
    let lo = Coord3::new(1, 1, 0);
    let hi = Coord3::new(4, 4, 2);
    let brute = extent
        .iter()
        .filter(|c| {
            c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y && c.z >= lo.z && c.z <= hi.z
        })
        .filter(|&c| m.get(c).unwrap())
        .count();
    assert_eq!(m.count_in_box(lo, hi), brute);
    assert_eq!(m.any_in_box(lo, hi), brute > 0);
}
