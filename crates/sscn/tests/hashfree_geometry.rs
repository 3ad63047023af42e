//! The hash-free geometry builders against hash-map oracles.
//!
//! `Rulebook::build`, `StridedMap::build` (whose map max pooling replays
//! too) and `TransposeMap::build` match by line merge, sort-and-dedup and binary
//! search. The oracles below are the coordinate-hashing builders they
//! replaced, kept verbatim in behaviour: the new builders must produce the
//! same per-tap pair order, the same canonical rows and the same error
//! variants, on canonical and shuffled storage orders alike.

use esca_sscn::plan::{StridedMap, TransposeMap, NO_SOURCE};
use esca_sscn::rulebook::{Rulebook, TapRules};
use esca_sscn::sparse_ops::downsampled_extent;
use esca_sscn::SscnError;
use esca_tensor::{Coord3, Extent3, KernelOffsets, SparseTensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------- oracles

/// A coarse or fine output set with one row and one tap per entry.
type Layout = (Vec<Coord3>, Vec<u32>, Vec<u32>);

/// Per-site probing of a coordinate hash map, outputs in storage order.
fn oracle_rulebook(input: &SparseTensor<f32>, k: u32) -> Vec<TapRules> {
    let offsets = KernelOffsets::new(k);
    let mut taps = vec![TapRules::default(); offsets.len()];
    let index: HashMap<Coord3, u32> = input.coords().iter().copied().zip(0..).collect();
    for (out, &centre) in input.coords().iter().enumerate() {
        for (tap, &off) in offsets.offsets().iter().enumerate() {
            if let Some(&i) = index.get(&(centre + off)) {
                taps[tap].input.push(i);
                taps[tap].output.push(out as u32);
            }
        }
    }
    taps
}

fn parent(c: Coord3, kd: i32) -> Coord3 {
    Coord3::new(c.x.div_euclid(kd), c.y.div_euclid(kd), c.z.div_euclid(kd))
}

/// First-touch coarse rows through a hash map, then the raster re-ranking
/// a trailing `canonicalize()` applies: (coarse set, row per site, tap per
/// site).
fn oracle_coarse(input: &SparseTensor<f32>, kd: u32) -> Layout {
    let kd = kd as i32;
    let mut first: HashMap<Coord3, u32> = HashMap::new();
    let mut coarse = Vec::new();
    let mut rows = Vec::new();
    let mut taps = Vec::new();
    for &c in input.coords() {
        let q = parent(c, kd);
        let row = *first.entry(q).or_insert_with(|| {
            coarse.push(q);
            (coarse.len() - 1) as u32
        });
        rows.push(row);
        let d = c - Coord3::new(q.x * kd, q.y * kd, q.z * kd);
        taps.push(((d.x * kd + d.y) * kd + d.z) as u32);
    }
    let mut order: Vec<u32> = (0..coarse.len() as u32).collect();
    order.sort_by_key(|&i| coarse[i as usize]);
    let mut rank = vec![0u32; coarse.len()];
    for (pos, &old) in order.iter().enumerate() {
        rank[old as usize] = pos as u32;
    }
    let sorted = order.iter().map(|&i| coarse[i as usize]).collect();
    (
        sorted,
        rows.iter().map(|&r| rank[r as usize]).collect(),
        taps,
    )
}

/// Target validation through `from_coord_features` + `canonicalize`, then
/// a hash-map lookup of each target's covering coarse site: (targets in
/// raster order, source per row, tap per row).
fn oracle_transpose(
    input: &SparseTensor<f32>,
    kd: u32,
    fine: Extent3,
    target: &[Coord3],
) -> Result<Layout, SscnError> {
    if downsampled_extent(fine, kd) != input.extent() {
        return Err(SscnError::InvalidConfig {
            reason: format!(
                "fine extent {fine} does not downsample to coarse extent {}",
                input.extent()
            ),
        });
    }
    let mut probe = SparseTensor::<f32>::from_coord_features(
        fine,
        1,
        target.to_vec(),
        vec![0.0; target.len()],
    )?;
    probe.canonicalize();
    let index: HashMap<Coord3, u32> = input.coords().iter().copied().zip(0..).collect();
    let kd = kd as i32;
    let (mut src, mut taps) = (Vec::new(), Vec::new());
    for &p in probe.coords() {
        let q = parent(p, kd);
        match index.get(&q) {
            Some(&row) => {
                let d = p - Coord3::new(q.x * kd, q.y * kd, q.z * kd);
                src.push(row);
                taps.push(((d.x * kd + d.y) * kd + d.z) as u32);
            }
            None => {
                src.push(NO_SOURCE);
                taps.push(0);
            }
        }
    }
    Ok((probe.coords().to_vec(), src, taps))
}

// ------------------------------------------------------------- generators

/// A random active set on `extent`: clustered sites (so lines have long
/// z-runs and many neighbours) plus the grid's corner sites, stored in
/// raster order or shuffled.
fn random_set(rng: &mut StdRng, extent: Extent3, n: usize, shuffled: bool) -> SparseTensor<f32> {
    let (ex, ey, ez) = (extent.x as i32, extent.y as i32, extent.z as i32);
    let mut coords: Vec<Coord3> = vec![Coord3::new(0, 0, 0), Coord3::new(ex - 1, ey - 1, ez - 1)];
    let mut centre = Coord3::new(
        rng.gen_range(0..ex),
        rng.gen_range(0..ey),
        rng.gen_range(0..ez),
    );
    for _ in 0..n {
        if rng.gen_range(0..8) == 0 {
            centre = Coord3::new(
                rng.gen_range(0..ex),
                rng.gen_range(0..ey),
                rng.gen_range(0..ez),
            );
        }
        let c = Coord3::new(
            (centre.x + rng.gen_range(-2..=2)).clamp(0, ex - 1),
            (centre.y + rng.gen_range(-2..=2)).clamp(0, ey - 1),
            (centre.z + rng.gen_range(-3..=3)).clamp(0, ez - 1),
        );
        coords.push(c);
    }
    coords.sort();
    coords.dedup();
    if shuffled {
        coords.shuffle(rng);
    }
    let feats = vec![1.0; coords.len()];
    SparseTensor::from_coord_features(extent, 1, coords, feats).unwrap()
}

fn random_extent(rng: &mut StdRng) -> Extent3 {
    Extent3::new(
        rng.gen_range(1..12),
        rng.gen_range(1..12),
        rng.gen_range(1..14),
    )
}

/// Small hand-picked sets: empty, a single site, a single grid-corner
/// site, and a full line along every axis edge.
fn edge_sets() -> Vec<SparseTensor<f32>> {
    let e = Extent3::new(5, 4, 6);
    let mut sets = vec![
        SparseTensor::new(e, 1),
        SparseTensor::from_coord_features(e, 1, vec![Coord3::new(2, 1, 3)], vec![1.0]).unwrap(),
        SparseTensor::from_coord_features(e, 1, vec![Coord3::new(4, 3, 5)], vec![1.0]).unwrap(),
    ];
    let mut edges = SparseTensor::new(e, 1);
    for z in (0..6).rev() {
        edges.insert(Coord3::new(0, 0, z), &[1.0]).unwrap();
        edges.insert(Coord3::new(4, 3, z), &[1.0]).unwrap();
    }
    for x in 0..5 {
        edges.insert(Coord3::new(x, 3, 0), &[1.0]).unwrap();
    }
    sets.push(edges.clone());
    edges.canonicalize();
    sets.push(edges);
    sets
}

fn all_taps(rb: &Rulebook) -> Vec<TapRules> {
    (0..(rb.k() as usize).pow(3))
        .map(|t| rb.tap(t).clone())
        .collect()
}

// ------------------------------------------------------------------ tests

#[test]
fn rulebook_equals_hash_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut cases: Vec<SparseTensor<f32>> = edge_sets();
    for case in 0..24 {
        let extent = random_extent(&mut rng);
        let n = rng.gen_range(1..160);
        cases.push(random_set(&mut rng, extent, n, case % 2 == 1));
    }
    for (i, input) in cases.iter().enumerate() {
        for k in [1, 3, 5] {
            let rb = Rulebook::build(input, k);
            assert_eq!((rb.k(), rb.sites()), (k, input.nnz()));
            assert_eq!(all_taps(&rb), oracle_rulebook(input, k), "case {i}, k={k}");
            assert!(rb.verify_for_sites(input.nnz(), k));
        }
    }
}

#[test]
fn strided_and_pool_maps_equal_hash_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let mut cases: Vec<SparseTensor<f32>> = edge_sets();
    for case in 0..24 {
        let extent = random_extent(&mut rng);
        let n = rng.gen_range(1..200);
        cases.push(random_set(&mut rng, extent, n, case % 2 == 0));
    }
    for (i, input) in cases.iter().enumerate() {
        for kd in [2, 3] {
            let (coarse, rows, taps) = oracle_coarse(input, kd);
            let strided = StridedMap::build(input, kd);
            assert_eq!(strided.out_coords(), &coarse[..], "case {i}, kd={kd}");
            assert_eq!(strided.rows(), &rows[..], "case {i}, kd={kd}");
            assert_eq!(strided.taps(), &taps[..], "case {i}, kd={kd}");
            assert_eq!(strided.sites(), input.nnz());
            // Max pooling replays the same map: with a distinct value per
            // site, each coarse row holds the maximum over exactly the
            // sites the oracle assigns to it.
            let values: Vec<f32> = (0..input.nnz()).map(|s| (s * 7 % 11) as f32).collect();
            let valued = SparseTensor::from_template(input, 1, values.clone()).unwrap();
            let pooled = strided.max_pool(&valued).unwrap();
            assert_eq!(pooled.extent(), downsampled_extent(input.extent(), kd));
            assert_eq!(pooled.coords(), &coarse[..], "case {i}, kd={kd}");
            let mut want = vec![f32::NEG_INFINITY; coarse.len()];
            for (&row, &v) in rows.iter().zip(&values) {
                want[row as usize] = want[row as usize].max(v);
            }
            assert_eq!(pooled.features(), &want[..], "case {i}, kd={kd}");
        }
    }
}

#[test]
fn transpose_map_equals_hash_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for case in 0..32 {
        let fine = random_extent(&mut rng);
        let kd = if case % 3 == 0 { 3 } else { 2 };
        let coarse_extent = downsampled_extent(fine, kd);
        let n = rng.gen_range(1..150);
        let targets = random_set(&mut rng, fine, n, case % 2 == 1);
        // The coarse input covers only part of the targets' parents, so
        // some rows have no source; stored shuffled every fourth case.
        let mut parents: Vec<Coord3> = targets
            .coords()
            .iter()
            .map(|&c| parent(c, kd as i32))
            .filter(|_| rng.gen_range(0..3) != 0)
            .collect();
        parents.sort();
        parents.dedup();
        if case % 4 == 0 {
            parents.shuffle(&mut rng);
        }
        let feats = vec![1.0; parents.len()];
        let input = SparseTensor::from_coord_features(coarse_extent, 1, parents, feats).unwrap();
        let want = oracle_transpose(&input, kd, fine, targets.coords()).unwrap();
        let map = TransposeMap::build(&input, kd, fine, targets.coords()).unwrap();
        assert_eq!(map.out_coords(), &want.0[..], "case {case}");
        assert_eq!(map.sources(), &want.1[..], "case {case}");
        assert_eq!(map.taps(), &want.2[..], "case {case}");
        assert_eq!(map.sites(), targets.nnz());
    }
}

#[test]
fn transpose_map_edge_cases_equal_hash_oracle() {
    let fine = Extent3::new(5, 4, 6);
    let coarse_extent = downsampled_extent(fine, 2);
    let coarse = SparseTensor::from_coord_features(
        coarse_extent,
        1,
        vec![Coord3::new(2, 1, 2), Coord3::new(0, 0, 0)],
        vec![1.0, 2.0],
    )
    .unwrap();
    let empty = SparseTensor::<f32>::new(coarse_extent, 1);
    let cases: Vec<Vec<Coord3>> = vec![
        vec![],
        vec![Coord3::new(4, 3, 5)],
        vec![
            Coord3::new(4, 3, 5),
            Coord3::new(0, 0, 0),
            Coord3::new(1, 1, 1),
        ],
        vec![Coord3::new(3, 3, 3)],
    ];
    for (i, target) in cases.iter().enumerate() {
        for input in [&coarse, &empty] {
            let want = oracle_transpose(input, 2, fine, target).unwrap();
            let map = TransposeMap::build(input, 2, fine, target).unwrap();
            assert_eq!(map.out_coords(), &want.0[..], "case {i}");
            assert_eq!(map.sources(), &want.1[..], "case {i}");
            assert_eq!(map.taps(), &want.2[..], "case {i}");
        }
    }
}

#[test]
fn transpose_map_errors_equal_hash_oracle() {
    let fine = Extent3::new(6, 6, 6);
    let coarse = SparseTensor::from_coord_features(
        downsampled_extent(fine, 2),
        1,
        vec![Coord3::new(1, 1, 1)],
        vec![1.0],
    )
    .unwrap();
    let (a, b, c) = (
        Coord3::new(1, 2, 3),
        Coord3::new(0, 0, 0),
        Coord3::new(5, 5, 5),
    );
    let oob = Coord3::new(6, 0, 0);
    let neg = Coord3::new(0, -1, 0);
    let cases: Vec<(Extent3, Vec<Coord3>)> = vec![
        // Extent mismatch wins over any target error.
        (Extent3::cube(9), vec![oob]),
        (Extent3::cube(12), vec![]),
        // Out of bounds.
        (fine, vec![a, oob]),
        (fine, vec![neg, a]),
        // Repeats, sorted and not.
        (fine, vec![b, a, a]),
        (fine, vec![a, c, b, a, c]),
        (fine, vec![c, b, c, b]),
        // The first failing position in target order decides the error.
        (fine, vec![a, b, a, oob]),
        (fine, vec![a, oob, b, a]),
        (fine, vec![oob, a, a, neg]),
    ];
    for (i, (extent, target)) in cases.iter().enumerate() {
        let want = oracle_transpose(&coarse, 2, *extent, target).unwrap_err();
        let got = TransposeMap::build(&coarse, 2, *extent, target).unwrap_err();
        assert_eq!(got, want, "case {i}");
    }
}
