//! Cross-validation of the two matching formulations: the hardware SDMU
//! (per-tile mask scan + (A, B) addressing) and the software rulebook
//! (per-tap gather lists) must discover exactly the same matches — they
//! are the same mathematical object built two different ways.
//!
//! The match-stream comparison runs in every build profile, so it is the
//! release-mode check on the SDMU's fetch addresses (debug builds also
//! cross-check each address against the z-line index inside the SDMU).

use esca::encode::EncodedFeatureMap;
use esca::sdmu::{MatchGroupDesc, ScanOutcome, TileSdmu};
use esca::trace::{PipelineTrace, Stage, TraceDetail};
use esca::{Esca, EscaConfig};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::rulebook::Rulebook;
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, TileShape, Q16};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One match: (output centre, kernel tap, input site).
type Match = (Coord3, usize, Coord3);

/// The rulebook's matches, sorted.
fn rulebook_matches(t: &SparseTensor<Q16>, k: u32) -> Vec<Match> {
    let rb = Rulebook::build(t, k);
    let coords = t.coords();
    let mut out: Vec<Match> = (0..(k * k * k) as usize)
        .flat_map(|tap| {
            let rules = rb.tap(tap);
            rules
                .input
                .iter()
                .zip(&rules.output)
                .map(move |(&i, &o)| (coords[o as usize], tap, coords[i as usize]))
        })
        .collect();
    out.sort_unstable();
    out
}

/// The SDMU's match stream over every active tile, sorted: each tile's
/// SDMU runs under a consumer that pops one match per cycle from the
/// oldest open group (the computing core's MUX order), so shallow FIFOs
/// exert real backpressure. Each entry's site is read back from the
/// activation buffer address the SDMU fetched.
fn sdmu_matches(t: &SparseTensor<Q16>, k: u32, tile: u32, fifo_depth: usize) -> Vec<Match> {
    let enc = EncodedFeatureMap::encode(t, TileShape::cube(tile)).unwrap();
    let grid = enc.tiles().grid();
    let mut trace = PipelineTrace::new(false);
    let mut out = Vec::new();
    let mut first_group = 0;
    for info in enc.tiles().active() {
        let mut sdmu = TileSdmu::new(
            &enc,
            info,
            grid.shape(),
            grid.extent(),
            k,
            fifo_depth,
            2,
            first_group,
        );
        let mut groups: VecDeque<(MatchGroupDesc, usize)> = VecDeque::new();
        let mut cycle = 0;
        while !(sdmu.scan_done() && sdmu.jobs_pending() == 0 && groups.is_empty()) {
            if let Some((desc, popped)) = groups.front_mut() {
                if *popped == desc.total_matches {
                    groups.pop_front();
                } else if let Some(m) = sdmu.fifos.pop_for_group(desc.group) {
                    let site = t.coords()[enc.lines().order()[m.entry] as usize];
                    out.push((desc.centre, m.tap, site));
                    *popped += 1;
                }
            }
            let _ = sdmu.fetch_step(cycle, &mut trace);
            if sdmu.jobs_pending() < 4 {
                if let ScanOutcome::Scanned(Some(desc)) = sdmu.scan_step(cycle, &mut trace) {
                    groups.push_back((desc, 0));
                }
            }
            cycle += 1;
            assert!(cycle < 1_000_000, "SDMU made no progress");
        }
        assert!(sdmu.fifos.is_empty());
        first_group = sdmu.next_group();
    }
    assert_eq!(first_group, t.nnz(), "one match group per active site");
    out.sort_unstable();
    out
}

/// The matches the accelerator's computing core consumed in a traced
/// layer run, as (centre, tap) pairs, sorted: group ordinals follow the
/// state-index spans (one per active centre, in scan order).
fn dispatched_matches(
    t: &SparseTensor<Q16>,
    k: u32,
    tile: u32,
    fifo_depth: usize,
) -> Vec<(Coord3, usize)> {
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(k, 1, 4, 3), 8, 10).unwrap();
    let mut cfg = EscaConfig::default();
    cfg.kernel = k;
    cfg.tile = TileShape::cube(tile);
    cfg.fifo_depth = fifo_depth;
    cfg.record_trace = true;
    let run = Esca::new(cfg).unwrap().run_layer(t, &qw, false).unwrap();
    let spans = run.trace.spans();
    let centres: Vec<Coord3> = spans
        .iter()
        .filter_map(|s| match (s.stage, s.detail) {
            (Stage::GenStateIndex, TraceDetail::Srf(c)) => Some(c),
            _ => None,
        })
        .collect();
    let mut out: Vec<(Coord3, usize)> = spans
        .iter()
        .filter_map(|s| match (s.stage, s.detail) {
            (Stage::Compute, TraceDetail::Match { group, tap }) => Some((centres[group], tap)),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out
}

fn input_strategy() -> impl Strategy<Value = SparseTensor<f32>> {
    (6u32..16).prop_flat_map(|side| {
        let coord = (0..side as i32, 0..side as i32, 0..side as i32)
            .prop_map(|(x, y, z)| Coord3::new(x, y, z));
        proptest::collection::vec((coord, 0.1f32..2.0), 1..50).prop_map(move |entries| {
            let mut t = SparseTensor::new(Extent3::cube(side), 1);
            for (c, v) in entries {
                t.insert(c, &[v]).unwrap();
            }
            t.canonicalize();
            t
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// SDMU match count == rulebook match count == ops counter, for any
    /// input and tile size.
    #[test]
    fn sdmu_and_rulebook_count_identically(
        t in input_strategy(),
        tile_side in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let rb = Rulebook::build(&t, 3);
        let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
        let w = ConvWeights::seeded(3, 1, 4, 1);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let mut cfg = EscaConfig::default();
        cfg.tile = TileShape::cube(tile_side);
        let run = Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap();
        prop_assert_eq!(run.stats.matches, rb.total_matches());
        prop_assert_eq!(run.stats.matches, esca_sscn::ops::count_matches(&t, 3));
    }

    /// Per-tap structure: the rulebook's tap populations sum to the SDMU's
    /// per-group totals (each group contributes one pair per tap hit).
    #[test]
    fn per_site_match_counts_agree(t in input_strategy()) {
        let rb = Rulebook::build(&t, 3);
        // Per-output-site counts from the rulebook.
        let mut per_site = vec![0u64; t.nnz()];
        for tap in 0..27 {
            for &o in &rb.tap(tap).output {
                per_site[o as usize] += 1;
            }
        }
        // Golden per-site count from geometry.
        for (i, (centre, _)) in t.iter().enumerate() {
            let expect = esca_sscn::conv::match_group(&t, 3, centre).len() as u64;
            prop_assert_eq!(per_site[i], expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SDMU match stream equals the rulebook site for site and tap for
    /// tap — including the input site behind every fetched address — for
    /// kernels 3 and 5, every tile side and shallow and deep FIFOs; and
    /// the accelerator's computing core consumes exactly that stream.
    #[test]
    fn sdmu_match_stream_equals_rulebook(
        t in input_strategy(),
        k in prop::sample::select(vec![3u32, 5]),
    ) {
        let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
        let golden = rulebook_matches(&qin, k);
        let golden_pairs: Vec<(Coord3, usize)> = golden.iter().map(|&(c, tap, _)| (c, tap)).collect();
        for tile in [2u32, 4, 8, 16] {
            for fifo_depth in [1usize, 16] {
                prop_assert_eq!(
                    &sdmu_matches(&qin, k, tile, fifo_depth), &golden,
                    "SDMU stream, tile {} fifo {}", tile, fifo_depth
                );
                prop_assert_eq!(
                    &dispatched_matches(&qin, k, tile, fifo_depth), &golden_pairs,
                    "dispatched stream, tile {} fifo {}", tile, fifo_depth
                );
            }
        }
    }
}

#[test]
fn direct_and_flat_kernels_are_bit_exact() {
    // Two independent implementations of one integer function: the
    // golden direct kernel and the flat kernel over the rulebook under
    // the scalar reference backend. The accelerator's layer output is
    // checked too, but it is not a third implementation: `run_layer`
    // takes its output from the same flat `_q` kernel.
    use esca_sscn::engine::{apply_rulebook_flat_q_with, FlatScratch};
    use esca_sscn::gemm::ScalarRef;
    use esca_sscn::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;

    for seed in 0..4u64 {
        let mut t = SparseTensor::<f32>::new(Extent3::cube(12), 3);
        for i in 0..40i32 {
            let c = Coord3::new((i * 7 + seed as i32) % 12, (i * 3) % 12, (i * 5) % 12);
            t.insert(c, &[0.1 * i as f32, -0.05 * i as f32, 0.2])
                .unwrap();
        }
        t.canonicalize();
        let w = ConvWeights::seeded(3, 3, 8, seed + 90);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let qin = quantize_tensor(&t, qw.quant().act);

        let golden = submanifold_conv3d_q(&qin, &qw, true).unwrap();
        let rb = esca_sscn::rulebook::Rulebook::build(&qin, 3);
        let via_rb = apply_rulebook_flat_q_with(
            &qin,
            &rb,
            &qw,
            true,
            &mut FlatScratch::default(),
            &ScalarRef,
        )
        .unwrap();
        let via_esca = Esca::new(EscaConfig::default())
            .unwrap()
            .run_layer(&qin, &qw, true)
            .unwrap()
            .output;

        assert!(
            golden.same_content(&via_rb),
            "rulebook diverged at seed {seed}"
        );
        assert!(
            golden.same_content(&via_esca),
            "accelerator diverged at seed {seed}"
        );
    }
}
