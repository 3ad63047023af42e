//! Equivalence of every parallel execution path with its sequential
//! reference, over seeded random workloads:
//!
//! * `submanifold_conv3d_par` ≡ `submanifold_conv3d` (float kernels);
//! * the sharded tile walk (`LayerOpts::shards`) ≡ the single-thread one
//!   — same output *and* the same [`CycleStats`], telemetry and trace,
//!   bit for bit;
//! * [`StreamingSession`] batches ≡ the per-frame sequential stream, for
//!   worker counts 1, 2 and 8, with and without layer sharding;
//! * the flat matching-reuse engine ([`esca_sscn::engine`]) ≡ the direct
//!   per-layer path — outputs bit-identical on a full SS U-Net pass, and
//!   [`CycleStats`]/[`esca::PipelineTrace`] byte-identical at any rulebook
//!   cache setting (the golden path never touches the cycle model).

use esca::streaming::StreamingSession;
use esca::{CycleStats, Esca, EscaConfig, LayerOpts};
use esca_sscn::conv::submanifold_conv3d;
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::par::submanifold_conv3d_par;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::unet::{SsUNet, UNetConfig};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_sparse(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = SparseTensor::<f32>::new(Extent3::cube(side), ch);
    for _ in 0..n {
        let c = Coord3::new(
            rng.gen_range(0..side as i32),
            rng.gen_range(0..side as i32),
            rng.gen_range(0..side as i32),
        );
        let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    t
}

fn random_qinput(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<Q16> {
    quantize_tensor(
        &random_sparse(seed, side, ch, n),
        QuantParams::new(8).unwrap(),
    )
}

#[test]
fn par_conv_matches_sequential_across_shapes() {
    // (extent, in_ch, out_ch, nnz) across small/odd/wide shapes.
    let cases = [
        (8u32, 1usize, 1usize, 5usize),
        (12, 2, 8, 40),
        (16, 3, 5, 120),
        (20, 8, 16, 300),
        (24, 16, 4, 64),
    ];
    for (i, &(side, ic, oc, n)) in cases.iter().enumerate() {
        let input = random_sparse(1000 + i as u64, side, ic, n);
        let w = ConvWeights::seeded(3, ic, oc, 2000 + i as u64);
        let seq = submanifold_conv3d(&input, &w).unwrap();
        let par = submanifold_conv3d_par(&input, &w).unwrap();
        assert!(
            par.same_content(&seq),
            "par conv diverged on case {i} ({side}³, {ic}->{oc}, nnz {n})"
        );
    }
}

/// Default layer options with the tile loop split across `shards` threads.
fn shards(shards: usize) -> LayerOpts {
    LayerOpts {
        shards,
        ..LayerOpts::default()
    }
}

#[test]
fn sharded_layer_matches_sequential_bit_for_bit() {
    let esca = Esca::new(EscaConfig::default()).unwrap();
    for (i, &(side, ic, oc, n)) in [
        (12u32, 2usize, 8usize, 60usize),
        (16, 3, 4, 150),
        (24, 1, 16, 400),
    ]
    .iter()
    .enumerate()
    {
        let qin = random_qinput(3000 + i as u64, side, ic, n);
        let w = ConvWeights::seeded(3, ic, oc, 4000 + i as u64);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let seq = esca.run_layer(&qin, &qw, true).unwrap();
        for workers in [1usize, 2, 3, 8] {
            let par = esca
                .run_layer_with(&qin, &qw, true, shards(workers))
                .unwrap();
            assert!(
                par.output.same_content(&seq.output),
                "sharded output diverged (case {i}, {workers} workers)"
            );
            assert_eq!(
                par.stats, seq.stats,
                "sharded cycle stats diverged (case {i}, {workers} workers)"
            );
            assert_eq!(
                par.telemetry, seq.telemetry,
                "sharded telemetry diverged (case {i}, {workers} workers)"
            );
            assert_eq!(
                par.trace, seq.trace,
                "sharded trace diverged (case {i}, {workers} workers)"
            );
        }
    }
}

#[test]
fn sharded_layer_preserves_trace_and_weight_residency() {
    let mut cfg = EscaConfig::default();
    cfg.record_trace = true;
    let esca = Esca::new(cfg).unwrap();
    let qin = random_qinput(42, 16, 2, 120);
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 43), 8, 10).unwrap();
    // Traces concatenate in tile order: identical to sequential emission.
    let seq = esca.run_layer(&qin, &qw, false).unwrap();
    let par = esca.run_layer_with(&qin, &qw, false, shards(4)).unwrap();
    assert_eq!(par.trace, seq.trace);
    // Weights-resident accounting (the streaming steady state) matches too.
    let seq_res = esca.run_layer_opts(&qin, &qw, false, false).unwrap();
    let par_res = esca
        .run_layer_with(
            &qin,
            &qw,
            false,
            LayerOpts {
                load_weights: false,
                ..shards(4)
            },
        )
        .unwrap();
    assert_eq!(par_res.stats, seq_res.stats);
    assert!(seq_res.stats.total_cycles() < seq.stats.total_cycles());
}

#[test]
fn sharded_layer_single_worker_delegates() {
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let qin = random_qinput(7, 12, 2, 50);
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 4, 8), 8, 10).unwrap();
    let a = esca.run_layer_with(&qin, &qw, true, shards(1)).unwrap();
    let b = esca.run_layer(&qin, &qw, true).unwrap();
    assert!(a.output.same_content(&b.output));
    assert_eq!(a.stats, b.stats);
}

fn stream_stack() -> Vec<(QuantizedWeights, bool)> {
    vec![
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 61), 8, 10).unwrap(),
            true,
        ),
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 8, 62), 8, 10).unwrap(),
            true,
        ),
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 63), 8, 10).unwrap(),
            false,
        ),
    ]
}

#[test]
fn streaming_session_matches_sequential_stream_for_all_worker_counts() {
    let frames: Vec<_> = (0..6).map(|i| random_qinput(500 + i, 14, 2, 70)).collect();
    let stack = stream_stack();
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let seq: Vec<CycleStats> = esca.run_network_stream(&frames, &stack).unwrap();
    let seq_outputs: Vec<_> = frames
        .iter()
        .map(|f| esca.run_network(f, &stack).unwrap().output)
        .collect();
    for workers in [1usize, 2, 8] {
        let session = StreamingSession::new(esca.clone(), stack.clone(), workers);
        let report = session.run_batch(&frames).unwrap();
        assert_eq!(
            report.per_frame, seq,
            "per-frame stats diverged at {workers} workers"
        );
        for (i, (got, want)) in report.outputs.iter().zip(&seq_outputs).enumerate() {
            assert!(
                got.same_content(want),
                "frame {i} output diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn flat_engine_unet_forward_is_bit_identical() {
    // The paper-scale SS U-Net structure (3 levels, 11 Sub-Conv layers)
    // on a moderate blob: the flat gather→GEMM→scatter path through the
    // rulebook cache must reproduce the direct path bit for bit, with one
    // matching pass per resolution level.
    let net = SsUNet::new(UNetConfig::default()).unwrap();
    let input = {
        let mut t = random_sparse(8800, 32, 1, 900);
        // Occupancy-style strictly positive features.
        let feats: Vec<f32> = t.features().iter().map(|v| v.abs() + 0.1).collect();
        t = SparseTensor::from_template(&t, 1, feats).unwrap();
        t
    };
    let direct = net.forward(&input).unwrap();
    let mut engine = FlatEngine::with_backend(GemmBackendKind::ScalarRef);
    let flat = net.forward_engine(&input, &mut engine).unwrap();
    assert_eq!(flat.coords(), direct.coords(), "storage order differs");
    assert_eq!(flat.features(), direct.features(), "values differ");
    // 11 Sub-Conv layers over 3 geometries: 3 rulebook builds, 8 reuses.
    // The 2 strided and 2 transpose site maps also live in the geometry
    // cache now, each built once per pass: 3 + 4 = 7 misses total.
    assert_eq!(engine.cache().misses(), 7);
    assert_eq!(engine.cache().hits(), 8);

    // The blocked tier over the same pass: epsilon-bounded against the
    // direct path, and byte-identical when repeated (determinism holds
    // in every tier, across engine instances).
    let mut fast = FlatEngine::with_backend(GemmBackendKind::Blocked);
    let blocked = net.forward_engine(&input, &mut fast).unwrap();
    assert_eq!(blocked.coords(), direct.coords());
    for (x, y) in blocked.features().iter().zip(direct.features()) {
        assert!(
            (x - y).abs() <= 1e-4 * y.abs().max(1.0),
            "blocked tier outside epsilon: {x} vs {y}"
        );
    }
    let mut fast2 = FlatEngine::with_backend(GemmBackendKind::Blocked);
    let blocked2 = net.forward_engine(&input, &mut fast2).unwrap();
    assert_eq!(blocked.features(), blocked2.features());
}

#[test]
fn golden_batch_is_bit_identical_and_stats_are_cache_invariant() {
    let frames: Vec<_> = (0..4).map(|i| random_qinput(900 + i, 14, 2, 80)).collect();
    let stack = stream_stack();
    let esca = Esca::new(EscaConfig::default()).unwrap();

    // Reference: the simulated batch, before any golden-path run.
    let session = StreamingSession::new(esca.clone(), stack.clone(), 2);
    let before = session.run_batch(&frames).unwrap();

    // Golden outputs match the simulated outputs bitwise — with a fresh
    // cache and with a pre-warmed shared one. Quantized accumulation is
    // integer-exact, so this holds under *every* GEMM backend.
    for kind in GemmBackendKind::ALL {
        let tier = StreamingSession::new(esca.clone(), stack.clone(), 2).with_gemm_backend(kind);
        let outs = tier.run_golden_batch(&frames).unwrap();
        for (g, o) in outs.iter().zip(&before.outputs) {
            assert_eq!(g.coords(), o.coords());
            assert_eq!(
                g.features(),
                o.features(),
                "golden batch diverged under the {kind} backend"
            );
        }
    }
    let fresh = session.run_golden_batch(&frames).unwrap();
    let warmed_cache = Arc::new(RulebookCache::new());
    for f in &frames {
        warmed_cache.get_or_build(f, 3);
    }
    let session2 = StreamingSession::new(esca.clone(), stack.clone(), 1)
        .with_rulebook_cache(Arc::clone(&warmed_cache));
    let warmed = session2.run_golden_batch(&frames).unwrap();
    for ((g, w), o) in fresh.iter().zip(&warmed).zip(&before.outputs) {
        assert_eq!(g.coords(), o.coords());
        assert_eq!(g.features(), o.features());
        assert_eq!(w.features(), o.features(), "cache warmth changed values");
    }
    assert_eq!(warmed_cache.misses(), 4, "all warmed lookups must hit");

    // Simulated per-frame stats are byte-identical after golden-path use:
    // the cache can never perturb the cycle model.
    let after = session.run_batch(&frames).unwrap();
    assert_eq!(before.per_frame, after.per_frame);
}

#[test]
fn pipeline_trace_is_invariant_under_golden_engine_use() {
    let mut cfg = EscaConfig::default();
    cfg.record_trace = true;
    let esca = Esca::new(cfg).unwrap();
    let qin = random_qinput(77, 16, 2, 120);
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 78), 8, 10).unwrap();
    let before = esca.run_layer(&qin, &qw, true).unwrap();
    let cache = Arc::new(RulebookCache::new());
    let golden = esca
        .run_network_golden(
            &qin,
            &[(qw.clone(), true)],
            &cache,
            GemmBackendKind::from_env(),
        )
        .unwrap();
    assert!(golden.same_content(&before.output));
    let after = esca.run_layer(&qin, &qw, true).unwrap();
    assert_eq!(after.trace, before.trace, "trace must not depend on cache");
    assert_eq!(after.stats, before.stats);
}

#[test]
fn streaming_session_with_layer_shards_is_still_exact() {
    let frames: Vec<_> = (0..3).map(|i| random_qinput(700 + i, 16, 2, 130)).collect();
    let stack = stream_stack();
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let seq = esca.run_network_stream(&frames, &stack).unwrap();
    let session = StreamingSession::new(esca, stack, 2).with_layer_shards(4);
    let report = session.run_batch(&frames).unwrap();
    assert_eq!(report.per_frame, seq);
}
