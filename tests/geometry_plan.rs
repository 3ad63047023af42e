//! Suite-level replay and residency invariants of the per-op geometry
//! cache (see DESIGN.md §7.2 "Matching-reuse contract"):
//!
//! * a 16-frame static-scene stream builds its geometry exactly once —
//!   every frame after the first replays the cached rulebook with zero
//!   matching work;
//! * the same holds for the full SS U-Net, which also carries
//!   strided/transpose site maps;
//! * with matching reuse on, the cycle-domain telemetry snapshot stays
//!   byte-identical across (workers, shards) splits and GEMM backends,
//!   with every static frame after the first matching-resident at zero
//!   match cycles;
//! * residency is read from the cache without disturbing it, carries
//!   across batches, and follows eviction;
//! * an LRU-evicting, byte-budgeted cache changes reuse only — never an
//!   output byte;
//! * the ingest runner derives residency exactly like `run_batch`: with
//!   reuse on, admit-all and faults off it matches `run_batch` frame for
//!   frame, and its flight events carry the residency each frame ran
//!   with.

use esca::admission::{AdmissionConfig, Arrival};
use esca::resilience::{BackpressurePolicy, FaultConfig};
use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::unet::{SsUNet, UNetConfig};
use esca_sscn::weights::ConvWeights;
use esca_telemetry::serve::ObservabilityHub;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn geometry(seed: u64, side: u32, n: usize, channels: usize) -> SparseTensor<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = SparseTensor::<f32>::new(Extent3::cube(side), channels);
    for _ in 0..n {
        let c = Coord3::new(
            rng.gen_range(0..side as i32),
            rng.gen_range(0..side as i32),
            rng.gen_range(0..side as i32),
        );
        let f: Vec<f32> = (0..channels).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    t
}

fn frame_q(seed: u64) -> SparseTensor<Q16> {
    quantize_tensor(&geometry(seed, 14, 60, 2), QuantParams::new(8).unwrap())
}

fn stack() -> Vec<(QuantizedWeights, bool)> {
    vec![
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 91), 8, 10).unwrap(),
            true,
        ),
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 92), 8, 10).unwrap(),
            false,
        ),
    ]
}

/// A session over the test stack with matching reuse as given.
fn new_session(reuse: bool) -> StreamingSession {
    let esca = Esca::new(EscaConfig::default()).unwrap();
    StreamingSession::new(esca, stack(), 1).with_matching_reuse(reuse)
}

/// The golden outputs of each frame run alone through a fresh cache: no
/// reuse of any kind.
fn fresh_outputs(frames: &[SparseTensor<Q16>]) -> Vec<SparseTensor<Q16>> {
    let esca = Esca::new(EscaConfig::default()).unwrap();
    frames
        .iter()
        .map(|f| {
            esca.run_network_golden(
                f,
                &stack(),
                &Arc::new(RulebookCache::new()),
                GemmBackendKind::from_env(),
            )
            .unwrap()
        })
        .collect()
}

fn assert_same_outputs(want: &[SparseTensor<Q16>], got: &[SparseTensor<Q16>], what: &str) {
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.coords(), g.coords(), "{what}");
        assert_eq!(w.features(), g.features(), "{what}");
    }
}

#[test]
fn static_scene_stream_replays_the_plan_for_every_frame_after_the_first() {
    let frames: Vec<_> = vec![frame_q(0x9137); 16];
    let want = fresh_outputs(&frames);

    let session = new_session(false);
    let _ = session.run_golden_batch(&frames[..1]).unwrap();
    let cache = session.rulebook_cache();
    let misses_one_frame = cache.misses();
    let got = session.run_golden_batch(&frames).unwrap();
    assert_same_outputs(&want, &got, "cached replay changed an output");

    // Frame 0 builds the geometry; 16 further frames build nothing.
    assert_eq!(misses_one_frame, 1);
    assert_eq!(
        cache.misses(),
        misses_one_frame,
        "repeat frames must not rebuild geometry"
    );
}

#[test]
fn unet_builds_no_geometry_after_the_first_pass() {
    // SS U-Net: Sub-Conv rulebooks + strided/transpose site maps.
    let net = SsUNet::new(UNetConfig {
        input_channels: 1,
        levels: 2,
        base_channels: 8,
        blocks_per_level: 1,
        classes: 4,
        kernel: 3,
        seed: 77,
    })
    .unwrap();
    let input = geometry(0xA11CE, 24, 250, 1);
    let mut engine = FlatEngine::with_backend(GemmBackendKind::ScalarRef);
    let first = net.forward_engine(&input, &mut engine).unwrap();
    let (misses, bytes) = (engine.cache().misses(), engine.cache().bytes());
    for _ in 1..16 {
        let again = net.forward_engine(&input, &mut engine).unwrap();
        assert_eq!(again.coords(), first.coords());
        assert_eq!(again.features(), first.features(), "replay diverged");
    }
    assert_eq!(
        engine.cache().misses(),
        misses,
        "repeat passes must not rebuild rulebooks or site maps"
    );
    assert_eq!(
        engine.cache().bytes(),
        bytes,
        "repeat passes must not grow the cache"
    );
}

#[test]
fn plan_hit_cycle_telemetry_is_byte_identical_across_splits_and_backends() {
    // The cycle model derives matching-residency hints before any frame
    // is submitted, so resident frames must not cost a byte of
    // cycle-domain determinism: same snapshot for every (workers, shards)
    // split and every GEMM backend.
    let frames: Vec<_> = vec![frame_q(0xD15C); 8];
    let mut snapshots: Vec<String> = Vec::new();
    for kind in GemmBackendKind::ALL {
        for (workers, shards) in [(1usize, 1usize), (2, 1), (4, 1), (2, 2)] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, stack(), workers)
                .with_layer_shards(shards)
                .with_gemm_backend(kind)
                .with_matching_reuse(true);
            let report = session.run_batch(&frames).unwrap();
            // Zero-matching steady state: every frame after the first is
            // matching-resident and charges no match cycles.
            for (i, s) in report.per_frame.iter().enumerate().skip(1) {
                assert!(s.matching_resident, "frame {i} not matching-resident");
                assert_eq!(s.match_cycles, 0, "frame {i} charged match cycles");
            }
            assert!(!report.per_frame[0].matching_resident);
            assert!(report.per_frame[0].match_cycles > 0);
            snapshots.push(serde_json::to_string(&report.telemetry.cycle).unwrap());
        }
    }
    assert!(snapshots[0].contains("esca_stream_resident_frames_total"));
    assert!(snapshots[0].contains("esca_match_cycles_total"));
    for (i, s) in snapshots.iter().enumerate().skip(1) {
        assert_eq!(
            s, &snapshots[0],
            "cycle snapshot of run {i} differs under matching reuse"
        );
    }
}

#[test]
fn evicting_plan_cache_changes_throughput_only_never_outputs() {
    // Alternate two geometries through a cache that can hold only one
    // rulebook: constant LRU eviction, zero result drift.
    let a = frame_q(0xAAAA);
    let b = frame_q(0xBBBB);
    let frames: Vec<_> = (0..8)
        .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
        .collect();
    let want = fresh_outputs(&frames);

    let tiny = Arc::new(RulebookCache::with_capacity_bytes(1));
    let session = new_session(false).with_rulebook_cache(Arc::clone(&tiny));
    let got = session.run_golden_batch(&frames).unwrap();
    assert_same_outputs(&want, &got, "eviction changed an output");
    assert!(
        tiny.evictions() > 0,
        "the 1-byte budget must actually evict"
    );
    assert!(
        tiny.bytes() > 0 && tiny.len() == 1,
        "one rulebook stays resident"
    );

    // Unbounded cache over the same batch: same bytes out, better reuse.
    let roomy = Arc::new(RulebookCache::new());
    let session = new_session(false).with_rulebook_cache(Arc::clone(&roomy));
    let got = session.run_golden_batch(&frames).unwrap();
    assert_same_outputs(&want, &got, "unbounded cache changed an output");
    assert_eq!((roomy.misses(), roomy.hits()), (2, 14));
    assert_eq!(roomy.evictions(), 0);
    assert!(
        roomy.hits() > tiny.hits(),
        "the budget must only cost reuse"
    );
}

#[test]
fn residency_probe_leaves_counters_and_lru_order_unchanged() {
    // Three translates of one shape: equal-sized rulebooks, so a budget
    // of exactly two entries evicts exactly one on the third insert.
    let shape = geometry(0xC0DE, 8, 40, 1);
    let shifted = |dx: i32| {
        let mut t = SparseTensor::<f32>::new(Extent3::cube(24), 1);
        for (c, f) in shape.iter() {
            t.insert(Coord3::new(c.x + dx, c.y, c.z), f).unwrap();
        }
        t.canonicalize();
        t
    };
    let (a, b, c) = (shifted(0), shifted(8), shifted(16));
    let one = RulebookCache::new();
    let _ = one.get_or_build(&a, 3);
    let cache = RulebookCache::with_capacity_bytes(2 * one.bytes());
    let _ = cache.get_or_build(&a, 3);
    let _ = cache.get_or_build(&b, 3);
    assert_eq!(
        cache.bytes(),
        2 * one.bytes(),
        "translates must be equal-sized"
    );

    // Probing `a` — the least recently used entry — counts nothing and
    // does not refresh it.
    let counts = (cache.hits(), cache.misses(), cache.evictions());
    for _ in 0..3 {
        assert!(cache.contains_rulebook(&a, 3));
        assert!(
            !cache.contains_rulebook(&a, 5),
            "kernel size is part of the key"
        );
        assert!(!cache.contains_rulebook(&c, 3));
    }
    assert_eq!((cache.hits(), cache.misses(), cache.evictions()), counts);

    // So the next insert still evicts `a`, not `b`.
    let _ = cache.get_or_build(&c, 3);
    assert_eq!(cache.evictions(), 1);
    assert!(
        !cache.contains_rulebook(&a, 3),
        "probe refreshed the LRU clock"
    );
    assert!(cache.contains_rulebook(&b, 3));
    assert!(cache.contains_rulebook(&c, 3));
}

#[test]
fn golden_batch_leaves_the_next_batch_resident_from_frame_zero() {
    let frames: Vec<_> = vec![frame_q(0x5EED); 3];
    let reference = new_session(false).run_batch(&frames).unwrap();

    let session = new_session(true);
    let golden = session.run_golden_batch(&frames[..1]).unwrap();
    assert_same_outputs(&reference.outputs[..1], &golden, "golden path diverged");
    let warm = session.run_batch(&frames).unwrap();
    assert_same_outputs(
        &reference.outputs,
        &warm.outputs,
        "residency changed an output",
    );
    for (i, s) in warm.per_frame.iter().enumerate() {
        assert!(s.matching_resident, "frame {i} not matching-resident");
        assert_eq!(s.match_cycles, 0, "frame {i} charged match cycles");
    }
}

#[test]
fn evicted_geometry_is_not_resident_in_the_next_batch() {
    let a = frame_q(0xE1);
    let b = frame_q(0xE2);
    let frames = vec![a.clone(), b.clone()];
    let reference = new_session(false).run_batch(&frames).unwrap();

    // The 1-byte budget keeps only the last geometry built: `b`.
    let tiny = Arc::new(RulebookCache::with_capacity_bytes(1));
    let session = new_session(true).with_rulebook_cache(Arc::clone(&tiny));
    let _ = session.run_golden_batch(&frames).unwrap();
    let report = session.run_batch(&frames).unwrap();
    assert!(
        !report.per_frame[0].matching_resident,
        "evicted `a` resident"
    );
    assert_eq!(report.per_frame[0], reference.per_frame[0]);
    assert!(report.per_frame[1].matching_resident, "resident `b` missed");
    assert_eq!(report.per_frame[1].match_cycles, 0);
    assert_same_outputs(
        &reference.outputs,
        &report.outputs,
        "eviction changed an output",
    );
}

#[test]
fn ingest_with_reuse_matches_run_batch_frame_for_frame() {
    // Both cycle runners derive residency the same way: with matching
    // reuse on, admit-all admission and faults off, the ingest path runs
    // every frame with the residency `run_batch` gives it — same outputs,
    // same per-frame stats — and its flight events say so.
    let (a, b) = (frame_q(0xF1), frame_q(0xF2));
    let frames = vec![a.clone(), a.clone(), b.clone(), a, b];
    let reference = new_session(true).run_batch(&frames).unwrap();
    let resident: Vec<bool> = reference
        .per_frame
        .iter()
        .map(|s| s.matching_resident)
        .collect();
    assert_eq!(resident, vec![false, true, false, true, true]);

    let hub = Arc::new(ObservabilityHub::new());
    let session = new_session(true).with_hub(Arc::clone(&hub));
    let arrivals: Vec<Arrival> = (0..frames.len())
        .map(|frame| Arrival {
            frame,
            tenant: 0,
            at_cycle: 0,
        })
        .collect();
    let admit_all = AdmissionConfig::one_burst(None, BackpressurePolicy::RejectNew, frames.len());
    let report = session
        .run_batch_ingest(&frames, &arrivals, &FaultConfig::off(7), &admit_all)
        .unwrap();
    let outputs: Vec<SparseTensor<Q16>> = report.outputs.into_iter().map(Option::unwrap).collect();
    assert_same_outputs(&reference.outputs, &outputs, "ingest changed an output");
    let per_frame: Vec<_> = report.per_frame.into_iter().map(Option::unwrap).collect();
    assert_eq!(per_frame, reference.per_frame);

    let mut events = hub.flight().events();
    events.sort_by_key(|e| e.frame);
    let flight: Vec<bool> = events.iter().map(|e| e.matching_resident).collect();
    assert_eq!(flight, resident);
}
