//! Byte-budgeted LRU eviction for the [`RulebookCache`]: eviction may
//! change *when* a rulebook is rebuilt, but must never change what any
//! layer computes — outputs stay byte-identical under any budget (the
//! determinism contract's cache-invariance invariant).

use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, SparseTensor, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A frame with geometry decided by `seed` (distinct seeds give distinct
/// active sets, so each frame needs its own rulebook).
fn frame(seed: u64) -> SparseTensor<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = SparseTensor::new(Extent3::cube(14), 2);
    for _ in 0..60 {
        let c = Coord3::new(
            rng.gen_range(0..14),
            rng.gen_range(0..14),
            rng.gen_range(0..14),
        );
        let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let _ = t.insert(c, &f);
    }
    t.canonicalize();
    t
}

fn layers() -> Vec<(QuantizedWeights, bool)> {
    (0..3)
        .map(|i| {
            let w = ConvWeights::seeded(3, 2, 2, 90 + i);
            let qw = QuantizedWeights::auto(&w, 8, 10).expect("invariant: seeded weights quantize");
            (qw, true)
        })
        .collect()
}

fn quantized_frames(n: u64) -> Vec<SparseTensor<Q16>> {
    let act = layers()[0].0.quant().act;
    (0..n).map(|s| quantize_tensor(&frame(s), act)).collect()
}

#[test]
fn eviction_changes_misses_but_never_outputs() {
    let frames = quantized_frames(6);
    let layers = layers();

    let unbounded = Arc::new(RulebookCache::new());
    let mut ref_engine =
        FlatEngine::with_cache_and_backend(Arc::clone(&unbounded), GemmBackendKind::from_env());
    let reference: Vec<SparseTensor<Q16>> = frames
        .iter()
        .map(|f| {
            ref_engine
                .run_stack_q(f, &layers)
                .expect("reference stack runs")
        })
        .collect();
    assert_eq!(unbounded.evictions(), 0, "unbounded cache never evicts");
    assert_eq!(unbounded.len(), frames.len());

    // A budget of one rulebook: every new geometry evicts the previous
    // one, so the cache thrashes — and nothing downstream may notice.
    let one_book = unbounded.bytes() / frames.len();
    let bounded = Arc::new(RulebookCache::with_capacity_bytes(one_book));
    let mut engine =
        FlatEngine::with_cache_and_backend(Arc::clone(&bounded), GemmBackendKind::from_env());
    for (f, want) in frames.iter().zip(&reference) {
        let got = engine.run_stack_q(f, &layers).expect("bounded stack runs");
        assert_eq!(
            got.coords(),
            want.coords(),
            "storage order differs under eviction"
        );
        assert_eq!(
            got.features(),
            want.features(),
            "values differ under eviction"
        );
    }
    assert!(bounded.evictions() > 0, "tiny budget must evict");
    assert!(
        bounded.len() < frames.len(),
        "bounded cache must hold fewer geometries than were seen"
    );
    assert!(
        bounded.bytes() <= one_book,
        "retained bytes {} exceed budget {one_book}",
        bounded.bytes()
    );
    // Same work, different retention: the bounded run pays extra misses
    // (rebuilds), never extra or different computation.
    assert!(bounded.misses() >= unbounded.misses());
}

#[test]
fn evicted_geometry_rebuilds_to_an_equal_rulebook() {
    let frames = quantized_frames(2);
    let cache = RulebookCache::with_capacity_bytes(1); // evict on every insert
    let first = cache.get_or_build(&frames[0], 3);
    let _second = cache.get_or_build(&frames[1], 3); // evicts frames[0]'s book
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.evictions(), 1);
    let rebuilt = cache.get_or_build(&frames[0], 3);
    assert_eq!(
        cache.misses(),
        3,
        "re-request of an evicted geometry is a miss"
    );
    assert!(!Arc::ptr_eq(&first, &rebuilt), "rebuild allocates fresh");
    assert_eq!(*first, *rebuilt, "rebuild is structurally identical");
}

#[test]
fn lru_prefers_cold_entries_and_spares_hot_ones() {
    let frames = quantized_frames(3);
    let bytes: Vec<usize> = frames
        .iter()
        .map(|f| esca_sscn::rulebook::Rulebook::build(f, 3).heap_bytes())
        .collect();
    // Room for frame 0's book plus either of the other two — so inserting
    // the third geometry must evict exactly one entry.
    let cache = RulebookCache::with_capacity_bytes(bytes[0] + bytes[1].max(bytes[2]));
    cache.get_or_build(&frames[0], 3);
    cache.get_or_build(&frames[1], 3);
    // Touch frame 0 so frame 1 is the least recently used...
    cache.get_or_build(&frames[0], 3);
    // ...then overflow: frame 1's book must be the victim.
    cache.get_or_build(&frames[2], 3);
    assert_eq!(cache.evictions(), 1);
    let hits_before = cache.hits();
    cache.get_or_build(&frames[0], 3);
    assert_eq!(
        cache.hits(),
        hits_before + 1,
        "hot entry survived the eviction"
    );
    cache.get_or_build(&frames[1], 3);
    assert_eq!(cache.misses(), 4, "cold entry was evicted and rebuilds");
}

#[test]
fn unbounded_default_reports_no_capacity() {
    let cache = RulebookCache::new();
    assert_eq!(cache.capacity_bytes(), None);
    let frames = quantized_frames(4);
    for f in &frames {
        cache.get_or_build(f, 3);
    }
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.evictions(), 0);
    assert!(cache.bytes() > 0);
    cache.clear();
    assert_eq!(cache.bytes(), 0);
    assert_eq!(cache.evictions(), 0);
}
