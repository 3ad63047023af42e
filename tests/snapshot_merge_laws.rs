//! Algebraic laws of telemetry merging, checked at the serialized-byte
//! level: folding per-worker registries into a campaign total must be
//! commutative and associative, because the streaming engines fold
//! worker results in completion order while the determinism contract
//! promises a byte-identical cycle snapshot. Exercised over randomized
//! registries (seeded `StdRng`, exhaustively replayable) that include
//! the real metric families — `esca_rulebook_cache_*`, the fault counters,
//! per-frame cycle histograms — alongside hostile generic names.

use esca_telemetry::{Registry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// A randomized registry drawing from the production family names so
/// the law is checked on the series the engine actually emits.
fn random_registry(rng: &mut StdRng) -> Registry {
    let mut reg = Registry::new();
    let classes = [
        "bram_bit_flip",
        "fifo_bit_flip",
        "frame_corrupt",
        "worker_panic",
        "stall",
        "rulebook_corrupt",
    ];
    let outcomes = ["ok", "retried", "failed", "dropped"];
    for _ in 0..rng.gen_range(0..6) {
        let class = classes[rng.gen_range(0..classes.len())];
        reg.counter_add(
            "esca_faults_injected_total",
            &[("class", class)],
            rng.gen_range(0..50),
        );
        if rng.gen_bool(0.5) {
            reg.counter_add(
                "esca_faults_detected_total",
                &[("class", class)],
                rng.gen_range(0..50),
            );
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        let outcome = outcomes[rng.gen_range(0..outcomes.len())];
        reg.counter_add(
            "esca_frames_outcome_total",
            &[("outcome", outcome)],
            rng.gen_range(0..20),
        );
    }
    if rng.gen_bool(0.7) {
        reg.counter_add("esca_rulebook_cache_hits_total", &[], rng.gen_range(0..100));
        reg.counter_add(
            "esca_rulebook_cache_misses_total",
            &[],
            rng.gen_range(0..100),
        );
        reg.counter_add(
            "esca_rulebook_cache_evictions_total",
            &[],
            rng.gen_range(0..10),
        );
        reg.gauge_max(
            "esca_rulebook_cache_resident_bytes",
            &[],
            rng.gen_range(0..1 << 20),
        );
        reg.gauge_max("esca_rulebook_cache_entries", &[], rng.gen_range(0..32));
    }
    for _ in 0..rng.gen_range(0..20) {
        reg.observe("esca_frame_cycles", &[], rng.gen_range(0..1 << 24));
    }
    if rng.gen_bool(0.4) {
        // A hostile family name and label value: merging must treat
        // them as opaque keys, never parse or normalize them.
        reg.observe(
            "esca_weird_latency",
            &[("path", "C:\\data\n\"q\"")],
            rng.gen_range(0..1 << 10),
        );
    }
    if rng.gen_bool(0.5) {
        reg.gauge_max("esca_fifo_peak", &[("fifo", "0")], rng.gen_range(0..4096));
    }
    reg
}

/// Serializes the pair (cycle = the merged registry, host = empty) so
/// equality is judged on exactly the bytes CI artifacts carry.
fn bytes(reg: &Registry) -> String {
    let empty = Registry::new();
    let snap = TelemetrySnapshot::from_registries(reg, &empty);
    let json = serde_json::to_string(&snap).unwrap();
    // The Prometheus rendering must agree too (same sorted series).
    format!("{json}\u{0}{}", snap.to_prometheus_text())
}

fn merged(parts: &[&Registry]) -> Registry {
    let mut total = Registry::new();
    for p in parts {
        total.merge(p);
    }
    total
}

#[test]
fn registry_merge_is_commutative_at_the_byte_level() {
    let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
    for case in 0..CASES {
        let a = random_registry(&mut rng);
        let b = random_registry(&mut rng);
        assert_eq!(
            bytes(&merged(&[&a, &b])),
            bytes(&merged(&[&b, &a])),
            "case {case}: a+b != b+a"
        );
    }
}

#[test]
fn registry_merge_is_associative_at_the_byte_level() {
    let mut rng = StdRng::seed_from_u64(0xA550C);
    for case in 0..CASES {
        let a = random_registry(&mut rng);
        let b = random_registry(&mut rng);
        let c = random_registry(&mut rng);
        let left = {
            let ab = merged(&[&a, &b]);
            merged(&[&ab, &c])
        };
        let right = {
            let bc = merged(&[&b, &c]);
            merged(&[&a, &bc])
        };
        assert_eq!(
            bytes(&left),
            bytes(&right),
            "case {case}: (a+b)+c != a+(b+c)"
        );
        // Any completion-order permutation of three workers agrees.
        let perm = merged(&[&c, &a, &b]);
        assert_eq!(
            bytes(&left),
            bytes(&perm),
            "case {case}: permutation diverged"
        );
    }
}

#[test]
fn merge_identity_and_self_fold_are_stable() {
    let mut rng = StdRng::seed_from_u64(0x1D);
    for case in 0..CASES {
        let a = random_registry(&mut rng);
        // Empty registry is the identity element.
        assert_eq!(
            bytes(&merged(&[&a, &Registry::new()])),
            bytes(&a),
            "case {case}: a+0 != a"
        );
        // Counters sum and histograms add on self-merge; gauges (high-
        // water marks) are idempotent. Checked via the fold semantics:
        // merging a into itself twice equals merging two clones.
        let twice = merged(&[&a, &a]);
        let clone_fold = {
            let b = merged(&[&a]);
            merged(&[&a, &b])
        };
        assert_eq!(bytes(&twice), bytes(&clone_fold), "case {case}");
    }
}
