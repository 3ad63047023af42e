//! Committed chaos vectors: the resilient streaming path's fault campaign
//! pinned as data.
//!
//! `chaos_streaming.rs` checks the campaign's invariants; this suite pins
//! its exact results, so a change to the cycle model or to the resilience
//! layer that moves a frame's fate, cycle cost or output shows up as a
//! diff. For fault seeds 7, 11 and 19, each under full detection and with
//! detection off (so undetected faults corrupt outputs silently), it
//! records the campaign summary (per-frame outcome, attempts, fault
//! labels, spent cycles and the fault counters), each frame's
//! `CycleStats`, an FNV hash of each frame's output — silently
//! corrupted outputs included — and the cycle half of the campaign's
//! telemetry snapshot.
//!
//! The rendered JSON must equal `tests/fixtures/chaos_vector.json` byte
//! for byte. Regenerate (only after an *intentional* change) with
//! `cargo test -p esca --test chaos_vectors -- --ignored regenerate` and
//! commit the rewritten file.

use esca::resilience::{CampaignSummary, DetectionModel, FaultConfig};
use esca::streaming::StreamingSession;
use esca::{CycleStats, Esca, EscaConfig};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_telemetry::MetricsSnapshot;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::Serialize;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/chaos_vector.json")
}

/// A 16³ frame of 40 random sites with two channels (as in
/// `chaos_streaming.rs`).
fn frame(seed: u64) -> SparseTensor<Q16> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut t = SparseTensor::<f32>::new(Extent3::cube(16), 2);
    for _ in 0..40 {
        let c = Coord3::new(
            rng.gen_range(0..16),
            rng.gen_range(0..16),
            rng.gen_range(0..16),
        );
        let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    quantize_tensor(&t, QuantParams::new(8).unwrap())
}

fn layers() -> Vec<(QuantizedWeights, bool)> {
    vec![
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 21), 8, 10).unwrap(),
            true,
        ),
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 22), 8, 10).unwrap(),
            false,
        ),
    ]
}

/// FNV-1a over every output site and feature, in storage order.
fn output_hash(out: &SparseTensor<Q16>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (c, f) in out.iter() {
        for v in [c.x, c.y, c.z] {
            eat(&v.to_le_bytes());
        }
        for q in f {
            eat(&q.0.to_le_bytes());
        }
    }
    format!("{h:016x}")
}

#[derive(Serialize)]
struct CampaignVector {
    seed: u64,
    detection: &'static str,
    summary: CampaignSummary,
    per_frame: Vec<Option<CycleStats>>,
    output_hashes: Vec<Option<String>>,
    /// The cycle half of the campaign's telemetry snapshot.
    telemetry_cycle: MetricsSnapshot,
}

#[derive(Serialize)]
struct ChaosVector {
    campaigns: Vec<CampaignVector>,
}

fn vector() -> ChaosVector {
    let frames: Vec<_> = (0..8).map(|i| frame(i + 1200)).collect();
    let mut campaigns = Vec::new();
    for seed in [7u64, 11, 19] {
        for (detection, model) in [
            ("full", DetectionModel::full()),
            ("none", DetectionModel::none()),
        ] {
            let mut cfg = FaultConfig::campaign(seed);
            cfg.detection = model;
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let report = StreamingSession::new(esca, layers(), 2)
                .run_batch_resilient(&frames, &cfg)
                .unwrap();
            campaigns.push(CampaignVector {
                seed,
                detection,
                summary: report.summary(),
                per_frame: report.per_frame,
                output_hashes: report
                    .outputs
                    .iter()
                    .map(|o| o.as_ref().map(output_hash))
                    .collect(),
                telemetry_cycle: report.telemetry.cycle,
            });
        }
    }
    ChaosVector { campaigns }
}

fn render(v: &ChaosVector) -> String {
    serde_json::to_string_pretty(v).unwrap() + "\n"
}

#[test]
fn chaos_campaigns_reproduce_committed_vector() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once and commit the file");
    let actual = vector();
    // The vector must exercise what it claims to pin.
    assert!(
        actual
            .campaigns
            .iter()
            .any(|c| c.summary.counters.silent_corruptions > 0),
        "no campaign corrupted an output silently"
    );
    let rendered = render(&actual);
    for (n, (a, e)) in rendered.lines().zip(committed.lines()).enumerate() {
        assert_eq!(a, e, "line {} drifted from the committed vector", n + 1);
    }
    assert!(
        rendered == committed,
        "rendered vector differs from the committed file"
    );
}

#[test]
#[ignore = "writes the fixture; run once after an intentional change"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&vector())).unwrap();
}
