//! Determinism of the streaming engine: the same 16-frame batch, run
//! under different worker counts (and repeatedly under the same count),
//! must produce byte-identical serialized per-frame statistics and
//! identical modeled deployment numbers. Simulated time is a pure
//! function of the workload — host scheduling must never leak into it.

use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn frame(seed: u64) -> SparseTensor<Q16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = SparseTensor::<f32>::new(Extent3::cube(14), 2);
    let n = rng.gen_range(30..90);
    for _ in 0..n {
        let c = Coord3::new(
            rng.gen_range(0..14),
            rng.gen_range(0..14),
            rng.gen_range(0..14),
        );
        let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    quantize_tensor(&t, QuantParams::new(8).unwrap())
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

#[test]
fn sixteen_frame_batch_serializes_identically_across_worker_counts() {
    let frames: Vec<_> = (0..16).map(|i| frame(0x51AB + i)).collect();
    let mut serialized: Vec<String> = Vec::new();
    let mut modeled: Vec<(u64, String)> = Vec::new();
    // Worker counts 1, 2, 8 — plus 8 twice to catch run-to-run races.
    for workers in [1usize, 2, 8, 8] {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, stack(), workers);
        let report = session.run_batch(&frames).unwrap();
        serialized.push(serde_json::to_string(&report.per_frame).unwrap());
        let m = report.modeled(8);
        modeled.push((m.makespan_cycles, format!("{:.6}", m.frames_per_s)));
        // The weights-resident frame 0 is deterministic too.
        serialized
            .last_mut()
            .unwrap()
            .push_str(&serde_json::to_string(&report.steady_frame0).unwrap());
    }
    for (i, s) in serialized.iter().enumerate().skip(1) {
        assert_eq!(
            s, &serialized[0],
            "serialized stats of run {i} differ from run 0"
        );
    }
    for (i, m) in modeled.iter().enumerate().skip(1) {
        assert_eq!(m, &modeled[0], "modeled deployment of run {i} differs");
    }
}

#[test]
fn golden_batch_is_byte_identical_across_splits_for_every_gemm_backend() {
    // The GEMM backend is a throughput knob, never a semantics knob: for
    // each backend the golden-path batch output must be byte-identical
    // across runs and across (workers, shards) splits. On the quantized
    // path the two backends are additionally bit-exact against *each
    // other* (integer accumulation is associative), which this pins too.
    let frames: Vec<_> = (0..8).map(|i| frame(0x6E44 + i)).collect();
    let mut per_kind: Vec<String> = Vec::new();
    for kind in GemmBackendKind::ALL {
        let mut fingerprints: Vec<String> = Vec::new();
        // (2, 1) twice to catch run-to-run races inside one split.
        for (workers, shards) in [(1usize, 1usize), (2, 1), (2, 1), (4, 2)] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, stack(), workers)
                .with_layer_shards(shards)
                .with_gemm_backend(kind);
            let outputs = session.run_golden_batch(&frames).unwrap();
            let mut fp = String::new();
            for t in &outputs {
                for c in t.coords() {
                    fp.push_str(&format!("{},{},{};", c.x, c.y, c.z));
                }
                for f in t.features() {
                    fp.push_str(&format!("{:04x}", f.0 as u16));
                }
                fp.push('\n');
            }
            fingerprints.push(fp);
        }
        for (i, fp) in fingerprints.iter().enumerate().skip(1) {
            assert_eq!(
                fp, &fingerprints[0],
                "{kind}: golden batch of split {i} diverged from the (1,1) baseline"
            );
        }
        per_kind.push(fingerprints.swap_remove(0));
    }
    assert_eq!(
        per_kind[0], per_kind[1],
        "quantized golden outputs must be bit-exact across backends"
    );
}

#[test]
fn cycle_metrics_snapshot_is_byte_identical_across_workers_and_shards() {
    // The determinism contract (DESIGN.md): the cycle-domain half of the
    // telemetry snapshot is a pure function of the workload. Vary both the
    // frame-level worker pool and the intra-layer shard count; the
    // serialized cycle snapshot must not change by a single byte.
    let frames: Vec<_> = (0..16).map(|i| frame(0xC0DE + i)).collect();
    let mut snapshots: Vec<String> = Vec::new();
    for (workers, shards) in [(1usize, 1usize), (2, 1), (4, 1), (2, 2)] {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, stack(), workers).with_layer_shards(shards);
        let report = session.run_batch(&frames).unwrap();
        snapshots.push(serde_json::to_string(&report.telemetry.cycle).unwrap());
    }
    assert!(
        snapshots[0].contains("esca_frame_cycles"),
        "cycle snapshot is missing the per-frame cycle histogram"
    );
    for (i, s) in snapshots.iter().enumerate().skip(1) {
        assert_eq!(
            s, &snapshots[0],
            "cycle snapshot of run {i} differs from the single-worker baseline"
        );
    }
}
