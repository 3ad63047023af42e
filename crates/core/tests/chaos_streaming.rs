//! Chaos suite for the fault-injection and graceful-degradation layer.
//!
//! Invariants under test (DESIGN.md §9):
//!
//! 1. a campaign is **replay-identical**: the same seed produces the same
//!    fault sites, the same per-frame outcomes, and the same cycle-domain
//!    telemetry for any worker or shard count;
//! 2. frames no undetected fault touched are **byte-identical** to a
//!    fault-free run — outputs and per-frame cycle stats;
//! 3. `run_batch_resilient` always returns a **complete report** — one
//!    entry per input frame, no hangs, no lost frames — even when every
//!    attempt panics;
//! 4. degradation is policy-shaped: bounded admission, cycle deadlines
//!    and the rulebook→direct-kernel fallback all behave as configured.

use esca::admission::{AdmissionConfig, Arrival};
use esca::resilience::{BackpressurePolicy, DetectionModel, DropReason, FaultConfig, FrameOutcome};
use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

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

fn session(workers: usize) -> StreamingSession {
    let esca = Esca::new(EscaConfig::default()).unwrap();
    StreamingSession::new(esca, layers(), workers)
}

#[test]
fn campaign_replays_exactly_across_worker_counts() {
    let frames: Vec<_> = (0..6).map(|i| frame(i + 400)).collect();
    let cfg = FaultConfig::campaign(0xC4A5);
    let a = session(1).run_batch_resilient(&frames, &cfg).unwrap();
    let b = session(4).run_batch_resilient(&frames, &cfg).unwrap();
    // Same fault sites, same verdicts, same outcomes — record for record.
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.counters, b.counters);
    // Outputs (where present) are bitwise equal too.
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        match (x, y) {
            (Some(x), Some(y)) => {
                assert_eq!(x.coords(), y.coords());
                assert_eq!(x.features(), y.features());
            }
            (None, None) => {}
            _ => panic!("completion fate differs between worker counts"),
        }
    }
    // The campaign actually exercised the injector.
    assert!(a.counters.total_injected() > 0, "campaign injected nothing");
}

#[test]
fn healthy_frames_are_byte_identical_to_fault_free_run() {
    let frames: Vec<_> = (0..6).map(|i| frame(i + 500)).collect();
    let clean = session(2).run_batch(&frames).unwrap();
    for workers in [1usize, 3] {
        let report = session(workers)
            .run_batch_resilient(&frames, &FaultConfig::campaign(0xFEED))
            .unwrap();
        assert_eq!(report.frames.len(), frames.len());
        let healthy = report.healthy_frames();
        assert!(
            !healthy.is_empty(),
            "campaign left no healthy frame to compare"
        );
        for idx in healthy {
            let out = report.outputs[idx]
                .as_ref()
                .expect("healthy frame has an output");
            assert_eq!(out.coords(), clean.outputs[idx].coords());
            assert_eq!(out.features(), clean.outputs[idx].features());
            let stats = report.per_frame[idx]
                .as_ref()
                .expect("healthy frame has stats");
            assert_eq!(stats, &clean.per_frame[idx], "cycle stats drifted");
        }
    }
}

#[test]
fn injection_off_is_equivalent_to_plain_streaming() {
    let frames: Vec<_> = (0..4).map(|i| frame(i + 550)).collect();
    let clean = session(2).run_batch(&frames).unwrap();
    let report = session(2)
        .run_batch_resilient(&frames, &FaultConfig::off(1))
        .unwrap();
    assert_eq!(report.counters.total_injected(), 0);
    assert_eq!(report.completed(), frames.len());
    for (idx, out) in report.outputs.iter().enumerate() {
        let out = out.as_ref().expect("all frames complete");
        assert_eq!(out.features(), clean.outputs[idx].features());
        assert_eq!(
            report.per_frame[idx].as_ref().expect("stats present"),
            &clean.per_frame[idx]
        );
    }
    assert!(report.frames.iter().all(|f| f.outcome == FrameOutcome::Ok));
}

#[test]
fn report_is_complete_even_when_every_attempt_panics() {
    let frames: Vec<_> = (0..5).map(|i| frame(i + 600)).collect();
    let mut cfg = FaultConfig::off(3);
    cfg.rates.worker_panic = 1.0;
    let report = session(3).run_batch_resilient(&frames, &cfg).unwrap();
    // No hang, no lost frame: every frame reports, none completed.
    assert_eq!(report.frames.len(), 5);
    assert_eq!(report.completed(), 0);
    for fr in &report.frames {
        assert_eq!(fr.attempts, cfg.recovery.max_retries + 1);
        assert!(
            matches!(
                &fr.outcome,
                FrameOutcome::Failed {
                    error: esca::EscaError::WorkerPanic { .. }
                }
            ),
            "unexpected outcome {:?}",
            fr.outcome
        );
    }
    let panics = report.counters.injected[esca::FaultClass::WorkerPanic as usize];
    assert_eq!(panics, 5 * u64::from(cfg.recovery.max_retries + 1));
}

#[test]
fn detected_faults_retry_and_recover() {
    // Frame corruption at rate 1.0 on attempt 0 only: plan_for draws per
    // attempt, so retries re-roll. Force it deterministic instead: rate
    // 1.0 with full detection means *every* attempt faults, exhausting
    // retries; rate 1.0 with detection off means silent corruption and
    // first-try "success".
    let frames: Vec<_> = (0..3).map(|i| frame(i + 650)).collect();
    let mut cfg = FaultConfig::off(7);
    cfg.rates.frame_corrupt = 1.0;
    let report = session(2).run_batch_resilient(&frames, &cfg).unwrap();
    assert_eq!(report.completed(), 0);
    assert!(report.frames.iter().all(|f| matches!(
        &f.outcome,
        FrameOutcome::Failed {
            error: esca::EscaError::MemoryFault { .. }
        }
    )));
    // Same faults, no checksum: the stream degrades instead of failing —
    // every frame completes but is flagged, and none is "healthy".
    cfg.detection = DetectionModel::none();
    let silent = session(2).run_batch_resilient(&frames, &cfg).unwrap();
    assert_eq!(silent.completed(), 3);
    assert!(silent.frames.iter().all(|f| f.silent_corruption));
    assert!(silent.healthy_frames().is_empty());
    assert_eq!(silent.counters.silent_corruptions, 3);
}

#[test]
fn cycle_telemetry_is_invariant_under_injection() {
    let frames: Vec<_> = (0..5).map(|i| frame(i + 700)).collect();
    let cfg = FaultConfig::campaign(0xA11CE);
    let mut cycle_snapshots = Vec::new();
    for (workers, shards) in [(1usize, 1usize), (3, 1), (2, 2)] {
        let report = session(workers)
            .with_layer_shards(shards)
            .run_batch_resilient(&frames, &cfg)
            .unwrap();
        // Fault counters live in the cycle domain.
        assert!(report
            .telemetry
            .cycle
            .counters
            .iter()
            .any(|c| c.name == "esca_faults_injected_total"));
        // Wall time never does.
        assert!(!report
            .telemetry
            .cycle
            .histograms
            .iter()
            .any(|h| h.name.contains("wall")));
        cycle_snapshots.push(report.telemetry.cycle);
    }
    assert_eq!(cycle_snapshots[0], cycle_snapshots[1]);
    assert_eq!(cycle_snapshots[0], cycle_snapshots[2]);
}

#[test]
fn admission_policies_bound_the_batch() {
    let frames: Vec<_> = (0..6).map(|i| frame(i + 800)).collect();
    let cfg = FaultConfig::off(11);
    let arrivals: Vec<Arrival> = (0..frames.len())
        .map(|frame| Arrival {
            frame,
            tenant: 0,
            at_cycle: 0,
        })
        .collect();
    let run = |policy| {
        let admission = AdmissionConfig::one_burst(Some(2), policy, frames.len());
        session(2)
            .run_batch_ingest(&frames, &arrivals, &cfg, &admission)
            .unwrap()
    };
    let reject = run(BackpressurePolicy::RejectNew);
    assert_eq!(reject.completed(), 2);
    for fr in &reject.frames {
        if fr.frame < 2 {
            assert_eq!(fr.outcome, FrameOutcome::Ok);
        } else {
            assert_eq!(
                fr.outcome,
                FrameOutcome::Dropped {
                    reason: DropReason::Backpressure
                }
            );
            assert!(reject.outputs[fr.frame].is_none());
        }
    }
    let drop_oldest = run(BackpressurePolicy::DropOldest);
    assert_eq!(drop_oldest.completed(), 2);
    // The ingest queue never preempts the frame already in service, so a
    // zero-cycle burst keeps the head (frame 0) plus the newest waiting
    // slot — later arrivals evict the older *waiting* frames.
    for fr in &drop_oldest.frames {
        assert_eq!(
            fr.outcome.completed(),
            fr.frame == 0 || fr.frame == 5,
            "head and newest survive eviction churn"
        );
    }
    assert_eq!(reject.counters.dropped_frames, 4);
    assert_eq!(drop_oldest.counters.dropped_frames, 4);
}

#[test]
fn cycle_deadline_drops_runaway_frames() {
    let frames: Vec<_> = (0..3).map(|i| frame(i + 900)).collect();
    let mut cfg = FaultConfig::off(13);
    cfg.rates.frame_corrupt = 1.0; // every attempt fails (detected)
    cfg.recovery.cycle_budget = Some(1); // exhausted after attempt 0
    let report = session(2).run_batch_resilient(&frames, &cfg).unwrap();
    for fr in &report.frames {
        assert_eq!(fr.attempts, 1, "deadline must preempt further retries");
        assert_eq!(
            fr.outcome,
            FrameOutcome::Dropped {
                reason: DropReason::DeadlineExceeded
            }
        );
        assert!(fr.spent_cycles >= 1);
    }
    assert_eq!(report.counters.dropped_frames, 3);
}

#[test]
fn corrupt_rulebooks_fall_back_or_are_flagged() {
    // Parameterized over the GEMM backend: the silent-corruption replay
    // path runs the flat engine, so both the scalar-ref and the blocked
    // microkernel must uphold the fallback contract. The quantized path
    // is bit-exact across backends, so the per-frame verdicts — and the
    // fallback outputs — must not depend on the backend either.
    let frames: Vec<_> = (0..6).map(|i| frame(i + 950)).collect();
    let clean = session(2).run_batch(&frames).unwrap();
    let mut cfg = FaultConfig::off(17);
    cfg.rates.rulebook_corrupt = 1.0;
    let mut verdicts: Vec<Vec<(bool, bool)>> = Vec::new();
    for kind in GemmBackendKind::ALL {
        let report = session(2)
            .with_gemm_backend(kind)
            .run_batch_resilient(&frames, &cfg)
            .unwrap();
        assert_eq!(
            report.completed(),
            6,
            "{kind}: rulebook faults never lose frames"
        );
        let mut fallbacks = 0;
        for fr in &report.frames {
            // Every frame either fell back to the direct kernels
            // (verification caught the corruption; output bit-exact) or
            // is flagged silent.
            assert!(
                fr.fell_back ^ fr.silent_corruption,
                "{kind}: frame {} neither fell back nor was flagged",
                fr.frame
            );
            if fr.fell_back {
                fallbacks += 1;
                let out = report.outputs[fr.frame].as_ref().unwrap();
                assert_eq!(out.features(), clean.outputs[fr.frame].features());
            }
        }
        assert_eq!(report.counters.fallbacks, fallbacks);
        verdicts.push(
            report
                .frames
                .iter()
                .map(|f| (f.fell_back, f.silent_corruption))
                .collect(),
        );
        // The campaign summary serializes (the CLI's --chaos-out path).
        let json = serde_json::to_string(&report.summary()).unwrap();
        assert!(json.contains("rulebook_corrupt"));
    }
    assert_eq!(
        verdicts[0], verdicts[1],
        "fallback verdicts must not depend on the GEMM backend"
    );
}

#[test]
fn retries_recover_transient_faults_under_mixed_campaign() {
    // A long mixed campaign at moderate rates: re-rolls across attempts
    // make most detected faults transient, so retried frames recover and
    // stay byte-identical to the clean run.
    let frames: Vec<_> = (0..10).map(|i| frame(i + 1000)).collect();
    let clean = session(2).run_batch(&frames).unwrap();
    let report = session(3)
        .run_batch_resilient(&frames, &FaultConfig::campaign(0xBEEF))
        .unwrap();
    let c = &report.counters;
    assert_eq!(
        c.ok_frames + c.retried_frames + c.failed_frames + c.dropped_frames,
        10,
        "outcome counters must partition the batch"
    );
    assert!(c.total_injected() > 0);
    let retried: Vec<_> = report
        .frames
        .iter()
        .filter(|f| matches!(f.outcome, FrameOutcome::Retried { .. }))
        .collect();
    for fr in &retried {
        assert!(fr.attempts > 1);
        if fr.healthy() {
            let out = report.outputs[fr.frame].as_ref().unwrap();
            assert_eq!(out.features(), clean.outputs[fr.frame].features());
        }
    }
    // Detected-only classes can never corrupt silently.
    assert!(
        c.detected[esca::FaultClass::WorkerPanic as usize]
            <= c.injected[esca::FaultClass::WorkerPanic as usize]
    );
}
