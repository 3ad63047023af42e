//! End-to-end observability-plane tests: the live exposition server
//! scraped during an active stream, cycle-family byte-identity across
//! `(workers, shards)` splits, the flight recorder's one-terminal-event-
//! per-frame invariant under a chaos campaign, and the nested
//! frame → attempt → layer span trace.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use esca::admission::{AdmissionConfig, Arrival, TenantQuota};
use esca::resilience::{BackpressurePolicy, FaultClass, FaultConfig};
use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_telemetry::serve::{http_get, MetricsServer, ObservabilityHub};
use esca_telemetry::MetricsSnapshot;
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

const SPLITS: [(usize, usize); 4] = [(1, 1), (2, 1), (4, 1), (2, 2)];

/// Family names of the cycle domain, plus the derived histogram series
/// names (`_bucket`, `_sum`, `_count`) the exposition emits for them.
fn cycle_series_names(cycle: &MetricsSnapshot) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for c in &cycle.counters {
        names.insert(c.name.clone());
    }
    for g in &cycle.gauges {
        names.insert(g.name.clone());
    }
    for h in &cycle.histograms {
        names.insert(h.name.clone());
        names.insert(format!("{}_bucket", h.name));
        names.insert(format!("{}_sum", h.name));
        names.insert(format!("{}_count", h.name));
    }
    names
}

/// The metric name a physical exposition line belongs to: the third
/// token for `# HELP`/`# TYPE` comment lines, otherwise the leading
/// token up to `{` or the sample-value separator.
fn line_family(line: &str) -> Option<&str> {
    if let Some(rest) = line
        .strip_prefix("# HELP ")
        .or_else(|| line.strip_prefix("# TYPE "))
    {
        return rest.split(' ').next();
    }
    if line.starts_with('#') || line.is_empty() {
        return None;
    }
    line.split(['{', ' ']).next()
}

/// Keeps only the exposition lines of cycle-domain families.
fn cycle_lines(text: &str, names: &BTreeSet<String>) -> String {
    text.lines()
        .filter(|l| line_family(l).is_some_and(|f| names.contains(f)))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn metrics_scraped_live_are_cycle_identical_across_splits() {
    let frames: Vec<_> = (0..16).map(|i| frame(0x0B5E + i)).collect();
    let mut cycle_texts: Vec<String> = Vec::new();
    for (workers, shards) in SPLITS {
        let hub = Arc::new(ObservabilityHub::new());
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr();

        // Scrape every route continuously while the stream is running:
        // the hub swap must never block or wedge the hot path, and every
        // response must be well-formed regardless of arrival timing.
        let done = Arc::new(AtomicBool::new(false));
        let done_scraper = Arc::clone(&done);
        let scraper = std::thread::spawn(move || {
            let mut scrapes = 0u32;
            while !done_scraper.load(Ordering::Relaxed) {
                for path in ["/metrics", "/healthz", "/snapshot", "/flight"] {
                    let resp = http_get(addr, path).unwrap();
                    assert!(
                        resp.status == 200 || (path == "/healthz" && resp.status == 503),
                        "{path} returned {} mid-stream",
                        resp.status
                    );
                }
                scrapes += 1;
            }
            scrapes
        });

        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, stack(), workers)
            .with_layer_shards(shards)
            .with_hub(Arc::clone(&hub));
        let report = session.run_batch(&frames).unwrap();
        done.store(true, Ordering::Relaxed);
        assert!(
            scraper.join().unwrap() >= 1,
            "scraper never completed a pass"
        );

        // The final snapshot is published before run_batch returns, so a
        // fresh scrape now serves the campaign-complete exposition.
        let metrics = http_get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let names = cycle_series_names(&report.telemetry.cycle);
        assert!(
            names.contains("esca_frame_cycles"),
            "cycle snapshot is missing the per-frame cycle histogram"
        );
        let filtered = cycle_lines(&metrics.body, &names);
        assert!(!filtered.is_empty(), "no cycle-family lines in /metrics");
        // Spec conformance: one HELP and one TYPE per cycle family, and
        // the whole exposition carries no duplicate TYPE lines at all.
        for f in &names {
            let typed = format!("# TYPE {f} ");
            let count = metrics
                .body
                .lines()
                .filter(|l| l.starts_with(&typed))
                .count();
            if metrics.body.contains(&format!("\n{f}")) || metrics.body.starts_with(f.as_str()) {
                assert!(count <= 1, "family {f} has {count} TYPE lines");
            }
        }
        let health = http_get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200, "healthy stream must report 200");
        assert!(health.body.contains("\"phase\": \"done\""));
        server.shutdown();
        cycle_texts.push(filtered);
    }
    for (i, text) in cycle_texts.iter().enumerate().skip(1) {
        assert_eq!(
            text, &cycle_texts[0],
            "cycle families of split {:?} differ from the (1,1) baseline",
            SPLITS[i]
        );
    }
}

#[test]
fn chaos_campaign_flight_dump_has_one_terminal_event_per_frame() {
    let frames: Vec<_> = (0..12).map(|i| frame(0xF11 + i)).collect();
    // Campaign rates inject worker panics (verified below); bounded
    // admission additionally forces rejected frames into the dump.
    let cfg = FaultConfig::campaign(0xC4A05);
    let arrivals: Vec<Arrival> = (0..frames.len())
        .map(|frame| Arrival {
            frame,
            tenant: 0,
            at_cycle: 0,
        })
        .collect();
    let admission =
        AdmissionConfig::one_burst(Some(10), BackpressurePolicy::RejectNew, frames.len());

    let hub = Arc::new(ObservabilityHub::new());
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let session = StreamingSession::new(esca, stack(), 3).with_hub(Arc::clone(&hub));
    let report = session
        .run_batch_ingest(&frames, &arrivals, &cfg, &admission)
        .unwrap();

    assert!(
        report.counters.injected[FaultClass::WorkerPanic as usize] > 0,
        "campaign seed must inject at least one worker panic"
    );
    assert_eq!(report.counters.dropped_frames, 2, "admission must reject 2");

    let dump = hub.flight_dump();
    assert_eq!(dump.recorded, frames.len() as u64);
    assert_eq!(dump.evicted, 0);
    // Exactly one terminal event per frame, no duplicates, no gaps.
    let seen: BTreeSet<u64> = dump.events.iter().map(|e| e.frame).collect();
    assert_eq!(dump.events.len(), frames.len());
    assert_eq!(seen.len(), frames.len());
    assert_eq!(*seen.iter().next().unwrap(), 0);
    assert_eq!(*seen.iter().last().unwrap(), frames.len() as u64 - 1);

    // The outcome partition of the dump matches the campaign counters.
    let count = |outcome: &str| dump.events.iter().filter(|e| e.outcome == outcome).count() as u64;
    assert_eq!(count("ok"), report.counters.ok_frames);
    assert_eq!(count("retried"), report.counters.retried_frames);
    assert_eq!(count("failed"), report.counters.failed_frames);
    assert_eq!(count("dropped"), report.counters.dropped_frames);
    for ev in &dump.events {
        let fr = &report.frames[ev.frame as usize];
        assert_eq!(ev.outcome, fr.outcome.label(), "frame {}", ev.frame);
        assert_eq!(
            ev.retries,
            u64::from(fr.attempts.saturating_sub(1)),
            "frame {}",
            ev.frame
        );
        assert_eq!(ev.fell_back, fr.fell_back);
        assert_eq!(ev.silent_corruption, fr.silent_corruption);
        if ev.outcome == "dropped" {
            assert_eq!(ev.admission, "rejected");
            assert_eq!(ev.cycles, 0);
        } else {
            assert_eq!(ev.admission, "admitted");
        }
        assert_eq!(ev.faults.len(), fr.injected.len(), "frame {}", ev.frame);
    }
    // A worker-panic fault is visible in at least one event's fault log.
    assert!(
        dump.events
            .iter()
            .any(|e| e.faults.iter().any(|f| f.contains("worker_panic"))),
        "no worker_panic fault recorded in the flight ring"
    );
    // The dump replays through JSON byte-stably.
    let json = hub.flight().to_json().unwrap();
    assert!(json.contains("\"events\""));
}

#[test]
fn ingest_final_snapshot_keeps_the_host_families_of_the_live_ones() {
    // Bounded admission rejects 2 of 12 frames and the campaign fails or
    // retries some of the rest: the final snapshot must still carry one
    // wall observation and one worker attribution per frame that ran.
    let frames: Vec<_> = (0..12).map(|i| frame(0xF33 + i)).collect();
    let cfg = FaultConfig::campaign(0xC4A05);
    let arrivals: Vec<Arrival> = (0..frames.len())
        .map(|frame| Arrival {
            frame,
            tenant: 0,
            at_cycle: 0,
        })
        .collect();
    let admission =
        AdmissionConfig::one_burst(Some(10), BackpressurePolicy::RejectNew, frames.len());

    let hub = Arc::new(ObservabilityHub::new());
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let session = StreamingSession::new(esca, stack(), 3).with_hub(Arc::clone(&hub));
    let report = session
        .run_batch_ingest(&frames, &arrivals, &cfg, &admission)
        .unwrap();

    assert_eq!(
        *hub.snapshot(),
        report.telemetry,
        "final publish is the report"
    );
    let ran = report.frames.iter().filter(|f| f.attempts > 0).count() as u64;
    assert_eq!(ran, 10, "admission must run 10 of 12 frames");
    let host = &report.telemetry.host;
    let wall = host
        .histograms
        .iter()
        .find(|h| h.name == "esca_frame_wall_micros")
        .expect("final host snapshot carries the frame wall family");
    assert_eq!(wall.count, ran);
    let per_worker: u64 = host
        .counters
        .iter()
        .filter(|c| c.name == "esca_worker_frames_total")
        .map(|c| c.value)
        .sum();
    assert_eq!(
        per_worker, ran,
        "every frame that ran attributed to a worker"
    );
}

#[test]
fn ingest_flight_events_partition_across_every_admission_verdict() {
    // One burst covering the full shedding ladder: admitted, degraded,
    // shed{T}, over_quota and rejected all land in the flight ring as
    // exactly one terminal event per frame.
    let frames: Vec<_> = (0..6).map(|i| frame(0xF22 + i)).collect();
    let arrivals: Vec<Arrival> = [9u32, 3, 3, 9, 9, 9]
        .iter()
        .enumerate()
        .map(|(i, &tenant)| Arrival {
            frame: i,
            tenant,
            at_cycle: 0,
        })
        .collect();
    let admission = AdmissionConfig {
        queue_depth: 3,
        drain_cycles: u64::MAX,
        degrade_occupancy_pct: 66,
        tenants: vec![
            TenantQuota {
                tenant: 9,
                cycles_per_token: 0,
                burst: 0,
                priority: 1,
            },
            TenantQuota {
                tenant: 3,
                cycles_per_token: 1_000_000,
                burst: 1,
                priority: 0,
            },
        ],
        ..AdmissionConfig::default()
    };
    let cfg = FaultConfig::off(0xF22);

    let hub = Arc::new(ObservabilityHub::new());
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let session = StreamingSession::new(esca, stack(), 3).with_hub(Arc::clone(&hub));
    let report = session
        .run_batch_ingest(&frames, &arrivals, &cfg, &admission)
        .unwrap();

    let dump = hub.flight_dump();
    assert_eq!(dump.recorded, frames.len() as u64);
    let seen: BTreeSet<u64> = dump.events.iter().map(|e| e.frame).collect();
    assert_eq!(seen.len(), frames.len(), "one terminal event per frame");

    // Frame 0 admits at full fidelity; tenant 3's first frame takes the
    // last room before the degrade threshold but is later shed by a
    // higher-priority arrival; its second is over quota; frames 3 and 4
    // admit degraded; the final arrival finds only same-priority
    // waiters and is rejected.
    let verdict = |f: u64| {
        dump.events
            .iter()
            .find(|e| e.frame == f)
            .map(|e| e.admission.clone())
            .unwrap()
    };
    assert_eq!(verdict(0), "admitted");
    assert_eq!(verdict(1), "shed{3}");
    assert_eq!(verdict(2), "over_quota");
    assert_eq!(verdict(3), "degraded");
    assert_eq!(verdict(4), "degraded");
    assert_eq!(verdict(5), "rejected");
    for ev in &dump.events {
        let fr = &report.frames[ev.frame as usize];
        assert_eq!(ev.outcome, fr.outcome.label());
        assert_eq!(ev.tenant, u64::from(fr.tenant));
        let runs = ev.admission == "admitted" || ev.admission == "degraded";
        assert_eq!(ev.outcome == "ok", runs, "frame {}", ev.frame);
    }

    // Degraded admission is resident-plan-only: outputs stay
    // bit-identical to an unconstrained run of the same frames.
    let esca = Esca::new(EscaConfig::default()).unwrap();
    let baseline = StreamingSession::new(esca, stack(), 3)
        .run_batch(&frames)
        .unwrap();
    for f in [0usize, 3, 4] {
        let out = report.outputs[f].as_ref().unwrap();
        assert_eq!(out.coords(), baseline.outputs[f].coords());
        assert_eq!(out.features(), baseline.outputs[f].features());
    }
    assert_eq!(report.counters.degraded_frames, 2);
}

#[test]
fn span_trace_nests_frames_attempts_and_layers_identically_across_splits() {
    let frames: Vec<_> = (0..8).map(|i| frame(0x59A6 + i)).collect();
    let mut fingerprints: Vec<String> = Vec::new();
    for (workers, shards) in SPLITS {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, stack(), workers).with_layer_shards(shards);
        let report = session.run_batch(&frames).unwrap();
        let trace = report.to_span_trace();

        // Structure: per frame (pid) one `frame` span, one `attempt`
        // span nested at the same extent, and one `layer` span per
        // network layer inside it, with in-track ts monotonic.
        let mut fp = String::new();
        for idx in 0..frames.len() {
            let pid = idx as u32;
            let events: Vec<_> = trace.traceEvents.iter().filter(|e| e.pid == pid).collect();
            let frames_evs: Vec<_> = events.iter().filter(|e| e.cat == "frame").collect();
            let attempts: Vec<_> = events.iter().filter(|e| e.cat == "attempt").collect();
            let layers: Vec<_> = events.iter().filter(|e| e.cat == "layer").collect();
            assert_eq!(frames_evs.len(), 1, "frame {idx}: expected one frame span");
            assert_eq!(attempts.len(), 1, "frame {idx}: expected one attempt span");
            assert_eq!(
                layers.len(),
                stack().len(),
                "frame {idx}: one span per layer"
            );
            let total = frames_evs[0].dur;
            assert_eq!(attempts[0].dur, total, "attempt must cover the frame");
            let mut prev_ts = 0;
            for l in &layers {
                assert!(l.ts >= prev_ts, "frame {idx}: layer ts must not decrease");
                assert!(l.ts + l.dur <= total, "frame {idx}: layer escapes frame");
                prev_ts = l.ts;
            }
            // Cycle-domain fingerprint: everything except args.detail
            // (worker/shards live there and legitimately vary).
            for e in &events {
                fp.push_str(&format!(
                    "{}|{}|{}|{}|{}|{};",
                    e.cat, e.name, e.ts, e.dur, e.pid, e.tid
                ));
            }
            fp.push('\n');
        }
        fingerprints.push(fp);
    }
    for (i, fp) in fingerprints.iter().enumerate().skip(1) {
        assert_eq!(
            fp, &fingerprints[0],
            "span trace of split {:?} diverged from the (1,1) baseline",
            SPLITS[i]
        );
    }
}
