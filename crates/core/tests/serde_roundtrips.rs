//! Serde round-trip tests: every serializable public type survives
//! JSON serialization unchanged (configs shared between runs, stats
//! dumped by the report machinery, DSE points consumed by tooling).

use esca::area::ResourceEstimate;
use esca::power::{PowerModel, PowerReport};
use esca::trace::{PipelineTrace, Stage, TraceDetail};
use esca::{CycleStats, Esca, EscaConfig, EscaError};
use esca_tensor::Coord3;

#[test]
fn config_roundtrip() {
    let mut cfg = EscaConfig::default();
    cfg.fifo_depth = 7;
    cfg.dram_overlap = 0.55;
    let json = serde_json::to_string(&cfg).unwrap();
    let back: EscaConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

/// A config saved before `matching_resident` left `EscaConfig` still
/// reads, with the key ignored: residency is a per-layer option now.
#[test]
fn config_with_the_removed_residency_key_still_parses() {
    let json = serde_json::to_string(&EscaConfig::default()).unwrap();
    let old = json.replacen('{', "{\"matching_resident\":true,", 1);
    let back: EscaConfig = serde_json::from_str(&old).unwrap();
    assert_eq!(back, EscaConfig::default());
}

/// A config read from JSON is validated like one built in code: zero
/// tile sides (which `TileShape::new` would refuse, but serde does not)
/// and a non-finite clock or DRAM bandwidth are typed errors from
/// `Esca::new`, never a panic or a silent mispricing later.
#[test]
fn deserialized_invalid_configs_are_rejected_by_esca_new() {
    let json = serde_json::to_string(&EscaConfig::default()).unwrap();
    // Replaces the value of the first `"key":` in the serialized config.
    let mutated = |key: &str, value: &str| -> EscaConfig {
        let tag = format!("\"{key}\":");
        let start = json.find(&tag).expect("key is serialized") + tag.len();
        let end = start + json[start..].find([',', '}']).unwrap();
        let text = format!("{}{value}{}", &json[..start], &json[end..]);
        serde_json::from_str(&text).expect("mutated config parses")
    };
    let assert_rejected = |cfg: EscaConfig, what: &str| {
        assert!(
            matches!(Esca::new(cfg), Err(EscaError::Config { .. })),
            "{what} was accepted"
        );
    };
    for side in ["n", "m", "l"] {
        assert_rejected(mutated(side, "0"), &format!("tile {side} = 0"));
    }
    for field in ["clock_mhz", "dram_bytes_per_cycle"] {
        assert_rejected(mutated(field, "-1.0"), &format!("{field} = -1"));
        for bad in [f64::NAN, f64::INFINITY] {
            // JSON has no NaN or infinity literal: set them on the parsed
            // config, as a caller filling one in from elsewhere would.
            let mut cfg = mutated(field, "1.0");
            match field {
                "clock_mhz" => cfg.clock_mhz = bad,
                _ => cfg.dram_bytes_per_cycle = bad,
            }
            assert_rejected(cfg, &format!("{field} = {bad}"));
        }
    }
    assert!(Esca::new(mutated("n", "4")).is_ok());
}

#[test]
fn stats_roundtrip() {
    let stats = CycleStats {
        pipeline_cycles: 123,
        matches: 456,
        effective_macs: 789,
        peak_fifo_occupancy: 3,
        ..CycleStats::default()
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: CycleStats = serde_json::from_str(&json).unwrap();
    assert_eq!(stats, back);
    assert_eq!(back.total_cycles(), stats.total_cycles());
}

#[test]
fn resource_estimate_roundtrip() {
    let est = ResourceEstimate::for_config(&EscaConfig::default());
    let json = serde_json::to_string(&est).unwrap();
    let back: ResourceEstimate = serde_json::from_str(&json).unwrap();
    assert_eq!(est, back);
}

#[test]
fn power_model_and_report_roundtrip() {
    let pm = PowerModel::default();
    let json = serde_json::to_string(&pm).unwrap();
    let back: PowerModel = serde_json::from_str(&json).unwrap();
    assert_eq!(pm, back);

    // Use non-empty stats: a zero-cycle run yields gops = 0/0 = NaN, and
    // NaN breaks equality (JSON also cannot carry it).
    let stats = CycleStats {
        pipeline_cycles: 1000,
        compute_busy_cycles: 500,
        effective_macs: 10_000,
        ..CycleStats::default()
    };
    let report = pm.report(&stats, &EscaConfig::default());
    let json = serde_json::to_string(&report).unwrap();
    let back: PowerReport = serde_json::from_str(&json).unwrap();
    // Floats may lose the last ulp through the JSON text form; compare
    // with a relative tolerance.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
    assert!(close(report.time_s, back.time_s));
    assert!(close(report.dynamic_j, back.dynamic_j));
    assert!(close(report.avg_power_w, back.avg_power_w));
    assert!(close(report.gops, back.gops));
    assert!(close(report.gops_per_w, back.gops_per_w));
}

#[test]
fn trace_roundtrip() {
    let mut t = PipelineTrace::new(true);
    t.record(0, Stage::ReadMasks, TraceDetail::FillLine { x: 1, y: -2 });
    t.record(
        1,
        Stage::JudgeState,
        TraceDetail::Srf(Coord3::new(1, -2, 3)),
    );
    t.record(2, Stage::Drain, TraceDetail::Group(11));
    t.record(3, Stage::Compute, TraceDetail::Match { group: 4, tap: 13 });
    let json = serde_json::to_string(&t).unwrap();
    // Details travel as their display strings.
    for text in [
        "fill line (1, -2)",
        "srf (1, -2, 3)",
        "group 11",
        "match g4 tap13",
    ] {
        assert!(json.contains(&format!("\"detail\":\"{text}\"")), "{json}");
    }
    let back: PipelineTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(t.spans(), back.spans());
    // An unknown detail string is a parse error, not a silent default.
    let bad = json.replace("group 11", "group eleven");
    assert!(serde_json::from_str::<PipelineTrace>(&bad).is_err());
}

#[test]
fn telemetry_snapshot_roundtrip() {
    use esca_telemetry::{ChromeTrace, Registry, TelemetrySnapshot};

    let mut cycle = Registry::new();
    cycle.counter_add("esca_cycles_total", &[("layer", "0")], 1234);
    cycle.gauge_max("esca_peak_fifo_occupancy", &[], 7);
    cycle.observe("esca_match_group_size", &[], 5);
    cycle.observe("esca_match_group_size", &[], 0);
    let mut host = Registry::new();
    host.counter_add("esca_worker_frames_total", &[("worker", "1")], 3);

    let snap = TelemetrySnapshot::from_registries(&cycle, &host);
    let json = serde_json::to_string(&snap).unwrap();
    let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);

    // The per-domain halves round-trip on their own too (the CLI writes
    // the cycle half alone on the `run`/`bench` path).
    let cycle_json = serde_json::to_string(&snap.cycle).unwrap();
    let cycle_back: esca_telemetry::MetricsSnapshot = serde_json::from_str(&cycle_json).unwrap();
    assert_eq!(snap.cycle, cycle_back);

    let mut trace = ChromeTrace::default();
    trace.push_complete("engine", "frame 0", 0, 90, 0, 1, "engine 1");
    trace.push_complete("engine", "frame 1", 90, 80, 0, 2, "engine 2");
    let trace_json = serde_json::to_string(&trace).unwrap();
    let trace_back: ChromeTrace = serde_json::from_str(&trace_json).unwrap();
    assert_eq!(trace, trace_back);
    assert!(trace_json.contains("traceEvents"));
}

#[test]
fn dse_point_roundtrip() {
    use esca::dse::DesignPoint;
    let p = DesignPoint {
        label: "x".into(),
        config: EscaConfig::default(),
        gops: 1.0,
        power_w: 2.0,
        gops_per_w: 0.5,
        dsp: 256,
        lut: 100,
        bram36: 365.5,
        cycles: 42,
    };
    let json = serde_json::to_string(&p).unwrap();
    let back: DesignPoint = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
}
