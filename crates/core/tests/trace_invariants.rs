//! Invariants of the recorded pipeline trace: the Fig. 7(b) structure must
//! hold for every traced run — stages appear in causal order, compute
//! spans match the dispatched match count, and every match group drains
//! exactly once. Per-work-item details (one per match, group or SRF) keep
//! span counts 1:1 with the work items even though contiguous same-detail
//! cycles coalesce.
//!
//! The exported forms of two traced layers (Chrome trace JSON, text chart
//! and serde JSON) are also pinned as data in
//! `tests/fixtures/trace_vector.json`, so any drift in span structure or
//! detail text fails loudly. Regenerate (after an *intentional* change)
//! with `cargo test -p esca --test trace_invariants -- --ignored
//! regenerate` and commit the rewritten file.

use esca::trace::{Stage, TraceDetail};
use esca::{Esca, EscaConfig, LayerOpts, LayerRun};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, TileShape};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Five sites in two 4³ tiles: groups 0–2 and 3–4.
const FIVE_SITES: [Coord3; 5] = [
    Coord3::new(1, 1, 1),
    Coord3::new(1, 1, 2),
    Coord3::new(2, 2, 2),
    Coord3::new(5, 5, 5),
    Coord3::new(6, 5, 5),
];

/// Fourteen sites in two 4³ tiles: groups 0–9 and 10–13, so group 1's
/// decimal label is a prefix of groups 10–13's, and those groups restart
/// the tile-local cycle counter.
const FOURTEEN_SITES: [Coord3; 14] = [
    Coord3::new(0, 0, 0),
    Coord3::new(0, 0, 1),
    Coord3::new(0, 1, 1),
    Coord3::new(1, 1, 1),
    Coord3::new(1, 1, 2),
    Coord3::new(1, 2, 2),
    Coord3::new(2, 2, 2),
    Coord3::new(2, 2, 3),
    Coord3::new(3, 2, 3),
    Coord3::new(3, 3, 3),
    Coord3::new(4, 4, 4),
    Coord3::new(5, 5, 5),
    Coord3::new(5, 5, 6),
    Coord3::new(6, 5, 5),
];

fn traced_run() -> LayerRun {
    traced_layer(&FIVE_SITES, 1)
}

/// A traced layer over `sites` in an 8³ grid of 4³ tiles, its tile loops
/// spread over `shards` host threads.
fn traced_layer(sites: &[Coord3], shards: usize) -> LayerRun {
    let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
    for (i, &c) in sites.iter().enumerate() {
        t.insert(c, &[0.2 * (i as f32 + 1.0)]).unwrap();
    }
    let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 8, 5), 8, 10).unwrap();
    let mut cfg = EscaConfig::default();
    cfg.tile = TileShape::cube(4);
    cfg.record_trace = true;
    let opts = LayerOpts {
        shards,
        ..LayerOpts::default()
    };
    Esca::new(cfg)
        .unwrap()
        .run_layer_with(&qin, &qw, false, opts)
        .unwrap()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_vector.json")
}

/// Every exported form of one traced layer run.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ExportedTrace {
    run: String,
    chrome: String,
    render: String,
    serde: String,
}

fn exported_forms() -> Vec<ExportedTrace> {
    [("single", 1), ("shards2", 2)]
        .into_iter()
        .map(|(run, shards)| {
            let trace = traced_layer(&FIVE_SITES, shards).trace;
            ExportedTrace {
                run: run.to_string(),
                chrome: trace.to_chrome_trace(1).to_json().unwrap(),
                render: trace.render(100),
                serde: serde_json::to_string(&trace).unwrap(),
            }
        })
        .collect()
}

#[test]
fn exports_match_committed_vector() {
    let expected: Vec<ExportedTrace> = serde_json::from_str(
        &std::fs::read_to_string(fixture_path())
            .expect("fixture missing — run the ignored `regenerate` test once and commit the file"),
    )
    .expect("fixture parses");
    assert_eq!(
        exported_forms(),
        expected,
        "trace exports drifted from the committed vector"
    );
}

#[test]
#[ignore = "writes the fixture; run once after an intentional change"]
fn regenerate() {
    let json = serde_json::to_string_pretty(&exported_forms()).unwrap();
    std::fs::write(fixture_path(), json + "\n").unwrap();
}

#[test]
fn compute_spans_equal_matches() {
    let run = traced_run();
    let computes = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Compute)
        .count() as u64;
    assert_eq!(computes, run.stats.matches);
}

#[test]
fn one_drain_per_match_group() {
    let run = traced_run();
    let drains = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Drain)
        .count() as u64;
    assert_eq!(drains, run.stats.match_groups);
}

#[test]
fn state_index_only_for_active_srfs() {
    let run = traced_run();
    let gens = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::GenStateIndex)
        .count() as u64;
    assert_eq!(gens, run.stats.match_groups);
}

#[test]
fn causal_ordering_within_each_group() {
    // For every match group g: it drains exactly once, its first fetch is
    // not after its first compute, and its last compute is not after its
    // drain (per-tile cycle counters restart at 0, so compare within the
    // same group's spans only).
    for run in [traced_run(), traced_layer(&FOURTEEN_SITES, 1)] {
        let spans = run.trace.spans();
        for g in 0..run.stats.match_groups as usize {
            let cycles = |stage: Stage| -> Vec<u64> {
                spans
                    .iter()
                    .filter(|s| s.stage == stage)
                    .filter(|s| match s.detail {
                        TraceDetail::Group(group) | TraceDetail::Match { group, .. } => group == g,
                        TraceDetail::FillLine { .. } | TraceDetail::Srf(_) => false,
                    })
                    .map(|s| s.cycle_start)
                    .collect()
            };
            let fetches = cycles(Stage::FetchActivations);
            let computes = cycles(Stage::Compute);
            let drains = cycles(Stage::Drain);
            assert_eq!(drains.len(), 1, "group {g}: drains at {drains:?}");
            let (Some(&fetch), Some(&first_compute), Some(&last_compute)) = (
                fetches.iter().min(),
                computes.iter().min(),
                computes.iter().max(),
            ) else {
                panic!("group {g}: no fetch or compute span (its centre matches itself)");
            };
            assert!(fetch <= first_compute, "group {g}: compute before fetch");
            assert!(last_compute <= drains[0], "group {g}: compute after drain");
        }
    }
}

#[test]
fn trace_off_by_default_costs_nothing() {
    let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
    t.insert(Coord3::new(1, 1, 1), &[1.0]).unwrap();
    let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 4, 6), 8, 10).unwrap();
    let run = Esca::new(EscaConfig::default())
        .unwrap()
        .run_layer(&qin, &qw, false)
        .unwrap();
    assert!(run.trace.spans().is_empty());
    assert!(!run.trace.enabled());
    // Recording is observation only: tracing on or off, the output and
    // every cycle counter agree. (That an untraced run builds no detail
    // text is a compile-time property: `TraceDetail` is `Copy`, asserted
    // in the `trace` module's tests.)
    let mut cfg = EscaConfig::default();
    cfg.record_trace = true;
    let traced = Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap();
    assert!(!traced.trace.spans().is_empty());
    assert!(traced.output.iter().eq(run.output.iter()));
    assert_eq!(traced.stats, run.stats);
}
