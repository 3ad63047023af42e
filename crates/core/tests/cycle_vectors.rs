//! Committed cycle vectors: the cycle model's timing pinned as data.
//!
//! `fixture_vectors.rs` pins one layer's *output*; this suite pins what a
//! speed change to the tick loop must not move. Each case runs one layer
//! over a fixed input and records its [`CycleStats`], its
//! [`LayerTelemetry`] (every field, through its `Debug` form), a hash of
//! the output and `pipeline_cycles`. The cases span the configuration
//! space the loop's fast paths depend on: tile sides 2/4/8/16 (with tiles
//! clipped by the grid border), FIFO depths 1/2/4/16, pipeline fill
//! 0/2/5, kernels 3/5/7/9 (up to 81 FIFO columns), matching residency on
//! and off, 1 and 3 tile shards, and layer shapes 1→16, 16→16, 16→20 (a
//! partial output-lane group), 32→48 (six array cycles per match) and
//! 600→4 (wide enough that one match's products overflow an `i32`).
//! Inputs mix empty, fully dense and sparse (x, y) lines and leave one
//! grid quadrant empty; one input is stored in shuffled (non-raster)
//! order. One case runs a three-layer ReLU chain 8→16→16→8, so each
//! layer's zeros reach the next layer's match stream and every layer has
//! the same array group loop. Three more run the chain 16→40→40→16
//! (plain, matching-resident, and on 3 shards with depth-2 FIFOs), whose
//! group loops, as (array cycles per match, drain cycles per group),
//! are (3, 3), (9, 3) and (3, 1): the first and last layer share the
//! array cycles but not the drain. Every chain's per-layer stats are
//! pinned as well. One traced run with depth-2 FIFOs pins the Chrome
//! trace export as well, and so does the same layer run matching-resident
//! on 1 and on 3 shards (its vector and its compute/drain-only trace).
//!
//! The DRAM axis is pinned on its own: one layer shape runs at a starved
//! 0.05 B/cycle with nothing and with everything hideable under compute,
//! and with the weight load overlapped, each with its weights loaded and
//! resident. A three-frame `StreamingSession::run_batch` at the default
//! configuration and at those DRAM settings, with matching reuse off, on,
//! and on over a cache that already holds frame 0's rulebook, pins the per-frame stats, the weights-resident frame 0
//! (`steady_frame0`), `weight_load_cycles()`, the two-engine modeled
//! schedule and the cycle half of the batch's telemetry snapshot.
//!
//! The rendered JSON must equal `tests/fixtures/cycle_vector.json` byte
//! for byte. Regenerate (only after an *intentional* timing change) with
//! `cargo test -p esca --test cycle_vectors -- --ignored regenerate` and
//! commit the rewritten file.

use esca::streaming::StreamingSession;
use esca::telemetry::LayerSpan;
use esca::{CycleStats, Esca, EscaConfig, LayerOpts, LayerRun, LayerTelemetry};
use esca_sscn::quant::{submanifold_conv3d_q, LayerQuant, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_telemetry::MetricsSnapshot;
use esca_tensor::{Coord3, Extent3, SparseTensor, TileShape, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cycle_vector.json")
}

/// A `side`³ input whose (x, y) lines are a seeded mix of empty, fully
/// dense and sparse; the quadrant `x, y ≥ side/2` stays empty so some
/// tiles are removed outright.
fn input(side: u32, ch: usize, seed: u64) -> SparseTensor<Q16> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut t = SparseTensor::new(Extent3::cube(side), ch);
    let half = (side / 2) as i32;
    for x in 0..side as i32 {
        for y in 0..side as i32 {
            let kind = rng.gen_range(0..10u32);
            if x >= half && y >= half {
                continue;
            }
            for z in 0..side as i32 {
                let active = match kind {
                    0 => true,
                    1..=3 => rng.gen_bool(0.3),
                    _ => false,
                };
                if active {
                    let f: Vec<Q16> = (0..ch).map(|_| Q16(rng.gen_range(-600..600))).collect();
                    t.insert(Coord3::new(x, y, z), &f).unwrap();
                }
            }
        }
    }
    t.canonicalize();
    t
}

/// One layer run's configuration.
struct Case {
    name: &'static str,
    side: u32,
    in_ch: usize,
    out_ch: usize,
    kernel: u32,
    tile: u32,
    fifo_depth: usize,
    fill: u64,
    resident: bool,
    shards: usize,
    relu: bool,
    mode: Mode,
}

/// What a case runs beyond one layer over a canonical input.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One layer over a canonical (raster-order) input.
    Layer,
    /// One layer over the same sites stored in a shuffled order.
    InsertionOrder,
    /// `run_chain` over three ReLU layers `in → out → out → in`, so the
    /// zeros one layer's ReLU leaves feed the next layer's match stream.
    Chain,
}

const CASES: [Case; 18] = [
    Case {
        name: "t8_f16_p2_k3_16x16",
        side: 20,
        in_ch: 16,
        out_ch: 16,
        kernel: 3,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t2_f1_p0_k3_1x16",
        side: 12,
        in_ch: 1,
        out_ch: 16,
        kernel: 3,
        tile: 2,
        fifo_depth: 1,
        fill: 0,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t4_f2_p5_k3_16x20",
        side: 14,
        in_ch: 16,
        out_ch: 20,
        kernel: 3,
        tile: 4,
        fifo_depth: 2,
        fill: 5,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t16_f16_p2_k3_32x48",
        side: 20,
        in_ch: 32,
        out_ch: 48,
        kernel: 3,
        tile: 16,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t4_f2_p2_k5_16x16",
        side: 12,
        in_ch: 16,
        out_ch: 16,
        kernel: 5,
        tile: 4,
        fifo_depth: 2,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t8_f1_p0_k5_3x8",
        side: 13,
        in_ch: 3,
        out_ch: 8,
        kernel: 5,
        tile: 8,
        fifo_depth: 1,
        fill: 0,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t4_f16_p2_k3_16x16_resident",
        side: 14,
        in_ch: 16,
        out_ch: 16,
        kernel: 3,
        tile: 4,
        fifo_depth: 16,
        fill: 2,
        resident: true,
        shards: 1,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t8_f2_p2_k3_16x16_shards3",
        side: 20,
        in_ch: 16,
        out_ch: 16,
        kernel: 3,
        tile: 8,
        fifo_depth: 2,
        fill: 2,
        resident: false,
        shards: 3,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t4_f16_p5_k3_16x20_resident_shards3",
        side: 14,
        in_ch: 16,
        out_ch: 20,
        kernel: 3,
        tile: 4,
        fifo_depth: 16,
        fill: 5,
        resident: true,
        shards: 3,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t2_f16_p2_k5_1x16_shards3",
        side: 9,
        in_ch: 1,
        out_ch: 16,
        kernel: 5,
        tile: 2,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 3,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t8_f16_p2_k3_600x4_wide",
        side: 10,
        in_ch: 600,
        out_ch: 4,
        kernel: 3,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t8_f16_p2_k7_4x8",
        side: 14,
        in_ch: 4,
        out_ch: 8,
        kernel: 7,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Layer,
    },
    Case {
        name: "t8_f2_p2_k9_2x8",
        side: 12,
        in_ch: 2,
        out_ch: 8,
        kernel: 9,
        tile: 8,
        fifo_depth: 2,
        fill: 2,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    },
    Case {
        name: "t4_f4_p2_k3_8x16_insertion_order",
        side: 14,
        in_ch: 8,
        out_ch: 16,
        kernel: 3,
        tile: 4,
        fifo_depth: 4,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::InsertionOrder,
    },
    Case {
        name: "t8_f16_p2_k3_8x16x16x8_relu_chain",
        side: 16,
        in_ch: 8,
        out_ch: 16,
        kernel: 3,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Chain,
    },
    Case {
        name: "t8_f16_p2_k3_16x40x40x16_relu_chain",
        side: 16,
        in_ch: 16,
        out_ch: 40,
        kernel: 3,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: false,
        shards: 1,
        relu: true,
        mode: Mode::Chain,
    },
    Case {
        name: "t8_f16_p2_k3_16x40x40x16_relu_chain_resident",
        side: 16,
        in_ch: 16,
        out_ch: 40,
        kernel: 3,
        tile: 8,
        fifo_depth: 16,
        fill: 2,
        resident: true,
        shards: 1,
        relu: true,
        mode: Mode::Chain,
    },
    Case {
        name: "t8_f2_p2_k3_16x40x40x16_relu_chain_shards3",
        side: 16,
        in_ch: 16,
        out_ch: 40,
        kernel: 3,
        tile: 8,
        fifo_depth: 2,
        fill: 2,
        resident: false,
        shards: 3,
        relu: true,
        mode: Mode::Chain,
    },
];

fn config(case: &Case) -> EscaConfig {
    let mut cfg = EscaConfig::default();
    cfg.tile = TileShape::cube(case.tile);
    cfg.kernel = case.kernel;
    cfg.fifo_depth = case.fifo_depth;
    cfg.pipeline_fill_cycles = case.fill;
    cfg
}

/// A DRAM setting the DRAM-axis cases and the batch section run at.
struct DramAxis {
    name: &'static str,
    bytes_per_cycle: f64,
    overlap: f64,
    weight_load_overlap: bool,
}

/// A starved port with nothing hidden under compute, the same port with
/// everything hideable hidden, and the weight load overlapped.
const DRAM_AXES: [DramAxis; 3] = [
    DramAxis {
        name: "bw0.05_ov0",
        bytes_per_cycle: 0.05,
        overlap: 0.0,
        weight_load_overlap: false,
    },
    DramAxis {
        name: "bw0.05_ov1",
        bytes_per_cycle: 0.05,
        overlap: 1.0,
        weight_load_overlap: false,
    },
    DramAxis {
        name: "weight_load_overlap",
        bytes_per_cycle: 1.1,
        overlap: 0.35,
        weight_load_overlap: true,
    },
];

fn with_dram(mut cfg: EscaConfig, axis: &DramAxis) -> EscaConfig {
    cfg.dram_bytes_per_cycle = axis.bytes_per_cycle;
    cfg.dram_overlap = axis.overlap;
    cfg.weight_load_overlap = axis.weight_load_overlap;
    cfg
}

/// Seeded weights, except for the wide case: there the centre tap of
/// output 0 is 127 (7 fractional bits) on every input channel, so with
/// saturated activations one match's products sum past `i32::MAX`.
fn weights(case: &Case) -> QuantizedWeights {
    let mut w = ConvWeights::seeded(case.kernel, case.in_ch, case.out_ch, case.in_ch as u64);
    if case.in_ch > 256 {
        let centre = (case.kernel.pow(3) / 2) as usize;
        for ic in 0..case.in_ch {
            w.set_w(centre, ic, 0, 0.99);
        }
        return QuantizedWeights::from_float(&w, LayerQuant::uniform(8, 7).unwrap());
    }
    QuantizedWeights::auto(&w, 8, 10).unwrap()
}

fn case_input(case: &Case) -> SparseTensor<Q16> {
    let mut t = input(
        case.side,
        case.in_ch,
        u64::from(case.side) * 31 + case.tile as u64,
    );
    if case.in_ch > 256 {
        let sites: Vec<Coord3> = t.coords().to_vec();
        for c in sites {
            t.insert(c, &vec![Q16(32_767); case.in_ch]).unwrap();
        }
    }
    if case.mode == Mode::InsertionOrder {
        let mut sites: Vec<(Coord3, Vec<Q16>)> = t.iter().map(|(c, f)| (c, f.to_vec())).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(u64::from(case.side));
        for i in (1..sites.len()).rev() {
            sites.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = SparseTensor::new(t.extent(), case.in_ch);
        for (c, f) in &sites {
            shuffled.insert(*c, f).unwrap();
        }
        assert!(
            !shuffled.is_canonical(),
            "{}: input stayed canonical",
            case.name
        );
        return shuffled;
    }
    t
}

/// The chain's three ReLU layers, `in → out → out → in`.
fn chain_layers(case: &Case) -> Vec<(QuantizedWeights, bool)> {
    let shapes = [
        (case.in_ch, case.out_ch),
        (case.out_ch, case.out_ch),
        (case.out_ch, case.in_ch),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc))| {
            let w = ConvWeights::seeded(case.kernel, ic, oc, 40 + i as u64);
            (QuantizedWeights::auto(&w, 8, 10).unwrap(), true)
        })
        .collect()
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

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CaseVector {
    case: String,
    pipeline_cycles: u64,
    output_hash: String,
    stats: CycleStats,
    telemetry: String,
}

/// One three-frame `run_batch` at one DRAM setting.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct BatchVector {
    config: String,
    /// `off`, `on`, or `on_warm_cache` (frame 0's rulebook cached by a
    /// golden pass first, so frame 0 runs matching-resident too).
    matching_reuse: String,
    per_frame: Vec<CycleStats>,
    steady_frame0: Option<CycleStats>,
    weight_load_cycles: u64,
    /// `modeled_schedule(2)` as `(frame, engine, start_cycle, cycles)`.
    schedule_2: Vec<(usize, usize, u64, u64)>,
    /// The cycle half of the batch's telemetry snapshot.
    telemetry_cycle: MetricsSnapshot,
}

/// One chain case's per-layer stats.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ChainVector {
    case: String,
    per_layer: Vec<CycleStats>,
}

/// One traced layer run: its vector and its Chrome trace export.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct TracedVector {
    vector: CaseVector,
    chrome: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CycleVector {
    cases: Vec<CaseVector>,
    /// Chrome trace JSON of one traced layer with depth-2 FIFOs.
    traced_chrome: String,
    /// The same traced layer run matching-resident, on 1 and on 3 shards.
    traced_resident: Vec<TracedVector>,
    /// Per-layer stats of the first chain case (its `stats` hold their
    /// total).
    chain_per_layer: Vec<CycleStats>,
    /// Per-layer stats of the later chain cases, in case order.
    width_chains: Vec<ChainVector>,
    /// The DRAM-axis cases: `CASES[0]` at each [`DRAM_AXES`] setting,
    /// with its weights loaded and resident.
    dram_cases: Vec<CaseVector>,
    /// The `run_batch` section.
    batches: Vec<BatchVector>,
}

fn run(case: &Case, cfg: EscaConfig) -> LayerRun {
    run_loading(case, cfg, !case.resident)
}

fn run_loading(case: &Case, cfg: EscaConfig, load_weights: bool) -> LayerRun {
    let opts = LayerOpts {
        load_weights,
        matching_resident: case.resident,
        shards: case.shards,
    };
    let qin = case_input(case);
    let qw = weights(case);
    let run = Esca::new(cfg)
        .unwrap()
        .run_layer_with(&qin, &qw, case.relu, opts)
        .unwrap();
    let golden = submanifold_conv3d_q(&qin, &qw, case.relu).unwrap();
    assert!(
        run.output.same_content(&golden),
        "{}: output diverged from golden",
        case.name
    );
    run
}

/// Runs a chain case through `run_chain` under the case's residency and
/// shard count (weights loaded unless resident), checked against the
/// chained golden layers; returns its vector and its per-layer stats.
fn run_chain(case: &Case) -> (CaseVector, Vec<CycleStats>) {
    let qin = case_input(case);
    let layers = chain_layers(case);
    let opts = LayerOpts {
        load_weights: !case.resident,
        matching_resident: case.resident,
        shards: case.shards,
    };
    let net = Esca::new(config(case))
        .unwrap()
        .run_chain(&qin, &layers, opts)
        .unwrap();
    let mut golden = qin;
    for (w, relu) in &layers {
        golden = submanifold_conv3d_q(&golden, w, *relu).unwrap();
    }
    assert!(
        net.output.same_content(&golden),
        "{}: output diverged from golden",
        case.name
    );
    let vector = CaseVector {
        case: case.name.to_string(),
        pipeline_cycles: net.total.pipeline_cycles,
        output_hash: output_hash(&net.output),
        stats: net.total,
        telemetry: format!("{:?}", net.telemetry),
    };
    (vector, net.per_layer)
}

fn layer_vector(name: String, run: LayerRun) -> CaseVector {
    CaseVector {
        case: name,
        pipeline_cycles: run.stats.pipeline_cycles,
        output_hash: output_hash(&run.output),
        stats: run.stats,
        telemetry: format!("{:?}", run.telemetry),
    }
}

fn dram_cases() -> Vec<CaseVector> {
    let case = &CASES[0];
    let mut out = Vec::new();
    for axis in &DRAM_AXES {
        for load_weights in [true, false] {
            let weights = if load_weights { "loaded" } else { "resident" };
            let name = format!("{}_dram_{}_weights_{weights}", case.name, axis.name);
            let run = run_loading(case, with_dram(config(case), axis), load_weights);
            out.push(layer_vector(name, run));
        }
    }
    out
}

/// Three frames: a sparse frame, the same active set with other
/// features (matching-resident under reuse) and a second geometry.
fn batch_frames() -> Vec<SparseTensor<Q16>> {
    let f0 = input(12, 4, 3);
    let mut f1 = SparseTensor::new(f0.extent(), f0.channels());
    for (c, f) in f0.iter() {
        let g: Vec<Q16> = f.iter().map(|q| Q16(q.0 / 2 - 7)).collect();
        f1.insert(c, &g).unwrap();
    }
    f1.canonicalize();
    let f2 = input(12, 4, 4);
    vec![f0, f1, f2]
}

fn batches() -> Vec<BatchVector> {
    let frames = batch_frames();
    let layers: Vec<(QuantizedWeights, bool)> = [(4, 8), (8, 4)]
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc))| {
            let w = ConvWeights::seeded(3, ic, oc, 60 + i as u64);
            (QuantizedWeights::auto(&w, 8, 10).unwrap(), true)
        })
        .collect();
    let mut settings = vec![("default", EscaConfig::default())];
    settings.extend(
        DRAM_AXES
            .iter()
            .map(|axis| (axis.name, with_dram(EscaConfig::default(), axis))),
    );
    let mut out = Vec::new();
    for (name, cfg) in settings {
        for reuse in ["off", "on", "on_warm_cache"] {
            let session = StreamingSession::new(Esca::new(cfg).unwrap(), layers.clone(), 2)
                .with_matching_reuse(reuse != "off");
            if reuse == "on_warm_cache" {
                session.run_golden_batch(&frames[..1]).unwrap();
            }
            let report = session.run_batch(&frames).unwrap();
            if reuse != "off" {
                assert!(
                    report.per_frame[1].matching_resident,
                    "{name}: frame 1 not resident"
                );
            }
            assert_eq!(
                report.per_frame[0].matching_resident,
                reuse == "on_warm_cache",
                "{name}: frame 0 residency"
            );
            out.push(BatchVector {
                config: name.to_string(),
                matching_reuse: reuse.to_string(),
                weight_load_cycles: report.weight_load_cycles(),
                schedule_2: report
                    .modeled_schedule(2)
                    .iter()
                    .map(|s| (s.frame, s.engine, s.start_cycle, s.cycles))
                    .collect(),
                per_frame: report.per_frame,
                steady_frame0: report.steady_frame0,
                telemetry_cycle: report.telemetry.cycle,
            });
        }
    }
    out
}

fn vector() -> CycleVector {
    let mut chains = Vec::new();
    let cases = CASES
        .iter()
        .map(|case| {
            if case.mode == Mode::Chain {
                let (vector, per_layer) = run_chain(case);
                chains.push(ChainVector {
                    case: case.name.to_string(),
                    per_layer,
                });
                return vector;
            }
            layer_vector(case.name.to_string(), run(case, config(case)))
        })
        .collect();
    let traced = Case {
        name: "traced_t4_f2_p2_k3_1x8",
        side: 6,
        in_ch: 1,
        out_ch: 8,
        kernel: 3,
        tile: 4,
        fifo_depth: 2,
        fill: 2,
        resident: false,
        shards: 1,
        relu: false,
        mode: Mode::Layer,
    };
    let mut cfg = config(&traced);
    cfg.record_trace = true;
    let traced_chrome = run(&traced, cfg)
        .trace
        .to_chrome_trace(1)
        .to_json()
        .unwrap();
    let traced_resident = [1, 3]
        .into_iter()
        .map(|shards| {
            let case = Case {
                resident: true,
                shards,
                ..traced
            };
            let run = run(&case, cfg);
            let chrome = run.trace.to_chrome_trace(1).to_json().unwrap();
            let name = format!("{}_resident_s{shards}", case.name);
            TracedVector {
                vector: layer_vector(name, run),
                chrome,
            }
        })
        .collect();
    let mut chains = chains.into_iter();
    let chain_per_layer = chains.next().map(|c| c.per_layer).unwrap_or_default();
    CycleVector {
        cases,
        traced_chrome,
        traced_resident,
        chain_per_layer,
        width_chains: chains.collect(),
        dram_cases: dram_cases(),
        batches: batches(),
    }
}

fn render(v: &CycleVector) -> String {
    serde_json::to_string_pretty(v).unwrap() + "\n"
}

#[test]
fn cycle_model_reproduces_committed_vector() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once and commit the file");
    let expected: CycleVector = serde_json::from_str(&committed).expect("fixture parses");
    let actual = vector();
    for (a, e) in actual.cases.iter().zip(&expected.cases) {
        assert_eq!(a, e, "case {} drifted from the committed vector", e.case);
    }
    assert_eq!(actual.cases.len(), expected.cases.len());
    assert_eq!(
        actual.traced_chrome, expected.traced_chrome,
        "traced Chrome export drifted"
    );
    assert_eq!(
        actual.traced_resident, expected.traced_resident,
        "matching-resident traced layers drifted"
    );
    assert_eq!(
        actual.chain_per_layer, expected.chain_per_layer,
        "chain per-layer stats drifted"
    );
    assert_eq!(
        actual.width_chains, expected.width_chains,
        "width-changing chain per-layer stats drifted"
    );
    for (a, e) in actual.dram_cases.iter().zip(&expected.dram_cases) {
        assert_eq!(
            a, e,
            "DRAM case {} drifted from the committed vector",
            e.case
        );
    }
    assert_eq!(actual.dram_cases.len(), expected.dram_cases.len());
    for (a, e) in actual.batches.iter().zip(&expected.batches) {
        assert_eq!(
            a, e,
            "batch {} (reuse {}) drifted from the committed vector",
            e.config, e.matching_reuse
        );
    }
    assert_eq!(actual.batches.len(), expected.batches.len());
    assert!(
        render(&actual) == committed,
        "rendered vector differs from the committed file"
    );
}

/// A chain shares one tile walk among the layers with the same array
/// group loop; layer by layer, `run_layer_with` ticks each walk afresh.
/// Over the stack 1→16→40→16→16, whose group loops are (1, 1), (3, 3),
/// (3, 1) and (1, 1) again, the two must agree on every per-layer
/// [`CycleStats`] and on the merged [`LayerTelemetry`], including the
/// MAC histogram over the zeros each ReLU leaves, across tile sides,
/// FIFO depths, kernels, residency, shard counts and tracing.
#[test]
fn shared_tile_walks_match_layer_by_layer_runs() {
    let widths = [1usize, 16, 40, 16, 16];
    for kernel in [3u32, 5] {
        let layers: Vec<(QuantizedWeights, bool)> = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let cw = ConvWeights::seeded(kernel, w[0], w[1], 70 + i as u64);
                (QuantizedWeights::auto(&cw, 8, 10).unwrap(), true)
            })
            .collect();
        let qin = input(10, 1, u64::from(kernel));
        for (tile, fifo_depth, resident, shards, record_trace) in walk_settings() {
            let mut cfg = EscaConfig::default();
            cfg.tile = TileShape::cube(tile);
            cfg.kernel = kernel;
            cfg.fifo_depth = fifo_depth;
            cfg.record_trace = record_trace;
            let esca = Esca::new(cfg).unwrap();
            let opts = LayerOpts {
                load_weights: !resident,
                matching_resident: resident,
                shards,
            };
            let what = format!(
                "k{kernel} t{tile} f{fifo_depth} resident {resident} shards {shards} \
                 trace {record_trace}"
            );
            let net = esca.run_chain(&qin, &layers, opts).unwrap();
            let mut x = qin.clone();
            let mut total = CycleStats::default();
            let mut telemetry = LayerTelemetry::new();
            let mut per_layer = Vec::new();
            for (layer, (w, relu)) in layers.iter().enumerate() {
                let run = esca.run_layer_with(&x, w, *relu, opts).unwrap();
                let start_cycle = total.total_cycles();
                total += &run.stats;
                telemetry.merge(&run.telemetry);
                telemetry.push_layer_span(LayerSpan {
                    layer: layer as u32,
                    start_cycle,
                    end_cycle: total.total_cycles(),
                    matching_resident: run.stats.matching_resident,
                });
                per_layer.push(run.stats);
                x = run.output;
            }
            assert_eq!(net.per_layer, per_layer, "{what}: per-layer stats");
            assert_eq!(net.total, total, "{what}: total");
            assert_eq!(net.telemetry, telemetry, "{what}: telemetry");
            assert_eq!(net.output.features(), x.features(), "{what}: output");
            let macs = &net.telemetry.match_effective_macs;
            assert_eq!(
                macs.count(),
                total.matches,
                "{what}: one MAC sample per match"
            );
            assert!(
                macs.sum() < total.effective_macs,
                "{what}: ReLU zeros never reached a match"
            );
        }
    }
}

/// Every (tile side, FIFO depth, residency, shards, tracing) setting the
/// shared-walk test sweeps.
fn walk_settings() -> impl Iterator<Item = (u32, usize, bool, usize, bool)> {
    [4u32, 8].into_iter().flat_map(|tile| {
        [2usize, 16].into_iter().flat_map(move |fifo| {
            [false, true].into_iter().flat_map(move |resident| {
                [1usize, 3].into_iter().flat_map(move |shards| {
                    [false, true]
                        .into_iter()
                        .map(move |trace| (tile, fifo, resident, shards, trace))
                })
            })
        })
    })
}

/// A bandwidth `validate()` accepts but whose transfers would overflow
/// the cycle sums is a typed error, in debug and in release alike.
#[test]
fn tiny_dram_bandwidth_is_a_config_error_not_an_overflow() {
    let case = &CASES[14];
    assert!(case.mode == Mode::Chain);
    let mut cfg = config(case);
    cfg.dram_bytes_per_cycle = 1e-18;
    let esca = Esca::new(cfg).unwrap();
    let err = esca
        .run_chain(&case_input(case), &chain_layers(case), LayerOpts::default())
        .unwrap_err();
    assert!(
        matches!(&err, esca::EscaError::Config { reason } if reason.contains("dram bandwidth")),
        "unexpected error {err:?}"
    );
}

#[test]
#[ignore = "writes the fixture; run once after an intentional timing change"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&vector())).unwrap();
}
