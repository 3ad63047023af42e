//! Committed cycle vectors: the cycle model's timing pinned as data.
//!
//! `fixture_vectors.rs` pins one layer's *output*; this suite pins what a
//! speed change to the tick loop must not move. Each case runs one layer
//! over a fixed input and records its [`CycleStats`], its
//! [`LayerTelemetry`] (every field, through its `Debug` form), a hash of
//! the output and `pipeline_cycles`. The cases span the configuration
//! space the loop's fast paths depend on: tile sides 2/4/8/16 (with tiles
//! clipped by the grid border), FIFO depths 1/2/16, pipeline fill 0/2/5,
//! kernels 3/5, matching residency on and off, 1 and 3 tile shards, and
//! layer shapes 1→16, 16→16, 16→20 (a partial output-lane group), 32→48
//! (six array cycles per match) and 600→4 (wide enough that one match's
//! products overflow an `i32`). Inputs mix empty, fully dense and sparse
//! (x, y) lines and leave one grid quadrant empty. One traced run with
//! depth-2 FIFOs pins the Chrome trace export as well.
//!
//! The rendered JSON must equal `tests/fixtures/cycle_vector.json` byte
//! for byte. Regenerate (only after an *intentional* timing change) with
//! `cargo test -p esca --test cycle_vectors -- --ignored regenerate` and
//! commit the rewritten file.

use esca::{CycleStats, Esca, EscaConfig, LayerOpts, LayerRun};
use esca_sscn::quant::{submanifold_conv3d_q, LayerQuant, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
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
}

const CASES: [Case; 11] = [
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
    t
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

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CycleVector {
    cases: Vec<CaseVector>,
    /// Chrome trace JSON of one traced layer with depth-2 FIFOs.
    traced_chrome: String,
}

fn run(case: &Case, cfg: EscaConfig) -> LayerRun {
    let opts = LayerOpts {
        load_weights: !case.resident,
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

fn vector() -> CycleVector {
    let cases = CASES
        .iter()
        .map(|case| {
            let run = run(case, config(case));
            CaseVector {
                case: case.name.to_string(),
                pipeline_cycles: run.stats.pipeline_cycles,
                output_hash: output_hash(&run.output),
                stats: run.stats,
                telemetry: format!("{:?}", run.telemetry),
            }
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
    };
    let mut cfg = config(&traced);
    cfg.record_trace = true;
    let traced_chrome = run(&traced, cfg)
        .trace
        .to_chrome_trace(1)
        .to_json()
        .unwrap();
    CycleVector {
        cases,
        traced_chrome,
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
    assert!(
        render(&actual) == committed,
        "rendered vector differs from the committed file"
    );
}

#[test]
#[ignore = "writes the fixture; run once after an intentional timing change"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&vector())).unwrap();
}
