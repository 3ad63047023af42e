//! Component micro-benchmarks: the individual kernels underlying the
//! system (encoding, window queries, golden convolutions, full-layer
//! simulation). These have no direct counterpart in the paper but keep the
//! simulator's own performance in check.

use criterion::{criterion_group, criterion_main, Criterion};
use esca::encode::EncodedFeatureMap;
use esca::{Esca, EscaConfig};
use esca_bench::workloads;
use esca_sscn::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
use esca_sscn::{conv, ops};
use esca_tensor::{LineRuns, QuantParams, TileShape};

fn bench(c: &mut Criterion) {
    let layers = workloads::unet_subconv_workload(workloads::EVAL_SEEDS[0]);
    let layer = &layers[1]; // 16 -> 16 full-resolution layer
    let qw = QuantizedWeights::auto(&layer.weights, 8, 12).unwrap();
    let qin = quantize_tensor(&layer.input, qw.quant().act);

    c.bench_function("components/encode_feature_map", |b| {
        b.iter(|| EncodedFeatureMap::encode(&qin, TileShape::cube(8)).unwrap());
    });

    c.bench_function("components/line_runs_build", |b| {
        b.iter(|| LineRuns::new(qin.coords()));
    });

    let runs = LineRuns::new(qin.coords());
    c.bench_function("components/line_runs_window_queries", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &coord in qin.coords() {
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        total += runs
                            .window(coord.x + dx, coord.y + dy, coord.z - 1, coord.z + 2)
                            .len();
                    }
                }
            }
            total
        });
    });

    c.bench_function("components/golden_conv_f32", |b| {
        b.iter(|| conv::submanifold_conv3d(&layer.input, &layer.weights).unwrap());
    });

    c.bench_function("components/golden_conv_quantized", |b| {
        b.iter(|| submanifold_conv3d_q(&qin, &qw, true).unwrap());
    });

    c.bench_function("components/count_matches", |b| {
        b.iter(|| ops::count_matches(&layer.input, 3));
    });

    c.bench_function("components/full_layer_simulation", |b| {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        b.iter(|| esca.run_layer(&qin, &qw, true).unwrap());
    });

    // Quantization path cost.
    c.bench_function("components/quantize_tensor", |b| {
        let p = QuantParams::new(8).unwrap();
        b.iter(|| quantize_tensor(&layer.input, p));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench
}
criterion_main!(benches);
