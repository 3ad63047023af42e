//! Matching-reuse engine benchmark: how much host wall-clock the rulebook
//! cache and the flat gather→GEMM→scatter path buy over the direct
//! per-layer execution of the SS U-Net golden model, per GEMM backend.
//!
//! For every grid in the mode's workload list, three execution modes run
//! over the same ShapeNet-like voxelized samples:
//!
//! * **direct** — `SsUNet::forward`, the per-site hash-probing reference
//!   path that re-derives coordinate matching in every layer;
//! * **flat cold** — `SsUNet::forward_engine` with a fresh engine per
//!   pass: flat kernels, rulebooks built once per resolution level;
//! * **flat cached** — a persistent engine across passes: warm-up builds
//!   every rulebook and site map once per sample geometry, every measured
//!   pass replays them from the per-op cache with zero matching work.
//!
//! The flat modes run once per [`GemmBackendKind`]: `scalar-ref` outputs
//! are asserted bit-identical to the direct path, `blocked` outputs
//! epsilon-bounded (reassociated f32 adds). A per-layer-width microkernel
//! section times one tap GEMM scalar-vs-blocked at the U-Net's channel
//! widths, and the streaming section checks the quantized golden path is
//! bit-identical across backends (integer accumulation is exact).
//!
//! A matching-reuse section runs the cycle model over a static scene with
//! the session's matching reuse off and on: with reuse on, every frame
//! after the first goes matching-resident with zero match cycles.
//!
//! Results are written machine-readably to
//! `target/esca-reports/BENCH_sscn.json`, and in full mode also to
//! `BENCH_sscn.json` in the working directory. Modes:
//!
//! * `--smoke` — 64³ only, small reps: the fast CI/verify variant;
//! * `--full` (or no flag) — 64³ **and** the ROADMAP-target 192³
//!   workload, and gates `blocked` flat-cached vs direct ≥ 4.5× on 192³.

// A benchmark binary exists to measure wall-clock; exempt from the
// workspace-wide `disallowed-methods` wall on `Instant::now` (clippy.toml).
#![allow(clippy::disallowed_methods)]

use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_bench::{report, workloads};
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::rulebook::TapRules;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Per-element tolerance of the blocked tier vs the scalar reference:
/// reassociated f32 accumulation over ≤ a few hundred terms.
const BLOCKED_TOL: f32 = 1e-4;

#[derive(Debug, Serialize)]
struct CacheJson {
    misses: u64,
    hits: u64,
    hit_rate: f64,
}

#[derive(Debug, Serialize)]
struct LevelJson {
    level: usize,
    grid_side: u32,
    layers: usize,
    hits: u64,
    hit_rate: f64,
}

#[derive(Debug, Serialize)]
struct BackendJson {
    backend: &'static str,
    flat_cold_ms: f64,
    flat_cached_ms: f64,
    flat_cached_best_ms: f64,
    speedup_cold: f64,
    speedup_cached: f64,
    /// Best-of-reps ratio (per-sample minima on both sides): the
    /// noise-robust companion statistic to the mean the gate checks.
    speedup_cached_best: f64,
    /// Persistent-engine per-op geometry-cache counters over warm-up +
    /// measured passes: misses freeze after warm-up, every measured
    /// request hits.
    cache: CacheJson,
}

#[derive(Debug, Serialize)]
struct StreamingJson {
    frames: usize,
    layers: usize,
    backend: &'static str,
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    hit_rate: f64,
}

/// Matching-reuse section: the cycle model's match cycles over a static
/// scene without and with the session's matching reuse.
#[derive(Debug, Serialize)]
struct MatchingReuseJson {
    frames: usize,
    layers: usize,
    resident_frames: u64,
    match_cycles_without_reuse: u64,
    match_cycles_with_reuse: u64,
}

#[derive(Debug, Serialize)]
struct GridJson {
    grid_side: u32,
    layers: usize,
    samples: usize,
    passes_per_mode: usize,
    seeds: Vec<u64>,
    mean_nnz: f64,
    direct_ms: f64,
    direct_best_ms: f64,
    backends: Vec<BackendJson>,
    per_level: Vec<LevelJson>,
    streaming: StreamingJson,
    matching_reuse: MatchingReuseJson,
}

#[derive(Debug, Serialize)]
struct MicrokernelJson {
    in_ch: usize,
    out_ch: usize,
    rows: usize,
    scalar_ms: f64,
    blocked_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchJson {
    bench: &'static str,
    workload: String,
    mode: &'static str,
    grids: Vec<GridJson>,
    microkernel: Vec<MicrokernelJson>,
}

/// Wall-clock summary of one mode's passes: the plain mean, and the mean
/// of each sample's best rep — the noise-robust statistic the speedup
/// gate uses (host scheduler jitter inflates means, never deflates
/// minima; both sides of every ratio use the same statistic). All modes
/// are measured **interleaved** within each rep — direct, cold and
/// cached passes of one sample run back-to-back — so a host load spike
/// lands on every mode's timings equally instead of skewing whichever
/// phase it happened to overlap, and the paired minima come from the
/// same quiet windows.
#[derive(Debug, Clone, Copy)]
struct PassTimes {
    mean_ms: f64,
    best_ms: f64,
}

/// Accumulates per-sample wall-clock observations for one mode.
struct ModeTimes {
    sum: f64,
    n: usize,
    best: Vec<f64>,
}

impl ModeTimes {
    fn new(samples: usize) -> Self {
        ModeTimes {
            sum: 0.0,
            n: 0,
            best: vec![f64::INFINITY; samples],
        }
    }

    fn record(&mut self, sample: usize, dt_ms: f64) {
        self.sum += dt_ms;
        self.n += 1;
        self.best[sample] = self.best[sample].min(dt_ms);
    }

    fn times(&self) -> PassTimes {
        PassTimes {
            mean_ms: self.sum / self.n as f64,
            best_ms: self.best.iter().sum::<f64>() / self.best.len() as f64,
        }
    }
}

/// Asserts `got` within the blocked tier's per-element epsilon of `want`.
fn assert_epsilon(
    want: &esca_tensor::SparseTensor<f32>,
    got: &esca_tensor::SparseTensor<f32>,
    what: &str,
) {
    assert_eq!(want.coords(), got.coords(), "{what}: active set diverged");
    for (x, y) in got.features().iter().zip(want.features()) {
        assert!(
            (x - y).abs() <= BLOCKED_TOL * y.abs().max(1.0),
            "{what}: {x} vs {y} outside epsilon"
        );
    }
}

/// Measures one grid workload: direct reference once, then the flat
/// cold/cached modes per backend with the exactness-tier asserts.
fn bench_grid(grid_side: u32, n_samples: usize, reps: usize, smoke: bool) -> GridJson {
    let seeds: Vec<u64> = workloads::EVAL_SEEDS[..n_samples].to_vec();
    let net = workloads::unet();
    let levels = net.config().levels;

    let samples: Vec<_> = seeds
        .iter()
        .map(|&s| workloads::shapenet_voxelized_at(s, grid_side))
        .collect();
    let mean_nnz = samples.iter().map(|s| s.nnz() as f64).sum::<f64>() / samples.len() as f64;
    println!(
        "== {grid_side}^3: {} ShapeNet-like samples, mean nnz {mean_nnz:.0}, \
         {} passes/mode ==",
        samples.len(),
        samples.len() * reps
    );

    // Persistent (cached-mode) engines, warmed first so the steady state
    // is measured: the warm-up pass per geometry pays the rulebook/map
    // builds, every measured pass then replays them from the per-op cache.
    let mut cached_engines: Vec<FlatEngine> = GemmBackendKind::ALL
        .iter()
        .map(|&kind| {
            let mut engine = FlatEngine::with_backend(kind);
            for s in &samples {
                let _ = net.forward_engine(s, &mut engine).expect("runs");
            }
            engine
        })
        .collect();

    // Interleaved measurement: every rep runs direct, then each backend's
    // cold and cached pass, per sample, back-to-back (see [`PassTimes`]).
    // Exactness tiers are asserted on every pass: scalar-ref is
    // bit-identical to the direct kernels, blocked is epsilon-bounded.
    let mut direct_t = ModeTimes::new(samples.len());
    let mut cold_t: Vec<ModeTimes> = (0..GemmBackendKind::ALL.len())
        .map(|_| ModeTimes::new(samples.len()))
        .collect();
    let mut cached_t: Vec<ModeTimes> = (0..GemmBackendKind::ALL.len())
        .map(|_| ModeTimes::new(samples.len()))
        .collect();
    for _ in 0..reps {
        for (si, s) in samples.iter().enumerate() {
            let t0 = Instant::now();
            let d = net.forward(s).expect("runs");
            direct_t.record(si, t0.elapsed().as_secs_f64() * 1e3);

            for (bi, &kind) in GemmBackendKind::ALL.iter().enumerate() {
                // Cold: a fresh engine (empty cache) every pass.
                let t0 = Instant::now();
                let mut fresh = FlatEngine::with_backend(kind);
                let c = net.forward_engine(s, &mut fresh).expect("runs");
                cold_t[bi].record(si, t0.elapsed().as_secs_f64() * 1e3);

                let t0 = Instant::now();
                let k = net
                    .forward_engine(s, &mut cached_engines[bi])
                    .expect("runs");
                cached_t[bi].record(si, t0.elapsed().as_secs_f64() * 1e3);

                match kind {
                    GemmBackendKind::ScalarRef => {
                        assert_eq!(d.coords(), c.coords());
                        assert_eq!(d.features(), c.features(), "cold scalar-ref flat diverged");
                        assert_eq!(
                            d.features(),
                            k.features(),
                            "cached scalar-ref flat diverged"
                        );
                    }
                    GemmBackendKind::Blocked => {
                        assert_epsilon(&d, &c, "cold blocked flat");
                        assert_epsilon(&d, &k, "cached blocked flat");
                    }
                }
            }
        }
    }

    let direct = direct_t.times();
    let mut backends = Vec::new();
    for (bi, &kind) in GemmBackendKind::ALL.iter().enumerate() {
        let cold = cold_t[bi].times();
        let cached = cached_t[bi].times();
        let engine = &cached_engines[bi];
        println!(
            "  [{}] direct {:.2} ms | flat cold {:.2} ms ({:.2}x) | \
             flat cached {:.2} ms ({:.2}x mean, {:.2}x best)",
            kind.label(),
            direct.mean_ms,
            cold.mean_ms,
            direct.mean_ms / cold.mean_ms,
            cached.mean_ms,
            direct.mean_ms / cached.mean_ms,
            direct.best_ms / cached.best_ms
        );
        backends.push(BackendJson {
            backend: kind.label(),
            flat_cold_ms: cold.mean_ms,
            flat_cached_ms: cached.mean_ms,
            flat_cached_best_ms: cached.best_ms,
            speedup_cold: direct.mean_ms / cold.mean_ms,
            speedup_cached: direct.mean_ms / cached.mean_ms,
            speedup_cached_best: direct.best_ms / cached.best_ms,
            cache: CacheJson {
                misses: engine.cache().misses(),
                hits: engine.cache().hits(),
                hit_rate: engine.cache().hit_rate(),
            },
        });
    }

    // Per-level cache accounting on one fresh pass: group layers by the
    // grid side their input lives on (level l runs at grid_side / 2^l).
    let mut probe = FlatEngine::new();
    let mut layer_stats: Vec<(u32, bool)> = Vec::new();
    let _ = net
        .forward_with(&samples[0], |_, _, w, x| {
            let misses_before = probe.cache().misses();
            let y = probe.subconv(x, w, true);
            layer_stats.push((x.extent().x, probe.cache().misses() == misses_before));
            y
        })
        .expect("runs");
    let per_level: Vec<LevelJson> = (0..levels)
        .map(|l| {
            let side = grid_side >> l;
            let layers = layer_stats.iter().filter(|(s, _)| *s == side).count();
            let hits = layer_stats.iter().filter(|(s, h)| *s == side && *h).count() as u64;
            LevelJson {
                level: l,
                grid_side: side,
                layers,
                hits,
                hit_rate: hits as f64 / layers as f64,
            }
        })
        .collect();
    assert_eq!(
        layer_stats.len(),
        net.subconv_layers().len(),
        "every Sub-Conv layer accounted to a level"
    );
    for l in &per_level {
        println!(
            "  level {}: {}^3, {} layers, {} hits ({:.0}% reuse)",
            l.level,
            l.grid_side,
            l.layers,
            l.hits,
            l.hit_rate * 100.0
        );
    }

    let streaming = bench_streaming(grid_side, &seeds, smoke);
    let matching_reuse = bench_matching_reuse(grid_side, &seeds, smoke);

    GridJson {
        grid_side,
        layers: net.subconv_layers().len(),
        samples: samples.len(),
        passes_per_mode: samples.len() * reps,
        seeds,
        mean_nnz,
        direct_ms: direct.mean_ms,
        direct_best_ms: direct.best_ms,
        backends,
        per_level,
        streaming,
        matching_reuse,
    }
}

/// Static-geometry streaming: the quantized golden path over repeated
/// frames of one scene, fresh cache per frame vs one shared cache, on
/// the default (blocked) backend — with a scalar-ref batch asserted
/// bit-identical (integer accumulation is associative, so the `_q` path
/// is exact on every backend).
fn bench_streaming(grid_side: u32, seeds: &[u64], smoke: bool) -> StreamingJson {
    let stack = workloads::streaming_stack(3);
    let n_frames = if smoke { 4 } else { 8 };
    let frames: Vec<_> = {
        let f = workloads::streaming_frames(seeds[0], 1, grid_side, &stack);
        (0..n_frames).map(|_| f[0].clone()).collect()
    };
    let esca = Esca::new(EscaConfig::default()).expect("valid config");
    let t0 = Instant::now();
    for f in &frames {
        let cache = Arc::new(RulebookCache::new());
        let _ = esca
            .run_network_golden(f, &stack, &cache, GemmBackendKind::Blocked)
            .expect("runs");
    }
    let uncached_ms = t0.elapsed().as_secs_f64() * 1e3 / n_frames as f64;
    let session =
        StreamingSession::new(esca, stack.clone(), 1).with_gemm_backend(GemmBackendKind::Blocked);
    let _ = session.run_golden_batch(&frames).expect("runs"); // warm
    let t0 = Instant::now();
    let blocked_out = session.run_golden_batch(&frames).expect("runs");
    let cached_ms = t0.elapsed().as_secs_f64() * 1e3 / n_frames as f64;
    let hit_rate = session.rulebook_cache().hit_rate();

    // Quantized cross-backend bit-exactness on the same batch.
    let esca2 = Esca::new(EscaConfig::default()).expect("valid config");
    let scalar_session = StreamingSession::new(esca2, stack.clone(), 1)
        .with_gemm_backend(GemmBackendKind::ScalarRef);
    let scalar_out = scalar_session.run_golden_batch(&frames).expect("runs");
    for (b, s) in blocked_out.iter().zip(&scalar_out) {
        assert_eq!(b.coords(), s.coords());
        assert_eq!(
            b.features(),
            s.features(),
            "quantized golden path diverged across GEMM backends"
        );
    }

    println!(
        "  streaming golden path, {n_frames} static frames x {} layers: \
         {uncached_ms:.2} ms/frame uncached -> {cached_ms:.2} ms/frame shared cache \
         ({:.2}x, hit rate {hit_rate:.2}, q bit-exact across backends)",
        stack.len(),
        uncached_ms / cached_ms,
    );

    StreamingJson {
        frames: n_frames,
        layers: stack.len(),
        backend: GemmBackendKind::Blocked.label(),
        uncached_ms,
        cached_ms,
        speedup: uncached_ms / cached_ms,
        hit_rate,
    }
}

/// Matching reuse over a static scene in the cycle model: the same batch
/// with the session's matching reuse off and on, asserting every frame
/// after the first goes matching-resident with zero match cycles.
fn bench_matching_reuse(grid_side: u32, seeds: &[u64], smoke: bool) -> MatchingReuseJson {
    let stack = workloads::streaming_stack(3);
    let n_frames = if smoke { 4 } else { 8 };
    let frames: Vec<_> = {
        let f = workloads::streaming_frames(seeds[0], 1, grid_side, &stack);
        (0..n_frames).map(|_| f[0].clone()).collect()
    };
    let run_batch = |reuse: bool| {
        let esca = Esca::new(EscaConfig::default()).expect("valid config");
        StreamingSession::new(esca, stack.clone(), 1)
            .with_matching_reuse(reuse)
            .run_batch(&frames)
            .expect("runs")
    };
    let cold_report = run_batch(false);
    let resident_report = run_batch(true);
    let match_cycles_without_reuse: u64 =
        cold_report.per_frame.iter().map(|s| s.match_cycles).sum();
    let match_cycles_with_reuse: u64 = resident_report
        .per_frame
        .iter()
        .map(|s| s.match_cycles)
        .sum();
    let resident_frames = resident_report
        .per_frame
        .iter()
        .filter(|s| s.matching_resident)
        .count() as u64;
    assert_eq!(
        resident_frames,
        n_frames as u64 - 1,
        "every static frame after the first goes matching-resident"
    );
    for s in &resident_report.per_frame[1..] {
        assert_eq!(
            s.match_cycles, 0,
            "resident frames charge zero match cycles"
        );
    }

    println!(
        "  matching reuse, {n_frames} static frames x {} layers: match cycles \
         {match_cycles_without_reuse} -> {match_cycles_with_reuse} \
         ({resident_frames} resident frames)",
        stack.len(),
    );

    MatchingReuseJson {
        frames: n_frames,
        layers: stack.len(),
        resident_frames,
        match_cycles_without_reuse,
        match_cycles_with_reuse,
    }
}

/// Times one tap GEMM (`rows × in_ch × out_ch` MACs) per backend at each
/// of the U-Net's distinct layer widths — the scalar-vs-blocked
/// microkernel table for EXPERIMENTS.md.
fn bench_microkernel(smoke: bool) -> Vec<MicrokernelJson> {
    let net = workloads::unet();
    let mut widths: Vec<(usize, usize)> = net
        .subconv_layers()
        .iter()
        .map(|(_, w)| (w.in_ch(), w.out_ch()))
        .collect();
    widths.sort_unstable();
    widths.dedup();

    let rows: usize = if smoke { 2_000 } else { 20_000 };
    let reps = if smoke { 3 } else { 5 };
    let rules = TapRules {
        input: (0..rows as u32).collect(),
        output: (0..rows as u32).collect(),
    };
    println!("== microkernel: one tap GEMM, {rows} rows/op ==");
    let mut out = Vec::new();
    for (in_ch, out_ch) in widths {
        let feats: Vec<f32> = (0..rows * in_ch)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.6)
            .collect();
        let w_tap: Vec<f32> = (0..in_ch * out_ch)
            .map(|i| ((i * 53 + 29) % 97) as f32 * 0.017 - 0.8)
            .collect();
        let time_backend = |kind: GemmBackendKind| {
            let backend = kind.backend();
            let mut acc = vec![0.0f32; rows * out_ch];
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                acc.fill(0.0);
                let t0 = Instant::now();
                backend.tap_f32(&feats, &rules, &w_tap, in_ch, out_ch, &mut acc);
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            (best, acc)
        };
        let (scalar_ms, scalar_acc) = time_backend(GemmBackendKind::ScalarRef);
        let (blocked_ms, blocked_acc) = time_backend(GemmBackendKind::Blocked);
        for (x, y) in blocked_acc.iter().zip(&scalar_acc) {
            assert!(
                (x - y).abs() <= BLOCKED_TOL * y.abs().max(1.0),
                "microkernel blocked tier outside epsilon at {in_ch}x{out_ch}"
            );
        }
        println!(
            "  {in_ch:>3} -> {out_ch:>3}: scalar {scalar_ms:.3} ms, blocked {blocked_ms:.3} ms \
             ({:.2}x)",
            scalar_ms / blocked_ms
        );
        out.push(MicrokernelJson {
            in_ch,
            out_ch,
            rows,
            scalar_ms,
            blocked_ms,
            speedup: scalar_ms / blocked_ms,
        });
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let net = workloads::unet();
    // Smoke: 64³ only (CI/verify). Full (default or `--full`): 64³ and
    // the ROADMAP-target 192³ workload, both reported side by side.
    let grid_plan: &[(u32, usize, usize)] = if smoke {
        &[(64, 1, 2)]
    } else {
        &[(64, 2, 2), (192, 4, 5)]
    };

    let grids: Vec<GridJson> = grid_plan
        .iter()
        .map(|&(side, n, reps)| bench_grid(side, n, reps, smoke))
        .collect();
    let microkernel = bench_microkernel(smoke);

    let json = BenchJson {
        bench: "sscn_engine",
        workload: format!(
            "SS U-Net ({} Sub-Conv layers) on ShapeNet-like occupancy grids",
            net.subconv_layers().len()
        ),
        mode: if smoke { "smoke" } else { "full" },
        grids,
        microkernel,
    };

    let report = report::write_json("BENCH_sscn", &json).expect("report dir writable");
    println!("wrote {}", report.display());

    // Full mode: BENCH_sscn.json, then the ROADMAP gate (blocked ≥ 4.5x on 192³).
    if !smoke {
        std::fs::write(
            "BENCH_sscn.json",
            serde_json::to_string_pretty(&json).expect("serializable") + "\n",
        )
        .expect("write BENCH_sscn.json");
        let target = json
            .grids
            .iter()
            .find(|g| g.grid_side == 192)
            .expect("full mode benches the 192^3 workload");
        let blocked = target
            .backends
            .iter()
            .find(|b| b.backend == GemmBackendKind::Blocked.label())
            .expect("blocked backend benched");
        assert!(
            blocked.speedup_cached >= 4.5,
            "blocked cached flat path must be >= 4.5x (mean) over the direct path on 192^3, \
             got {:.2}x",
            blocked.speedup_cached
        );
    }
}
