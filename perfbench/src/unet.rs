//! `unet_moving` and `unet_static`: the full SS U-Net in f32 through a
//! `FlatEngine` on 192³ frames of the rotating object.
//!
//! The untraced call is one `SsUNet::forward_engine` pass. The traced run
//! makes the same pass through the public calls `forward_engine` is built
//! from (the engine's geometry cache, `apply_rulebook_flat_with` with the
//! engine's GEMM backend behind a timing wrapper, and the cached
//! strided/transpose maps), so each layer gets its own span; its outputs
//! and MAC counts must equal the untraced pass exactly.

use crate::inputs::RotatingObject;
use crate::stats::Fnv;
use crate::trace::{SpanId, Tracer};
use crate::{Step, Workload};
use esca_bench::workloads::{self, GRID_SIDE};
use esca_sscn::engine::{apply_rulebook_flat_with, FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackend;
use esca_sscn::rulebook::TapRules;
use esca_sscn::sparse_ops::{concat_channels, StridedWeights};
use esca_sscn::unet::SsUNet;
use esca_sscn::weights::ConvWeights;
use esca_tensor::{ActiveSetFingerprint, Coord3, Extent3, SparseTensor, Q16, Q8};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `forward_engine` passes per call: one call is an 8-frame request. At
/// 10-20 ms per pass, single-pass calls left the p99 tail to rare host
/// stalls on a small shared machine (0.35 run-to-run spread); 8-pass
/// requests brought it to 0.10.
const PASSES_PER_CALL: usize = 8;
/// Frames in the moving pool: every pass over the pool sees new geometry.
const MOVING_FRAMES: usize = 32;
/// Fixed samples cycled by the static workload.
const STATIC_FRAMES: usize = 4;
/// Relative tolerance of the blocked GEMM tier against `SsUNet::forward`.
const TOLERANCE: f32 = 1e-4;

/// The reference result of one pool frame: the first pass over it.
struct Reference {
    output: SparseTensor<f32>,
    hash: u64,
    macs: u64,
    /// Geometry-cache (hits, misses) of the pass; unset after a warm-up
    /// pass, whose cold cache differs from the timed passes'.
    cache_counts: Option<(u64, u64)>,
}

/// Per-layer totals of the traced passes.
#[derive(Default)]
struct LayerTotals {
    passes: u64,
    builds: u64,
    build_ns: u64,
    fingerprints: u64,
    macs: u64,
    tap_macs: u64,
    hits: u64,
    misses: u64,
}

pub struct Unet {
    net: SsUNet,
    frames: Vec<SparseTensor<f32>>,
    engine: FlatEngine,
    /// `unet_moving`: a fresh engine starts every pass over the pool, so
    /// each pass misses the geometry cache and memory stays bounded.
    fresh_engine_per_round: bool,
    next: usize,
    refs: Vec<Option<Reference>>,
    peak_cache_bytes: usize,
    voxelize_ms: Vec<f64>,
    totals: LayerTotals,
}

impl Unet {
    pub fn moving(seed: u64) -> Result<Self, String> {
        let mut voxelize_ms = Vec::new();
        let mut frames =
            RotatingObject::new(seed, GRID_SIDE).frames(MOVING_FRAMES + 1, &mut voxelize_ms);
        // The warm-up frame is not in the pool, so the pool stays unseen.
        let warm = frames.pop().expect("pool plus warm-up frame");
        let mut u = Unet::new(frames, voxelize_ms, true);
        u.net
            .forward_engine(&warm, &mut u.engine)
            .map_err(|e| format!("warm-up pass: {e}"))?;
        Ok(u)
    }

    pub fn fixed(seed: u64) -> Result<Self, String> {
        let mut voxelize_ms = Vec::new();
        let frames = RotatingObject::new(seed, GRID_SIDE).frames(STATIC_FRAMES, &mut voxelize_ms);
        let mut u = Unet::new(frames, voxelize_ms, false);
        // Warm-up: one pass over every sample fills the geometry cache.
        for _ in 0..STATIC_FRAMES {
            u.pass(None);
        }
        for r in u.refs.iter_mut().flatten() {
            r.cache_counts = None;
        }
        Ok(u)
    }

    fn new(frames: Vec<SparseTensor<f32>>, voxelize_ms: Vec<f64>, fresh: bool) -> Self {
        let n = frames.len();
        Unet {
            net: workloads::unet(),
            frames,
            engine: FlatEngine::new(),
            fresh_engine_per_round: fresh,
            next: 0,
            refs: (0..n).map(|_| None).collect(),
            peak_cache_bytes: 0,
            voxelize_ms,
            totals: LayerTotals::default(),
        }
    }
}

impl Unet {
    /// One `forward_engine` pass over the next pool frame (its traced
    /// equivalent with a tracer): its host time, and whether it failed
    /// (an error, or a difference from the frame's reference).
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> (Duration, bool) {
        let idx = self.next;
        if idx == 0 && self.fresh_engine_per_round {
            self.engine = FlatEngine::new();
        }
        self.next = (idx + 1) % self.frames.len();
        let frame = &self.frames[idx];
        let cache = self.engine.cache();
        let (hits0, misses0, macs0) = (cache.hits(), cache.misses(), self.engine.gemm_macs());
        let (result, time, macs) = match tracer {
            None => {
                let t = Instant::now();
                let out = self.net.forward_engine(frame, &mut self.engine);
                let time = t.elapsed();
                let macs = self.engine.gemm_macs() - macs0;
                (out.map_err(|e| e.to_string()), time, macs)
            }
            Some(tr) => {
                tr.set_frame(idx as u64);
                let mut pass = TracedPass {
                    cache: self.engine.cache(),
                    backend: self.engine.backend().backend(),
                    tr,
                    root: 0,
                    totals: &mut self.totals,
                    macs: 0,
                    derived: Duration::ZERO,
                };
                let t = Instant::now();
                let out = pass.run(&self.net, frame);
                let time = t.elapsed().saturating_sub(pass.derived);
                let macs = pass.macs;
                self.totals.passes += 1;
                (out, time, macs)
            }
        };
        let cache = self.engine.cache();
        let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
        self.peak_cache_bytes = self.peak_cache_bytes.max(cache.bytes());
        let Ok(output) = result else {
            return (time, true);
        };
        let mut h = Fnv::default();
        h.tensor(&output, |v: f32| v.to_bits().to_le_bytes());
        let hash = h.finish();
        let same = match &mut self.refs[idx] {
            Some(r) => {
                let counts = *r.cache_counts.get_or_insert((hits, misses));
                r.hash == hash && r.macs == macs && counts == (hits, misses)
            }
            None => {
                self.refs[idx] = Some(Reference {
                    output,
                    hash,
                    macs,
                    cache_counts: Some((hits, misses)),
                });
                true
            }
        };
        (time, !same)
    }
}

impl Workload for Unet {
    fn workers(&self) -> usize {
        0
    }

    fn step(&mut self, mut tracer: Option<&mut Tracer>) -> Result<Step, String> {
        let mut call = Duration::ZERO;
        let mut failed = 0;
        for _ in 0..PASSES_PER_CALL {
            let (time, bad) = self.pass(tracer.as_deref_mut());
            call += time;
            failed += u64::from(bad);
        }
        Ok(Step {
            call,
            offered: PASSES_PER_CALL as u64,
            completed: PASSES_PER_CALL as u64 - failed,
            failed,
            cycles: 0,
            frame_wall: Duration::ZERO,
        })
    }

    fn verify(&self) -> Result<(u64, u64), String> {
        let mut checked = 0;
        let mut failed = 0;
        for (frame, r) in self.frames.iter().zip(&self.refs) {
            let Some(r) = r else { continue };
            let want = self.net.forward(frame).map_err(|e| e.to_string())?;
            checked += 1;
            let close = want.coords() == r.output.coords()
                && want.features().len() == r.output.features().len()
                && want
                    .features()
                    .iter()
                    .zip(r.output.features())
                    .all(|(y, got)| (y - got).abs() <= TOLERANCE * y.abs().max(1.0));
            failed += u64::from(!close);
        }
        Ok((checked, failed))
    }

    fn digest(&self, h: &mut Fnv) {
        for r in self.refs.iter().flatten() {
            h.u64(r.hash);
            h.u64(r.macs);
            let (hits, misses) = r.cache_counts.unwrap_or_default();
            h.u64(hits);
            h.u64(misses);
        }
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        let t = &self.totals;
        let per = t.passes.max(1) as f64;
        let total = tr.total_ns();
        let selfs = tr.self_ns();
        let ms = |ns: u64| ns as f64 / 1e6 / per;
        let get = |m: &BTreeMap<&'static str, u64>, k: &str| m.get(k).copied().unwrap_or(0);
        let gemm_ns = get(&total, "sscn.gemm");
        out.insert(
            "tensor.fingerprint_us",
            get(&total, "tensor.fingerprint") as f64 / 1e3 / per,
        );
        out.insert("tensor.fingerprint_calls", t.fingerprints as f64 / per);
        out.insert("sscn.rulebook.build_ms", ms(t.build_ns));
        out.insert("sscn.rulebook.builds", t.builds as f64 / per);
        let probes = t.hits + t.misses;
        out.insert(
            "sscn.cache.hit_ratio",
            if probes == 0 {
                0.0
            } else {
                t.hits as f64 / probes as f64
            },
        );
        out.insert("sscn.cache.bytes", self.peak_cache_bytes as f64);
        out.insert("sscn.gemm.ms", ms(gemm_ns));
        out.insert("sscn.gemm.macs", t.macs as f64 / per);
        out.insert(
            "sscn.gemm.gmacs_per_s",
            if gemm_ns == 0 {
                0.0
            } else {
                t.tap_macs as f64 / gemm_ns as f64
            },
        );
        out.insert("sscn.subconv.self_ms", ms(get(&selfs, "sscn.subconv")));
        out.insert("sscn.resample_ms", ms(get(&total, "sscn.resample")));
    }

    fn voxelize_ms(&self) -> &[f64] {
        &self.voxelize_ms
    }
}

/// The GEMM backend behind a timing wrapper: every per-tap call is timed
/// and kept for the traced run's `sscn.gemm` spans.
#[derive(Debug)]
struct TimedGemm {
    inner: &'static dyn GemmBackend,
    taps: Mutex<Vec<(Instant, Instant)>>,
}

impl TimedGemm {
    fn timed(&self, f: impl FnOnce()) {
        let a = Instant::now();
        f();
        let b = Instant::now();
        self.taps
            .lock()
            .expect("tap list lock is never poisoned")
            .push((a, b));
    }
}

impl GemmBackend for TimedGemm {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn tap_f32(
        &self,
        feats: &[f32],
        rules: &TapRules,
        w_tap: &[f32],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [f32],
    ) {
        self.timed(|| self.inner.tap_f32(feats, rules, w_tap, in_ch, out_ch, acc));
    }

    fn tap_q(
        &self,
        feats: &[Q16],
        rules: &TapRules,
        w_tap: &[Q8],
        in_ch: usize,
        out_ch: usize,
        acc: &mut [i64],
    ) {
        self.timed(|| self.inner.tap_q(feats, rules, w_tap, in_ch, out_ch, acc));
    }
}

/// One traced pass: the layer walk of `SsUNet::forward_engine` with a
/// span around every geometry request, Sub-Conv kernel, GEMM tap and
/// resampling op.
struct TracedPass<'a> {
    cache: &'a RulebookCache,
    backend: &'static dyn GemmBackend,
    tr: &'a mut Tracer,
    root: SpanId,
    totals: &'a mut LayerTotals,
    macs: u64,
    /// Host time of the derived duplicates run inside the pass, which the
    /// pass's time excludes.
    derived: Duration,
}

impl TracedPass<'_> {
    fn run(
        &mut self,
        net: &SsUNet,
        input: &SparseTensor<f32>,
    ) -> Result<SparseTensor<f32>, String> {
        self.root = self.tr.begin("sscn.unet.pass", None);
        let out = self.walk(net, input).map_err(|e| e.to_string());
        self.tr.end(self.root);
        out
    }

    fn walk(
        &mut self,
        net: &SsUNet,
        input: &SparseTensor<f32>,
    ) -> esca_sscn::Result<SparseTensor<f32>> {
        let cfg = net.config();
        let layers = net.subconv_layers();
        let mut next = 0;
        let mut x = self.subconv(input, &layers[next].1)?;
        next += 1;
        let mut skips = Vec::new();
        for l in 0..cfg.levels {
            for _ in 0..cfg.blocks_per_level {
                x = self.subconv(&x, &layers[next].1)?;
                next += 1;
            }
            if l < cfg.levels - 1 {
                skips.push(x.clone());
                x = self.strided(&x, &net.downs()[l])?;
            }
        }
        for l in (0..cfg.levels - 1).rev() {
            let skip = skips.pop().expect("one skip per non-bottom level");
            let up = self.transpose(&x, &net.ups()[l], skip.extent(), skip.coords())?;
            x = concat_channels(&skip, &up)?;
            for _ in 0..cfg.blocks_per_level {
                x = self.subconv(&x, &layers[next].1)?;
                next += 1;
            }
        }
        net.head().apply(&x)
    }

    /// Times a duplicate of the fingerprint a geometry request computes
    /// internally (derived: excluded from the pass's time).
    fn fingerprint(&mut self, f: impl FnOnce() -> ActiveSetFingerprint) {
        let s = self.tr.begin_derived("tensor.fingerprint", None);
        black_box(f());
        self.tr.end(s);
        self.derived += self.tr.spans()[s].duration();
        self.totals.fingerprints += 1;
    }

    /// Wraps one geometry-cache request, booking it as a build on a miss.
    fn request<R>(&mut self, f: impl FnOnce(&RulebookCache) -> R) -> R {
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let s = self.tr.begin("sscn.rulebook.request", Some(self.root));
        let r = f(self.cache);
        self.tr.end(s);
        let built = self.cache.misses() - misses;
        self.totals.hits += self.cache.hits() - hits;
        self.totals.misses += built;
        if built > 0 {
            self.totals.builds += built;
            self.totals.build_ns += self.tr.spans()[s].duration_ns();
        }
        r
    }

    fn subconv(
        &mut self,
        x: &SparseTensor<f32>,
        w: &ConvWeights,
    ) -> esca_sscn::Result<SparseTensor<f32>> {
        self.fingerprint(|| x.active_fingerprint());
        let rb = self.request(|c| c.get_or_build(x, w.k()));
        let gemm = TimedGemm {
            inner: self.backend,
            taps: Mutex::new(Vec::with_capacity(27)),
        };
        let s = self.tr.begin("sscn.subconv", Some(self.root));
        let out = apply_rulebook_flat_with(x, &rb, w, true, &gemm);
        self.tr.end(s);
        for (a, b) in gemm
            .taps
            .into_inner()
            .expect("tap list lock is never poisoned")
        {
            self.tr.record("sscn.gemm", s, a, b);
        }
        let macs = rb.total_matches() * w.in_ch() as u64 * w.out_ch() as u64;
        self.macs += macs;
        self.totals.macs += macs;
        self.totals.tap_macs += macs;
        out
    }

    fn strided(
        &mut self,
        x: &SparseTensor<f32>,
        w: &StridedWeights,
    ) -> esca_sscn::Result<SparseTensor<f32>> {
        self.fingerprint(|| x.active_fingerprint());
        let map = self.request(|c| c.strided_map(x, w.kd()));
        let s = self.tr.begin("sscn.resample", Some(self.root));
        let out = map.apply(x, w);
        self.tr.end(s);
        self.count_resample(map.sites(), w);
        out
    }

    fn transpose(
        &mut self,
        x: &SparseTensor<f32>,
        w: &StridedWeights,
        fine: Extent3,
        target: &[Coord3],
    ) -> esca_sscn::Result<SparseTensor<f32>> {
        self.fingerprint(|| x.active_fingerprint());
        self.fingerprint(|| ActiveSetFingerprint::of_coords(fine, target));
        let map = self.request(|c| c.transpose_map(x, w.kd(), fine, target))?;
        let s = self.tr.begin("sscn.resample", Some(self.root));
        let out = map.apply(x, w);
        self.tr.end(s);
        self.count_resample(map.sites(), w);
        out
    }

    /// Resampling MACs, counted the way `FlatEngine` counts them.
    fn count_resample(&mut self, sites: usize, w: &StridedWeights) {
        let macs = sites as u64 * w.in_ch() as u64 * w.out_ch() as u64;
        self.macs += macs;
        self.totals.macs += macs;
    }
}
