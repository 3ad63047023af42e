//! The 3-D **submanifold sparse U-Net** (SS U-Net) of Graham et al. \[12\] —
//! the paper's benchmark network (§IV-A).
//!
//! Structure (channels at level *l* are `base_channels × (l+1)`, the
//! filter progression of the original SparseConvNet U-Net):
//!
//! ```text
//! stem: SubConv(in → c0)
//! for each level l:           blocks × SubConv(c_l → c_l) + ReLU
//!     downsample:             StridedConv(c_l → c_{l+1}, K_d=2, s=2)
//! decoder (reverse):          TransposeConv(c_{l+1} → c_l)
//!                             concat skip → SubConv(2·c_l → c_l) (+blocks)
//! head: Linear(c0 → classes)
//! ```
//!
//! All Sub-Conv layers use the paper's 3×3×3 kernel; batch norms are folded
//! into the convolutions at build time (the deployment form that gets
//! quantized). [`SsUNet::forward_trace`] records the input of every
//! Sub-Conv layer so the accelerator harness can replay exactly the tensors
//! the network sees.

use crate::engine::{FlatEngine, LayerExec};
use crate::error::SscnError;
use crate::layer::{relu, BatchNorm, Linear};
use crate::sparse_ops::{concat_channels, StridedWeights};
use crate::weights::ConvWeights;
use crate::{conv, Result};
use esca_tensor::{Coord3, SparseTensor};
use serde::{Deserialize, Serialize};

/// Configuration of an SS U-Net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UNetConfig {
    /// Input feature channels (1 for occupancy-voxelized point clouds).
    pub input_channels: usize,
    /// Number of resolution levels (≥ 1).
    pub levels: usize,
    /// Channels at the finest level; level *l* gets `base × (l+1)`.
    pub base_channels: usize,
    /// Sub-Conv blocks per level (per side, encoder and decoder).
    pub blocks_per_level: usize,
    /// Segmentation classes produced by the head.
    pub classes: usize,
    /// Sub-Conv kernel size (the paper uses 3).
    pub kernel: u32,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            input_channels: 1,
            levels: 3,
            base_channels: 16,
            blocks_per_level: 2,
            classes: 10,
            kernel: 3,
            seed: 0x55_1e7,
        }
    }
}

impl UNetConfig {
    /// Channels at level `l`.
    pub fn channels_at(&self, l: usize) -> usize {
        self.base_channels * (l + 1)
    }
}

/// The configuration checks [`SsUNet::new`] and [`SsUNet::from_json`]
/// share.
fn check_config(cfg: &UNetConfig) -> Result<()> {
    if cfg.levels == 0
        || cfg.blocks_per_level == 0
        || cfg.base_channels == 0
        || cfg.input_channels == 0
        || cfg.classes == 0
    {
        return Err(SscnError::InvalidConfig {
            reason: "levels, blocks_per_level, channels and classes must be nonzero".into(),
        });
    }
    if cfg.kernel.is_multiple_of(2) {
        return Err(SscnError::InvalidConfig {
            reason: "Sub-Conv kernel must be odd".into(),
        });
    }
    Ok(())
}

/// Every Sub-Conv layer's name and `(in_ch, out_ch)` in execution order:
/// the stem, the encoder blocks, then each decoder level's fuse layer and
/// blocks.
fn subconv_shapes(cfg: &UNetConfig) -> Vec<(String, usize, usize)> {
    let mut shapes = vec![("stem".to_string(), cfg.input_channels, cfg.channels_at(0))];
    for l in 0..cfg.levels {
        let c = cfg.channels_at(l);
        shapes.extend((0..cfg.blocks_per_level).map(|b| (format!("enc{l}.conv{b}"), c, c)));
    }
    for l in (0..cfg.levels - 1).rev() {
        let c = cfg.channels_at(l);
        shapes.push((format!("dec{l}.fuse"), 2 * c, c));
        shapes.extend((1..cfg.blocks_per_level).map(|b| (format!("dec{l}.conv{b}"), c, c)));
    }
    shapes
}

/// The input tensor of one Sub-Conv layer captured during
/// [`SsUNet::forward_trace`], together with the layer identity.
#[derive(Debug, Clone)]
pub struct SubConvTrace {
    /// Layer name (e.g. `enc1.conv0`).
    pub name: String,
    /// Index into [`SsUNet::subconv_layers`].
    pub index: usize,
    /// The tensor this layer consumed.
    pub input: SparseTensor<f32>,
}

/// What a forward pass records per Sub-Conv layer. Capturing deep-copies
/// every intermediate tensor, so it is strictly **opt-in**: the default
/// inference paths run with [`TraceMode::Off`] and clone nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing (the default; zero per-layer tensor clones).
    #[default]
    Off,
    /// Clone every Sub-Conv layer's input into a [`SubConvTrace`] — the
    /// accelerator-replay harness's mode.
    CaptureInputs,
}

impl TraceMode {
    /// Whether this mode clones layer inputs.
    #[inline]
    pub fn captures_inputs(self) -> bool {
        matches!(self, TraceMode::CaptureInputs)
    }
}

/// A caller's Sub-Conv executor closure (the `forward_with` hook), held
/// to the Sub-Conv contract: the output keeps the input's active set and
/// has the layer's output channels.
pub(crate) struct SubConvFn<F>(pub(crate) F);

impl<F> LayerExec for SubConvFn<F>
where
    F: FnMut(usize, &str, &ConvWeights, &SparseTensor<f32>) -> Result<SparseTensor<f32>>,
{
    fn subconv(
        &mut self,
        index: usize,
        name: &str,
        w: &ConvWeights,
        x: &SparseTensor<f32>,
    ) -> Result<SparseTensor<f32>> {
        let out = (self.0)(index, name, w, x)?;
        if out.channels() != w.out_ch() || !out.same_active_set(x) {
            return Err(SscnError::InvalidConfig {
                reason: format!(
                    "executor for {name} violated the Sub-Conv contract \
                     (channels or active set changed)"
                ),
            });
        }
        Ok(out)
    }
}

/// A built SS U-Net with deterministic seeded weights (batch norms already
/// folded into the convolutions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsUNet {
    cfg: UNetConfig,
    /// All Sub-Conv layers in execution order.
    subconvs: Vec<(String, ConvWeights)>,
    downs: Vec<StridedWeights>,
    ups: Vec<StridedWeights>,
    head: Linear,
}

impl SsUNet {
    /// Builds the network from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] for zero levels, blocks,
    /// channels or classes, or an even kernel.
    pub fn new(cfg: UNetConfig) -> Result<Self> {
        check_config(&cfg)?;
        let mut seed = cfg.seed;
        let mut next_seed = || {
            seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            seed
        };
        let make_subconv = |(name, in_ch, out_ch): &(String, usize, usize), s: u64| {
            let w = ConvWeights::seeded(cfg.kernel, *in_ch, *out_ch, s);
            let bn = BatchNorm::seeded(*out_ch, s ^ 0xb4);
            let folded = bn.fold_into(&w).expect("bn channels match conv out");
            (name.clone(), folded)
        };
        // Seeds are drawn in the order that fixes every seeded weight:
        // stem and encoder, the resampling pairs, then the decoder.
        let shapes = subconv_shapes(&cfg);
        let (encoder, decoder) = shapes.split_at(1 + cfg.levels * cfg.blocks_per_level);
        let mut subconvs: Vec<_> = encoder
            .iter()
            .map(|shape| make_subconv(shape, next_seed()))
            .collect();
        let mut downs = Vec::new();
        let mut ups = Vec::new();
        for l in 0..cfg.levels - 1 {
            let (c, c_next) = (cfg.channels_at(l), cfg.channels_at(l + 1));
            downs.push(StridedWeights::seeded(2, c, c_next, next_seed()));
            ups.push(StridedWeights::seeded(2, c_next, c, next_seed()));
        }
        subconvs.extend(decoder.iter().map(|shape| make_subconv(shape, next_seed())));
        let head = Linear::seeded(cfg.channels_at(0), cfg.classes, next_seed());
        Ok(SsUNet {
            cfg,
            subconvs,
            downs,
            ups,
            head,
        })
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> UNetConfig {
        self.cfg
    }

    /// All Sub-Conv layers (name, folded weights) in execution order —
    /// the layers the ESCA accelerator offloads.
    pub fn subconv_layers(&self) -> &[(String, ConvWeights)] {
        &self.subconvs
    }

    /// The classification head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Runs the network, returning per-site class logits.
    ///
    /// # Errors
    ///
    /// Propagates channel/extent mismatches from the layers (cannot occur
    /// for inputs matching [`UNetConfig::input_channels`]).
    pub fn forward(&self, input: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
        let mut traces = Vec::new();
        self.run(input, TraceMode::Off, &mut traces)
    }

    /// Runs the network and additionally captures every Sub-Conv layer's
    /// input tensor (for accelerator replay) — the [`TraceMode::CaptureInputs`]
    /// opt-in; [`SsUNet::forward`] copies nothing.
    ///
    /// # Errors
    ///
    /// As [`SsUNet::forward`].
    pub fn forward_trace(
        &self,
        input: &SparseTensor<f32>,
    ) -> Result<(SparseTensor<f32>, Vec<SubConvTrace>)> {
        let mut traces = Vec::new();
        let out = self.run(input, TraceMode::CaptureInputs, &mut traces)?;
        Ok((out, traces))
    }

    /// Runs the network through a matching-reuse [`FlatEngine`]: every
    /// Sub-Conv layer executes as flat gather → per-tap GEMM → scatter
    /// over a rulebook served by the engine's cache, and the
    /// downsampling/upsampling convolutions execute over cached
    /// [`crate::plan::StridedMap`]/[`crate::plan::TransposeMap`] site maps
    /// (bit-identical to the direct kernels). Because submanifold layers
    /// preserve the active set and its storage order, all same-level
    /// layers — encoder *and* decoder (the transpose conv restores the
    /// skip's set exactly) — share one rulebook per level. Sub-Conv
    /// output exactness follows the engine's GEMM backend tier
    /// ([`crate::gemm`]): bit-identical to [`SsUNet::forward`] under the
    /// scalar reference tier, epsilon-bounded (and still deterministic)
    /// under the default blocked tier.
    ///
    /// A repeated frame geometry replays every level's rulebook and site
    /// maps from the engine's per-op cache with **zero** matching work.
    ///
    /// # Errors
    ///
    /// As [`SsUNet::forward`].
    pub fn forward_engine(
        &self,
        input: &SparseTensor<f32>,
        engine: &mut FlatEngine,
    ) -> Result<SparseTensor<f32>> {
        self.forward_on(input, engine)
    }

    fn run(
        &self,
        input: &SparseTensor<f32>,
        mode: TraceMode,
        traces: &mut Vec<SubConvTrace>,
    ) -> Result<SparseTensor<f32>> {
        self.forward_with(input, |index, name, w, x| {
            if mode.captures_inputs() {
                traces.push(SubConvTrace {
                    name: name.to_string(),
                    index,
                    input: x.clone(),
                });
            }
            Ok(relu(&conv::submanifold_conv3d(x, w)?))
        })
    }

    /// Runs the network with an **injected Sub-Conv executor**: every
    /// Sub-Conv layer is delegated to `subconv(index, name, weights,
    /// input)` — which must return the layer output *including* the ReLU —
    /// while the host-side layers (strided down/upsampling, concat, head)
    /// execute in place. This is the hook that lets an accelerator model
    /// (or any other backend) take over exactly the layers the paper's
    /// hardware accelerates.
    ///
    /// # Errors
    ///
    /// Propagates executor and layer errors, and rejects executors that
    /// violate the Sub-Conv contract (changed channels or active set).
    pub fn forward_with<F>(
        &self,
        input: &SparseTensor<f32>,
        subconv: F,
    ) -> Result<SparseTensor<f32>>
    where
        F: FnMut(usize, &str, &ConvWeights, &SparseTensor<f32>) -> Result<SparseTensor<f32>>,
    {
        self.forward_on(input, &mut SubConvFn(subconv))
    }

    /// The network's one layer walk, for every executor.
    fn forward_on<E: LayerExec>(
        &self,
        input: &SparseTensor<f32>,
        exec: &mut E,
    ) -> Result<SparseTensor<f32>> {
        let cfg = &self.cfg;
        let mut layers = self.subconvs.iter().enumerate();
        let mut subconv = |exec: &mut E, x: &SparseTensor<f32>| {
            let (index, (name, w)) = layers.next().expect("one weight set per Sub-Conv layer");
            exec.subconv(index, name, w, x)
        };
        // Stem.
        let mut x = subconv(exec, input)?;
        // Encoder.
        let mut skips: Vec<SparseTensor<f32>> = Vec::new();
        for l in 0..cfg.levels {
            for _ in 0..cfg.blocks_per_level {
                x = subconv(exec, &x)?;
            }
            if l < cfg.levels - 1 {
                let down = exec.strided(&x, &self.downs[l])?;
                skips.push(std::mem::replace(&mut x, down));
            }
        }
        // Decoder.
        for l in (0..cfg.levels - 1).rev() {
            let skip = skips.pop().expect("one skip per non-bottom level");
            let up = exec.transpose(&x, &self.ups[l], skip.extent(), skip.coords())?;
            x = concat_channels(&skip, &up)?;
            for _ in 0..cfg.blocks_per_level {
                x = subconv(exec, &x)?;
            }
        }
        debug_assert!(layers.next().is_none(), "all subconvs executed");
        // Head.
        self.head.apply(&x)
    }

    /// The encoder's downsampling convolutions, one per non-bottom level
    /// (host-side layers in the accelerated deployment).
    pub fn downs(&self) -> &[StridedWeights] {
        &self.downs
    }

    /// The decoder's upsampling (transpose) convolutions.
    pub fn ups(&self) -> &[StridedWeights] {
        &self.ups
    }

    /// Serializes the full model (config + weights) as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (cannot occur for valid models).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| SscnError::InvalidConfig {
            reason: format!("serialize failed: {e}"),
        })
    }

    /// Restores a model from [`SsUNet::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] on malformed input, and on a
    /// model whose layers do not have the count and shapes its
    /// configuration implies.
    pub fn from_json(json: &str) -> Result<Self> {
        let net: SsUNet = serde_json::from_str(json).map_err(|e| SscnError::InvalidConfig {
            reason: format!("deserialize failed: {e}"),
        })?;
        net.check_shapes()?;
        Ok(net)
    }

    /// Checks a decoded model against its configuration: the layer counts
    /// and every layer's shape must be the ones [`SsUNet::new`] builds.
    /// Counts are checked first, so every bound below is limited by the
    /// decoded data and no arithmetic can overflow.
    fn check_shapes(&self) -> Result<()> {
        let cfg = &self.cfg;
        check_config(cfg)?;
        let mismatch = |what: String| SscnError::InvalidConfig {
            reason: format!("model does not match its config: {what}"),
        };
        let resamples = cfg.levels - 1;
        if self.downs.len() != resamples || self.ups.len() != resamples {
            return Err(mismatch("resampling layer count".into()));
        }
        let subconvs = (2 * cfg.levels - 1)
            .checked_mul(cfg.blocks_per_level)
            .and_then(|n| n.checked_add(1));
        if subconvs != Some(self.subconvs.len()) {
            return Err(mismatch("Sub-Conv layer count".into()));
        }
        if cfg.base_channels.checked_mul(2 * cfg.levels).is_none() {
            return Err(mismatch("channel count overflows".into()));
        }
        let shapes = subconv_shapes(cfg);
        for ((name, w), (want, in_ch, out_ch)) in self.subconvs.iter().zip(&shapes) {
            if name != want || !w.has_shape(cfg.kernel, *in_ch, *out_ch) {
                return Err(mismatch(format!("Sub-Conv layer {want}")));
            }
        }
        let c = |l: usize| cfg.channels_at(l);
        for (l, (down, up)) in self.downs.iter().zip(&self.ups).enumerate() {
            if !down.has_shape(2, c(l), c(l + 1)) || !up.has_shape(2, c(l + 1), c(l)) {
                return Err(mismatch(format!("resampling layers of level {l}")));
            }
        }
        if !self.head.has_shape(c(0), cfg.classes) {
            return Err(mismatch("head".into()));
        }
        Ok(())
    }

    /// Per-site class predictions.
    ///
    /// # Errors
    ///
    /// As [`SsUNet::forward`].
    pub fn predict(&self, input: &SparseTensor<f32>) -> Result<Vec<(Coord3, usize)>> {
        let logits = self.forward(input)?;
        Ok(logits
            .iter()
            .map(|(c, f)| {
                let best = f
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
                    .map(|(i, _)| i)
                    .expect("classes > 0");
                (c, best)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmBackendKind;
    use esca_telemetry::Registry;
    use esca_tensor::Extent3;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn small_cfg() -> UNetConfig {
        UNetConfig {
            input_channels: 1,
            levels: 2,
            base_channels: 4,
            blocks_per_level: 1,
            classes: 3,
            kernel: 3,
            seed: 7,
        }
    }

    fn blob_input(seed: u64, side: u32, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(side), 1);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            t.insert(c, &[rng.gen_range(0.1..1.0)]).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn forward_preserves_finest_active_set() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let input = blob_input(1, 16, 40);
        let out = net.forward(&input).unwrap();
        assert!(out.same_active_set(&input));
        assert_eq!(out.channels(), 3);
        // An executor that drops a site breaks the Sub-Conv contract.
        let dropped = net.forward_with(&input, |_, _, w, x| {
            let y = relu(&conv::submanifold_conv3d(x, w)?);
            let kept = y.iter().skip(1).map(|(c, f)| (c, f.to_vec()));
            Ok(SparseTensor::from_entries(y.extent(), y.channels(), kept)?)
        });
        assert!(matches!(dropped, Err(SscnError::InvalidConfig { .. })));
    }

    #[test]
    fn layer_inventory_matches_structure() {
        let net = SsUNet::new(small_cfg()).unwrap();
        // stem + enc(2 levels × 1) + dec(1 level × 1) = 4 subconvs.
        assert_eq!(net.subconv_layers().len(), 4);
        let names: Vec<&str> = net
            .subconv_layers()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["stem", "enc0.conv0", "enc1.conv0", "dec0.fuse"]);
        // Shapes.
        let shapes: Vec<(usize, usize)> = net
            .subconv_layers()
            .iter()
            .map(|(_, w)| (w.in_ch(), w.out_ch()))
            .collect();
        assert_eq!(shapes, vec![(1, 4), (4, 4), (8, 8), (8, 4)]);
    }

    #[test]
    fn forward_trace_captures_every_subconv_input() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let input = blob_input(2, 16, 30);
        let (out, traces) = net.forward_trace(&input).unwrap();
        assert_eq!(traces.len(), net.subconv_layers().len());
        for t in &traces {
            let (_, w) = &net.subconv_layers()[t.index];
            assert_eq!(t.input.channels(), w.in_ch(), "trace {}", t.name);
        }
        // Trace replay: re-running each layer on its captured input with
        // relu reproduces the next trace's input where adjacency holds
        // (first two layers share the finest active set).
        assert!(traces[0].input.same_active_set(&out));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SsUNet::new(small_cfg()).unwrap();
        let b = SsUNet::new(small_cfg()).unwrap();
        let input = blob_input(3, 12, 20);
        let x = a.forward(&input).unwrap();
        let y = b.forward(&input).unwrap();
        assert!(x.same_content(&y));
    }

    #[test]
    fn default_config_builds_paper_scale_network() {
        let net = SsUNet::new(UNetConfig::default()).unwrap();
        // stem + 3 levels × 2 + 2 decoder levels × 2 = 11 Sub-Conv layers.
        assert_eq!(net.subconv_layers().len(), 11);
        assert_eq!(net.config().channels_at(0), 16);
        assert_eq!(net.config().channels_at(2), 48);
    }

    #[test]
    fn predictions_cover_active_sites() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let input = blob_input(4, 12, 25);
        let preds = net.predict(&input).unwrap();
        assert_eq!(preds.len(), input.nnz());
        assert!(preds.iter().all(|(_, k)| *k < 3));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_cfg();
        cfg.levels = 0;
        assert!(SsUNet::new(cfg).is_err());
        let mut cfg = small_cfg();
        cfg.kernel = 2;
        assert!(SsUNet::new(cfg).is_err());
        let mut cfg = small_cfg();
        cfg.blocks_per_level = 0;
        assert!(SsUNet::new(cfg).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let json = net.to_json().unwrap();
        let back = SsUNet::from_json(&json).unwrap();
        let input = blob_input(8, 12, 20);
        let a = net.forward(&input).unwrap();
        let b = back.forward(&input).unwrap();
        assert!(a.same_content(&b));
        assert!(SsUNet::from_json("{not json").is_err());
    }

    #[test]
    fn engine_forward_is_bit_identical_and_reuses_rulebooks() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let input = blob_input(5, 16, 60);
        let direct = net.forward(&input).unwrap();
        // ScalarRef tier: bitwise equality with the direct kernels.
        let mut engine = FlatEngine::with_backend(GemmBackendKind::ScalarRef);
        let flat = net.forward_engine(&input, &mut engine).unwrap();
        assert_eq!(flat.coords(), direct.coords(), "storage order differs");
        assert_eq!(flat.features(), direct.features(), "not bitwise equal");
        // Two resolution levels → two rulebook builds plus one strided and
        // one transpose map; every other layer reuses a cached artifact
        // (the level-0 rulebook serves stem, enc0.conv0 and dec0.fuse).
        assert_eq!(engine.cache().misses(), 4);
        assert_eq!(engine.cache().hits(), 2);
        // A second frame over the same geometry hits on every op.
        let again = net.forward_engine(&input, &mut engine).unwrap();
        assert_eq!(again.features(), flat.features());
        assert_eq!(engine.cache().misses(), 4);
        assert_eq!(engine.cache().hits(), 8);
        // Blocked tier: same geometry and reuse, epsilon-bounded values,
        // and byte-identical across repeated runs.
        let mut fast = FlatEngine::with_backend(GemmBackendKind::Blocked);
        let blocked = net.forward_engine(&input, &mut fast).unwrap();
        assert_eq!(blocked.coords(), direct.coords());
        for (x, y) in blocked.features().iter().zip(direct.features()) {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "{x} vs {y}");
        }
        let blocked2 = net.forward_engine(&input, &mut fast).unwrap();
        assert_eq!(blocked.features(), blocked2.features(), "not reproducible");
        // The cache's metrics snapshot mirrors the live counters.
        let mut reg = Registry::new();
        engine.cache().record_metrics(&mut reg);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(
            counter("esca_rulebook_cache_hits_total"),
            Some(engine.cache().hits())
        );
        assert_eq!(
            counter("esca_rulebook_cache_misses_total"),
            Some(engine.cache().misses())
        );
        // Two full passes per backend: the GEMM work totals (resampling
        // included) agree across backends and carry each backend's label.
        let macs = |eng: &FlatEngine, backend: &str| {
            let mut reg = Registry::new();
            eng.record_gemm_metrics(&mut reg);
            reg.counter("esca_flat_gemm_macs_total", &[("backend", backend)])
        };
        assert!(engine.gemm_macs() > 0);
        assert_eq!(macs(&engine, "scalar-ref"), Some(engine.gemm_macs()));
        assert_eq!(macs(&fast, "blocked"), Some(engine.gemm_macs()));
    }

    #[test]
    fn empty_input_runs_and_returns_empty() {
        let net = SsUNet::new(small_cfg()).unwrap();
        let input = SparseTensor::new(Extent3::cube(8), 1);
        let out = net.forward(&input).unwrap();
        assert!(out.is_empty());
    }
}
