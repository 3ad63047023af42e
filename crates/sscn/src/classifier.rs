//! A submanifold sparse **classification** network (SSCN classifier):
//! Sub-Conv feature extractor + strided downsampling + global pooling +
//! linear head. This is the other standard SSCN application family (the
//! paper's introduction motivates both segmentation and recognition on
//! ShapeNet-style objects); the accelerator offloads its Sub-Conv layers
//! exactly as it does for the U-Net.

use crate::engine::{FlatEngine, LayerExec};
use crate::error::SscnError;
use crate::layer::{relu, BatchNorm, Linear};
use crate::pool::global_avg_pool;
use crate::unet::{SubConvFn, SubConvTrace, TraceMode};
use crate::weights::ConvWeights;
use crate::{conv, Result};
use esca_tensor::{Coord3, Extent3, SparseTensor};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Configuration of an SSCN classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Input feature channels.
    pub input_channels: usize,
    /// Number of (conv, conv, pool) stages.
    pub stages: usize,
    /// Channels at the first stage; stage *s* gets `base × (s+1)`.
    pub base_channels: usize,
    /// Object classes.
    pub classes: usize,
    /// Sub-Conv kernel size.
    pub kernel: u32,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            input_channels: 1,
            stages: 3,
            base_channels: 16,
            classes: 16,
            kernel: 3,
            seed: 0x000C_1A55,
        }
    }
}

/// A built SSCN classifier with deterministic seeded weights.
#[derive(Debug, Clone)]
pub struct SscnClassifier {
    cfg: ClassifierConfig,
    subconvs: Vec<(String, ConvWeights)>,
    head: Linear,
}

impl SscnClassifier {
    /// Builds the classifier.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] for zero stages/channels or an
    /// even kernel.
    pub fn new(cfg: ClassifierConfig) -> Result<Self> {
        if cfg.stages == 0 || cfg.base_channels == 0 || cfg.classes == 0 {
            return Err(SscnError::InvalidConfig {
                reason: "stages, base_channels and classes must be nonzero".into(),
            });
        }
        if cfg.kernel.is_multiple_of(2) {
            return Err(SscnError::InvalidConfig {
                reason: "Sub-Conv kernel must be odd".into(),
            });
        }
        let mut seed = cfg.seed;
        let mut next = || {
            seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
            seed
        };
        let mut subconvs = Vec::new();
        let mut in_ch = cfg.input_channels;
        for s in 0..cfg.stages {
            let out_ch = cfg.base_channels * (s + 1);
            for b in 0..2 {
                let w = ConvWeights::seeded(cfg.kernel, in_ch, out_ch, next());
                let bn = BatchNorm::seeded(out_ch, next());
                subconvs.push((format!("stage{s}.conv{b}"), bn.fold_into(&w)?));
                in_ch = out_ch;
            }
        }
        let head = Linear::seeded(in_ch, cfg.classes, next());
        Ok(SscnClassifier {
            cfg,
            subconvs,
            head,
        })
    }

    /// The configuration.
    pub fn config(&self) -> ClassifierConfig {
        self.cfg
    }

    /// All Sub-Conv layers in execution order (the accelerator-offloaded
    /// part).
    pub fn subconv_layers(&self) -> &[(String, ConvWeights)] {
        &self.subconvs
    }

    /// Runs the network, returning class logits.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (cannot occur for matching inputs).
    pub fn forward(&self, input: &SparseTensor<f32>) -> Result<Vec<f32>> {
        let mut traces = Vec::new();
        self.run(input, TraceMode::Off, &mut traces)
    }

    /// Runs the network capturing every Sub-Conv layer's input tensor —
    /// the [`TraceMode::CaptureInputs`] opt-in;
    /// [`SscnClassifier::forward`] clones no per-layer tensors.
    ///
    /// # Errors
    ///
    /// As [`SscnClassifier::forward`].
    pub fn forward_trace(
        &self,
        input: &SparseTensor<f32>,
    ) -> Result<(Vec<f32>, Vec<SubConvTrace>)> {
        let mut traces = Vec::new();
        let logits = self.run(input, TraceMode::CaptureInputs, &mut traces)?;
        Ok((logits, traces))
    }

    /// Runs the network through a matching-reuse [`FlatEngine`]: both
    /// Sub-Conv layers of each stage share one cached rulebook (pooling
    /// changes the active set between stages), and the inter-stage max
    /// pooling replays a cached [`crate::plan::StridedMap`] through
    /// [`crate::plan::StridedMap::max_pool`] (bit-identical to
    /// [`crate::pool::sparse_max_pool`]). Exactness
    /// follows the engine's GEMM backend tier ([`crate::gemm`]):
    /// bit-identical to [`SscnClassifier::forward`] under the scalar
    /// reference tier, epsilon-bounded under the default blocked tier.
    ///
    /// A repeated frame geometry replays every stage's rulebook and
    /// site map from the engine's per-op cache with zero matching work.
    ///
    /// # Errors
    ///
    /// As [`SscnClassifier::forward`].
    pub fn forward_engine(
        &self,
        input: &SparseTensor<f32>,
        engine: &mut FlatEngine,
    ) -> Result<Vec<f32>> {
        self.forward_on(input, engine)
    }

    fn run(
        &self,
        input: &SparseTensor<f32>,
        mode: TraceMode,
        traces: &mut Vec<SubConvTrace>,
    ) -> Result<Vec<f32>> {
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

    /// Runs the network with an injected Sub-Conv executor (see
    /// [`crate::unet::SsUNet::forward_with`]); host-side layers (pooling,
    /// head) execute in place. The executor output must include the ReLU.
    ///
    /// # Errors
    ///
    /// Propagates executor and layer errors, and rejects executors that
    /// violate the Sub-Conv contract (changed channels or active set).
    pub fn forward_with<F>(&self, input: &SparseTensor<f32>, subconv: F) -> Result<Vec<f32>>
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
    ) -> Result<Vec<f32>> {
        // Two Sub-Conv layers per stage, pooling between stages: before
        // every even-indexed layer but the first.
        let (name, w) = &self.subconvs[0];
        let mut x = exec.subconv(0, name, w, Cow::Borrowed(input))?;
        for (i, (name, w)) in self.subconvs.iter().enumerate().skip(1) {
            if i % 2 == 0 {
                x = exec.max_pool(&x, 2)?;
            }
            x = exec.subconv(i, name, w, Cow::Owned(x))?;
        }
        let pooled = global_avg_pool(&x);
        // Head as a plain matvec over the pooled vector.
        let mut wrapped = SparseTensor::new(Extent3::cube(1), pooled.len());
        wrapped.insert(Coord3::ORIGIN, &pooled)?;
        let logits = self.head.apply(&wrapped)?;
        Ok(logits
            .feature(Coord3::ORIGIN)
            .expect("single pooled site")
            .to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmBackendKind;

    fn small() -> SscnClassifier {
        SscnClassifier::new(ClassifierConfig {
            input_channels: 1,
            stages: 2,
            base_channels: 4,
            classes: 5,
            kernel: 3,
            seed: 3,
        })
        .unwrap()
    }

    fn blob(seed: i32) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(16), 1);
        for i in 0..40 {
            let c = Coord3::new((i * 7 + seed) % 16, (i * 3) % 16, (i * 5) % 16);
            t.insert(c, &[0.1 * (i as f32 + 1.0)]).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn forward_produces_class_logits() {
        let net = small();
        let logits = net.forward(&blob(0)).unwrap();
        assert_eq!(logits.len(), 5);
        assert!(logits.iter().all(|v| v.is_finite()));
        // An executor that drops a site breaks the Sub-Conv contract.
        let dropped = net.forward_with(&blob(0), |_, _, w, x| {
            let y = relu(&conv::submanifold_conv3d(x, w)?);
            let mut kept = SparseTensor::new(y.extent(), y.channels());
            for (c, f) in y.iter().skip(1) {
                kept.insert(c, f)?;
            }
            Ok(kept)
        });
        assert!(matches!(dropped, Err(SscnError::InvalidConfig { .. })));
    }

    #[test]
    fn layer_inventory() {
        let net = small();
        assert_eq!(net.subconv_layers().len(), 4);
        let shapes: Vec<_> = net
            .subconv_layers()
            .iter()
            .map(|(_, w)| (w.in_ch(), w.out_ch()))
            .collect();
        assert_eq!(shapes, vec![(1, 4), (4, 4), (4, 8), (8, 8)]);
    }

    #[test]
    fn trace_captures_all_subconvs() {
        let net = small();
        let (_, traces) = net.forward_trace(&blob(1)).unwrap();
        assert_eq!(traces.len(), 4);
        // Pooling halves the grid between stages.
        assert_eq!(traces[0].input.extent(), Extent3::cube(16));
        assert_eq!(traces[2].input.extent(), Extent3::cube(8));
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let net = small();
        let a = net.forward(&blob(0)).unwrap();
        let b = net.forward(&blob(0)).unwrap();
        assert_eq!(a, b);
        let c = net.forward(&blob(5)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn engine_forward_matches_direct_and_reuses_per_stage() {
        let net = small();
        let input = blob(2);
        let direct = net.forward(&input).unwrap();
        // ScalarRef tier: bitwise equality with the direct kernels.
        let mut engine = FlatEngine::with_backend(GemmBackendKind::ScalarRef);
        let flat = net.forward_engine(&input, &mut engine).unwrap();
        assert_eq!(flat, direct, "logits not bitwise equal");
        // One rulebook per stage (second conv of each stage hits it) plus
        // one inter-stage site map, which the max pooling replays.
        assert_eq!(engine.cache().misses(), 3);
        assert_eq!(engine.cache().hits(), 2);
        // Blocked tier: epsilon-bounded logits over the same reuse.
        let mut fast = FlatEngine::with_backend(GemmBackendKind::Blocked);
        let blocked = net.forward_engine(&input, &mut fast).unwrap();
        assert_eq!(blocked.len(), direct.len());
        for (x, y) in blocked.iter().zip(&direct) {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0));
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ClassifierConfig::default();
        cfg.stages = 0;
        assert!(SscnClassifier::new(cfg).is_err());
        let mut cfg = ClassifierConfig::default();
        cfg.kernel = 4;
        assert!(SscnClassifier::new(cfg).is_err());
        let mut cfg = ClassifierConfig::default();
        cfg.classes = 0;
        assert!(SscnClassifier::new(cfg).is_err());
    }
}
