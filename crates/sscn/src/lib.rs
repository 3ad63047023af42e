//! # esca-sscn
//!
//! Golden-model **submanifold sparse convolutional network** (SSCN)
//! library: the functional reference the ESCA accelerator model is
//! validated against, plus everything needed to build and run the paper's
//! benchmark network, the 3-D **submanifold sparse U-Net** (SS U-Net,
//! Graham et al. \[12\]).
//!
//! Contents:
//!
//! * [`weights`] — convolution weight containers with seeded init;
//! * [`conv`] — reference kernels: [`conv::submanifold_conv3d`] (the
//!   paper's Sub-Conv, Fig. 2(b)) and [`conv::dense_conv3d`] (traditional
//!   convolution, Fig. 2(a), which dilates sparsity);
//! * [`sparse_ops`] — strided sparse convolution (downsample) and its
//!   transpose (upsample) with exact active-set rules, used by U-Net;
//! * [`layer`] — batch-norm (foldable), ReLU, linear layers;
//! * [`unet`] — the configurable SS U-Net;
//! * [`classifier`] — an SSCN classification network ([`pool`] provides
//!   its sparse/global pooling reductions);
//! * [`rulebook`] — the explicit gather/scatter matching structure that
//!   CPU/GPU library implementations execute (the software counterpart of
//!   ESCA's SDMU);
//! * [`engine`] — the matching-reuse execution engine: a thread-safe
//!   geometry cache keyed by active-set identity plus flat
//!   gather → per-tap GEMM → scatter kernels;
//! * [`plan`] — replayable **geometry maps** for strided/transpose
//!   convolution (max pooling replays the strided map), stored in the
//!   engine's per-op cache beside the rulebooks, so a static-scene stream
//!   does zero matching work after its first frame;
//! * [`gemm`] — pluggable per-tap GEMM backends behind the flat engine:
//!   the bit-exact [`gemm::ScalarRef`] reference tier and the
//!   cache-blocked [`gemm::Blocked`] throughput tier (epsilon-bounded on
//!   f32, still bit-exact on the quantized path);
//! * [`quant`] — INT8-weight / INT16-activation quantization (§IV-A) and
//!   the **integer-exact** quantized Sub-Conv that the accelerator must
//!   reproduce bit-for-bit;
//! * [`ops`] — effective operation counting (nonzero MACs only, the
//!   paper's GOPS accounting).
//!
//! # Example
//!
//! ```
//! use esca_sscn::{conv, weights::ConvWeights};
//! use esca_tensor::{Coord3, Extent3, SparseTensor};
//!
//! // A 3×3×3 Sub-Conv over a 2-site active set.
//! let w = ConvWeights::seeded(3, 1, 4, 42);
//! let mut input = SparseTensor::<f32>::new(Extent3::cube(8), 1);
//! input.insert(Coord3::new(2, 2, 2), &[1.0])?;
//! input.insert(Coord3::new(2, 2, 3), &[2.0])?;
//! let out = conv::submanifold_conv3d(&input, &w)?;
//! // Submanifold property: the active set is preserved exactly.
//! assert!(out.same_active_set(&input));
//! assert_eq!(out.channels(), 4);
//! # Ok::<(), esca_sscn::SscnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classifier;
pub mod conv;
pub mod engine;
pub mod error;
pub mod gemm;
pub mod layer;
pub mod ops;
pub mod par;
pub mod plan;
pub mod pool;
pub mod quant;
pub mod rulebook;
pub mod sparse_ops;
mod split;
pub mod unet;
pub mod weights;

pub use error::SscnError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SscnError>;
