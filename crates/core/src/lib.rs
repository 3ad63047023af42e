//! # esca
//!
//! A cycle-level model of **ESCA**, the FPGA accelerator for submanifold
//! sparse convolutional networks (SSCN) presented in *"An Efficient FPGA
//! Accelerator for Point Cloud"* (SOCC 2022), targeting the Xilinx ZCU102
//! at 270 MHz.
//!
//! The paper's artifact is RTL; this crate reproduces the *system* as a
//! simulator faithful to the microarchitecture, with every block from
//! Fig. 9 modelled explicitly:
//!
//! * [`zero_removing`] — the tile-based zero removing strategy (§III-A):
//!   only tiles containing at least one nonzero activation are processed;
//! * [`encode`] — the encoding scheme (§III-B): one-bit *index masks* plus
//!   *valid data* (nonzero activations banked per column line, weights);
//! * [`sdmu`] — the Sparse Data Matching Unit (§III-C): mask judger,
//!   state-index generator with the `(A, B)` accumulator, address
//!   generator, K² match FIFOs and the MUX;
//! * [`compute`] — the Computing Core (§III-D): a 16×16 array of
//!   multiply-accumulate lanes plus the accumulator;
//! * [`buffers`] — BRAM-backed mask/activation/weight/output buffers and
//!   the DRAM traffic model;
//! * [`accelerator`] — the main controller tying SDMU ∥ CC into a
//!   pipeline, executing whole layers and networks;
//! * [`area`] / [`power`] — resource (Table II) and power (Table III)
//!   models;
//! * [`trace`] — structured pipeline span traces (Fig. 7(b)) with Chrome
//!   trace-event / Perfetto export;
//! * [`telemetry`] — the cycle-domain metrics bridge into
//!   [`esca_telemetry`] (per-FIFO occupancy, stall causes, match-group
//!   size histograms);
//! * [`analytic`] — a closed-form cycle model cross-validated against the
//!   simulator;
//! * [`system`] — the end-to-end deployment pipeline (ESCA + host);
//! * [`dse`] — design-space exploration with Pareto filtering.
//!
//! **Golden equivalence.** For every input, [`accelerator::Esca::run_layer`]
//! produces output **bit-identical** to the integer golden reference
//! [`esca_sscn::quant::submanifold_conv3d_q`]; this is enforced by unit,
//! integration and property tests.
//!
//! # Example
//!
//! ```
//! use esca::{accelerator::Esca, config::EscaConfig};
//! use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
//! use esca_sscn::weights::ConvWeights;
//! use esca_tensor::{Coord3, Extent3, SparseTensor};
//!
//! // Quantize a small Sub-Conv layer and run it through the accelerator.
//! let w = ConvWeights::seeded(3, 1, 16, 7);
//! let qw = QuantizedWeights::auto(&w, 8, 10)?;
//! let mut input = SparseTensor::<f32>::new(Extent3::cube(16), 1);
//! input.insert(Coord3::new(3, 4, 5), &[0.5])?;
//! input.insert(Coord3::new(3, 4, 6), &[-0.25])?;
//! let qin = quantize_tensor(&input, qw.quant().act);
//!
//! let esca = Esca::new(EscaConfig::default())?;
//! let run = esca.run_layer(&qin, &qw, false)?;
//! assert!(run.output.same_active_set(&qin));
//! println!("layer took {} cycles", run.stats.total_cycles());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod admission;
pub mod analytic;
pub mod area;
pub mod buffers;
pub mod compute;
pub mod config;
pub mod dse;
pub mod encode;
pub mod error;
pub mod power;
pub mod resilience;
pub mod sdmu;
pub mod stats;
pub mod streaming;
pub mod system;
pub mod telemetry;
pub mod trace;
pub mod zero_removing;

pub use accelerator::{Esca, LayerOpts, LayerRun, NetworkRun};
pub use admission::{
    AdmissionConfig, AdmissionRecord, AdmissionVerdict, Arrival, IngestQueue, SloTarget,
    TenantQuota,
};
pub use config::EscaConfig;
pub use error::EscaError;
pub use resilience::{
    FaultClass, FaultConfig, FaultRates, FrameOutcome, FrameReport, ResilientReport,
};
pub use stats::CycleStats;
pub use telemetry::LayerTelemetry;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EscaError>;
