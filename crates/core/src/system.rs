//! System-level pipeline: the full accelerated deployment of an SS U-Net
//! on the ZCU102 — Sub-Conv layers on the ESCA fabric, everything else
//! (strided down/upsampling, concatenation, the classification head,
//! per-layer quantize/dequantize marshalling) on the host PS, with a
//! simple host cost model. This composes the paper's per-layer results
//! into a true end-to-end inference latency.

use crate::accelerator::Esca;
use crate::stats::CycleStats;
use crate::Result;
use esca_sscn::unet::SsUNet;
use esca_tensor::SparseTensor;
use serde::{Deserialize, Serialize};

/// Host (PS-side) cost model: a quad-A53 running NEON-ish scalar code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// Sustained host throughput on the sparse ops, GFLOP/s.
    pub gflops: f64,
    /// Per-point marshalling cost (quantize/dequantize/copy), nanoseconds
    /// per feature element.
    pub marshal_ns_per_elem: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            gflops: 2.0,
            marshal_ns_per_elem: 1.5,
        }
    }
}

/// Result of an end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The network logits.
    pub logits: SparseTensor<f32>,
    /// Aggregate accelerator statistics over all Sub-Conv layers.
    pub accel: CycleStats,
    /// Modelled host compute time (strided convs, concat, head), seconds.
    pub host_compute_s: f64,
    /// Modelled host marshalling time (quantize/dequantize), seconds.
    pub host_marshal_s: f64,
    /// Accelerator time, seconds.
    pub accel_s: f64,
}

impl SystemRun {
    /// End-to-end latency (host and accelerator serialized, as in an
    /// interrupt-driven deployment).
    pub fn end_to_end_s(&self) -> f64 {
        self.accel_s + self.host_compute_s + self.host_marshal_s
    }

    /// Fraction of end-to-end time spent on the accelerator.
    pub fn accel_fraction(&self) -> f64 {
        if self.end_to_end_s() > 0.0 {
            self.accel_s / self.end_to_end_s()
        } else {
            0.0
        }
    }
}

/// Runs a full SS U-Net with Sub-Conv layers offloaded to `esca` (each
/// layer through [`Esca::run_layer_f32`] at `act_bits` activation
/// fractional bits) and host layers costed by `host`.
///
/// The float output differs from [`SsUNet::forward`] only by the
/// quantization error of the offloaded layers.
///
/// # Errors
///
/// Propagates accelerator errors (capacity/config), quantizer errors
/// (as [`crate::EscaError::Sscn`]) and network errors.
pub fn run_unet(
    net: &SsUNet,
    esca: &Esca,
    host: &HostModel,
    input: &SparseTensor<f32>,
    act_bits: u8,
) -> Result<SystemRun> {
    let mut accel = CycleStats::default();
    let mut marshal_elems = 0u64;
    let mut exec_err: Option<crate::EscaError> = None;
    let logits = net.forward_with(input, |_, _, w, x| {
        match esca.run_layer_f32(x, w, true, act_bits) {
            Ok((run, out)) => {
                accel += &run.stats;
                marshal_elems += (x.nnz() * (w.in_ch() + w.out_ch())) as u64;
                Ok(out)
            }
            Err(e) => {
                let msg = e.to_string();
                exec_err = Some(e);
                Err(esca_sscn::SscnError::InvalidConfig { reason: msg })
            }
        }
    });
    let logits = match logits {
        Ok(l) => l,
        Err(net_err) => {
            return Err(exec_err.unwrap_or_else(|| net_err.into()));
        }
    };

    // Host op counts: strided convs (2 ops per (input site, ic, oc)),
    // transpose convs (per target site), the head.
    let cfg = net.config();
    let mut host_flops = 0f64;
    // Downsampling inputs shrink level by level; approximate with the
    // actual active counts by re-deriving them from the input chain would
    // require a second pass, so cost with the finest nnz as upper bound
    // per level (documented conservative choice).
    let mut level_nnz = input.nnz() as f64;
    for l in 0..cfg.levels - 1 {
        let ic = cfg.channels_at(l) as f64;
        let oc = cfg.channels_at(l + 1) as f64;
        host_flops += 2.0 * level_nnz * ic * oc; // downsample
        host_flops += 2.0 * level_nnz * oc * ic; // upsample (same magnitude)
        level_nnz /= 4.0; // empirical shrink of surface-like sets under 2× downsampling
    }
    host_flops += 2.0 * input.nnz() as f64 * cfg.channels_at(0) as f64 * cfg.classes as f64;

    let clock = esca.config().clock_mhz;
    Ok(SystemRun {
        logits,
        accel_s: accel.time_s(clock),
        host_compute_s: host_flops / (host.gflops * 1e9),
        host_marshal_s: marshal_elems as f64 * host.marshal_ns_per_elem * 1e-9,
        accel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EscaConfig;
    use esca_sscn::unet::UNetConfig;
    use esca_tensor::{Coord3, Extent3};

    fn small_net() -> SsUNet {
        SsUNet::new(UNetConfig {
            input_channels: 1,
            levels: 2,
            base_channels: 8,
            blocks_per_level: 1,
            classes: 4,
            kernel: 3,
            seed: 5,
        })
        .unwrap()
    }

    fn blob() -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(24), 1);
        for i in 0..60i32 {
            t.insert(
                Coord3::new((i * 7) % 20, (i * 3) % 20, (i * 5) % 20),
                &[0.1 + 0.01 * i as f32],
            )
            .unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn end_to_end_runs_and_accounts_time() {
        let net = small_net();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let run = run_unet(&net, &esca, &HostModel::default(), &blob(), 8).unwrap();
        assert!(run.logits.same_active_set(&blob()));
        assert_eq!(run.logits.channels(), 4);
        assert!(run.accel_s > 0.0);
        assert!(run.host_compute_s > 0.0);
        assert!(run.host_marshal_s > 0.0);
        assert!((0.0..=1.0).contains(&run.accel_fraction()));
        assert!(
            (run.end_to_end_s() - (run.accel_s + run.host_compute_s + run.host_marshal_s)).abs()
                < 1e-15
        );
        // All four Sub-Conv layers ran on the accelerator.
        assert!(run.accel.match_groups > 0);
    }

    #[test]
    fn pipeline_output_close_to_pure_float_forward() {
        let net = small_net();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let input = blob();
        let run = run_unet(&net, &esca, &HostModel::default(), &input, 12).unwrap();
        let float_logits = net.forward(&input).unwrap();
        let err = run.logits.max_abs_diff(&float_logits).unwrap();
        assert!(err < 0.05, "quantized pipeline drifted: {err}");
    }

    #[test]
    fn accelerator_errors_surface() {
        let net = small_net();
        let mut cfg = EscaConfig::default();
        cfg.weight_buffer_bytes = 16;
        let esca = Esca::new(cfg).unwrap();
        let err = run_unet(&net, &esca, &HostModel::default(), &blob(), 8).unwrap_err();
        assert!(matches!(err, crate::EscaError::CapacityExceeded { .. }));
    }

    #[test]
    fn out_of_range_act_bits_is_a_typed_quantizer_error() {
        let net = small_net();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let err = run_unet(&net, &esca, &HostModel::default(), &blob(), 31).unwrap_err();
        assert!(
            matches!(
                err,
                crate::EscaError::Sscn(esca_sscn::SscnError::Tensor(
                    esca_tensor::TensorError::InvalidQuantParams { .. }
                ))
            ),
            "{err:?}"
        );
    }
}
