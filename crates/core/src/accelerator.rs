//! The top-level accelerator: the main controller (Fig. 9) that sequences
//! zero removing → per-tile SDMU ∥ CC pipelining → output write-back, plus
//! whole-network execution.
//!
//! [`Esca::run_layer`] is the heart of the model: a cycle loop per active
//! tile in which the scan, fetch and compute stages each advance once per
//! cycle with FIFO backpressure between them — the paper's "SDMU and CC
//! are executed in pipeline to increase resource utilization" (§III-D).

use crate::buffers::{BufferModel, DramModel};
use crate::compute::ComputingCore;
use crate::config::EscaConfig;
use crate::encode::EncodedFeatureMap;
use crate::error::EscaError;
use crate::sdmu::{FetchOutcome, MatchGroupDesc, ScanOutcome, TileSdmu};
use crate::stats::CycleStats;
use crate::telemetry::{LayerSpan, LayerTelemetry};
use crate::trace::PipelineTrace;
use crate::zero_removing::ZeroRemovingUnit;
use crate::Result;
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{SparseTensor, Q16};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-layer execution options for [`Esca::run_layer_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerOpts {
    /// Load the layer's weights from DRAM (`false` = resident from a
    /// previous frame, the streaming steady state — see
    /// [`Esca::run_layer_opts`]).
    pub load_weights: bool,
    /// Run the layer **matching-resident**: the geometry metadata (the
    /// SDMU's matching work product) is already resident from an earlier
    /// pass over the same active set — its rulebook is cache-resident —
    /// so the scan/fetch stages and the zero-removing pre-pass charge
    /// zero cycles; only the computing-array stage runs. Outputs are
    /// bit-identical to the normal mode; only timing collapses. Also
    /// enabled globally by
    /// [`crate::config::EscaConfig::matching_resident`].
    pub matching_resident: bool,
    /// Host threads the layer's per-tile cycle loops are sharded across
    /// (default 1: the calling thread). An execution detail only: the
    /// output, [`CycleStats`], telemetry and trace are bit-identical for
    /// every value.
    pub shards: usize,
}

impl Default for LayerOpts {
    fn default() -> Self {
        LayerOpts {
            load_weights: true,
            matching_resident: false,
            shards: 1,
        }
    }
}

/// Result of running one Sub-Conv layer on the accelerator.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// The layer output (bit-identical to the golden quantized reference).
    pub output: SparseTensor<Q16>,
    /// Cycle/activity statistics.
    pub stats: CycleStats,
    /// Pipeline trace (empty unless `record_trace` was set).
    pub trace: PipelineTrace,
    /// Cycle-domain telemetry (always on; per-FIFO occupancy, stall
    /// causes, match-group/MAC histograms, buffer peaks).
    pub telemetry: LayerTelemetry,
}

/// Result of running a sequence of Sub-Conv layers.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// The final output tensor.
    pub output: SparseTensor<Q16>,
    /// Per-layer statistics, in execution order.
    pub per_layer: Vec<CycleStats>,
    /// Aggregate statistics.
    pub total: CycleStats,
    /// Every layer's cycle-domain telemetry merged, with one
    /// [`LayerSpan`] per layer (its frame-relative cycle interval).
    pub telemetry: LayerTelemetry,
}

/// The ESCA accelerator instance.
#[derive(Debug, Clone)]
pub struct Esca {
    cfg: EscaConfig,
}

impl Esca {
    /// Creates an accelerator with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EscaError::Config`] when the configuration is invalid.
    pub fn new(cfg: EscaConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Esca { cfg })
    }

    /// The active configuration.
    pub fn config(&self) -> &EscaConfig {
        &self.cfg
    }

    /// Runs one submanifold sparse convolution layer.
    ///
    /// # Errors
    ///
    /// Returns [`EscaError::ChannelMismatch`] for a layer/input mismatch
    /// and [`EscaError::CapacityExceeded`] when the workload does not fit
    /// the configured buffers.
    pub fn run_layer(
        &self,
        input: &SparseTensor<Q16>,
        weights: &QuantizedWeights,
        relu: bool,
    ) -> Result<LayerRun> {
        self.run_layer_opts(input, weights, relu, true)
    }

    /// [`Esca::run_layer`] with explicit control over the weight load:
    /// when `load_weights` is false the layer's weights are assumed
    /// resident in the weight buffer from a previous frame (the streaming
    /// case — see [`Esca::run_network_stream`]) and neither DRAM traffic
    /// nor load stalls are charged for them.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`].
    pub fn run_layer_opts(
        &self,
        input: &SparseTensor<Q16>,
        weights: &QuantizedWeights,
        relu: bool,
        load_weights: bool,
    ) -> Result<LayerRun> {
        self.run_layer_with(
            input,
            weights,
            relu,
            LayerOpts {
                load_weights,
                ..LayerOpts::default()
            },
        )
    }

    /// [`Esca::run_layer`] with full [`LayerOpts`] control.
    ///
    /// **Matching-resident** execution: when the frame's geometry is
    /// already resident, the SDMU's matching work product is already on
    /// chip, so the mask-scan/fetch stages and the zero-removing pre-pass
    /// charge zero cycles and zero scan-side activity (`scanned_sites`,
    /// `mask_bits_read`, `fifo_pushes` stay 0); only the computing-array
    /// stage, activation reads and DRAM streaming remain. Outputs are
    /// bit-identical to the normal path.
    ///
    /// **Sharding**: the buffer/DMA model always walks the active tiles
    /// once, sequentially on the calling thread, so capacity errors and
    /// peak occupancies surface identically; the same pass records each
    /// tile's first match-group ordinal (a prefix sum of per-tile nnz),
    /// which makes the tiles independent. The per-tile cycle loops then
    /// run on the calling thread (`shards <= 1`) or on `shards` scoped
    /// threads, each over a contiguous chunk of tiles with its own
    /// computing core (the core is free between tiles, so per-shard cores
    /// are bit-exact); shard counters merge by exact u64 addition and
    /// outputs/traces/telemetry merge in tile order. The returned
    /// [`LayerRun`] is bit-identical for every shard count — only
    /// wall-clock changes.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`].
    pub fn run_layer_with(
        &self,
        input: &SparseTensor<Q16>,
        weights: &QuantizedWeights,
        relu: bool,
        opts: LayerOpts,
    ) -> Result<LayerRun> {
        let load_weights = opts.load_weights;
        let resident = opts.matching_resident || self.cfg.matching_resident;
        if input.channels() != weights.in_ch() {
            return Err(EscaError::ChannelMismatch {
                expected: weights.in_ch(),
                got: input.channels(),
            });
        }
        if weights.k() != self.cfg.kernel {
            return Err(EscaError::Config {
                reason: format!(
                    "layer kernel {} does not match configured kernel {}",
                    weights.k(),
                    self.cfg.kernel
                ),
            });
        }
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(self.cfg.record_trace);
        let mut tele = LayerTelemetry::new();

        // --- Zero removing pre-pass (streaming over the coordinate list).
        // Resident geometry was already zero-removed on an earlier frame,
        // so the pre-pass charges nothing (the report itself is still
        // needed to drive the tile walk).
        let zr = ZeroRemovingUnit::default().run(input, self.cfg.tile);
        stats.zero_removing_cycles = if resident { 0 } else { zr.cycles };
        stats.matching_resident = resident;
        stats.active_tiles = zr.report.active_tiles() as u64;
        stats.total_tiles = zr.report.total_tiles() as u64;

        // --- Encoding (index mask + valid data) and buffer sizing.
        let enc = EncodedFeatureMap::encode(input, self.cfg.tile)?;
        let mut weight_buf = BufferModel::new("weight buffer", self.cfg.weight_buffer_bytes);
        weight_buf.fill(weights.len() + weights.out_ch() * 4)?;
        let mut act_buf = BufferModel::new("activation buffer", self.cfg.act_buffer_bytes);
        let mut mask_buf = BufferModel::new("mask buffer", self.cfg.mask_buffer_bytes);
        let mut out_buf = BufferModel::new("output buffer", self.cfg.out_buffer_bytes);

        // --- DRAM traffic. Resident geometry keeps its index masks and
        // coordinate metadata on chip; only the activation values still
        // stream in per frame.
        let mut dram = DramModel::new();
        if load_weights {
            dram.read((weights.len() + weights.out_ch() * 4) as u64);
        }
        dram.read(if resident {
            enc.act_bytes() as u64
        } else {
            enc.total_bytes() as u64
        });
        dram.write((input.nnz() * weights.out_ch() * 2) as u64);

        // --- Tile DMA (sequential): activations of tile + halo and the
        // tile's masks in, outputs written back, in tile order — plus
        // each tile's first match-group ordinal.
        let grid = zr.report.grid();
        let r = (self.cfg.kernel / 2) as i32;
        let active = zr.report.active();
        let mut first_groups = Vec::with_capacity(active.len());
        let mut next_group = 0usize;
        for info in active {
            let hi = info.max_corner(grid.shape(), grid.extent());
            let halo_lo = info.origin.offset(-r, -r, -r);
            let halo_hi = hi.offset(r, r, r);
            let halo_nnz = enc.mask().count_in_box(halo_lo, halo_hi);
            let tile_act_bytes = halo_nnz * enc.channels() * 2;
            let tile_mask_bytes = (grid.shape().volume() as usize).div_ceil(8);
            act_buf.fill(tile_act_bytes)?;
            mask_buf.fill(tile_mask_bytes)?;
            stats.tile_overhead_cycles += self.cfg.per_tile_overhead_cycles;
            stats.peak_act_buffer_bytes =
                stats.peak_act_buffer_bytes.max(act_buf.peak_bytes() as u64);
            let tile_out_bytes = info.nnz * weights.out_ch() * 2;
            out_buf.fill(tile_out_bytes)?;

            first_groups.push(next_group);
            next_group += info.nnz;

            out_buf.record_writes(info.nnz as u64 * weights.out_ch() as u64);
            // Write-back to DRAM retires the tile's outputs.
            out_buf.drain(tile_out_bytes);
            act_buf.drain(tile_act_bytes);
            mask_buf.drain(tile_mask_bytes);
        }
        debug_assert_eq!(next_group, input.nnz());

        // --- Per-tile pipelined execution: one computing core walks a
        // contiguous run of tiles.
        let walk = |tiles: &[esca_tensor::TileInfo],
                    groups: &[usize],
                    output: &mut SparseTensor<Q16>,
                    stats: &mut CycleStats,
                    tele: &mut LayerTelemetry,
                    trace: &mut PipelineTrace| {
            let mut cc =
                ComputingCore::new(weights, self.cfg.ic_parallel, self.cfg.oc_parallel, relu);
            for (info, &first) in tiles.iter().zip(groups) {
                let next = self.run_tile(
                    &enc, info, &grid, &mut cc, output, first, resident, stats, tele, trace,
                );
                debug_assert_eq!(next, first + info.nnz);
            }
        };
        let mut output = SparseTensor::new(input.extent(), weights.out_ch());
        let shards = opts.shards.min(active.len());
        if shards <= 1 {
            walk(
                active,
                &first_groups,
                &mut output,
                &mut stats,
                &mut tele,
                &mut trace,
            );
        } else {
            struct Shard {
                output: SparseTensor<Q16>,
                stats: CycleStats,
                telemetry: LayerTelemetry,
                trace: PipelineTrace,
            }
            let chunk = active.len().div_ceil(shards);
            let walk = &walk;
            let done: Vec<Shard> = crossbeam::scope(|s| {
                let handles: Vec<_> = active
                    .chunks(chunk)
                    .zip(first_groups.chunks(chunk))
                    .map(|(tiles, groups)| {
                        s.spawn(move |_| {
                            let mut shard = Shard {
                                output: SparseTensor::new(input.extent(), weights.out_ch()),
                                stats: CycleStats::default(),
                                telemetry: LayerTelemetry::new(),
                                trace: PipelineTrace::new(self.cfg.record_trace),
                            };
                            walk(
                                tiles,
                                groups,
                                &mut shard.output,
                                &mut shard.stats,
                                &mut shard.telemetry,
                                &mut shard.trace,
                            );
                            shard
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tile shard thread panicked"))
                    .collect()
            })
            .expect("tile shard scope panicked");
            for shard in done {
                stats += &shard.stats;
                tele.merge(&shard.telemetry);
                trace.extend(&shard.trace);
                for (c, feats) in shard.output.iter() {
                    output.insert(c, feats).expect("centre lies in the grid");
                }
            }
        }

        // --- DRAM stalls: weight load is exposed unless configured
        // overlapped; streaming traffic hides under compute per the
        // overlap factor.
        let compute_cycles = stats.pipeline_cycles + stats.tile_overhead_cycles;
        let weight_cycles = if self.cfg.weight_load_overlap || !load_weights {
            0
        } else {
            ((weights.len() + weights.out_ch() * 4) as f64 / self.cfg.dram_bytes_per_cycle).ceil()
                as u64
        };
        stats.dram_stall_cycles = weight_cycles
            + dram.stall_cycles(
                self.cfg.dram_bytes_per_cycle,
                self.cfg.dram_overlap,
                compute_cycles,
            );
        stats.layer_overhead_cycles = self.cfg.per_layer_overhead_cycles;
        stats.dram_bytes_in = dram.bytes_in();
        stats.dram_bytes_out = dram.bytes_out();

        for buf in [&weight_buf, &act_buf, &mask_buf, &out_buf] {
            tele.buffers.push(buf.telemetry());
        }

        output.canonicalize();
        Ok(LayerRun {
            output,
            stats,
            trace,
            telemetry: tele,
        })
    }

    /// The per-tile cycle loop: SDMU (scan ∥ fetch) and CC advance each
    /// cycle, coupled through the FIFO group. Returns the next free match
    /// group ordinal.
    ///
    /// With `resident` set, the matching work product is already on chip:
    /// the scan/fetch stages still *execute* (they are what produces the
    /// match stream, so outputs stay bit-identical) but charge no cycles,
    /// no stalls and no scan-side telemetry — only cycles in which the
    /// computing-core stage advanced count toward `pipeline_cycles`.
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        enc: &EncodedFeatureMap,
        info: &esca_tensor::TileInfo,
        grid: &esca_tensor::TileGrid,
        cc: &mut ComputingCore<'_>,
        output: &mut SparseTensor<Q16>,
        first_group: usize,
        resident: bool,
        stats: &mut CycleStats,
        tele: &mut LayerTelemetry,
        trace: &mut PipelineTrace,
    ) -> usize {
        let mut sdmu = TileSdmu::new(
            enc,
            info,
            grid.shape(),
            grid.extent(),
            self.cfg.kernel,
            self.cfg.fifo_depth,
            self.cfg.pipeline_fill_cycles,
            first_group,
        );
        let mut group_queue: VecDeque<MatchGroupDesc> = VecDeque::new();
        let mut current_desc: Option<MatchGroupDesc> = None;
        let mut dispatched = 0usize;
        let mut drain_remaining = 0u64;
        let mut cycle = 0u64;
        // Resident mode: matching-stage spans are not traced, and only
        // compute-active cycles are charged.
        let mut match_trace = PipelineTrace::new(false);
        let mut compute_cycles = 0u64;
        // Generous safety bound: every site and match costs a bounded
        // number of cycles; exceeding this indicates a simulator bug.
        let cycle_guard =
            1000 * grid.shape().volume() + 64 * (info.nnz as u64 + 8) * cc.match_cycles() + 100_000;

        loop {
            let mut idle = true;

            // --- Computing core stage.
            if drain_remaining > 0 {
                drain_remaining -= 1;
                tele.drain_cycles += 1;
                idle = false;
            } else if cc.tick() {
                stats.compute_busy_cycles += 1;
                tele.compute_busy_cycles += 1;
                idle = false;
            } else if let Some(desc) = current_desc {
                if dispatched < desc.total_matches {
                    if let Some(m) = sdmu.fifos.pop_for_group(desc.group) {
                        let features = enc.lines().entry_features(m.entry);
                        cc.dispatch(m, features, cycle, stats, tele, trace);
                        // The dispatch cycle is the first busy cycle.
                        cc.tick();
                        stats.compute_busy_cycles += 1;
                        tele.compute_busy_cycles += 1;
                        dispatched += 1;
                        idle = false;
                    }
                } else {
                    let (feats, drain) = cc.close_group(cycle, stats, trace);
                    output
                        .insert(desc.centre, &feats)
                        .expect("centre lies in the grid");
                    drain_remaining = drain;
                    tele.drain_cycles += 1;
                    current_desc = None;
                    idle = false;
                }
            } else if let Some(desc) = group_queue.pop_front() {
                cc.open_group(desc.group);
                current_desc = Some(desc);
                dispatched = 0;
                idle = false;
            }

            // After the computing-core stage, `!idle` means the CC advanced
            // this cycle — the only work a resident tile pays for.
            let cc_active = !idle;

            // --- Fetch stage.
            let fetch_trace = if resident {
                &mut match_trace
            } else {
                &mut *trace
            };
            match sdmu.fetch_step(cycle, fetch_trace) {
                FetchOutcome::Stalled => {
                    if !resident {
                        stats.stall_cycles += 1;
                        tele.stall_fifo_full_cycles += 1;
                    }
                    idle = false;
                }
                FetchOutcome::Progress { .. } => {
                    if !resident {
                        stats.match_cycles += 1;
                        tele.fetch_busy_cycles += 1;
                    }
                    idle = false;
                }
                FetchOutcome::Idle => {}
            }

            // --- Scan stage (bounded run-ahead keeps the job queue small,
            // like the finite descriptor storage in hardware).
            if sdmu.jobs_pending() < 4 {
                let scan_trace = if resident {
                    &mut match_trace
                } else {
                    &mut *trace
                };
                match sdmu.scan_step(cycle, scan_trace) {
                    ScanOutcome::Scanned(maybe) => {
                        if let Some(desc) = maybe {
                            tele.observe_group(desc.total_matches);
                            group_queue.push_back(desc);
                        }
                        if !resident {
                            stats.match_cycles += 1;
                            tele.scan_busy_cycles += 1;
                        }
                        idle = false;
                    }
                    ScanOutcome::LineFill => {
                        if !resident {
                            stats.match_cycles += 1;
                            tele.scan_busy_cycles += 1;
                        }
                        idle = false;
                    }
                    ScanOutcome::Done => {}
                }
            }

            if !resident {
                tele.sample_fifos(&sdmu.fifos);
            }
            if cc_active {
                compute_cycles += 1;
            }
            cycle += 1;

            let done = sdmu.scan_done()
                && sdmu.jobs_pending() == 0
                && group_queue.is_empty()
                && current_desc.is_none()
                && drain_remaining == 0
                && cc.is_free()
                && sdmu.fifos.is_empty();
            if done {
                break;
            }
            assert!(
                cycle < cycle_guard || !idle,
                "tile simulation made no progress (simulator bug) at cycle {cycle}"
            );
            assert!(cycle < 2 * cycle_guard, "tile simulation runaway");
        }

        // Resident tiles pay only for the compute-active cycles; the
        // scan-side activity (site scans, mask reads, FIFO traffic)
        // happened on the frame that first built the geometry, not this one.
        stats.pipeline_cycles += if resident { compute_cycles } else { cycle };
        stats.act_reads += sdmu.act_reads();
        if !resident {
            stats.scanned_sites += sdmu.scanned_sites();
            stats.mask_bits_read += sdmu.mask_bits_read();
            stats.fifo_pushes += sdmu.fifos.total_pushes();
            stats.peak_fifo_occupancy = stats
                .peak_fifo_occupancy
                .max(sdmu.fifos.peak_occupancy() as u64);
            tele.record_fifo_totals(&sdmu.fifos);
        }
        sdmu.next_group()
    }

    /// Convenience wrapper: quantizes a float input and float weights with
    /// the paper's scheme (INT16 activations at `act_bits` fractional
    /// bits, auto-scaled INT8 weights) and runs the layer. Returns the run
    /// together with the dequantized float output.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`], plus quantization-parameter errors.
    pub fn run_layer_f32(
        &self,
        input: &SparseTensor<f32>,
        weights: &esca_sscn::weights::ConvWeights,
        relu: bool,
        act_bits: u8,
    ) -> Result<(LayerRun, SparseTensor<f32>)> {
        let qw = QuantizedWeights::auto(weights, act_bits, 12)?;
        let qin = esca_sscn::quant::quantize_tensor(input, qw.quant().act);
        let run = self.run_layer(&qin, &qw, relu)?;
        let deq = esca_sscn::quant::dequantize_tensor(&run.output, qw.quant().out);
        Ok((run, deq))
    }

    /// Runs a sequence of quantized Sub-Conv layers back-to-back, feeding
    /// each layer's output to the next (channel counts must chain).
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`].
    pub fn run_network(
        &self,
        input: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
    ) -> Result<NetworkRun> {
        self.run_chain(input, layers, LayerOpts::default())
    }

    /// The one layer chain behind [`Esca::run_network`],
    /// [`Esca::run_network_stream`] and the streaming runners: every layer
    /// runs under the same `opts`, its telemetry merges into the frame's,
    /// and a [`LayerSpan`] records its frame-relative cycle interval. The
    /// spans are computed from the merged per-layer stats, so the shard
    /// count cannot show in them.
    pub(crate) fn run_chain(
        &self,
        input: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
        opts: LayerOpts,
    ) -> Result<NetworkRun> {
        let mut x: Option<SparseTensor<Q16>> = None;
        let mut per_layer = Vec::with_capacity(layers.len());
        let mut total = CycleStats::default();
        let mut telemetry = LayerTelemetry::new();
        for (layer, (w, relu)) in layers.iter().enumerate() {
            let run = self.run_layer_with(x.as_ref().unwrap_or(input), w, *relu, opts)?;
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
            x = Some(run.output);
        }
        Ok(NetworkRun {
            output: x.unwrap_or_else(|| input.clone()),
            per_layer,
            total,
            telemetry,
        })
    }

    /// Host-side **golden** companion of [`Esca::run_network`]: runs the
    /// same quantized layer stack through the matching-reuse flat engine
    /// ([`esca_sscn::engine`]) on `backend`, with rulebooks served from
    /// `cache` — so a whole stack over one frame costs a single
    /// coordinate-matching pass, and repeated frames over the same
    /// geometry cost none. The quantized path accumulates in exact integer
    /// arithmetic, so the output is **bit-identical** to
    /// [`Esca::run_network`]'s on every backend; the tier only changes
    /// host wall-clock. **No cycle model runs**: this path produces no
    /// [`CycleStats`] and cannot perturb them.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_network`] for channel/kernel mismatches.
    pub fn run_network_golden(
        &self,
        input: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
        cache: &Arc<RulebookCache>,
        backend: GemmBackendKind,
    ) -> Result<SparseTensor<Q16>> {
        for (w, _) in layers {
            if w.k() != self.cfg.kernel {
                return Err(EscaError::Config {
                    reason: format!(
                        "layer kernel {} does not match configured kernel {}",
                        w.k(),
                        self.cfg.kernel
                    ),
                });
            }
        }
        if layers.is_empty() {
            return Ok(input.clone());
        }
        // The cycle model canonicalizes every layer output; submanifold
        // layers preserve storage order, so canonicalizing once up front
        // reproduces that order exactly (and keys the cache on the same
        // geometry for every caller).
        let mut x = input.clone();
        x.canonicalize();
        FlatEngine::with_cache_and_backend(Arc::clone(cache), backend)
            .run_stack_q(&x, layers)
            .map_err(EscaError::from)
    }

    /// Streaming inference: runs the same layer stack over a sequence of
    /// frames (the AR/VR/autonomous-driving deployment the paper's
    /// introduction motivates). Weights are loaded from DRAM once, on the
    /// first frame, and stay resident in the weight buffer afterwards.
    /// Returns per-frame totals.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`].
    pub fn run_network_stream(
        &self,
        frames: &[SparseTensor<Q16>],
        layers: &[(QuantizedWeights, bool)],
    ) -> Result<Vec<CycleStats>> {
        frames
            .iter()
            .enumerate()
            .map(|(i, frame)| {
                let opts = LayerOpts {
                    load_weights: i == 0,
                    ..LayerOpts::default()
                };
                self.run_chain(frame, layers, opts).map(|run| run.total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_sscn::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;
    use esca_tensor::{Coord3, Extent3};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_qinput(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<Q16> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::<f32>::new(Extent3::cube(side), ch);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-2.0..2.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        quantize_tensor(&t, esca_tensor::QuantParams::new(8).unwrap())
    }

    fn esca() -> Esca {
        Esca::new(EscaConfig::default()).unwrap()
    }

    #[test]
    fn layer_output_is_bit_exact_with_golden() {
        for seed in 0..5 {
            let qin = random_qinput(seed, 16, 3, 60);
            let w = ConvWeights::seeded(3, 3, 8, seed + 100);
            let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
            let run = esca().run_layer(&qin, &qw, false).unwrap();
            let golden = submanifold_conv3d_q(&qin, &qw, false).unwrap();
            assert!(
                run.output.same_content(&golden),
                "accelerator output diverged from golden at seed {seed}"
            );
        }
    }

    #[test]
    fn relu_variant_is_bit_exact_too() {
        let qin = random_qinput(9, 12, 2, 40);
        let w = ConvWeights::seeded(3, 2, 4, 1);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let run = esca().run_layer(&qin, &qw, true).unwrap();
        let golden = submanifold_conv3d_q(&qin, &qw, true).unwrap();
        assert!(run.output.same_content(&golden));
    }

    #[test]
    fn stats_match_workload_shape() {
        let qin = random_qinput(3, 16, 2, 50);
        let w = ConvWeights::seeded(3, 2, 4, 2);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let run = esca().run_layer(&qin, &qw, false).unwrap();
        let s = &run.stats;
        // One match group per active site.
        assert_eq!(s.match_groups, qin.nnz() as u64);
        // Matches equal the golden match count.
        let fin = qin.map(|q| q.0 as f32);
        assert_eq!(s.matches, esca_sscn::ops::count_matches(&fin, 3));
        // Effective MACs = matches × ic × oc.
        assert_eq!(s.effective_macs, s.matches * 2 * 4);
        // Every match was pushed through a FIFO and read from the buffer.
        assert_eq!(s.fifo_pushes, s.matches);
        assert_eq!(s.act_reads, s.matches);
        // Scanned sites cover exactly the active tiles' volumes.
        assert_eq!(s.scanned_sites, s.active_tiles * 512);
        assert!(s.total_cycles() > 0);
        assert!(s.compute_busy_cycles <= s.pipeline_cycles);
    }

    #[test]
    fn empty_input_is_trivial() {
        let qin = SparseTensor::<Q16>::new(Extent3::cube(16), 2);
        let w = ConvWeights::seeded(3, 2, 4, 3);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let run = esca().run_layer(&qin, &qw, false).unwrap();
        assert!(run.output.is_empty());
        assert_eq!(run.stats.active_tiles, 0);
        assert_eq!(run.stats.pipeline_cycles, 0);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let qin = random_qinput(1, 8, 2, 5);
        let w = ConvWeights::seeded(3, 3, 4, 4);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        assert!(matches!(
            esca().run_layer(&qin, &qw, false),
            Err(EscaError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn kernel_mismatch_rejected() {
        let qin = random_qinput(1, 8, 1, 5);
        let w = ConvWeights::seeded(5, 1, 4, 4);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        assert!(matches!(
            esca().run_layer(&qin, &qw, false),
            Err(EscaError::Config { .. })
        ));
    }

    #[test]
    fn network_chains_layers() {
        let qin = random_qinput(5, 12, 2, 30);
        let w1 = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 4, 10), 8, 10).unwrap();
        let w2 = QuantizedWeights::auto(&ConvWeights::seeded(3, 4, 2, 11), 8, 10).unwrap();
        let net = esca()
            .run_network(&qin, &[(w1.clone(), true), (w2.clone(), false)])
            .unwrap();
        assert_eq!(net.per_layer.len(), 2);
        assert_eq!(net.output.channels(), 2);
        // Chained golden reference.
        let g1 = submanifold_conv3d_q(&qin, &w1, true).unwrap();
        let g2 = submanifold_conv3d_q(&g1, &w2, false).unwrap();
        assert!(net.output.same_content(&g2));
        assert_eq!(
            net.total.total_cycles(),
            net.per_layer.iter().map(|s| s.total_cycles()).sum::<u64>()
        );
    }

    #[test]
    fn golden_network_is_bit_identical_and_reuses_matching() {
        let qin = random_qinput(6, 14, 2, 50);
        let w1 = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 6, 30), 8, 10).unwrap();
        let w2 = QuantizedWeights::auto(&ConvWeights::seeded(3, 6, 3, 31), 8, 10).unwrap();
        let stack = vec![(w1, true), (w2, false)];
        let acc = esca();
        let cycle = acc.run_network(&qin, &stack).unwrap();
        let cache = Arc::new(RulebookCache::new());
        let golden = acc
            .run_network_golden(&qin, &stack, &cache, GemmBackendKind::from_env())
            .unwrap();
        assert_eq!(golden.coords(), cycle.output.coords());
        assert_eq!(golden.features(), cycle.output.features());
        // One matching pass for the whole stack; a second frame over the
        // same geometry needs none.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        let again = acc
            .run_network_golden(&qin, &stack, &cache, GemmBackendKind::from_env())
            .unwrap();
        assert_eq!(again.features(), golden.features());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
        // Empty stack mirrors run_network: the input comes back unchanged.
        let noop = acc
            .run_network_golden(&qin, &[], &cache, GemmBackendKind::from_env())
            .unwrap();
        assert!(noop.same_content(&qin));
    }

    #[test]
    fn matching_resident_layer_is_bit_identical_with_zero_match_cycles() {
        let qin = random_qinput(21, 16, 2, 60);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 4, 7), 8, 10).unwrap();
        let acc = esca();
        let normal = acc.run_layer(&qin, &qw, false).unwrap();
        let resident = acc
            .run_layer_with(
                &qin,
                &qw,
                false,
                LayerOpts {
                    load_weights: false,
                    matching_resident: true,
                    ..LayerOpts::default()
                },
            )
            .unwrap();
        assert!(resident.output.same_content(&normal.output));
        // Normal mode spends matching cycles; residency collapses them
        // along with every other scan-side cost.
        assert!(normal.stats.match_cycles > 0);
        assert!(!normal.stats.matching_resident);
        assert!(resident.stats.matching_resident);
        assert_eq!(resident.stats.match_cycles, 0);
        assert_eq!(resident.stats.zero_removing_cycles, 0);
        assert_eq!(resident.stats.stall_cycles, 0);
        assert_eq!(resident.stats.scanned_sites, 0);
        assert_eq!(resident.stats.mask_bits_read, 0);
        assert_eq!(resident.stats.fifo_pushes, 0);
        assert_eq!(resident.stats.peak_fifo_occupancy, 0);
        // Only compute-active cycles are charged, and the activation
        // values still stream from DRAM while the metadata does not.
        assert!(resident.stats.pipeline_cycles < normal.stats.pipeline_cycles);
        assert!(resident.stats.pipeline_cycles >= resident.stats.compute_busy_cycles);
        assert_eq!(resident.stats.act_reads, normal.stats.act_reads);
        assert!(resident.stats.dram_bytes_in < normal.stats.dram_bytes_in);
        // The config-level switch produces the same accounting.
        let mut cfg = EscaConfig::default();
        cfg.matching_resident = true;
        let via_cfg = Esca::new(cfg)
            .unwrap()
            .run_layer_opts(&qin, &qw, false, false)
            .unwrap();
        assert_eq!(via_cfg.stats, resident.stats);
        assert!(via_cfg.output.same_content(&resident.output));
    }

    #[test]
    fn sharded_resident_layer_matches_single_thread() {
        let qin = random_qinput(22, 20, 3, 150);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 3, 8, 9), 8, 10).unwrap();
        let acc = esca();
        let opts = LayerOpts {
            load_weights: false,
            matching_resident: true,
            ..LayerOpts::default()
        };
        let one = acc.run_layer_with(&qin, &qw, true, opts).unwrap();
        for workers in [2, 4] {
            let n = acc
                .run_layer_with(
                    &qin,
                    &qw,
                    true,
                    LayerOpts {
                        shards: workers,
                        ..opts
                    },
                )
                .unwrap();
            assert!(n.output.same_content(&one.output), "workers={workers}");
            assert_eq!(n.stats, one.stats, "workers={workers}");
        }
    }

    #[test]
    fn golden_network_rejects_kernel_mismatch() {
        let qin = random_qinput(2, 8, 1, 5);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(5, 1, 4, 4), 8, 10).unwrap();
        let cache = Arc::new(RulebookCache::new());
        assert!(matches!(
            esca().run_network_golden(&qin, &[(qw, false)], &cache, GemmBackendKind::from_env()),
            Err(EscaError::Config { .. })
        ));
    }

    #[test]
    fn tiny_fifos_still_produce_correct_output() {
        // Backpressure changes timing, never results.
        let mut cfg = EscaConfig::default();
        cfg.fifo_depth = 1;
        let acc = Esca::new(cfg).unwrap();
        let qin = random_qinput(7, 12, 2, 60);
        let w = ConvWeights::seeded(3, 2, 4, 12);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let run = acc.run_layer(&qin, &qw, false).unwrap();
        let golden = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        assert!(run.output.same_content(&golden));
        assert!(run.stats.stall_cycles > 0, "depth-1 FIFOs should stall");
        // Default config is faster (or equal) on the same workload.
        let fast = esca().run_layer(&qin, &qw, false).unwrap();
        assert!(fast.stats.pipeline_cycles <= run.stats.pipeline_cycles);
    }

    #[test]
    fn wide_layers_take_longer_per_match() {
        let qin = random_qinput(11, 12, 2, 40);
        let narrow = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 1), 8, 10).unwrap();
        let run_n = esca().run_layer(&qin, &narrow, false).unwrap();
        let wide = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 64, 1), 8, 10).unwrap();
        let run_w = esca().run_layer(&qin, &wide, false).unwrap();
        // 64 OCs = 4 group iterations per match: compute time must grow.
        assert!(run_w.stats.compute_busy_cycles > run_n.stats.compute_busy_cycles);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut cfg = EscaConfig::default();
        cfg.record_trace = true;
        let acc = Esca::new(cfg).unwrap();
        let qin = random_qinput(13, 8, 1, 6);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 4, 2), 8, 10).unwrap();
        let run = acc.run_layer(&qin, &qw, false).unwrap();
        assert!(!run.trace.spans().is_empty());
        let chart = run.trace.render(80);
        assert!(chart.contains("compute"));
    }
}
