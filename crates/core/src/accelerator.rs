//! The top-level accelerator: the main controller (Fig. 9) that sequences
//! zero removing → per-tile SDMU ∥ CC pipelining → output write-back, plus
//! whole-network execution.
//!
//! A layer's timing pass has two halves. The **tile walk** is the heart
//! of the model: zero removing, then a cycle loop per active tile in which
//! the scan, fetch and compute stages each advance once per cycle with
//! FIFO backpressure between them — the paper's "SDMU and CC are executed
//! in pipeline to increase resource utilization" (§III-D). The walk reads
//! no feature values: it depends only on the active set, the
//! configuration and the layer's array [`GroupLoop`], and it records each
//! stage event once, into the walk's [`LayerTelemetry`]. **Layer
//! pricing** then runs for every layer on the walk's counts: the stage
//! counters of [`CycleStats`] and matching residency (see
//! [`LayerOpts::matching_resident`]), the buffer/DMA model (where
//! capacity errors surface), the DRAM bytes and stall, and the counters
//! that scale with the channel widths.
//!
//! Sub-Conv keeps the active set, so the layers of a frame that share a
//! group loop share one walk: [`Esca::run_chain`] ticks each distinct walk
//! once per frame and prices it per layer. A layer's trace is the walk's
//! when that layer ticked it and empty when it reused an earlier one.
//!
//! Layer outputs come from a functional pass, the flat quantized kernel
//! over the frame's Sub-Conv rulebook, which is bit-exact with the golden
//! model; the SDMU's match stream is the same rulebook, discovered by the
//! mask scan. The same pass records the `match_effective_macs` histogram,
//! one observation per rulebook pair.

use crate::buffers::BufferModel;
use crate::compute::{count_widths, ComputingCore, GroupLoop};
use crate::config::EscaConfig;
use crate::encode::{activation_bytes, EncodedFeatureMap};
use crate::error::EscaError;
use crate::sdmu::{FetchOutcome, MatchGroupDesc, ScanOutcome, TileSdmu};
use crate::stats::CycleStats;
use crate::telemetry::{LayerSpan, LayerTelemetry};
use crate::trace::{PipelineTrace, Stage};
use crate::zero_removing::ZeroRemovingUnit;
use crate::Result;
use esca_sscn::engine::{apply_rulebook_flat_q_with, FlatEngine, FlatScratch, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_sscn::rulebook::Rulebook;
use esca_telemetry::Histogram;
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
    /// bit-identical to the normal mode; only timing collapses, and only
    /// in pricing: the tile walk is the same in both modes.
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
    /// Pipeline trace (empty unless `record_trace` was set, and empty for
    /// a chain layer that reused an earlier layer's tile walk).
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

/// Bytes a layer's weights take in the weight buffer and on the DRAM
/// port: the quantized weights plus one 4-byte bias per output channel.
fn weight_bytes(w: &QuantizedWeights) -> usize {
    w.len() + 4 * w.out_ch()
}

/// The ESCA accelerator instance.
#[derive(Debug, Clone)]
pub struct Esca {
    cfg: EscaConfig,
}

/// The geometry-only half of a layer's timing pass (see the module doc):
/// everything the tick loop and zero removing produce, plus the per-tile
/// site counts the layer pricing's buffer/DMA model needs.
#[derive(Debug)]
struct TileWalk {
    /// Walk counters; the stage, DRAM, buffer, overhead and width fields
    /// stay 0.
    stats: CycleStats,
    /// Cycles in which the computing core advanced: the pipeline cycles
    /// of a matching-resident layer.
    core_cycles: u64,
    /// FIFO, stage and group-size telemetry; no buffers, no MAC histogram.
    telemetry: LayerTelemetry,
    /// Per active tile, in tile order: its active sites and the active
    /// sites in its halo box.
    tile_sites: Vec<(usize, usize)>,
    /// Index-mask bytes one tile ships on chip.
    tile_mask_bytes: usize,
    /// The encoded map's [`EncodedFeatureMap::metadata_bytes`].
    metadata_bytes: usize,
}

/// One frame's shared state, dropped with the frame: the Sub-Conv
/// rulebook its first layer builds (shared by every layer), the rulebook
/// pairs each input site takes part in, the flat kernel's scratch, and
/// the tile walks ticked so far (one per distinct [`GroupLoop`]).
#[derive(Default)]
struct FramePass {
    rulebook: Option<Rulebook>,
    site_pairs: Vec<u32>,
    scratch: FlatScratch,
    walks: Vec<(GroupLoop, TileWalk)>,
}

impl FramePass {
    /// The frame's walk under `key`, ticked by `tick` the first time, with
    /// the trace that tick recorded; `None` when an earlier layer of the
    /// frame already ticked it.
    fn walk(
        &mut self,
        key: GroupLoop,
        tick: impl FnOnce() -> Result<(TileWalk, PipelineTrace)>,
    ) -> Result<(&TileWalk, Option<PipelineTrace>)> {
        if let Some(at) = self.walks.iter().position(|(k, _)| *k == key) {
            return Ok((&self.walks[at].1, None));
        }
        let (walk, trace) = tick()?;
        self.walks.push((key, walk));
        Ok((&self.walks[self.walks.len() - 1].1, Some(trace)))
    }
}

impl TileWalk {
    /// The walk's counters as charged to one layer, with its trace: the
    /// stage counters of [`CycleStats`] come from the walk's telemetry,
    /// and so do `matches` and `match_groups` (the sum and count of its
    /// match-group size histogram).
    /// A `resident` layer's matching work product is already on chip, so
    /// it pays only for the cycles in which the computing core advanced:
    /// zero removing, the scan and fetch stages, their stalls and FIFO
    /// traffic, and their trace spans are dropped.
    fn charge(&self, resident: bool, trace: &mut PipelineTrace) -> (CycleStats, LayerTelemetry) {
        let mut stats = self.stats.clone();
        let mut tele = self.telemetry.clone();
        stats.matching_resident = resident;
        if resident {
            tele.scan_busy_cycles = 0;
            tele.fetch_busy_cycles = 0;
            tele.stall_fifo_full_cycles = 0;
            tele.sampled_cycles = 0;
            tele.fifo_peak.clear();
            tele.fifo_occupancy_sum.clear();
            tele.fifo_pushes.clear();
            stats.pipeline_cycles = self.core_cycles;
            stats.zero_removing_cycles = 0;
            stats.scanned_sites = 0;
            stats.mask_bits_read = 0;
            trace.retain_stages(|stage| matches!(stage, Stage::Compute | Stage::Drain));
        }
        stats.matches = tele.match_group_size.sum();
        stats.match_groups = tele.match_group_size.count();
        stats.match_cycles = tele.scan_busy_cycles + tele.fetch_busy_cycles;
        stats.compute_busy_cycles = tele.compute_busy_cycles;
        stats.stall_cycles = tele.stall_fifo_full_cycles;
        stats.fifo_pushes = tele.fifo_pushes.iter().sum();
        stats.peak_fifo_occupancy = tele.fifo_peak.iter().copied().max().unwrap_or(0);
        (stats, tele)
    }
}

/// How many rulebook pairs gather each input site, in storage order:
/// the matches that read its activations.
fn pairs_per_site(book: &Rulebook) -> Vec<u32> {
    let mut pairs = vec![0u32; book.sites()];
    for tap in 0..(book.k() as usize).pow(3) {
        for &site in &book.tap(tap).input {
            pairs[site as usize] += 1;
        }
    }
    pairs
}

/// Records the effective MACs of every match: one observation per
/// rulebook pair of the gathered site's nonzero input channels times
/// `out_ch`. A histogram does not depend on the order of its
/// observations, so this equals observing the match stream.
fn observe_effective_macs(
    hist: &mut Histogram,
    input: &SparseTensor<Q16>,
    site_pairs: &[u32],
    out_ch: usize,
) {
    for ((_, features), &pairs) in input.iter().zip(site_pairs) {
        let nonzero = features.iter().filter(|a| a.0 != 0).count();
        hist.observe_n((nonzero * out_ch) as u64, u64::from(pairs));
    }
}

/// Runs each job on its own scoped thread and returns the results in job
/// order, or [`EscaError::ShardPanic`] if any job panicked (after every
/// thread has been joined).
fn run_scoped<T: Send>(jobs: impl Iterator<Item = impl FnOnce() -> T + Send>) -> Result<Vec<T>> {
    crossbeam::scope(|s| {
        let handles: Vec<_> = jobs.map(|job| s.spawn(move |_| job())).collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    })
    .map_err(|_| EscaError::ShardPanic)?
    .into_iter()
    .map(|joined| joined.map_err(|_| EscaError::ShardPanic))
    .collect()
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

    /// Rejects a layer whose kernel size is not the configured one.
    fn check_kernel(&self, weights: &QuantizedWeights) -> Result<()> {
        if weights.k() == self.cfg.kernel {
            return Ok(());
        }
        Err(EscaError::Config {
            reason: format!(
                "layer kernel {} does not match configured kernel {}",
                weights.k(),
                self.cfg.kernel
            ),
        })
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
    /// case: [`Esca::run_chain`] with [`LayerOpts::load_weights`] set on
    /// frame 0 only) and neither DRAM traffic nor load stalls are charged
    /// for them.
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
    /// bit-identical to the normal path. The tile walk is the same in both
    /// modes; residency only changes how the walk is priced.
    ///
    /// **Sharding**: before the tile walk ticks, one sequential pass over
    /// the active tiles records each tile's first match-group ordinal (a
    /// prefix sum of per-tile nnz), which makes the tiles independent. The
    /// per-tile cycle loops then run on the calling thread (`shards <= 1`)
    /// or on `shards` scoped threads, each over a contiguous chunk of tiles
    /// with its own computing core (the core is free between tiles, so
    /// per-shard cores are exact); shard counters merge by exact u64
    /// addition and traces/telemetry merge in tile order. A shard thread
    /// that panics fails the layer with [`EscaError::ShardPanic`]. The
    /// buffer/DMA model always walks the active tiles sequentially on the
    /// calling thread, so capacity errors and peak occupancies surface
    /// identically. The returned [`LayerRun`] is bit-identical for every
    /// shard count — only wall-clock changes.
    ///
    /// The output comes from the flat quantized kernel over the input's
    /// Sub-Conv rulebook, in raster order.
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
        let mut run =
            self.run_frame_layer(input, weights, relu, opts, &mut FramePass::default())?;
        run.output.canonicalize();
        Ok(run)
    }

    /// One layer of a frame: the timing pass over `input`, then the
    /// output from the flat quantized kernel over the frame's rulebook,
    /// in `input`'s storage order. Sub-Conv keeps the active set and its
    /// storage order, so the rulebook the frame's first layer builds
    /// serves every later layer, and so does each tile walk: the walk is
    /// ticked once per distinct [`GroupLoop`] and priced for every layer.
    /// The trace is the walk's when this layer ticked it, else empty.
    fn run_frame_layer(
        &self,
        input: &SparseTensor<Q16>,
        weights: &QuantizedWeights,
        relu: bool,
        opts: LayerOpts,
        frame: &mut FramePass,
    ) -> Result<LayerRun> {
        if input.channels() != weights.in_ch() {
            return Err(EscaError::ChannelMismatch {
                expected: weights.in_ch(),
                got: input.channels(),
            });
        }
        self.check_kernel(weights)?;
        let group_loop = GroupLoop::new(
            weights.in_ch(),
            weights.out_ch(),
            self.cfg.ic_parallel,
            self.cfg.oc_parallel,
        );
        let (walk, trace) = frame.walk(group_loop, || {
            self.walk_tiles(input, group_loop, opts.shards)
        })?;
        let mut trace = trace.unwrap_or_else(|| PipelineTrace::new(self.cfg.record_trace));
        let (stats, mut telemetry) =
            self.price_layer(walk, group_loop, input, weights, opts, &mut trace)?;

        let site_pairs = &mut frame.site_pairs;
        let book = frame.rulebook.get_or_insert_with(|| {
            let book = Rulebook::build(input, weights.k());
            *site_pairs = pairs_per_site(&book);
            book
        });
        observe_effective_macs(
            &mut telemetry.match_effective_macs,
            input,
            &frame.site_pairs,
            weights.out_ch(),
        );
        // The quantized kernel is bit-exact on every GEMM backend, so the
        // throughput tier serves.
        let output = apply_rulebook_flat_q_with(
            input,
            book,
            weights,
            relu,
            &mut frame.scratch,
            GemmBackendKind::Blocked.backend(),
        )?;
        Ok(LayerRun {
            output,
            stats,
            trace,
            telemetry,
        })
    }

    /// The tile walk of `input`'s active set under `group_loop` (see the
    /// module doc): zero removing, encoding, each active tile's halo
    /// count and the per-tile cycle loops (see [`Esca::run_layer_with`]
    /// for the sharding), with the trace they record.
    fn walk_tiles(
        &self,
        input: &SparseTensor<Q16>,
        group_loop: GroupLoop,
        shards: usize,
    ) -> Result<(TileWalk, PipelineTrace)> {
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(self.cfg.record_trace);
        let mut tele = LayerTelemetry::new();

        // --- Encoding (index mask + z-line index) and the zero removing
        // pre-pass's active-tile report it carries.
        let enc = EncodedFeatureMap::encode(input, self.cfg.tile)?;
        let report = enc.tiles();
        stats.zero_removing_cycles = ZeroRemovingUnit::default().cycles(input.nnz(), report);
        stats.active_tiles = report.active_tiles() as u64;
        stats.total_tiles = report.total_tiles() as u64;

        // --- Each tile's halo count for the DMA model, and each tile's
        // first match-group ordinal.
        let grid = report.grid();
        let r = (self.cfg.kernel / 2) as i32;
        let active = report.active();
        let mut tile_sites = Vec::with_capacity(active.len());
        let mut first_groups = Vec::with_capacity(active.len());
        let mut next_group = 0usize;
        for info in active {
            let hi = info.max_corner(grid.shape(), grid.extent());
            let halo_lo = info.origin.offset(-r, -r, -r);
            let halo_hi = hi.offset(r, r, r);
            tile_sites.push((info.nnz, enc.mask().count_in_box(halo_lo, halo_hi)));
            first_groups.push(next_group);
            next_group += info.nnz;
        }
        debug_assert_eq!(next_group, input.nnz());

        // --- Per-tile pipelined execution: one computing core walks a
        // contiguous run of tiles and returns its active cycles.
        let walk = |tiles: &[esca_tensor::TileInfo],
                    groups: &[usize],
                    stats: &mut CycleStats,
                    tele: &mut LayerTelemetry,
                    trace: &mut PipelineTrace| {
            let mut cc = ComputingCore::new(group_loop);
            tiles
                .iter()
                .zip(groups)
                .map(|(info, &first)| {
                    self.run_tile(&enc, info, &grid, &mut cc, first, stats, tele, trace)
                })
                .sum::<u64>()
        };
        let shards = shards.min(active.len());
        let mut core_cycles = 0;
        if shards <= 1 {
            core_cycles = walk(active, &first_groups, &mut stats, &mut tele, &mut trace);
        } else {
            let chunk = active.len().div_ceil(shards);
            let walk = &walk;
            let chunks = active.chunks(chunk).zip(first_groups.chunks(chunk));
            let jobs = chunks.map(|(tiles, groups)| {
                move || {
                    let mut stats = CycleStats::default();
                    let mut tele = LayerTelemetry::new();
                    let mut trace = PipelineTrace::new(self.cfg.record_trace);
                    let core_cycles = walk(tiles, groups, &mut stats, &mut tele, &mut trace);
                    (stats, core_cycles, tele, trace)
                }
            });
            for (shard_stats, shard_core_cycles, shard_tele, shard_trace) in run_scoped(jobs)? {
                stats += &shard_stats;
                core_cycles += shard_core_cycles;
                tele.merge(&shard_tele);
                trace.extend(shard_trace);
            }
        }

        let walk = TileWalk {
            stats,
            core_cycles,
            telemetry: tele,
            tile_sites,
            tile_mask_bytes: (grid.shape().volume() as usize).div_ceil(8),
            metadata_bytes: enc.metadata_bytes(),
        };
        Ok((walk, trace))
    }

    /// The per-layer half of the timing pass: `walk`, ticked under
    /// `group_loop`, priced for one layer of `weights` over `input`.
    /// First the walk is charged under the layer's residency
    /// ([`TileWalk::charge`], which also filters `trace`). The buffer/DMA
    /// model then streams each active tile's activations (tile + halo)
    /// and masks in and its outputs back, in tile order, so capacity
    /// errors surface per layer in the order a tile walk meets them; then
    /// come the width counters, the DRAM bytes and the DRAM stall.
    fn price_layer(
        &self,
        walk: &TileWalk,
        group_loop: GroupLoop,
        input: &SparseTensor<Q16>,
        weights: &QuantizedWeights,
        opts: LayerOpts,
        trace: &mut PipelineTrace,
    ) -> Result<(CycleStats, LayerTelemetry)> {
        // A shared walk is only valid over the active set it was ticked on.
        debug_assert_eq!(
            walk.tile_sites.iter().map(|&(nnz, _)| nnz).sum::<usize>(),
            input.nnz()
        );
        let (mut stats, mut tele) = walk.charge(opts.matching_resident, trace);
        let (in_ch, out_ch) = (weights.in_ch(), weights.out_ch());

        let weight_bytes = weight_bytes(weights);
        let mut weight_buf = BufferModel::new("weight buffer", self.cfg.weight_buffer_bytes);
        weight_buf.fill(weight_bytes)?;
        let mut act_buf = BufferModel::new("activation buffer", self.cfg.act_buffer_bytes);
        let mut mask_buf = BufferModel::new("mask buffer", self.cfg.mask_buffer_bytes);
        let mut out_buf = BufferModel::new("output buffer", self.cfg.out_buffer_bytes);
        for &(nnz, halo_nnz) in &walk.tile_sites {
            let tile_act_bytes = activation_bytes(halo_nnz, in_ch);
            act_buf.fill(tile_act_bytes)?;
            mask_buf.fill(walk.tile_mask_bytes)?;
            stats.tile_overhead_cycles += self.cfg.per_tile_overhead_cycles;
            stats.peak_act_buffer_bytes =
                stats.peak_act_buffer_bytes.max(act_buf.peak_bytes() as u64);
            let tile_out_bytes = activation_bytes(nnz, out_ch);
            out_buf.fill(tile_out_bytes)?;
            out_buf.record_writes(nnz as u64 * out_ch as u64);
            // Write-back to DRAM retires the tile's outputs.
            out_buf.drain(tile_out_bytes);
            act_buf.drain(tile_act_bytes);
            mask_buf.drain(walk.tile_mask_bytes);
        }

        count_widths(
            &mut stats,
            in_ch,
            out_ch,
            group_loop,
            self.cfg.ic_parallel * self.cfg.oc_parallel,
        );

        // --- DRAM traffic. Resident geometry keeps its index masks and
        // coordinate metadata on chip; only the activation values still
        // stream in per frame.
        let loaded_weight_bytes = if opts.load_weights { weight_bytes } else { 0 };
        let act_bytes = activation_bytes(input.nnz(), in_ch);
        let feature_bytes = if stats.matching_resident {
            act_bytes
        } else {
            walk.metadata_bytes + act_bytes
        };
        stats.dram_bytes_in = (loaded_weight_bytes + feature_bytes) as u64;
        stats.dram_bytes_out = activation_bytes(input.nnz(), out_ch) as u64;
        self.price_dram(&mut stats, loaded_weight_bytes as u64)?;
        stats.layer_overhead_cycles = self.cfg.per_layer_overhead_cycles;

        for buf in [&weight_buf, &act_buf, &mask_buf, &out_buf] {
            tele.buffers.push(buf.telemetry());
        }
        Ok((stats, tele))
    }

    /// Sets a layer's `dram_stall_cycles` from its DRAM byte counts, of
    /// which `weight_bytes` are its weight load. The weight load is
    /// exposed unless configured overlapped. A `dram_overlap` share of
    /// the compute budget (`pipeline_cycles + tile_overhead_cycles`)
    /// hides that many cycles of the whole transfer, weights included;
    /// the rest stalls.
    fn price_dram(&self, stats: &mut CycleStats, weight_bytes: u64) -> Result<()> {
        let weight_cycles = if self.cfg.weight_load_overlap {
            0
        } else {
            self.cfg.dram_cycles(weight_bytes)?
        };
        let transfer = self
            .cfg
            .dram_cycles(stats.dram_bytes_in + stats.dram_bytes_out)?;
        let budget = stats.pipeline_cycles + stats.tile_overhead_cycles;
        let hidden = ((budget as f64 * self.cfg.dram_overlap) as u64).min(transfer);
        stats.dram_stall_cycles = weight_cycles + transfer - hidden;
        Ok(())
    }

    /// A frame's total with the stack's weights resident, priced from its
    /// `per_layer` stats run with the weights loaded: each layer's weight
    /// bytes leave its DRAM traffic and its stall is re-priced without
    /// them. The weight load never touches the tile pipeline, so this
    /// equals simulating the frame again with `load_weights` off.
    pub(crate) fn weights_resident_total(
        &self,
        per_layer: &[CycleStats],
        layers: &[(QuantizedWeights, bool)],
    ) -> Result<CycleStats> {
        let mut total = CycleStats::default();
        for (stats, (w, _)) in per_layer.iter().zip(layers) {
            let mut stats = stats.clone();
            stats.dram_bytes_in -= weight_bytes(w) as u64;
            self.price_dram(&mut stats, 0)?;
            total += &stats;
        }
        Ok(total)
    }

    /// The per-tile cycle loop: SDMU (scan ∥ fetch) and CC advance each
    /// cycle, coupled through the FIFO group. Each scan, fetch, compute,
    /// drain and stall event is recorded once, in `tele`. Returns the
    /// cycles in which the computing core advanced.
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        enc: &EncodedFeatureMap,
        info: &esca_tensor::TileInfo,
        grid: &esca_tensor::TileGrid,
        cc: &mut ComputingCore,
        first_group: usize,
        stats: &mut CycleStats,
        tele: &mut LayerTelemetry,
        trace: &mut PipelineTrace,
    ) -> u64 {
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
        let mut core_cycles = 0u64;
        // Generous safety bound: each scan line costs its pipeline fill
        // plus one cycle per site, and every site and match a bounded
        // number of cycles more; exceeding this indicates a simulator bug.
        let shape = grid.shape();
        let lines = u64::from(shape.n) * u64::from(shape.m);
        let cycle_guard = lines
            .saturating_mul(
                self.cfg
                    .pipeline_fill_cycles
                    .saturating_add(u64::from(shape.l)),
            )
            .saturating_add(1000 * shape.volume())
            .saturating_add(64 * (info.nnz as u64 + 8) * cc.match_cycles())
            .saturating_add(100_000);

        loop {
            // --- Quiescent line fast-forward: with no fetch job, empty
            // FIFOs, a free core, no queued or open group and no drain
            // left, a scan line with no active site keeps every other
            // stage idle until it ends, so it advances in one step.
            let quiescent = drain_remaining == 0
                && current_desc.is_none()
                && group_queue.is_empty()
                && cc.is_free()
                && sdmu.jobs_pending() == 0
                && sdmu.fifos.is_empty();
            if quiescent {
                if let Some(span) = sdmu.skip_empty_line(cycle, trace) {
                    tele.scan_busy_cycles += span;
                    tele.sample_empty_fifos(sdmu.fifos.columns(), span);
                    cycle += span;
                    if sdmu.scan_done() {
                        break;
                    }
                    continue;
                }
            }

            let mut idle = true;

            // --- Computing core stage.
            if drain_remaining > 0 {
                drain_remaining -= 1;
                tele.drain_cycles += 1;
                idle = false;
            } else if cc.tick() {
                tele.compute_busy_cycles += 1;
                idle = false;
            } else if let Some(desc) = current_desc {
                if dispatched < desc.total_matches {
                    if let Some(m) = sdmu.fifos.pop_for_group(desc.group) {
                        cc.dispatch(m, cycle, trace);
                        // The dispatch cycle is the first busy cycle.
                        cc.tick();
                        tele.compute_busy_cycles += 1;
                        dispatched += 1;
                        idle = false;
                    }
                } else {
                    drain_remaining = cc.close_group(cycle, trace);
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
            // this cycle.
            if !idle {
                core_cycles += 1;
            }

            // --- Fetch stage.
            match sdmu.fetch_step(cycle, trace) {
                FetchOutcome::Stalled => {
                    tele.stall_fifo_full_cycles += 1;
                    idle = false;
                }
                FetchOutcome::Progress { .. } => {
                    tele.fetch_busy_cycles += 1;
                    idle = false;
                }
                FetchOutcome::Idle => {}
            }

            // --- Scan stage (bounded run-ahead keeps the job queue small,
            // like the finite descriptor storage in hardware).
            if sdmu.jobs_pending() < 4 {
                match sdmu.scan_step(cycle, trace) {
                    ScanOutcome::Scanned(maybe) => {
                        if let Some(desc) = maybe {
                            tele.observe_group(desc.total_matches);
                            group_queue.push_back(desc);
                        }
                        tele.scan_busy_cycles += 1;
                        idle = false;
                    }
                    ScanOutcome::LineFill => {
                        tele.scan_busy_cycles += 1;
                        idle = false;
                    }
                    ScanOutcome::Done => {}
                }
            }

            tele.sample_fifos(&sdmu.fifos);
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
            assert!(
                cycle < cycle_guard.saturating_mul(2),
                "tile simulation runaway"
            );
        }

        debug_assert_eq!(sdmu.next_group(), first_group + info.nnz);
        stats.pipeline_cycles += cycle;
        stats.act_reads += sdmu.act_reads();
        stats.scanned_sites += sdmu.scanned_sites();
        stats.mask_bits_read += sdmu.mask_bits_read();
        tele.record_fifo_totals(&sdmu.fifos);
        core_cycles
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
    /// each layer's output to the next (channel counts must chain);
    /// [`LayerOpts::default()`] gives a plain cold run. This is the one
    /// layer chain, also behind the streaming runners, which set
    /// [`LayerOpts::load_weights`] on frame 0 only: every layer runs under
    /// the same `opts`, its
    /// telemetry merges into the frame's, and a [`LayerSpan`] records its
    /// frame-relative cycle interval. The spans are computed from the
    /// merged per-layer stats, so the shard count cannot show in them.
    /// The frame builds one Sub-Conv rulebook for all its layers and drops
    /// it at the end (it never enters a [`RulebookCache`], whose contents
    /// decide matching residency); each layer's flat output feeds the next
    /// layer, and the last one is returned in raster order.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_layer`].
    pub fn run_chain(
        &self,
        input: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
        opts: LayerOpts,
    ) -> Result<NetworkRun> {
        let mut frame = FramePass::default();
        let mut x: Option<SparseTensor<Q16>> = None;
        let mut per_layer = Vec::with_capacity(layers.len());
        let mut total = CycleStats::default();
        let mut telemetry = LayerTelemetry::new();
        for (layer, (w, relu)) in layers.iter().enumerate() {
            let run =
                self.run_frame_layer(x.as_ref().unwrap_or(input), w, *relu, opts, &mut frame)?;
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
        if let Some(out) = x.as_mut() {
            out.canonicalize();
        }
        Ok(NetworkRun {
            output: x.unwrap_or_else(|| input.clone()),
            per_layer,
            total,
            telemetry,
        })
    }

    /// Host-side **golden** companion of [`Esca::run_chain`]: runs the
    /// same quantized layer stack through the matching-reuse flat engine
    /// ([`esca_sscn::engine`]) on `backend`, with rulebooks served from
    /// `cache` — so a whole stack over one frame costs a single
    /// coordinate-matching pass, and repeated frames over the same
    /// geometry cost none. The quantized path accumulates in exact integer
    /// arithmetic, so the output is **bit-identical** to
    /// [`Esca::run_chain`]'s on every backend; the tier only changes
    /// host wall-clock. **No cycle model runs**: this path produces no
    /// [`CycleStats`] and cannot perturb them.
    ///
    /// # Errors
    ///
    /// As [`Esca::run_chain`] for channel/kernel mismatches.
    pub fn run_network_golden(
        &self,
        input: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
        cache: &Arc<RulebookCache>,
        backend: GemmBackendKind,
    ) -> Result<SparseTensor<Q16>> {
        for (w, _) in layers {
            self.check_kernel(w)?;
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
    fn dram_stall_hides_an_overlap_share_of_the_compute_budget() {
        let mut cfg = EscaConfig::default();
        cfg.dram_bytes_per_cycle = 10.0;
        cfg.dram_overlap = 0.5;
        let esca = Esca::new(cfg).unwrap();
        let traffic = |pipeline_cycles| CycleStats {
            dram_bytes_in: 800,
            dram_bytes_out: 200,
            pipeline_cycles,
            tile_overhead_cycles: 20,
            ..CycleStats::default()
        };
        // 100 transfer cycles; half the 100-cycle budget hides 50, and
        // the 31 weight bytes' load (3.1, rounded up to 4) stays exposed.
        let mut s = traffic(80);
        esca.price_dram(&mut s, 31).unwrap();
        assert_eq!(s.dram_stall_cycles, 54);
        // A large budget hides the whole transfer; the load stays.
        let mut s = traffic(10_000);
        esca.price_dram(&mut s, 31).unwrap();
        assert_eq!(s.dram_stall_cycles, 4);
        // No compute to hide under: fully exposed.
        let mut s = traffic(0);
        s.tile_overhead_cycles = 0;
        esca.price_dram(&mut s, 0).unwrap();
        assert_eq!(s.dram_stall_cycles, 100);
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
            .run_chain(
                &qin,
                &[(w1.clone(), true), (w2.clone(), false)],
                LayerOpts::default(),
            )
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
        let cycle = acc.run_chain(&qin, &stack, LayerOpts::default()).unwrap();
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
        // Empty stack mirrors run_chain: the input comes back unchanged.
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
    fn long_pipeline_fill_runs_to_completion() {
        // 20 000 fill cycles per scan line is a valid configuration: the
        // tick loop's safety bound must scale with it, not trip on it.
        let mut cfg = EscaConfig::default();
        cfg.pipeline_fill_cycles = 20_000;
        // One 8³ tile whose last scan line is active, so the loop is still
        // ticking after 63 fills.
        let mut qin = SparseTensor::<Q16>::new(Extent3::cube(8), 2);
        for c in [(0, 0, 3), (3, 4, 0), (7, 7, 6), (7, 7, 7)] {
            let c = Coord3::new(c.0, c.1, c.2);
            qin.insert(c, &[Q16(40), Q16(-17)]).unwrap();
        }
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 4, 5), 8, 10).unwrap();
        let run = Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap();
        let golden = submanifold_conv3d_q(&qin, &qw, false).unwrap();
        assert!(run.output.same_content(&golden));
        // Every scan line of every active 8³ tile pays the fill.
        assert!(run.stats.pipeline_cycles >= run.stats.active_tiles * 64 * 20_000);
    }

    #[test]
    fn huge_fifo_depths_time_like_a_depth_that_never_fills() {
        let qin = random_qinput(19, 16, 2, 200);
        let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 4, 6), 8, 10).unwrap();
        let run = |depth: usize| {
            let mut cfg = EscaConfig::default();
            cfg.fifo_depth = depth;
            Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap()
        };
        let roomy = run(4096);
        assert!(roomy.stats.peak_fifo_occupancy < 4096, "depth 4096 filled");
        for depth in [1 << 30, usize::MAX] {
            let huge = run(depth);
            assert_eq!(huge.stats, roomy.stats, "depth {depth}");
            assert_eq!(huge.telemetry, roomy.telemetry, "depth {depth}");
            assert_eq!(huge.output.features(), roomy.output.features());
        }
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

    /// Runs `layers` as one frame and returns how many tile walks it
    /// ticked.
    fn walks_ticked(acc: &Esca, qin: &SparseTensor<Q16>, widths: &[usize]) -> usize {
        let mut frame = FramePass::default();
        let mut x = qin.clone();
        for (i, w) in widths.windows(2).enumerate() {
            let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, w[0], w[1], i as u64), 8, 10)
                .unwrap();
            x = acc
                .run_frame_layer(&x, &qw, true, LayerOpts::default(), &mut frame)
                .unwrap()
                .output;
        }
        frame.walks.len()
    }

    #[test]
    fn a_frame_ticks_one_walk_per_distinct_group_loop() {
        let qin = random_qinput(23, 16, 1, 80);
        // The benchmark stack: every layer has the (1, 1) group loop.
        assert_eq!(walks_ticked(&esca(), &qin, &[1, 16, 16, 16]), 1);
        // (1, 1), (3, 3), (3, 1), then (1, 1) again.
        assert_eq!(walks_ticked(&esca(), &qin, &[1, 16, 40, 16, 16]), 3);
    }

    #[test]
    fn a_panicking_shard_is_a_typed_error() {
        let jobs = (0..3).map(|i| {
            move || {
                assert!(i != 1, "shard {i} fails");
                i
            }
        });
        assert!(matches!(run_scoped(jobs), Err(EscaError::ShardPanic)));
        let jobs = (0..3).map(|i| move || i * 10);
        assert_eq!(run_scoped(jobs).unwrap(), vec![0, 10, 20]);
    }

    #[test]
    fn effective_mac_histogram_counts_nonzero_input_channels_per_pair() {
        // One z-line of three sites: under K = 3 the ends gather two pairs
        // each and the middle three.
        let mut qin = SparseTensor::<Q16>::new(Extent3::cube(4), 3);
        for (z, f) in [[1, 0, -2], [0, 0, 0], [5, 6, 7]].iter().enumerate() {
            let f: Vec<Q16> = f.iter().map(|&v| Q16(v)).collect();
            qin.insert(Coord3::new(0, 0, z as i32), &f).unwrap();
        }
        let book = Rulebook::build(&qin, 3);
        assert_eq!(pairs_per_site(&book), vec![2, 3, 2]);
        let mut h = Histogram::new();
        observe_effective_macs(&mut h, &qin, &pairs_per_site(&book), 4);
        // 2, 0 and 3 nonzero ICs times 4 OCs.
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (7, 2 * 8 + 2 * 12, Some(0), Some(12))
        );
        let run = esca()
            .run_layer(
                &qin,
                &QuantizedWeights::auto(&ConvWeights::seeded(3, 3, 4, 8), 8, 10).unwrap(),
                false,
            )
            .unwrap();
        assert_eq!(run.telemetry.match_effective_macs, h);
        assert_eq!(run.stats.matches, 7);
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
