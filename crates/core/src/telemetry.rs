//! Cycle-domain telemetry for the accelerator model: a typed per-layer
//! accumulator ([`LayerTelemetry`]) threaded through the tile loop, and
//! the bridge that converts it (plus [`CycleStats`]) into an
//! [`esca_telemetry::Registry`].
//!
//! Everything in this module derives from *simulated* cycles and counts.
//! Merging is sum/max/bucket-add only — commutative and associative — so
//! per-shard and per-frame accumulators fold into byte-identical
//! registries regardless of worker or shard count (DESIGN.md §7). Lint
//! **L5** (`esca-analyze`) keeps this module free of wall-clock sources
//! and host-domain recorder calls.

use crate::sdmu::fifo::FifoGroup;
use crate::stats::CycleStats;
use esca_telemetry::{Histogram, Registry};

/// One layer's cycle interval within a frame — the building block of
/// the span-context Perfetto export (frame → attempt → layer nesting).
///
/// Spans live in the cycle domain: start/end are simulated cycle
/// offsets from the frame start, so they are byte-identical across
/// worker and shard splits. They are recorded by the frame-level
/// driver (one span per layer, after shard merge), never inside shard
/// workers, so [`LayerTelemetry::merge`] commutativity is unaffected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerSpan {
    /// Layer index within the network.
    pub layer: u32,
    /// Simulated cycle the layer started at (frame-relative).
    pub start_cycle: u64,
    /// Simulated cycle the layer ended at (frame-relative).
    pub end_cycle: u64,
    /// Whether the layer ran matching-resident off a cached plan.
    pub matching_resident: bool,
}

/// Point-in-time view of one BRAM buffer model for telemetry export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferTelemetry {
    /// Buffer name (`"activation buffer"`, ...).
    pub name: &'static str,
    /// Highest fill level observed, bytes.
    pub peak_bytes: u64,
    /// Configured capacity, bytes.
    pub capacity_bytes: u64,
    /// Read access count.
    pub reads: u64,
    /// Write access count.
    pub writes: u64,
}

/// Typed cycle-domain telemetry accumulated over one layer run.
///
/// Collected always-on in the tile loop (a handful of integer adds per
/// simulated cycle); conversion to a [`Registry`] happens once per layer
/// via [`LayerTelemetry::record_into`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTelemetry {
    /// Per-FIFO highest occupancy (entries), indexed by column.
    pub fifo_peak: Vec<u64>,
    /// Per-FIFO sum of occupancy sampled every pipeline cycle (the mean
    /// is `sum / sampled_cycles`).
    pub fifo_occupancy_sum: Vec<u64>,
    /// Per-FIFO total pushes.
    pub fifo_pushes: Vec<u64>,
    /// Pipeline cycles sampled (denominator for mean occupancy).
    pub sampled_cycles: u64,
    /// Cycles the mask-scan stage did useful work (line fills + scans).
    pub scan_busy_cycles: u64,
    /// Cycles the fetch stage pushed matches into FIFOs.
    pub fetch_busy_cycles: u64,
    /// Cycles the computing array was busy (dispatch + MAC ticks).
    pub compute_busy_cycles: u64,
    /// Cycles spent draining accumulators to the output buffer.
    pub drain_cycles: u64,
    /// Fetch cycles lost to a full match FIFO.
    pub stall_fifo_full_cycles: u64,
    /// Matches per match group (the paper's matching-efficiency lens).
    pub match_group_size: Histogram,
    /// Effective MACs per dispatched match (PE-array utilization lens).
    pub match_effective_macs: Histogram,
    /// Buffer peaks/accesses, one entry per buffer model.
    pub buffers: Vec<BufferTelemetry>,
    /// Per-layer cycle intervals, appended by the frame driver after
    /// each layer completes (empty inside shard-local accumulators).
    pub layer_spans: Vec<LayerSpan>,
}

impl LayerTelemetry {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        LayerTelemetry::default()
    }

    fn ensure_fifos(&mut self, columns: usize) {
        if self.fifo_peak.len() < columns {
            self.fifo_peak.resize(columns, 0);
            self.fifo_occupancy_sum.resize(columns, 0);
            self.fifo_pushes.resize(columns, 0);
        }
    }

    /// Samples every FIFO's current occupancy for one pipeline cycle.
    pub fn sample_fifos(&mut self, fifos: &FifoGroup) {
        self.ensure_fifos(fifos.columns());
        for (slot, occ) in self.fifo_occupancy_sum.iter_mut().zip(fifos.occupancies()) {
            *slot += occ as u64;
        }
        self.sampled_cycles += 1;
    }

    /// Folds a finished tile's per-FIFO peaks and push totals in.
    pub fn record_fifo_totals(&mut self, fifos: &FifoGroup) {
        self.ensure_fifos(fifos.columns());
        for col in 0..fifos.columns() {
            let f = fifos.fifo(col);
            if let Some(peak) = self.fifo_peak.get_mut(col) {
                *peak = (*peak).max(f.peak() as u64);
            }
            if let Some(pushes) = self.fifo_pushes.get_mut(col) {
                *pushes += f.pushes();
            }
        }
    }

    /// Records one scheduled match group's size.
    pub fn observe_group(&mut self, total_matches: usize) {
        self.match_group_size.observe(total_matches as u64);
    }

    /// Folds another accumulator in: counters add, peaks max, histogram
    /// buckets add. Commutative, so shard-merge order cannot show.
    pub fn merge(&mut self, other: &LayerTelemetry) {
        self.ensure_fifos(other.fifo_peak.len());
        for (dst, src) in self.fifo_peak.iter_mut().zip(&other.fifo_peak) {
            *dst = (*dst).max(*src);
        }
        for (dst, src) in self
            .fifo_occupancy_sum
            .iter_mut()
            .zip(&other.fifo_occupancy_sum)
        {
            *dst += *src;
        }
        for (dst, src) in self.fifo_pushes.iter_mut().zip(&other.fifo_pushes) {
            *dst += *src;
        }
        self.sampled_cycles += other.sampled_cycles;
        self.scan_busy_cycles += other.scan_busy_cycles;
        self.fetch_busy_cycles += other.fetch_busy_cycles;
        self.compute_busy_cycles += other.compute_busy_cycles;
        self.drain_cycles += other.drain_cycles;
        self.stall_fifo_full_cycles += other.stall_fifo_full_cycles;
        self.match_group_size.merge(&other.match_group_size);
        self.match_effective_macs.merge(&other.match_effective_macs);
        for b in &other.buffers {
            match self.buffers.iter_mut().find(|mine| mine.name == b.name) {
                Some(mine) => {
                    mine.peak_bytes = mine.peak_bytes.max(b.peak_bytes);
                    mine.capacity_bytes = mine.capacity_bytes.max(b.capacity_bytes);
                    mine.reads += b.reads;
                    mine.writes += b.writes;
                }
                None => self.buffers.push(b.clone()),
            }
        }
        // Shard-local accumulators never carry spans (the frame driver
        // appends them after the shard merge), so this concatenation is
        // vacuous in the commutativity-sensitive merge paths; sorting by
        // layer keeps the result canonical if both sides ever held some.
        self.layer_spans.extend(other.layer_spans.iter().cloned());
        self.layer_spans
            .sort_by_key(|s| (s.layer, s.start_cycle, s.end_cycle));
    }

    /// Appends one layer's cycle interval (frame-driver only).
    pub fn push_layer_span(&mut self, span: LayerSpan) {
        self.layer_spans.push(span);
    }

    /// Emits the accumulator into a cycle-domain registry.
    pub fn record_into(&self, reg: &mut Registry) {
        for (col, ((peak, sum), pushes)) in self
            .fifo_peak
            .iter()
            .zip(&self.fifo_occupancy_sum)
            .zip(&self.fifo_pushes)
            .enumerate()
        {
            let col = col.to_string();
            let labels = [("fifo", col.as_str())];
            reg.gauge_max("esca_fifo_occupancy_peak", &labels, *peak);
            reg.counter_add("esca_fifo_occupancy_cycle_sum", &labels, *sum);
            reg.counter_add("esca_fifo_pushes_total", &labels, *pushes);
        }
        reg.counter_add("esca_fifo_sampled_cycles_total", &[], self.sampled_cycles);
        for (stage, cycles) in [
            ("scan", self.scan_busy_cycles),
            ("fetch", self.fetch_busy_cycles),
            ("compute", self.compute_busy_cycles),
            ("drain", self.drain_cycles),
        ] {
            reg.counter_add("esca_stage_busy_cycles_total", &[("stage", stage)], cycles);
        }
        reg.counter_add(
            "esca_stall_cycles_total",
            &[("cause", "fifo_full")],
            self.stall_fifo_full_cycles,
        );
        reg.merge_histogram("esca_match_group_size", &[], &self.match_group_size);
        reg.merge_histogram("esca_match_effective_macs", &[], &self.match_effective_macs);
        for b in &self.buffers {
            let labels = [("buffer", b.name)];
            reg.gauge_max("esca_buffer_peak_bytes", &labels, b.peak_bytes);
            reg.gauge_max("esca_buffer_capacity_bytes", &labels, b.capacity_bytes);
            reg.counter_add("esca_buffer_reads_total", &labels, b.reads);
            reg.counter_add("esca_buffer_writes_total", &labels, b.writes);
        }
    }
}

impl CycleStats {
    /// Emits the aggregate counters into a cycle-domain registry — the
    /// registry becomes the superset source of truth while existing
    /// `CycleStats` consumers keep reading the struct directly.
    pub fn record_into(&self, reg: &mut Registry) {
        for (kind, cycles) in [
            ("pipeline", self.pipeline_cycles),
            ("compute_busy", self.compute_busy_cycles),
            ("fifo_stall", self.stall_cycles),
            ("tile_overhead", self.tile_overhead_cycles),
            ("layer_overhead", self.layer_overhead_cycles),
            ("dram_stall", self.dram_stall_cycles),
            ("zero_removing", self.zero_removing_cycles),
        ] {
            reg.counter_add("esca_cycles_total", &[("kind", kind)], cycles);
        }
        // Match-stage cycles carry the residency label so a static-scene
        // stream shows the series collapsing to zero (with
        // matching_resident="true") once the geometry is resident.
        reg.counter_add(
            "esca_match_cycles_total",
            &[(
                "matching_resident",
                if self.matching_resident {
                    "true"
                } else {
                    "false"
                },
            )],
            self.match_cycles,
        );
        reg.counter_add(
            "esca_stall_cycles_total",
            &[("cause", "dram")],
            self.dram_stall_cycles,
        );
        for (name, value) in [
            ("esca_matches_total", self.matches),
            ("esca_effective_macs_total", self.effective_macs),
            ("esca_lane_slots_total", self.lane_slots),
            ("esca_match_groups_total", self.match_groups),
            ("esca_scanned_sites_total", self.scanned_sites),
            ("esca_mask_bits_read_total", self.mask_bits_read),
            ("esca_act_reads_total", self.act_reads),
            ("esca_weight_reads_total", self.weight_reads),
            ("esca_out_writes_total", self.out_writes),
            ("esca_fifo_pushes_all_total", self.fifo_pushes),
            ("esca_dram_bytes_in_total", self.dram_bytes_in),
            ("esca_dram_bytes_out_total", self.dram_bytes_out),
            ("esca_active_tiles_total", self.active_tiles),
            ("esca_tiles_total", self.total_tiles),
        ] {
            reg.counter_add(name, &[], value);
        }
        reg.gauge_max(
            "esca_act_buffer_peak_bytes",
            &[],
            self.peak_act_buffer_bytes,
        );
        reg.gauge_max("esca_fifo_peak_occupancy", &[], self.peak_fifo_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> LayerTelemetry {
        let mut t = LayerTelemetry::new();
        t.fifo_peak = vec![3, 1];
        t.fifo_occupancy_sum = vec![10, 4];
        t.fifo_pushes = vec![7, 2];
        t.sampled_cycles = 5;
        t.scan_busy_cycles = 4;
        t.fetch_busy_cycles = 3;
        t.compute_busy_cycles = 6;
        t.drain_cycles = 2;
        t.stall_fifo_full_cycles = 1;
        t.observe_group(4);
        t.match_effective_macs.observe(16);
        t.buffers.push(BufferTelemetry {
            name: "activation buffer",
            peak_bytes: 100,
            capacity_bytes: 1000,
            reads: 5,
            writes: 3,
        });
        t
    }

    #[test]
    fn merge_is_commutative_and_matches_sequential() {
        let a = filled();
        let mut b = filled();
        b.fifo_peak = vec![1, 9];
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.fifo_peak, vec![3, 9]);
        assert_eq!(ab.fifo_occupancy_sum, vec![20, 8]);
        assert_eq!(ab.sampled_cycles, 10);
        assert_eq!(ab.match_group_size.count(), 2);
        assert_eq!(ab.buffers.len(), 1);
        assert_eq!(ab.buffers[0].reads, 10);
    }

    #[test]
    fn layer_spans_merge_canonically_and_stay_out_of_the_registry() {
        let mut a = LayerTelemetry::new();
        a.push_layer_span(LayerSpan {
            layer: 1,
            start_cycle: 100,
            end_cycle: 250,
            matching_resident: false,
        });
        let mut b = LayerTelemetry::new();
        b.push_layer_span(LayerSpan {
            layer: 0,
            start_cycle: 0,
            end_cycle: 100,
            matching_resident: true,
        });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.layer_spans, ba.layer_spans,
            "canonical order after merge"
        );
        assert_eq!(ab.layer_spans[0].layer, 0);
        // Spans are a trace artifact, not a metric family: the registry
        // bridge must not see them, or shard splits would diverge.
        let mut with_spans = Registry::new();
        ab.record_into(&mut with_spans);
        let mut without = Registry::new();
        let mut stripped = ab.clone();
        stripped.layer_spans.clear();
        stripped.record_into(&mut without);
        assert_eq!(with_spans.snapshot(), without.snapshot());
    }

    #[test]
    fn record_into_emits_every_series() {
        let mut reg = Registry::new();
        filled().record_into(&mut reg);
        assert_eq!(
            reg.gauge("esca_fifo_occupancy_peak", &[("fifo", "0")]),
            Some(3)
        );
        assert_eq!(
            reg.counter("esca_stage_busy_cycles_total", &[("stage", "compute")]),
            Some(6)
        );
        assert_eq!(
            reg.counter("esca_stall_cycles_total", &[("cause", "fifo_full")]),
            Some(1)
        );
        assert_eq!(
            reg.histogram("esca_match_group_size", &[])
                .map(Histogram::count),
            Some(1)
        );
        assert_eq!(
            reg.gauge("esca_buffer_peak_bytes", &[("buffer", "activation buffer")]),
            Some(100)
        );
    }

    #[test]
    fn cycle_stats_bridge_covers_the_aggregates() {
        let stats = CycleStats {
            pipeline_cycles: 100,
            matches: 42,
            match_cycles: 17,
            dram_stall_cycles: 9,
            peak_fifo_occupancy: 5,
            ..CycleStats::default()
        };
        let mut reg = Registry::new();
        stats.record_into(&mut reg);
        assert_eq!(
            reg.counter("esca_cycles_total", &[("kind", "pipeline")]),
            Some(100)
        );
        assert_eq!(reg.counter("esca_matches_total", &[]), Some(42));
        assert_eq!(
            reg.counter("esca_stall_cycles_total", &[("cause", "dram")]),
            Some(9)
        );
        assert_eq!(reg.gauge("esca_fifo_peak_occupancy", &[]), Some(5));
        // Match cycles are labelled by residency.
        assert_eq!(
            reg.counter("esca_match_cycles_total", &[("matching_resident", "false")]),
            Some(17)
        );
        let resident = CycleStats {
            matching_resident: true,
            ..CycleStats::default()
        };
        let mut reg = Registry::new();
        resident.record_into(&mut reg);
        assert_eq!(
            reg.counter("esca_match_cycles_total", &[("matching_resident", "true")]),
            Some(0)
        );
    }
}
