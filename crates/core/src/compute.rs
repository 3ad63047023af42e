//! The Computing Core (§III-D, Fig. 8): a computing array of `m+1 = 16`
//! computing units, each covering `n+1 = 16` input channels, plus the
//! accumulator.
//!
//! Each cycle, the array consumes one *match* (the activations of up to 16
//! ICs broadcast to all CUs, with the positionally-corresponding weights)
//! and produces 16 OC partial sums. Layers wider than the array iterate
//! the IC/OC group loops of Fig. 8(a); the accumulator collects the
//! partial sums of a match group and releases the SRF's output at group
//! end.
//!
//! The arithmetic is **bit-exact** with the golden model: each match sums
//! its products in 16-lane `i32` partials over blocks of
//! [`Q_I32_MAX_IN_CH`] input channels (exact per block), the partials
//! fold into i64 accumulators, and the output goes through the
//! shared [`esca_tensor::requantize_i64`] rounding.

use crate::sdmu::MatchEntry;
use crate::stats::CycleStats;
use crate::telemetry::LayerTelemetry;
use crate::trace::{PipelineTrace, Stage, TraceDetail};
use esca_sscn::gemm::{Q_I32_MAX_IN_CH, Q_LANES};
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{requantize_i64, Q16};

/// The computing core for one layer run.
#[derive(Debug)]
pub struct ComputingCore<'w> {
    weights: &'w QuantizedWeights,
    ic_parallel: usize,
    oc_parallel: usize,
    relu: bool,
    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    match_cycles: u64,
    /// Drain cycles per closed group: one per OC group.
    drain_cycles: u64,
    /// Remaining array cycles for the match in flight.
    busy: u64,
    /// Accumulators of the match group in flight (one i64 per OC).
    acc: Vec<i64>,
    /// The closed group's requantized outputs, reused across groups.
    out: Vec<Q16>,
    current_group: Option<usize>,
}

impl<'w> ComputingCore<'w> {
    /// Creates the core bound to one layer's weights.
    pub fn new(
        weights: &'w QuantizedWeights,
        ic_parallel: usize,
        oc_parallel: usize,
        relu: bool,
    ) -> Self {
        ComputingCore {
            weights,
            ic_parallel,
            oc_parallel,
            relu,
            match_cycles: (weights.in_ch().div_ceil(ic_parallel)
                * weights.out_ch().div_ceil(oc_parallel)) as u64,
            drain_cycles: weights.out_ch().div_ceil(oc_parallel) as u64,
            busy: 0,
            acc: vec![0; weights.out_ch()],
            out: vec![Q16(0); weights.out_ch()],
            current_group: None,
        }
    }

    /// Whether the array can accept a new match this cycle.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.busy == 0
    }

    /// The match group currently accumulating, if any.
    #[inline]
    pub fn current_group(&self) -> Option<usize> {
        self.current_group
    }

    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    #[inline]
    pub fn match_cycles(&self) -> u64 {
        self.match_cycles
    }

    /// Begins a match group (a new active centre). The bias is loaded into
    /// the accumulators, exactly as the golden model does.
    ///
    /// # Panics
    ///
    /// Panics if a previous group is still open (controller bug).
    pub fn open_group(&mut self, group: usize) {
        assert!(
            self.current_group.is_none(),
            "computing core: previous group still open"
        );
        self.current_group = Some(group);
        self.acc.copy_from_slice(self.weights.bias_acc());
    }

    /// Dispatches one match into the array: performs the actual MACs
    /// (functionally, all group iterations at once) and sets the busy
    /// counter to the group-iteration cycle count.
    ///
    /// `features` is the matched activation's IC vector (from the
    /// activation buffer at `m.entry`).
    ///
    /// # Panics
    ///
    /// Panics when the array is busy or the match belongs to a different
    /// group than the open one (controller bug).
    pub fn dispatch(
        &mut self,
        m: MatchEntry,
        features: &[Q16],
        cycle: u64,
        stats: &mut CycleStats,
        tele: &mut LayerTelemetry,
        trace: &mut PipelineTrace,
    ) {
        assert!(self.is_free(), "computing core: dispatch while busy");
        assert_eq!(
            self.current_group,
            Some(m.group),
            "computing core: match from a foreign group"
        );
        debug_assert_eq!(features.len(), self.weights.in_ch());
        // Zero activations contribute nothing (exactly as golden), so the
        // MAC loops skip them.
        self.mac(m.tap, features);
        let nonzero_ics = features.iter().filter(|a| a.0 != 0).count() as u64;
        let macs = (self.weights.in_ch() * self.weights.out_ch()) as u64;
        self.busy = self.match_cycles;
        stats.matches += 1;
        stats.effective_macs += macs;
        stats.lane_slots += self.busy * (self.ic_parallel * self.oc_parallel) as u64;
        stats.weight_reads += macs;
        tele.match_effective_macs
            .observe(nonzero_ics * self.weights.out_ch() as u64);
        trace.record(
            cycle,
            Stage::Compute,
            TraceDetail::Match {
                group: m.group,
                tap: m.tap,
            },
        );
    }

    /// One match's MACs. The input channels go in blocks of
    /// [`Q_I32_MAX_IN_CH`]; within a block, each [`Q_LANES`]-wide output
    /// group sums its products in `i32` lanes (`|Q16 × Q8| ≤ 2²²`, so a
    /// block's sum stays below `2³⁰`) and then folds into the i64
    /// accumulators — bit-exact with summing every product in i64, at any
    /// layer width.
    fn mac(&mut self, tap: usize, features: &[Q16]) {
        let panel = self.weights.tap_slice(tap);
        let out_ch = self.weights.out_ch();
        let blocks = features
            .chunks(Q_I32_MAX_IN_CH)
            .zip(panel.chunks(Q_I32_MAX_IN_CH * out_ch));
        for (block, rows) in blocks {
            for (g, acc) in self.acc.chunks_mut(Q_LANES).enumerate() {
                let lanes = g * Q_LANES..g * Q_LANES + acc.len();
                let mut part = [0i32; Q_LANES];
                for (&a, row) in block.iter().zip(rows.chunks_exact(out_ch)) {
                    if a.0 == 0 {
                        continue;
                    }
                    for (p, &w) in part.iter_mut().zip(&row[lanes.clone()]) {
                        *p += i32::from(a.0) * i32::from(w.0);
                    }
                }
                for (dst, p) in acc.iter_mut().zip(part) {
                    *dst += i64::from(p);
                }
            }
        }
    }

    /// Advances the array by one cycle; returns true if it was busy.
    pub fn tick(&mut self) -> bool {
        if self.busy > 0 {
            self.busy -= 1;
            true
        } else {
            false
        }
    }

    /// Closes the open match group: requantizes the accumulators into the
    /// output activation vector and returns it together with the drain
    /// cycle count (one cycle per OC group through the requantize/write
    /// port). The vector is the core's own buffer, overwritten by the next
    /// close.
    ///
    /// # Panics
    ///
    /// Panics if no group is open or the array is still busy.
    pub fn close_group(
        &mut self,
        cycle: u64,
        stats: &mut CycleStats,
        trace: &mut PipelineTrace,
    ) -> (&[Q16], u64) {
        assert!(self.current_group.is_some(), "no group to close");
        assert!(self.is_free(), "closing a group while the array is busy");
        let q = self.weights.quant();
        for (o, &v) in self.out.iter_mut().zip(&self.acc) {
            let v = if self.relu { v.max(0) } else { v };
            *o = requantize_i64(v, q.act, q.weight, q.out);
        }
        stats.out_writes += self.weights.out_ch() as u64;
        stats.match_groups += 1;
        trace.record(
            cycle,
            Stage::Drain,
            TraceDetail::Group(self.current_group.expect("checked above")),
        );
        self.current_group = None;
        (&self.out, self.drain_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_sscn::quant::{LayerQuant, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;

    fn qweights(in_ch: usize, out_ch: usize) -> QuantizedWeights {
        let mut w = ConvWeights::zeros(3, in_ch, out_ch);
        // Centre tap = identity-ish: w[13][ic][oc] = 1 if ic == oc % in_ch.
        for oc in 0..out_ch {
            w.set_w(13, oc % in_ch, oc, 1.0);
        }
        w.bias_mut().iter_mut().for_each(|b| *b = 0.5);
        QuantizedWeights::from_float(&w, LayerQuant::uniform(4, 2).unwrap())
    }

    fn mk_match(group: usize, tap: usize) -> MatchEntry {
        MatchEntry {
            column: 4,
            tap,
            entry: 0,
            group,
        }
    }

    #[test]
    fn single_match_group_computes_bias_plus_product() {
        let qw = qweights(2, 2);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        // features: [1.0, -0.5] at 4 frac bits = [16, -8]
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(16), Q16(-8)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        assert!(!cc.is_free());
        assert!(cc.tick());
        assert!(cc.is_free());
        let (out, drain) = cc.close_group(1, &mut stats, &mut trace);
        // acc frac = 6 bits; out frac = 4 => shift 2.
        // oc0: bias 0.5 (32 in acc scale) + 16 × 4 (w=1.0 at 2 frac) = 96 → 24 at out scale (1.5).
        assert_eq!(out[0], Q16(24));
        // oc1: 32 + (-8 × 4) = 0 → 0.
        assert_eq!(out[1], Q16(0));
        assert_eq!(drain, 1);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.match_groups, 1);
        assert_eq!(stats.effective_macs, 4);
    }

    #[test]
    fn relu_clamps_at_close() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, true);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        // -4.0 at 4 frac bits = -64; weight 1.0; bias 0.5 → acc = 32 - 256 < 0.
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(-64)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        let (out, _) = cc.close_group(1, &mut stats, &mut trace);
        assert_eq!(out[0], Q16(0));
    }

    #[test]
    fn wide_layers_take_multiple_group_iterations() {
        let qw = qweights(32, 48);
        let cc = ComputingCore::new(&qw, 16, 16, false);
        assert_eq!(cc.match_cycles(), 2 * 3);
    }

    #[test]
    fn lane_slot_accounting_reflects_underfill() {
        // IC = 1 underfills the 16-lane CUs: effective MACs ≪ lane slots.
        let qw = qweights(1, 16);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(16)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        assert_eq!(stats.effective_macs, 16);
        assert_eq!(stats.lane_slots, 256);
        cc.tick();
        let _ = cc.close_group(1, &mut stats, &mut trace);
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn cross_group_dispatch_panics() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        cc.dispatch(
            mk_match(1, 13),
            &[Q16(1)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
    }

    #[test]
    fn matches_accumulate_across_dispatches() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(7);
        cc.dispatch(
            mk_match(7, 13),
            &[Q16(16)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        cc.dispatch(
            mk_match(7, 13),
            &[Q16(16)],
            1,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        let (out, _) = cc.close_group(2, &mut stats, &mut trace);
        // bias 0.5 + 1.0 + 1.0 = 2.5 → 40 at 4 frac bits.
        assert_eq!(out[0], Q16(40));
    }
}
