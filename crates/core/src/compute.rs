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
//! This model is **timing-only**: it consumes the SDMU's match stream and
//! accounts the array, drain and work counters, but computes no values.
//! A layer's output comes from the flat quantized kernel
//! ([`esca_sscn::engine::apply_rulebook_flat_q_with`]) over the same
//! rulebook the match stream realises, which is bit-exact with the golden
//! model on every GEMM backend.

use crate::sdmu::MatchEntry;
use crate::stats::CycleStats;
use crate::telemetry::LayerTelemetry;
use crate::trace::{PipelineTrace, Stage, TraceDetail};
use esca_tensor::Q16;

/// The computing core's timing state for one layer run.
#[derive(Debug)]
pub struct ComputingCore {
    in_ch: usize,
    out_ch: usize,
    ic_parallel: usize,
    oc_parallel: usize,
    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    match_cycles: u64,
    /// Drain cycles per closed group: one per OC group.
    drain_cycles: u64,
    /// Remaining array cycles for the match in flight.
    busy: u64,
    /// The match group in flight, if any.
    group: Option<usize>,
}

impl ComputingCore {
    /// Creates the core for a layer of `in_ch → out_ch` channels.
    pub fn new(in_ch: usize, out_ch: usize, ic_parallel: usize, oc_parallel: usize) -> Self {
        ComputingCore {
            in_ch,
            out_ch,
            ic_parallel,
            oc_parallel,
            match_cycles: (in_ch.div_ceil(ic_parallel) * out_ch.div_ceil(oc_parallel)) as u64,
            drain_cycles: out_ch.div_ceil(oc_parallel) as u64,
            busy: 0,
            group: None,
        }
    }

    /// Whether the array can accept a new match this cycle.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.busy == 0
    }

    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    #[inline]
    pub fn match_cycles(&self) -> u64 {
        self.match_cycles
    }

    /// Begins a match group (a new active centre).
    ///
    /// # Panics
    ///
    /// Panics if a previous group is still open (controller bug).
    #[inline]
    pub fn open_group(&mut self, group: usize) {
        assert!(
            self.group.is_none(),
            "computing core: previous group still open"
        );
        self.group = Some(group);
    }

    /// Dispatches one match into the array: accounts its MACs and sets
    /// the busy counter to the group-iteration cycle count.
    ///
    /// `features` is the matched activation's IC vector (from the
    /// activation buffer at `m.entry`); its nonzero channels are the
    /// match's effective MACs in the telemetry histogram.
    ///
    /// # Panics
    ///
    /// Panics when the array is busy or the match belongs to a different
    /// group than the open one (controller bug).
    #[inline]
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
            self.group,
            Some(m.group),
            "computing core: match from a foreign group"
        );
        debug_assert_eq!(features.len(), self.in_ch);
        let nonzero_ics = features.iter().filter(|a| a.0 != 0).count() as u64;
        let macs = (self.in_ch * self.out_ch) as u64;
        self.busy = self.match_cycles;
        stats.matches += 1;
        stats.effective_macs += macs;
        stats.lane_slots += self.busy * (self.ic_parallel * self.oc_parallel) as u64;
        stats.weight_reads += macs;
        tele.match_effective_macs
            .observe(nonzero_ics * self.out_ch as u64);
        trace.record(
            cycle,
            Stage::Compute,
            TraceDetail::Match {
                group: m.group,
                tap: m.tap,
            },
        );
    }

    /// Advances the array by one cycle; returns true if it was busy.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.busy > 0 {
            self.busy -= 1;
            true
        } else {
            false
        }
    }

    /// Closes the open match group and returns its drain cycle count (one
    /// cycle per OC group through the requantize/write port).
    ///
    /// # Panics
    ///
    /// Panics if no group is open or the array is still busy.
    #[inline]
    pub fn close_group(
        &mut self,
        cycle: u64,
        stats: &mut CycleStats,
        trace: &mut PipelineTrace,
    ) -> u64 {
        let group = self.group.take().expect("no group to close");
        assert!(self.is_free(), "closing a group while the array is busy");
        stats.out_writes += self.out_ch as u64;
        stats.match_groups += 1;
        trace.record(cycle, Stage::Drain, TraceDetail::Group(group));
        self.drain_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_match(group: usize, tap: usize) -> MatchEntry {
        MatchEntry {
            column: 4,
            tap,
            entry: 0,
            group,
        }
    }

    /// Runs one group of `features.len()` matches through a core of
    /// `in_ch → out_ch` channels, dispatching each match as soon as the
    /// array frees up; returns the busy cycles and the drain length.
    fn run_group(
        cc: &mut ComputingCore,
        group: usize,
        features: &[&[Q16]],
        stats: &mut CycleStats,
        tele: &mut LayerTelemetry,
    ) -> (u64, u64) {
        let mut trace = PipelineTrace::new(false);
        let mut busy = 0;
        cc.open_group(group);
        for (cycle, f) in features.iter().enumerate() {
            cc.dispatch(
                mk_match(group, 13),
                f,
                cycle as u64,
                stats,
                tele,
                &mut trace,
            );
            while cc.tick() {
                busy += 1;
            }
        }
        let drain = cc.close_group(busy, stats, &mut trace);
        (busy, drain)
    }

    #[test]
    fn single_match_group_accounts_matches_groups_and_drain() {
        let mut cc = ComputingCore::new(2, 2, 16, 16);
        let mut stats = CycleStats::default();
        let mut tele = LayerTelemetry::default();
        let (busy, drain) = run_group(&mut cc, 0, &[&[Q16(16), Q16(-8)]], &mut stats, &mut tele);
        assert!(cc.is_free());
        assert_eq!(busy, 1);
        assert_eq!(drain, 1);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.match_groups, 1);
        assert_eq!(stats.effective_macs, 4);
        assert_eq!(stats.weight_reads, 4);
        assert_eq!(stats.out_writes, 2);
    }

    #[test]
    fn wide_layers_take_multiple_group_iterations() {
        let mut cc = ComputingCore::new(32, 48, 16, 16);
        assert_eq!(cc.match_cycles(), 2 * 3);
        let mut stats = CycleStats::default();
        let mut tele = LayerTelemetry::default();
        let f = vec![Q16(1); 32];
        let (busy, drain) = run_group(&mut cc, 3, &[&f, &f], &mut stats, &mut tele);
        // Two matches of six array cycles each; one drain cycle per OC
        // group.
        assert_eq!(busy, 12);
        assert_eq!(drain, 3);
        assert_eq!(stats.lane_slots, 12 * 256);
        assert_eq!(stats.effective_macs, 2 * 32 * 48);
    }

    #[test]
    fn lane_slot_accounting_reflects_underfill() {
        // IC = 1 underfills the 16-lane CUs: effective MACs ≪ lane slots.
        let mut cc = ComputingCore::new(1, 16, 16, 16);
        let mut stats = CycleStats::default();
        let mut tele = LayerTelemetry::default();
        run_group(&mut cc, 0, &[&[Q16(16)]], &mut stats, &mut tele);
        assert_eq!(stats.effective_macs, 16);
        assert_eq!(stats.lane_slots, 256);
    }

    #[test]
    fn effective_mac_histogram_counts_nonzero_input_channels() {
        let mut cc = ComputingCore::new(3, 4, 16, 16);
        let mut stats = CycleStats::default();
        let mut tele = LayerTelemetry::default();
        let matches: [&[Q16]; 3] = [
            &[Q16(1), Q16(0), Q16(-2)],
            &[Q16(0), Q16(0), Q16(0)],
            &[Q16(5), Q16(6), Q16(7)],
        ];
        run_group(&mut cc, 7, &matches, &mut stats, &mut tele);
        // 2, 0 and 3 nonzero ICs, times 4 OCs; the counters still charge
        // every MAC of every match.
        let h = &tele.match_effective_macs;
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (3, 20, Some(0), Some(12))
        );
        assert_eq!(stats.matches, 3);
        assert_eq!(stats.effective_macs, 3 * 12);
    }

    #[test]
    fn groups_close_and_reopen_in_sequence() {
        let mut cc = ComputingCore::new(1, 1, 16, 16);
        let mut stats = CycleStats::default();
        let mut tele = LayerTelemetry::default();
        for group in 0..3 {
            run_group(
                &mut cc,
                group,
                &[&[Q16(1)], &[Q16(2)]],
                &mut stats,
                &mut tele,
            );
        }
        assert_eq!(stats.match_groups, 3);
        assert_eq!(stats.matches, 6);
        assert_eq!(stats.out_writes, 3);
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn cross_group_dispatch_panics() {
        let mut cc = ComputingCore::new(1, 1, 16, 16);
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
    #[should_panic(expected = "still open")]
    fn opening_over_an_open_group_panics() {
        let mut cc = ComputingCore::new(1, 1, 16, 16);
        cc.open_group(0);
        cc.open_group(1);
    }
}
