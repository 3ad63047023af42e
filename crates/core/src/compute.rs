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
//! This model is **timing-only** and **width-free**: it consumes the
//! SDMU's match stream and counts matches and groups, busy and drain
//! cycles, but reads no feature values and computes nothing. All it
//! knows of a layer is its [`GroupLoop`], so two layers with the same
//! group loop over the same active set tick the same walk. The counters
//! that scale with the layer's channel widths (MACs, weight reads, lane
//! slots, output writes) are derived from the match and group counts by
//! the layer pricing. A layer's output comes from the flat quantized
//! kernel ([`esca_sscn::engine::apply_rulebook_flat_q_with`]) over the
//! same rulebook the match stream realises, which is bit-exact with the
//! golden model on every GEMM backend.

use crate::sdmu::MatchEntry;
use crate::stats::CycleStats;
use crate::trace::{PipelineTrace, Stage, TraceDetail};

/// A layer's array group loop (Fig. 8(a)): the only part of its shape
/// the computing core's timing depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLoop {
    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    pub match_cycles: u64,
    /// Drain cycles per closed group: one per OC group.
    pub drain_cycles: u64,
}

impl GroupLoop {
    /// The group loop of a layer of `in_ch → out_ch` channels on an array
    /// of `ic_parallel × oc_parallel` lanes.
    pub fn new(in_ch: usize, out_ch: usize, ic_parallel: usize, oc_parallel: usize) -> Self {
        GroupLoop {
            match_cycles: (in_ch.div_ceil(ic_parallel) * out_ch.div_ceil(oc_parallel)) as u64,
            drain_cycles: out_ch.div_ceil(oc_parallel) as u64,
        }
    }
}

/// Sets the width counters of a layer of `in_ch → out_ch` channels from
/// the `matches` and `match_groups` its walk counted: every match does
/// and reads `IC × OC` MACs and weights and offers `lanes` lanes for each
/// of its `match_cycles` array cycles, and every group writes `OC`
/// outputs.
pub(crate) fn count_widths(
    stats: &mut CycleStats,
    in_ch: usize,
    out_ch: usize,
    group_loop: GroupLoop,
    lanes: usize,
) {
    let macs = (in_ch * out_ch) as u64;
    stats.effective_macs = stats.matches * macs;
    stats.weight_reads = stats.matches * macs;
    stats.lane_slots = stats.matches * group_loop.match_cycles * lanes as u64;
    stats.out_writes = stats.match_groups * out_ch as u64;
}

/// The computing core's timing state for one tile walk.
#[derive(Debug)]
pub struct ComputingCore {
    group_loop: GroupLoop,
    /// Remaining array cycles for the match in flight.
    busy: u64,
    /// The match group in flight, if any.
    group: Option<usize>,
}

impl ComputingCore {
    /// Creates the core for a layer with the given group loop.
    pub fn new(group_loop: GroupLoop) -> Self {
        ComputingCore {
            group_loop,
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
        self.group_loop.match_cycles
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

    /// Dispatches one match into the array: sets the busy counter to the
    /// group-iteration cycle count. (The walk counts matches once, in the
    /// scan stage's match-group histogram.)
    ///
    /// # Panics
    ///
    /// Panics when the array is busy or the match belongs to a different
    /// group than the open one (controller bug).
    #[inline]
    pub fn dispatch(&mut self, m: MatchEntry, cycle: u64, trace: &mut PipelineTrace) {
        assert!(self.is_free(), "computing core: dispatch while busy");
        assert_eq!(
            self.group,
            Some(m.group),
            "computing core: match from a foreign group"
        );
        self.busy = self.group_loop.match_cycles;
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
    pub fn close_group(&mut self, cycle: u64, trace: &mut PipelineTrace) -> u64 {
        let group = self.group.take().expect("no group to close");
        assert!(self.is_free(), "closing a group while the array is busy");
        trace.record(cycle, Stage::Drain, TraceDetail::Group(group));
        self.group_loop.drain_cycles
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

    fn core(in_ch: usize, out_ch: usize) -> ComputingCore {
        ComputingCore::new(GroupLoop::new(in_ch, out_ch, 16, 16))
    }

    /// Runs one group of `matches` matches through `cc`, dispatching each
    /// match as soon as the array frees up; returns the busy cycles and
    /// the drain length.
    fn run_group(cc: &mut ComputingCore, group: usize, matches: usize) -> (u64, u64) {
        let mut trace = PipelineTrace::new(false);
        let mut busy = 0;
        cc.open_group(group);
        for cycle in 0..matches {
            cc.dispatch(mk_match(group, 13), cycle as u64, &mut trace);
            while cc.tick() {
                busy += 1;
            }
        }
        let drain = cc.close_group(busy, &mut trace);
        (busy, drain)
    }

    #[test]
    fn single_match_group_accounts_matches_groups_and_drain() {
        let mut cc = core(2, 2);
        let (busy, drain) = run_group(&mut cc, 0, 1);
        assert!(cc.is_free());
        assert_eq!(busy, 1);
        assert_eq!(drain, 1);
        let mut stats = CycleStats {
            matches: 1,
            match_groups: 1,
            ..CycleStats::default()
        };
        count_widths(&mut stats, 2, 2, GroupLoop::new(2, 2, 16, 16), 256);
        assert_eq!(stats.effective_macs, 4);
        assert_eq!(stats.weight_reads, 4);
        assert_eq!(stats.out_writes, 2);
    }

    #[test]
    fn wide_layers_take_multiple_group_iterations() {
        let group_loop = GroupLoop::new(32, 48, 16, 16);
        assert_eq!(group_loop.match_cycles, 2 * 3);
        let mut cc = ComputingCore::new(group_loop);
        let (busy, drain) = run_group(&mut cc, 3, 2);
        // Two matches of six array cycles each; one drain cycle per OC
        // group.
        assert_eq!(busy, 12);
        assert_eq!(drain, 3);
        let mut stats = CycleStats {
            matches: 2,
            match_groups: 1,
            ..CycleStats::default()
        };
        count_widths(&mut stats, 32, 48, group_loop, 256);
        assert_eq!(stats.lane_slots, 12 * 256);
        assert_eq!(stats.effective_macs, 2 * 32 * 48);
    }

    #[test]
    fn lane_slot_accounting_reflects_underfill() {
        // IC = 1 underfills the 16-lane CUs: effective MACs ≪ lane slots.
        let mut stats = CycleStats {
            matches: 1,
            ..CycleStats::default()
        };
        count_widths(&mut stats, 1, 16, GroupLoop::new(1, 16, 16, 16), 256);
        assert_eq!(stats.effective_macs, 16);
        assert_eq!(stats.lane_slots, 256);
    }

    #[test]
    fn groups_close_and_reopen_in_sequence() {
        let mut cc = core(1, 1);
        let busy: u64 = (0..3).map(|group| run_group(&mut cc, group, 2).0).sum();
        assert_eq!(busy, 6);
        let mut stats = CycleStats {
            matches: 6,
            match_groups: 3,
            ..CycleStats::default()
        };
        count_widths(&mut stats, 1, 1, GroupLoop::new(1, 1, 16, 16), 256);
        assert_eq!(stats.out_writes, 3);
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn cross_group_dispatch_panics() {
        let mut cc = core(1, 1);
        let mut trace = PipelineTrace::new(false);
        cc.open_group(0);
        cc.dispatch(mk_match(1, 13), 0, &mut trace);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn opening_over_an_open_group_panics() {
        let mut cc = core(1, 1);
        cc.open_group(0);
        cc.open_group(1);
    }
}
