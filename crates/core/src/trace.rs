//! Pipeline span tracing — the machine-readable form of the paper's
//! Fig. 7(b) pipeline diagram.
//!
//! When [`crate::EscaConfig::record_trace`] is set, the accelerator emits
//! structured spans `(stage, cycle_start, cycle_end, detail)`; contiguous
//! same-stage/same-detail activity coalesces into one span.
//! `examples/pipeline_trace.rs` renders them as a Gantt-style text chart,
//! and [`PipelineTrace::to_chrome_trace`] exports Chrome trace-event /
//! Perfetto JSON for standard tooling.
//!
//! A span's detail is a `Copy` [`TraceDetail`], stored unformatted: the
//! cycle model builds no string per recorded cycle, traced or not, and
//! the text form exists only at export (Chrome trace, serde, `Display`).

use esca_telemetry::ChromeTrace;
use esca_tensor::Coord3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pipeline stage a span belongs to (the paper's matching steps plus
/// the computing core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Read masks from the mask buffer (one SRF z-slice per cycle).
    ReadMasks,
    /// Judge whether the SRF centre is active.
    JudgeState,
    /// Generate the per-column (A, B) state index.
    GenStateIndex,
    /// Fetch activations `(A−B, A]` from the activation buffer.
    FetchActivations,
    /// Computing array consumes a match (one IC×OC group iteration).
    Compute,
    /// Accumulator drains an output (requantize + output-buffer write).
    Drain,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::ReadMasks,
        Stage::JudgeState,
        Stage::GenStateIndex,
        Stage::FetchActivations,
        Stage::Compute,
        Stage::Drain,
    ];

    /// Short label used in the text chart.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::ReadMasks => "read masks",
            Stage::JudgeState => "judge state",
            Stage::GenStateIndex => "state index",
            Stage::FetchActivations => "fetch acts",
            Stage::Compute => "compute",
            Stage::Drain => "drain",
        }
    }

    /// Stable lane index (position in [`Stage::ALL`]), used as the
    /// Chrome trace `tid` so every export lays stages out identically.
    pub fn lane(&self) -> u32 {
        match self {
            Stage::ReadMasks => 0,
            Stage::JudgeState => 1,
            Stage::GenStateIndex => 2,
            Stage::FetchActivations => 3,
            Stage::Compute => 4,
            Stage::Drain => 5,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The piece of work a span was busy on. Its `Display` form is the span's
/// detail text in every export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDetail {
    /// Pipeline-fill cycles preloading the column accumulators of the
    /// `(x, y)` line (`"fill line (x, y)"`).
    FillLine {
        /// Line x coordinate.
        x: i32,
        /// Line y coordinate.
        y: i32,
    },
    /// One SRF centre scanned (`"srf (x, y, z)"`).
    Srf(Coord3),
    /// One match group, by ordinal within the layer run (`"group g"`).
    Group(usize),
    /// One match dispatched into the computing array (`"match gG tapT"`).
    Match {
        /// Match-group ordinal.
        group: usize,
        /// Kernel tap index.
        tap: usize,
    },
}

impl TraceDetail {
    /// Parses the `Display` form back (the serde wire form).
    fn parse(s: &str) -> Option<Self> {
        if let Some(rest) = s.strip_prefix("fill line (") {
            let (x, y) = rest.strip_suffix(')')?.split_once(", ")?;
            return Some(TraceDetail::FillLine {
                x: x.parse().ok()?,
                y: y.parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("srf (") {
            let mut xyz = rest.strip_suffix(')')?.split(", ").map(str::parse);
            let mut next = || xyz.next()?.ok();
            let c = Coord3::new(next()?, next()?, next()?);
            return next().is_none().then_some(TraceDetail::Srf(c));
        }
        if let Some(g) = s.strip_prefix("group ") {
            return g.parse().ok().map(TraceDetail::Group);
        }
        let (group, tap) = s.strip_prefix("match g")?.split_once(" tap")?;
        Some(TraceDetail::Match {
            group: group.parse().ok()?,
            tap: tap.parse().ok()?,
        })
    }
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDetail::FillLine { x, y } => write!(f, "fill line ({x}, {y})"),
            TraceDetail::Srf(centre) => write!(f, "srf {centre}"),
            TraceDetail::Group(g) => write!(f, "group {g}"),
            TraceDetail::Match { group, tap } => write!(f, "match g{group} tap{tap}"),
        }
    }
}

// Manual impls: the detail travels as its `Display` string, the JSON
// shape trace consumers already parse.
impl Serialize for TraceDetail {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

impl Deserialize for TraceDetail {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let s = String::from_content(content)?;
        TraceDetail::parse(&s)
            .ok_or_else(|| serde::Error::custom(format!("unrecognised trace detail {s:?}")))
    }
}

/// One structured pipeline span: a stage busy for the half-open cycle
/// range `[cycle_start, cycle_end)` on one piece of work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The stage that was active.
    pub stage: Stage,
    /// First busy cycle (tile-local).
    pub cycle_start: u64,
    /// One past the last busy cycle.
    pub cycle_end: u64,
    /// The piece of work (e.g. the SRF centre or match id).
    pub detail: TraceDetail,
}

impl TraceSpan {
    /// Span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle_end.saturating_sub(self.cycle_start)
    }
}

/// When recording at `cycle`, a coalescable predecessor span (same
/// stage, ends exactly at `cycle`) lies at most this many spans back:
/// each stage records at most once per cycle, so at most `|Stage::ALL| −
/// 1` spans from the rest of the previous cycle plus the same from the
/// current cycle can sit in between.
const COALESCE_WINDOW: usize = 2 * Stage::ALL.len();

/// A recorded pipeline trace: structured spans in emission order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineTrace {
    spans: Vec<TraceSpan>,
    enabled: bool,
}

impl PipelineTrace {
    /// Creates a trace; spans are only stored when `enabled`.
    pub fn new(enabled: bool) -> Self {
        PipelineTrace {
            spans: Vec::new(),
            enabled,
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one busy cycle for `stage` (no-op when disabled).
    ///
    /// Contiguous recordings with the same stage *and* detail extend the
    /// previous span; anything else opens a new span, so per-work-item
    /// details (one per match, group or SRF) keep a 1:1 span mapping.
    #[inline]
    pub fn record(&mut self, cycle: u64, stage: Stage, detail: TraceDetail) {
        if !self.enabled {
            return;
        }
        let coalesced = self
            .spans
            .iter_mut()
            .rev()
            .take(COALESCE_WINDOW)
            .find(|s| s.stage == stage)
            .filter(|s| s.cycle_end == cycle && s.detail == detail)
            .map(|s| s.cycle_end = cycle + 1)
            .is_some();
        if !coalesced {
            self.spans.push(TraceSpan {
                stage,
                cycle_start: cycle,
                cycle_end: cycle + 1,
                detail,
            });
        }
    }

    /// The recorded spans in emission order.
    #[inline]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Drops every span whose stage `keep` rejects, keeping the rest in
    /// emission order.
    pub(crate) fn retain_stages(&mut self, keep: impl Fn(Stage) -> bool) {
        self.spans.retain(|s| keep(s.stage));
    }

    /// Moves another trace's spans onto the end of this one (shard-merge
    /// for the parallel tile path; spans are tile-local and a new tile
    /// restarts at cycle 0, so concatenation in tile order matches the
    /// sequential emission order exactly — no cross-tile coalescing can
    /// occur because a span's `cycle_end` is always ≥ 1).
    pub fn extend(&mut self, mut other: PipelineTrace) {
        if self.enabled {
            self.spans.append(&mut other.spans);
        }
    }

    /// Renders a Gantt-style text chart (stages × cycles), Fig. 7(b)
    /// fashion. `max_cycles` clips the horizontal extent.
    pub fn render(&self, max_cycles: u64) -> String {
        let horizon = self
            .spans
            .iter()
            .map(|s| s.cycle_end)
            .max()
            .unwrap_or(0)
            .min(max_cycles);
        let mut out = String::new();
        for stage in Stage::ALL {
            out.push_str(&format!("{:>12} |", stage.label()));
            for c in 0..horizon {
                let busy = self
                    .spans
                    .iter()
                    .any(|s| s.stage == stage && s.cycle_start <= c && c < s.cycle_end);
                out.push(if busy { '#' } else { '.' });
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>12} +{}\n",
            "cycle",
            "-".repeat(horizon as usize)
        ));
        out
    }

    /// Exports the spans as a Chrome trace-event / Perfetto trace: one
    /// complete (`"X"`) event per span, `ts`/`dur` in simulated cycles,
    /// one `tid` lane per stage.
    pub fn to_chrome_trace(&self, pid: u32) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for s in &self.spans {
            trace.push_complete(
                "stage",
                s.stage.label(),
                s.cycle_start,
                s.cycles(),
                pid,
                s.stage.lane(),
                &s.detail.to_string(),
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A detail is a plain `Copy` value: recording one can never allocate.
    // Regressing to an owned `String` detail fails to compile here.
    const _: fn() = || {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceDetail>();
    };

    const G0: TraceDetail = TraceDetail::Group(0);
    const G1: TraceDetail = TraceDetail::Group(1);

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = PipelineTrace::new(false);
        t.record(0, Stage::Compute, G0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = PipelineTrace::new(true);
        let srf = TraceDetail::Srf(Coord3::new(0, 0, 0));
        t.record(0, Stage::ReadMasks, srf);
        t.record(1, Stage::JudgeState, srf);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].stage, Stage::ReadMasks);
    }

    #[test]
    fn contiguous_same_detail_cycles_coalesce() {
        let mut t = PipelineTrace::new(true);
        let fill = TraceDetail::FillLine { x: 1, y: 2 };
        t.record(3, Stage::ReadMasks, fill);
        t.record(4, Stage::ReadMasks, fill);
        // Interleaved other-stage activity must not break coalescing.
        t.record(4, Stage::Compute, TraceDetail::Match { group: 0, tap: 0 });
        t.record(5, Stage::ReadMasks, fill);
        // A gap or a new detail opens a fresh span.
        t.record(7, Stage::ReadMasks, fill);
        t.record(8, Stage::ReadMasks, TraceDetail::Srf(Coord3::new(0, 0, 0)));
        let masks: Vec<&TraceSpan> = t
            .spans()
            .iter()
            .filter(|s| s.stage == Stage::ReadMasks)
            .collect();
        assert_eq!(masks.len(), 3, "{masks:?}");
        assert_eq!((masks[0].cycle_start, masks[0].cycle_end), (3, 6));
        assert_eq!(masks[0].cycles(), 3);
        assert_eq!((masks[1].cycle_start, masks[1].cycle_end), (7, 8));
    }

    #[test]
    fn render_marks_busy_cycles() {
        let mut t = PipelineTrace::new(true);
        t.record(0, Stage::ReadMasks, G0);
        t.record(2, Stage::Compute, G1);
        let chart = t.render(10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains("read masks"));
        assert!(lines[0].ends_with("#.."));
        let compute_line = lines.iter().find(|l| l.contains("compute")).unwrap();
        assert!(compute_line.ends_with("..#"));
    }

    #[test]
    fn render_clips_to_max_cycles() {
        let mut t = PipelineTrace::new(true);
        t.record(100, Stage::Drain, G0);
        let chart = t.render(5);
        // Horizon clipped to 5 columns.
        assert!(chart.lines().next().unwrap().ends_with("....."));
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let mut t = PipelineTrace::new(true);
        t.record(0, Stage::ReadMasks, G1);
        t.record(1, Stage::ReadMasks, G1);
        t.record(5, Stage::Drain, G0);
        let trace = t.to_chrome_trace(1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.traceEvents[0].ts, 0);
        assert_eq!(trace.traceEvents[0].dur, 2);
        assert_eq!(trace.traceEvents[0].tid, Stage::ReadMasks.lane());
        assert_eq!(trace.traceEvents[1].name, "drain");
        assert_eq!(trace.traceEvents[1].pid, 1);
        assert_eq!(trace.traceEvents[1].args.detail, "group 0");
    }

    #[test]
    fn details_display_and_parse_back() {
        for (detail, text) in [
            (TraceDetail::FillLine { x: 1, y: -2 }, "fill line (1, -2)"),
            (TraceDetail::Srf(Coord3::new(3, 0, -1)), "srf (3, 0, -1)"),
            (TraceDetail::Group(12), "group 12"),
            (TraceDetail::Match { group: 7, tap: 13 }, "match g7 tap13"),
        ] {
            assert_eq!(detail.to_string(), text);
            assert_eq!(TraceDetail::parse(text), Some(detail));
        }
        for bad in [
            "",
            "group",
            "group x",
            "srf (1, 2)",
            "srf (1, 2, 3, 4)",
            "match g1",
        ] {
            assert_eq!(TraceDetail::parse(bad), None, "{bad:?}");
        }
    }
}
