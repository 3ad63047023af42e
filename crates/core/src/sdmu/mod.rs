//! The Sparse Data Matching Unit (§III-C, Fig. 6–7).
//!
//! For each active tile the SDMU traverses the tile's sites line by line
//! (z fastest), and for every site executes the paper's four matching
//! steps:
//!
//! 1. **Read masks** — the K² column mask bits of the new z-slice;
//! 2. **Judge state** — if the centre mask is 0, the SRF is skipped;
//! 3. **Generate state index** — per column, the `(A, B)` pair from the
//!    running accumulator;
//! 4. **Fetch activations** — read the address fragments `(A−B, A]` from
//!    the activation buffer into the K² match FIFOs.
//!
//! The MUX then drains the FIFOs in column order, one match per cycle,
//! toward the computing core. [`TileSdmu`] exposes exactly these steps to
//! the main controller's cycle loop.

pub mod fifo;
pub mod mask_judger;
pub mod state_index;

use crate::encode::EncodedFeatureMap;
use crate::trace::{PipelineTrace, Stage, TraceDetail};
use esca_tensor::{Coord3, Extent3, KernelOffsets, TileInfo, TileShape};
use fifo::FifoGroup;
use mask_judger::MaskJudger;
use state_index::StateIndexGen;
use std::collections::VecDeque;
use std::ops::Range;

/// One match: an activation-buffer entry paired with its kernel tap,
/// tagged with the match group (active centre) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchEntry {
    /// Kernel column (0..K²) — which FIFO carried it.
    pub column: usize,
    /// Kernel tap index (positional weight correspondence).
    pub tap: usize,
    /// Global activation-buffer entry index (into the z-line index).
    pub entry: usize,
    /// Match-group ordinal (centre id within the layer run).
    pub group: usize,
}

/// Descriptor of a match group: one active centre and its match count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchGroupDesc {
    /// Match-group ordinal.
    pub group: usize,
    /// The active centre site.
    pub centre: Coord3,
    /// Total matches the group contains (≥ 1: the centre matches itself).
    pub total_matches: usize,
}

/// Outcome of one scan-stage cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Pipeline fill at a line start consumed the cycle.
    LineFill,
    /// A site was scanned; `Some` when its centre was active.
    Scanned(Option<MatchGroupDesc>),
    /// The tile is fully scanned.
    Done,
}

/// Outcome of one fetch-stage cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// No job pending.
    Idle,
    /// Pushed `pushes` entries into the FIFO group this cycle.
    Progress {
        /// Entries pushed (≤ K², one per column bank).
        pushes: u32,
    },
    /// A job is pending but every remaining column's FIFO is full.
    Stalled,
}

/// A pending fetch job: the address fragments of one active SRF.
#[derive(Debug, Clone)]
struct FetchJob {
    group: usize,
    centre_z: i32,
    /// Per column: the remaining global entry range to push.
    remaining: Vec<Range<usize>>,
    /// Entries left to push across all columns.
    left: usize,
}

/// The per-tile SDMU state machine.
#[derive(Debug)]
pub struct TileSdmu<'a> {
    enc: &'a EncodedFeatureMap,
    offsets: KernelOffsets,
    judger: MaskJudger,
    /// The tile's first and last site (inclusive, clipped to the grid).
    lo: Coord3,
    hi: Coord3,
    /// The next site to scan, in (x, y) line-major order with z fastest;
    /// `x > hi.x` once the tile is fully scanned.
    pos: Coord3,
    fill_remaining: u64,
    pipeline_fill: u64,
    line_start: bool,
    state_index: StateIndexGen,
    /// Per column: the global activation-buffer offset of the loaded scan
    /// line's neighbour-line bank. Fragments `(A−B, A]` are line-local, so
    /// a fetch address is `base + A − B .. base + A`.
    bank_bases: Vec<usize>,
    jobs: VecDeque<FetchJob>,
    /// Drained `FetchJob::remaining` buffers, reused by the next job.
    spare: Vec<Vec<Range<usize>>>,
    /// The K² match FIFOs.
    pub fifos: FifoGroup,
    next_group: usize,
    // counters
    mask_bits_read: u64,
    act_reads: u64,
    scanned: u64,
}

impl<'a> TileSdmu<'a> {
    /// Creates the SDMU state machine for one active tile.
    ///
    /// `first_group` is the match-group ordinal to assign to the tile's
    /// first active centre (groups number consecutively across tiles).
    #[allow(clippy::too_many_arguments)] // mirrors the hardware unit's ports
    pub fn new(
        enc: &'a EncodedFeatureMap,
        tile: &TileInfo,
        shape: TileShape,
        extent: Extent3,
        kernel: u32,
        fifo_depth: usize,
        pipeline_fill: u64,
        first_group: usize,
    ) -> Self {
        let offsets = KernelOffsets::new(kernel);
        let columns = offsets.columns();
        TileSdmu {
            enc,
            offsets,
            judger: MaskJudger::new(kernel),
            lo: tile.origin,
            hi: tile.max_corner(shape, extent),
            pos: tile.origin,
            fill_remaining: 0,
            pipeline_fill,
            line_start: true,
            state_index: StateIndexGen::new(columns),
            bank_bases: vec![0; columns],
            jobs: VecDeque::new(),
            spare: Vec::new(),
            fifos: FifoGroup::new(columns, fifo_depth),
            next_group: first_group,
            mask_bits_read: 0,
            act_reads: 0,
            scanned: 0,
        }
    }

    /// Whether every site of the tile has been scanned.
    pub fn scan_done(&self) -> bool {
        self.pos.x > self.hi.x
    }

    /// Pending fetch jobs.
    pub fn jobs_pending(&self) -> usize {
        self.jobs.len()
    }

    /// Index-mask bits read so far.
    pub fn mask_bits_read(&self) -> u64 {
        self.mask_bits_read
    }

    /// Activation-buffer entry reads so far.
    pub fn act_reads(&self) -> u64 {
        self.act_reads
    }

    /// Sites scanned so far.
    pub fn scanned_sites(&self) -> u64 {
        self.scanned
    }

    /// The next group ordinal that would be assigned.
    pub fn next_group(&self) -> usize {
        self.next_group
    }

    /// Sites per scan line (the tile's z extent).
    fn line_len(&self) -> u64 {
        (self.hi.z - self.lo.z + 1) as u64
    }

    /// One scan-stage cycle: read masks, judge, generate state index, and
    /// (for active centres) enqueue the fetch job.
    pub fn scan_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> ScanOutcome {
        if self.scan_done() {
            return ScanOutcome::Done;
        }
        let centre = self.pos;

        // New (x, y) line: preload the column accumulators (the hardware
        // does this during the pipeline-fill cycles).
        if self.line_start {
            if self.fill_remaining == 0 {
                self.preload_line(centre);
                self.fill_remaining = self.pipeline_fill;
            }
            if self.fill_remaining > 0 {
                self.fill_remaining -= 1;
                trace.record(
                    cycle,
                    Stage::ReadMasks,
                    TraceDetail::FillLine {
                        x: centre.x,
                        y: centre.y,
                    },
                );
                self.line_start = self.fill_remaining > 0;
                return ScanOutcome::LineFill;
            }
            self.line_start = false;
        }

        // Read masks + judge: one new z-slice of K² bits enters the SRF
        // window, steps the (A, B) registers, and the centre verdict
        // decides whether to match.
        let centre_active = self
            .judger
            .judge(self.enc.mask(), centre.z, &mut self.state_index);
        self.mask_bits_read += self.bank_bases.len() as u64;
        self.scanned += 1;
        trace.record(cycle, Stage::ReadMasks, TraceDetail::Srf(centre));
        trace.record(cycle, Stage::JudgeState, TraceDetail::Srf(centre));

        let outcome = if centre_active {
            trace.record(cycle, Stage::GenStateIndex, TraceDetail::Srf(centre));
            ScanOutcome::Scanned(Some(self.enqueue_fetch(centre)))
        } else {
            ScanOutcome::Scanned(None)
        };
        self.advance();
        outcome
    }

    /// Scans a whole line in one step when it has nothing to match: if
    /// the scan stands at a line start and the line's centre column holds
    /// no active site, records exactly the spans and counters the
    /// per-cycle scan would (its pipeline fill, then one SRF per site) and
    /// returns the cycles it spans, `pipeline_fill + line length`.
    /// Returns `None`, changing nothing, otherwise.
    ///
    /// Only the scan stage is modelled here: the caller must ensure the
    /// rest of the pipeline stays idle for the whole span.
    pub fn skip_empty_line(&mut self, cycle: u64, trace: &mut PipelineTrace) -> Option<u64> {
        if self.scan_done() || !self.line_start || self.fill_remaining > 0 {
            return None;
        }
        let (x, y) = (self.pos.x, self.pos.y);
        let (lo, hi) = (Coord3::new(x, y, self.lo.z), Coord3::new(x, y, self.hi.z));
        if self.enc.mask().any_in_box(lo, hi) {
            return None;
        }
        let fill = self.pipeline_fill;
        if trace.enabled() {
            for c in cycle..cycle + fill {
                trace.record(c, Stage::ReadMasks, TraceDetail::FillLine { x, y });
            }
            for (c, z) in (cycle + fill..).zip(self.lo.z..=self.hi.z) {
                let site = Coord3::new(x, y, z);
                trace.record(c, Stage::ReadMasks, TraceDetail::Srf(site));
                trace.record(c, Stage::JudgeState, TraceDetail::Srf(site));
            }
        }
        let sites = self.line_len();
        self.mask_bits_read += sites * self.bank_bases.len() as u64;
        self.scanned += sites;
        self.next_line();
        Some(fill + sites)
    }

    /// Builds the fetch job of the active centre just judged, addressing
    /// each column's fragment from its (A, B) registers, and returns the
    /// match group it opens.
    fn enqueue_fetch(&mut self, centre: Coord3) -> MatchGroupDesc {
        let mut remaining = self.spare.pop().unwrap_or_default();
        remaining.clear();
        for (state, &base) in self.state_index.states().iter().zip(&self.bank_bases) {
            let fragment = state.fragment();
            remaining.push(base + fragment.start..base + fragment.end);
        }
        self.debug_check_addresses(centre, &remaining);
        let total = remaining.iter().map(ExactSizeIterator::len).sum();
        let group = self.next_group;
        self.next_group += 1;
        self.jobs.push_back(FetchJob {
            group,
            centre_z: centre.z,
            remaining,
            left: total,
        });
        MatchGroupDesc {
            group,
            centre,
            total_matches: total,
        }
    }

    /// Hardware/functional cross-check (debug builds): the (A, B)
    /// registers address exactly the z-line window of every column.
    fn debug_check_addresses(&self, centre: Coord3, ranges: &[Range<usize>]) {
        if cfg!(debug_assertions) {
            let r = self.offsets.radius();
            for (col, range) in ranges.iter().enumerate() {
                let (dx, dy) = self.offsets.column_offset(col);
                let w = self.enc.lines().window(
                    centre.x + dx,
                    centre.y + dy,
                    centre.z - r,
                    centre.z + r + 1,
                );
                assert_eq!(
                    *range, w,
                    "state index disagrees with the line window at {centre} col {col}"
                );
            }
        }
    }

    /// Moves the scan to the next site.
    fn advance(&mut self) {
        self.pos.z += 1;
        if self.pos.z > self.hi.z {
            self.next_line();
        }
    }

    /// Moves the scan to the first site of the next line and arms its
    /// line start.
    fn next_line(&mut self) {
        self.pos.z = self.lo.z;
        self.pos.y += 1;
        if self.pos.y > self.hi.y {
            self.pos.y = self.lo.y;
            self.pos.x += 1;
        }
        self.line_start = true;
    }

    /// Preloads the column accumulators and bank bases for the line
    /// containing `first` (its first site), so the windows are primed when
    /// scanning starts.
    fn preload_line(&mut self, first: Coord3) {
        let r = self.offsets.radius();
        let lines = self.enc.lines();
        self.judger.load_line(self.enc.mask(), first.x, first.y);
        for (col, base) in self.bank_bases.iter_mut().enumerate() {
            let (dx, dy) = self.offsets.column_offset(col);
            // Before the first step at z = first.z, the accumulators must
            // count the line's entries up to the window trailing edge at
            // z + r − 1 and up to z − r − 2, past its leading edge.
            let line = lines.line_at(first.x + dx, first.y + dy);
            let zs = &lines.zs()[line.clone()];
            let a = zs.partition_point(|&z| z < first.z + r);
            let a_lead = zs.partition_point(|&z| z < first.z - r - 1);
            self.state_index.preload(col, a, a_lead);
            *base = line.start;
        }
    }

    /// One fetch-stage cycle: each column bank pushes at most one entry of
    /// the front job into its FIFO.
    pub fn fetch_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> FetchOutcome {
        let Some(job) = self.jobs.front_mut() else {
            return FetchOutcome::Idle;
        };
        let zs = self.enc.lines().zs();
        let r = self.offsets.radius();
        let k = 2 * r as usize + 1;
        let mut pushes = 0u32;
        let mut blocked = false;
        for (col, range) in job.remaining.iter_mut().enumerate() {
            if range.start >= range.end {
                continue;
            }
            let fifo = self.fifos.fifo_mut(col);
            if !fifo.has_room() {
                blocked = true;
                continue;
            }
            let entry = range.start;
            range.start += 1;
            let dz = zs[entry] - job.centre_z;
            assert!(
                dz.abs() <= r,
                "window entries lie within the kernel support"
            );
            fifo.push(MatchEntry {
                column: col,
                tap: col * k + (dz + r) as usize,
                entry,
                group: job.group,
            });
            pushes += 1;
        }
        self.act_reads += u64::from(pushes);
        job.left -= pushes as usize;
        if pushes > 0 {
            trace.record(
                cycle,
                Stage::FetchActivations,
                TraceDetail::Group(job.group),
            );
        }
        if job.left == 0 {
            if let Some(done) = self.jobs.pop_front() {
                self.spare.push(done.remaining);
            }
            return FetchOutcome::Progress { pushes };
        }
        if pushes == 0 && blocked {
            return FetchOutcome::Stalled;
        }
        FetchOutcome::Progress { pushes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::{SparseTensor, Q16};

    fn encoded(coords: &[(i32, i32, i32)]) -> EncodedFeatureMap {
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(8), 1);
        for (i, &(x, y, z)) in coords.iter().enumerate() {
            t.insert(Coord3::new(x, y, z), &[Q16(i as i16 + 1)])
                .unwrap();
        }
        t.canonicalize();
        EncodedFeatureMap::encode(&t, TileShape::cube(4)).unwrap()
    }

    fn run_tile(
        enc: &EncodedFeatureMap,
        tile_idx: usize,
    ) -> (Vec<MatchGroupDesc>, Vec<MatchEntry>) {
        let report = enc.tiles().clone();
        let info = report
            .active()
            .iter()
            .find(|t| t.index == tile_idx)
            .copied()
            .expect("tile is active");
        let grid = report.grid();
        let mut sdmu = TileSdmu::new(enc, &info, grid.shape(), grid.extent(), 3, 64, 2, 0);
        let mut trace = PipelineTrace::new(false);
        let mut descs = Vec::new();
        let mut cycle = 0u64;
        // Scan everything first, then drain fetches (FIFOs are deep here).
        loop {
            match sdmu.scan_step(cycle, &mut trace) {
                ScanOutcome::Done => break,
                ScanOutcome::Scanned(Some(d)) => descs.push(d),
                _ => {}
            }
            // Interleave fetching so deep jobs drain.
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        while sdmu.jobs_pending() > 0 {
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        let mut matches = Vec::new();
        for d in &descs {
            while let Some(m) = sdmu.fifos.pop_for_group(d.group) {
                matches.push(m);
            }
        }
        assert!(sdmu.fifos.is_empty());
        (descs, matches)
    }

    #[test]
    fn isolated_centre_matches_itself_only() {
        let enc = encoded(&[(1, 1, 1)]);
        let tile_idx = enc.tiles().active()[0].index;
        let (descs, matches) = run_tile(&enc, tile_idx);
        assert_eq!(descs.len(), 1);
        assert_eq!(descs[0].total_matches, 1);
        assert_eq!(matches.len(), 1);
        // Centre column of a 3³ kernel is column 4, centre tap 13.
        assert_eq!(matches[0].column, 4);
        assert_eq!(matches[0].tap, 13);
    }

    #[test]
    fn adjacent_pair_produces_two_groups_of_two() {
        let enc = encoded(&[(1, 1, 1), (1, 1, 2)]);
        let tile_idx = enc.tiles().active()[0].index;
        let (descs, matches) = run_tile(&enc, tile_idx);
        assert_eq!(descs.len(), 2);
        assert!(descs.iter().all(|d| d.total_matches == 2));
        assert_eq!(matches.len(), 4);
        // Every match's tap corresponds to the actual geometric offset.
        let offsets = KernelOffsets::new(3);
        for m in &matches {
            let d = &descs[m.group];
            let q = Coord3::new(1, 1, 1 + m.entry as i32); // entries: z=1, z=2 in line order
            let off = q - d.centre;
            assert_eq!(offsets.tap_index(off), Some(m.tap));
        }
    }

    #[test]
    fn matches_equal_golden_match_group() {
        // Random-ish cluster crossing a tile border (halo case).
        let coords = [(3, 3, 3), (4, 3, 3), (3, 4, 3), (3, 3, 4), (2, 3, 3)];
        let enc = encoded(&coords);
        let mut total_matches = 0;
        let mut total_groups = 0;
        for info in enc.tiles().active() {
            let (descs, matches) = run_tile(&enc, info.index);
            total_groups += descs.len();
            total_matches += matches.len();
        }
        assert_eq!(total_groups, coords.len());
        // Golden count via the reference op counter.
        let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
        for &(x, y, z) in &coords {
            t.insert(Coord3::new(x, y, z), &[1.0]).unwrap();
        }
        let golden = esca_sscn::ops::count_matches(&t, 3);
        assert_eq!(total_matches as u64, golden);
    }

    #[test]
    fn fifo_backpressure_stalls_fetch() {
        // A very dense line with tiny FIFOs must report a stall.
        let coords: Vec<(i32, i32, i32)> = (0..4).map(|z| (1, 1, z)).collect();
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(8), 1);
        for &(x, y, z) in &coords {
            t.insert(Coord3::new(x, y, z), &[Q16(1)]).unwrap();
        }
        t.canonicalize();
        let enc = EncodedFeatureMap::encode(&t, TileShape::cube(4)).unwrap();
        let info = enc.tiles().active()[0];
        let grid = enc.tiles().grid();
        let mut sdmu = TileSdmu::new(&enc, &info, grid.shape(), grid.extent(), 3, 1, 0, 0);
        let mut trace = PipelineTrace::new(false);
        let mut stalled = false;
        let mut cycle = 0;
        while !sdmu.scan_done() {
            let _ = sdmu.scan_step(cycle, &mut trace);
            cycle += 1;
        }
        // Drain fetch without ever popping: must hit backpressure.
        for _ in 0..100 {
            if sdmu.fetch_step(cycle, &mut trace) == FetchOutcome::Stalled {
                stalled = true;
                break;
            }
            cycle += 1;
        }
        assert!(stalled, "expected FIFO backpressure with depth-1 FIFOs");
    }

    #[test]
    fn scan_counts_sites_and_mask_bits() {
        let enc = encoded(&[(0, 0, 0)]);
        let info = enc.tiles().active()[0];
        let grid = enc.tiles().grid();
        let mut sdmu = TileSdmu::new(&enc, &info, grid.shape(), grid.extent(), 3, 8, 2, 0);
        let mut trace = PipelineTrace::new(false);
        let mut cycle = 0;
        loop {
            if sdmu.scan_step(cycle, &mut trace) == ScanOutcome::Done {
                break;
            }
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        // 4³ tile = 64 sites scanned, 9 bits per site.
        assert_eq!(sdmu.scanned_sites(), 64);
        assert_eq!(sdmu.mask_bits_read(), 64 * 9);
    }
}
