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
    /// Global activation-buffer entry index (into the line CSR).
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
    centre: Coord3,
    /// Per column: the remaining global entry range to push.
    remaining: Vec<Range<usize>>,
}

/// The per-tile SDMU state machine.
#[derive(Debug)]
pub struct TileSdmu<'a> {
    enc: &'a EncodedFeatureMap,
    offsets: KernelOffsets,
    judger: MaskJudger,
    /// Scan order: all sites of the tile, (x, y) line-major, z fastest.
    sites: Vec<Coord3>,
    scan_pos: usize,
    fill_remaining: u64,
    pipeline_fill: u64,
    line_start: bool,
    state_index: StateIndexGen,
    jobs: VecDeque<FetchJob>,
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
        let hi = tile.max_corner(shape, extent);
        let mut sites =
            Vec::with_capacity(((hi.x - tile.origin.x + 1) * (hi.y - tile.origin.y + 1)) as usize);
        for x in tile.origin.x..=hi.x {
            for y in tile.origin.y..=hi.y {
                for z in tile.origin.z..=hi.z {
                    sites.push(Coord3::new(x, y, z));
                }
            }
        }
        let columns = offsets.columns();
        TileSdmu {
            enc,
            offsets,
            judger: MaskJudger::new(kernel),
            sites,
            scan_pos: 0,
            fill_remaining: 0,
            pipeline_fill,
            line_start: true,
            state_index: StateIndexGen::new(columns),
            jobs: VecDeque::new(),
            fifos: FifoGroup::new(columns, fifo_depth),
            next_group: first_group,
            mask_bits_read: 0,
            act_reads: 0,
            scanned: 0,
        }
    }

    /// Whether every site of the tile has been scanned.
    pub fn scan_done(&self) -> bool {
        self.scan_pos >= self.sites.len()
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

    /// One scan-stage cycle: read masks, judge, generate state index, and
    /// (for active centres) enqueue the fetch job.
    pub fn scan_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> ScanOutcome {
        if self.scan_done() {
            return ScanOutcome::Done;
        }
        let centre = self.sites[self.scan_pos];
        let r = self.offsets.radius();

        // New (x, y) line: preload the column accumulators (the hardware
        // does this during the pipeline-fill cycles).
        if self.line_start {
            if self.fill_remaining == 0 && self.pipeline_fill > 0 {
                self.fill_remaining = self.pipeline_fill;
                self.preload_line(centre);
                // fall through to consume the first fill cycle below
            } else if self.pipeline_fill == 0 {
                self.preload_line(centre);
                self.line_start = false;
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
                if self.fill_remaining == 0 {
                    self.line_start = false;
                }
                return ScanOutcome::LineFill;
            }
        }

        // Read masks + judge: one new z-slice of K² bits enters the SRF
        // window, and the centre verdict decides whether to match.
        let slice = self.judger.judge(self.enc.mask(), centre);
        self.state_index.step(&slice.column_bits);
        self.mask_bits_read += self.offsets.columns() as u64;
        self.scanned += 1;
        trace.record(cycle, Stage::ReadMasks, TraceDetail::Srf(centre));
        trace.record(cycle, Stage::JudgeState, TraceDetail::Srf(centre));

        let centre_active = slice.centre_active;
        let outcome = if centre_active {
            trace.record(cycle, Stage::GenStateIndex, TraceDetail::Srf(centre));
            let mut remaining = Vec::with_capacity(self.offsets.columns());
            let mut total = 0usize;
            for col in 0..self.offsets.columns() {
                let (dx, dy) = self.offsets.column_offset(col);
                let w = self.enc.lines().window(
                    centre.x + dx,
                    centre.y + dy,
                    centre.z - r,
                    centre.z + r + 1,
                );
                // Hardware/functional cross-check: the running (A, B)
                // accumulator addresses exactly the CSR window.
                debug_assert_eq!(
                    self.state_index.column(col).b(),
                    w.len(),
                    "state index B disagrees with CSR window at {centre} col {col}"
                );
                debug_assert_eq!(
                    self.state_index.column(col).a(),
                    self.enc
                        .lines()
                        .prefix_count(centre.x + dx, centre.y + dy, centre.z + r),
                    "state index A disagrees with CSR prefix at {centre} col {col}"
                );
                total += w.len();
                remaining.push(w.global_range());
            }
            let desc = MatchGroupDesc {
                group: self.next_group,
                centre,
                total_matches: total,
            };
            self.jobs.push_back(FetchJob {
                group: self.next_group,
                centre,
                remaining,
            });
            self.next_group += 1;
            ScanOutcome::Scanned(Some(desc))
        } else {
            ScanOutcome::Scanned(None)
        };

        // Advance; detect line change.
        self.scan_pos += 1;
        if let Some(next) = self.sites.get(self.scan_pos) {
            if next.x != centre.x || next.y != centre.y {
                self.line_start = true;
                self.state_index.reset();
            }
        }
        outcome
    }

    /// Preloads the column accumulators for the line containing `centre`
    /// (its first site), so the windows are primed when scanning starts.
    fn preload_line(&mut self, first: Coord3) {
        let r = self.offsets.radius();
        self.state_index.reset();
        for col in 0..self.offsets.columns() {
            let (dx, dy) = self.offsets.column_offset(col);
            let (lx, ly) = (first.x + dx, first.y + dy);
            // Before the first step at z = first.z, the accumulators must
            // reflect the window trailing edge at z + r − 1 and leading
            // edge past z − r − 2.
            let a = self.enc.lines().prefix_count(lx, ly, first.z + r - 1);
            let a_lead = self.enc.lines().prefix_count(lx, ly, first.z - r - 2);
            self.state_index.preload(col, a, a_lead);
        }
    }

    /// One fetch-stage cycle: each column bank pushes at most one entry of
    /// the front job into its FIFO.
    pub fn fetch_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> FetchOutcome {
        let Some(job) = self.jobs.front_mut() else {
            return FetchOutcome::Idle;
        };
        let mut pushes = 0u32;
        let mut blocked = false;
        for col in 0..self.fifos.columns() {
            let range = &mut job.remaining[col];
            if range.start >= range.end {
                continue;
            }
            if !self.fifos.fifo(col).has_room() {
                blocked = true;
                continue;
            }
            let entry = range.start;
            range.start += 1;
            let dz = self.enc.lines().zs()[entry] - job.centre.z;
            let (dx, dy) = self.offsets.column_offset(col);
            let tap = self
                .offsets
                .tap_index(Coord3::new(dx, dy, dz))
                .expect("window entries lie within the kernel support");
            self.fifos.fifo_mut(col).push(MatchEntry {
                column: col,
                tap,
                entry,
                group: job.group,
            });
            self.act_reads += 1;
            pushes += 1;
        }
        if pushes > 0 {
            trace.record(
                cycle,
                Stage::FetchActivations,
                TraceDetail::Group(job.group),
            );
        }
        if job.remaining.iter().all(|r| r.start >= r.end) {
            self.jobs.pop_front();
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
