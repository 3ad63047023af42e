//! Per-line CSR storage of a sparse tensor — the *valid data* layout that
//! makes the SDMU's `(A, B)` state-index addressing work (§III-C).
//!
//! A *line* is the run of sites with a fixed `(x, y)`, extending along z
//! (the traversal axis). Within a line the nonzero activations are stored
//! contiguously in increasing z. Consequently, for any sliding window
//! `[z, z+K)` along a line:
//!
//! * `A` = number of stored entries with `z' ≤ z+K−1` (a running prefix
//!   count the hardware maintains with a simple accumulator — the "Acc" in
//!   Fig. 6), which is also "the highest address of the activation in the
//!   activation buffer for each match group";
//! * `B` = number of entries inside the window;
//! * the window's activations occupy exactly the **contiguous** address
//!   fragment `(A−B, A]`, which is what the paper's address generator
//!   emits ("the address fragment ... can be represented by (A, A−B)").
//!
//! [`LineCsr`] is the software embodiment of that activation-buffer layout;
//! the accelerator model builds its activation banks directly from it.

use crate::coord::{Coord3, Extent3};
use crate::sparse::SparseTensor;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Sparse tensor reorganized as per-(x, y)-line CSR with entries sorted by z.
///
/// # Example
///
/// ```
/// use esca_tensor::{Coord3, Extent3, LineCsr, SparseTensor};
///
/// let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
/// t.insert(Coord3::new(2, 3, 1), &[1.0])?;
/// t.insert(Coord3::new(2, 3, 5), &[2.0])?;
/// t.insert(Coord3::new(0, 0, 0), &[3.0])?;
/// let csr = LineCsr::from_sparse(&t);
///
/// // Window [0, 3) on line (2, 3) catches only z = 1.
/// let w = csr.window(2, 3, 0, 3);
/// assert_eq!(w.len(), 1);
/// assert_eq!(w.zs(), &[1]);
/// assert_eq!(w.features(), &[1.0]);
/// # Ok::<(), esca_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineCsr<T = f32> {
    extent: Extent3,
    channels: usize,
    /// CSR offsets per line; length `extent.x * extent.y + 1`.
    line_offsets: Vec<u32>,
    /// z coordinate per entry, ascending within each line.
    zs: Vec<i32>,
    /// Feature storage, entry-major (`entries * channels`).
    features: Vec<T>,
}

impl<T: Copy> LineCsr<T> {
    /// Builds the line-CSR layout from a sparse tensor (any storage order).
    pub fn from_sparse(t: &SparseTensor<T>) -> Self {
        let extent = t.extent();
        let channels = t.channels();
        let lines = extent.x as usize * extent.y as usize;

        // Counting sort by line, then sort each line's entries by z.
        let mut counts = vec![0u32; lines + 1];
        for c in t.coords() {
            counts[Self::line_of(extent, c.x, c.y) + 1] += 1;
        }
        for i in 0..lines {
            counts[i + 1] += counts[i];
        }
        let line_offsets = counts.clone();

        let total = t.nnz();
        let mut order: Vec<u32> = vec![0; total];
        let mut cursor = counts;
        for (i, c) in t.coords().iter().enumerate() {
            let l = Self::line_of(extent, c.x, c.y);
            order[cursor[l] as usize] = i as u32;
            cursor[l] += 1;
        }
        // Sort each line segment by z.
        let coords = t.coords();
        for l in 0..lines {
            let seg = line_offsets[l] as usize..line_offsets[l + 1] as usize;
            order[seg].sort_by_key(|&i| coords[i as usize].z);
        }

        let mut zs = Vec::with_capacity(total);
        let mut features = Vec::with_capacity(total * channels);
        let src = t.features();
        for &i in &order {
            let i = i as usize;
            zs.push(coords[i].z);
            features.extend_from_slice(&src[i * channels..(i + 1) * channels]);
        }
        LineCsr {
            extent,
            channels,
            line_offsets,
            zs,
            features,
        }
    }

    #[inline]
    fn line_of(extent: Extent3, x: i32, y: i32) -> usize {
        debug_assert!(x >= 0 && y >= 0);
        x as usize * extent.y as usize + y as usize
    }

    /// Grid extent.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Channels per entry.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total stored entries (== source tensor nnz).
    #[inline]
    pub fn len(&self) -> usize {
        self.zs.len()
    }

    /// Whether no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.zs.is_empty()
    }

    /// Global entry range of the line at `(x, y)`. Out-of-grid lines are
    /// empty (the zero halo around the grid).
    pub fn line_range(&self, x: i32, y: i32) -> Range<usize> {
        if x < 0 || y < 0 || x as u32 >= self.extent.x || y as u32 >= self.extent.y {
            return 0..0;
        }
        let l = Self::line_of(self.extent, x, y);
        self.line_offsets[l] as usize..self.line_offsets[l + 1] as usize
    }

    /// The paper's running accumulator `A` for line `(x, y)`: how many of
    /// the line's entries have `z' ≤ z`. Expressed line-locally (0-based
    /// count from the start of the line's bank).
    pub fn prefix_count(&self, x: i32, y: i32, z: i32) -> usize {
        let r = self.line_range(x, y);
        let zs = &self.zs[r.clone()];
        zs.partition_point(|&zz| zz <= z)
    }

    /// The window of entries on line `(x, y)` with `z0 ≤ z < z1` — one SRF
    /// column's match candidates. Lines outside the grid yield an empty
    /// window, which is how the zero halo behaves.
    pub fn window(&self, x: i32, y: i32, z0: i32, z1: i32) -> LineWindow<'_, T> {
        let base = self.line_range(x, y);
        let zs = &self.zs[base.clone()];
        let lo = zs.partition_point(|&zz| zz < z0);
        let hi = zs.partition_point(|&zz| zz < z1);
        let global = base.start + lo..base.start + hi;
        LineWindow {
            csr: self,
            global,
            line_local_end: hi,
        }
    }

    /// z coordinates of all entries, line-major.
    #[inline]
    pub fn zs(&self) -> &[i32] {
        &self.zs
    }

    /// Features of the entry at global index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn entry_features(&self, i: usize) -> &[T] {
        &self.features[i * self.channels..(i + 1) * self.channels]
    }

    /// Reconstructs `(coord, features)` for the entry at global index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn entry_coord(&self, i: usize) -> Coord3 {
        assert!(i < self.len(), "entry index out of range");
        // Binary search the line_offsets for the owning line.
        let l = match self.line_offsets.binary_search(&(i as u32)) {
            Ok(mut p) => {
                // Skip empty lines that share the same offset.
                while p + 1 < self.line_offsets.len() && self.line_offsets[p + 1] == i as u32 {
                    p += 1;
                }
                p
            }
            Err(p) => p - 1,
        };
        let x = (l / self.extent.y as usize) as i32;
        let y = (l % self.extent.y as usize) as i32;
        Coord3::new(x, y, self.zs[i])
    }
}

/// The [`LineCsr`] layout of a bare coordinate set, without features and
/// without per-line offsets for empty lines: the non-empty `(x, y)` lines
/// in raster order, each a run of entries with ascending z. Memory is
/// O(nnz), independent of the grid extent.
///
/// This is the index the hash-free geometry builders merge over: matching
/// a site against a neighbouring line is a walk along two sorted z-runs,
/// as the SDMU does it (§III-C).
///
/// # Example
///
/// ```
/// use esca_tensor::line::LineRuns;
/// use esca_tensor::Coord3;
///
/// let coords = [Coord3::new(2, 3, 6), Coord3::new(0, 0, 0), Coord3::new(2, 3, 1)];
/// let runs = LineRuns::new(&coords);
/// assert_eq!(runs.lines(), &[(0, 0), (2, 3)]);
/// assert_eq!(&runs.zs()[runs.line(1)], &[1, 6]);
/// assert_eq!(&runs.order()[runs.line(1)], &[2, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct LineRuns {
    /// Storage position of each entry, entries in raster order.
    order: Vec<u32>,
    /// z of each entry, ascending within a line.
    zs: Vec<i32>,
    /// `(x, y)` of each non-empty line, in raster order.
    lines: Vec<(i32, i32)>,
    /// Entry offset of each line, plus the total at the end.
    starts: Vec<u32>,
}

impl LineRuns {
    /// Indexes a set of distinct coordinates given in any storage order.
    /// Coordinates already in raster order cost one check and no sort.
    pub fn new(coords: &[Coord3]) -> LineRuns {
        let mut order: Vec<u32> = (0..coords.len() as u32).collect();
        if !coords.windows(2).all(|w| w[0] < w[1]) {
            order.sort_unstable_by_key(|&i| coords[i as usize]);
        }
        let mut zs = Vec::with_capacity(order.len());
        let mut lines = Vec::new();
        let mut starts = Vec::new();
        for (i, &pos) in order.iter().enumerate() {
            let c = coords[pos as usize];
            if lines.last() != Some(&(c.x, c.y)) {
                lines.push((c.x, c.y));
                starts.push(i as u32);
            }
            zs.push(c.z);
        }
        starts.push(order.len() as u32);
        LineRuns {
            order,
            zs,
            lines,
            starts,
        }
    }

    /// The non-empty lines' `(x, y)`, in raster order.
    #[inline]
    pub fn lines(&self) -> &[(i32, i32)] {
        &self.lines
    }

    /// Entry range of line `l` (an index into [`LineRuns::lines`]).
    ///
    /// # Panics
    ///
    /// Panics if `l >= lines().len()`.
    #[inline]
    pub fn line(&self, l: usize) -> Range<usize> {
        self.starts[l] as usize..self.starts[l + 1] as usize
    }

    /// z of every entry, line-major and ascending within a line.
    #[inline]
    pub fn zs(&self) -> &[i32] {
        &self.zs
    }

    /// Storage position of every entry, in entry order.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Whether entry order equals storage order (the set was given in
    /// raster order).
    pub fn is_identity(&self) -> bool {
        self.order.iter().zip(0u32..).all(|(&p, i)| p == i)
    }
}

/// A contiguous run of [`LineCsr`] entries inside one sliding window —
/// the address fragment `(A−B, A]` of one SDMU column.
#[derive(Debug, Clone)]
pub struct LineWindow<'a, T> {
    csr: &'a LineCsr<T>,
    global: Range<usize>,
    line_local_end: usize,
}

impl<'a, T: Copy> LineWindow<'a, T> {
    /// Number of entries in the window — the paper's index `B`.
    #[inline]
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// The paper's index `A`: line-local count of entries up to and
    /// including the window end (the "highest address" of the fragment).
    #[inline]
    pub fn a_index(&self) -> usize {
        self.line_local_end
    }

    /// Global entry-address range `(A−B, A]` within the whole CSR storage.
    #[inline]
    pub fn global_range(&self) -> Range<usize> {
        self.global.clone()
    }

    /// z coordinates of the window's entries (ascending).
    pub fn zs(&self) -> &'a [i32] {
        &self.csr.zs[self.global.clone()]
    }

    /// Concatenated features of the window's entries.
    pub fn features(&self) -> &'a [T] {
        let ch = self.csr.channels;
        &self.csr.features[self.global.start * ch..self.global.end * ch]
    }

    /// Iterates `(z, features)` over the window.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &'a [T])> + '_ {
        let ch = self.csr.channels;
        self.zs()
            .iter()
            .copied()
            .zip(self.features().chunks_exact(ch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord3;

    fn build() -> LineCsr<f32> {
        let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 2);
        // Deliberately insert out of z-order to exercise per-line sorting.
        t.insert(Coord3::new(2, 3, 6), &[6.0, 60.0]).unwrap();
        t.insert(Coord3::new(2, 3, 1), &[1.0, 10.0]).unwrap();
        t.insert(Coord3::new(2, 3, 4), &[4.0, 40.0]).unwrap();
        t.insert(Coord3::new(0, 0, 0), &[0.5, 5.0]).unwrap();
        t.insert(Coord3::new(7, 7, 7), &[7.0, 70.0]).unwrap();
        LineCsr::from_sparse(&t)
    }

    #[test]
    fn entries_sorted_by_z_within_line() {
        let csr = build();
        let r = csr.line_range(2, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(&csr.zs()[r], &[1, 4, 6]);
    }

    #[test]
    fn window_is_contiguous_fragment() {
        let csr = build();
        let w = csr.window(2, 3, 1, 5); // catches z = 1 and 4
        assert_eq!(w.len(), 2);
        assert_eq!(w.zs(), &[1, 4]);
        assert_eq!(w.features(), &[1.0, 10.0, 4.0, 40.0]);
        // (A - B, A] arithmetic: A counts line-locally up to window end.
        assert_eq!(w.a_index(), 2);
        assert_eq!(w.a_index() - w.len(), 0);
    }

    #[test]
    fn prefix_count_is_the_acc_register() {
        let csr = build();
        assert_eq!(csr.prefix_count(2, 3, 0), 0);
        assert_eq!(csr.prefix_count(2, 3, 1), 1);
        assert_eq!(csr.prefix_count(2, 3, 5), 2);
        assert_eq!(csr.prefix_count(2, 3, 7), 3);
        // A == prefix_count(window_end) and B == window len, for every z.
        for z in -1..9 {
            let w = csr.window(2, 3, z, z + 3);
            assert_eq!(w.a_index(), csr.prefix_count(2, 3, z + 2));
            assert_eq!(w.len(), w.a_index() - csr.prefix_count(2, 3, z - 1));
        }
    }

    #[test]
    fn out_of_grid_lines_are_empty_halo() {
        let csr = build();
        assert!(csr.window(-1, 0, 0, 3).is_empty());
        assert!(csr.window(0, 8, 0, 3).is_empty());
        assert_eq!(csr.line_range(100, 100), 0..0);
    }

    #[test]
    fn empty_window_between_entries() {
        let csr = build();
        let w = csr.window(2, 3, 2, 4); // gap between z=1 and z=4
        assert!(w.is_empty());
        assert_eq!(w.a_index(), 1); // one entry (z=1) precedes the window end
    }

    #[test]
    fn entry_coord_roundtrip() {
        let csr = build();
        for i in 0..csr.len() {
            let c = csr.entry_coord(i);
            let w = csr.window(c.x, c.y, c.z, c.z + 1);
            assert_eq!(w.global_range(), i..i + 1);
        }
    }

    #[test]
    fn window_iter_pairs_z_with_features() {
        let csr = build();
        let w = csr.window(2, 3, 0, 8);
        let got: Vec<(i32, f32)> = w.iter().map(|(z, f)| (z, f[0])).collect();
        assert_eq!(got, vec![(1, 1.0), (4, 4.0), (6, 6.0)]);
    }

    #[test]
    fn total_len_matches_source() {
        let csr = build();
        assert_eq!(csr.len(), 5);
        assert!(!csr.is_empty());
        assert_eq!(csr.channels(), 2);
    }

    #[test]
    fn line_runs_group_z_runs_in_raster_order() {
        let coords = [
            Coord3::new(2, 3, 6),
            Coord3::new(2, 3, 1),
            Coord3::new(7, 7, 7),
            Coord3::new(0, 0, 0),
            Coord3::new(2, 3, 4),
        ];
        let runs = LineRuns::new(&coords);
        assert_eq!(runs.lines(), &[(0, 0), (2, 3), (7, 7)]);
        assert_eq!(&runs.zs()[runs.line(1)], &[1, 4, 6]);
        assert_eq!(runs.order(), &[3, 1, 4, 0, 2]);
        assert!(!runs.is_identity());
        // Agrees with the feature-carrying layout line by line.
        let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
        for &c in &coords {
            t.insert(c, &[0.0]).unwrap();
        }
        let csr = LineCsr::from_sparse(&t);
        for (l, &(x, y)) in runs.lines().iter().enumerate() {
            assert_eq!(&runs.zs()[runs.line(l)], &csr.zs()[csr.line_range(x, y)]);
        }
    }

    #[test]
    fn line_runs_of_sorted_and_empty_sets() {
        let sorted = [
            Coord3::new(0, 0, 1),
            Coord3::new(0, 1, 0),
            Coord3::new(1, 0, 0),
        ];
        let runs = LineRuns::new(&sorted);
        assert!(runs.is_identity());
        assert_eq!(runs.order(), &[0, 1, 2]);
        assert_eq!(runs.lines().len(), 3);
        let empty = LineRuns::new(&[]);
        assert!(empty.lines().is_empty() && empty.zs().is_empty());
        assert!(empty.is_identity());
    }

    #[test]
    fn from_empty_tensor() {
        let t = SparseTensor::<f32>::new(Extent3::cube(4), 1);
        let csr = LineCsr::from_sparse(&t);
        assert!(csr.is_empty());
        assert!(csr.window(0, 0, 0, 4).is_empty());
    }
}
