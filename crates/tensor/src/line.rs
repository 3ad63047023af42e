//! The z-line index of a sparse coordinate set — the *valid data* layout
//! that makes the SDMU's `(A, B)` state-index addressing work (§III-C).
//!
//! A *line* is the run of sites with a fixed `(x, y)`, extending along z
//! (the traversal axis). Entries are numbered line by line in raster
//! order, and within a line in increasing z. Consequently, for any sliding
//! window `[z, z+K)` along a line:
//!
//! * `A` = number of the line's entries with `z' ≤ z+K−1` (a running
//!   prefix count the hardware maintains with a simple accumulator — the
//!   "Acc" in Fig. 6), which is also "the highest address of the
//!   activation in the activation buffer for each match group";
//! * `B` = number of entries inside the window;
//! * the window's entries occupy exactly the **contiguous** address
//!   fragment `(A−B, A]`, which is what the paper's address generator
//!   emits ("the address fragment ... can be represented by (A, A−B)").
//!
//! [`LineRuns`] is that layout over a bare coordinate set. It stores no
//! feature values: an entry's storage position ([`LineRuns::order`]) finds
//! its features in the indexed tensor.

use crate::coord::Coord3;
use std::ops::Range;

/// A coordinate set indexed by z-line: the non-empty `(x, y)` lines in
/// raster order, each a run of entries with ascending z. Memory is
/// O(nnz) plus one word per x between the first and the last line.
///
/// The hash-free geometry builders merge over it (matching a site against
/// a neighbouring line is a walk along two sorted z-runs), and the SDMU
/// addresses its activation banks through it, as the hardware does
/// (§III-C).
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
///
/// // Window [0, 3) on line (2, 3) catches only z = 1, entry 1.
/// assert_eq!(runs.window(2, 3, 0, 3), 1..2);
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
    /// x of the first line (0 for an empty set).
    x0: i32,
    /// Per x from `x0` to one past the last line's x: the index of the
    /// first line at or after that x.
    x_lines: Vec<u32>,
}

impl LineRuns {
    /// Indexes a set of distinct coordinates given in any storage order.
    /// Coordinates already in raster order cost one check and no sort.
    pub fn new(coords: &[Coord3]) -> LineRuns {
        let mut order: Vec<u32> = (0..coords.len() as u32).collect();
        if !coords.windows(2).all(|w| w[0] < w[1]) {
            order.sort_unstable_by_key(|&i| coords[i as usize]);
        }
        let x0 = order.first().map_or(0, |&i| coords[i as usize].x);
        let mut zs = Vec::with_capacity(order.len());
        let mut lines = Vec::new();
        let mut starts = Vec::new();
        let mut x_lines = Vec::new();
        for (i, &pos) in order.iter().enumerate() {
            let c = coords[pos as usize];
            if lines.last() != Some(&(c.x, c.y)) {
                // Every x up to this line's that has no slot yet starts here.
                x_lines.resize(c.x.abs_diff(x0) as usize + 1, lines.len() as u32);
                lines.push((c.x, c.y));
                starts.push(i as u32);
            }
            zs.push(c.z);
        }
        x_lines.push(lines.len() as u32);
        starts.push(order.len() as u32);
        LineRuns {
            order,
            zs,
            lines,
            starts,
            x0,
            x_lines,
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

    /// Entry range of the line at `(x, y)`. An absent line — empty, or
    /// outside the grid (the zero halo) — is the empty range where it
    /// would sit in raster order.
    pub fn line_at(&self, x: i32, y: i32) -> Range<usize> {
        let slots = self.x_lines.len() - 1;
        let l = match usize::try_from(i64::from(x) - i64::from(self.x0)) {
            Err(_) => 0,
            Ok(i) if i >= slots => self.lines.len(),
            Ok(i) => {
                let (lo, hi) = (self.x_lines[i] as usize, self.x_lines[i + 1] as usize);
                let l = lo + self.lines[lo..hi].partition_point(|&(_, ly)| ly < y);
                if l < hi && self.lines[l].1 == y {
                    return self.line(l);
                }
                l
            }
        };
        let at = self.starts[l] as usize;
        at..at
    }

    /// Entry range of the sites on line `(x, y)` with `z0 ≤ z < z1` — one
    /// SRF column's match candidates, the fragment `(A−B, A]` offset by
    /// the line's first entry.
    pub fn window(&self, x: i32, y: i32, z0: i32, z1: i32) -> Range<usize> {
        let line = self.line_at(x, y);
        let zs = &self.zs[line.clone()];
        line.start + zs.partition_point(|&z| z < z0)..line.start + zs.partition_point(|&z| z < z1)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Extent3;
    use crate::sparse::SparseTensor;

    fn tensor() -> SparseTensor<f32> {
        let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 2);
        // Deliberately insert out of z-order to exercise per-line sorting.
        t.insert(Coord3::new(2, 3, 6), &[6.0, 60.0]).unwrap();
        t.insert(Coord3::new(2, 3, 1), &[1.0, 10.0]).unwrap();
        t.insert(Coord3::new(2, 3, 4), &[4.0, 40.0]).unwrap();
        t.insert(Coord3::new(0, 0, 0), &[0.5, 5.0]).unwrap();
        t.insert(Coord3::new(7, 7, 7), &[7.0, 70.0]).unwrap();
        t
    }

    /// The features of entries `range`, found through the storage order.
    fn features(t: &SparseTensor<f32>, runs: &LineRuns, range: Range<usize>) -> Vec<f32> {
        let ch = t.channels();
        runs.order()[range]
            .iter()
            .flat_map(|&p| &t.features()[p as usize * ch..(p as usize + 1) * ch])
            .copied()
            .collect()
    }

    /// The running accumulator `A` of line `(x, y)`: how many of its
    /// entries have `z' ≤ z`.
    fn prefix_count(runs: &LineRuns, x: i32, y: i32, z: i32) -> usize {
        runs.zs()[runs.line_at(x, y)].partition_point(|&zz| zz <= z)
    }

    #[test]
    fn entries_sorted_by_z_within_line() {
        let runs = LineRuns::new(tensor().coords());
        let r = runs.line_at(2, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(&runs.zs()[r], &[1, 4, 6]);
    }

    #[test]
    fn window_is_contiguous_fragment() {
        let t = tensor();
        let runs = LineRuns::new(t.coords());
        let w = runs.window(2, 3, 1, 5); // catches z = 1 and 4
        assert_eq!(w.len(), 2);
        assert_eq!(&runs.zs()[w.clone()], &[1, 4]);
        assert_eq!(features(&t, &runs, w.clone()), [1.0, 10.0, 4.0, 40.0]);
        // (A - B, A] arithmetic: A counts line-locally up to window end.
        let a = w.end - runs.line_at(2, 3).start;
        assert_eq!(a, 2);
        assert_eq!(a - w.len(), 0);
    }

    #[test]
    fn prefix_count_is_the_acc_register() {
        let runs = LineRuns::new(tensor().coords());
        assert_eq!(prefix_count(&runs, 2, 3, 0), 0);
        assert_eq!(prefix_count(&runs, 2, 3, 1), 1);
        assert_eq!(prefix_count(&runs, 2, 3, 5), 2);
        assert_eq!(prefix_count(&runs, 2, 3, 7), 3);
        // A == prefix_count(window_end) and B == window len, for every z.
        let base = runs.line_at(2, 3).start;
        for z in -1..9 {
            let w = runs.window(2, 3, z, z + 3);
            let a = w.end - base;
            assert_eq!(a, prefix_count(&runs, 2, 3, z + 2));
            assert_eq!(w.len(), a - prefix_count(&runs, 2, 3, z - 1));
        }
    }

    #[test]
    fn out_of_grid_lines_are_empty_halo() {
        let runs = LineRuns::new(tensor().coords());
        assert!(runs.window(-1, 0, 0, 3).is_empty());
        assert!(runs.window(0, 8, 0, 3).is_empty());
        assert_eq!(runs.line_at(-1, 0), 0..0);
        assert_eq!(runs.line_at(100, 100), 5..5);
        // Absent lines inside the grid sit between their raster neighbours,
        // whether their x has lines (x = 2) or none (x = 1).
        assert_eq!(runs.line_at(2, 2), 1..1);
        assert_eq!(runs.line_at(2, 4), 4..4);
        assert_eq!(runs.line_at(1, 5), 1..1);
        assert_eq!(runs.line_at(7, 8), 5..5);
    }

    #[test]
    fn empty_window_between_entries() {
        let runs = LineRuns::new(tensor().coords());
        let w = runs.window(2, 3, 2, 4); // gap between z=1 and z=4
        assert!(w.is_empty());
        // One entry (z=1) precedes the window end.
        assert_eq!(w.end - runs.line_at(2, 3).start, 1);
    }

    #[test]
    fn entry_site_roundtrip() {
        let t = tensor();
        let runs = LineRuns::new(t.coords());
        for (i, &p) in runs.order().iter().enumerate() {
            let c = t.coords()[p as usize];
            assert_eq!(runs.zs()[i], c.z);
            assert_eq!(runs.window(c.x, c.y, c.z, c.z + 1), i..i + 1);
        }
    }

    #[test]
    fn window_pairs_z_with_features() {
        let t = tensor();
        let runs = LineRuns::new(t.coords());
        let w = runs.window(2, 3, 0, 8);
        let got: Vec<(i32, f32)> = runs.zs()[w.clone()]
            .iter()
            .copied()
            .zip(features(&t, &runs, w).chunks_exact(2).map(|f| f[0]))
            .collect();
        assert_eq!(got, vec![(1, 1.0), (4, 4.0), (6, 6.0)]);
    }

    #[test]
    fn total_len_matches_source() {
        let t = tensor();
        let runs = LineRuns::new(t.coords());
        assert_eq!(runs.zs().len(), 5);
        assert_eq!(runs.order().len(), t.nnz());
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
        // Looking a line up by (x, y) finds the same run.
        for (l, &(x, y)) in runs.lines().iter().enumerate() {
            assert_eq!(runs.line_at(x, y), runs.line(l));
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
        assert!(empty.window(0, 0, 0, 4).is_empty());
        assert_eq!(empty.line_at(-1, 0), 0..0);
        assert_eq!(empty.line_at(3, 3), 0..0);
    }
}
