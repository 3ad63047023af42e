//! The mask judger (§III-C, Fig. 6): the SDMU stage that reads the K²
//! column mask bits of the incoming z-slice and judges whether the
//! current sparse receptive field (SRF) is *active* — i.e. whether its
//! centre mask bit is set, which is the submanifold condition for
//! performing a convolution at this site.
//!
//! The judger also feeds the slice bits to the state-index generator
//! (they are the `mask_in` inputs of the per-column accumulators), so one
//! mask-buffer read per cycle feeds both consumers — matching the paper's
//! single "read masks" step. The K² neighbour-line addresses are resolved
//! once per scan line ([`MaskJudger::load_line`]); a site then costs
//! 2·K² bit reads and no address arithmetic beyond `base + z`.

use super::state_index::StateIndexGen;
use esca_tensor::{Coord3, KernelOffsets, OccupancyMask};

/// The mask judger: combinational logic over the mask buffer plus the
/// per-line base registers of its K² column read ports.
#[derive(Debug, Clone)]
pub struct MaskJudger {
    offsets: KernelOffsets,
    /// Per column: the raster index of the neighbour line's `z = 0` site
    /// for the loaded scan line, or `None` outside the grid (the zero
    /// halo, which reads 0).
    bases: Vec<Option<usize>>,
}

impl MaskJudger {
    /// Creates a judger for kernel size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero.
    pub fn new(k: u32) -> Self {
        let offsets = KernelOffsets::new(k);
        let columns = offsets.columns();
        MaskJudger {
            offsets,
            bases: vec![None; columns],
        }
    }

    /// Columns examined per cycle (K²) — the decoder parallelism.
    pub fn columns(&self) -> usize {
        self.offsets.columns()
    }

    /// Resolves the K² neighbour-line bases of scan line `(x, y)`.
    pub fn load_line(&mut self, mask: &OccupancyMask, x: i32, y: i32) {
        let extent = mask.extent();
        for (col, base) in self.bases.iter_mut().enumerate() {
            let (dx, dy) = self.offsets.column_offset(col);
            let line = Coord3::new(x + dx, y + dy, 0);
            *base = extent.contains(line).then(|| extent.linear_unchecked(line));
        }
    }

    /// Judges the SRF centred at `z` on the loaded line: steps every
    /// column of `state` with the bit entering the window at the trailing
    /// edge (`z + r`) and the bit leaving past the leading edge
    /// (`z − r − 1`), and returns the centre verdict.
    pub fn judge(&self, mask: &OccupancyMask, z: i32, state: &mut StateIndexGen) -> bool {
        let r = self.offsets.radius();
        for (column, base) in state.states_mut().iter_mut().zip(&self.bases) {
            if let Some(base) = *base {
                column.step(mask.line_bit(base, z + r), mask.line_bit(base, z - r - 1));
            }
        }
        self.centre_bit(mask, z)
    }

    fn centre_bit(&self, mask: &OccupancyMask, z: i32) -> bool {
        self.bases[self.bases.len() / 2].is_some_and(|base| mask.line_bit(base, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::Extent3;

    fn mask_with(coords: &[(i32, i32, i32)]) -> OccupancyMask {
        let mut m = OccupancyMask::new(Extent3::cube(8));
        for &(x, y, z) in coords {
            m.set(Coord3::new(x, y, z), true).unwrap();
        }
        m
    }

    /// Loads line `(c.x, c.y)` into a fresh judger, judges `c` and returns
    /// the verdict with the state index it stepped (every column preloaded
    /// with `A = 6`, `A_lead = 5`).
    fn judge_at(k: u32, m: &OccupancyMask, c: Coord3) -> (bool, StateIndexGen) {
        let mut j = MaskJudger::new(k);
        j.load_line(m, c.x, c.y);
        let mut state = StateIndexGen::new(j.columns());
        for col in 0..j.columns() {
            state.preload(col, 6, 5);
        }
        let active = j.judge(m, c.z, &mut state);
        (active, state)
    }

    /// Whether column `col` stepped on the entering bit (`A` advanced) and
    /// on the leaving bit (`A_lead = A − B` advanced).
    fn bits(state: &StateIndexGen, col: usize) -> (bool, bool) {
        let c = state.column(col);
        (c.a() == 7, c.a() - c.b() == 6)
    }

    #[test]
    fn centre_verdict_follows_the_mask() {
        let m = mask_with(&[(3, 3, 3)]);
        assert!(judge_at(3, &m, Coord3::new(3, 3, 3)).0);
        assert!(!judge_at(3, &m, Coord3::new(3, 3, 4)).0);
        assert_eq!(MaskJudger::new(3).columns(), 9);
    }

    #[test]
    fn incoming_bit_sees_the_trailing_edge() {
        // Neighbor at (3, 3, 4): when the window centre is at z = 3, the
        // trailing edge z + 1 = 4 reads it through the centre column.
        let m = mask_with(&[(3, 3, 4)]);
        let (_, s) = judge_at(3, &m, Coord3::new(3, 3, 3));
        let centre_col = 4; // (dx, dy) = (0, 0) for K = 3
        assert_eq!(bits(&s, centre_col), (true, false));
    }

    #[test]
    fn outgoing_bit_sees_past_the_leading_edge() {
        // Entry at z = 1 leaves the window when the centre reaches z = 3
        // (leading edge covers z − 1 = 2; z = 1 is one behind).
        let m = mask_with(&[(3, 3, 1)]);
        let (_, s) = judge_at(3, &m, Coord3::new(3, 3, 3));
        assert_eq!(bits(&s, 4), (false, true));
    }

    #[test]
    fn halo_reads_are_zero() {
        let m = mask_with(&[]);
        let (active, s) = judge_at(3, &m, Coord3::new(0, 0, 0));
        assert!(!active);
        assert!((0..9).all(|col| bits(&s, col) == (false, false)));
    }

    #[test]
    fn off_centre_columns_map_to_their_lines() {
        let m = mask_with(&[(2, 4, 4)]); // dx = -1, dy = +1 from centre (3,3,3)
        let (_, s) = judge_at(3, &m, Coord3::new(3, 3, 3));
        let col = KernelOffsets::new(3)
            .column_index(Coord3::new(-1, 1, 0))
            .unwrap();
        assert_eq!(bits(&s, col), (true, false));
        // Every other column is silent.
        for i in (0..9).filter(|&i| i != col) {
            assert_eq!(bits(&s, i), (false, false), "column {i} spuriously active");
        }
    }

    #[test]
    fn k5_judger_has_25_columns() {
        assert_eq!(MaskJudger::new(5).columns(), 25);
        let m = mask_with(&[(3, 3, 5)]); // within radius-2 trailing edge of z=3
        let (_, s) = judge_at(5, &m, Coord3::new(3, 3, 3));
        assert_eq!(bits(&s, 12), (true, false)); // centre column of a 5×5 cross-section
    }
}
