//! The state-index generator (§III-C, Fig. 6): per kernel column, the
//! running accumulator `A` (nonzero activations seen so far along the
//! column line, up to the sliding window's trailing edge) and the window
//! count `B`. The address generator then emits the fragment `(A−B, A]`.
//!
//! The hardware maintains `A` with a simple adder fed by the incoming mask
//! bits ("Acc" in Fig. 6); this model does the same, and the SDMU fetches
//! from these registers alone. Debug builds cross-check every fragment
//! against the z-line index's window — hardware addressing and functional
//! addressing must agree bit-for-bit.

use serde::{Deserialize, Serialize};

/// Per-column running state for one (x, y) scan line.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnState {
    /// Running count of nonzero activations with z ≤ window trailing edge
    /// — the paper's index `A` (line-local).
    a: usize,
    /// Count of nonzero activations with z < window leading edge, used to
    /// derive `B = a − a_lead`.
    a_lead: usize,
}

impl ColumnState {
    /// Advances the window by one z step: `mask_in` is the mask bit
    /// entering at the trailing edge (z + K/2), `mask_out` the bit leaving
    /// past the leading edge (z − K/2 − 1).
    pub fn step(&mut self, mask_in: bool, mask_out: bool) {
        if mask_in {
            self.a += 1;
        }
        if mask_out {
            self.a_lead += 1;
        }
    }

    /// Preloads the accumulators at a line start: `a` entries precede the
    /// window trailing edge, `a_lead` precede the leading edge. The
    /// hardware performs this during the pipeline-fill cycles by streaming
    /// the lead-in mask bits through the adder.
    pub fn preload(&mut self, a: usize, a_lead: usize) {
        debug_assert!(a >= a_lead, "trailing count cannot lag leading count");
        self.a = a;
        self.a_lead = a_lead;
    }

    /// The paper's index `A`.
    #[inline]
    pub fn a(&self) -> usize {
        self.a
    }

    /// The paper's index `B` (window population), derived as `A − A_lead`.
    #[inline]
    pub fn b(&self) -> usize {
        self.a - self.a_lead
    }

    /// The address fragment `(A−B, A]` as a half-open range `[A−B, A)`
    /// into the column line's bank.
    #[inline]
    pub fn fragment(&self) -> std::ops::Range<usize> {
        (self.a - self.b())..self.a
    }
}

/// The state-index generator: one [`ColumnState`] per kernel column.
#[derive(Debug, Clone)]
pub struct StateIndexGen {
    columns: Vec<ColumnState>,
}

impl StateIndexGen {
    /// Creates a generator for `columns` (K²) columns.
    pub fn new(columns: usize) -> Self {
        StateIndexGen {
            columns: vec![ColumnState::default(); columns],
        }
    }

    /// Number of columns.
    #[inline]
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// The state of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> &ColumnState {
        &self.columns[col]
    }

    /// Every column's state, in column order.
    #[inline]
    pub fn states(&self) -> &[ColumnState] {
        &self.columns
    }

    /// Every column's state, mutably — the mask judger steps them in
    /// place with each site's (in, out) mask bits.
    #[inline]
    pub fn states_mut(&mut self) -> &mut [ColumnState] {
        &mut self.columns
    }

    /// Preloads one column's accumulators (see [`ColumnState::preload`]).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn preload(&mut self, col: usize, a: usize, a_lead: usize) {
        self.columns[col].preload(a, a_lead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_the_papers_worked_semantics() {
        // Column occupancy along z: 0 1 1 0 1 (K = 3 window).
        let occ = [false, true, true, false, true];
        let mask = |z: i32| -> bool { (0..5).contains(&z) && occ[z as usize] };
        let mut cs = ColumnState::default();
        // Slide the window centre over z = 0..5; window is [z-1, z+1].
        let mut expected_a = 0;
        for z in 0..5i32 {
            let m_in = mask(z + 1);
            let m_out = mask(z - 2);
            cs.step(m_in, m_out);
            if m_in {
                expected_a += 1;
            }
            assert_eq!(cs.a(), expected_a);
            // Brute-force B: occupancy within [z-1, z+1].
            let b = (z - 1..=z + 1).filter(|&q| mask(q)).count();
            assert_eq!(cs.b(), b, "at z={z}");
            assert_eq!(cs.fragment().len(), b);
            assert_eq!(cs.fragment().end, cs.a());
        }
    }

    #[test]
    fn preload_replaces_the_previous_line_state() {
        let mut cs = ColumnState::default();
        cs.step(true, false);
        assert_eq!(cs.a(), 1);
        cs.preload(3, 1);
        assert_eq!(cs.a(), 3);
        assert_eq!(cs.b(), 2);
        assert_eq!(cs.fragment(), 1..3);
    }

    #[test]
    fn generator_steps_all_columns() {
        let mut g = StateIndexGen::new(3);
        for bits in [
            [(true, false), (false, false), (true, false)],
            [(false, true), (true, false), (false, false)],
        ] {
            for (c, (m_in, m_out)) in g.states_mut().iter_mut().zip(bits) {
                c.step(m_in, m_out);
            }
        }
        assert_eq!(g.column(0).a(), 1);
        assert_eq!(g.column(0).b(), 0); // the one entry left the window
        assert_eq!(g.column(1).b(), 1);
        assert_eq!(g.column(2).a(), 1);
        assert_eq!(g.states().len(), g.columns());
        g.preload(1, 0, 0);
        assert_eq!(g.column(1).a(), 0);
    }
}
