//! The FIFO group: K² identical match FIFOs, one per kernel column
//! (§III-C: "The FIFO group consists of K² identical FIFOs, and each FIFO
//! stores the matches belonging to one column").
//!
//! FIFO storage grows with occupancy, never with the configured depth, so
//! any depth the configuration accepts is safe to simulate.

use super::MatchEntry;
use std::collections::VecDeque;

/// One bounded match FIFO.
#[derive(Debug, Clone, Default)]
pub struct MatchFifo {
    queue: VecDeque<MatchEntry>,
    depth: usize,
    pushes: u64,
    peak: usize,
}

impl MatchFifo {
    /// Creates an empty FIFO with the given depth. No entry storage is
    /// allocated up front.
    pub fn new(depth: usize) -> Self {
        MatchFifo {
            queue: VecDeque::new(),
            depth,
            pushes: 0,
            peak: 0,
        }
    }

    /// Whether another entry fits.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Configured depth — the number of entry slots the fault model's
    /// per-entry parity protects (see [`crate::resilience`]).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the FIFO is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pushes an entry.
    ///
    /// # Panics
    ///
    /// Panics when full — callers must check [`MatchFifo::has_room`]
    /// (hardware would never issue the write; a panic here indicates a
    /// simulator bug, not a recoverable condition).
    pub fn push(&mut self, m: MatchEntry) {
        assert!(self.has_room(), "match FIFO overflow (simulator bug)");
        self.queue.push_back(m);
        self.pushes += 1;
        self.peak = self.peak.max(self.queue.len());
    }

    /// The entry at the head, if any.
    #[inline]
    pub fn front(&self) -> Option<&MatchEntry> {
        self.queue.front()
    }

    /// Pops the head entry.
    #[inline]
    pub fn pop(&mut self) -> Option<MatchEntry> {
        self.queue.pop_front()
    }

    /// Lifetime push count.
    #[inline]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Peak occupancy observed.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// The group of K² FIFOs plus the MUX drain logic.
#[derive(Debug, Clone)]
pub struct FifoGroup {
    fifos: Vec<MatchFifo>,
}

impl FifoGroup {
    /// Creates `columns` FIFOs of the given depth.
    pub fn new(columns: usize, depth: usize) -> Self {
        FifoGroup {
            fifos: (0..columns).map(|_| MatchFifo::new(depth)).collect(),
        }
    }

    /// Number of FIFOs (K²).
    #[inline]
    pub fn columns(&self) -> usize {
        self.fifos.len()
    }

    /// Access one FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn fifo(&self, col: usize) -> &MatchFifo {
        &self.fifos[col]
    }

    /// Mutable access to one FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn fifo_mut(&mut self, col: usize) -> &mut MatchFifo {
        &mut self.fifos[col]
    }

    /// The MUX: pops the next match of `group`, consuming columns in
    /// order (the "calculation order" of §III-C, which lines matches up
    /// with the column-ordered weight stream).
    pub fn pop_for_group(&mut self, group: usize) -> Option<MatchEntry> {
        for fifo in &mut self.fifos {
            if let Some(front) = fifo.front() {
                if front.group == group {
                    return fifo.pop();
                }
            }
        }
        None
    }

    /// Whether the whole group of FIFOs is empty.
    pub fn is_empty(&self) -> bool {
        self.fifos.iter().all(|f| f.is_empty())
    }

    /// Total pushes across the group.
    pub fn total_pushes(&self) -> u64 {
        self.fifos.iter().map(|f| f.pushes()).sum()
    }

    /// Peak occupancy across all FIFOs.
    pub fn peak_occupancy(&self) -> usize {
        self.fifos.iter().map(|f| f.peak()).max().unwrap_or(0)
    }

    /// Current per-FIFO occupancies in column order (the telemetry
    /// per-cycle occupancy sample).
    pub fn occupancies(&self) -> impl Iterator<Item = usize> + '_ {
        self.fifos.iter().map(MatchFifo::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(col: usize, group: usize) -> MatchEntry {
        MatchEntry {
            column: col,
            tap: 0,
            entry: 0,
            group,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = MatchFifo::new(2);
        assert!(f.has_room() && f.is_empty());
        f.push(entry(0, 0));
        f.push(entry(0, 1));
        assert!(!f.has_room());
        assert_eq!(f.pop().unwrap().group, 0);
        assert_eq!(f.pop().unwrap().group, 1);
        assert!(f.pop().is_none());
        assert_eq!(f.pushes(), 2);
        assert_eq!(f.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut f = MatchFifo::new(1);
        f.push(entry(0, 0));
        f.push(entry(0, 0));
    }

    #[test]
    fn huge_depths_allocate_by_occupancy() {
        for depth in [1 << 30, usize::MAX] {
            let mut f = MatchFifo::new(depth);
            f.push(entry(0, 0));
            assert!(f.has_room());
            assert_eq!(f.depth(), depth);
        }
    }

    #[test]
    fn mux_pops_in_column_order_within_group() {
        let mut g = FifoGroup::new(3, 4);
        g.fifo_mut(2).push(entry(2, 0));
        g.fifo_mut(0).push(entry(0, 0));
        g.fifo_mut(0).push(entry(0, 1));
        // Group 0: column 0 first, then column 2.
        assert_eq!(g.pop_for_group(0).unwrap().column, 0);
        assert_eq!(g.pop_for_group(0).unwrap().column, 2);
        assert!(g.pop_for_group(0).is_none());
        // Group 1 remains.
        assert!(!g.is_empty());
        assert_eq!(g.pop_for_group(1).unwrap().group, 1);
        assert!(g.is_empty());
    }

    #[test]
    fn mux_does_not_pop_future_groups() {
        let mut g = FifoGroup::new(2, 4);
        g.fifo_mut(0).push(entry(0, 5));
        assert!(g.pop_for_group(4).is_none());
        assert_eq!(g.pop_for_group(5).unwrap().group, 5);
    }

    #[test]
    fn group_stats() {
        let mut g = FifoGroup::new(2, 4);
        g.fifo_mut(0).push(entry(0, 0));
        g.fifo_mut(1).push(entry(1, 0));
        g.fifo_mut(1).push(entry(1, 0));
        assert_eq!(g.total_pushes(), 3);
        assert_eq!(g.peak_occupancy(), 2);
        assert_eq!(g.columns(), 2);
    }
}
