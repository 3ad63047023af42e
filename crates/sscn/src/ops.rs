//! Effective operation counting.
//!
//! The paper reports **effective GOPS**, "containing only non-zero
//! multiply-accumulate operations, for a fair and clear comparison"
//! (§IV-C). The unit of work is the *match*: an active (centre, neighbor)
//! pair. Each match costs `in_ch × out_ch` MACs = `2 × in_ch × out_ch`
//! operations.

use esca_tensor::{KernelOffsets, SparseTensor};

/// Number of matches for a Sub-Conv with kernel `k` over `input`'s active
/// set: Σ over active centres of their active K³ neighbors (the centre
/// itself included when active — it always is).
pub fn count_matches<T: Copy>(input: &SparseTensor<T>, k: u32) -> u64 {
    let offsets = KernelOffsets::new(k);
    let mut matches = 0u64;
    for (centre, _) in input.iter() {
        for &off in offsets.offsets() {
            if input.contains(centre + off) {
                matches += 1;
            }
        }
    }
    matches
}

/// Effective MAC count of one Sub-Conv layer.
pub fn effective_macs<T: Copy>(input: &SparseTensor<T>, k: u32, out_ch: usize) -> u64 {
    count_matches(input, k) * input.channels() as u64 * out_ch as u64
}

/// Effective operation count (2 ops per MAC) of one Sub-Conv layer.
pub fn effective_ops<T: Copy>(input: &SparseTensor<T>, k: u32, out_ch: usize) -> u64 {
    2 * effective_macs(input, k, out_ch)
}

/// Matches of a **dense traversal** with kernel `k`: every (grid site,
/// active neighbor) pair — what a sparsity-blind accelerator with per-tap
/// zero gating still has to execute. Each active site q is a neighbor of
/// every centre within Chebyshev radius K/2, clipped at the grid boundary,
/// so the count is Σ over active sites of their clipped window volume.
pub fn count_matches_dense_traversal<T: Copy>(input: &SparseTensor<T>, k: u32) -> u64 {
    let r = (k / 2) as i64;
    let e = input.extent();
    let mut total = 0u64;
    for (q, _) in input.iter() {
        let wx = (q.x as i64 + r).min(e.x as i64 - 1) - (q.x as i64 - r).max(0) + 1;
        let wy = (q.y as i64 + r).min(e.y as i64 - 1) - (q.y as i64 - r).max(0) + 1;
        let wz = (q.z as i64 + r).min(e.z as i64 - 1) - (q.z as i64 - r).max(0) + 1;
        total += (wx * wy * wz) as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::{Coord3, Extent3};

    fn input(coords: &[Coord3]) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(8), 2);
        for &c in coords {
            t.insert(c, &[1.0, 1.0]).unwrap();
        }
        t
    }

    #[test]
    fn isolated_point_has_one_match() {
        let t = input(&[Coord3::new(4, 4, 4)]);
        assert_eq!(count_matches(&t, 3), 1);
        assert_eq!(effective_macs(&t, 3, 8), 2 * 8);
        assert_eq!(effective_ops(&t, 3, 8), 2 * 2 * 8);
    }

    #[test]
    fn adjacent_pair_has_four_matches() {
        // Each of the two centres sees itself and the other: 2 × 2.
        let t = input(&[Coord3::new(4, 4, 4), Coord3::new(4, 4, 5)]);
        assert_eq!(count_matches(&t, 3), 4);
    }

    #[test]
    fn far_points_do_not_match() {
        let t = input(&[Coord3::new(0, 0, 0), Coord3::new(7, 7, 7)]);
        assert_eq!(count_matches(&t, 3), 2);
    }

    #[test]
    fn k1_counts_centres_only() {
        let t = input(&[Coord3::new(1, 1, 1), Coord3::new(1, 1, 2)]);
        assert_eq!(count_matches(&t, 1), 2);
    }

    #[test]
    fn dense_traversal_matches_bruteforce() {
        let t = input(&[Coord3::new(0, 0, 0), Coord3::new(4, 4, 4)]);
        // Brute force: for every grid site, count active K-neighbors.
        let mut brute = 0u64;
        for c in t.extent().iter() {
            for &q in t.coords() {
                if c.chebyshev(q) <= 1 {
                    brute += 1;
                }
            }
        }
        assert_eq!(count_matches_dense_traversal(&t, 3), brute);
        // Interior site: full 27-window; corner site: 8-window.
        assert_eq!(count_matches_dense_traversal(&t, 3), 27 + 8);
    }

    #[test]
    fn dense_traversal_dwarfs_submanifold_matches() {
        let t = input(&[Coord3::new(4, 4, 4)]);
        assert!(count_matches_dense_traversal(&t, 3) > count_matches(&t, 3));
    }

    #[test]
    fn empty_input_zero_everything() {
        let t = SparseTensor::<f32>::new(Extent3::cube(4), 1);
        assert_eq!(count_matches(&t, 3), 0);
    }
}
