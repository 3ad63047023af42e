//! A hand-traced reproduction of the paper's Fig. 7(a) matching-steps
//! example, extended to the 3-D kernel. Every `(A, B)` value and address
//! fragment below is computed by hand in the comments and asserted
//! against the machinery — the SDMU's arithmetic must reproduce the
//! worked example exactly.
//!
//! Setup: one (x, y) line with occupancy along z (K = 3):
//!
//! ```text
//! z:        0  1  2  3  4  5  6  7
//! mask:     0  1  1  0  0  1  0  1
//! entries:     e0 e1       e2    e3     (line-local addresses 1..4)
//! ```
//!
//! Sliding the SRF centre over z, the centre column's (A, B) and fragment
//! (A−B, A] evolve as:
//!
//! | centre z | window [z−1, z+1] | A (≤ z+1) | B | fragment |
//! |---|---|---|---|---|
//! | 0 | {−1, 0, 1}  | 1 | 1 | (0, 1] → e0       |
//! | 1 | {0, 1, 2}   | 2 | 2 | (0, 2] → e0, e1   |
//! | 2 | {1, 2, 3}   | 2 | 2 | (0, 2] → e0, e1   |
//! | 3 | {2, 3, 4}   | 2 | 1 | (1, 2] → e1       |
//! | 4 | {3, 4, 5}   | 3 | 1 | (2, 3] → e2       |
//! | 5 | {4, 5, 6}   | 3 | 1 | (2, 3] → e2       |
//! | 6 | {5, 6, 7}   | 4 | 2 | (2, 4] → e2, e3   |
//! | 7 | {6, 7, 8}   | 4 | 1 | (3, 4] → e3       |

use esca_tensor::{Coord3, Extent3, LineRuns, SparseTensor, Q16};

const OCC: [i32; 4] = [1, 2, 5, 7]; // z of e0..e3

fn line_tensor() -> SparseTensor<Q16> {
    let mut t = SparseTensor::<Q16>::new(Extent3::new(4, 4, 8), 1);
    for (i, &z) in OCC.iter().enumerate() {
        t.insert(Coord3::new(1, 1, z), &[Q16(i as i16 + 10)])
            .unwrap();
    }
    t.canonicalize();
    t
}

#[test]
fn line_runs_reproduce_the_worked_table() {
    let runs = LineRuns::new(line_tensor().coords());
    let base = runs.line_at(1, 1).start;
    // (centre z, expected A, expected B, expected fragment start..end)
    let expected = [
        (0, 1, 1, 0..1),
        (1, 2, 2, 0..2),
        (2, 2, 2, 0..2),
        (3, 2, 1, 1..2),
        (4, 3, 1, 2..3),
        (5, 3, 1, 2..3),
        (6, 4, 2, 2..4),
        (7, 4, 1, 3..4),
    ];
    for (z, a, b, frag) in expected {
        let w = runs.window(1, 1, z - 1, z + 2);
        assert_eq!(w.end - base, a, "A at centre z={z}");
        assert_eq!(w.len(), b, "B at centre z={z}");
        assert_eq!(w, frag, "fragment at centre z={z}");
    }
}

#[test]
fn state_index_accumulator_reproduces_the_worked_table() {
    use esca::sdmu::state_index::ColumnState;
    let occupied = |z: i32| OCC.contains(&z);
    let mut cs = ColumnState::default();
    // Preload for the line start at z = 0: A counts entries ≤ z + r − 1
    // = 0 (none ≤ 0), leading edge none.
    cs.preload(0, 0);
    let expected_ab = [
        (1, 1),
        (2, 2),
        (2, 2),
        (2, 1),
        (3, 1),
        (3, 1),
        (4, 2),
        (4, 1),
    ];
    for (z, (ea, eb)) in (0..8).zip(expected_ab) {
        cs.step(occupied(z + 1), occupied(z - 2));
        assert_eq!(cs.a(), ea, "Acc A at centre z={z}");
        assert_eq!(cs.b(), eb, "B at centre z={z}");
        assert_eq!(cs.fragment(), (ea - eb)..ea, "fragment at centre z={z}");
    }
}

#[test]
fn matching_fetches_exactly_the_fragments() {
    // End-to-end through the accelerator on the same line: each active
    // centre's match group must contain exactly the B entries of its
    // fragment (for the centre column; the other 8 columns are empty
    // here), and the outputs must be the golden results.
    use esca::{Esca, EscaConfig};
    use esca_sscn::quant::{submanifold_conv3d_q, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;

    let t = line_tensor();
    let w = ConvWeights::seeded(3, 1, 4, 7);
    let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
    let run = Esca::new(EscaConfig::default())
        .unwrap()
        .run_layer(&t, &qw, false)
        .unwrap();
    // Per the table: active centres are z ∈ {1, 2, 5, 7} with B = 2, 2,
    // 1, 1 matches respectively → 6 matches total.
    assert_eq!(run.stats.match_groups, 4);
    assert_eq!(run.stats.matches, 6);
    let golden = submanifold_conv3d_q(&t, &qw, false).unwrap();
    assert!(run.output.same_content(&golden));
}
