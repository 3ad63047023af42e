//! # esca-tensor
//!
//! Sparse voxel tensor substrate for the ESCA-rs project, a reproduction of
//! *"An Efficient FPGA Accelerator for Point Cloud"* (SOCC 2022).
//!
//! Point clouds voxelized onto a 3-D grid are extremely sparse (the paper
//! quotes ≈99.9 % zeros on ShapeNet at 192³). This crate provides the data
//! structures every other crate in the workspace builds on:
//!
//! * [`Coord3`] / [`Extent3`] — integer voxel coordinates and grid extents;
//! * [`Dense3`] — a dense row-major 3-D tensor with a channel dimension
//!   (used by the *traditional convolution* reference and as an exchange
//!   format);
//! * [`SparseTensor`] — the canonical coordinate-list sparse tensor, the
//!   functional representation used by the golden SSCN model. Tensors on
//!   the same sites share one active set: coordinates, fingerprint memo
//!   and a hash index built on the first point lookup;
//! * [`OccupancyMask`] — a bit-packed occupancy grid, the bulk form of the
//!   paper's *index mask*;
//! * [`TileGrid`] — fixed-size tiling of a grid with active/empty
//!   classification, the substrate of the paper's *tile-based zero removing
//!   strategy* (§III-A);
//! * [`LineRuns`] — the z-line index of a coordinate set: non-empty
//!   (x, y) lines in raster order, each a run of entries ordered along z.
//!   This is precisely the *valid data* layout that makes the SDMU's
//!   `(A, B)` state-index addressing work: within a line, the entries of
//!   any sliding window form a contiguous address fragment `(A−B, A]`
//!   (§III-C); the hash-free geometry builders merge over the same index;
//! * [`fixed`] — INT8 weight / INT16 activation fixed-point arithmetic with
//!   32-bit accumulation, matching the paper's quantization scheme (§IV-A).
//!
//! # Example
//!
//! ```
//! use esca_tensor::{Coord3, Extent3, SparseTensor, TileShape, TileGrid};
//!
//! // A 16³ grid with two active voxels carrying one feature channel each.
//! let extent = Extent3::new(16, 16, 16);
//! let mut t = SparseTensor::<f32>::new(extent, 1);
//! t.insert(Coord3::new(1, 2, 3), &[1.0]).unwrap();
//! t.insert(Coord3::new(9, 9, 9), &[2.0]).unwrap();
//!
//! // Tile it 4×4×4 and count active tiles, as the zero-removing unit does.
//! let grid = TileGrid::new(extent, TileShape::cube(4));
//! let report = grid.classify(&t.occupancy_mask());
//! assert_eq!(report.total_tiles(), 64);
//! assert_eq!(report.active_tiles(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coord;
pub mod dense;
pub mod error;
pub mod fixed;
pub mod line;
pub mod mask;
pub mod sparse;
pub mod tile;

pub use coord::{Coord3, Extent3, KernelOffsets};
pub use dense::Dense3;
pub use error::TensorError;
pub use fixed::{requantize_i64, QuantParams, Q16, Q8};
pub use line::LineRuns;
pub use mask::OccupancyMask;
pub use sparse::{ActiveSetFingerprint, SparseTensor};
pub use tile::{TileGrid, TileInfo, TileReport, TileShape};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
