//! A parallel dense convolution (crossbeam scoped threads).
//!
//! The golden kernels in [`crate::conv`] are deliberately simple and
//! single-threaded. The dense-accelerator contrast model traverses whole
//! 192³ grids, so [`dense_conv3d_par`] shards that traversal across
//! threads and is proven element-identical to the sequential kernel:
//! floating-point summation order per output element is the same as in
//! the sequential code (sharding is across outputs, not within one), so
//! results match exactly. Sparse Sub-Conv is served by the flat engine
//! ([`crate::engine`]).

use crate::weights::ConvWeights;
use crate::Result;
use esca_tensor::{Coord3, Dense3};

/// Number of worker threads to use: available parallelism, capped.
fn worker_count(work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(8).min(work_items.max(1))
}

/// Parallel [`crate::conv::dense_conv3d`]: shards the grid into x-slabs.
/// Output is identical to the sequential kernel.
///
/// # Errors
///
/// Returns [`crate::SscnError::ChannelMismatch`] when the input channel count
/// does not match `weights`.
pub fn dense_conv3d_par(input: &Dense3<f32>, weights: &ConvWeights) -> Result<Dense3<f32>> {
    weights.check_input_channels(input.channels())?;
    let e = input.extent();
    let out_ch = weights.out_ch();
    let offsets = weights.offsets();
    let threads = worker_count(e.x as usize);
    let slab = (e.x as usize).div_ceil(threads);
    let sites_per_x = e.y as usize * e.z as usize;

    let mut slabs: Vec<Vec<f32>> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let x0 = (t * slab) as i32;
                let x1 = (((t + 1) * slab).min(e.x as usize)) as i32;
                let offsets = &offsets;
                scope.spawn(move |_| {
                    let mut data = vec![0.0f32; (x1 - x0).max(0) as usize * sites_per_x * out_ch];
                    let mut idx = 0usize;
                    let mut acc = vec![0.0f32; out_ch];
                    for x in x0..x1 {
                        for y in 0..e.y as i32 {
                            for z in 0..e.z as i32 {
                                let centre = Coord3::new(x, y, z);
                                acc.copy_from_slice(weights.bias());
                                for (tap, &off) in offsets.offsets().iter().enumerate() {
                                    let Some(f) = input.get_opt(centre + off) else {
                                        continue;
                                    };
                                    for (ic, &a) in f.iter().enumerate() {
                                        if a == 0.0 {
                                            continue;
                                        }
                                        for (dst, &w) in
                                            acc.iter_mut().zip(weights.oc_slice(tap, ic))
                                        {
                                            *dst += a * w;
                                        }
                                    }
                                }
                                data[idx..idx + out_ch].copy_from_slice(&acc);
                                idx += out_ch;
                            }
                        }
                    }
                    data
                })
            })
            .collect();
        slabs = handles
            .into_iter()
            .map(|h| h.join().expect("dense conv worker panicked"))
            .collect();
    })
    .expect("crossbeam scope");

    let mut data = Vec::with_capacity(e.volume() as usize * out_ch);
    for s in slabs {
        data.extend_from_slice(&s);
    }
    Ok(Dense3::from_raw(e, out_ch, data).expect("slabs cover the grid exactly"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv;
    use esca_tensor::{Extent3, SparseTensor};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_input(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(side), ch);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn parallel_dense_equals_sequential() {
        let input = random_input(1, 9, 2, 60).to_dense();
        let w = ConvWeights::seeded(3, 2, 5, 4);
        let par = dense_conv3d_par(&input, &w).unwrap();
        let seq = conv::dense_conv3d(&input, &w).unwrap();
        assert_eq!(
            par.max_abs_diff(&seq).unwrap(),
            0.0,
            "bitwise equal expected"
        );
    }

    #[test]
    fn channel_mismatch_rejected() {
        let t = random_input(2, 8, 2, 10);
        let w = ConvWeights::seeded(3, 3, 4, 6);
        assert!(dense_conv3d_par(&t.to_dense(), &w).is_err());
    }

    #[test]
    fn non_cubic_dense_parallel() {
        let mut t = SparseTensor::<f32>::new(Extent3::new(5, 9, 3), 1);
        t.insert(Coord3::new(4, 8, 2), &[1.5]).unwrap();
        t.insert(Coord3::new(0, 0, 0), &[-0.5]).unwrap();
        let w = ConvWeights::seeded(3, 1, 2, 7);
        let par = dense_conv3d_par(&t.to_dense(), &w).unwrap();
        let seq = conv::dense_conv3d(&t.to_dense(), &w).unwrap();
        assert_eq!(par.max_abs_diff(&seq).unwrap(), 0.0);
    }
}
