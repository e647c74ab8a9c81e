//! Empirical missing-block-shape sampling for DeepMVI's training procedure (§3).
//!
//! The paper trains on synthetic missing blocks whose *shape* is "sampled from
//! anywhere in `M`" — a cuboid characterized only by the number of missing values
//! along each dimension, not their position. [`BlockSampler`] extracts that shape
//! distribution from the actual missing mask so the synthetic training masks are
//! identically distributed to the real missing pattern, which is the property the
//! generalization argument of §3 rests on.

use crate::dataset::ObservedDataset;
use mvi_tensor::shape;
use rand::rngs::StdRng;
use rand::Rng;

/// A missing-block shape: a cuboid over `(dims..., time)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockShape {
    /// Extent along the time axis.
    pub t_len: usize,
    /// For each non-time dimension `i`, how many members of `K_i` share the missing
    /// range (always ≥ 1: the block's own member counts).
    pub dim_counts: Vec<usize>,
}

/// Samples block shapes from the empirical distribution of an observed dataset's
/// missing pattern.
#[derive(Clone, Debug)]
pub struct BlockSampler {
    shapes: Vec<BlockShape>,
}

impl BlockSampler {
    /// Builds the sampler by enumerating the maximal missing runs of every series
    /// and measuring, for each run, how many siblings along each dimension are also
    /// missing at the run's start time.
    ///
    /// Datasets with no missing values yield a default unit-block distribution (a
    /// single missing point), so training can still proceed.
    pub fn from_observed(obs: &ObservedDataset) -> Self {
        let n_dims = obs.dims.len();
        let series_shape = obs.series_shape();
        let missing = obs.available.complement();
        let mut shapes = Vec::new();
        for s in 0..obs.n_series() {
            let k = shape::unflatten(&series_shape, s);
            for (start, len) in missing.runs(s) {
                let mut dim_counts = Vec::with_capacity(n_dims);
                for (dim, &extent) in series_shape.iter().enumerate() {
                    let mut kk = k.clone();
                    let mut count = 1usize; // the block's own member
                    for m in 0..extent {
                        if m == k[dim] {
                            continue;
                        }
                        kk[dim] = m;
                        let sib = shape::flat_index(&series_shape, &kk);
                        if missing.series(sib)[start] {
                            count += 1;
                        }
                    }
                    kk[dim] = k[dim];
                    dim_counts.push(count);
                }
                shapes.push(BlockShape { t_len: len, dim_counts });
            }
        }
        if shapes.is_empty() {
            shapes.push(BlockShape { t_len: 1, dim_counts: vec![1; n_dims] });
        }
        Self { shapes }
    }

    /// Draws one shape uniformly from the empirical distribution.
    pub fn sample(&self, rng: &mut StdRng) -> BlockShape {
        self.shapes[rng.gen_range(0..self.shapes.len())].clone()
    }

    /// Number of distinct observed blocks.
    pub fn n_blocks(&self) -> usize {
        self.shapes.len()
    }

    /// Mean missing-block length along time — the statistic the paper uses to pick
    /// the window size `w` (§4.3: `w = 20` when the average block exceeds 100).
    pub fn mean_t_len(&self) -> f64 {
        self.shapes.iter().map(|b| b.t_len as f64).sum::<f64>() / self.shapes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DimSpec};
    use crate::scenarios::Scenario;
    use mvi_tensor::{Mask, Tensor};
    use rand::SeedableRng;

    fn toy_1d(n: usize, t: usize) -> Dataset {
        Dataset::new(
            "toy",
            vec![DimSpec::indexed("series", "s", n)],
            Tensor::from_fn(&[n, t], |idx| (idx[0] + idx[1]) as f64),
        )
    }

    #[test]
    fn sampler_recovers_block_lengths() {
        let ds = toy_1d(5, 200);
        let inst = Scenario::mcar(1.0).apply(&ds, 3);
        let sampler = BlockSampler::from_observed(&inst.observed());
        assert!(sampler.n_blocks() > 0);
        // MCAR uses constant blocks of 10 (grid-adjacent blocks may merge).
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let b = sampler.sample(&mut rng);
            assert_eq!(b.t_len % 10, 0, "length {}", b.t_len);
            assert_eq!(b.dim_counts.len(), 1);
        }
    }

    #[test]
    fn blackout_blocks_span_all_series() {
        let ds = toy_1d(6, 300);
        let inst = Scenario::Blackout { block_len: 30 }.apply(&ds, 1);
        let sampler = BlockSampler::from_observed(&inst.observed());
        let mut rng = StdRng::seed_from_u64(2);
        let b = sampler.sample(&mut rng);
        assert_eq!(b.t_len, 30);
        assert_eq!(b.dim_counts, vec![6], "blackout must report all series missing");
    }

    #[test]
    fn multidim_counts_are_per_dimension() {
        // 2x3 series grid, T=10; hide t=0..5 for all items of store 0.
        let dims = vec![DimSpec::indexed("store", "st", 2), DimSpec::indexed("item", "it", 3)];
        let values = Tensor::zeros(&[2, 3, 10]);
        let mut missing = Mask::falses(&[2, 3, 10]);
        for item in 0..3 {
            for t in 0..5 {
                missing.set(&[0, item, t], true);
            }
        }
        let ds = Dataset::new("toy2", dims, values).with_missing(missing);
        let sampler = BlockSampler::from_observed(&ds.observed());
        let mut rng = StdRng::seed_from_u64(3);
        let b = sampler.sample(&mut rng);
        assert_eq!(b.t_len, 5);
        // Along the store dim only store 0 is missing; along item all 3 are.
        assert_eq!(b.dim_counts, vec![1, 3]);
    }

    #[test]
    fn complete_dataset_defaults_to_unit_block() {
        let ds = toy_1d(3, 50);
        let inst = ds.with_missing(Mask::falses(&[3, 50]));
        let sampler = BlockSampler::from_observed(&inst.observed());
        assert_eq!(sampler.n_blocks(), 1);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(sampler.sample(&mut rng), BlockShape { t_len: 1, dim_counts: vec![1] });
    }

    #[test]
    fn mean_t_len_drives_window_choice() {
        let ds = toy_1d(4, 2000);
        let inst = Scenario::Blackout { block_len: 150 }.apply(&ds, 9);
        let sampler = BlockSampler::from_observed(&inst.observed());
        assert!(sampler.mean_t_len() > 100.0);
    }
}
