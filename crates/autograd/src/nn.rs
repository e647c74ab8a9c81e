//! Neural-network building blocks: initializers, layers and the positional encoding.

use crate::eval::Evaluator;
use crate::params::{ParamId, ParamStore, Restore};
use mvi_tensor::Tensor;
use rand::Rng;

/// Standard-normal sample via the Box–Muller transform (the `rand` crate alone ships
/// no Gaussian distribution; `rand_distr` is outside the sanctioned dependency set).
pub fn randn(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Glorot/Xavier-normal initialization for a `[fan_in, fan_out]` weight matrix.
pub(crate) fn glorot(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let std = (2.0 / (fan_in + fan_out) as f64).sqrt();
    Tensor::from_fn(&[fan_in, fan_out], |_| randn(rng) * std)
}

/// The sinusoidal positional encoding of Eq 2 for the given (window) positions.
///
/// `e_{t,r} = sin(t / 10000^{r/p})` for even `r`, `cos(t / 10000^{(r-1)/p})` for odd.
pub fn positional_encoding(positions: &[usize], dim: usize) -> Tensor {
    let p = dim as f64;
    Tensor::from_fn(&[positions.len(), dim], |idx| {
        let t = positions[idx[0]] as f64;
        let r = idx[1];
        if r % 2 == 0 {
            (t / 10000f64.powf(r as f64 / p)).sin()
        } else {
            (t / 10000f64.powf((r - 1) as f64 / p)).cos()
        }
    })
}

/// [`positional_encoding`] for the contiguous positions `first..first+rows`,
/// written into a pre-shaped `[rows, dim]` buffer — the allocation-free form
/// the forward pass feeds through [`Evaluator::input`]. Same values, bit for
/// bit, as the allocating variant: the per-column `10000^{r/p}` denominator
/// is hoisted out of the row loop (it is a pure function of the column), not
/// reassociated.
pub fn fill_positional_encoding(out: &mut Tensor, first: usize) {
    let (rows, dim) = (out.rows(), out.cols());
    let p = dim as f64;
    for r in 0..dim {
        let denom = if r % 2 == 0 {
            10000f64.powf(r as f64 / p)
        } else {
            10000f64.powf((r - 1) as f64 / p)
        };
        for i in 0..rows {
            let t = (first + i) as f64;
            out.row_mut(i)[r] = if r % 2 == 0 { (t / denom).sin() } else { (t / denom).cos() };
        }
    }
}

/// A dense layer `x ↦ x·W + b` with `W: [in, out]`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    /// Weight parameter `[in_dim, out_dim]`.
    pub w: ParamId,
    /// Optional bias parameter `[out_dim]`.
    pub b: Option<ParamId>,
}

impl Linear {
    /// Registers a Glorot-initialized layer with bias.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), glorot(rng, in_dim, out_dim));
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Self { w, b: Some(b) }
    }

    /// The layer [`Linear::new`] registers, with its weight and bias taken
    /// from `source` instead of drawn.
    ///
    /// # Errors
    /// `source` has run out, or its next tensor has another name or shape.
    pub fn restored(
        store: &mut ParamStore,
        source: &mut Restore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<Self, String> {
        let w = source.add(store, format!("{name}.w"), &[in_dim, out_dim])?;
        let b = source.add(store, format!("{name}.b"), &[out_dim])?;
        Ok(Self { w, b: Some(b) })
    }

    /// Registers a bias-free layer.
    pub fn new_no_bias(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), glorot(rng, in_dim, out_dim));
        Self { w, b: None }
    }

    /// Applies the layer to a `[m, in]` value, yielding `[m, out]`. Generic
    /// over the forward backend: the tape during training, the value-only
    /// evaluator during inference (which fuses the bias add into the GEMM
    /// epilogue, bitwise-identically — see [`Evaluator::affine`]).
    pub fn forward<E: Evaluator>(&self, g: &mut E, store: &ParamStore, x: E::Var) -> E::Var {
        g.affine(store, self.w, self.b, x)
    }

    /// Applies the layer to a rank-1 `[in]` value, yielding `[out]`. Lowers
    /// to [`Evaluator::affine_vec`], whose value-only backend fuses the whole
    /// reshape→matmul→bias chain into one pass (bitwise-identically).
    pub fn forward_vec<E: Evaluator>(&self, g: &mut E, store: &ParamStore, x: E::Var) -> E::Var {
        g.affine_vec(store, self.w, self.b, x)
    }
}

/// A learned embedding table for the members of one categorical dimension (§4.2).
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    /// Table parameter `[vocabulary, dim]`.
    pub table: ParamId,
}

impl Embedding {
    /// Registers a table of `vocab` embeddings of width `dim`, N(0, 1/√dim) init.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let std = 1.0 / (dim as f64).sqrt();
        let table = store
            .add(format!("{name}.table"), Tensor::from_fn(&[vocab, dim], |_| randn(rng) * std));
        Self { table }
    }

    /// The table [`Embedding::new`] registers, taken from `source` instead of
    /// drawn.
    ///
    /// # Errors
    /// `source` has run out, or its next tensor has another name or shape.
    pub fn restored(
        store: &mut ParamStore,
        source: &mut Restore,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Result<Self, String> {
        Ok(Self { table: source.add(store, format!("{name}.table"), &[vocab, dim])? })
    }

    /// Looks up a batch of member indices, yielding `[idx.len(), dim]`.
    /// Backend-generic like [`Linear::forward`].
    pub fn lookup<E: Evaluator>(&self, g: &mut E, store: &ParamStore, idx: &[usize]) -> E::Var {
        let t = g.param(store, self.table);
        g.gather_rows(t, idx)
    }
}

/// A gated recurrent unit cell (used by the BRITS baseline's recurrent component).
#[derive(Clone, Copy, Debug)]
pub struct GruCell {
    wz: Linear,
    wr: Linear,
    wh: Linear,
}

impl GruCell {
    /// Registers a GRU cell mapping `[input] × [hidden] -> [hidden]`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        let cat = input + hidden;
        Self {
            wz: Linear::new(store, rng, &format!("{name}.z"), cat, hidden),
            wr: Linear::new(store, rng, &format!("{name}.r"), cat, hidden),
            wh: Linear::new(store, rng, &format!("{name}.h"), cat, hidden),
        }
    }

    /// One step: `h' = (1-z)·h + z·h̃` with update gate `z`, reset gate `r`,
    /// candidate `h̃ = tanh(W_h [x, r·h])`. `x: [input]`, `h: [hidden]` (rank-1).
    pub fn step<E: Evaluator>(
        &self,
        g: &mut E,
        store: &ParamStore,
        x: E::Var,
        h: E::Var,
    ) -> E::Var {
        let xh = g.concat1d(&[x, h]);
        let z_lin = self.wz.forward_vec(g, store, xh);
        let z = g.sigmoid(z_lin);
        let r_lin = self.wr.forward_vec(g, store, xh);
        let r = g.sigmoid(r_lin);
        let rh = g.mul(r, h);
        let xrh = g.concat1d(&[x, rh]);
        let cand_lin = self.wh.forward_vec(g, store, xrh);
        let cand = g.tanh(cand_lin);
        // h' = h + z * (cand - h)
        let delta = g.sub(cand, h);
        let zd = g.mul(z, delta);
        g.add(h, zd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn positional_encoding_matches_eq2() {
        let pe = positional_encoding(&[0, 1, 5], 4);
        assert_eq!(pe.shape(), &[3, 4]);
        // t = 0: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.row(0), &[0.0, 1.0, 0.0, 1.0]);
        // t = 1, r = 0: sin(1).
        assert!((pe.m(1, 0) - 1f64.sin()).abs() < 1e-12);
        // t = 5, r = 2: sin(5 / 10000^(2/4)).
        assert!((pe.m(2, 2) - (5.0 / 100.0f64).sin()).abs() < 1e-12);
    }

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut store, &mut rng, "l", 3, 2);
        // Set known weights: W = ones, b = [10, 20].
        store.value_mut(layer.w).map_inplace(|_| 1.0);
        store.value_mut(layer.b.unwrap()).data_mut().copy_from_slice(&[10.0, 20.0]);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).data(), &[16.0, 26.0]);
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::new(&mut store, &mut rng, "e", 5, 3);
        let mut g = Graph::new();
        let rows = emb.lookup(&mut g, &store, &[4, 0]);
        assert_eq!(g.shape(rows), &[2, 3]);
        assert_eq!(g.value(rows).row(0), store.value(emb.table).row(4));
    }

    #[test]
    fn gru_step_stays_bounded() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(&mut store, &mut rng, "gru", 2, 4);
        let mut g = Graph::new();
        let x = g.constant_slice(&[0.5, -0.5]);
        let mut h = g.constant(Tensor::zeros(&[4]));
        for _ in 0..10 {
            h = cell.step(&mut g, &store, x, h);
        }
        // GRU state is a convex combination of tanh outputs: |h| <= 1.
        assert!(g.value(h).max_abs() <= 1.0 + 1e-9);
    }
}
