//! Finite-difference gradient verification.
//!
//! Every operator's backward closure in this crate is validated against central
//! finite differences, by the hand-picked cases below and the randomized
//! compositions in `tests/property_gradients.rs`. This is the single most effective
//! defence against silent training bugs in a from-scratch autodiff engine.

use crate::graph::{Graph, VarId};
use crate::params::ParamStore;

/// Builds the loss for a given parameter store: the closure receives a fresh graph
/// and must return the `[1]`-shaped loss node.
pub type LossFn<'a> = dyn FnMut(&ParamStore, &mut Graph) -> VarId + 'a;

/// Verifies analytic gradients against central finite differences.
///
/// For every element of every parameter in `store`, perturbs by `±eps`, re-evaluates
/// the loss and compares `(f(w+eps) - f(w-eps)) / 2eps` against the backward pass.
/// Returns `Err` with a description of the first element whose relative error
/// exceeds `tol`.
///
/// The check is exhaustive, so keep stores small (tests use toy dimensions).
pub fn check_gradients(
    store: &mut ParamStore,
    f: &mut LossFn<'_>,
    eps: f64,
    tol: f64,
) -> Result<(), String> {
    // Analytic pass.
    let analytic: Vec<(crate::params::ParamId, mvi_tensor::Tensor)> = {
        let mut g = Graph::new();
        let loss = f(store, &mut g);
        let grads = g.backward(loss);
        let mut collected = std::collections::HashMap::new();
        for (pid, grad) in g.param_grads(&grads) {
            collected
                .entry(pid)
                .and_modify(|t: &mut mvi_tensor::Tensor| t.add_assign(&grad))
                .or_insert(grad);
        }
        store
            .ids()
            .into_iter()
            .map(|pid| {
                let g = collected
                    .remove(&pid)
                    .unwrap_or_else(|| mvi_tensor::Tensor::zeros(store.value(pid).shape()));
                (pid, g)
            })
            .collect()
    };

    for (pid, agrad) in analytic {
        let n = store.value(pid).len();
        for i in 0..n {
            let orig = store.value(pid).at(i);

            store.value_mut(pid).data_mut()[i] = orig + eps;
            let mut g = Graph::new();
            let lp = f(store, &mut g);
            let fplus = g.value(lp).at(0);

            store.value_mut(pid).data_mut()[i] = orig - eps;
            let mut g = Graph::new();
            let lm = f(store, &mut g);
            let fminus = g.value(lm).at(0);

            store.value_mut(pid).data_mut()[i] = orig;

            let numeric = (fplus - fminus) / (2.0 * eps);
            let exact = agrad.at(i);
            let denom = numeric.abs().max(exact.abs()).max(1.0);
            let rel = (numeric - exact).abs() / denom;
            if rel > tol {
                return Err(format!(
                    "gradient mismatch for {}[{}]: analytic {:.6e}, numeric {:.6e} (rel {:.3e})",
                    store.name(pid),
                    i,
                    exact,
                    numeric,
                    rel
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Embedding, GruCell, Linear};
    use mvi_tensor::{Mask, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rngs(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn grad_check_linear_relu_mse() {
        let mut store = ParamStore::new();
        let mut rng = rngs(10);
        let l1 = Linear::new(&mut store, &mut rng, "l1", 3, 4);
        let l2 = Linear::new(&mut store, &mut rng, "l2", 4, 1);
        let x = Tensor::from_vec(vec![2, 3], vec![0.3, -0.5, 0.8, 1.0, 0.2, -0.4]);
        let target = Tensor::from_vec(vec![2, 1], vec![0.7, -0.3]);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let xv = g.constant(x.clone());
                let h = l1.forward(g, store, xv);
                let h = g.relu(h);
                let y = l2.forward(g, store, h);
                g.mse(y, &target)
            },
            1e-5,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_sigmoid_tanh_exp_chain() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_slice(&[0.4, -0.2, 0.9]));
        check_gradients(
            &mut store,
            &mut |store, g| {
                let wv = g.param(store, w);
                let s = g.sigmoid(wv);
                let t = g.tanh(s);
                let e = g.exp(t);
                let sq = g.square(e);
                g.mean(sq)
            },
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_div() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_slice(&[1.2, 0.8]));
        let b = store.add("b", Tensor::from_slice(&[2.0, 3.0]));
        check_gradients(
            &mut store,
            &mut |store, g| {
                let av = g.param(store, a);
                let bv = g.param(store, b);
                let q = g.div(av, bv);
                let sq = g.square(q);
                g.sum(sq)
            },
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_masked_softmax_attention() {
        // Miniature attention: scores from parameters, masked softmax, weighted sum.
        let mut store = ParamStore::new();
        let mut rng = rngs(11);
        let q = Linear::new_no_bias(&mut store, &mut rng, "q", 2, 2);
        let k = Linear::new_no_bias(&mut store, &mut rng, "k", 2, 2);
        let x = Tensor::from_vec(vec![3, 2], vec![0.5, 0.1, -0.3, 0.9, 0.2, -0.8]);
        let values = Tensor::from_vec(vec![3, 2], vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]);
        let mut mask = Mask::trues(&[3, 3]);
        mask.set(&[0, 1], false);
        mask.set(&[2, 0], false);
        let target = Tensor::from_vec(vec![3, 2], vec![0.2, 0.4, 0.1, 0.3, 0.6, 0.2]);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let xv = g.constant(x.clone());
                let qm = q.forward(g, store, xv);
                let km = k.forward(g, store, xv);
                let kt = g.transpose(km);
                let scores = g.matmul(qm, kt);
                let attn = g.masked_softmax_rows(scores, &mask);
                let vv = g.constant(values.clone());
                let out = g.matmul(attn, vv);
                g.mse(out, &target)
            },
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_embedding_kernel_weights() {
        // RBF-kernel weighted mean as in the kernel-regression module (§4.2).
        let mut store = ParamStore::new();
        let mut rng = rngs(12);
        let emb = Embedding::new(&mut store, &mut rng, "emb", 4, 3);
        let sib_vals = Tensor::from_slice(&[0.7, -0.2, 0.4]);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let target_e = emb.lookup(g, store, &[0]); // [1,3]
                let target_vec = g.reshape(target_e, &[3]);
                let sibs = emb.lookup(g, store, &[1, 2, 3]); // [3,3]
                let diff = g.sub_rowvec(sibs, target_vec);
                let sq = g.square(diff);
                let dists = g.sum_axis1(sq);
                let neg = g.scale(dists, -1.0);
                let sim = g.exp(neg);
                let vals = g.constant(sib_vals.clone());
                let num = g.dot(sim, vals);
                let den = g.sum(sim);
                let den = g.add_scalar(den, 1e-9);
                let u = g.div(num, den);
                g.mse(u, &Tensor::scalar(0.5))
            },
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_shift_concat_row_ops() {
        let mut store = ParamStore::new();
        let w = store
            .add("w", Tensor::from_vec(vec![4, 2], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]));
        check_gradients(
            &mut store,
            &mut |store, g| {
                let wv = g.param(store, w);
                let prev = g.shift_rows(wv, 1);
                let next = g.shift_rows(wv, -1);
                let cat = g.concat_cols(&[prev, next]);
                let r = g.row(cat, 2);
                let e = g.index1d(r, 1);
                let sq = g.square(e);
                let s = g.sum(cat);
                let total = g.add(sq, s);
                g.mean(total)
            },
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_gru_cell() {
        let mut store = ParamStore::new();
        let mut rng = rngs(13);
        let cell = GruCell::new(&mut store, &mut rng, "gru", 2, 3);
        let x1 = Tensor::from_slice(&[0.5, -0.1]);
        let x2 = Tensor::from_slice(&[-0.7, 0.3]);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let h0 = g.constant(Tensor::zeros(&[3]));
                let x1v = g.constant(x1.clone());
                let x2v = g.constant(x2.clone());
                let h1 = cell.step(g, store, x1v, h0);
                let h2 = cell.step(g, store, x2v, h1);
                let sq = g.square(h2);
                g.mean(sq)
            },
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_transpose() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(vec![2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
        let w = store.add("w", Tensor::from_vec(vec![2, 2], vec![1.5, -0.5, 0.25, 2.0]));
        check_gradients(
            &mut store,
            &mut |store, g| {
                let av = g.param(store, a);
                let wv = g.param(store, w);
                let t = g.transpose(av);
                let p = g.matmul(t, wv);
                let sq = g.square(p);
                g.sum(sq)
            },
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn grad_check_row_range_matmuls() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(vec![2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
        let b = store.add(
            "b",
            Tensor::from_vec(
                vec![5, 3],
                vec![
                    1.5, -0.5, 0.25, 2.0, 0.3, -1.1, 0.7, 0.2, 0.9, -0.4, 1.2, 0.6, 0.8, -0.9, 0.1,
                ],
            ),
        );
        check_gradients(
            &mut store,
            &mut |store, g| {
                let av = g.param(store, a);
                let bv = g.param(store, b);
                let scores = g.matmul_nt_rows(av, bv, 1..4); // [2, 3]
                let out = g.matmul_rows(scores, bv, 2..5); // [2, 3]
                let sq = g.square(out);
                g.sum(sq)
            },
            1e-6,
            1e-6,
        )
        .unwrap();
    }
}
