//! MRNN \[27\]: multi-directional recurrent imputation (Yoon, Zame, van der Schaar)
//! — the earliest deep MVI method the paper discusses (§2.4).
//!
//! Two-block architecture, reproduced at its published structure:
//!
//! 1. an **interpolation block** that runs a bidirectional recurrent network *within*
//!    each stream (weights shared across streams) and regresses a per-position
//!    estimate from the two directional states — capturing the temporal context of a
//!    missing value inside its own series;
//! 2. an **imputation block** — a fully-connected network *across* streams at each
//!    time step that refines the interpolation estimates using the concurrently
//!    observed values of the other streams.
//!
//! The empirical study of \[12\] found MRNN to be both slow and surprisingly weak;
//! this reproduction exists so that comparison can be made rather than assumed.

use mvi_autograd::{AdamConfig, Evaluator, Graph, GruCell, Linear, ParamStore, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multi-directional RNN imputation.
#[derive(Clone, Copy, Debug)]
pub struct Mrnn {
    /// Recurrent state width of the per-stream bidirectional RNN.
    pub hidden: usize,
    /// Hidden width of the cross-stream imputation block.
    pub fc_hidden: usize,
    /// Training windows sampled.
    pub train_samples: usize,
    /// Length of each training window.
    pub window_len: usize,
    /// Fraction of observed positions artificially dropped per training window.
    pub drop_frac: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Mrnn {
    fn default() -> Self {
        Self {
            hidden: 24,
            fc_hidden: 32,
            train_samples: 120,
            window_len: 80,
            drop_frac: 0.15,
            lr: 5e-3,
            seed: 29,
        }
    }
}

impl Mrnn {
    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        Self { hidden: 10, fc_hidden: 12, train_samples: 50, window_len: 50, ..Self::default() }
    }
}

struct MrnnModel {
    store: ParamStore,
    fwd: GruCell,
    bwd: GruCell,
    /// Interpolation regression: `[h_fwd, h_bwd] -> scalar estimate`.
    interp: Linear,
    /// Imputation block: `[x̃_{•,t}, mask_{•,t}] -> x̂_{•,t}`.
    fc1: Linear,
    fc2: Linear,
}

impl MrnnModel {
    fn new(cfg: &Mrnn, m: usize) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Stream inputs are (value, mask) pairs; weights shared across streams.
        let fwd = GruCell::new(&mut store, &mut rng, "fwd", 2, cfg.hidden);
        let bwd = GruCell::new(&mut store, &mut rng, "bwd", 2, cfg.hidden);
        let interp = Linear::new(&mut store, &mut rng, "interp", 2 * cfg.hidden, 1);
        let fc1 = Linear::new(&mut store, &mut rng, "fc1", 2 * m, cfg.fc_hidden);
        let fc2 = Linear::new(&mut store, &mut rng, "fc2", cfg.fc_hidden, m);
        Self { store, fwd, bwd, interp, fc1, fc2 }
    }

    /// Interpolation block over one stream window: bidirectional pass, per-position
    /// scalar estimates (length = window).
    fn interpolate_stream(&self, g: &mut Graph, vals: &[f64], avail: &[f64]) -> Vec<VarId> {
        let n = vals.len();
        let hidden = self.store.value(self.interp.w).rows() / 2;
        let mut hf = g.constant(Tensor::zeros(&[hidden]));
        let mut fstates = Vec::with_capacity(n);
        for t in 0..n {
            let x = g.constant_slice(&[vals[t] * avail[t], avail[t]]);
            hf = self.fwd.step(g, &self.store, x, hf);
            fstates.push(hf);
        }
        let mut hb = g.constant(Tensor::zeros(&[hidden]));
        let mut bstates = vec![hb; n];
        for t in (0..n).rev() {
            let x = g.constant_slice(&[vals[t] * avail[t], avail[t]]);
            hb = self.bwd.step(g, &self.store, x, hb);
            bstates[t] = hb;
        }
        (0..n)
            .map(|t| {
                // States *adjacent* to t so the estimate never reads x_t directly:
                // forward state up to t-1, backward state down to t+1.
                let f = if t > 0 { fstates[t - 1] } else { g.constant(Tensor::zeros(&[hidden])) };
                let b =
                    if t + 1 < n { bstates[t + 1] } else { g.constant(Tensor::zeros(&[hidden])) };
                let cat = g.concat1d(&[f, b]);
                self.interp.forward_vec(g, &self.store, cat)
            })
            .collect()
    }

    /// Imputation block at one time step: refine the stream estimates jointly.
    fn impute_step(&self, g: &mut Graph, estimates: VarId, mask: &[f64]) -> VarId {
        let maskc = g.constant_slice(mask);
        let input = g.concat1d(&[estimates, maskc]);
        let h = self.fc1.forward_vec(g, &self.store, input);
        let h = g.relu(h);
        self.fc2.forward_vec(g, &self.store, h)
    }
}

impl Imputer for Mrnn {
    fn name(&self) -> String {
        "MRNN".to_string()
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let flat = obs.flattened();
        let m = flat.n_series();
        let t_len = flat.t_len();
        let mut model = MrnnModel::new(self, m);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x33AA);
        let adam = AdamConfig { lr: self.lr, ..AdamConfig::default() };
        let win = self.window_len.min(t_len);

        for _ in 0..self.train_samples {
            let start = if t_len > win { rng.gen_range(0..t_len - win) } else { 0 };
            let mut g = Graph::new();
            let mut losses: Vec<VarId> = Vec::new();
            // Per-stream interpolation with artificial drops.
            let mut stream_estimates: Vec<Vec<VarId>> = Vec::with_capacity(m);
            let mut eff_masks: Vec<Vec<f64>> = Vec::with_capacity(m);
            for s in 0..m {
                let vals: Vec<f64> = flat.values.series(s)[start..start + win].to_vec();
                let avail: Vec<f64> = flat.available.series(s)[start..start + win]
                    .iter()
                    .map(|&a| if a && rng.gen::<f64>() >= self.drop_frac { 1.0 } else { 0.0 })
                    .collect();
                let est = model.interpolate_stream(&mut g, &vals, &avail);
                // Interpolation loss at genuinely-observed positions.
                for t in 0..win {
                    if flat.available.series(s)[start + t] {
                        let target = g.scalar(vals[t]);
                        let d = g.sub(est[t], target);
                        losses.push(g.square(d));
                    }
                }
                stream_estimates.push(est);
                eff_masks.push(avail);
            }
            // Cross-stream refinement at a few sampled time steps (full windows
            // would dominate the cost quadratically in m).
            for _ in 0..8 {
                let t = rng.gen_range(0..win);
                let parts: Vec<VarId> = (0..m).map(|s| stream_estimates[s][t]).collect();
                let est_vec = g.concat1d(&parts);
                let mask: Vec<f64> = (0..m).map(|s| eff_masks[s][t]).collect();
                let refined = model.impute_step(&mut g, est_vec, &mask);
                for s in 0..m {
                    if flat.available.series(s)[start + t] {
                        let target = g.scalar(flat.values.series(s)[start + t]);
                        let e = g.index1d(refined, s);
                        let d = g.sub(e, target);
                        losses.push(g.square(d));
                    }
                }
            }
            if losses.is_empty() {
                continue;
            }
            let stacked = g.concat1d(&losses);
            let loss = g.mean(stacked);
            let grads = g.backward(loss);
            model.store.accumulate(g.param_grads(&grads));
            model.store.adam_step(&adam, 1.0);
        }

        // Inference: interpolation estimates over the full length, then the
        // cross-stream block at every time step with any missing entry.
        let mut g = Graph::new();
        let mut stream_estimates: Vec<Vec<VarId>> = Vec::with_capacity(m);
        for s in 0..m {
            let vals: Vec<f64> = flat.values.series(s).to_vec();
            let avail: Vec<f64> =
                flat.available.series(s).iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
            stream_estimates.push(model.interpolate_stream(&mut g, &vals, &avail));
        }
        let mut out = obs.values.clone();
        for t in 0..t_len {
            let any_missing = (0..m).any(|s| !flat.available.series(s)[t]);
            if !any_missing {
                continue;
            }
            let parts: Vec<VarId> = (0..m).map(|s| stream_estimates[s][t]).collect();
            let est_vec = g.concat1d(&parts);
            let mask: Vec<f64> =
                (0..m).map(|s| if flat.available.series(s)[t] { 1.0 } else { 0.0 }).collect();
            let refined = model.impute_step(&mut g, est_vec, &mask);
            let rv = g.value(refined);
            for s in 0..m {
                if !flat.available.series(s)[t] {
                    out.data_mut()[s * t_len + t] = rv.at(s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::imputer::MeanImputer;
    use mvi_data::metrics::mae;
    use mvi_data::scenarios::Scenario;

    #[test]
    fn mrnn_beats_mean_on_smooth_correlated_data() {
        let ds = generate_with_shape(DatasetName::Bafu, &[4], 200, 3);
        let inst = Scenario::mcar(1.0).apply(&ds, 5);
        let obs = inst.observed();
        let mrnn = mae(&ds.values, &Mrnn::tiny().impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(mrnn < mean, "mrnn {mrnn} vs mean {mean}");
    }

    #[test]
    fn mrnn_output_finite_and_preserves_observed() {
        let ds = generate_with_shape(DatasetName::AirQ, &[4], 150, 8);
        let inst = Scenario::Blackout { block_len: 20 }.apply(&ds, 2);
        let obs = inst.observed();
        let out = Mrnn::tiny().impute(&obs);
        assert!(out.all_finite());
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i));
            }
        }
    }
}
