//! BRITS \[4\]: bidirectional recurrent imputation for time series (Cao et al.).

use mvi_autograd::{AdamConfig, Evaluator, Graph, GruCell, Linear, ParamStore, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bidirectional recurrent imputation.
///
/// The RNN consumes the whole cross-series column `X_{•,t}` at each step (exactly
/// the design the paper criticizes for limiting scalability in the number of
/// series, §3): per direction, the hidden state is decayed by a learned function of
/// the per-series gap since the last observation, a regression head predicts the
/// column *before* seeing it, observed entries supervise that prediction, and the
/// input is the observed column with missing entries replaced by the prediction.
#[derive(Clone, Copy, Debug)]
pub struct Brits {
    /// Recurrent state width.
    pub hidden: usize,
    /// Training windows sampled per epoch-equivalent.
    pub train_samples: usize,
    /// Length of each training window.
    pub window_len: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Weight of the forward/backward consistency penalty.
    pub consistency: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Brits {
    fn default() -> Self {
        Self {
            hidden: 32,
            train_samples: 150,
            window_len: 120,
            lr: 1e-2,
            consistency: 0.1,
            seed: 5,
        }
    }
}

impl Brits {
    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        Self { hidden: 12, train_samples: 40, window_len: 60, ..Self::default() }
    }
}

struct BritsParams {
    cell: GruCell,
    /// Hidden-state temporal decay from the per-series observation gaps.
    decay: Linear,
    /// Regression head: hidden state -> cross-series column estimate.
    regress: Linear,
}

struct BritsModel {
    store: ParamStore,
    fwd: BritsParams,
    bwd: BritsParams,
    m: usize,
}

impl BritsModel {
    fn new(cfg: &Brits, m: usize) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let build = |store: &mut ParamStore, rng: &mut StdRng, tag: &str| BritsParams {
            cell: GruCell::new(store, rng, &format!("{tag}.gru"), 2 * m, cfg.hidden),
            decay: Linear::new(store, rng, &format!("{tag}.decay"), m, cfg.hidden),
            regress: Linear::new(store, rng, &format!("{tag}.reg"), cfg.hidden, m),
        };
        let fwd = build(&mut store, &mut rng, "fwd");
        let bwd = build(&mut store, &mut rng, "bwd");
        Self { store, fwd, bwd, m }
    }

    /// One directional pass over columns `cols[t]` (length `m` each) with
    /// availability `avail[t]`; returns the per-step pre-update estimates.
    ///
    /// `collect_loss` accumulates the observed-entry reconstruction errors.
    fn directional(
        &self,
        g: &mut Graph,
        params: &BritsParams,
        cols: &[Vec<f64>],
        avail: &[Vec<bool>],
        losses: Option<&mut Vec<VarId>>,
    ) -> Vec<VarId> {
        let m = self.m;
        let hidden_dim = {
            // decay layer output width == hidden width
            self.store.value(params.decay.w).cols()
        };
        let mut h = g.constant(Tensor::zeros(&[hidden_dim]));
        let mut gaps = vec![1.0f64; m];
        let mut estimates = Vec::with_capacity(cols.len());
        let mut loss_acc = losses;
        for (t, (col, av)) in cols.iter().zip(avail).enumerate() {
            // Temporal decay of the hidden state from the observation gaps.
            let delta = g.constant_slice(&gaps);
            let decay_lin = params.decay.forward_vec(g, &self.store, delta);
            let decay_rel = g.relu(decay_lin);
            let neg = g.neg(decay_rel);
            let gamma = g.exp(neg);
            h = g.mul(h, gamma);

            // Predict the column before seeing it (history-only estimate).
            let xhat = params.regress.forward_vec(g, &self.store, h);
            estimates.push(xhat);

            // Observed entries supervise the prediction.
            if let Some(acc) = loss_acc.as_deref_mut() {
                let observed_idx: Vec<usize> = (0..m).filter(|&i| av[i]).collect();
                if !observed_idx.is_empty() {
                    let mask_vec: Vec<f64> =
                        (0..m).map(|i| if av[i] { 1.0 } else { 0.0 }).collect();
                    let maskc = g.constant_slice(&mask_vec);
                    let colc = g.constant_slice(col);
                    let diff = g.sub(xhat, colc);
                    let masked = g.mul(diff, maskc);
                    let sq = g.square(masked);
                    let s = g.sum(sq);
                    let scaled = g.scale(s, 1.0 / observed_idx.len() as f64);
                    acc.push(scaled);
                }
            }

            // Complemented input: observed values, predictions at missing entries.
            let mask_vec: Vec<f64> = (0..m).map(|i| if av[i] { 1.0 } else { 0.0 }).collect();
            let inv_mask: Vec<f64> = mask_vec.iter().map(|&v| 1.0 - v).collect();
            let maskc = g.constant_slice(&mask_vec);
            let invc = g.constant_slice(&inv_mask);
            let colc = g.constant_slice(col);
            let obs_part = g.mul(colc, maskc);
            let est_part = g.mul(xhat, invc);
            let x_comp = g.add(obs_part, est_part);
            let input = g.concat1d(&[x_comp, maskc]);
            h = params.cell.step(g, &self.store, input, h);

            // Gap bookkeeping.
            for i in 0..m {
                gaps[i] = if av[i] { 1.0 } else { gaps[i] + 1.0 };
            }
            let _ = t;
        }
        estimates
    }
}

impl Imputer for Brits {
    fn name(&self) -> String {
        "BRITS".to_string()
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let flat = obs.flattened();
        let m = flat.n_series();
        let t_len = flat.t_len();
        let mut model = BritsModel::new(self, m);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xB217);
        let adam = AdamConfig { lr: self.lr, ..AdamConfig::default() };
        let win = self.window_len.min(t_len);

        // Column-major copies for fast window slicing.
        let columns: Vec<Vec<f64>> =
            (0..t_len).map(|t| (0..m).map(|s| flat.values.series(s)[t]).collect()).collect();
        let avail: Vec<Vec<bool>> =
            (0..t_len).map(|t| (0..m).map(|s| flat.available.series(s)[t]).collect()).collect();

        for _ in 0..self.train_samples {
            let start = if t_len > win { rng.gen_range(0..t_len - win) } else { 0 };
            let cols = &columns[start..start + win];
            let avs = &avail[start..start + win];
            let mut g = Graph::new();
            let mut losses = Vec::new();
            let est_f = model.directional(&mut g, &model.fwd, cols, avs, Some(&mut losses));
            let rev_cols: Vec<Vec<f64>> = cols.iter().rev().cloned().collect();
            let rev_avs: Vec<Vec<bool>> = avs.iter().rev().cloned().collect();
            let est_b =
                model.directional(&mut g, &model.bwd, &rev_cols, &rev_avs, Some(&mut losses));
            // Consistency between the two directions' estimates at each step.
            for (t, &ef) in est_f.iter().enumerate() {
                let eb = est_b[win - 1 - t];
                let d = g.sub(ef, eb);
                let sq = g.square(d);
                let mean = g.mean(sq);
                losses.push(g.scale(mean, self.consistency));
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

        // Inference: full bidirectional pass, average the directional estimates.
        let mut g = Graph::new();
        let est_f = model.directional(&mut g, &model.fwd, &columns, &avail, None);
        let rev_cols: Vec<Vec<f64>> = columns.iter().rev().cloned().collect();
        let rev_avs: Vec<Vec<bool>> = avail.iter().rev().cloned().collect();
        let est_b = model.directional(&mut g, &model.bwd, &rev_cols, &rev_avs, None);

        let mut out = obs.values.clone();
        for t in 0..t_len {
            let ef = g.value(est_f[t]);
            let eb = g.value(est_b[t_len - 1 - t]);
            for s in 0..m {
                if !flat.available.series(s)[t] {
                    let v = 0.5 * (ef.at(s) + eb.at(s));
                    out.data_mut()[s * t_len + t] = v;
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
    fn brits_beats_mean_on_correlated_data() {
        let ds = generate_with_shape(DatasetName::Temperature, &[5], 240, 2);
        let inst = Scenario::mcar(1.0).apply(&ds, 3);
        let obs = inst.observed();
        let brits = mae(&ds.values, &Brits::tiny().impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(brits < mean, "brits {brits} vs mean {mean}");
    }

    #[test]
    fn output_finite_and_observed_preserved() {
        let ds = generate_with_shape(DatasetName::AirQ, &[4], 150, 7);
        let inst = Scenario::MissDisj.apply(&ds, 1);
        let obs = inst.observed();
        let out = Brits::tiny().impute(&obs);
        assert!(out.all_finite());
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i));
            }
        }
    }

    #[test]
    fn multidim_input_is_flattened() {
        let ds = generate_with_shape(DatasetName::JanataHack, &[3, 4], 130, 4);
        let inst = Scenario::mcar(1.0).apply(&ds, 5);
        let obs = inst.observed();
        let out = Brits::tiny().impute(&obs);
        assert_eq!(out.shape(), ds.values.shape());
        assert!(out.all_finite());
    }
}
