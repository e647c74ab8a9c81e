//! GP-VAE \[8\] (simplified): deep probabilistic imputation with a latent path prior
//! (Fortuin et al.). The structured GP prior across time is
//! replaced by a first-order Ornstein–Uhlenbeck smoothness prior on the latent
//! means, keeping the defining behaviour (temporally correlated latents, imputation
//! by decoding the posterior mean) without banded-precision variational machinery.

use mvi_autograd::{randn, AdamConfig, Evaluator, Graph, Linear, ParamStore, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Variational autoencoder over cross-series columns with a temporal smoothness
/// prior in latent space.
#[derive(Clone, Copy, Debug)]
pub struct GpVae {
    /// Latent width.
    pub latent: usize,
    /// Encoder/decoder hidden width.
    pub hidden: usize,
    /// Training windows.
    pub train_samples: usize,
    /// Window length.
    pub window_len: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// KL weight (β).
    pub beta: f64,
    /// OU smoothness weight on consecutive latent means.
    pub smooth: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GpVae {
    fn default() -> Self {
        Self {
            latent: 8,
            hidden: 32,
            train_samples: 150,
            window_len: 100,
            lr: 1e-2,
            beta: 0.05,
            smooth: 0.5,
            seed: 11,
        }
    }
}

impl GpVae {
    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        Self { latent: 4, hidden: 12, train_samples: 40, window_len: 50, ..Self::default() }
    }
}

struct GpVaeModel {
    store: ParamStore,
    enc1: Linear,
    enc_mu: Linear,
    enc_logvar: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl GpVaeModel {
    fn new(cfg: &GpVae, m: usize) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Inputs carry the availability flags alongside the (zero-filled) values.
        let enc1 = Linear::new(&mut store, &mut rng, "enc1", 2 * m, cfg.hidden);
        let enc_mu = Linear::new(&mut store, &mut rng, "enc_mu", cfg.hidden, cfg.latent);
        let enc_logvar = Linear::new(&mut store, &mut rng, "enc_logvar", cfg.hidden, cfg.latent);
        let dec1 = Linear::new(&mut store, &mut rng, "dec1", cfg.latent, cfg.hidden);
        let dec2 = Linear::new(&mut store, &mut rng, "dec2", cfg.hidden, m);
        Self { store, enc1, enc_mu, enc_logvar, dec1, dec2 }
    }

    /// Encodes one column to its latent mean and log-variance.
    fn encode(&self, g: &mut Graph, col: &[f64], avail: &[bool]) -> (VarId, VarId) {
        let mut input: Vec<f64> = col.to_vec();
        input.extend(avail.iter().map(|&a| if a { 1.0 } else { 0.0 }));
        let x = g.constant_slice(&input);
        let h = self.enc1.forward_vec(g, &self.store, x);
        let h = g.tanh(h);
        let mu = self.enc_mu.forward_vec(g, &self.store, h);
        let logvar = self.enc_logvar.forward_vec(g, &self.store, h);
        (mu, logvar)
    }

    /// Decodes a latent vector to a column estimate.
    fn decode(&self, g: &mut Graph, z: VarId) -> VarId {
        let h = self.dec1.forward_vec(g, &self.store, z);
        let h = g.tanh(h);
        self.dec2.forward_vec(g, &self.store, h)
    }
}

impl Imputer for GpVae {
    fn name(&self) -> String {
        "GPVAE".to_string()
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let flat = obs.flattened();
        let m = flat.n_series();
        let t_len = flat.t_len();
        let model = GpVaeModel::new(self, m);
        let mut model = model;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6B9A);
        let adam = AdamConfig { lr: self.lr, ..AdamConfig::default() };
        let win = self.window_len.min(t_len);

        let columns: Vec<Vec<f64>> =
            (0..t_len).map(|t| (0..m).map(|s| flat.values.series(s)[t]).collect()).collect();
        let avail: Vec<Vec<bool>> =
            (0..t_len).map(|t| (0..m).map(|s| flat.available.series(s)[t]).collect()).collect();

        for _ in 0..self.train_samples {
            let start = if t_len > win { rng.gen_range(0..t_len - win) } else { 0 };
            let mut g = Graph::new();
            let mut losses: Vec<VarId> = Vec::new();
            let mut prev_mu: Option<VarId> = None;
            for t in start..start + win {
                let (mu, logvar) = model.encode(&mut g, &columns[t], &avail[t]);
                // Reparameterized sample z = μ + σ·ε.
                let eps: Vec<f64> = (0..self.latent).map(|_| randn(&mut rng)).collect();
                let epsc = g.constant_slice(&eps);
                let half = g.scale(logvar, 0.5);
                let sigma = g.exp(half);
                let noise = g.mul(sigma, epsc);
                let z = g.add(mu, noise);
                let recon = model.decode(&mut g, z);

                // Reconstruction at observed entries.
                let mask: Vec<f64> = avail[t].iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
                let n_obs = mask.iter().sum::<f64>();
                if n_obs > 0.0 {
                    let maskc = g.constant_slice(&mask);
                    let colc = g.constant_slice(&columns[t]);
                    let diff = g.sub(recon, colc);
                    let md = g.mul(diff, maskc);
                    let sq = g.square(md);
                    let s = g.sum(sq);
                    losses.push(g.scale(s, 1.0 / n_obs));
                }

                // β·KL(q ‖ N(0,1)) = β/2 Σ (μ² + σ² − logσ² − 1).
                let mu2 = g.square(mu);
                let var = g.exp(logvar);
                let sum_terms = g.add(mu2, var);
                let minus_logvar = g.neg(logvar);
                let kl_inner = g.add(sum_terms, minus_logvar);
                let kl_shift = g.add_scalar(kl_inner, -1.0);
                let kl = g.sum(kl_shift);
                losses.push(g.scale(kl, 0.5 * self.beta / self.latent as f64));

                // OU smoothness prior on consecutive latent means.
                if let Some(pm) = prev_mu {
                    let d = g.sub(mu, pm);
                    let sq = g.square(d);
                    let s = g.mean(sq);
                    losses.push(g.scale(s, self.smooth));
                }
                prev_mu = Some(mu);
            }
            let stacked = g.concat1d(&losses);
            let loss = g.mean(stacked);
            let grads = g.backward(loss);
            model.store.accumulate(g.param_grads(&grads));
            model.store.adam_step(&adam, 1.0);
        }

        // Impute by decoding the posterior mean at every step.
        let mut out = obs.values.clone();
        for t in 0..t_len {
            let mut g = Graph::new();
            let (mu, _) = model.encode(&mut g, &columns[t], &avail[t]);
            let recon = model.decode(&mut g, mu);
            let rv = g.value(recon);
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
    fn gpvae_beats_mean_on_strongly_correlated_data() {
        let ds = generate_with_shape(DatasetName::Temperature, &[6], 200, 3);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        let obs = inst.observed();
        let vae = mae(&ds.values, &GpVae::tiny().impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(vae < mean, "gpvae {vae} vs mean {mean}");
    }

    #[test]
    fn output_finite_on_blackout() {
        let ds = generate_with_shape(DatasetName::Meteo, &[4], 180, 1);
        let inst = Scenario::Blackout { block_len: 25 }.apply(&ds, 6);
        let out = GpVae::tiny().impute(&inst.observed());
        assert!(out.all_finite());
    }

    #[test]
    fn observed_entries_are_preserved() {
        let ds = generate_with_shape(DatasetName::Gas, &[4], 150, 9);
        let inst = Scenario::mcar(0.5).apply(&ds, 4);
        let obs = inst.observed();
        let out = GpVae::tiny().impute(&obs);
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i));
            }
        }
    }
}
