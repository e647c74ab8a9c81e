//! The vanilla Transformer baseline \[25\] of §5.4: per-point tokens with full
//! self-attention, trained by masked-value reconstruction (§2.3.2).
//!
//! Each position of a series becomes a token `[value, availability]` embedded to
//! width `d` plus the sinusoidal positional encoding (Eq 2); a stack of
//! multi-head self-attention + feed-forward layers produces contextual vectors; a
//! linear head reads the value back out. Training masks random observed positions
//! and computes loss only there (the standard masked-language-model recipe the
//! paper describes for transformers). Because tokens are *points*, attention costs
//! grow with the square of the raw context length — this is the baseline DeepMVI's
//! window features beat by 2.5–7× in runtime (Fig 10a).

use mvi_autograd::{positional_encoding, AdamConfig, Evaluator, Graph, Linear, ParamStore, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_tensor::{Mask, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Off-the-shelf transformer for per-series imputation.
#[derive(Clone, Copy, Debug)]
pub struct VanillaTransformer {
    /// Token embedding width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Point context length (tokens per attention block).
    pub context: usize,
    /// Training samples (masked windows).
    pub train_samples: usize,
    /// Fraction of observed context positions masked per sample.
    pub mask_frac: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VanillaTransformer {
    fn default() -> Self {
        Self {
            d_model: 32,
            n_heads: 4,
            context: 128,
            train_samples: 200,
            mask_frac: 0.15,
            lr: 1e-3,
            seed: 23,
        }
    }
}

impl VanillaTransformer {
    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            d_model: 12,
            n_heads: 2,
            context: 48,
            train_samples: 160,
            lr: 3e-3,
            ..Self::default()
        }
    }
}

struct Head {
    wq: Linear,
    wk: Linear,
    wv: Linear,
}

struct TransformerModel {
    store: ParamStore,
    embed: Linear,
    heads: Vec<Head>,
    proj: Linear,
    ff1: Linear,
    ff2: Linear,
    out: Linear,
    d: usize,
}

impl TransformerModel {
    fn new(cfg: &VanillaTransformer) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.d_model;
        let dk = d / cfg.n_heads.max(1);
        let heads = (0..cfg.n_heads)
            .map(|h| Head {
                wq: Linear::new_no_bias(&mut store, &mut rng, &format!("h{h}.q"), d, dk),
                wk: Linear::new_no_bias(&mut store, &mut rng, &format!("h{h}.k"), d, dk),
                wv: Linear::new_no_bias(&mut store, &mut rng, &format!("h{h}.v"), d, dk),
            })
            .collect();
        Self {
            embed: Linear::new(&mut store, &mut rng, "embed", 2, d),
            heads,
            proj: Linear::new(&mut store, &mut rng, "proj", d, d),
            ff1: Linear::new(&mut store, &mut rng, "ff1", d, 2 * d),
            ff2: Linear::new(&mut store, &mut rng, "ff2", 2 * d, d),
            out: Linear::new(&mut store, &mut rng, "out", d, 1),
            store,
            d,
        }
    }

    /// Contextual per-position scalar estimates over one token window.
    ///
    /// `tokens[i] = (value, available)` where masked/missing positions carry
    /// `value = 0.0, available = false`; `start` is the absolute position of the
    /// first token (for the positional encoding).
    fn forward(&self, g: &mut Graph, tokens: &[(f64, bool)], start: usize) -> VarId {
        let n = tokens.len();
        let input = Tensor::from_fn(&[n, 2], |idx| match idx[1] {
            0 => tokens[idx[0]].0,
            _ => {
                if tokens[idx[0]].1 {
                    1.0
                } else {
                    0.0
                }
            }
        });
        let x = g.constant(input);
        let e = self.embed.forward(g, &self.store, x);
        let positions: Vec<usize> = (start..start + n).collect();
        let pe = g.constant(positional_encoding(&positions, self.d));
        let h0 = g.add(e, pe);

        // Queries come from every position; keys only from available ones.
        let mask = {
            let mut m = Mask::falses(&[n, n]);
            for row in 0..n {
                for (col, &(_, avail)) in tokens.iter().enumerate() {
                    if avail {
                        m.set(&[row, col], true);
                    }
                }
            }
            m
        };
        let scale = 1.0 / (self.d as f64 / self.heads.len() as f64).sqrt();
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let q = head.wq.forward(g, &self.store, h0);
            let k = head.wk.forward(g, &self.store, h0);
            let v = head.wv.forward(g, &self.store, h0);
            let kt = g.transpose(k);
            let scores_raw = g.matmul(q, kt);
            let scores = g.scale(scores_raw, scale);
            let attn = g.masked_softmax_rows(scores, &mask);
            outs.push(g.matmul(attn, v));
        }
        let cat = g.concat_cols(&outs);
        let attn_out = self.proj.forward(g, &self.store, cat);
        let res1 = g.add(h0, attn_out); // residual
        let ff = self.ff1.forward(g, &self.store, res1);
        let ff = g.relu(ff);
        let ff = self.ff2.forward(g, &self.store, ff);
        let res2 = g.add(res1, ff); // residual
        self.out.forward(g, &self.store, res2) // [n, 1]
    }
}

impl Imputer for VanillaTransformer {
    fn name(&self) -> String {
        "Transformer".to_string()
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let flat = obs.flattened();
        let m = flat.n_series();
        let t_len = flat.t_len();
        let ctx = self.context.min(t_len);
        let mut model = TransformerModel::new(self);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7F4A);
        let adam = AdamConfig { lr: self.lr, ..AdamConfig::default() };

        // Training: random (series, window) with random masking of observed points.
        for _ in 0..self.train_samples {
            let s = rng.gen_range(0..m);
            let start = if t_len > ctx { rng.gen_range(0..t_len - ctx) } else { 0 };
            let vals = flat.values.series(s);
            let avail = flat.available.series(s);
            // Mask a contiguous block (mirroring block misses) plus random points.
            let block_len = (ctx / 8).clamp(1, 10);
            let block_start = rng.gen_range(0..ctx - block_len + 1);
            let mut tokens: Vec<(f64, bool)> = Vec::with_capacity(ctx);
            let mut targets: Vec<(usize, f64)> = Vec::new();
            for (i, t) in (start..start + ctx).enumerate() {
                let in_block = i >= block_start && i < block_start + block_len;
                let point_mask = rng.gen::<f64>() < self.mask_frac;
                if avail[t] && (in_block || point_mask) {
                    tokens.push((0.0, false));
                    targets.push((i, vals[t]));
                } else if avail[t] {
                    tokens.push((vals[t], true));
                } else {
                    tokens.push((0.0, false));
                }
            }
            if targets.is_empty() {
                continue;
            }
            let mut g = Graph::new();
            let est = model.forward(&mut g, &tokens, start);
            let mut errs = Vec::with_capacity(targets.len());
            for &(i, y) in &targets {
                let row = g.row(est, i);
                let e = g.index1d(row, 0);
                let yc = g.scalar(y);
                let d = g.sub(e, yc);
                errs.push(g.square(d));
            }
            let stacked = g.concat1d(&errs);
            let loss = g.mean(stacked);
            let grads = g.backward(loss);
            model.store.accumulate(g.param_grads(&grads));
            model.store.adam_step(&adam, 1.0);
        }

        // Inference: window centred on each missing run.
        let mut out = obs.values.clone();
        let missing = flat.available.complement();
        for s in 0..m {
            let vals = flat.values.series(s).to_vec();
            let avail = flat.available.series(s).to_vec();
            for (run_start, run_len) in missing.runs(s) {
                let run_end = run_start + run_len;
                let mut t = run_start;
                while t < run_end {
                    let centre = t + (ctx / 2).min(run_end - t);
                    let start = centre.saturating_sub(ctx / 2).min(t_len - ctx);
                    let tokens: Vec<(f64, bool)> = (start..start + ctx)
                        .map(|tt| if avail[tt] { (vals[tt], true) } else { (0.0, false) })
                        .collect();
                    let mut g = Graph::new();
                    let est = model.forward(&mut g, &tokens, start);
                    let ev = g.value(est);
                    let stop = run_end.min(start + ctx);
                    while t < stop {
                        if t >= start {
                            out.data_mut()[s * t_len + t] = ev.m(t - start, 0);
                        }
                        t += 1;
                    }
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
    fn transformer_beats_mean_on_periodic_data() {
        let ds = generate_with_shape(DatasetName::Chlorine, &[4], 240, 8);
        let inst = Scenario::mcar(1.0).apply(&ds, 5);
        let obs = inst.observed();
        let tf = mae(&ds.values, &VanillaTransformer::tiny().impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(tf < mean, "transformer {tf} vs mean {mean}");
    }

    #[test]
    fn all_missing_entries_filled_finite() {
        let ds = generate_with_shape(DatasetName::Electricity, &[4], 200, 2);
        let inst = Scenario::Blackout { block_len: 30 }.apply(&ds, 3);
        let obs = inst.observed();
        let out = VanillaTransformer::tiny().impute(&obs);
        assert!(out.all_finite());
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i));
            }
        }
    }

    #[test]
    fn short_series_are_handled() {
        // Context longer than the series must clamp, not panic.
        let ds = generate_with_shape(DatasetName::AirQ, &[4], 130, 5);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        let cfg = VanillaTransformer { context: 512, ..VanillaTransformer::tiny() };
        let out = cfg.impute(&inst.observed());
        assert!(out.all_finite());
    }
}
