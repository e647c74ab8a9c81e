//! Training (likelihood maximization over synthetic missing blocks, §3) and
//! inference (imputation of the real missing blocks).

use crate::model::{DeepMviModel, ForwardScratch, WindowTask};
use crate::sampling::{sample_instance, TrainInstance};
use mvi_autograd::{AdamConfig, Eval, EvalVar, Evaluator, Graph, ParamId, ParamStore, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The recycled tapes of one fit, at most one per worker: each worker takes
/// one for its share of a batch and puts it back, so every step after the
/// first records into buffers that are already sized. Dropped when `fit`
/// returns, so a trained model keeps no arena.
type Tapes = Mutex<Vec<(Graph, ForwardScratch<VarId>)>>;

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Optimizer steps actually executed (≤ `max_steps` with early stopping).
    pub steps: usize,
    /// Best validation MSE reached.
    pub best_val: f64,
    /// Validation MSE trace, one entry per evaluation.
    pub val_trace: Vec<f64>,
}

impl DeepMviModel {
    /// Trains the parameters on `obs` itself, with early stopping on held-out
    /// synthetic-missing instances. Returns the training summary.
    pub fn fit(&mut self, obs: &ObservedDataset) -> TrainReport {
        let cfg = self.cfg.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD_EF01);
        let mut val_rng = StdRng::seed_from_u64(cfg.seed ^ 0x1234_5678);
        let val_set: Vec<TrainInstance> = (0..cfg.val_instances)
            .filter_map(|_| sample_instance(self, obs, &mut val_rng))
            .collect();

        let adam = AdamConfig { lr: cfg.lr, ..AdamConfig::default() };
        let mut best_val = f64::INFINITY;
        let mut best_snapshot = self.store.snapshot();
        let mut stale_evals = 0usize;
        let mut val_trace = Vec::new();
        let mut steps_run = 0usize;
        let tapes = Tapes::default();
        let mut val_eval = (Eval::default(), ForwardScratch::default());

        for step in 0..cfg.max_steps {
            let batch: Vec<TrainInstance> =
                (0..cfg.batch_size).filter_map(|_| sample_instance(self, obs, &mut rng)).collect();
            if batch.is_empty() {
                break;
            }
            let n_batch = batch.len();
            let grads = self.batch_gradients(obs, &batch, &tapes);
            self.store.accumulate(grads);
            self.store.adam_step(&adam, 1.0 / n_batch as f64);
            steps_run = step + 1;

            if !val_set.is_empty() && (step + 1) % cfg.eval_every == 0 {
                let val = self.evaluate(&mut val_eval, obs, &val_set);
                val_trace.push(val);
                if val + 1e-6 < best_val {
                    best_val = val;
                    best_snapshot = self.store.snapshot();
                    stale_evals = 0;
                } else {
                    stale_evals += 1;
                    if stale_evals >= cfg.patience {
                        break; // early stopping (§3)
                    }
                }
            }
        }
        if best_val.is_finite() {
            self.store.restore(&best_snapshot);
            // The conditional model is a Gaussian with shared variance (§4); the
            // validation MSE is its natural estimate.
            self.shared_std = Some(best_val.sqrt());
        }
        TrainReport { steps: steps_run, best_val, val_trace }
    }

    /// Summed parameter gradients over a batch, data-parallel across
    /// `cfg.threads` workers via the shared `mvi_parallel` pool (each worker
    /// records on its own tape from `tapes`; the shared store is read only).
    fn batch_gradients(
        &self,
        obs: &ObservedDataset,
        batch: &[TrainInstance],
        tapes: &Tapes,
    ) -> Vec<(ParamId, Tensor)> {
        let threads = self.cfg.threads.max(1).min(batch.len());
        mvi_parallel::map_chunks(batch, threads, |part| {
            let (mut g, mut fs) = tapes.lock().expect("tape pool").pop().unwrap_or_default();
            let grads: Vec<_> = part
                .iter()
                .flat_map(|inst| self.instance_gradients(&mut g, &mut fs, obs, inst))
                .collect();
            tapes.lock().expect("tape pool").push((g, fs));
            grads
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn instance_gradients(
        &self,
        g: &mut Graph,
        fs: &mut ForwardScratch<VarId>,
        obs: &ObservedDataset,
        inst: &TrainInstance,
    ) -> Vec<(ParamId, Tensor)> {
        g.recycle();
        let loss = self.instance_loss(&self.store, g, fs, obs, inst);
        let grads = g.backward(loss);
        g.param_grads(&grads)
    }

    /// Squared-error loss of one instance (mean over its masked positions).
    fn instance_loss<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        obs: &ObservedDataset,
        inst: &TrainInstance,
    ) -> E::Var {
        let task = WindowTask {
            obs,
            s: inst.s,
            window_j: inst.window_j,
            positions: &inst.positions,
            synth: Some(&inst.synth),
        };
        self.forward_positions(store, g, fs, &task);
        let mut errs = Vec::with_capacity(fs.preds.len());
        for (&pred, &target) in fs.preds.iter().zip(&inst.targets) {
            let t = g.scalar(target);
            let d = g.sub(pred, t);
            errs.push(g.square(d));
        }
        let stacked = g.concat1d(&errs);
        g.mean(stacked)
    }

    /// Mean validation MSE over a fixed instance set, value-only on the
    /// fit's recycled evaluator.
    fn evaluate(
        &self,
        (ev, fs): &mut (Eval, ForwardScratch<EvalVar>),
        obs: &ObservedDataset,
        val_set: &[TrainInstance],
    ) -> f64 {
        let mut total = 0.0;
        for inst in val_set {
            ev.recycle();
            let loss = self.instance_loss(&self.store, ev, fs, obs, inst);
            total += ev.value(loss).at(0);
        }
        total / val_set.len() as f64
    }

    /// Imputes every missing entry of `obs` with the trained model.
    ///
    /// Routes through the shared inference path ([`crate::infer`]): missing
    /// runs become [`crate::infer::WindowQuery`]s evaluated value-only and
    /// data-parallel over `cfg.threads` workers. Results are deterministic for
    /// a fixed model and input regardless of thread count.
    pub fn impute(&self, obs: &ObservedDataset) -> Tensor {
        self.impute_batch(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeepMviConfig, KernelMode};
    use crate::DeepMvi;
    use mvi_data::dataset::{Dataset, DimSpec};
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::imputer::{Imputer, MeanImputer};
    use mvi_data::metrics::mae;
    use mvi_data::scenarios::Scenario;
    use mvi_tensor::Tensor;

    #[test]
    fn training_reduces_validation_loss() {
        let ds = generate_with_shape(DatasetName::Chlorine, &[6], 300, 1);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        let obs = inst.observed();
        let mut model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        let report = model.fit(&obs);
        assert!(report.steps > 0);
        assert!(!report.val_trace.is_empty());
        assert!(report.best_val.is_finite());
        // The best validation loss must improve on the first evaluation.
        assert!(
            report.best_val <= report.val_trace[0] + 1e-9,
            "best {} vs first {}",
            report.best_val,
            report.val_trace[0]
        );
    }

    #[test]
    fn deepmvi_beats_mean_imputation_on_seasonal_data() {
        let ds = generate_with_shape(DatasetName::Chlorine, &[6], 300, 5);
        let inst = Scenario::mcar(1.0).apply(&ds, 7);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 120, ..DeepMviConfig::tiny() };
        let dm = mae(&ds.values, &DeepMvi::new(cfg).impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(dm < mean, "deepmvi {dm} vs mean {mean}");
    }

    #[test]
    fn imputation_fills_every_missing_entry_and_keeps_observed() {
        let ds = generate_with_shape(DatasetName::Gas, &[5], 200, 3);
        let inst = Scenario::MissDisj.apply(&ds, 4);
        let obs = inst.observed();
        let out =
            DeepMvi::new(DeepMviConfig { max_steps: 20, ..DeepMviConfig::tiny() }).impute(&obs);
        assert!(out.all_finite());
        assert_eq!(out.shape(), ds.values.shape());
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i), "observed entry modified");
            }
        }
    }

    #[test]
    fn multidim_dataset_roundtrips_through_flattened_mode() {
        let dims = vec![DimSpec::indexed("store", "st", 3), DimSpec::indexed("item", "it", 4)];
        let values = Tensor::from_fn(&[3, 4, 150], |idx| {
            ((idx[2] as f64) / 11.0 + idx[0] as f64 * 0.3 + idx[1] as f64).sin()
        });
        let ds = Dataset::new("md", dims, values);
        let inst = Scenario::mcar(1.0).apply(&ds, 6);
        let obs = inst.observed();
        for mode in [KernelMode::MultiDim, KernelMode::Flattened, KernelMode::Off] {
            let cfg = DeepMviConfig { kernel_mode: mode, max_steps: 15, ..DeepMviConfig::tiny() };
            let out = DeepMvi::new(cfg).impute(&obs);
            assert_eq!(out.shape(), ds.values.shape(), "{mode:?} changed the shape");
            assert!(out.all_finite());
        }
    }

    #[test]
    fn blackout_imputation_is_finite_without_cross_series_signal() {
        let ds = generate_with_shape(DatasetName::Electricity, &[5], 300, 9);
        let inst = Scenario::Blackout { block_len: 40 }.apply(&ds, 2);
        let obs = inst.observed();
        let out =
            DeepMvi::new(DeepMviConfig { max_steps: 30, ..DeepMviConfig::tiny() }).impute(&obs);
        assert!(out.all_finite());
        let err = mae(&ds.values, &out, &inst.missing);
        assert!(err < 3.0, "MAE {err} wildly off on z-scored data");
    }
}

#[cfg(test)]
mod persistence_tests {
    use crate::config::DeepMviConfig;
    use crate::model::DeepMviModel;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    #[test]
    fn trained_model_roundtrips_through_export_import() {
        let ds = generate_with_shape(DatasetName::Gas, &[4], 150, 6);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 20, ..DeepMviConfig::tiny() };
        let mut trained = DeepMviModel::new(&cfg, &obs);
        trained.fit(&obs);
        let imputed = trained.impute(&obs);
        let snap = trained.export_params();

        // A freshly-built model with the same config restores the exact weights.
        let mut restored = DeepMviModel::new(&cfg, &obs);
        restored.import_params(&snap).unwrap();
        assert_eq!(restored.impute(&obs), imputed, "restored model diverged");

        // Mismatched configurations are rejected.
        let other_cfg = DeepMviConfig { p: cfg.p + 2, ..cfg };
        let mut wrong = DeepMviModel::new(&other_cfg, &obs);
        assert!(wrong.import_params(&snap).is_err());
    }

    #[test]
    fn shared_std_is_set_by_training() {
        let ds = generate_with_shape(DatasetName::AirQ, &[4], 150, 1);
        let inst = Scenario::mcar(1.0).apply(&ds, 3);
        let obs = inst.observed();
        let mut model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        assert!(model.shared_std().is_none());
        let report = model.fit(&obs);
        let std = model.shared_std().expect("std after fit");
        assert!((std - report.best_val.sqrt()).abs() < 1e-12);
        assert!(std > 0.0 && std.is_finite());
    }
}
