//! **DeepMVI** — deep missing-value imputation for multidimensional time series
//! (Bansal, Deshpande, Sarawagi; PVLDB 14(1), 2021). This crate is the paper's
//! primary contribution, built on the workspace's from-scratch autodiff engine.
//!
//! The model expresses each missing value's distribution conditioned on (Eq 5):
//!
//! * **within-series signals** — a *temporal transformer* over non-overlapping
//!   window features whose attention keys/queries are the *neighbouring* (left and
//!   right) window features plus a positional encoding (Eq 7–14), so a missing
//!   block can attend to other places in the series whose *context* looks alike;
//! * **a fine-grained local signal** — the masked mean of the immediate window
//!   (Eq 15), which matters for point misses;
//! * **cross-series signals** — *kernel regression* over sibling series along each
//!   categorical dimension, with RBF kernels on learned member embeddings
//!   (Eq 16–21), which is what makes the method natively multidimensional.
//!
//! Training is self-supervised (§3): synthetic missing blocks, whose shapes are
//! sampled from the dataset's own missing-block distribution, are placed around
//! observed indices; the network learns to reconstruct the hidden values, with
//! early stopping on a held-out set of such instances.
//!
//! The public entry point is [`DeepMvi`] (an [`mvi_data::Imputer`]); ablation
//! switches for every module live on [`config::DeepMviConfig`] and drive the §5.5
//! experiments.

#![warn(missing_docs)]

pub mod config;
pub mod infer;
pub mod model;
pub mod sampling;
pub mod train;

pub use config::{DeepMviConfig, KernelMode};
pub use infer::{FrozenModel, InferScratch, ScratchPool, TapeScratch, WindowQuery};
pub use model::DeepMviModel;
pub use train::TrainReport;

use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_tensor::Tensor;

/// The DeepMVI imputer: trains on the observed dataset's own values (§3) and then
/// fills every missing entry.
#[derive(Clone, Debug, Default)]
pub struct DeepMvi {
    /// Model and training configuration (ablations included).
    pub config: DeepMviConfig,
}

impl DeepMvi {
    /// Imputer with the paper's default hyper-parameters (§4.3).
    pub fn new(config: DeepMviConfig) -> Self {
        Self { config }
    }
}

impl Imputer for DeepMvi {
    fn name(&self) -> String {
        let mut name = "DeepMVI".to_string();
        if self.config.kernel_mode == KernelMode::Flattened {
            name.push_str("1D");
        }
        let mut off = Vec::new();
        if !self.config.use_temporal_transformer {
            off.push("TT");
        }
        if !self.config.use_context_window {
            off.push("CtxWin");
        }
        if !self.config.use_fine_grained {
            off.push("FG");
        }
        if self.config.kernel_mode == KernelMode::Off {
            off.push("KR");
        }
        if !off.is_empty() {
            name.push_str(&format!("(-{})", off.join(",")));
        }
        name
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let original_shape = obs.values.shape().to_vec();
        // The flattened ablation folds all dimensions into one before training.
        let flattened;
        let view = if self.config.kernel_mode == KernelMode::Flattened && obs.dims.len() > 1 {
            flattened = obs.flattened();
            &flattened
        } else {
            obs
        };
        let mut model = DeepMviModel::new(&self.config, view);
        model.fit(view);
        model.impute(view).reshape(&original_shape)
    }
}
