//! Hyper-parameters and ablation switches (§4.3, §5.5).

use serde::{Deserialize, Serialize};

/// How the kernel-regression module treats the dataset's dimensions (§5.5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelMode {
    /// One embedding space per dimension, siblings per Eq 16 — the proposed model.
    MultiDim,
    /// All dimensions flattened into a single index with a `2·d`-wide embedding —
    /// the DeepMVI1D ablation of Fig 9.
    Flattened,
    /// Kernel regression disabled — the "No Kernel Regression" ablation of Fig 7.
    Off,
}

/// DeepMVI hyper-parameters. Defaults are the paper's (§4.3): `p = 32` filters,
/// window `w = 10` (auto-switched to 20 when the mean missing block exceeds 100),
/// 4 attention heads, member-embedding width 10, Adam at `1e-3`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeepMviConfig {
    /// Number of convolution filters `p` (window-feature width).
    pub p: usize,
    /// Window size `w`; `None` selects 10, or 20 when the average missing block is
    /// longer than 100 steps (§4.3).
    pub window: Option<usize>,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Member-embedding width `d_i` for kernel regression.
    pub embed_dim: usize,
    /// Attention context length, in windows, centred on the imputation target.
    pub ctx_windows: usize,
    /// Cap on kernel-regression siblings per dimension; larger dimensions are
    /// pre-filtered to the most kernel-similar members (§4.2, "top L").
    pub max_siblings: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training instances per optimizer step.
    pub batch_size: usize,
    /// Maximum optimizer steps.
    pub max_steps: usize,
    /// Held-out validation instances for early stopping.
    pub val_instances: usize,
    /// Steps between validation evaluations.
    pub eval_every: usize,
    /// Early-stopping patience, in evaluations without improvement.
    pub patience: usize,
    /// Worker threads for data-parallel gradient accumulation. The default is
    /// the machine's available parallelism (capped by `mvi_parallel`'s global
    /// thread budget, e.g. the bench binaries' `--threads=N` flag).
    pub threads: usize,
    /// RNG seed (parameter init, sampling).
    pub seed: u64,
    /// Ablation: temporal-transformer module on/off (Fig 7 "No Temporal Tr.").
    pub use_temporal_transformer: bool,
    /// Ablation: contextual (left/right window) keys vs. positional-only keys
    /// (Fig 7 "No Context Window").
    pub use_context_window: bool,
    /// Ablation: fine-grained local signal on/off (Fig 8).
    pub use_fine_grained: bool,
    /// Kernel-regression mode (Fig 7 "No Kernel Regression", Fig 9 DeepMVI1D).
    pub kernel_mode: KernelMode,
    /// RBF kernel sharpness γ (Eq 17). Larger values concentrate the sibling
    /// weighting faster as embeddings separate.
    pub kr_gamma: f64,
}

impl Default for DeepMviConfig {
    fn default() -> Self {
        Self {
            p: 32,
            window: None,
            n_heads: 4,
            embed_dim: 10,
            ctx_windows: 64,
            max_siblings: 48,
            lr: 1e-3,
            batch_size: 16,
            max_steps: 800,
            val_instances: 64,
            eval_every: 40,
            patience: 6,
            threads: mvi_parallel::available_threads(),
            seed: 17,
            use_temporal_transformer: true,
            use_context_window: true,
            use_fine_grained: true,
            kernel_mode: KernelMode::MultiDim,
            kr_gamma: 1.0,
        }
    }
}

impl DeepMviConfig {
    /// A scaled-down configuration for unit tests and smoke runs: small network,
    /// short training, deterministic.
    pub fn tiny() -> Self {
        Self {
            p: 8,
            n_heads: 2,
            embed_dim: 4,
            ctx_windows: 16,
            max_siblings: 12,
            batch_size: 8,
            max_steps: 60,
            val_instances: 16,
            eval_every: 15,
            patience: 3,
            threads: 1,
            ..Self::default()
        }
    }

    /// Resolves the window size per §4.3 given the mean missing-block length.
    pub(crate) fn resolve_window(&self, mean_block_len: f64) -> usize {
        self.window.unwrap_or(if mean_block_len > 100.0 { 20 } else { 10 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_4_3() {
        let cfg = DeepMviConfig::default();
        assert_eq!(cfg.p, 32);
        assert_eq!(cfg.n_heads, 4);
        assert_eq!(cfg.embed_dim, 10);
        assert_eq!(cfg.resolve_window(10.0), 10);
        assert_eq!(cfg.resolve_window(150.0), 20);
    }

    #[test]
    fn explicit_window_overrides_auto_rule() {
        let cfg = DeepMviConfig { window: Some(25), ..Default::default() };
        assert_eq!(cfg.resolve_window(500.0), 25);
    }
}
