//! The three deep-learning imputation baselines of §5.4, built on the same
//! from-scratch autodiff engine as DeepMVI:
//!
//! * [`brits`] — BRITS \[4\]: bidirectional recurrent imputation. At each step the
//!   recurrent state first *predicts* the current cross-series vector (the loss is
//!   taken against that pre-update estimate at observed entries), then consumes the
//!   observed values with missing entries replaced by the prediction; a temporal
//!   decay on the hidden state handles long gaps; forward and backward passes are
//!   averaged with a consistency penalty.
//! * [`gpvae`] — GP-VAE \[8\] (simplified): per-timestep MLP encoder to a diagonal
//!   Gaussian latent, MLP decoder, ELBO with the full Gaussian-process prior
//!   replaced by a first-order (Ornstein–Uhlenbeck) smoothness prior on the latent
//!   path (the module docs say why this preserves the defining behaviour).
//! * [`mrnn`] — MRNN \[27\]: the earliest deep MVI method (§2.4) — a per-stream
//!   bidirectional interpolation block plus a cross-stream fully-connected
//!   imputation block.
//! * [`transformer`] — the "off-the-shelf Transformer" \[25\]: per-*point* tokens
//!   (value + availability flag + sinusoidal position), full self-attention over a
//!   point context, trained with random masking. Contrast with DeepMVI's temporal
//!   transformer, which attends over *window features* with left/right-window keys
//!   — the source of its accuracy and speed advantage (§5.4, §5.6).

pub mod brits;
pub mod gpvae;
pub mod mrnn;
pub mod transformer;

pub use brits::Brits;
pub use gpvae::GpVae;
pub use mrnn::Mrnn;
pub use transformer::VanillaTransformer;
