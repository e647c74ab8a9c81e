//! Data model for multidimensional time series, the paper's ten evaluation datasets
//! (as calibrated synthetic generators), the five missing-value scenarios, and the
//! imputation metrics.
//!
//! * [`dataset`] — the `(K_1, ..., K_n, T)` dataset model of §2.1: dimensions with
//!   named members, ground-truth values, observed views, sibling enumeration.
//! * [`scenarios`] — MCAR, MissDisj, MissOver, Blackout and MissPoint (§5.1.2).
//! * [`generators`] — one generator per Table-1 dataset, matching the published
//!   shapes and the qualitative repetition/relatedness profile (the module docs say
//!   why this substitution preserves the evaluation's discriminative power).
//! * [`blocks`] — empirical missing-block-shape sampler used by DeepMVI's
//!   synthetic-training-mask procedure (§3).
//! * [`metrics`] — MAE / RMSE over missing indices (Eq 1) and the aggregate
//!   analytics statistic of §5.7 (including DropCell).
//! * [`imputer`] — the `Imputer` trait every method in the workspace implements.
//! * [`windows`] — the non-overlapping window grid (§4.1) shared by training,
//!   batch imputation and the online serving engine.

pub mod blocks;
pub mod dataset;
pub mod generators;
pub mod imputer;
pub mod metrics;
pub mod scenarios;
pub mod windows;

pub use blocks::{BlockSampler, BlockShape};
pub use dataset::{Dataset, DimSpec, Instance, ObservedDataset};
pub use imputer::Imputer;
pub use metrics::{mae, mae_all, rmse};
pub use scenarios::Scenario;
pub use windows::WindowGrid;
