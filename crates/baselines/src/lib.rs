//! The seven conventional imputation baselines of §5.1.3 / §2.2.
//!
//! All methods view the (possibly multidimensional) dataset as a flattened
//! `series × time` matrix, exactly as the paper notes ("all these prior methods are
//! for single-dimensional series", §2.2):
//!
//! * [`svdimp`] — SVDImp \[24\]: iterative truncated-SVD refinement.
//! * [`softimpute`] — SoftImpute \[19\]: iterative soft-thresholded SVD.
//! * [`svt`] — SVT \[2\]: singular value thresholding on a gradient sweep.
//! * [`cdrec`] — CDRec \[11\]: iterative truncated centroid decomposition.
//! * [`trmf`] — TRMF \[28\]: matrix factorization with autoregressive temporal
//!   regularization, solved by alternating ridge regressions.
//! * [`stmvl`] — STMVL: four-view spatio-temporal collaborative filtering with a
//!   least-squares view combiner (correlation-derived distances replace the missing
//!   sensor coordinates; see [`stmvl`]).
//! * [`dynammo`] — DynaMMO \[14\]: Kalman-filter/EM over groups of co-evolving series
//!   with missing-aware observations.
//!
//! [`common`] holds shared machinery (interpolation init, Pearson correlation on
//! co-observed entries, convergence driver).

pub mod cdrec;
pub mod common;
pub mod dynammo;
pub mod softimpute;
pub mod stmvl;
pub mod svdimp;
pub mod svt;
pub mod trmf;

pub use cdrec::CdRec;
pub use dynammo::DynaMmo;
pub use softimpute::SoftImpute;
pub use stmvl::Stmvl;
pub use svdimp::SvdImp;
pub use svt::Svt;
pub use trmf::Trmf;
