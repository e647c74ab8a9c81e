//! Umbrella crate for the DeepMVI reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a single
//! dependency. See `README.md` for the overview and `ARCHITECTURE.md` ("Paper → crate
//! map") for where each paper component and experiment lives.

pub use deepmvi;
pub use mvi_autograd as autograd;
pub use mvi_baselines as baselines;
pub use mvi_data as data;
pub use mvi_eval as eval;
pub use mvi_linalg as linalg;
pub use mvi_neural as neural;
pub use mvi_serve as serve;
pub use mvi_tensor as tensor;
