//! Tape-based reverse-mode automatic differentiation over dense `f64` tensors.
//!
//! DeepMVI and the deep baselines (BRITS, GP-VAE, vanilla Transformer) are all
//! gradient-trained; this crate is the from-scratch substrate that trains them.
//!
//! Design: the operator set is the [`eval::Evaluator`] trait, and every op's
//! value is computed by one body, [`eval::Eval`]'s, into a recycled slot arena.
//! Serving runs model code on `Eval` directly. Training runs the same code on a
//! [`graph::Graph`], which computes each value with `Eval`'s body and records
//! `(op, inputs, output)`; [`graph::Graph::backward`] walks the records in
//! reverse, one gradient rule per op, and accumulates gradients. Model
//! parameters live *outside* the tape in a [`params::ParamStore`]; a forward
//! pass binds them in with [`eval::Evaluator::param`] (an `Arc` share, no
//! copy), and after `backward` the per-parameter gradients are routed back
//! with [`graph::Graph::param_grads`]. Each training worker owns one graph and
//! recycles it between samples, which makes data-parallel gradient
//! accumulation trivial (gradients are summed into the shared store
//! afterwards).
//!
//! The operator set is exactly what the reproduced models need — matmul, broadcast
//! arithmetic, pointwise nonlinearities, reductions, row gather/scatter for
//! embeddings, row shifting for the left/right-window features of Eq 8–9, and masked
//! row softmax for availability-aware attention (Eq 9/11).
//!
//! Every op's gradient rule is validated against finite differences by
//! [`check::check_gradients`].

pub mod check;
pub mod eval;
pub mod graph;
pub mod nn;
pub mod params;
pub(crate) mod vops;

pub use check::check_gradients;
pub use eval::{Eval, EvalMark, EvalVar, Evaluator};
pub use graph::{Graph, VarId};
pub use nn::{fill_positional_encoding, positional_encoding, randn};
pub use nn::{Embedding, GruCell, Linear};
pub use params::{AdamConfig, ParamId, ParamStore, Restore};
