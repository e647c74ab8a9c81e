//! Tape-based reverse-mode automatic differentiation over dense `f64` tensors.
//!
//! DeepMVI and the deep baselines (BRITS, GP-VAE, vanilla Transformer) are all
//! gradient-trained; this crate is the from-scratch substrate that trains them.
//!
//! Design: a [`graph::Graph`] is a write-once tape of [`graph::VarId`]-indexed nodes.
//! Every operator records its parents and a boxed backward closure; calling
//! [`graph::Graph::backward`] walks the tape in reverse and accumulates gradients.
//! Model parameters live *outside* the tape in a [`params::ParamStore`]; a forward
//! pass binds them in with [`graph::Graph::param`], and after `backward` the
//! per-parameter gradients are routed back with [`graph::Graph::param_grads`]. One
//! graph is built per training sample, which makes data-parallel gradient
//! accumulation trivial (each worker thread owns its graph; gradients are summed into
//! the shared store under a lock).
//!
//! The operator set is exactly what the reproduced models need — matmul, broadcast
//! arithmetic, pointwise nonlinearities, reductions, row gather/scatter for
//! embeddings, row shifting for the left/right-window features of Eq 8–9, and masked
//! row softmax for availability-aware attention (Eq 9/11).
//!
//! Everything is validated against finite differences by [`check::check_gradients`].
//!
//! Inference does not need the tape at all: the [`eval`] module defines the
//! [`eval::Evaluator`] trait (the forward operator set, implemented by both
//! [`graph::Graph`] and the tape-free [`eval::Eval`] backend) so the serving
//! hot path executes the same forward pass value-only, into recycled scratch
//! buffers, with bitwise-identical results.

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
