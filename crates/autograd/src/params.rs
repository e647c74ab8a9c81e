//! Parameter storage and the Adam optimizer.
//!
//! Parameters live outside the tape so that many per-sample [`crate::Graph`]s can be
//! built against one shared, read-only view of the weights. Worker threads return
//! `(ParamId, grad)` pairs (from [`crate::Graph::param_grads`]); the training loop
//! sums them with [`ParamStore::accumulate`] and applies one Adam step per batch.

use mvi_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Values live behind an `Arc` so binding a parameter into a forward pass
/// (tape or value-only) is a reference-count bump instead of a full tensor
/// clone; the optimizer mutates through `Arc::make_mut`, which is in-place
/// whenever no forward pass still holds the value (always true between
/// training steps).
struct Entry {
    name: String,
    value: Arc<Tensor>,
    /// `None` until the first [`ParamStore::accumulate`] or
    /// [`ParamStore::adam_step`] touches the parameter, so a model that only
    /// serves (restored, or done training and re-imported) carries no
    /// optimizer buffers.
    optim: Option<Optim>,
}

/// A parameter's gradient accumulator and Adam moments, all zeros when
/// allocated: exactly the state a fresh parameter used to start with.
struct Optim {
    grad: Tensor,
    m: Tensor,
    v: Tensor,
}

impl Optim {
    /// The state in `slot`, allocated (zeroed, `shape`) on first use.
    fn get<'a>(slot: &'a mut Option<Optim>, shape: &[usize]) -> &'a mut Optim {
        slot.get_or_insert_with(|| Optim {
            grad: Tensor::zeros(shape),
            m: Tensor::zeros(shape),
            v: Tensor::zeros(shape),
        })
    }
}

/// Adam hyper-parameters. The paper trains with Adam at `lr = 1e-3` (§4.3).
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator stabilizer.
    pub eps: f64,
    /// Global gradient-norm clip (0 disables clipping).
    pub clip_norm: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip_norm: 5.0 }
    }
}

/// A flat registry of named parameter tensors with Adam state.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<Entry>,
    step: u64,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.entries.len());
        self.entries.push(Entry { name: name.into(), value: Arc::new(value), optim: None });
        id
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Shared handle to a parameter value — what forward passes bind instead
    /// of cloning the tensor (see [`crate::Graph::param`] and the value-only
    /// evaluator in [`crate::eval`]).
    pub(crate) fn value_arc(&self, id: ParamId) -> &Arc<Tensor> {
        &self.entries[id.0].value
    }

    /// Mutable value access (used by tests and by finite-difference checking).
    /// Copy-on-write: in-place unless a forward pass still shares the value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.entries.len()).map(ParamId).collect()
    }

    /// Adds a batch of `(id, grad)` contributions into the store.
    pub fn accumulate(&mut self, grads: impl IntoIterator<Item = (ParamId, Tensor)>) {
        for (id, g) in grads {
            let e = &mut self.entries[id.0];
            Optim::get(&mut e.optim, e.value.shape()).grad.add_assign(&g);
        }
    }

    /// Zeroes all accumulated gradients.
    pub(crate) fn zero_grads(&mut self) {
        for o in self.entries.iter_mut().filter_map(|e| e.optim.as_mut()) {
            o.grad.map_inplace(|_| 0.0);
        }
    }

    /// Global L2 norm of the accumulated gradients (an unallocated gradient
    /// is zero).
    pub(crate) fn grad_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| {
                e.optim.as_ref().map_or(0.0, |o| o.grad.data().iter().map(|&x| x * x).sum::<f64>())
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Applies one Adam update from the accumulated gradients, then zeroes them.
    ///
    /// `scale` divides the gradients first (use `1 / batch_size` when gradients were
    /// summed over a batch).
    pub fn adam_step(&mut self, cfg: &AdamConfig, scale: f64) {
        self.step += 1;
        let t = self.step as i32;
        // Optional global-norm clipping (post-scaling).
        let mut clip = 1.0;
        if cfg.clip_norm > 0.0 {
            let norm = self.grad_norm() * scale;
            if norm > cfg.clip_norm {
                clip = cfg.clip_norm / norm;
            }
        }
        let bias1 = 1.0 - cfg.beta1.powi(t);
        let bias2 = 1.0 - cfg.beta2.powi(t);
        for e in &mut self.entries {
            let o = Optim::get(&mut e.optim, e.value.shape());
            let gdata = o.grad.data();
            let mdata = o.m.data_mut();
            let vdata = o.v.data_mut();
            let value = Arc::make_mut(&mut e.value).data_mut();
            for i in 0..gdata.len() {
                let g = gdata[i] * scale * clip;
                mdata[i] = cfg.beta1 * mdata[i] + (1.0 - cfg.beta1) * g;
                vdata[i] = cfg.beta2 * vdata[i] + (1.0 - cfg.beta2) * g * g;
                let mhat = mdata[i] / bias1;
                let vhat = vdata[i] / bias2;
                value[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
        }
        self.zero_grads();
    }

    /// Snapshot of all parameter values (for early-stopping rollback). Shares
    /// the tensors — O(parameters) refcount bumps, no data copies; the next
    /// optimizer step's `Arc::make_mut` copies only what it actually updates.
    pub fn snapshot(&self) -> Vec<Arc<Tensor>> {
        self.entries.iter().map(|e| Arc::clone(&e.value)).collect()
    }

    /// Restores a snapshot taken with [`ParamStore::snapshot`].
    pub fn restore(&mut self, snap: &[Arc<Tensor>]) {
        assert_eq!(snap.len(), self.entries.len(), "snapshot/store size mismatch");
        for (e, s) in self.entries.iter_mut().zip(snap) {
            e.value = Arc::clone(s);
        }
    }

    /// Exports all parameter values by name (for model persistence).
    pub fn export(&self) -> StoreSnapshot {
        StoreSnapshot {
            params: self
                .entries
                .iter()
                .map(|e| (e.name.clone(), Tensor::clone(&e.value)))
                .collect(),
        }
    }

    /// Imports a snapshot previously produced by [`ParamStore::export`] into a
    /// store with the *same registration order, names and shapes* (i.e. a model
    /// rebuilt with the same configuration). Optimizer state is released; the
    /// next training step starts it from zeros again.
    ///
    /// # Errors
    /// Returns a description of the first mismatch.
    pub fn import(&mut self, snap: &StoreSnapshot) -> Result<(), String> {
        if snap.params.len() != self.entries.len() {
            return Err(format!(
                "snapshot has {} parameters, store has {}",
                snap.params.len(),
                self.entries.len()
            ));
        }
        for (e, (name, value)) in self.entries.iter().zip(&snap.params) {
            if &e.name != name {
                return Err(format!(
                    "parameter name mismatch: store '{}' vs snapshot '{name}'",
                    e.name
                ));
            }
            if e.value.shape() != value.shape() {
                return Err(format!(
                    "shape mismatch for '{name}': {:?} vs {:?}",
                    e.value.shape(),
                    value.shape()
                ));
            }
        }
        for (e, (_, value)) in self.entries.iter_mut().zip(&snap.params) {
            e.value = Arc::new(value.clone());
            e.optim = None;
        }
        self.step = 0;
        Ok(())
    }
}

/// A serializable dump of every parameter tensor, keyed by registration name.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// `(name, value)` pairs in registration order.
    pub params: Vec<(String, Tensor)>,
}

/// Rebuilds a store from a [`StoreSnapshot`] without drawing (and then
/// discarding) a fresh initialisation: a model lays out its parameters as
/// usual, but each one is the snapshot's next tensor, **moved** in after its
/// name and shape are checked against what the layout expects. See
/// [`crate::Linear::restored`] / [`crate::Embedding::restored`].
pub struct Restore {
    params: std::vec::IntoIter<(String, Tensor)>,
}

impl Restore {
    /// Takes ownership of the snapshot's tensors.
    pub fn new(snap: StoreSnapshot) -> Self {
        Self { params: snap.params.into_iter() }
    }

    /// Registers the snapshot's next tensor as parameter `name` of `shape`.
    ///
    /// # Errors
    /// The snapshot has run out, or its next tensor has another name or shape.
    pub(crate) fn add(
        &mut self,
        store: &mut ParamStore,
        name: String,
        shape: &[usize],
    ) -> Result<ParamId, String> {
        let Some((got, value)) = self.params.next() else {
            return Err(format!("snapshot ends before parameter '{name}'"));
        };
        if got != name {
            return Err(format!("parameter name mismatch: store '{name}' vs snapshot '{got}'"));
        }
        if value.shape() != shape {
            return Err(format!("shape mismatch for '{name}': {shape:?} vs {:?}", value.shape()));
        }
        Ok(store.add(name, value))
    }

    /// Checks the layout consumed every tensor of the snapshot.
    ///
    /// # Errors
    /// The number of tensors left over.
    pub fn finish(self) -> Result<(), String> {
        match self.params.len() {
            0 => Ok(()),
            extra => Err(format!("snapshot has {extra} parameters the store does not")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::graph::Graph;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 from w = 0.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let cfg = AdamConfig { lr: 0.1, ..Default::default() };
        for _ in 0..300 {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let loss = g.mse(wv, &Tensor::scalar(3.0));
            let grads = g.backward(loss);
            store.accumulate(g.param_grads(&grads));
            store.adam_step(&cfg, 1.0);
        }
        assert!((store.value(w).at(0) - 3.0).abs() < 1e-2, "got {}", store.value(w).at(0));
    }

    #[test]
    fn accumulate_sums_multiple_contributions() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_slice(&[1.0, 2.0]));
        store.accumulate(vec![
            (w, Tensor::from_slice(&[1.0, 1.0])),
            (w, Tensor::from_slice(&[0.5, -1.0])),
        ]);
        let grad = |store: &ParamStore| store.entries[w.0].optim.as_ref().unwrap().grad.clone();
        assert_eq!(grad(&store).data(), &[1.5, 0.0]);
        store.zero_grads();
        assert_eq!(grad(&store).data(), &[0.0, 0.0]);
    }

    #[test]
    fn a_store_that_never_trains_holds_no_optimizer_buffers() {
        let allocated =
            |store: &ParamStore| store.entries.iter().filter(|e| e.optim.is_some()).count();
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_slice(&[1.0, 2.0]));
        let b = store.add("b", Tensor::scalar(0.5));
        // Forward passes and a rebuild from an export allocate nothing.
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let _ = g.mse(wv, &Tensor::from_slice(&[0.0, 0.0]));
        let mut restored = ParamStore::new();
        let mut restore = Restore::new(store.export());
        restore.add(&mut restored, "w".into(), &[2]).unwrap();
        restore.add(&mut restored, "b".into(), &[1]).unwrap();
        restore.finish().unwrap();
        assert_eq!((allocated(&store), allocated(&restored)), (0, 0));
        // A gradient allocates its own parameter's state; a step, every one.
        store.accumulate(vec![(w, Tensor::from_slice(&[1.0, -1.0]))]);
        assert_eq!(allocated(&store), 1);
        store.adam_step(&AdamConfig::default(), 1.0);
        assert_eq!(allocated(&store), 2);
        assert_eq!(store.value(b).at(0), 0.5, "a zero gradient leaves its parameter alone");
        // Importing releases the state again.
        store.import(&restored.export()).unwrap();
        assert_eq!(allocated(&store), 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(1.0));
        let snap = store.snapshot();
        store.value_mut(w).data_mut()[0] = 99.0;
        store.restore(&snap);
        assert_eq!(store.value(w).at(0), 1.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        store.accumulate(vec![(w, Tensor::scalar(1e9))]);
        let cfg = AdamConfig { lr: 0.1, clip_norm: 1.0, ..Default::default() };
        store.adam_step(&cfg, 1.0);
        assert!(store.value(w).at(0).abs() <= 0.11);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = ParamStore::new();
        let w = a.add("w", Tensor::from_slice(&[1.0, 2.0]));
        let snap = a.export();
        let mut b = ParamStore::new();
        let wb = b.add("w", Tensor::from_slice(&[9.0, 9.0]));
        b.import(&snap).unwrap();
        assert_eq!(b.value(wb).data(), &[1.0, 2.0]);
        let _ = w;
    }

    #[test]
    fn import_rejects_mismatched_stores() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::from_slice(&[1.0]));
        let snap = a.export();
        let mut wrong_name = ParamStore::new();
        wrong_name.add("v", Tensor::from_slice(&[1.0]));
        assert!(wrong_name.import(&snap).unwrap_err().contains("name mismatch"));
        let mut wrong_shape = ParamStore::new();
        wrong_shape.add("w", Tensor::from_slice(&[1.0, 2.0]));
        assert!(wrong_shape.import(&snap).unwrap_err().contains("shape mismatch"));
        let mut wrong_len = ParamStore::new();
        assert!(wrong_len.import(&snap).unwrap_err().contains("parameters"));
    }

    #[test]
    fn snapshot_serializes_through_json() {
        let mut a = ParamStore::new();
        a.add("layer.w", Tensor::from_slice(&[0.5, -0.5]));
        let snap = a.export();
        let json = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params[0].0, "layer.w");
        assert_eq!(back.params[0].1.data(), &[0.5, -0.5]);
    }

    #[test]
    fn num_scalars_counts_elements() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(&[3, 4]));
        store.add("b", Tensor::zeros(&[5]));
        assert_eq!(store.num_scalars(), 17);
        assert_eq!(store.ids().len(), 2);
    }
}
