//! Helpers shared by the serving and wire integration suites: a trained-model
//! fixture, unique scratch paths, a deadline poll, a no-retry client config
//! and bitwise slice equality. Each suite keeps its own dataset, shape, seeds,
//! mask edits and training steps; only the plumbing lives here.

// Every test binary compiles this module but uses only a subset of it.
#![allow(dead_code)]

use deepmvi::{DeepMviConfig, DeepMviModel, FrozenModel};
use mvi_data::dataset::ObservedDataset;
use mvi_net::{ClientConfig, RetryPolicy};
use mvi_serve::{ImputationEngine, ServeSnapshot};
use mvi_tensor::Tensor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One trained model and the data it was fit on, captured once per suite.
pub struct Fixture {
    /// The ground truth `obs` was drawn from; it may run past `obs`, as the
    /// source of a stream.
    pub truth: Tensor,
    /// The observed view the model was fit on.
    pub obs: ObservedDataset,
    /// The trained model.
    pub snapshot: ServeSnapshot,
}

impl Fixture {
    /// Fits `DeepMviConfig::tiny()` for `max_steps` steps on `obs`.
    pub fn train(truth: Tensor, obs: ObservedDataset, max_steps: usize) -> Self {
        let cfg = DeepMviConfig { max_steps, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let snapshot = ServeSnapshot::capture(&model, &obs);
        Fixture { truth, obs, snapshot }
    }

    /// A fresh frozen model: engines and oracles each need their own
    /// instance, and all of them carry bitwise-identical weights.
    pub fn frozen(&self) -> FrozenModel {
        self.snapshot.restore(&self.obs).expect("fixture model restores")
    }

    /// A fresh engine over the trained state.
    pub fn engine(&self) -> ImputationEngine {
        ImputationEngine::new(self.frozen(), self.obs.clone()).expect("fixture engine builds")
    }
}

/// A unique path under the temp dir: each suite runs its tests in parallel
/// inside one process.
pub fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mvi-test-{}-{tag}-{n}", std::process::id()))
}

/// A unique spill directory, created now and removed when the guard drops.
pub struct SpillDir(pub PathBuf);

impl SpillDir {
    pub fn new(tag: &str) -> Self {
        let dir = scratch_path(tag);
        std::fs::create_dir_all(&dir).expect("spill dir");
        SpillDir(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Polls `ok` until it holds or `deadline` passes; returns its last answer.
pub fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

/// A client that never retries: the suites assert on first-reply semantics;
/// the fault suite owns the retry drills.
pub fn no_retry() -> ClientConfig {
    ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() }
}

/// Whether `a` and `b` hold the same bits.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
