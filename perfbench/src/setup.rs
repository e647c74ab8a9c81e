//! The shared inputs every workload starts from, and each workload's set-up:
//! generate, train, then (for serving) build engines, warm up and bind.

use deepmvi::{DeepMviConfig, DeepMviModel, FrozenModel};
use mvi_data::dataset::{Instance, ObservedDataset};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::{NetServer, ServerConfig};
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig, ServeSnapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Series in the dataset (one dimension of 16 members).
pub const SERIES: usize = 16;
/// Trained length in time steps.
pub const T_LEN: usize = 1000;
/// Fixed optimiser step budget, so the amount of training is an input.
pub const FIT_STEPS: usize = 40;
/// Retention window of the replay's streaming engine: the trained span.
pub const RETENTION: usize = 1000;
/// `cold_tenants`: clones of the trained model, one more than fit in memory.
pub const COLD_TENANTS: usize = 3;
pub const COLD_CAPACITY: usize = 2;

/// Paper-default hyper-parameters (p = 32, 4 heads, 64-window context,
/// w = 10) with the fixed step budget and one compute thread.
pub fn config() -> DeepMviConfig {
    DeepMviConfig { max_steps: FIT_STEPS, threads: 1, ..DeepMviConfig::default() }
}

pub struct Trained {
    pub inst: Instance,
    pub obs: ObservedDataset,
    pub model: DeepMviModel,
    pub generate_s: f64,
    pub fit_s: f64,
    pub steps: usize,
}

/// Electricity-shaped data, 16 × 1000, 10 % missing in blocks of 10 on
/// every series, then a fit with the fixed step budget.
pub fn train(seed: u64) -> Trained {
    let t0 = Instant::now();
    let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, seed);
    let inst = Scenario::mcar(1.0).apply(&ds, seed);
    let obs = inst.observed();
    let generate_s = t0.elapsed().as_secs_f64();
    let mut model = DeepMviModel::new(&config(), &obs);
    let t1 = Instant::now();
    let report = model.fit(&obs);
    let fit_s = t1.elapsed().as_secs_f64();
    Trained { inst, obs, model, generate_s, fit_s, steps: report.steps }
}

pub fn frozen(t: &Trained) -> FrozenModel {
    ServeSnapshot::capture(&t.model, &t.obs)
        .restore(&t.obs)
        .expect("restore a freshly trained model")
}

pub fn engine(t: &Trained, retention: Option<usize>) -> ImputationEngine {
    match retention {
        None => ImputationEngine::new(frozen(t), t.obs.clone()),
        Some(r) => ImputationEngine::with_retention(frozen(t), t.obs.clone(), r),
    }
    .expect("engine over the trained geometry")
}

/// A warm copy of `engine` (cache included) through an in-memory snapshot.
pub fn clone_engine(engine: &ImputationEngine) -> ImputationEngine {
    ImputationEngine::from_snapshot(&engine.snapshot()).expect("restore an in-memory snapshot")
}

pub fn registry(capacity: usize, spill: &Path) -> ModelRegistry {
    ModelRegistry::new(RegistryConfig::new(capacity, spill))
}

pub fn bind(engine: &Arc<ImputationEngine>) -> NetServer {
    NetServer::bind("127.0.0.1:0", Arc::clone(engine), ServerConfig::default())
        .expect("bind a loopback port")
}

pub fn bind_registry(registry: &Arc<ModelRegistry>) -> NetServer {
    NetServer::bind_registry("127.0.0.1:0", Arc::clone(registry), ServerConfig::default())
        .expect("bind a loopback port")
}

pub enum World {
    Offline,
    Warm { engine: Arc<ImputationEngine>, server: NetServer },
    Cold { base: Arc<ImputationEngine>, registry: Arc<ModelRegistry>, server: NetServer },
}

pub struct Setup {
    pub trained: Trained,
    pub world: World,
    pub spill: Option<PathBuf>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let world = std::mem::replace(&mut self.world, World::Offline);
        match world {
            World::Offline => {}
            World::Warm { server, .. } | World::Cold { server, .. } => server.shutdown(),
        }
        if let Some(dir) = &self.spill {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One complete set-up of `workload`; `spill` is a fresh directory inside
/// the checkout for the registry's snapshots.
pub fn build(workload: &str, seed: u64, spill: PathBuf) -> Setup {
    let trained = train(seed);
    let (world, spill) = match workload {
        "offline_fit" => (World::Offline, None),
        "warm_reads" => {
            let engine = Arc::new(engine(&trained, None));
            engine.warm_up();
            let server = bind(&engine);
            (World::Warm { engine, server }, None)
        }
        "cold_tenants" => {
            let base = Arc::new(engine(&trained, None));
            base.warm_up();
            std::fs::create_dir_all(&spill).expect("create the spill directory");
            let registry = Arc::new(registry(COLD_CAPACITY, &spill));
            for i in 0..COLD_TENANTS {
                registry
                    .register(&tenant(i), Arc::new(clone_engine(&base)))
                    .expect("register a tenant");
            }
            let server = bind_registry(&registry);
            (World::Cold { base, registry, server }, Some(spill))
        }
        other => unreachable!("workload `{other}` is validated before set-up"),
    };
    Setup { trained, world, spill }
}

pub fn tenant(i: usize) -> String {
    format!("tenant-{i}")
}
