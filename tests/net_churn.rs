//! Tenant churn behind one front door: the registry owns every tenant's
//! engine *and* micro-batcher, so its capacity bounds both.
//!
//! The contracts pinned here:
//!
//! * **capacity bounds threads** — serving far more tenants than the
//!   registry holds grows the process by at most one batcher thread per
//!   resident slot, plus the connection threads and the acceptor;
//! * **eviction releases the engine** — once a served tenant is evicted,
//!   nothing keeps its engine alive;
//! * **re-registration takes effect at once** — `register` and
//!   `register_spilled` over a served tenant release the old engine before
//!   they return, the next wire query is bitwise the new model's, and the
//!   tenant's wire `panics_caught` does not fall.
//!
//! This file is its own test binary so the thread count it reads from
//! `/proc/self/status` sees no other suite's threads, and its tests run one
//! at a time for the same reason.

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::dataset::ObservedDataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::{ClientConfig, ErrorCode, NetClient, NetServer, RetryPolicy, ServerConfig};
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig, ServeSnapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

const SERIES: usize = 2;
const T_LEN: usize = 80;
const SEEDS: usize = 2;

struct Fixture {
    obs: ObservedDataset,
    snapshot_json: String,
}

fn fixture(seed: usize) -> &'static Fixture {
    static FIX: OnceLock<Vec<OnceLock<Fixture>>> = OnceLock::new();
    let all = FIX.get_or_init(|| (0..SEEDS).map(|_| OnceLock::new()).collect());
    all[seed % SEEDS].get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, 41 + seed as u64);
        let obs = Scenario::mcar(0.85).apply(&ds, 13 + seed as u64).observed();
        let cfg = DeepMviConfig { max_steps: 6, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let snapshot_json = ServeSnapshot::capture(&model, &obs).to_json();
        Fixture { obs, snapshot_json }
    })
}

fn engine(seed: usize) -> Arc<ImputationEngine> {
    let fix = fixture(seed);
    let snap = ServeSnapshot::from_json(&fix.snapshot_json).expect("fixture snapshot parses");
    let frozen = snap.restore(&fix.obs).expect("fixture model restores");
    Arc::new(ImputationEngine::new(frozen, fix.obs.clone()).expect("fixture engine builds"))
}

struct SpillDir(PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvi-churn-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("spill dir");
        SpillDir(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs this file's tests one at a time, so one test's server threads never
/// show up in another's thread count.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process's live thread count, as the kernel reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

fn no_retry() -> ClientConfig {
    ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// Churn: N ≫ capacity tenants, one wire query each
// ---------------------------------------------------------------------------

#[test]
fn churning_tenants_past_capacity_bounds_threads_and_releases_evicted_engines() {
    const CAPACITY: usize = 2;
    const TENANTS: usize = 40;
    const CONNECTIONS: usize = 1;
    let _serial = serial();
    let dir = SpillDir::new("churn");
    // Every tenant starts cold from one shared snapshot of the same model.
    let cold = dir.0.join("model.mvisnap");
    let model = engine(0);
    model.snapshot_to_path(&cold).unwrap();
    let oracle = model.query(0, 0, T_LEN).unwrap();
    drop(model);
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(CAPACITY, &dir.0)));
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:02}")).collect();
    for tenant in &tenants {
        reg.register_spilled(tenant, &cold).unwrap();
    }

    let baseline = threads();
    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default()).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());
    // The acceptor, one thread per connection, one batcher per resident slot.
    let bound = CAPACITY + CONNECTIONS + 1;
    let mut peak = 0;
    let mut served = Vec::new();
    for tenant in &tenants {
        client.set_tenant(tenant.as_str());
        let got = client.query(0, 0, T_LEN as u32).unwrap();
        assert!(bitwise_eq(&got, &oracle), "{tenant} diverged from its model");
        served.push(Arc::downgrade(&reg.get(tenant).unwrap()));
        // A joined thread can linger in the count for an instant after
        // exiting, so let it settle; a leaked thread never does.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut grown = threads().saturating_sub(baseline);
        while grown > bound && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            grown = threads().saturating_sub(baseline);
        }
        peak = peak.max(grown);
    }

    let alive = served.iter().filter(|w| w.strong_count() > 0).count();
    assert!(
        peak <= bound,
        "serving {TENANTS} tenants on a capacity-{CAPACITY} registry grew the process by \
         {peak} threads (bound {bound}); {alive} of {TENANTS} served engines still alive"
    );
    assert_eq!(reg.stats().resident, CAPACITY);
    // Requests ran in order, so all but the last `CAPACITY` were evicted.
    for (tenant, engine) in tenants.iter().zip(&served).take(TENANTS - CAPACITY) {
        assert!(
            engine.upgrade().is_none(),
            "{tenant} was evicted but its engine is still alive ({alive} of {TENANTS} alive)"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Re-registration over a served resident tenant
// ---------------------------------------------------------------------------

#[test]
fn re_registering_a_served_tenant_serves_the_new_model_and_releases_the_old_engine() {
    let _serial = serial();
    let dir = SpillDir::new("reregister");
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(2, &dir.0)));
    // The first model is armed: every forward pass panics its batcher.
    let armed = engine(1);
    armed.set_eval_hook(Some(Box::new(|_results| panic!("armed model"))));
    reg.register("t", armed).unwrap();
    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default()).unwrap();
    let mut client = NetClient::with_tenant(server.local_addr(), "t", no_retry());
    let err = client.query(0, 0, T_LEN as u32).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Panicked), "the armed model must panic: {err}");
    let panics = client.health().unwrap().panics_caught;
    assert!(panics >= 1, "the panic must be counted before the swap");

    // `register` over the served tenant: a healthy model takes its place.
    let old = Arc::downgrade(&reg.get("t").unwrap());
    reg.register("t", engine(0)).unwrap();
    assert!(old.upgrade().is_none(), "register must release the replaced engine");
    let want = engine(0).query(0, 0, T_LEN).unwrap();
    let got = client.query(0, 0, T_LEN as u32).unwrap();
    assert!(bitwise_eq(&got, &want), "the next query must be the registered model's");
    let after = client.health().unwrap().panics_caught;
    assert!(after >= panics, "panics_caught fell across register: {panics} → {after}");

    // `register_spilled` over it again: a snapshot of the other model.
    let snapshot = dir.0.join("other.mvisnap");
    let other = engine(1);
    other.snapshot_to_path(&snapshot).unwrap();
    let want_other = other.query(0, 0, T_LEN).unwrap();
    assert!(!bitwise_eq(&want, &want_other), "the two models must be distinguishable");
    let old = Arc::downgrade(&reg.get("t").unwrap());
    reg.register_spilled("t", &snapshot).unwrap();
    assert!(old.upgrade().is_none(), "register_spilled must release the replaced engine");
    let got = client.query(0, 0, T_LEN as u32).unwrap();
    assert!(bitwise_eq(&got, &want_other), "the next query must be the snapshot's model");
    let last = client.health().unwrap().panics_caught;
    assert!(last >= after, "panics_caught fell across register_spilled: {after} → {last}");
    server.shutdown();
}
