//! Contract suite for the multi-model tenancy registry
//! ([`mvi_serve::ModelRegistry`]): capacity-bounded LRU residency, lossless
//! evict→reload via the durable snapshot path, carried health/stats counters
//! that survive eviction, typed failure for unknown / mid-load / full states,
//! and bitwise isolation between tenants under concurrent eviction pressure.
//!
//! Each seed gets its own trained model (built once per process); tenants
//! restore fresh engines from that snapshot, so an oracle engine restored
//! from the same snapshot answers bitwise-identically to the registry's copy.

mod common;

use common::{bitwise_eq, wait_until, Fixture, SpillDir};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig, ServeError, ValueGuard};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Duration;

const SERIES: usize = 2;
const T_LEN: usize = 80;
const SEEDS: usize = 3;

/// One trained model per seed, built lazily and shared process-wide.
fn fixture(seed: usize) -> &'static Fixture {
    static FIX: [OnceLock<Fixture>; SEEDS] = [const { OnceLock::new() }; SEEDS];
    FIX[seed % SEEDS].get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, 23 + seed as u64);
        let obs = Scenario::mcar(0.85).apply(&ds, 11 + seed as u64).observed();
        Fixture::train(ds.values, obs, 6)
    })
}

fn engine(seed: usize) -> Arc<ImputationEngine> {
    Arc::new(fixture(seed).engine())
}

fn registry(capacity: usize, dir: &SpillDir) -> ModelRegistry {
    ModelRegistry::new(RegistryConfig::new(capacity, &dir.0))
}

// ---------------------------------------------------------------------------
// Residency lifecycle: LRU order, lossless reload
// ---------------------------------------------------------------------------

#[test]
fn eviction_picks_the_least_recently_used_and_reload_is_bitwise_identical() {
    let dir = SpillDir::new("lru");
    let reg = registry(2, &dir);
    reg.register("a", engine(0)).unwrap();
    reg.register("b", engine(1)).unwrap();

    // Touch `a` so `b` becomes the LRU victim, then record b's answers.
    reg.get("a").unwrap();
    let oracle: Vec<f64> = reg.get("b").unwrap().query(0, 0, T_LEN).unwrap();
    reg.get("a").unwrap(); // `a` is most recent again

    // A third tenant forces an eviction: `b` (least recent) spills to disk.
    reg.register("c", engine(2)).unwrap();
    let stats = reg.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!((stats.resident, stats.spilled), (2, 1));
    assert!(reg.contains("b"), "an evicted tenant stays registered");
    assert_eq!(reg.tenants(), vec!["a".to_string(), "b".into(), "c".into()]);

    // Reloading `b` evicts the new LRU (`a`) and answers bitwise-identically.
    let reloaded = reg.get("b").unwrap().query(0, 0, T_LEN).unwrap();
    assert!(
        oracle.iter().zip(&reloaded).all(|(x, y)| x.to_bits() == y.to_bits()),
        "evict→reload must be lossless"
    );
    let stats = reg.stats();
    assert_eq!((stats.loads, stats.evictions), (1, 2));
    assert!(stats.resident <= 2, "capacity bound violated");
}

#[test]
fn capacity_zero_admits_nothing_and_says_so() {
    let dir = SpillDir::new("cap0");
    let reg = registry(0, &dir);
    match reg.register("a", engine(0)) {
        Err(ServeError::RegistryFull { capacity: 0 }) => {}
        other => panic!("capacity-0 register must be RegistryFull: {other:?}"),
    }
    match reg.get("a").map(|_| ()) {
        Err(ServeError::UnknownTenant { tenant }) => assert_eq!(tenant, "a"),
        other => panic!("unregistered get must be UnknownTenant: {other:?}"),
    }
    assert!(reg.is_empty());
}

#[test]
fn register_spilled_requires_a_real_file_and_loads_on_first_get() {
    let dir = SpillDir::new("spilled");
    let reg = registry(1, &dir);

    match reg.register_spilled("ghost", dir.0.join("missing.mvisnap")) {
        Err(ServeError::Snapshot(msg)) => assert!(msg.contains("ghost"), "names tenant: {msg}"),
        other => panic!("missing snapshot must be typed: {other:?}"),
    }

    // A real snapshot registers cold and loads lazily.
    std::fs::create_dir_all(&dir.0).unwrap();
    let source = engine(0);
    let oracle = source.query(1, 10, 60).unwrap();
    let path = dir.0.join("cold.mvisnap");
    source.snapshot_to_path(&path).unwrap();
    reg.register_spilled("cold", &path).unwrap();
    let stats = reg.stats();
    assert_eq!((stats.resident, stats.spilled, stats.loads), (0, 1, 0));

    let loaded = reg.get("cold").unwrap().query(1, 10, 60).unwrap();
    assert!(oracle.iter().zip(&loaded).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert_eq!(reg.stats().loads, 1);

    // A corrupt snapshot is a typed load failure and the tenant stays
    // spilled, ready for a retry once the file is fixed.
    let bad = dir.0.join("bad.mvisnap");
    std::fs::write(&bad, b"not a snapshot").unwrap();
    reg.register_spilled("corrupt", &bad).unwrap();
    assert!(reg.get("corrupt").is_err());
    let stats = reg.stats();
    assert_eq!(stats.load_failures, 1);
    assert_eq!(stats.spilled, 2, "a failed load releases the slot back to spilled");
}

// ---------------------------------------------------------------------------
// Spill files: one per tenant, owned by that tenant
// ---------------------------------------------------------------------------

#[test]
fn colliding_ids_spill_to_distinct_files_and_reload_their_own_models() {
    // A truncated 48-character stem plus a CRC-32 of the id once named both
    // of these tenants' spill files identically (same stem, CRC 0xc0ee6e47).
    let x41 = "x".repeat(41);
    let (first, second) = (format!("tenant-{x41}108ddf9"), format!("tenant-{x41}3008894"));
    let dir = SpillDir::new("collide");
    let reg = registry(1, &dir);
    reg.register(&first, engine(0)).unwrap();
    reg.register(&second, engine(1)).unwrap(); // spills `first`
    let first_path = reg.evict(&first).unwrap();
    let second_path = reg.evict(&second).unwrap();
    assert_ne!(first_path, second_path, "each tenant spills to its own file");

    for (tenant, seed) in [(&first, 0), (&second, 1), (&first, 0)] {
        let want = engine(seed).query(0, 0, T_LEN).unwrap();
        let got = reg.get(tenant).unwrap().query(0, 0, T_LEN).unwrap();
        assert!(
            want.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()),
            "`{tenant}` reloaded another tenant's model"
        );
    }

    // A spill file that records another tenant's id is refused typed, and
    // the tenant stays spilled.
    reg.evict(&first).unwrap();
    reg.evict(&second).unwrap();
    std::fs::copy(&first_path, &second_path).unwrap();
    match reg.get(&second).map(|_| ()) {
        Err(ServeError::Corrupt { section, detail }) => {
            assert_eq!(section, "header");
            assert!(detail.contains(first.as_str()), "names the recorded owner: {detail}");
        }
        other => panic!("a file owned by another tenant must not load: {other:?}"),
    }
    assert_eq!(reg.stats().load_failures, 1);
    reg.get(&first).unwrap();
}

#[test]
fn ids_over_the_wire_cap_are_refused_typed() {
    let dir = SpillDir::new("cap");
    let reg = registry(2, &dir);
    let longest = "t".repeat(64);
    reg.register(&longest, engine(0)).unwrap();
    let path = reg.evict(&longest).unwrap();
    assert!(reg.get(&longest).is_ok(), "a 64-byte id round-trips through its spill file");

    let too_long = "t".repeat(65);
    match reg.register(&too_long, engine(0)) {
        Err(ServeError::TenantIdTooLong { len: 65, max: 64 }) => {}
        other => panic!("a 65-byte id must be refused typed: {other:?}"),
    }
    match reg.register_spilled(&too_long, &path) {
        Err(ServeError::TenantIdTooLong { len: 65, max: 64 }) => {}
        other => panic!("a 65-byte id must be refused typed: {other:?}"),
    }
    assert!(!reg.contains(&too_long));
}

// ---------------------------------------------------------------------------
// Spill writes: skipped when the file already holds the engine, never leaky
// ---------------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn a_clean_eviction_leaves_the_spill_file_alone_and_a_changed_tenant_rewrites_it() {
    use std::os::unix::fs::MetadataExt;
    let id = |path: &std::path::Path| {
        let meta = std::fs::metadata(path).unwrap();
        (meta.ino(), meta.modified().unwrap())
    };
    let dir = SpillDir::new("skip");
    let reg = registry(1, &dir);
    reg.register("t", engine(0)).unwrap();
    // Registered resident, so this eviction writes.
    let path = reg.evict("t").unwrap();
    let written = id(&path);

    // Evict → reload → evict with nothing in between: same inode, same mtime.
    for _ in 0..2 {
        reg.get("t").unwrap();
        assert_eq!(reg.evict("t").unwrap(), path);
        assert_eq!(id(&path), written, "a clean eviction must not touch the spill file");
    }
    let stats = reg.stats();
    assert_eq!((stats.evictions, stats.loads), (3, 2), "a skipped write still evicts");

    // An append between reload and evict replaces the file, and the next
    // reload serves the appended values.
    let twin = engine(0);
    let (s, values) = (1, [0.75, 1.25, -0.5]);
    reg.get("t").unwrap().append(s, &values).unwrap();
    twin.append(s, &values).unwrap();
    reg.evict("t").unwrap();
    assert_ne!(id(&path).0, written.0, "a changed tenant must be written to a new file");
    let reloaded = reg.get("t").unwrap();
    let end = twin.live_len();
    assert!(bitwise_eq(&reloaded.query(s, end - values.len(), end).unwrap(), &values));
    same_state(&reloaded, &twin).unwrap();
    drop(reloaded);

    // The probe above computed windows, so this eviction writes; the reload
    // after it is clean. Deleting the file under that clean engine makes the
    // next eviction write it again.
    reg.evict("t").unwrap();
    reg.get("t").unwrap();
    std::fs::remove_file(&path).unwrap();
    reg.evict("t").unwrap();
    assert!(path.is_file(), "an eviction whose spill file is gone must write it");
    same_state(&reg.get("t").unwrap(), &twin).unwrap();

    // An edit that keeps the file's length and mtime survives a clean
    // eviction, and the reload's CRC check refuses it, typed.
    reg.evict("t").unwrap();
    reg.get("t").unwrap();
    let (len, mtime) = (std::fs::metadata(&path).unwrap().len(), id(&path).1);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    std::os::unix::fs::FileExt::write_all_at(&file, &[0xff; 8], len / 2).unwrap();
    file.set_modified(mtime).unwrap();
    drop(file);
    reg.evict("t").unwrap();
    assert!(matches!(reg.get("t").map(|_| ()), Err(ServeError::Corrupt { .. })));
    assert_eq!(reg.stats().load_failures, 1);
}

#[test]
fn a_failed_snapshot_write_keeps_the_tenant_resident_and_leaves_no_temp_file() {
    let dir = SpillDir::new("eisdir");
    let reg = registry(1, &dir);
    reg.register("t", engine(0)).unwrap();
    let path = reg.evict("t").unwrap();
    // A directory at the spill path: the write's final rename fails (EISDIR).
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();
    // Registered resident, never loaded: its eviction must write.
    reg.register("t", engine(0)).unwrap();
    let live = reg.get("t").unwrap();
    let want: Vec<Vec<f64>> = (0..SERIES).map(|s| live.query(s, 0, T_LEN).unwrap()).collect();
    let evictions = reg.stats().evictions;

    match reg.evict("t") {
        Err(ServeError::Snapshot(msg)) => assert!(msg.contains("rename"), "names the step: {msg}"),
        other => panic!("a failed spill write must be a typed Snapshot error: {other:?}"),
    }
    // The same failure through make_room: the newcomer is refused.
    match reg.register("u", engine(1)) {
        Err(ServeError::Snapshot(_)) => {}
        other => panic!("make_room's failed write must be a typed Snapshot error: {other:?}"),
    }

    let stats = reg.stats();
    assert_eq!(stats.evictions, evictions, "a failed write is not an eviction");
    assert_eq!((stats.resident, stats.spilled), (1, 0), "the tenant stays resident");
    assert!(!reg.contains("u"));
    let again = reg.get("t").unwrap();
    assert!(Arc::ptr_eq(&live, &again), "the tenant keeps its engine");
    for (s, want) in want.iter().enumerate() {
        assert!(bitwise_eq(&again.query(s, 0, T_LEN).unwrap(), want));
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "a failed write left temp files behind: {leftovers:?}");
}

// ---------------------------------------------------------------------------
// Typed loading/full states, held open deterministically by the load hook
// ---------------------------------------------------------------------------

#[test]
fn in_flight_loads_pin_their_slot_and_answer_loading_and_full_typed() {
    let dir = SpillDir::new("gate");
    let reg = Arc::new(registry(1, &dir));
    reg.register("a", engine(0)).unwrap();
    reg.evict("a").unwrap();

    // Gate the load: the loader thread parks inside the hook with the slot
    // in the loading state until we release it.
    let release = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(Barrier::new(2));
    let (rel, ent) = (Arc::clone(&release), Arc::clone(&entered));
    reg.set_load_hook(Some(Box::new(move |_| {
        ent.wait();
        while !rel.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    })));

    let loader = {
        let reg = Arc::clone(&reg);
        std::thread::spawn(move || reg.get("a").map(|_| ()))
    };
    entered.wait();
    assert_eq!(reg.stats().loading, 1);

    // Racing the load is answered typed-and-retryable, not blocked.
    match reg.get("a").map(|_| ()) {
        Err(ServeError::TenantLoading { tenant }) => assert_eq!(tenant, "a"),
        other => panic!("a racing get must see TenantLoading: {other:?}"),
    }
    // The loading slot is pinned: nothing is evictable, so a second tenant
    // cannot take a residency slot while the only one is mid-load.
    match reg.register("b", engine(1)) {
        Err(ServeError::RegistryFull { capacity: 1 }) => {}
        other => panic!("a pinned load must make register RegistryFull: {other:?}"),
    }
    match reg.evict("a") {
        Err(ServeError::TenantLoading { .. }) => {}
        other => panic!("evicting a loading slot must be typed: {other:?}"),
    }

    release.store(true, Ordering::Release);
    loader.join().unwrap().unwrap();
    reg.set_load_hook(None);

    // Once the load lands everything unblocks: `a` is a warm hit and `b`
    // registers by evicting it.
    reg.get("a").unwrap();
    reg.register("b", engine(1)).unwrap();
    assert_eq!(reg.stats().resident, 1);
    assert!(wait_until(Duration::from_secs(1), || reg.stats().loading == 0));
}

// ---------------------------------------------------------------------------
// Carried counters: health history survives eviction
// ---------------------------------------------------------------------------

#[test]
fn aggregate_health_sums_carried_and_live_counters_across_tenants() {
    let dir = SpillDir::new("agg");
    let reg = registry(2, &dir);
    let (a, b) = (engine(0), engine(1));
    a.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));
    b.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));
    for _ in 0..3 {
        a.append(0, &[1.0, 5000.0, 2.0]).unwrap(); // 3 quarantined on `a`
    }
    for _ in 0..5 {
        b.append(1, &[1.0, 5000.0, 2.0]).unwrap(); // 5 quarantined on `b`
    }
    reg.register("a", a).unwrap();
    reg.register("b", b).unwrap();

    assert_eq!(reg.tenant_health("a").unwrap().quarantined, 3);
    assert_eq!(reg.tenant_health("b").unwrap().quarantined, 5);
    assert_eq!(reg.aggregate_health().quarantined, 8);

    // Evicting `a` folds its counters into the carried totals: per-tenant
    // and aggregate views are unchanged by where the engine lives.
    reg.evict("a").unwrap();
    assert_eq!(reg.tenant_health("a").unwrap().quarantined, 3);
    assert_eq!(reg.aggregate_health().quarantined, 8);
    match reg.tenant_health("nope") {
        Err(ServeError::UnknownTenant { .. }) => {}
        other => panic!("unknown tenant health must be typed: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Property: LRU bookkeeping vs a shadow model
// ---------------------------------------------------------------------------

/// What the registry should look like after a sequence of operations,
/// tracked independently with plain lists.
#[derive(Default)]
struct Shadow {
    /// Resident tenants, least-recently-used first.
    recency: Vec<String>,
    /// Every id ever registered.
    registered: Vec<String>,
    evictions: u64,
    loads: u64,
}

impl Shadow {
    fn touch(&mut self, tenant: &str) {
        self.recency.retain(|t| t != tenant);
        self.recency.push(tenant.to_string());
    }

    fn make_room(&mut self, capacity: usize) -> bool {
        while self.recency.len() >= capacity {
            if self.recency.is_empty() {
                return false;
            }
            self.recency.remove(0);
            self.evictions += 1;
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random register/get/evict sequences: residency never exceeds
    /// capacity, the eviction/load/hit counters match an independent shadow
    /// model exactly, and every registered tenant stays servable.
    #[test]
    fn lru_bookkeeping_matches_a_shadow_model(
        capacity in 1usize..=3,
        ops in proptest::collection::vec((0u32..3, 0usize..4), 1..24),
    ) {
        let dir = SpillDir::new("prop-lru");
        let reg = registry(capacity, &dir);
        let mut shadow = Shadow::default();
        for (op, t) in ops {
            let tenant = format!("tenant-{t}");
            match op {
                // register: evicts LRU residents until a slot frees.
                0 => {
                    let replacing_resident = shadow.recency.contains(&tenant);
                    if !replacing_resident && !shadow.make_room(capacity) {
                        prop_assert!(reg.register(&tenant, engine(t)).is_err());
                        continue;
                    }
                    reg.register(&tenant, engine(t)).map_err(|e| e.to_string())?;
                    shadow.touch(&tenant);
                    if !shadow.registered.contains(&tenant) {
                        shadow.registered.push(tenant.clone());
                    }
                }
                // get: warm hit bumps recency, spilled loads (evicting LRU),
                // unknown is typed.
                1 => {
                    if !shadow.registered.contains(&tenant) {
                        match reg.get(&tenant).map(|_| ()) {
                            Err(ServeError::UnknownTenant { tenant: got }) => {
                                prop_assert_eq!(got, tenant);
                            }
                            other => {
                                return Err(format!("expected UnknownTenant: {other:?}").into())
                            }
                        }
                        continue;
                    }
                    let was_resident = shadow.recency.contains(&tenant);
                    if !was_resident {
                        prop_assert!(shadow.make_room(capacity), "capacity >= 1");
                        shadow.loads += 1;
                    }
                    reg.get(&tenant).map_err(|e| e.to_string())?;
                    shadow.touch(&tenant);
                }
                // evict: resident spills (idempotent on spilled), unknown typed.
                _ => {
                    if !shadow.registered.contains(&tenant) {
                        prop_assert!(matches!(
                            reg.evict(&tenant),
                            Err(ServeError::UnknownTenant { .. })
                        ));
                        continue;
                    }
                    reg.evict(&tenant).map_err(|e| e.to_string())?;
                    if shadow.recency.contains(&tenant) {
                        shadow.recency.retain(|x| *x != tenant);
                        shadow.evictions += 1;
                    }
                }
            }
            let stats = reg.stats();
            prop_assert!(stats.resident <= capacity, "resident {} > cap", stats.resident);
            prop_assert_eq!(stats.resident, shadow.recency.len());
            prop_assert_eq!(stats.evictions, shadow.evictions);
            prop_assert_eq!(stats.loads, shadow.loads);
            prop_assert_eq!(stats.registered, shadow.registered.len() as u64);
        }
        // Every tenant that ever registered is still servable: a get either
        // answers warm or reloads its spilled snapshot.
        for tenant in &shadow.registered {
            let eng = reg.get(tenant).map_err(|e| e.to_string())?;
            prop_assert!(eng.query(0, 0, 10).is_ok());
        }
    }

    /// Evict→reload round-trips are bitwise lossless for served values and
    /// preserve every monotonic health/stats counter exactly (the
    /// `degraded_windows` gauge is live-state and deliberately excluded).
    /// A cycle may first change the tenant ([`mutate`]); a twin engine that
    /// never leaves memory takes the same ops, so a change an eviction
    /// failed to write shows up as a difference after the reload.
    #[test]
    fn evict_reload_preserves_values_and_counters_bitwise(
        seed in 0usize..SEEDS,
        spikes in 1usize..5,
        mutations in proptest::collection::vec(0usize..4, 1..4),
    ) {
        let dir = SpillDir::new("prop-roundtrip");
        let reg = registry(1, &dir);
        let (eng, twin) = (engine(seed), engine(seed));
        for e in [&*eng, &*twin] {
            e.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));
            for _ in 0..spikes {
                for s in 0..SERIES {
                    e.append(s, &[1.0, 5000.0, 2.0]).map_err(|e| e.to_string())?;
                }
            }
        }
        reg.register("t", eng).map_err(|e| e.to_string())?;
        let handle = reg.get("t").map_err(|e| e.to_string())?;
        same_state(&handle, &twin)?;
        drop(handle);
        prop_assert_eq!(
            reg.tenant_health("t").map_err(|e| e.to_string())?.quarantined,
            (spikes * SERIES) as u64
        );

        for (cycle, &mutation) in mutations.iter().enumerate() {
            mutate(&reg, &twin, mutation, cycle)?;
            // The bitwise probe itself advances live counters, so the
            // preserved-exactly baseline is re-read at the top of each hop.
            let health_before = reg.tenant_health("t").map_err(|e| e.to_string())?;
            let stats_before = reg.tenant_stats("t").map_err(|e| e.to_string())?;
            reg.evict("t").map_err(|e| e.to_string())?;

            // Counters are indifferent to residency: spilled reports carried.
            let mut spilled_health = reg.tenant_health("t").map_err(|e| e.to_string())?;
            spilled_health.degraded_windows = health_before.degraded_windows;
            prop_assert!(spilled_health == health_before, "carried health lost on cycle {cycle}");

            let reloaded = reg.get("t").map_err(|e| e.to_string())?;
            let mut health_after = reg.tenant_health("t").map_err(|e| e.to_string())?;
            health_after.degraded_windows = health_before.degraded_windows;
            prop_assert!(health_after == health_before, "health diverged after reload {cycle}");
            let stats_after = reg.tenant_stats("t").map_err(|e| e.to_string())?;
            prop_assert!(stats_after == stats_before, "stats diverged after reload {cycle}");

            same_state(&reloaded, &twin)
                .map_err(|e| format!("cycle {cycle} (mutation {mutation}): {e}"))?;
            // The probe computed exactly the windows the twin's did: the
            // reload brought back the twin's freshness, not only its values.
            prop_assert_eq!(reg.tenant_stats("t").map_err(|e| e.to_string())?, twin.stats());
        }
    }
}

/// Applies one change to the resident tenant `t` and the same ops to `twin`:
/// `0` none; `1` an append; `2` a backfill into the earliest gap; `3` an
/// append, an evict→reload hop, then a query over the live span that
/// recomputes the windows the append left stale — on a freshly loaded
/// engine, so that query is its only change.
fn mutate(
    reg: &ModelRegistry,
    twin: &ImputationEngine,
    mutation: usize,
    cycle: usize,
) -> Result<(), String> {
    let err = |e: ServeError| e.to_string();
    let value = 0.5 + cycle as f64;
    let live = reg.get("t").map_err(err)?;
    match mutation {
        1 | 3 => {
            for e in [&*live, twin] {
                e.append(0, &[value, value + 0.25]).map_err(err)?;
            }
        }
        2 => {
            let obs = twin.observed();
            let (s, t) = (0..SERIES)
                .find_map(|s| obs.available.series(s).iter().position(|&a| !a).map(|t| (s, t)))
                .ok_or("no gap left to backfill")?;
            for e in [&*live, twin] {
                e.fill_range(s, t, &[value]).map_err(err)?;
            }
        }
        _ => {}
    }
    drop(live);
    if mutation == 3 {
        reg.evict("t").map_err(err)?;
        let loaded = reg.get("t").map_err(err)?;
        let computed = loaded.stats().windows_computed;
        for e in [&*loaded, twin] {
            for s in 0..SERIES {
                e.query(s, 0, e.live_len()).map_err(err)?;
            }
        }
        if loaded.stats().windows_computed == computed {
            return Err(format!("cycle {cycle}: the query recomputed no window"));
        }
    }
    Ok(())
}

/// Whether `got` holds bitwise the state `twin` does: observed data, cached
/// imputations and watermarks (reading these computes nothing), then a query
/// over each series' live span.
fn same_state(got: &ImputationEngine, twin: &ImputationEngine) -> Result<(), String> {
    let (obs, want) = (got.observed(), twin.observed());
    if obs.available != want.available || !bitwise_eq(obs.values.data(), want.values.data()) {
        return Err("observed state diverged".into());
    }
    let (cache, want) = (got.cached_values(), twin.cached_values());
    if cache.shape() != want.shape() || !bitwise_eq(cache.data(), want.data()) {
        return Err("cached values diverged".into());
    }
    let live = twin.live_len();
    for s in 0..SERIES {
        let err = |e: ServeError| e.to_string();
        if got.watermark(s).map_err(err)? != twin.watermark(s).map_err(err)? {
            return Err(format!("series {s}: watermark diverged"));
        }
        if !bitwise_eq(&got.query(s, 0, live).map_err(err)?, &twin.query(s, 0, live).map_err(err)?)
        {
            return Err(format!("series {s}: served values diverged"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Concurrency: tenants stay bitwise-isolated under eviction pressure
// ---------------------------------------------------------------------------

#[test]
fn concurrent_tenants_stay_bitwise_correct_under_eviction_pressure() {
    let dir = SpillDir::new("stress");
    let reg = Arc::new(registry(2, &dir));
    let names = ["alpha", "beta", "gamma"];
    let mut oracles: HashMap<&str, Vec<Vec<f64>>> = HashMap::new();
    for (seed, name) in names.iter().enumerate() {
        let oracle = engine(seed);
        oracles.insert(name, (0..SERIES).map(|s| oracle.query(s, 0, T_LEN).unwrap()).collect());
        reg.register(name, engine(seed)).unwrap();
    }

    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (reg, errors, stop, oracles) = (&reg, &errors, &stop, &oracles);
        // Three tenants querying concurrently, each against its own oracle —
        // a capacity-2 registry guarantees constant churn.
        let workers: Vec<_> = names
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut rng: u64 = 0x9e37 ^ name.len() as u64;
                    for round in 0..30 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let s = (rng as usize) % SERIES;
                        // Loading/full are retryable contracts, not failures.
                        let eng = loop {
                            match reg.get(name) {
                                Ok(eng) => break Some(eng),
                                Err(
                                    ServeError::TenantLoading { .. }
                                    | ServeError::RegistryFull { .. },
                                ) => std::thread::sleep(Duration::from_millis(1)),
                                Err(e) => {
                                    errors
                                        .lock()
                                        .unwrap()
                                        .push(format!("{name} round {round}: {e}"));
                                    break None;
                                }
                            }
                        };
                        let Some(eng) = eng else { return };
                        match eng.query(s, 0, T_LEN) {
                            Ok(got) => {
                                let want = &oracles[name][s];
                                if !want.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()) {
                                    errors.lock().unwrap().push(format!(
                                        "{name} series {s} diverged on round {round}"
                                    ));
                                    return;
                                }
                            }
                            Err(e) => {
                                errors.lock().unwrap().push(format!("{name} query {round}: {e}"));
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        // An evictor thread churns residency the whole time.
        let evictor = scope.spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let _ = reg.evict(names[i % names.len()]);
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        evictor.join().unwrap();
    });
    let errors = errors.into_inner().unwrap();
    assert!(errors.is_empty(), "cross-tenant corruption or lost service:\n{}", errors.join("\n"));

    let stats = reg.stats();
    assert!(stats.resident <= 2, "capacity bound violated under stress");
    assert!(stats.evictions >= 1 && stats.loads >= 1, "the stress must actually churn: {stats:?}");
    for name in names {
        assert!(reg.get(name).is_ok(), "every tenant must remain servable after the storm");
    }
}
