//! Multi-model tenancy: a capacity-bounded registry of serving engines.
//!
//! One process, many models. A [`ModelRegistry`] maps string **tenant ids**
//! to [`ImputationEngine`]s and keeps at most `capacity` of them resident at
//! once; everything else lives as a durable snapshot on disk (the
//! [`crate::durable`] binary format) and is reloaded on demand:
//!
//! * **register** — an engine enters resident under its tenant id
//!   ([`ModelRegistry::register`]), or cold as a snapshot path
//!   ([`ModelRegistry::register_spilled`]) that the first request will load.
//!   Ids longer than the wire's [`MAX_TENANT_LEN`] bytes are refused with
//!   [`ServeError::TenantIdTooLong`].
//! * **get** — [`ModelRegistry::get`] resolves a tenant to its engine. A
//!   resident tenant is a warm hit (and bumps its LRU recency). A spilled
//!   tenant triggers an on-demand load: the slot is marked loading, the
//!   snapshot is read and restored *outside* the registry lock (warm gets
//!   for other tenants are never blocked by a load), and the engine becomes
//!   resident. Concurrent callers racing that load are answered with the
//!   typed [`ServeError::TenantLoading`] — the request was not executed, so
//!   it is safe to retry after a short backoff.
//! * **evict** — when a register or load needs a slot and the registry is at
//!   capacity, the least-recently-used resident engine is **snapshotted to
//!   disk and then dropped** ([`ModelRegistry::evict`] does the same on
//!   demand). Eviction is lossless by construction: the spilled snapshot
//!   carries the full warm serving state, so a later request reloads an
//!   engine that answers bitwise-identically. Each tenant spills to its own
//!   file (named by the hex of its id) whose header records the id, and a
//!   reload of a file recording another tenant is a typed
//!   [`ServeError::Corrupt`].
//! * **batch** — [`ModelRegistry::client`] resolves a tenant as `get` does
//!   and returns a client of its [`MicroBatcher`], spawned on first use. The
//!   batcher lives in the resident slot and leaves with the engine, its
//!   queue answered with the typed [`ServeError::Shutdown`], so `capacity`
//!   bounds batcher threads too.
//! * **typed failure** — an unregistered tenant is
//!   [`ServeError::UnknownTenant`]; when every slot is pinned by an
//!   in-flight load and nothing can be evicted, the registry answers
//!   [`ServeError::RegistryFull`] instead of blocking or panicking.
//!
//! ## Health and stats survive eviction
//!
//! Engine health counters ([`HealthReport`]) and serving counters
//! ([`EngineStats`]) live in the engine, and a fresh engine restored from a
//! snapshot starts them at zero. The registry therefore **carries** each
//! tenant's monotonic counters across residencies: on eviction the outgoing
//! engine's counters are folded into the tenant's carried totals, and
//! [`ModelRegistry::tenant_health`] / [`ModelRegistry::tenant_stats`] report
//! carried + live. An evict→reload cycle preserves every monotonic counter
//! exactly (the `tests/registry.rs` proptest pins this); the one gauge,
//! `degraded_windows`, reflects only the currently-resident engine. Caught
//! batcher panics go to one counter per tenant, so they span residencies too.
//!
//! ## Locking
//!
//! The registry owns a single tenants mutex, held only for map bookkeeping —
//! never across a snapshot *load* (loads run outside the lock behind a
//! per-tenant loading marker). Eviction's snapshot write does run under the
//! lock: eviction is rare and the write is bounded, and holding the lock
//! keeps "resident + loading ≤ capacity" a hard invariant. Batchers are
//! spawned under the lock but dropped (joined) only after its release.
//! The registry takes no engine locks itself; per-engine calls (`health`,
//! `snapshot`) follow the engine's own `core → health` protocol.

use crate::batch::{BatchClient, BatcherConfig, MicroBatcher};
use crate::engine::{EngineStats, HealthReport, ServeError};
use crate::ImputationEngine;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Longest tenant id the registry accepts, in UTF-8 bytes: the cap the
/// network protocol carries (`mvi_net::MAX_TENANT_LEN` is this constant).
pub const MAX_TENANT_LEN: usize = 64;

/// Test-harness hook invoked on the loading thread after a tenant's slot is
/// marked loading and before its snapshot file is read. The fault and
/// concurrency suites gate this on a barrier to hold the loading state open
/// deterministically (the registry counterpart of
/// [`crate::engine::EvalHook`]).
pub type LoadHook = Box<dyn Fn(&str) + Send + Sync>;

/// Tuning for [`ModelRegistry::new`].
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Maximum engines resident (or mid-load) at once, and so of batcher
    /// threads too. A get or register that needs a slot beyond this evicts
    /// the least-recently-used resident engine; with nothing evictable it
    /// answers [`ServeError::RegistryFull`]. Zero admits nothing. A registry
    /// serves one running `NetServer` at a time (its drain closes every
    /// batcher).
    pub capacity: usize,
    /// Directory evicted tenants' snapshots are spilled into (created on
    /// first use).
    pub spill_dir: PathBuf,
}

impl RegistryConfig {
    /// A config with the given resident capacity and spill directory.
    pub fn new(capacity: usize, spill_dir: impl Into<PathBuf>) -> Self {
        Self { capacity, spill_dir: spill_dir.into() }
    }
}

/// Point-in-time registry counters ([`ModelRegistry::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tenants ever registered (monotonic; re-registering counts once).
    pub registered: u64,
    /// Snapshot loads completed by on-demand gets (monotonic).
    pub loads: u64,
    /// On-demand loads that failed (corrupt/missing snapshot; monotonic).
    pub load_failures: u64,
    /// Evictions performed — snapshot written, engine dropped (monotonic).
    pub evictions: u64,
    /// Gets answered by an already-resident engine (monotonic).
    pub hits: u64,
    /// Tenants currently resident.
    pub resident: usize,
    /// Tenants currently mid-load.
    pub loading: usize,
    /// Tenants currently spilled to disk.
    pub spilled: usize,
    /// The configured resident capacity.
    pub capacity: usize,
}

/// Where one tenant's engine currently lives.
enum SlotState {
    /// Warm: the engine is in memory with its batcher, once spawned;
    /// `last_used` orders LRU eviction.
    Resident { engine: Arc<ImputationEngine>, batcher: Option<MicroBatcher>, last_used: u64 },
    /// A thread is loading the snapshot right now (outside the lock); the
    /// slot is pinned — it cannot be evicted, re-registered or double-loaded.
    Loading,
    /// Cold: only the durable snapshot at `path` exists.
    Spilled { path: PathBuf },
}

/// One tenant: its engine (in whatever state) plus the counters carried
/// across residencies.
struct TenantSlot {
    state: SlotState,
    /// Monotonic health counters accumulated by engines that were since
    /// evicted or replaced (the `degraded_windows` gauge is never carried).
    carried_health: HealthReport,
    /// Monotonic serving counters accumulated the same way.
    carried_stats: EngineStats,
    /// Panics caught by every batcher this tenant has had.
    panics: Arc<AtomicU64>,
}

impl TenantSlot {
    fn fresh(state: SlotState) -> Self {
        Self {
            state,
            carried_health: HealthReport::default(),
            carried_stats: EngineStats::default(),
            panics: Arc::default(),
        }
    }

    /// Moves to `state`, folding a departing engine's counters into the
    /// carried totals; returns its batcher for the caller to drop unlocked.
    fn replace(&mut self, state: SlotState) -> Option<MicroBatcher> {
        match std::mem::replace(&mut self.state, state) {
            SlotState::Resident { engine, batcher, .. } => {
                add_health(&mut self.carried_health, &engine.health());
                add_stats(&mut self.carried_stats, &engine.stats());
                batcher
            }
            SlotState::Loading | SlotState::Spilled { .. } => None,
        }
    }

    /// Panics caught over every residency, and requests queued now.
    fn batcher_counters(&self) -> (u64, usize) {
        let depth = match &self.state {
            SlotState::Resident { batcher: Some(batcher), .. } => batcher.queue_depth(),
            _ => 0,
        };
        (self.panics.load(Ordering::Relaxed), depth)
    }
}

/// Adds `live`'s monotonic counters onto `acc` (element-wise for the
/// per-series quarantine vector; the `degraded_windows` gauge is summed too —
/// callers that fold a *departing* engine zero it afterwards via
/// [`TenantSlot::replace`]'s contract that carried gauges stay zero).
fn add_health(acc: &mut HealthReport, live: &HealthReport) {
    if acc.quarantined_by_series.len() < live.quarantined_by_series.len() {
        acc.quarantined_by_series.resize(live.quarantined_by_series.len(), 0);
    }
    for (a, l) in acc.quarantined_by_series.iter_mut().zip(&live.quarantined_by_series) {
        *a += l;
    }
    acc.quarantined += live.quarantined;
    acc.nonfinite_input_rejections += live.nonfinite_input_rejections;
    acc.degraded_events += live.degraded_events;
    acc.poison_recoveries += live.poison_recoveries;
    // `degraded_windows` is a gauge over the live engine's cache, not a
    // monotonic counter: a reloaded engine re-derives it from its snapshot,
    // so carrying it would double-count. Live-only by design.
}

fn add_stats(acc: &mut EngineStats, live: &EngineStats) {
    acc.requests += live.requests;
    acc.batches += live.batches;
    acc.windows_computed += live.windows_computed;
    acc.window_hits += live.window_hits;
    acc.appends += live.appends;
    acc.values_appended += live.values_appended;
    acc.backfills += live.backfills;
    acc.values_backfilled += live.values_backfilled;
    acc.evictions += live.evictions;
    acc.steps_evicted += live.steps_evicted;
}

/// The tenant map plus the LRU clock, all under one mutex.
struct Tenants {
    slots: HashMap<String, TenantSlot>,
    /// Bumped on every touch; resident slots record it as `last_used`, and
    /// the minimum over residents is the LRU eviction victim.
    clock: u64,
}

impl Tenants {
    /// Slots currently holding (or reserving) a resident place.
    fn occupied(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s.state, SlotState::Resident { .. } | SlotState::Loading))
            .count()
    }
}

/// A capacity-bounded, LRU-evicting map from tenant ids to serving engines;
/// see the [module docs](self) for the lifecycle. All methods take `&self`
/// and are safe to call from many threads.
pub struct ModelRegistry {
    config: RegistryConfig,
    tenants: Mutex<Tenants>,
    /// Arc'd so a running hook never holds the mutex: `set_load_hook` can
    /// replace or clear it mid-run, and the change sticks.
    load_hook: Mutex<Option<Arc<LoadHook>>>,
    registered: AtomicU64,
    loads: AtomicU64,
    load_failures: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
}

/// Poison-tolerant lock: registry bookkeeping is a plain map, always valid,
/// so a panic elsewhere must not wedge every tenant behind a poisoned mutex.
fn guard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ModelRegistry {
    /// An empty registry with the given capacity and spill directory.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            config,
            tenants: Mutex::new(Tenants { slots: HashMap::new(), clock: 0 }),
            load_hook: Mutex::new(None),
            registered: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Registers (or replaces) `tenant`'s engine as resident, evicting the
    /// LRU resident if the registry is at capacity. Replacing an existing
    /// resident engine folds its counters into the tenant's carried totals
    /// first, so health history survives the swap, and drops its batcher.
    ///
    /// # Errors
    /// [`ServeError::TenantIdTooLong`] for ids over [`MAX_TENANT_LEN`] bytes;
    /// [`ServeError::RegistryFull`] when no slot can be freed;
    /// [`ServeError::TenantLoading`] when the tenant is mid-load (the load
    /// owns the slot);
    /// [`ServeError::Snapshot`] when making room required an eviction whose
    /// snapshot write failed (the victim stays resident).
    pub fn register(&self, tenant: &str, engine: Arc<ImputationEngine>) -> Result<(), ServeError> {
        check_id(tenant)?;
        // Before the guard: every return unlocks, then joins these.
        let mut retired = Vec::new();
        let mut t = guard(&self.tenants);
        t.clock += 1;
        let now = t.clock;
        match t.slots.get(tenant).map(|s| &s.state) {
            Some(SlotState::Loading) => {
                return Err(ServeError::TenantLoading { tenant: tenant.to_string() })
            }
            // Replacing in place: the slot already holds its residency.
            Some(SlotState::Resident { .. }) => {}
            Some(SlotState::Spilled { .. }) | None => self.make_room(&mut t, &mut retired)?,
        }
        let state = SlotState::Resident { engine, batcher: None, last_used: now };
        match t.slots.get_mut(tenant) {
            Some(slot) => retired.extend(slot.replace(state)),
            None => {
                t.slots.insert(tenant.to_string(), TenantSlot::fresh(state));
                self.registered.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Registers `tenant` cold: only the snapshot at `path` exists, and the
    /// first [`ModelRegistry::get`] loads it. Registering over a resident
    /// engine folds that engine's counters into the carried totals and drops
    /// it and its batcher (a demotion to disk — the snapshot becomes the truth).
    ///
    /// # Errors
    /// [`ServeError::TenantIdTooLong`] for ids over [`MAX_TENANT_LEN`] bytes;
    /// [`ServeError::Snapshot`] when `path` is not a readable file;
    /// [`ServeError::TenantLoading`] when the tenant is mid-load.
    pub fn register_spilled(
        &self,
        tenant: &str,
        path: impl Into<PathBuf>,
    ) -> Result<(), ServeError> {
        check_id(tenant)?;
        let path = path.into();
        if !path.is_file() {
            return Err(ServeError::Snapshot(format!(
                "tenant `{tenant}`: snapshot `{}` is not a readable file",
                path.display()
            )));
        }
        // Before the guard: every return unlocks, then joins these.
        let mut retired = Vec::new();
        let mut t = guard(&self.tenants);
        match t.slots.get_mut(tenant) {
            Some(slot) if matches!(slot.state, SlotState::Loading) => {
                return Err(ServeError::TenantLoading { tenant: tenant.to_string() })
            }
            Some(slot) => retired.extend(slot.replace(SlotState::Spilled { path })),
            None => {
                t.slots.insert(tenant.to_string(), TenantSlot::fresh(SlotState::Spilled { path }));
                self.registered.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Resolves `tenant` to its engine: a warm hit for resident tenants, an
    /// on-demand snapshot load for spilled ones (run outside the registry
    /// lock; see the module docs).
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] for ids never registered;
    /// [`ServeError::TenantLoading`] while another caller's load is in
    /// flight; [`ServeError::RegistryFull`] when loading would need a slot
    /// and nothing is evictable; [`ServeError::Corrupt`] /
    /// [`ServeError::Snapshot`] when the spilled snapshot fails to load (the
    /// tenant stays spilled; the error names what broke) — including a file
    /// whose header records another tenant's id.
    pub fn get(&self, tenant: &str) -> Result<Arc<ImputationEngine>, ServeError> {
        self.resolve(tenant, |engine, _, _| Arc::clone(engine))
    }

    /// Resolves `tenant` as [`ModelRegistry::get`] does and returns a client
    /// of the batcher serving its engine, spawned from `config` on first use.
    ///
    /// # Errors
    /// As for [`ModelRegistry::get`].
    pub fn client(&self, tenant: &str, config: BatcherConfig) -> Result<BatchClient, ServeError> {
        self.resolve(tenant, |engine, batcher, panics| {
            batcher
                .get_or_insert_with(|| {
                    MicroBatcher::spawn_counting(Arc::clone(engine), config, Arc::clone(panics))
                })
                .client()
        })
    }

    /// Drops every batcher, which answers its queue with the typed
    /// [`ServeError::Shutdown`]; the engines stay resident.
    pub fn close_batchers(&self) {
        // The guard is a temporary of this statement: unlocked before the drop.
        let retired: Vec<MicroBatcher> = guard(&self.tenants)
            .slots
            .values_mut()
            .filter_map(|slot| match &mut slot.state {
                SlotState::Resident { batcher, .. } => batcher.take(),
                SlotState::Loading | SlotState::Spilled { .. } => None,
            })
            .collect();
        drop(retired);
    }

    /// Panics caught by `tenant`'s batchers over every residency (`None`:
    /// every tenant's), and the requests queued on them now.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] for ids never registered.
    pub fn batcher_counters(&self, tenant: Option<&str>) -> Result<(u64, usize), ServeError> {
        let t = guard(&self.tenants);
        let Some(tenant) = tenant else {
            return Ok(t
                .slots
                .values()
                .map(TenantSlot::batcher_counters)
                .fold((0, 0), |(panics, depth), (p, d)| (panics + p, depth + d)));
        };
        t.slots.get(tenant).map(TenantSlot::batcher_counters).ok_or_else(|| unknown(tenant))
    }

    /// The resolve path of `get` and `client`: `serve` runs under the lock on
    /// the resident engine, its batcher and the tenant's panic counter.
    fn resolve<R>(
        &self,
        tenant: &str,
        serve: impl FnOnce(&Arc<ImputationEngine>, &mut Option<MicroBatcher>, &Arc<AtomicU64>) -> R,
    ) -> Result<R, ServeError> {
        // Before the guard: every return unlocks, then joins these.
        let mut retired = Vec::new();
        let path = {
            let mut t = guard(&self.tenants);
            t.clock += 1;
            let now = t.clock;
            let slot = t.slots.get_mut(tenant).ok_or_else(|| unknown(tenant))?;
            let path = match &mut slot.state {
                SlotState::Resident { engine, batcher, last_used } => {
                    *last_used = now;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(serve(engine, batcher, &slot.panics));
                }
                SlotState::Loading => {
                    return Err(ServeError::TenantLoading { tenant: tenant.to_string() });
                }
                SlotState::Spilled { path } => path.clone(),
            };
            // Spilled: reserve a residency slot under the lock, then load
            // outside it so other tenants' warm gets proceed unblocked.
            self.make_room(&mut t, &mut retired)?;
            if let Some(slot) = t.slots.get_mut(tenant) {
                slot.state = SlotState::Loading;
            }
            path
        };
        drop(retired);
        self.run_load_hook(tenant);
        let loaded = load(&path, tenant);
        let mut t = guard(&self.tenants);
        t.clock += 1;
        let now = t.clock;
        // The loading marker pins the slot, and slots are never removed.
        let slot = t.slots.get_mut(tenant).ok_or_else(|| unknown(tenant))?;
        match loaded {
            Ok(engine) => {
                let engine = Arc::new(engine);
                let mut batcher = None;
                let served = serve(&engine, &mut batcher, &slot.panics);
                slot.state = SlotState::Resident { engine, batcher, last_used: now };
                self.loads.fetch_add(1, Ordering::Relaxed);
                Ok(served)
            }
            Err(e) => {
                // The load failed: release the reserved slot back to spilled
                // so a later attempt (or a fixed snapshot) can retry.
                slot.state = SlotState::Spilled { path };
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Evicts `tenant` now: snapshot to disk, drop the engine and batcher,
    /// return the spill path. Idempotent on already-spilled tenants
    /// (returns their existing path).
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] / [`ServeError::TenantLoading`] as for
    /// [`ModelRegistry::get`]; [`ServeError::Snapshot`] when the snapshot
    /// write fails (the tenant stays resident — eviction never loses state).
    pub fn evict(&self, tenant: &str) -> Result<PathBuf, ServeError> {
        // Before the guard: every return unlocks, then joins these.
        let mut retired = Vec::new();
        let mut t = guard(&self.tenants);
        match t.slots.get(tenant).map(|s| &s.state) {
            None => Err(unknown(tenant)),
            Some(SlotState::Loading) => {
                Err(ServeError::TenantLoading { tenant: tenant.to_string() })
            }
            Some(SlotState::Spilled { path }) => Ok(path.clone()),
            Some(SlotState::Resident { .. }) => self.evict_slot(&mut t, tenant, &mut retired),
        }
    }

    /// Every registered tenant id (resident, loading and spilled), sorted.
    pub fn tenants(&self) -> Vec<String> {
        let t = guard(&self.tenants);
        let mut ids: Vec<String> = t.slots.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Whether `tenant` is registered in any state.
    pub fn contains(&self, tenant: &str) -> bool {
        guard(&self.tenants).slots.contains_key(tenant)
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        guard(&self.tenants).slots.is_empty()
    }

    /// Point-in-time registry counters.
    pub fn stats(&self) -> RegistryStats {
        let t = guard(&self.tenants);
        let mut resident = 0usize;
        let mut loading = 0usize;
        let mut spilled = 0usize;
        for slot in t.slots.values() {
            match slot.state {
                SlotState::Resident { .. } => resident += 1,
                SlotState::Loading => loading += 1,
                SlotState::Spilled { .. } => spilled += 1,
            }
        }
        RegistryStats {
            registered: self.registered.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            resident,
            loading,
            spilled,
            capacity: self.config.capacity,
        }
    }

    /// `tenant`'s health: counters carried across evictions plus the live
    /// engine's, when resident (a spilled/loading tenant reports its carried
    /// totals). The `degraded_windows` gauge reflects only a resident engine.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] for ids never registered.
    pub fn tenant_health(&self, tenant: &str) -> Result<HealthReport, ServeError> {
        let t = guard(&self.tenants);
        let slot = t.slots.get(tenant).ok_or_else(|| unknown(tenant))?;
        let mut report = slot.carried_health.clone();
        if let SlotState::Resident { engine, .. } = &slot.state {
            let live = engine.health();
            add_health(&mut report, &live);
            report.degraded_windows = live.degraded_windows;
        }
        Ok(report)
    }

    /// `tenant`'s serving counters, carried + live as for
    /// [`ModelRegistry::tenant_health`].
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] for ids never registered.
    pub fn tenant_stats(&self, tenant: &str) -> Result<EngineStats, ServeError> {
        let t = guard(&self.tenants);
        let slot = t.slots.get(tenant).ok_or_else(|| unknown(tenant))?;
        let mut stats = slot.carried_stats;
        if let SlotState::Resident { engine, .. } = &slot.state {
            add_stats(&mut stats, &engine.stats());
        }
        Ok(stats)
    }

    /// The whole registry's health: every tenant's carried counters plus
    /// every resident engine's live ones, summed (per-series quarantine
    /// vectors sum element-wise over the longest series axis).
    pub fn aggregate_health(&self) -> HealthReport {
        let t = guard(&self.tenants);
        let mut report = HealthReport::default();
        for slot in t.slots.values() {
            add_health(&mut report, &slot.carried_health);
            if let SlotState::Resident { engine, .. } = &slot.state {
                let live = engine.health();
                add_health(&mut report, &live);
                report.degraded_windows += live.degraded_windows;
            }
        }
        report
    }

    /// Installs (or clears) the [`LoadHook`]; see its docs. Test harness
    /// only — production registries leave it unset.
    pub fn set_load_hook(&self, hook: Option<LoadHook>) {
        *guard(&self.load_hook) = hook.map(Arc::new);
    }

    fn run_load_hook(&self, tenant: &str) {
        // Clone the hook out and drop the guard before calling it: a gated
        // hook must not hold the mutex against `set_load_hook`, and a
        // replace/clear that lands mid-run must stick.
        let hook = guard(&self.load_hook).clone();
        if let Some(hook) = hook {
            hook(tenant);
        }
    }

    /// Frees residency slots until `occupied < capacity` (so one more slot
    /// can be taken), evicting least-recently-used residents into `retired`.
    fn make_room(
        &self,
        t: &mut Tenants,
        retired: &mut Vec<MicroBatcher>,
    ) -> Result<(), ServeError> {
        while t.occupied() >= self.config.capacity {
            let victim = t
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot.state {
                    SlotState::Resident { last_used, .. } => Some((last_used, key.clone())),
                    _ => None,
                })
                .min();
            let Some((_, key)) = victim else {
                return Err(ServeError::RegistryFull { capacity: self.config.capacity });
            };
            self.evict_slot(t, &key, retired)?;
        }
        Ok(())
    }

    /// Snapshots the resident engine under `key` to its spill path, folds
    /// its counters into the carried totals, drops it and moves its batcher
    /// to `retired`. On a failed snapshot write the tenant stays resident.
    fn evict_slot(
        &self,
        t: &mut Tenants,
        key: &str,
        retired: &mut Vec<MicroBatcher>,
    ) -> Result<PathBuf, ServeError> {
        let slot = t.slots.get_mut(key).ok_or_else(|| unknown(key))?;
        let SlotState::Resident { engine, .. } = &slot.state else { return Err(unknown(key)) };
        std::fs::create_dir_all(&self.config.spill_dir).map_err(|e| {
            ServeError::Snapshot(format!(
                "cannot create spill directory `{}`: {e}",
                self.config.spill_dir.display()
            ))
        })?;
        let path = spill_path(&self.config.spill_dir, key);
        crate::durable::write_file(&engine.snapshot(), &path, key)?;
        retired.extend(slot.replace(SlotState::Spilled { path: path.clone() }));
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ModelRegistry")
            .field("capacity", &self.config.capacity)
            .field("spill_dir", &self.config.spill_dir)
            .field("resident", &stats.resident)
            .field("loading", &stats.loading)
            .field("spilled", &stats.spilled)
            .finish()
    }
}

fn unknown(tenant: &str) -> ServeError {
    ServeError::UnknownTenant { tenant: tenant.to_string() }
}

fn check_id(tenant: &str) -> Result<(), ServeError> {
    if tenant.len() > MAX_TENANT_LEN {
        return Err(ServeError::TenantIdTooLong { len: tenant.len(), max: MAX_TENANT_LEN });
    }
    Ok(())
}

/// Loads `tenant`'s engine from the snapshot at `path`, refusing a file
/// whose header records a different tenant (files written outside a
/// registry record none and load for any tenant).
fn load(path: &Path, tenant: &str) -> Result<ImputationEngine, ServeError> {
    let (snap, owner) = crate::durable::read_file(path)?;
    if !owner.is_empty() && owner != tenant {
        return Err(ServeError::Corrupt {
            section: "header".into(),
            detail: format!("the snapshot belongs to tenant `{owner}`, not `{tenant}`"),
        });
    }
    ImputationEngine::from_owned_snapshot(snap)
}

/// The spill file for `tenant`: the hex of its full id, so the name is
/// filesystem-safe and distinct tenants can never share a file.
fn spill_path(dir: &Path, tenant: &str) -> PathBuf {
    let hex: String = tenant.bytes().map(|b| format!("{b:02x}")).collect();
    dir.join(format!("tenant-{hex}.mvisnap"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_paths_are_sanitized_and_collision_free() {
        let dir = Path::new("spill");
        let a = spill_path(dir, "acme/../../etc");
        assert_eq!(a.parent(), Some(dir), "path traversal must be neutralized: {a:?}");
        assert_eq!(spill_path(dir, "a/b"), dir.join("tenant-612f62.mvisnap"));
        assert_ne!(spill_path(dir, "a/b"), spill_path(dir, "a.b"));
        assert_eq!(spill_path(dir, ""), dir.join("tenant-.mvisnap"));
    }
}
