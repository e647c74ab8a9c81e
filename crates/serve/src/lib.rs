//! **mvi-serve** — online imputation serving for trained DeepMVI models.
//!
//! The batch pipeline ([`deepmvi::DeepMvi`]) retrains from scratch and imputes
//! the whole tensor per call. This crate is the production-facing counterpart:
//! a trained model is loaded **once** into a warm cache and then serves many
//! cheap requests — the train/infer split of `deepmvi::infer` turned into an
//! engine.
//!
//! * [`ServeSnapshot`] — self-describing persistence: config + dataset
//!   geometry (trained, live *and* retained lengths) + weights + trained
//!   std-dev, every section checksummed, geometry-checked and
//!   finiteness-checked on restore; optionally the whole **warm serving
//!   cache**, so [`ImputationEngine::from_snapshot`] restarts a process that
//!   serves cached queries with zero forward passes. The [`durable`] layer
//!   persists snapshots to disk atomically in a sectioned binary format and
//!   restores through an ordered fallback list
//!   ([`ImputationEngine::restore_with_fallback`]). A JSON encoding (wire
//!   v4) remains for test and example fixtures and the benchmark's
//!   snapshot encode/decode spans; no transport carries it.
//! * [`ImputationEngine`] — the serving core: a full-tensor imputation cache
//!   with per-window freshness, coalesced micro-batch queries
//!   ([`ImputationEngine::query_batch`]), a streaming
//!   [`ImputationEngine::append`] that re-imputes only the affected tail
//!   windows instead of the full tensor — and **grows** the series when the
//!   stream runs past the trained length (rolling-horizon inference, no
//!   capacity wall) — plus [`ImputationEngine::fill_range`] for backfilling
//!   interior gaps the append watermark has already passed. Built
//!   [`ImputationEngine::with_retention`], it becomes a **bounded-memory
//!   ring**: the newest `retention_len` steps stay resident, appends past the
//!   cap evict the oldest span, and evicted time answers with the typed
//!   [`engine::ServeError::Evicted`].
//! * [`MicroBatcher`] / [`BatchClient`] — a thread front door: concurrent
//!   callers funnel into one executor that drains pending requests into
//!   coalesced batches. The worker is **supervised**: a panicking batch is
//!   caught and retried request-by-request (only the culprit answers
//!   [`engine::ServeError::Panicked`]), the bounded queue sheds load with
//!   [`engine::ServeError::Overloaded`], and per-request deadlines free stuck
//!   clients with [`engine::ServeError::DeadlineExceeded`].
//! * **Fault tolerance throughout** — every failure is a typed
//!   [`engine::ServeError`], never a panic, never silent wrong data: NaN/±inf
//!   payloads are refused before touching storage, a [`ValueGuard`]
//!   quarantines absurd-but-finite readings, non-finite forward outputs
//!   degrade their window to a flagged mean-baseline fallback
//!   ([`ImputationEngine::query_flagged`]) that heals on the next clean
//!   recompute, and [`ImputationEngine::health`] exposes the counters. With
//!   guards installed and not firing, served values are bitwise identical to
//!   the unguarded engine.
//! * [`ModelRegistry`] — multi-model tenancy: many engines registered under
//!   string tenant ids, a capacity-bounded LRU of resident engines with
//!   lossless snapshot-to-disk eviction and on-demand reload through the
//!   [`durable`] path, one [`MicroBatcher`] per resident tenant
//!   ([`ModelRegistry::client`]) evicted with its engine, per-tenant
//!   health/stats/panic counts carried across evictions, and
//!   typed errors ([`engine::ServeError::UnknownTenant`],
//!   [`engine::ServeError::TenantLoading`],
//!   [`engine::ServeError::RegistryFull`]) instead of blocking or dropping
//!   requests.
//! * **Warm reads off the core lock** — engine state is split along the
//!   read/write axis: mutations stay sequenced on the core lock (DeepMVI's
//!   forward pass couples every series), health counters sit behind one
//!   health lock reached only through `Health::with`, whose `'static`
//!   closure cannot take the core lock (`core → health`), and warm queries
//!   answer from per-series snapshots held in one `RwLock<Arc<_>>` per series.
//!   A warm read never takes the core lock and holds the read guard only
//!   for an `Arc` clone, so it never waits on a forward pass, and readers
//!   never block each other. Warm reads linearize at their snapshot clone;
//!   snapshots are published before each mutation returns, so reads always
//!   see completed writes.
//!   Single-threaded replay with the warm path on and off is bitwise
//!   identical ([`ImputationEngine::set_warm_reads`]).
//!
//! # Quickstart
//!
//! Train offline, snapshot, serve online:
//!
//! ```
//! use deepmvi::{DeepMviConfig, DeepMviModel};
//! use mvi_data::generators::{generate_with_shape, DatasetName};
//! use mvi_data::scenarios::Scenario;
//! use mvi_serve::{ImputationEngine, ServeSnapshot};
//!
//! // Offline: train on the observed data and persist a snapshot.
//! let ds = generate_with_shape(DatasetName::Gas, &[3], 120, 4);
//! let obs = Scenario::mcar(1.0).apply(&ds, 1).observed();
//! let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
//! let mut model = DeepMviModel::new(&cfg, &obs);
//! model.fit(&obs);
//! let json = ServeSnapshot::capture(&model, &obs).to_json();
//!
//! // Online: rehydrate into an engine and serve.
//! let snapshot = ServeSnapshot::from_json(&json).unwrap();
//! let frozen = snapshot.restore(&obs).unwrap();
//! let engine = ImputationEngine::new(frozen, obs.clone()).unwrap();
//!
//! // Point queries impute on demand (and cache per window) ...
//! let head = engine.query(0, 0, 40).unwrap();
//! assert_eq!(head.len(), 40);
//! // ... new observations re-impute only the affected tail windows, and the
//! // stream may run past the trained length — the series grows instead of
//! // erroring, with windows beyond training served by a rolling horizon.
//! engine.append(0, &vec![0.25; 140 - engine.watermark(0).unwrap()]).unwrap();
//! assert_eq!(engine.live_len(), 140);
//! assert_eq!(engine.trained_len(), 120);
//! let grown_tail = engine.query(0, 120, 140).unwrap();
//! assert_eq!(grown_tail.len(), 20);
//! ```
//!
//! For concurrent callers, wrap the engine in a [`MicroBatcher`] and hand each
//! thread a [`BatchClient`]. For bounded memory on unbounded streams, build
//! with [`ImputationEngine::with_retention`]; for warm restarts, persist
//! [`ImputationEngine::snapshot`] and rebuild with
//! [`ImputationEngine::from_snapshot`] — or durably on disk with
//! [`ImputationEngine::snapshot_to_path`] /
//! [`ImputationEngine::restore_with_fallback`]. See the `online_serving`
//! example for an end-to-end tour, `ARCHITECTURE.md` for where the engine
//! sits in the system (including the failure-domain map and the lock order),
//! `tests/serve_faults.rs` for the fault-injection suite,
//! `tests/serve_concurrency.rs` for the concurrency stress +
//! linearizability suite, and `serve_bench` for the methodology behind
//! `BENCH_2.json`, `BENCH_3.json`, `BENCH_5.json`, `BENCH_6.json` and
//! `BENCH_7.json` (documented in `PERFORMANCE.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Typed failure, never panic: no `unwrap`/`expect`/`panic!`-family call on
// the serving path outside tests; the few structurally infallible ones carry
// an `#[expect]` with their reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod batch;
pub mod durable;
pub mod engine;
pub mod registry;
pub mod snapshot;
pub(crate) mod warm;

pub use batch::{BatchClient, BatcherConfig, MicroBatcher};
pub use engine::{
    AppendReport, EngineStats, EvalHook, HealthReport, ImputationEngine, ImputeRequest,
    ImputeResponse, ServeError, ValueGuard,
};
pub use registry::{LoadHook, ModelRegistry, RegistryConfig, RegistryStats};
pub use snapshot::ServeSnapshot;
