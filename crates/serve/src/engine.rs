//! The online imputation engine: a warm frozen model plus the mutable serving
//! state (observed values, imputation cache, per-window freshness).
//!
//! ## Consistency model
//!
//! The engine keeps a full-tensor imputation cache guarded by one mutex, with
//! a per-`(series, window)` freshness bit. Queries serve fresh windows straight
//! from the cache; stale windows covering missing entries are recomputed on
//! demand — coalesced across a batch so overlapping requests share one forward
//! pass per window ([`ImputationEngine::query_batch`]).
//!
//! ## Locks and the warm path
//!
//! The core mutex serializes *mutations and recomputes* — DeepMVI's forward
//! pass reads every series (the kernel regression samples sibling values
//! pointwise), so a write is inherently cross-series work and needs one
//! consistent multi-series view. Reads do not: every mutation **publishes**,
//! before it releases the core lock, an immutable per-series snapshot of the
//! retained imputed values plus freshness/degradation bits into that series'
//! `RwLock<Arc<_>>` cell (`crate::warm`). A query whose overlapped windows
//! are all fresh is answered entirely from that snapshot: it never takes the
//! core lock, and it holds the cell's read guard only for an `Arc` clone, so
//! it never waits on a forward pass — not even one for its own series.
//! Stale windows and invalid ranges fall through to the locked path, which
//! recomputes, answers and republishes. The health counters sit behind a
//! second mutex of their own, reached only through `Health::with`. Its
//! closure is `'static`, so it cannot borrow the engine or a core guard:
//! taking the core lock while holding health, or health twice, does not
//! compile (`core → health`). [`ImputationEngine::health`] and the
//! non-finite input gate never wait on a recompute, and every report is one
//! point in time.
//!
//! **Linearizability**: a warm read linearizes at its snapshot clone; since
//! publication happens before a mutation returns, any read issued after a
//! mutation completed observes it (reads-see-writes) —
//! `tests/serve_concurrency.rs` holds this as a property under stress. A
//! single-threaded replay answers bitwise as if every query took the locked
//! path: this module's unit tests replay a seeded log against a reference
//! engine whose warm snapshots are never fresh.
//!
//! [`ImputationEngine::append`] records newly arrived values at a series'
//! write watermark and re-imputes only the **affected tail windows** instead of
//! the full tensor:
//!
//! * the appended series: every window from one window before the append
//!   onwards (the fine-grained local mean of §4.1.1 reaches `w` steps across a
//!   window boundary, so re-imputation starts one window early);
//! * sibling series: only windows overlapping the appended range — the kernel
//!   regression (§4.2) reads sibling values pointwise at the imputed position,
//!   and the temporal transformer and local mean never cross series.
//!
//! Windows of the appended series *before* the recomputed tail are marked
//! stale rather than recomputed: their attention context (up to `ctx_windows`
//! windows) may span the append, so they heal lazily on the next query that
//! touches them. Values recomputed by `append` are exactly what a full batch
//! re-impute over the current state would produce — the integration tests
//! assert equality to 1e-9.
//!
//! ## Growable series capacity
//!
//! Series are **not** capped at the length the model was trained on. The
//! engine tracks a *live* length (the [`mvi_data::windows::WindowGrid`] grows
//! with it) and an internal storage *capacity*: an append running past the
//! live end extends the live length, and when it also runs past capacity the
//! backing [`ObservedDataset`]/[`Tensor`] grow geometrically (≥1.5×,
//! window-aligned) via their `extend_time` mutators, so the per-appended-value
//! storage cost stays amortized O(1). The slack between live length and
//! capacity is entirely missing/unobserved and is never visible through the
//! API: queries validate against the live length, and
//! [`ImputationEngine::observed`]/[`ImputationEngine::cached_values`] return
//! the live prefix.
//!
//! Windows past the trained length are evaluated by the frozen model's
//! *rolling* temporal context (the attention horizon slides to the most recent
//! trained-length span of windows, with horizon-relative positional
//! encodings), so a grown engine still matches a batch re-impute of the
//! equivalently extended dataset to 1e-9 — see `deepmvi::FrozenModel::t_len`.
//!
//! ## Bounded memory: the retention ring
//!
//! An unbounded stream grows resident storage forever. An engine built with
//! [`ImputationEngine::with_retention`] instead keeps a **retention ring**: a
//! configurable number of the *newest* time steps stays resident, and an
//! append that would run past the ring capacity first **evicts the oldest
//! window-aligned span**. Logical time keeps advancing — window indices,
//! watermarks, query ranges and reports all stay absolute — but physical
//! storage is a bounded buffer whose origin ([`ImputationEngine::retained_start`])
//! slides forward with the stream:
//!
//! * storage capacity never exceeds the **ring cap**
//!   `w · (⌈retention_len / w⌉ + 1)` (one window of slack keeps the retained
//!   span ≥ `retention_len` through window-aligned eviction), and the
//!   retained span always holds at least the newest `retention_len` steps;
//! * queries (and backfills) touching evicted time fail with the typed
//!   [`ServeError::Evicted`] instead of silently serving wrong data;
//! * eviction invalidates only what it actually changes: the evicted windows
//!   leave with their storage, and the first trained-horizon's worth of
//!   retained windows are marked stale because their rolling attention
//!   context (and, for the origin window, the ±`w` fine-grained reach) no
//!   longer sees the evicted data. Deeper retained windows keep their cache
//!   — their context is entirely inside the ring, so their imputations are
//!   unchanged.
//!
//! The consistency oracle under retention is the **truncated batch
//! re-impute**: the engine serves exactly what `FrozenModel::impute` over the
//! retained span (as a standalone dataset — [`ImputationEngine::observed`])
//! produces, to 1e-9 (bitwise at a fixed thread count). Windows whose rolling
//! horizon lies entirely inside the ring additionally match the *unbounded*
//! engine bitwise, because the horizon-relative forward pass sees identical
//! inputs either way. `tests/serve_retention.rs` holds both as properties.
//!
//! ## Watermarks and interior gaps
//!
//! Each series has one **write watermark**: the position just past the last
//! observed entry at construction, advanced by every append. `append` is the
//! *streaming* mutation — it always records at the watermark. A series with a
//! hidden interior range followed by observed data starts with its watermark
//! past the gap, so late-arriving data for the interior cannot enter through
//! `append`; that is what [`ImputationEngine::fill_range`] is for — it records
//! values at an explicit in-range position (backfill), re-imputes the windows
//! within local (±`w`) reach of the filled range plus sibling overlaps, and
//! invalidates the rest of the series for lazy healing, exactly mirroring the
//! append consistency contract.

use crate::warm::{SeriesSnap, WarmSnaps};
use deepmvi::{FrozenModel, InferScratch, WindowQuery};
use health::Health;
use mvi_data::dataset::ObservedDataset;
use mvi_data::windows::WindowGrid;
use mvi_tensor::Tensor;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Errors produced by the serving layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Model/dataset geometry mismatch (wrong dims, series length, weights).
    Geometry(String),
    /// An `append`/`fill_range` payload carries NaN/±inf. Rejected **before
    /// anything touches storage**: the whole mutation is refused, the
    /// engine's observed state, cache and watermarks are untouched.
    NonFiniteInput {
        /// The series the mutation targeted.
        s: usize,
        /// Index of the first non-finite value *within the submitted slice*.
        offset: usize,
    },
    /// The request's micro-batch panicked inside the executor. The worker
    /// survives (the panic is caught and the engine state heals itself), so
    /// this is transient: the same request may well succeed on retry.
    Panicked,
    /// The batcher's bounded pending queue is full — backpressure instead of
    /// unbounded buffering. Retry after a backoff.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's configured deadline elapsed before a reply arrived
    /// (either it expired while queued, or the evaluation was stuck). The
    /// client is released; the batch may still complete in the background.
    DeadlineExceeded,
    /// A durable snapshot failed an integrity check: the named section's
    /// bytes do not match their recorded checksum (bit rot, torn write,
    /// truncation). The snapshot must not be served; fall back to an older
    /// one ([`crate::ImputationEngine::restore_with_fallback`]).
    Corrupt {
        /// Which section failed (`"header"`, `"params/<name>"`,
        /// `"cache.values"`, …, `"trailer"`).
        section: String,
        /// What exactly mismatched.
        detail: String,
    },
    /// Series id outside the dataset.
    Series {
        /// The requested series id.
        s: usize,
        /// How many series the dataset holds.
        n_series: usize,
    },
    /// Time range outside the live series length or inverted.
    Range {
        /// Requested range start (inclusive).
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Live series length the range was validated against.
        t_len: usize,
    },
    /// The range touches time the retention ring has already evicted: the
    /// data is gone, so the engine refuses rather than serve silently-wrong
    /// values. Only engines built with [`ImputationEngine::with_retention`]
    /// produce this.
    Evicted {
        /// Requested range start (inclusive).
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Oldest retained time position; everything before it is evicted.
        retained_start: usize,
    },
    /// A restored snapshot carries NaN/±inf weights; serving them would
    /// silently answer every query with NaN.
    NonFiniteWeights {
        /// Name of the offending parameter tensor.
        param: String,
    },
    /// Snapshot parse/restore failure.
    Snapshot(String),
    /// The serving executor shut down before answering (transient: the
    /// request itself may be perfectly valid). This is the **deliberate**
    /// outcome: the batcher drained its queue and answered every pending
    /// request with this typed reply.
    Shutdown,
    /// The executor's reply channel disconnected **without** a typed answer —
    /// the crash-shaped counterpart of [`ServeError::Shutdown`]: the worker
    /// vanished (or the submission raced the final shutdown drain) and this
    /// request's reply was lost rather than answered. Whether the evaluation
    /// ran is unknown, so callers must not assume either way.
    Disconnected,
    /// The tenant id is not registered in the [`crate::registry::ModelRegistry`]
    /// — neither resident nor spilled to disk. Retrying the identical request
    /// can never succeed until someone registers the tenant.
    UnknownTenant {
        /// The tenant id the request named.
        tenant: String,
    },
    /// Another caller is loading this tenant's snapshot from disk right now.
    /// The request was **not** executed, so it is safe to retry after a
    /// short backoff — by then the load has usually finished.
    TenantLoading {
        /// The tenant id whose snapshot is mid-load.
        tenant: String,
    },
    /// The registry cannot make room for this tenant: every resident slot is
    /// pinned by an in-flight load (or the capacity is zero), so nothing can
    /// be evicted. Unlike [`ServeError::TenantLoading`] this does not resolve
    /// on a retry timescale without other traffic finishing, so it is not
    /// flagged retry-safe on the wire.
    RegistryFull {
        /// The configured resident capacity that was exhausted.
        capacity: usize,
    },
    /// The tenant id is longer than the
    /// [`crate::registry::MAX_TENANT_LEN`]-byte cap the wire protocol carries,
    /// so no request could ever route to it; the registry refuses it.
    TenantIdTooLong {
        /// The offending id's length in UTF-8 bytes.
        len: usize,
        /// The cap.
        max: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Geometry(msg) => write!(f, "geometry mismatch: {msg}"),
            ServeError::NonFiniteInput { s, offset } => {
                write!(
                    f,
                    "series {s}: input value at offset {offset} is not finite (NaN/inf never \
                     enters storage)"
                )
            }
            ServeError::Panicked => {
                write!(f, "the request's micro-batch panicked in the executor (transient)")
            }
            ServeError::Overloaded { capacity } => {
                write!(f, "serving queue full ({capacity} pending requests); retry with backoff")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline elapsed before the batch replied")
            }
            ServeError::Corrupt { section, detail } => {
                write!(f, "snapshot corrupt in section `{section}`: {detail}")
            }
            ServeError::Series { s, n_series } => {
                write!(f, "series {s} out of range (dataset has {n_series})")
            }
            ServeError::Range { start, end, t_len } => {
                write!(f, "range {start}..{end} invalid for live series length {t_len}")
            }
            ServeError::Evicted { start, end, retained_start } => {
                write!(
                    f,
                    "range {start}..{end} touches evicted time (the retention ring starts at \
                     {retained_start})"
                )
            }
            ServeError::NonFiniteWeights { param } => {
                write!(f, "snapshot parameter `{param}` contains non-finite weights")
            }
            ServeError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            ServeError::Shutdown => write!(f, "serving executor shut down before answering"),
            ServeError::Disconnected => {
                write!(f, "serving executor disconnected without answering (reply lost)")
            }
            ServeError::UnknownTenant { tenant } => {
                write!(f, "tenant `{tenant}` is not registered")
            }
            ServeError::TenantLoading { tenant } => {
                write!(f, "tenant `{tenant}` is loading its snapshot; retry shortly")
            }
            ServeError::RegistryFull { capacity } => {
                write!(f, "model registry is full ({capacity} resident slots, none evictable)")
            }
            ServeError::TenantIdTooLong { len, max } => {
                write!(f, "tenant id of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Limits on what an incoming observation is allowed to look like. Values
/// violating a guard are **quarantined**: the mutation succeeds, the stream
/// keeps advancing, but the flagged value is recorded only in the health
/// counters — it never enters the observed state, so it can never reach a
/// forward pass or be served back as truth. The position stays missing and is
/// imputed like any other gap.
///
/// Non-finite values are rejected harder — the whole mutation fails with
/// [`ServeError::NonFiniteInput`] before anything is recorded — because a NaN
/// in a payload is a client bug, while an absurd-but-finite value is what a
/// glitching sensor emits (the messy streams DeepMVI is built for).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ValueGuard {
    /// Quarantine values with `|v| > abs_max` (`None` = no absolute bound).
    pub abs_max: Option<f64>,
    /// Quarantine values jumping more than this from the reference level: the
    /// previous accepted value of the same mutation, or the nearest earlier
    /// observed value in the retained window (`None` = no jump bound; values
    /// with no reference in reach are never jump-quarantined).
    pub max_jump: Option<f64>,
}

impl ValueGuard {
    /// Whether `v` violates this guard relative to the reference level
    /// `prev` (the nearest earlier accepted/observed value, if any).
    fn quarantines(&self, v: f64, prev: Option<f64>) -> bool {
        if self.abs_max.is_some_and(|m| v.abs() > m) {
            return true;
        }
        match (self.max_jump, prev) {
            (Some(j), Some(p)) => (v - p).abs() > j,
            _ => false,
        }
    }
}

/// One range answer plus its serving-quality flag (see
/// [`ImputationEngine::query_flagged`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ImputeResponse {
    /// The fully-imputed values of the requested range (observed entries pass
    /// through, missing entries are imputed).
    pub values: Vec<f64>,
    /// `true` when any window overlapping the range is currently serving the
    /// **mean-baseline fallback** because the model's forward output for it
    /// was non-finite (see the output guard in the module docs). The values
    /// are still finite and safe to display, but they carry no model signal;
    /// the window heals on its next successful recompute.
    pub degraded: bool,
}

/// Point-in-time fault/degradation counters — the serving health surface
/// ([`ImputationEngine::health`]). The engine keeps one of these behind its
/// health lock and hands out copies. Everything here is monotonic except
/// `degraded_windows`, which is the *current* number of windows serving the
/// baseline fallback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Values quarantined by the [`ValueGuard`], per series.
    pub quarantined_by_series: Vec<u64>,
    /// Total quarantined values across all series.
    pub quarantined: u64,
    /// Mutations rejected outright for carrying NaN/±inf
    /// ([`ServeError::NonFiniteInput`]).
    pub nonfinite_input_rejections: u64,
    /// Times a window's forward output came back non-finite and the window
    /// degraded to the mean baseline (monotonic; one count per event).
    pub degraded_events: u64,
    /// Windows currently serving the mean-baseline fallback (`series ×
    /// window` pairs; shrinks as degraded windows heal).
    pub degraded_windows: u64,
    /// Times the engine recovered its state lock from a poisoned mutex (a
    /// panic unwound through a serving call). Recovery conservatively marks
    /// every window stale, so correctness self-heals at recompute cost.
    pub poison_recoveries: u64,
}

/// The health cell: the `core → health` lock order held by a type.
mod health {
    use super::HealthReport;
    use std::sync::{Mutex, PoisonError};

    /// The engine's health counters behind their own mutex.
    pub(super) struct Health(Mutex<HealthReport>);

    impl Health {
        pub(super) fn new(report: HealthReport) -> Self {
            Self(Mutex::new(report))
        }

        /// Runs `f` on the counters under one acquisition. `f` is `'static`,
        /// so it cannot borrow the engine or a core guard: it can neither
        /// take the core lock nor reach this cell again, so health is never
        /// held across another lock and never taken twice. The critical
        /// sections are pure counter arithmetic, so a poisoned lock still
        /// guards valid counts and recovery simply continues.
        pub(super) fn with<R>(&self, f: impl FnOnce(&mut HealthReport) -> R + 'static) -> R {
            f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
        }
    }
}

/// One imputation request: the fully-imputed values of `[start, end)` in
/// series `s` (observed entries pass through, missing entries are imputed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImputeRequest {
    /// Flat series id.
    pub s: usize,
    /// Range start (inclusive).
    pub start: usize,
    /// Range end (exclusive).
    pub end: usize,
}

/// What one [`ImputationEngine::append`] or [`ImputationEngine::fill_range`]
/// did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendReport {
    /// The time range the new values were recorded into.
    pub recorded: (usize, usize),
    /// Windows re-imputed eagerly (local reach of the record + sibling
    /// overlaps).
    pub windows_recomputed: usize,
    /// Missing positions whose cached imputation was refreshed.
    pub positions_refreshed: usize,
    /// Windows of the recorded series marked stale for lazy recomputation.
    pub windows_invalidated: usize,
    /// Values the [`ValueGuard`] quarantined out of this mutation: they were
    /// observed but never recorded, their positions stay missing (and are
    /// imputed), and the per-series health counters account for them.
    pub values_quarantined: usize,
    /// Live series length after the mutation (appends may grow it past the
    /// trained length; backfills never do).
    pub live_len: usize,
    /// Oldest retained time position after the mutation (`0` on unbounded
    /// engines; advances when an append pushes the retention ring forward).
    /// If the mutation evicted, `recorded.0` may exceed the pre-append
    /// watermark: values destined for time the eviction consumed are dropped
    /// immediately rather than recorded.
    pub retained_start: usize,
}

/// Monotonic serving counters (lock-free reads; see
/// [`ImputationEngine::stats`]).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    windows_computed: AtomicU64,
    window_hits: AtomicU64,
    appends: AtomicU64,
    values_appended: AtomicU64,
    backfills: AtomicU64,
    values_backfilled: AtomicU64,
    evictions: AtomicU64,
    steps_evicted: AtomicU64,
    /// Nanoseconds serving calls spent *blocked* on the core state lock
    /// (contended acquisitions only; an uncontended `try_lock` costs no
    /// clock read). The mixed-traffic probe of `serve_bench --only=sharded`
    /// asserts warm reads keep this flat while appends run.
    lock_wait_nanos: AtomicU64,
}

/// Point-in-time copy of the engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests served (each element of a batch counts once).
    pub requests: u64,
    /// Micro-batches executed (a single `query` counts as a batch of one).
    pub batches: u64,
    /// Window forward passes actually evaluated.
    pub windows_computed: u64,
    /// Windows with missing entries served from the warm cache without a
    /// forward pass (fully observed windows never count — they need neither
    /// cache nor compute).
    pub window_hits: u64,
    /// Successful appends.
    pub appends: u64,
    /// Total values recorded by appends.
    pub values_appended: u64,
    /// Successful interior backfills ([`ImputationEngine::fill_range`]).
    pub backfills: u64,
    /// Total values recorded by backfills.
    pub values_backfilled: u64,
    /// Retention-ring evictions (always `0` on unbounded engines).
    pub evictions: u64,
    /// Total time steps evicted from the front of the ring, summed over all
    /// evictions (per series; multiply by the series count for cell counts).
    pub steps_evicted: u64,
}

/// The validated warm state the snapshot layer hands to
/// [`ImputationEngine::from_parts`] on a warm restart: physical storage
/// (`obs`/`imputed` with time `0` = `retained_start`) plus the ring/serving
/// bookkeeping.
pub(crate) struct RestoredParts {
    pub obs: ObservedDataset,
    pub imputed: Tensor,
    pub fresh: Vec<Vec<bool>>,
    pub watermark: Vec<usize>,
    pub retained_start: usize,
    pub live_t_len: usize,
    pub retention: Option<usize>,
}

/// Mutable serving state, guarded by the engine mutex.
///
/// Time coordinates come in two flavours here:
///
/// * **logical** — absolute stream time, what the public API speaks. The
///   grid, watermarks, request ranges and reports are all logical.
/// * **physical** — offsets into the bounded storage buffers (`obs`,
///   `imputed`). Physical `0` is the ring origin `grid.origin()`, so
///   `physical = logical - origin`; with no retention configured the origin
///   stays `0` and the two coincide. Because the origin is window-aligned, a
///   retained logical window's storage slot ([`WindowGrid::slot`]) equals its
///   window index on the grid of the physical buffer viewed standalone —
///   which is exactly the grid the frozen model evaluates, so
///   [`deepmvi::WindowQuery`] is issued in physical coordinates.
struct EngineState {
    /// Observed values/mask at storage *capacity*, physical coordinates;
    /// everything in `[grid.retained_len(), obs.t_len())` is missing by
    /// construction.
    obs: ObservedDataset,
    /// The live window grid (logical): `grid.t_len()` is the live series
    /// length, `grid.origin()` the retention-ring origin.
    grid: WindowGrid,
    /// Full-tensor cache at storage capacity (physical): observed values +
    /// the latest imputations.
    imputed: Tensor,
    /// Freshness per series, one flag per retained window, indexed by storage
    /// slot ([`WindowGrid::slot`]).
    fresh: Vec<Vec<bool>>,
    /// Degradation per series/slot, parallel to `fresh`: `true` while the
    /// cached values of the window are the **mean-baseline fallback** (its
    /// forward output was non-finite). Cleared by the next successful
    /// recompute; evicted/grown alongside `fresh`.
    degraded: Vec<Vec<bool>>,
    /// The configured input guard, if any
    /// ([`ImputationEngine::set_value_guard`]).
    guard: Option<ValueGuard>,
    /// Fault-injection hook ([`ImputationEngine::set_eval_hook`]): run on
    /// every window-batch result before the output guard inspects it.
    eval_hook: Option<EvalHook>,
    /// Per-series write watermark (logical): where the next append lands
    /// (one past the last observed entry, never before the ring origin).
    watermark: Vec<usize>,
    /// The forward-pass scratch. Every pass runs under the core lock, so one
    /// is enough; a pass takes it out of the state while it runs, so a panic
    /// unwinding through the pass abandons it and the next pass starts from
    /// a fresh one.
    scratch: InferScratch,
}

impl EngineState {
    /// Live series length (logical end of the stream; capacity slack
    /// excluded).
    fn live_t(&self) -> usize {
        self.grid.t_len()
    }

    /// The ring origin: oldest retained logical time (`0` when unbounded).
    fn base(&self) -> usize {
        self.grid.origin()
    }

    /// The mean-baseline fallback level for series `s` — what a degraded
    /// window serves instead of a non-finite forward output: the mean of the
    /// series' retained observed values, else the global retained observed
    /// mean, else `0.0`. Always finite and never model-derived, so a poisoned
    /// forward pass cannot leak through it.
    fn baseline_level(&self, s: usize) -> f64 {
        let span = self.grid.retained_len();
        let series_mean = |sid: usize| {
            let avail = self.obs.available.series(sid);
            let vals = self.obs.values.series(sid);
            let mut sum = 0.0;
            let mut n = 0usize;
            for t in 0..span {
                if avail[t] {
                    sum += vals[t];
                    n += 1;
                }
            }
            (n > 0).then_some((sum, n))
        };
        if let Some((sum, n)) = series_mean(s) {
            return sum / n as f64;
        }
        let (sum, n) = (0..self.obs.n_series())
            .filter_map(series_mean)
            .fold((0.0, 0usize), |(a, b), (sum, n)| (a + sum, b + n));
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }
}

/// A fault-injection hook over the raw window-batch forward results (one
/// `Vec<f64>` per evaluated window query), invoked inside the engine lock
/// after the forward pass and **before** the output guard. The fault suite
/// (`tests/serve_faults.rs`) uses it to panic mid-batch, stall an evaluation,
/// or poison outputs with NaN — every failure mode the serving layer promises
/// to survive; it is equally usable for chaos testing a deployment.
pub type EvalHook = Box<dyn FnMut(&mut [Vec<f64>]) + Send>;

/// The online imputation engine. Shareable across threads behind an `Arc`;
/// all methods take `&self`.
pub struct ImputationEngine {
    model: FrozenModel,
    n_series: usize,
    /// Configured retention window in time steps (`None` = unbounded).
    retention: Option<usize>,
    /// Storage bound derived from `retention`: `w · (⌈retention/w⌉ + 1)`.
    /// The extra window of slack keeps the retained span ≥ `retention`
    /// through window-aligned eviction.
    ring_cap: Option<usize>,
    state: Mutex<EngineState>,
    counters: Counters,
    /// The health counters, reached only through [`Health::with`].
    health: Health,
    /// Per-series warm snapshots, read without the core lock.
    snaps: WarmSnaps,
}

impl ImputationEngine {
    /// Builds an engine over a frozen model and the current observed state of
    /// the dataset it serves. The imputation cache starts cold: every window
    /// containing missing entries is computed on first touch (or all at once
    /// via [`ImputationEngine::warm_up`]).
    ///
    /// `obs` may be *longer* than the model's trained length (a serving state
    /// that already grew past training, e.g. restored from a snapshot of a
    /// long-running deployment); it can never be shorter.
    ///
    /// Storage grows without bound as the stream runs — see
    /// [`ImputationEngine::with_retention`] for the bounded-memory variant.
    ///
    /// # Errors
    /// [`ServeError::Geometry`] when `obs` does not match the geometry the
    /// model was built for.
    pub fn new(model: FrozenModel, obs: ObservedDataset) -> Result<Self, ServeError> {
        Self::build(model, obs, None)
    }

    /// Like [`ImputationEngine::new`], but with a **retention ring**: resident
    /// storage is bounded by the ring cap `w · (⌈retention_len/w⌉ + 1)` time
    /// steps per series, and at least the newest `retention_len` steps are
    /// always retained. Appends past the cap evict the oldest window-aligned
    /// span ([`EngineStats::evictions`]); queries and backfills touching
    /// evicted time fail with [`ServeError::Evicted`].
    ///
    /// If `obs` already exceeds the cap, its oldest span is evicted
    /// immediately — the engine starts with [`ImputationEngine::retained_start`]
    /// past zero and never allocates beyond the cap. Unlike
    /// [`ImputationEngine::new`], `obs` may also be *shorter* than the
    /// trained length: a bounded engine's natural input is a retained window
    /// of history (e.g. the observed span of a ring snapshot restored cold),
    /// and the forward pass clips to the live data it has.
    ///
    /// ```
    /// use deepmvi::{DeepMviConfig, DeepMviModel};
    /// use mvi_data::generators::{generate_with_shape, DatasetName};
    /// use mvi_data::scenarios::Scenario;
    /// use mvi_serve::{ImputationEngine, ServeError};
    ///
    /// let ds = generate_with_shape(DatasetName::Gas, &[2], 60, 4);
    /// let obs = Scenario::mcar(1.0).apply(&ds, 1).observed();
    /// let cfg = DeepMviConfig { max_steps: 2, ..DeepMviConfig::tiny() };
    /// let mut model = DeepMviModel::new(&cfg, &obs);
    /// model.fit(&obs);
    ///
    /// // Keep (at least) the newest 30 steps; storage is capped near that.
    /// let engine = ImputationEngine::with_retention(model.freeze(), obs, 30).unwrap();
    /// let cap = engine.ring_capacity().unwrap();
    /// for chunk in 0..50 {
    ///     engine.append(0, &[chunk as f64; 5]).unwrap();
    ///     assert!(engine.storage_capacity() <= cap); // resident memory stays flat
    /// }
    /// let (start, live) = (engine.retained_start(), engine.live_len());
    /// assert_eq!(live, 60 + 250);              // logical time kept advancing
    /// assert!(live - start >= 30);             // the retention floor holds
    /// assert!(engine.query(0, start, live).is_ok());
    /// // Evicted time answers with a typed error, never silently-wrong data.
    /// assert!(matches!(
    ///     engine.query(0, start - 1, live),
    ///     Err(ServeError::Evicted { .. })
    /// ));
    /// ```
    ///
    /// # Errors
    /// [`ServeError::Geometry`] on a model/dataset mismatch (as in
    /// [`ImputationEngine::new`]) or a zero `retention_len`.
    pub fn with_retention(
        model: FrozenModel,
        obs: ObservedDataset,
        retention_len: usize,
    ) -> Result<Self, ServeError> {
        if retention_len == 0 {
            return Err(ServeError::Geometry(
                "retention window must be at least one time step".into(),
            ));
        }
        Self::build(model, obs, Some(retention_len))
    }

    fn build(
        model: FrozenModel,
        obs: ObservedDataset,
        retention: Option<usize>,
    ) -> Result<Self, ServeError> {
        // A poisoned model (NaN/±inf weights — a diverged training run, or a
        // snapshot restored through a path without its own check) would
        // silently answer every query with NaN; refuse to serve it at all.
        if let Err(param) = model.validate_finite() {
            return Err(ServeError::NonFiniteWeights { param });
        }
        // A bounded engine accepts any history length (its input is a
        // retained window); an unbounded one must cover the trained span.
        let too_short = retention.is_none() && obs.t_len() < model.t_len();
        if obs.series_shape() != model.series_shape() || too_short {
            return Err(ServeError::Geometry(format!(
                "observed dataset {:?}x{} does not match model {:?}x{} (series shapes must \
                 match and an unbounded engine's dataset can only be longer than the trained \
                 length)",
                obs.series_shape(),
                obs.t_len(),
                model.series_shape(),
                model.t_len()
            )));
        }
        let w = model.grid().window_len();
        let grid = WindowGrid::new(w, obs.t_len());
        let ring_cap = retention.map(|r| w * (r.div_ceil(w) + 1));
        let n_series = obs.n_series();
        let watermark = (0..n_series)
            .map(|s| {
                let avail = obs.available.series(s);
                avail.iter().rposition(|&a| a).map_or(0, |t| t + 1)
            })
            .collect();
        let imputed = obs.values.clone();
        let mut state = EngineState {
            obs,
            grid,
            imputed,
            fresh: Vec::new(),
            degraded: Vec::new(),
            guard: None,
            eval_hook: None,
            watermark,
            scratch: InferScratch::default(),
        };

        // A dataset already past the ring cap starts with its oldest span
        // evicted: storage is rebuilt at the cap, so memory never exceeds it
        // even transiently after construction.
        if let Some(cap) = ring_cap {
            let live = state.grid.t_len();
            if live > cap {
                let new_base = (live - cap).div_ceil(w) * w;
                let span = live - new_base;
                state.obs.retain_latest(span);
                state.obs.extend_time(cap);
                state.imputed.retain_latest(span);
                state.imputed.extend_time(cap, 0.0);
                state.grid.retain_from(new_base);
                for wm in &mut state.watermark {
                    *wm = (*wm).max(new_base);
                }
            }
        }
        state.fresh = vec![vec![false; state.grid.n_windows()]; n_series];
        state.degraded = vec![vec![false; state.grid.n_windows()]; n_series];
        Ok(Self::assemble(model, retention, ring_cap, state))
    }

    /// Wraps a built state into an engine and publishes the initial warm
    /// snapshots (nothing is fresh yet, so they only short-circuit
    /// trivially-empty reads, but they establish the invariant that
    /// published state always mirrors the locked state).
    fn assemble(
        model: FrozenModel,
        retention: Option<usize>,
        ring_cap: Option<usize>,
        state: EngineState,
    ) -> Self {
        let n_series = state.obs.n_series();
        let engine = Self {
            model,
            n_series,
            retention,
            ring_cap,
            state: Mutex::new(state),
            counters: Counters::default(),
            health: Health::new(HealthReport {
                quarantined_by_series: vec![0; n_series],
                ..HealthReport::default()
            }),
            snaps: WarmSnaps::new(n_series),
        };
        let state = engine.lock_state();
        engine.publish_all(&state);
        drop(state);
        engine
    }

    /// Rebuilds and publishes the warm snapshot of series `s` from the
    /// locked state. Callers hold the core lock, which serializes all
    /// publication; readers of the cell wait at most for its pointer swap.
    fn publish_series(&self, state: &EngineState, s: usize) {
        let span = state.grid.retained_len();
        let (base, live, w) = (state.base(), state.live_t(), state.grid.window_len());
        let n_windows = state.grid.n_windows();
        let avail = state.obs.available.series(s);
        let missing: Vec<bool> = (0..n_windows)
            .map(|slot| {
                let lo = slot * w;
                let hi = ((slot + 1) * w).min(span);
                avail[lo..hi].iter().any(|&a| !a)
            })
            .collect();
        // A window is *servable* warm if its cache is fresh — or if it has
        // nothing to impute: fully-observed windows are never computed (the
        // locked path skips them too), so their freshness bit stays false
        // forever while their cached values are exact.
        let fresh: Vec<bool> =
            (0..n_windows).map(|slot| state.fresh[s][slot] || !missing[slot]).collect();
        let snap = SeriesSnap {
            base,
            live,
            w,
            values: state.imputed.series(s)[..span].to_vec(),
            fresh,
            degraded: state.degraded[s].clone(),
            missing,
        };
        self.snaps.publish(s, snap);
    }

    /// Publishes every series' warm snapshot.
    fn publish_all(&self, state: &EngineState) {
        for s in 0..self.n_series {
            self.publish_series(state, s);
        }
    }

    /// Publishes the warm snapshots of a specific series set (the query
    /// path republishes only what it recomputed).
    fn publish_series_set(&self, state: &EngineState, set: impl IntoIterator<Item = usize>) {
        for s in set {
            self.publish_series(state, s);
        }
    }

    /// Assembles an engine directly from restored parts (the snapshot
    /// warm-restart path): the caller has already validated geometry and the
    /// state is taken as-is — `parts.obs`/`parts.imputed` are physical
    /// storage whose position `0` is logical time `parts.retained_start`.
    pub(crate) fn from_parts(model: FrozenModel, parts: RestoredParts) -> Self {
        let RestoredParts { obs, imputed, fresh, watermark, retained_start, live_t_len, retention } =
            parts;
        let w = model.grid().window_len();
        let mut grid = WindowGrid::new(w, live_t_len);
        if retained_start > 0 {
            grid.retain_from(retained_start);
        }
        let ring_cap = retention.map(|r| w * (r.div_ceil(w) + 1));
        debug_assert_eq!(obs.t_len(), grid.retained_len(), "physical span mismatch");
        let degraded = fresh.iter().map(|f| vec![false; f.len()]).collect();
        let state = EngineState {
            obs,
            grid,
            imputed,
            fresh,
            degraded,
            guard: None,
            eval_hook: None,
            watermark,
            scratch: InferScratch::default(),
        };
        Self::assemble(model, retention, ring_cap, state)
    }

    /// Acquires the state lock, **recovering from poisoning**: when a panic
    /// unwound through a serving call (an injected fault, a numeric assert),
    /// the state may hold partially-applied cache writes, so recovery marks
    /// every window stale — correctness self-heals through lazy recomputation
    /// — clears the poison flag and counts the event
    /// ([`HealthReport::poison_recoveries`]). A panic therefore costs
    /// recompute work, never wrong answers and never a wedged engine.
    fn lock_state(&self) -> MutexGuard<'_, EngineState> {
        // Contended acquisitions are timed (the blocked-time probe of the
        // sharded bench arm); the uncontended fast path costs no clock read.
        let locked = match self.state.try_lock() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::Poisoned(poisoned)) => Err(poisoned),
            Err(TryLockError::WouldBlock) => {
                let t0 = std::time::Instant::now();
                let locked = self.state.lock();
                self.counters
                    .lock_wait_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                locked
            }
        };
        match locked {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.state.clear_poison();
                let mut guard = poisoned.into_inner();
                for fresh in &mut guard.fresh {
                    fresh.iter_mut().for_each(|f| *f = false);
                }
                self.health.with(|h| h.poison_recoveries += 1);
                // The published warm snapshots predate the scrub; republish
                // so the warm path cannot serve windows the recovery
                // just distrusted.
                self.publish_all(&guard);
                guard
            }
        }
    }

    /// Installs (or clears) the [`ValueGuard`] that screens every value
    /// entering through [`ImputationEngine::append`] /
    /// [`ImputationEngine::fill_range`]. Guarded mutations quarantine
    /// violating values instead of recording them; see [`ValueGuard`].
    pub fn set_value_guard(&self, guard: Option<ValueGuard>) {
        self.lock_state().guard = guard;
    }

    /// Installs (or clears) the fault-injection hook run on every
    /// window-batch forward result (see [`EvalHook`]). This is the seam the
    /// fault suite drives panics, stalls and poisoned outputs through; it is
    /// `None` in production unless you are chaos-testing.
    pub fn set_eval_hook(&self, hook: Option<EvalHook>) {
        self.lock_state().eval_hook = hook;
    }

    /// Point-in-time health counters: quarantine activity, rejected
    /// non-finite inputs, output-guard degradations and poison recoveries.
    ///
    /// The report is a **consistent snapshot**: one copy taken under the
    /// health lock, and every mutation applies all the counter changes it
    /// makes under a single acquisition of that lock. The report therefore
    /// never shows a torn aggregate: `quarantined` always equals the sum of
    /// `quarantined_by_series`, and the degraded gauge never counts a
    /// half-applied batch. Never takes the core state lock, so health stays
    /// responsive while a recompute runs.
    pub fn health(&self) -> HealthReport {
        self.health.with(|h| h.clone())
    }

    /// Total nanoseconds serving calls have spent blocked on a *contended*
    /// core state lock since construction. Warm reads never touch the core
    /// lock, so this stays flat while warm query load runs against appends
    /// (the mixed-traffic probe of `serve_bench --only=sharded`).
    pub fn lock_wait_nanos(&self) -> u64 {
        self.counters.lock_wait_nanos.load(Ordering::Relaxed)
    }

    /// The frozen model this engine serves.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// A snapshot of the live window grid: `grid().t_len()` is the current
    /// live series length, which grows as appends run past it.
    pub fn grid(&self) -> WindowGrid {
        self.lock_state().grid
    }

    /// Current live series length (starts at the constructed dataset's length
    /// and grows with appends).
    pub fn live_len(&self) -> usize {
        self.lock_state().live_t()
    }

    /// Series length the served model was trained on (fixed).
    pub fn trained_len(&self) -> usize {
        self.model.t_len()
    }

    /// The configured retention window in time steps, or `None` for an
    /// unbounded engine.
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// The oldest retained logical time position: `0` on unbounded engines,
    /// advancing (window-aligned) as the retention ring evicts. Queries
    /// before this fail with [`ServeError::Evicted`].
    pub fn retained_start(&self) -> usize {
        self.lock_state().base()
    }

    /// The hard per-series storage bound in time steps,
    /// `w · (⌈retention_len/w⌉ + 1)`, or `None` for an unbounded engine.
    /// [`ImputationEngine::storage_capacity`] never exceeds this.
    pub fn ring_capacity(&self) -> Option<usize> {
        self.ring_cap
    }

    /// Current *physical* storage capacity in time steps per series — the
    /// resident-memory footprint of the series buffers. Grows geometrically
    /// on an unbounded engine; capped at [`ImputationEngine::ring_capacity`]
    /// under retention (the long-stream bench asserts this stays flat).
    pub fn storage_capacity(&self) -> usize {
        self.lock_state().obs.t_len()
    }

    /// Computes every stale window with missing entries now, so subsequent
    /// queries are pure cache reads. Returns the number of windows computed.
    pub fn warm_up(&self) -> usize {
        let mut state = self.lock_state();
        let mut queries = Vec::new();
        let mut needed = BTreeSet::new();
        let (base, live_t) = (state.base(), state.live_t());
        for s in 0..self.n_series {
            self.collect_stale(&state, s, base, live_t, &mut needed, &mut queries);
        }
        self.compute_and_fill(&mut state, &queries);
        self.publish_all(&state);
        queries.len()
    }

    /// Serves one request (a micro-batch of one); see
    /// [`ImputationEngine::query_batch`].
    ///
    /// # Errors
    /// [`ServeError::Series`] / [`ServeError::Range`] on an invalid request.
    pub fn query(&self, s: usize, start: usize, end: usize) -> Result<Vec<f64>, ServeError> {
        self.query_flagged(s, start, end).map(|r| r.values)
    }

    /// Like [`ImputationEngine::query`], but the answer carries its
    /// serving-quality flag: `degraded` is set when any window overlapping the
    /// range is currently serving the mean-baseline fallback (see
    /// [`ImputeResponse`]).
    ///
    /// # Errors
    /// [`ServeError::Series`] / [`ServeError::Range`] on an invalid request.
    #[expect(
        clippy::expect_used,
        reason = "query_batch_flagged returns exactly one answer per request"
    )]
    pub fn query_flagged(
        &self,
        s: usize,
        start: usize,
        end: usize,
    ) -> Result<ImputeResponse, ServeError> {
        self.query_batch_flagged(&[ImputeRequest { s, start, end }]).pop().expect("one result")
    }

    /// Serves a micro-batch of requests: validates each against the live
    /// series length (and, under retention, the evicted boundary), coalesces
    /// the stale windows the batch needs (deduplicated across overlapping
    /// requests), evaluates them in one data-parallel pass, then answers
    /// every request from the refreshed cache. Per-request errors do not
    /// poison the batch.
    ///
    /// Per-range degradation flags are dropped; see
    /// [`ImputationEngine::query_flagged`] for the flag-carrying form.
    pub fn query_batch(&self, requests: &[ImputeRequest]) -> Vec<Result<Vec<f64>, ServeError>> {
        self.query_batch_flagged(requests).into_iter().map(|r| r.map(|resp| resp.values)).collect()
    }

    /// The flag-carrying form of [`ImputationEngine::query_batch`]: each
    /// answer is an [`ImputeResponse`] whose `degraded` bit reports whether
    /// the range overlaps a window currently serving the mean-baseline
    /// fallback (its forward output was non-finite; see the output guard in
    /// [`ImputationEngine::health`] and the module docs).
    pub(crate) fn query_batch_flagged(
        &self,
        requests: &[ImputeRequest],
    ) -> Vec<Result<ImputeResponse, ServeError>> {
        self.counters.requests.fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);

        let mut answers: Vec<Option<Result<ImputeResponse, ServeError>>> =
            vec![None; requests.len()];
        let mut hits = 0usize;

        // Warm fast path: a request whose overlapped windows are all fresh
        // in the published snapshot is answered without the core lock — it
        // never waits on a recompute, and other readers never wait on it.
        // Each answer linearizes at its snapshot clone: publication happens
        // before a mutation returns, so completed mutations are always
        // visible.
        for (slot, r) in answers.iter_mut().zip(requests) {
            if r.s >= self.n_series {
                continue; // typed error produced by the locked path below
            }
            let snap = self.snaps.snapshot(r.s);
            if let Some((resp, snap_hits)) = snap.answer(r.start, r.end) {
                hits += snap_hits;
                *slot = Some(Ok(resp));
            }
        }

        // Slow path for whatever the snapshots could not serve: invalid
        // requests (typed errors) and stale windows (recompute + republish).
        if answers.iter().any(|a| a.is_none()) {
            let mut state = self.lock_state();
            let (base, live_t) = (state.base(), state.live_t());
            let mut queries = Vec::new();
            let mut needed = BTreeSet::new();
            for (slot, r) in answers.iter_mut().zip(requests) {
                if slot.is_some() {
                    continue;
                }
                let err = if r.s >= self.n_series {
                    Some(ServeError::Series { s: r.s, n_series: self.n_series })
                } else if r.start > r.end || r.end > live_t {
                    Some(ServeError::Range { start: r.start, end: r.end, t_len: live_t })
                } else if r.start < base {
                    Some(ServeError::Evicted { start: r.start, end: r.end, retained_start: base })
                } else {
                    None
                };
                if let Some(e) = err {
                    *slot = Some(Err(e));
                    continue;
                }
                hits += self.collect_stale(&state, r.s, r.start, r.end, &mut needed, &mut queries);
            }
            self.compute_and_fill(&mut state, &queries);
            for (slot, r) in answers.iter_mut().zip(requests) {
                if slot.is_none() {
                    *slot = Some(Ok(ImputeResponse {
                        values: state.imputed.series(r.s)[r.start - base..r.end - base].to_vec(),
                        degraded: state
                            .grid
                            .windows_overlapping(r.start, r.end)
                            .any(|wj| state.degraded[r.s][state.grid.slot(wj)]),
                    }));
                }
            }
            // Republish what this batch recomputed so the next reader of
            // these series takes the warm path again.
            let recomputed: BTreeSet<usize> = queries.iter().map(|q| q.s).collect();
            self.publish_series_set(&state, recomputed);
        }

        self.counters.window_hits.fetch_add(hits as u64, Ordering::Relaxed);
        #[expect(
            clippy::expect_used,
            reason = "every slot is filled on the validation, warm, or recompute path above"
        )]
        let answers = answers.into_iter().map(|a| a.expect("every request answered")).collect();
        answers
    }

    /// Records newly arrived values for series `s` at its write watermark and
    /// re-imputes the affected tail windows (see the module docs for the exact
    /// affected set). An append running past the current live length **grows**
    /// the series: the live grid extends, storage grows geometrically when
    /// capacity is exhausted, and windows past the trained length are served
    /// through the frozen model's rolling temporal context — streaming never
    /// hits a capacity wall. Under retention, growth past the ring cap
    /// instead **evicts the oldest window-aligned span** first, so resident
    /// storage stays bounded while the stream runs forever (an append larger
    /// than the ring records only its newest retained tail). Returns what was
    /// recorded and recomputed.
    ///
    /// # Errors
    /// [`ServeError::Series`] for a bad id, [`ServeError::NonFiniteInput`]
    /// when the payload carries NaN/±inf (the whole append is refused before
    /// anything is recorded).
    pub fn append(&self, s: usize, values: &[f64]) -> Result<AppendReport, ServeError> {
        if s >= self.n_series {
            return Err(ServeError::Series { s, n_series: self.n_series });
        }
        self.check_finite(s, values)?;
        let mut state = self.lock_state();
        let wm = state.watermark[s];
        let end = wm + values.len();
        if values.is_empty() {
            return Ok(AppendReport {
                recorded: (wm, wm),
                windows_recomputed: 0,
                positions_refreshed: 0,
                windows_invalidated: 0,
                values_quarantined: 0,
                live_len: state.live_t(),
                retained_start: state.base(),
            });
        }
        let mut evicted_stale = 0usize;
        if end > state.live_t() {
            evicted_stale = self.grow(&mut state, end);
        }
        // Eviction may have advanced the ring past the watermark (a huge
        // append, or a series that idled while siblings streamed on): the
        // prefix of `values` destined for evicted time is dropped immediately.
        let start = wm.max(state.base());
        let quarantined = self.record(&mut state, s, start, &values[start - wm..]);
        state.watermark[s] = end;

        // Eager set: the whole tail from one window before the append (the
        // fine-grained mean reaches `w` steps across a window boundary). When
        // the append grew the series, every window holding newly-live
        // positions overlaps `[start, end)` — the appended range ends at the
        // new live end — so extended windows of *all* series are refreshed or
        // invalidated by the shared plumbing below too.
        let tail = state.grid.tail_windows_for(start);
        let mut report = self.refresh_after_record(&mut state, s, start, end, tail);
        report.windows_invalidated += evicted_stale;
        report.values_quarantined = quarantined;

        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        // Count what was *recorded*: a prefix the eviction consumed (start
        // past the old watermark) was dropped, not recorded, and quarantined
        // values were observed but never entered storage.
        self.counters
            .values_appended
            .fetch_add((end - start - quarantined) as u64, Ordering::Relaxed);
        // Publish before the core lock releases: every series' freshness
        // may have changed (sibling invalidation), and a reader that starts
        // after this append returns must observe it.
        self.publish_all(&state);
        Ok(report)
    }

    /// Records late-arriving values for series `s` at an explicit position
    /// inside the live range — the *backfill* counterpart of
    /// [`ImputationEngine::append`] for interior gaps the watermark has
    /// already passed (e.g. a sensor outage healed by a delayed batch upload).
    ///
    /// Re-imputes eagerly every window within local reach of the filled range
    /// (±`w`: the fine-grained mean crosses one window boundary) plus sibling
    /// windows overlapping it (kernel regression), and invalidates the rest of
    /// the series' fresh windows for lazy healing (attention context), exactly
    /// mirroring the append contract: eager positions match a full batch
    /// re-impute of the current state.
    ///
    /// The watermark only moves if the filled range ends past it; filling an
    /// interior gap leaves streaming appends unaffected:
    ///
    /// ```
    /// # use deepmvi::{DeepMviConfig, DeepMviModel};
    /// # use mvi_data::generators::{generate_with_shape, DatasetName};
    /// # use mvi_data::scenarios::Scenario;
    /// # use mvi_serve::ImputationEngine;
    /// # let ds = generate_with_shape(DatasetName::Gas, &[2], 60, 4);
    /// # let mut obs = Scenario::mcar(1.0).apply(&ds, 1).observed();
    /// // A hidden interior range with observed data after it: the watermark
    /// // starts at the series end, past the gap.
    /// obs.hide_range(0, 20, 30);
    /// # let cfg = DeepMviConfig { max_steps: 2, ..DeepMviConfig::tiny() };
    /// # let mut model = DeepMviModel::new(&cfg, &obs);
    /// # model.fit(&obs);
    /// let engine = ImputationEngine::new(model.freeze(), obs).unwrap();
    /// assert_eq!(engine.watermark(0).unwrap(), 60);
    ///
    /// // Backfilling the gap records the late data without moving the cursor…
    /// engine.fill_range(0, 20, &[1.5; 10]).unwrap();
    /// assert_eq!(engine.watermark(0).unwrap(), 60);
    /// assert_eq!(engine.query(0, 20, 30).unwrap(), vec![1.5; 10]);
    /// // …so the next streaming append still lands at the series end.
    /// assert_eq!(engine.append(0, &[2.0]).unwrap().recorded, (60, 61));
    /// ```
    ///
    /// # Errors
    /// [`ServeError::Series`] for a bad id, [`ServeError::Range`] when the
    /// range leaves the live series (backfill never grows a series — that is
    /// `append`'s job), [`ServeError::Evicted`] when the range touches time
    /// the retention ring has already dropped (backfill cannot resurrect
    /// evicted history), [`ServeError::NonFiniteInput`] when the payload
    /// carries NaN/±inf (the whole backfill is refused before anything is
    /// recorded).
    pub fn fill_range(
        &self,
        s: usize,
        start: usize,
        values: &[f64],
    ) -> Result<AppendReport, ServeError> {
        if s >= self.n_series {
            return Err(ServeError::Series { s, n_series: self.n_series });
        }
        self.check_finite(s, values)?;
        let mut state = self.lock_state();
        let live_t = state.live_t();
        let end = start + values.len();
        if start > live_t || end > live_t {
            return Err(ServeError::Range { start, end, t_len: live_t });
        }
        if start < state.base() {
            return Err(ServeError::Evicted { start, end, retained_start: state.base() });
        }
        if values.is_empty() {
            return Ok(AppendReport {
                recorded: (start, start),
                windows_recomputed: 0,
                positions_refreshed: 0,
                windows_invalidated: 0,
                values_quarantined: 0,
                live_len: live_t,
                retained_start: state.base(),
            });
        }
        let quarantined = self.record(&mut state, s, start, values);
        state.watermark[s] = state.watermark[s].max(end);

        // Eager set: windows within the ±w local reach of the filled range
        // (clamped to the ring origin by the grid).
        let w = state.grid.window_len();
        let eager = state.grid.windows_overlapping(start.saturating_sub(w), (end + w).min(live_t));
        let mut report = self.refresh_after_record(&mut state, s, start, end, eager);
        report.values_quarantined = quarantined;

        self.counters.backfills.fetch_add(1, Ordering::Relaxed);
        self.counters
            .values_backfilled
            .fetch_add((values.len() - quarantined) as u64, Ordering::Relaxed);
        self.publish_all(&state);
        Ok(report)
    }

    /// The shared mutation plumbing behind [`ImputationEngine::append`] and
    /// [`ImputationEngine::fill_range`], run after `[start, end)` of series
    /// `s` was recorded: marks every affected window stale — all of `s` (the
    /// attention context can reach anywhere in the series) plus sibling
    /// windows overlapping the recorded range (the kernel regression reads
    /// sibling values pointwise) — then eagerly recomputes the `eager` window
    /// range of `s` and the sibling overlaps in one batch. Windows of `s`
    /// outside `eager` heal lazily on their next touch and are counted as
    /// `windows_invalidated`.
    fn refresh_after_record(
        &self,
        state: &mut EngineState,
        s: usize,
        start: usize,
        end: usize,
        eager: Range<usize>,
    ) -> AppendReport {
        let overlap = state.grid.windows_overlapping(start, end);
        let first = state.grid.first_window();
        let mut invalidated = 0usize;
        for j in state.grid.window_range() {
            if eager.contains(&j) {
                state.fresh[s][j - first] = false;
            } else if state.fresh[s][j - first] {
                state.fresh[s][j - first] = false;
                invalidated += 1;
            }
        }
        for sib in 0..self.n_series {
            if sib != s {
                for j in overlap.clone() {
                    state.fresh[sib][j - first] = false;
                }
            }
        }

        let mut queries = Vec::new();
        let mut needed = BTreeSet::new();
        if !eager.is_empty() {
            let (eager_lo, _) = state.grid.bounds(eager.start);
            let (_, eager_hi) = state.grid.bounds(eager.end - 1);
            self.collect_stale(state, s, eager_lo, eager_hi, &mut needed, &mut queries);
        }
        for sib in 0..self.n_series {
            if sib != s {
                self.collect_stale(state, sib, start, end, &mut needed, &mut queries);
            }
        }
        let positions_refreshed = queries.iter().map(|q| q.positions.len()).sum();
        let windows_recomputed = queries.len();
        self.compute_and_fill(state, &queries);
        AppendReport {
            recorded: (start, end),
            windows_recomputed,
            positions_refreshed,
            windows_invalidated: invalidated,
            values_quarantined: 0,
            live_len: state.live_t(),
            retained_start: state.base(),
        }
    }

    /// The non-finite input gate shared by [`ImputationEngine::append`] and
    /// [`ImputationEngine::fill_range`]: runs before the state lock is even
    /// taken, so a rejected mutation provably touches nothing.
    fn check_finite(&self, s: usize, values: &[f64]) -> Result<(), ServeError> {
        match values.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(offset) => {
                self.health.with(|h| h.nonfinite_input_rejections += 1);
                Err(ServeError::NonFiniteInput { s, offset })
            }
        }
    }

    /// The next write position of series `s` — one past the last observed
    /// entry at construction, advanced by appends. Note this is a *streaming*
    /// cursor: a hidden interior gap before the watermark is backfilled with
    /// [`ImputationEngine::fill_range`], not `append`.
    ///
    /// # Errors
    /// [`ServeError::Series`] for a bad id.
    pub fn watermark(&self, s: usize) -> Result<usize, ServeError> {
        if s >= self.n_series {
            return Err(ServeError::Series { s, n_series: self.n_series });
        }
        Ok(self.lock_state().watermark[s])
    }

    /// A copy of the full retained imputation cache (observed values + latest
    /// imputations over the retained span). On an unbounded engine this is
    /// the whole live series; under retention the tensor's time axis starts
    /// at [`ImputationEngine::retained_start`]. Primarily for tests and
    /// offline comparison.
    pub fn cached_values(&self) -> Tensor {
        let state = self.lock_state();
        state.imputed.truncated_time(state.grid.retained_len())
    }

    /// A copy of the current observed state the engine serves, over the
    /// retained span (capacity slack excluded; the time axis starts at
    /// [`ImputationEngine::retained_start`]). Viewed as a standalone dataset
    /// this is exactly the truncated-batch-re-impute oracle the retention
    /// consistency contract is stated against.
    pub fn observed(&self) -> ObservedDataset {
        let state = self.lock_state();
        state.obs.truncated(state.grid.retained_len())
    }

    /// A consistent copy of the warm serving state for
    /// [`ImputationEngine::snapshot`], taken under one lock acquisition:
    /// `(cache, dims, live_t_len, retained_start)`.
    pub(crate) fn cache_snapshot(
        &self,
    ) -> (crate::snapshot::CacheSnapshot, Vec<mvi_data::dataset::DimSpec>, usize, usize) {
        let state = self.lock_state();
        let span = state.grid.retained_len();
        let cache = crate::snapshot::CacheSnapshot {
            name: state.obs.name.clone(),
            values: state.obs.values.truncated_time(span),
            available: state.obs.available.truncated_time(span),
            imputed: state.imputed.truncated_time(span),
            // Degraded windows snapshot as *stale*: the wire has no
            // degradation bit, and restoring baseline fallback values as
            // fresh cache would serve them unflagged. Stale heals honestly.
            fresh: state
                .fresh
                .iter()
                .zip(&state.degraded)
                .map(|(f, d)| f.iter().zip(d).map(|(&f, &d)| f && !d).collect())
                .collect(),
            watermark: state.watermark.clone(),
        };
        (cache, state.obs.dims.clone(), state.grid.t_len(), state.base())
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            windows_computed: self.counters.windows_computed.load(Ordering::Relaxed),
            window_hits: self.counters.window_hits.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            values_appended: self.counters.values_appended.load(Ordering::Relaxed),
            backfills: self.counters.backfills.load(Ordering::Relaxed),
            values_backfilled: self.counters.values_backfilled.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            steps_evicted: self.counters.steps_evicted.load(Ordering::Relaxed),
        }
    }

    /// Extends the live length to `live_needed`, growing the backing storage
    /// geometrically (≥1.5×, window-aligned) when capacity runs out so a
    /// stream of small appends moves each element O(1) times amortized. The
    /// slack `[retained span, capacity)` stays all-missing, which the forward
    /// pass treats exactly like data that does not exist.
    ///
    /// Under retention, growth past the ring cap evicts first
    /// ([`ImputationEngine::evict_to`]) and capacity is clamped at the cap,
    /// so resident storage never exceeds it. Returns the number of
    /// previously-fresh windows the eviction invalidated (0 without one).
    fn grow(&self, state: &mut EngineState, live_needed: usize) -> usize {
        state.grid.grow_to(live_needed);
        let mut evicted_stale = 0usize;
        if let Some(cap) = self.ring_cap {
            let base = state.base();
            if live_needed - base > cap {
                let w = state.grid.window_len();
                let new_base = (live_needed - cap).div_ceil(w) * w;
                evicted_stale = self.evict_to(state, new_base);
            }
        }
        let span = state.grid.retained_len();
        let capacity = state.obs.t_len();
        if span > capacity {
            let w = state.grid.window_len();
            let target = span.max(capacity + capacity / 2);
            let mut new_capacity = target.div_ceil(w) * w;
            if let Some(cap) = self.ring_cap {
                new_capacity = new_capacity.min(cap);
            }
            state.obs.extend_time(new_capacity);
            state.imputed.extend_time(new_capacity, 0.0);
        }
        let n_windows = state.grid.n_windows();
        for fresh in &mut state.fresh {
            fresh.resize(n_windows, false);
        }
        for degraded in &mut state.degraded {
            degraded.resize(n_windows, false);
        }
        evicted_stale
    }

    /// Advances the retention ring to `new_base` (window-aligned, past the
    /// current origin): the oldest `new_base - origin` steps of every series
    /// leave physical storage (each buffer slides left in place; capacity is
    /// unchanged and the vacated suffix re-opens as all-missing slack), the
    /// per-window freshness vectors drop their evicted slots, and watermarks
    /// are clamped so no series can write into evicted time.
    ///
    /// Retained windows whose forward inputs reached the evicted span are
    /// marked stale: the first `trained-horizon − 1` retained windows (their
    /// rolling attention context started before `new_base`; the origin
    /// window's ±`w` fine-grained reach is inside that prefix too — except
    /// when the horizon is a single window, where the fine-grained reach
    /// alone stales the origin window). Everything deeper keeps its cache:
    /// its context lies entirely inside the ring, so a recompute would
    /// reproduce it bitwise. Returns how many previously-fresh windows were
    /// invalidated.
    fn evict_to(&self, state: &mut EngineState, new_base: usize) -> usize {
        let w = state.grid.window_len();
        let drop = new_base - state.base();
        debug_assert!(drop > 0 && drop.is_multiple_of(w), "eviction must drop whole windows");
        let capacity = state.obs.t_len();
        if drop < capacity {
            state.obs.retain_latest(capacity - drop);
            state.obs.extend_time(capacity);
            state.imputed.retain_latest(capacity - drop);
            state.imputed.extend_time(capacity, 0.0);
        } else {
            // One append jumped past the whole ring: every resident step is
            // evicted. Reset storage to all-missing in place.
            for s in 0..self.n_series {
                state.obs.hide_range(s, 0, capacity);
            }
            state.imputed.data_mut().fill(0.0);
        }
        state.grid.retain_from(new_base);
        for wm in &mut state.watermark {
            *wm = (*wm).max(new_base);
        }

        let drop_w = drop / w;
        let horizon_w = self.model.t_len().div_ceil(w);
        let stale_reach = horizon_w.saturating_sub(1).max(1);
        let mut invalidated = 0usize;
        for fresh in &mut state.fresh {
            let evicted = drop_w.min(fresh.len());
            fresh.drain(..evicted);
            for f in fresh.iter_mut().take(stale_reach) {
                if *f {
                    *f = false;
                    invalidated += 1;
                }
            }
        }
        // Evicted degraded slots leave the gauge.
        let mut gone = 0u64;
        for degraded in &mut state.degraded {
            let evicted = drop_w.min(degraded.len());
            gone += degraded.drain(..evicted).filter(|&d| d).count() as u64;
        }
        if gone > 0 {
            self.health.with(move |h| h.degraded_windows = h.degraded_windows.saturating_sub(gone));
        }
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        self.counters.steps_evicted.fetch_add(drop as u64, Ordering::Relaxed);
        invalidated
    }

    /// Writes `values` into the observed state and the imputation cache at
    /// logical `[start, start + len)` of series `s` (retained and live by the
    /// caller's validation/growth).
    ///
    /// When a [`ValueGuard`] is installed, guard-violating values are
    /// **quarantined**: skipped here, so their positions stay missing (and
    /// get imputed like any other gap), counted per series and in total.
    /// Returns how many values were quarantined (`0` without a guard). The
    /// jump reference starts at the nearest earlier observed value of the
    /// retained span and then tracks the last *accepted* value, so one glitch
    /// does not re-anchor the level and take the rest of the chunk with it.
    fn record(&self, state: &mut EngineState, s: usize, start: usize, values: &[f64]) -> usize {
        let p = start - state.base();
        let Some(guard) = state.guard else {
            state.obs.record_range(s, p, values);
            state.imputed.series_mut(s)[p..p + values.len()].copy_from_slice(values);
            return 0;
        };
        let mut prev = {
            let avail = state.obs.available.series(s);
            let vals = state.obs.values.series(s);
            (0..p).rev().find(|&t| avail[t]).map(|t| vals[t])
        };
        // Record maximal accepted runs so the common no-quarantine chunk still
        // lands in one `record_range` call.
        let mut quarantined = 0usize;
        let mut run = 0usize;
        for (i, &v) in values.iter().enumerate() {
            if guard.quarantines(v, prev) {
                if run < i {
                    state.obs.record_range(s, p + run, &values[run..i]);
                    state.imputed.series_mut(s)[p + run..p + i].copy_from_slice(&values[run..i]);
                }
                run = i + 1;
                quarantined += 1;
            } else {
                prev = Some(v);
            }
        }
        if run < values.len() {
            state.obs.record_range(s, p + run, &values[run..]);
            state.imputed.series_mut(s)[p + run..p + values.len()].copy_from_slice(&values[run..]);
        }
        if quarantined > 0 {
            // Per-series count and total move together under one lock
            // acquisition, so no health report can see them torn apart.
            self.health.with(move |h| {
                h.quarantined_by_series[s] += quarantined as u64;
                h.quarantined += quarantined as u64;
            });
        }
        quarantined
    }

    /// Appends the stale windows with missing entries of series `s` inside
    /// logical `[start, end)` to `queries`, skipping `(s, slot)` pairs
    /// already in `needed` — the coalescing step that lets overlapping
    /// requests in one micro-batch share a single forward pass per window.
    /// Returns how many windows were skipped because they were fresh (cache
    /// hits — windows claimed by an earlier request in the batch are shared
    /// work, not hits).
    ///
    /// Freshness is checked per window *before* enumerating any positions, so
    /// the steady-state all-fresh request costs one bool scan per overlapped
    /// window and zero allocation. Queries always carry the full window's
    /// missing positions (the request range may clip the window, but the
    /// freshness bit covers all of it).
    ///
    /// `start`/`end` are logical; the produced [`WindowQuery`]s are
    /// **physical** (storage slots and storage positions) — precisely the
    /// coordinates the frozen model evaluates the bounded storage buffer in.
    fn collect_stale(
        &self,
        state: &EngineState,
        s: usize,
        start: usize,
        end: usize,
        needed: &mut BTreeSet<(usize, usize)>,
        queries: &mut Vec<WindowQuery>,
    ) -> usize {
        let avail = state.obs.available.series(s);
        let base = state.base();
        let mut fresh_hits = 0usize;
        for wj in state.grid.windows_overlapping(start, end) {
            let (lo, hi) = state.grid.bounds(wj);
            let (plo, phi) = (lo - base, hi - base);
            let slot = state.grid.slot(wj);
            if state.fresh[s][slot] {
                // Fully observed windows carry no imputations: not a hit.
                if avail[plo..phi].iter().any(|&a| !a) {
                    fresh_hits += 1;
                }
                continue;
            }
            if !needed.contains(&(s, slot)) {
                let positions: Vec<usize> = (plo..phi).filter(|&t| !avail[t]).collect();
                if positions.is_empty() {
                    continue; // fully observed, nothing to impute
                }
                needed.insert((s, slot));
                queries.push(WindowQuery { s, window_j: slot, positions });
            }
        }
        fresh_hits
    }

    /// Evaluates `queries` (physical coordinates) data-parallel over the
    /// frozen model, writes the predictions into the cache and marks the
    /// windows fresh. Every batch carries distinct `(s, slot)` keys: each
    /// caller collects it through one `needed` set in
    /// [`ImputationEngine::collect_stale`]. The capacity slack past the
    /// retained span is all-missing, so evaluating against the
    /// capacity-padded observed state is bitwise identical to evaluating
    /// against the retained span alone.
    ///
    /// Runs through the tape-free evaluator with the engine's long-lived
    /// scratch, so the serial cold-window path (small per-append
    /// micro-batches) stays allocation-lean after the first touch.
    ///
    /// This is also where the **output guard** lives: a window whose forward
    /// result carries any non-finite value (poisoned weights the construction
    /// gate missed, numeric blowup, an injected fault) never reaches the
    /// cache — the window's missing positions are filled with the
    /// mean-baseline level instead, its `degraded` bit is set (surfaced
    /// through [`ImputeResponse`] and [`ImputationEngine::health`]), and the
    /// next successful recompute heals it.
    fn compute_and_fill(&self, state: &mut EngineState, queries: &[WindowQuery]) {
        if queries.is_empty() {
            return;
        }
        let threads = mvi_parallel::current_threads();
        let mut scratch = std::mem::take(&mut state.scratch);
        let mut results =
            self.model.model().predict_batch(&mut scratch, &state.obs, queries, threads);
        state.scratch = scratch;
        // Fault-injection seam: the hook may panic (exercising the batcher's
        // supervisor and the poison-recovering lock), stall (deadlines), or
        // poison outputs (the guard below). `None` outside chaos tests.
        if let Some(hook) = state.eval_hook.as_mut() {
            hook(&mut results);
        }
        // Degrade/heal transitions are applied to the health counters in one
        // acquisition after the cache writes, so a concurrent health report
        // sees either none or all of this batch's transitions.
        let (mut events, mut healed, mut degraded) = (0u64, 0u64, 0u64);
        for (q, vals) in queries.iter().zip(&results) {
            let intact = vals.len() == q.positions.len() && vals.iter().all(|v| v.is_finite());
            if intact {
                let series = state.imputed.series_mut(q.s);
                for (&t, &v) in q.positions.iter().zip(vals) {
                    series[t] = v;
                }
                if state.degraded[q.s][q.window_j] {
                    healed += 1;
                }
                state.degraded[q.s][q.window_j] = false;
            } else {
                let level = state.baseline_level(q.s);
                let series = state.imputed.series_mut(q.s);
                for &t in &q.positions {
                    series[t] = level;
                }
                events += 1;
                if !state.degraded[q.s][q.window_j] {
                    degraded += 1;
                }
                state.degraded[q.s][q.window_j] = true;
            }
            state.fresh[q.s][q.window_j] = true;
        }
        if events + healed > 0 {
            self.health.with(move |h| {
                h.degraded_events += events;
                h.degraded_windows = (h.degraded_windows + degraded).saturating_sub(healed);
            });
        }
        self.counters.windows_computed.fetch_add(queries.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmvi::{DeepMviConfig, DeepMviModel};
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    fn engine_fixture() -> (ObservedDataset, ImputationEngine) {
        let ds = generate_with_shape(DatasetName::Chlorine, &[4], 150, 7);
        let inst = Scenario::mcar(1.0).apply(&ds, 3);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 8, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let engine = ImputationEngine::new(model.freeze(), obs.clone()).unwrap();
        (obs, engine)
    }

    #[test]
    fn query_matches_batch_impute_and_hits_cache_on_repeat() {
        let (obs, engine) = engine_fixture();
        let full = engine.model().impute(&obs);
        let t = obs.t_len();
        for s in 0..obs.n_series() {
            let got = engine.query(s, 0, t).unwrap();
            assert_eq!(got, full.series(s), "series {s} diverged from batch impute");
        }
        let computed_cold = engine.stats().windows_computed;
        assert!(computed_cold > 0);
        // A second sweep is pure cache reads.
        for s in 0..obs.n_series() {
            engine.query(s, 0, t).unwrap();
        }
        assert_eq!(engine.stats().windows_computed, computed_cold, "repeat queries recomputed");
        assert!(engine.stats().window_hits > 0);
    }

    #[test]
    fn warm_up_precomputes_everything() {
        let (obs, engine) = engine_fixture();
        let warmed = engine.warm_up();
        assert!(warmed > 0);
        let before = engine.stats().windows_computed;
        engine.query(0, 0, obs.t_len()).unwrap();
        assert_eq!(engine.stats().windows_computed, before);
        assert_eq!(engine.cached_values(), engine.model().impute(&obs));
    }

    #[test]
    fn coalescing_shares_windows_across_overlapping_requests() {
        let (obs, engine) = engine_fixture();
        let t = obs.t_len();
        // Many overlapping requests over the same region in one batch.
        let reqs: Vec<ImputeRequest> =
            (0..6).map(|i| ImputeRequest { s: 1, start: i * 5, end: t / 2 + i * 5 }).collect();
        let results = engine.query_batch(&reqs);
        let computed = engine.stats().windows_computed;
        for (r, res) in reqs.iter().zip(&results) {
            let vals = res.as_ref().unwrap();
            assert_eq!(vals.len(), r.end - r.start);
        }
        // Without coalescing this would be ~6x the distinct-window count.
        let distinct = engine.grid().windows_overlapping(0, t / 2 + 25).len();
        assert!(
            computed as usize <= distinct,
            "computed {computed} windows for {distinct} distinct"
        );
    }

    #[test]
    fn invalid_requests_fail_cleanly_without_poisoning_the_batch() {
        let (obs, engine) = engine_fixture();
        let t = obs.t_len();
        let results = engine.query_batch(&[
            ImputeRequest { s: 99, start: 0, end: 10 },
            ImputeRequest { s: 0, start: 5, end: t + 1 },
            ImputeRequest { s: 0, start: 8, end: 4 },
            ImputeRequest { s: 2, start: 0, end: 10 },
        ]);
        assert!(matches!(results[0], Err(ServeError::Series { s: 99, .. })));
        assert!(matches!(results[1], Err(ServeError::Range { .. })));
        assert!(matches!(results[2], Err(ServeError::Range { .. })));
        assert!(results[3].is_ok());
    }

    #[test]
    fn geometry_mismatch_is_rejected_at_construction() {
        let (_, engine) = engine_fixture();
        let other = generate_with_shape(DatasetName::Chlorine, &[5], 150, 7);
        let other_obs = Scenario::mcar(1.0).apply(&other, 3).observed();
        let model = engine.model();
        let snap = crate::snapshot::ServeSnapshot::capture(model.model(), &engine.observed());
        assert!(matches!(snap.restore(&other_obs), Err(ServeError::Geometry(_))));
    }

    #[test]
    fn shorter_dataset_is_rejected_at_construction() {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 100, 2);
        let obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let shorter = obs.truncated(60);
        assert!(matches!(
            ImputationEngine::new(model.freeze(), shorter),
            Err(ServeError::Geometry(_))
        ));
    }

    #[test]
    fn append_advances_watermark_and_grows_past_trained_capacity() {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 100, 2);
        let mut obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        // Carve out a streaming future for series 1.
        obs.hide_range(1, 80, 100);
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let engine = ImputationEngine::new(model.freeze(), obs).unwrap();

        assert_eq!(engine.watermark(1).unwrap(), 80);
        assert_eq!(engine.live_len(), 100);
        assert_eq!(engine.trained_len(), 100);
        let report = engine.append(1, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(report.recorded, (80, 83));
        assert!(report.windows_recomputed > 0, "tail still has missing entries to refresh");
        assert_eq!(report.live_len, 100, "in-range append must not grow the series");
        assert_eq!(engine.watermark(1).unwrap(), 83);
        // Appended values are served back verbatim.
        assert_eq!(engine.query(1, 80, 83).unwrap(), vec![1.0, 2.0, 3.0]);

        // Appending past the trained capacity grows the series instead of
        // failing: the live grid extends and the values serve back verbatim.
        let burst: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
        let report = engine.append(1, &burst).unwrap();
        assert_eq!(report.recorded, (83, 123));
        assert_eq!(report.live_len, 123);
        assert_eq!(engine.live_len(), 123);
        assert_eq!(engine.watermark(1).unwrap(), 123);
        assert_eq!(engine.grid().n_windows(), engine.grid().t_len().div_ceil(10));
        assert_eq!(engine.query(1, 83, 123).unwrap(), burst);
        // Sibling series grew too: their new suffix is imputable, not an error.
        let sibling_tail = engine.query(0, 100, 123).unwrap();
        assert_eq!(sibling_tail.len(), 23);
        assert!(sibling_tail.iter().all(|v| v.is_finite()));
        // The observed view reports the live length with the slack excluded.
        let observed = engine.observed();
        assert_eq!(observed.t_len(), 123);
        assert!(observed.available.series(0)[100..].iter().all(|&a| !a));
        // Queries past the live end still fail cleanly.
        assert!(matches!(engine.query(1, 0, 124), Err(ServeError::Range { .. })));
        assert!(matches!(engine.append(9, &[0.0]), Err(ServeError::Series { .. })));
    }

    #[test]
    fn repeated_small_appends_grow_storage_geometrically() {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 60, 2);
        let obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let engine = ImputationEngine::new(model.freeze(), obs).unwrap();

        let start = engine.watermark(0).unwrap();
        for i in 0..90 {
            engine.append(0, &[(i as f64 / 11.0).sin()]).unwrap();
        }
        assert_eq!(engine.watermark(0).unwrap(), start + 90);
        assert!(engine.live_len() >= start + 90);
        // Served values reproduce the stream.
        let got = engine.query(0, start, start + 90).unwrap();
        let want: Vec<f64> = (0..90).map(|i| (i as f64 / 11.0).sin()).collect();
        assert_eq!(got, want);
        let stats = engine.stats();
        assert_eq!(stats.appends, 90);
        assert_eq!(stats.values_appended, 90);
    }

    #[test]
    fn retention_ring_bounds_storage_and_rejects_evicted_queries() {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 100, 2);
        let obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let w = model.window();
        let retention = 3 * w; // three windows of history
        let engine = ImputationEngine::with_retention(model.freeze(), obs, retention).unwrap();
        let cap = engine.ring_capacity().unwrap();
        assert_eq!(cap, 4 * w, "three retained windows + one of slack");
        // Construction already evicted the 100-step dataset down to the cap.
        assert_eq!(engine.storage_capacity(), cap);
        assert_eq!(engine.retained_start(), 100 - cap);
        assert_eq!(engine.live_len(), 100);
        let initial_base = engine.retained_start();

        // Stream far past the cap: storage stays flat, logical time advances.
        for i in 0..30 {
            let vals: Vec<f64> = (0..7).map(|k| ((i * 7 + k) as f64 / 13.0).sin()).collect();
            let report = engine.append(0, &vals).unwrap();
            assert!(report.live_len - report.retained_start <= cap, "retained span blew the cap");
            assert!(engine.storage_capacity() <= cap, "storage grew past the ring cap");
        }
        let live = engine.live_len();
        let base = engine.retained_start();
        assert_eq!(live, 100 + 30 * 7);
        assert!(live - base >= retention, "retention floor violated");
        assert!(engine.stats().evictions > 0);
        // Construction-time trimming is not a streaming eviction; everything
        // since is accounted for step by step.
        assert_eq!(engine.stats().steps_evicted as usize, base - initial_base);
        assert_eq!(engine.watermark(0).unwrap(), live);
        // Sibling watermarks were dragged past the evicted span.
        assert!(engine.watermark(1).unwrap() >= base);

        // Retained queries serve; evicted time is a typed error, not data.
        let tail = engine.query(0, live - retention, live).unwrap();
        assert_eq!(tail.len(), retention);
        assert!(tail.iter().all(|v| v.is_finite()));
        let err = engine.query(0, base.saturating_sub(1), live).unwrap_err();
        assert_eq!(err, ServeError::Evicted { start: base - 1, end: live, retained_start: base });
        assert!(matches!(
            engine.fill_range(0, base - w, &[0.0; 2]),
            Err(ServeError::Evicted { .. })
        ));
        // The observed view is the retained span viewed standalone.
        let observed = engine.observed();
        assert_eq!(observed.t_len(), live - base);

        // The ring engine's cache over the retained span equals a batch
        // re-impute of that span as a standalone dataset (after healing).
        for s in 0..3 {
            engine.query(s, base, live).unwrap();
        }
        let healed = engine.cached_values();
        let oracle = engine.model().impute(&engine.observed());
        assert_eq!(healed.shape(), oracle.shape());
        for (a, b) in healed.data().iter().zip(oracle.data()) {
            assert!((a - b).abs() < 1e-9, "ring cache diverged from truncated re-impute");
        }
    }

    #[test]
    fn retention_smaller_than_one_window_still_works() {
        let ds = generate_with_shape(DatasetName::Gas, &[2], 60, 4);
        let obs = Scenario::mcar(1.0).apply(&ds, 9).observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let w = model.window();
        // Zero retention is rejected up front.
        let snap = crate::snapshot::ServeSnapshot::capture(&model, &obs);
        let spare = snap.restore(&obs).unwrap();
        assert!(matches!(
            ImputationEngine::with_retention(spare, obs.clone(), 0),
            Err(ServeError::Geometry(_))
        ));
        let engine = ImputationEngine::with_retention(model.freeze(), obs, 1).unwrap();
        assert_eq!(engine.ring_capacity(), Some(2 * w), "sub-window retention rounds to 2w");
        for i in 0..5 * w {
            engine.append(0, &[(i as f64 / 5.0).cos()]).unwrap();
            let span = engine.live_len() - engine.retained_start();
            assert!((1..=2 * w).contains(&span));
        }
        let live = engine.live_len();
        let got = engine.query(0, live - 1, live).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn fill_range_backfills_an_interior_gap_the_watermark_passed() {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 100, 2);
        let mut obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        // Hidden interior range with an observed tail: the watermark starts at
        // the end, so `append` can never reach the gap.
        obs.hide_range(1, 40, 60);
        obs.record_range(1, 90, &[5.0; 10]);
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let engine = ImputationEngine::new(model.freeze(), obs).unwrap();
        assert_eq!(engine.watermark(1).unwrap(), 100);

        let late = [1.5; 20];
        let report = engine.fill_range(1, 40, &late).unwrap();
        assert_eq!(report.recorded, (40, 60));
        assert_eq!(report.live_len, 100);
        assert_eq!(engine.watermark(1).unwrap(), 100, "interior backfill must not move the cursor");
        assert_eq!(engine.query(1, 40, 60).unwrap(), late.to_vec());
        let stats = engine.stats();
        assert_eq!(stats.backfills, 1);
        assert_eq!(stats.values_backfilled, 20);
        // Out-of-range backfills are rejected; backfill never grows.
        assert!(matches!(engine.fill_range(1, 95, &[0.0; 10]), Err(ServeError::Range { .. })));
        assert!(matches!(engine.fill_range(7, 0, &[0.0]), Err(ServeError::Series { .. })));
    }

    /// Tiny deterministic LCG for the seeded replay log.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) % n.max(1)
        }
    }

    /// One operation of the replay log.
    enum Op {
        Append(usize, Vec<f64>),
        Fill(usize, usize, Vec<f64>),
        Query(usize, usize, usize),
    }

    /// Replays a seeded append/fill/query log against two engines over one
    /// model. Before each reference query, the reference engine's snapshot of
    /// the queried series is replaced by one with nothing fresh, so every
    /// reference query takes the locked path. Answers, `degraded` flags, the
    /// cache, `stats()` and `health()` must agree bitwise: the warm path's
    /// window and hit arithmetic ([`SeriesSnap::answer`]) changes where an
    /// answer comes from, never what it is.
    #[test]
    fn warm_replay_is_bitwise_identical_to_the_locked_path() {
        const SERIES: usize = 6;
        const T_LEN: usize = 120;
        const GAP: (usize, usize) = (60, 70);
        let ds = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_LEN, 13);
        let mut obs = Scenario::mcar(1.0).apply(&ds, 7).observed();
        // A hidden interior gap with an observed tail in every series, so the
        // gap is reachable only through `fill_range`.
        for s in 0..SERIES {
            obs.hide_range(s, GAP.0, GAP.1);
            obs.record_range(s, T_LEN - 2, &[0.5, 0.25]);
        }
        let cfg = DeepMviConfig { max_steps: 8, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let snapshot = crate::snapshot::ServeSnapshot::capture(&model, &obs);
        let engine =
            || ImputationEngine::new(snapshot.restore(&obs).unwrap(), obs.clone()).unwrap();

        for seed in [3u64, 17, 91] {
            let mut rng = Lcg(seed);
            let mut live = T_LEN;
            let ops: Vec<Op> = (0..80)
                .map(|_| {
                    let kind = rng.below(10);
                    let s = rng.below(SERIES as u64) as usize;
                    match kind {
                        0..=2 => {
                            let chunk = 1 + rng.below(4) as usize;
                            if s == 0 {
                                live += chunk; // series 0's appends run past the live end
                            }
                            let vals =
                                (0..chunk).map(|k| ((s * 1000 + 5000 + k) as f64 / 17.0).sin());
                            Op::Append(s, vals.collect())
                        }
                        3 => Op::Fill(s, GAP.0, vec![7.77; GAP.1 - GAP.0]),
                        _ => {
                            let b = 1 + rng.below(live as u64) as usize;
                            Op::Query(s, b.saturating_sub(1 + rng.below(35) as usize), b)
                        }
                    }
                })
                .collect();

            let (warm, locked) = (engine(), engine());
            let mut served_warm = 0;
            for op in ops {
                match op {
                    Op::Append(s, vals) => {
                        assert_eq!(
                            warm.append(s, &vals).unwrap(),
                            locked.append(s, &vals).unwrap()
                        );
                    }
                    Op::Fill(s, start, vals) => assert_eq!(
                        warm.fill_range(s, start, &vals).unwrap(),
                        locked.fill_range(s, start, &vals).unwrap()
                    ),
                    Op::Query(s, a, b) => {
                        served_warm += usize::from(warm.snaps.snapshot(s).answer(a, b).is_some());
                        locked.snaps.publish(s, SeriesSnap::empty());
                        let x = warm.query_flagged(s, a, b).unwrap();
                        let y = locked.query_flagged(s, a, b).unwrap();
                        assert_eq!(x.degraded, y.degraded, "seed {seed} series {s} [{a},{b})");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&x.values),
                            bits(&y.values),
                            "seed {seed} series {s} [{a},{b})"
                        );
                    }
                }
            }
            assert!(served_warm > 0, "seed {seed}: no query took the warm path");
            let (cw, cl) = (warm.cached_values(), locked.cached_values());
            assert_eq!(cw.shape(), cl.shape());
            assert!(cw.data().iter().zip(cl.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(warm.stats(), locked.stats(), "counter streams diverged (seed {seed})");
            assert_eq!(warm.health(), locked.health(), "health diverged (seed {seed})");
        }
    }
}
