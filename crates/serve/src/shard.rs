//! The lock-free publication cells behind the engine's warm read path.
//!
//! The engine's *write* path stays serialized behind the core state mutex —
//! DeepMVI's forward pass couples every series (the kernel regression reads
//! sibling values pointwise), so every mutation is inherently cross-series
//! work and needs a consistent multi-series view. Reads need no such view:
//! each series has one [`Published`] cell holding an `Arc<SeriesSnap>` — the
//! imputed values over the retained span plus per-window
//! freshness/degradation/has-missing bits. Mutations republish the affected
//! series *before* releasing the core lock (and therefore before returning
//! to their caller), so a read that starts after a mutation completed always
//! observes it — the linearization point of a warm read is its single atomic
//! pointer load.
//!
//! ## Why the warm path is safe without a lock
//!
//! Readers cannot take a lock, yet the writer must eventually free retired
//! snapshots. [`Published`] uses a *pin-count quiescence* scheme (a
//! hazard-era in miniature, built only on `std` atomics):
//!
//! * a reader **pins** a slot of the shared [`PinDomain`]
//!   (`fetch_add(1, SeqCst)`), loads the cell's pointer (`SeqCst`), clones
//!   the `Arc` via [`Arc::increment_strong_count`], and unpins;
//! * the writer (always under the core lock, so writes are serialized)
//!   swaps in the new pointer, pushes the old one onto a retired list, and
//!   drops retired references only after a `SeqCst` scan observes **every**
//!   pin slot at zero.
//!
//! Soundness in the `SeqCst` total order: if the writer's scan read a
//! reader's pin slot as `0`, then either the reader unpinned before the scan
//! — in which case its `Arc` clone already completed and the strong count
//! protects the allocation — or the reader pinned after the scan, in which
//! case its subsequent pointer load is ordered after the writer's swap and
//! returns the *new* pointer, never the retired one. Either way a retired
//! pointer is dropped only when no reader can still dereference it. A
//! pinned reader merely delays reclamation (the retired list grows until
//! the next quiescent publication), never correctness.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::engine::ImputeResponse;

/// Number of pin slots readers hash themselves over. More slots mean less
/// false sharing between concurrent readers; the writer's quiescence scan is
/// O(slots) per publication, which is noise next to rebuilding a snapshot.
const PIN_SLOTS: usize = 64;

thread_local! {
    /// The pin slot this thread hashes to (assigned round-robin on first use).
    static PIN_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Round-robin source for [`PIN_SLOT`] assignments.
static NEXT_PIN_SLOT: AtomicUsize = AtomicUsize::new(0);

fn pin_slot_for_thread() -> usize {
    PIN_SLOT.with(|slot| match slot.get() {
        Some(s) => s,
        None => {
            let s = NEXT_PIN_SLOT.fetch_add(1, Ordering::Relaxed) % PIN_SLOTS;
            slot.set(Some(s));
            s
        }
    })
}

/// The shared reader-pin table all of an engine's [`Published`] cells
/// reclaim against. One domain per engine: a reader pins once and may then
/// load from any number of cells under the same guard.
pub(crate) struct PinDomain {
    pins: Vec<AtomicUsize>,
}

impl PinDomain {
    fn new() -> Self {
        Self { pins: (0..PIN_SLOTS).map(|_| AtomicUsize::new(0)).collect() }
    }

    /// Pins the calling thread: until the returned guard drops, no snapshot
    /// loaded from a cell of this domain can be reclaimed out from under it.
    pub(crate) fn pin(&self) -> PinGuard<'_> {
        let slot = pin_slot_for_thread();
        self.pins[slot].fetch_add(1, Ordering::SeqCst);
        PinGuard { domain: self, slot }
    }

    /// Whether no reader is currently pinned (a `SeqCst` scan; see the
    /// module docs for why observing all-zero licenses reclamation).
    fn quiescent(&self) -> bool {
        self.pins.iter().all(|p| p.load(Ordering::SeqCst) == 0)
    }
}

/// An active reader pin (see [`PinDomain::pin`]). Dropping it unpins.
pub(crate) struct PinGuard<'a> {
    domain: &'a PinDomain,
    slot: usize,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.domain.pins[self.slot].fetch_sub(1, Ordering::SeqCst);
    }
}

/// A lock-free published `Arc<T>` slot: readers clone the current value with
/// two atomic ops and no lock; the (serialized) writer swaps in new values
/// and reclaims old ones once the [`PinDomain`] is quiescent.
pub(crate) struct Published<T> {
    /// The live value, as an owned `Arc::into_raw` pointer.
    ptr: AtomicPtr<T>,
    /// Swapped-out values awaiting a quiescent moment to drop. Only the
    /// writer side touches this; the mutex makes that safe even if a caller
    /// ever publishes without external serialization.
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: `Published` owns its pointers as `Arc`s; the raw forms are only an
// implementation detail of deferred reclamation, so the usual `Arc<T>`
// bounds are the right ones.
unsafe impl<T: Send + Sync> Send for Published<T> {}
// SAFETY: shared access is the lock-free `load` (which only clones `Arc`s)
// plus mutex-serialized writer paths; the same `Arc<T>` bounds as `Send`
// make that sound.
unsafe impl<T: Send + Sync> Sync for Published<T> {}

impl<T> Published<T> {
    pub(crate) fn new(initial: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Clones the currently published value. Lock-free; the guard proves the
    /// caller pinned the domain this cell reclaims against *before* loading.
    pub(crate) fn load(&self, _pin: &PinGuard<'_>) -> Arc<T> {
        let p = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `p` came from `Arc::into_raw` and the published reference
        // it represents cannot be dropped while the caller is pinned (see
        // the module docs), so its strong count is ≥ 1 throughout this call.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    /// Publishes `new`, retiring the previous value until no pinned reader
    /// can still hold a raw reference to it.
    pub(crate) fn store(&self, new: Arc<T>, domain: &PinDomain) {
        let old = self.ptr.swap(Arc::into_raw(new) as *mut T, Ordering::SeqCst);
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        retired.push(old);
        if domain.quiescent() {
            for p in retired.drain(..) {
                // SAFETY: each retired pointer is the published reference we
                // swapped out; the quiescence scan proves no reader is still
                // between its pin and its strong-count increment, so
                // dropping our reference here can never free an allocation
                // a reader is about to touch.
                unsafe { drop(Arc::from_raw(p)) };
            }
        }
    }
}

impl<T> Drop for Published<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; both the live pointer and every retired
        // pointer represent exactly one owned reference each.
        unsafe { drop(Arc::from_raw(self.ptr.load(Ordering::SeqCst))) };
        let retired = self.retired.get_mut().unwrap_or_else(PoisonError::into_inner);
        for p in retired.drain(..) {
            // SAFETY: `&mut self` proves no reader is pinned, so every
            // retired pointer still carries the one owned reference we
            // swapped out and can be released unconditionally.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

/// An immutable warm snapshot of one series, published by every mutation
/// that touches the series and read lock-free by the warm query path. All
/// coordinates mirror the engine's: `base`/`live` are logical, `values` is
/// the retained physical span (`values[t]` is logical time `base + t`), and
/// the per-window bit vectors are indexed by storage slot.
pub(crate) struct SeriesSnap {
    /// Oldest retained logical time (the ring origin; window-aligned).
    pub base: usize,
    /// Live logical series length.
    pub live: usize,
    /// Window length of the grid the bits are indexed on.
    pub w: usize,
    /// Imputed values over the retained span (`live - base` entries).
    pub values: Vec<f64>,
    /// Per-slot freshness (mirrors `EngineState::fresh[s]`).
    pub fresh: Vec<bool>,
    /// Per-slot degradation (mirrors `EngineState::degraded[s]`).
    pub degraded: Vec<bool>,
    /// Per-slot "window contains missing entries" — what distinguishes a
    /// cache *hit* (imputations served warm) from a pass-through of fully
    /// observed data.
    pub missing: Vec<bool>,
}

impl SeriesSnap {
    /// The placeholder every cell starts with: nothing retained, nothing
    /// fresh, so every real request falls through to the locked path until
    /// the first publication.
    fn empty() -> Self {
        Self {
            base: 0,
            live: 0,
            w: 1,
            values: Vec::new(),
            fresh: Vec::new(),
            degraded: Vec::new(),
            missing: Vec::new(),
        }
    }

    /// Serves `[start, end)` from this snapshot if the range is valid and
    /// every overlapped window is fresh. Returns the response plus the
    /// number of warm window hits (fresh windows with missing entries).
    /// `None` sends the request to the locked path — both for stale windows
    /// and for invalid ranges, so the typed errors are produced by exactly
    /// one code path and stay identical in both modes.
    pub(crate) fn answer(&self, start: usize, end: usize) -> Option<(ImputeResponse, usize)> {
        if start > end || end > self.live || start < self.base {
            return None;
        }
        let mut hits = 0usize;
        let mut degraded = false;
        if start < end {
            // Mirrors `WindowGrid::windows_overlapping` on a grid whose
            // origin is `base` (window-aligned, so `base / w` is exact).
            let first = self.base / self.w;
            for j in start / self.w..end.div_ceil(self.w) {
                let slot = j - first;
                if !self.fresh[slot] {
                    return None;
                }
                if self.missing[slot] {
                    hits += 1;
                }
                degraded |= self.degraded[slot];
            }
        }
        let values = self.values[start - self.base..end - self.base].to_vec();
        Some((ImputeResponse { values, degraded }, hits))
    }
}

/// The engine's per-series publication cells, all reclaiming against one
/// shared [`PinDomain`].
pub(crate) struct WarmSnaps {
    cells: Vec<Published<SeriesSnap>>,
    pins: PinDomain,
}

impl WarmSnaps {
    pub(crate) fn new(n_series: usize) -> Self {
        Self {
            cells: (0..n_series).map(|_| Published::new(Arc::new(SeriesSnap::empty()))).collect(),
            pins: PinDomain::new(),
        }
    }

    /// Lock-free load of series `s`'s current warm snapshot.
    pub(crate) fn snapshot(&self, s: usize) -> Arc<SeriesSnap> {
        let pin = self.pins.pin();
        self.cells[s].load(&pin)
    }

    /// Publishes a new warm snapshot for series `s`. Callers serialize this
    /// under the engine's core lock.
    pub(crate) fn publish(&self, s: usize, snap: SeriesSnap) {
        self.cells[s].store(Arc::new(snap), &self.pins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A tiny deterministic LCG for seeded yield schedules.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Loom-lite schedule-permutation smoke over the publish/load handoff:
    /// seeded yield schedules perturb the interleaving of one writer and two
    /// readers across many runs. Readers must only ever observe fully-formed
    /// snapshots (all elements equal to the generation stamp) and a
    /// per-thread monotone generation sequence (publications are totally
    /// ordered by the `SeqCst` swap).
    #[test]
    fn published_cell_survives_permuted_schedules() {
        let permutations: u64 =
            std::env::var("MVI_SCHED_PERMUTATIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(32);
        const GENERATIONS: u64 = 24;
        for seed in 0..permutations {
            let domain = PinDomain::new();
            let cell = Published::new(Arc::new(vec![0u64; 8]));
            std::thread::scope(|scope| {
                let (domain, cell) = (&domain, &cell);
                scope.spawn(move || {
                    let mut rng = Lcg(seed.wrapping_mul(2) + 1);
                    for generation in 1..=GENERATIONS {
                        cell.store(Arc::new(vec![generation; 8]), domain);
                        for _ in 0..rng.next() % 3 {
                            std::thread::yield_now();
                        }
                    }
                });
                for reader in 0..2u64 {
                    scope.spawn(move || {
                        let mut rng = Lcg(seed.wrapping_mul(3) + 7 + reader);
                        let mut last = 0u64;
                        for _ in 0..64 {
                            let snap = {
                                let pin = domain.pin();
                                cell.load(&pin)
                            };
                            let generation = snap[0];
                            assert!(
                                snap.iter().all(|&v| v == generation),
                                "torn snapshot observed: {snap:?}"
                            );
                            assert!(
                                generation >= last,
                                "generation went backwards: {generation} after {last}"
                            );
                            last = generation;
                            for _ in 0..rng.next() % 2 {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        }
    }

    /// Every published snapshot is dropped exactly once: a drop-counting
    /// canary flows through many publications under reader load, and after
    /// the cell itself drops, the number of drops equals the number of
    /// snapshots ever created (no leak; a double drop would abort or corrupt
    /// the count).
    #[test]
    fn published_cell_reclaims_every_snapshot() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Canary(#[allow(dead_code)] u64);
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        const PUBLICATIONS: u64 = 200;
        DROPS.store(0, Ordering::SeqCst);
        {
            let domain = PinDomain::new();
            let cell = Published::new(Arc::new(Canary(0)));
            std::thread::scope(|scope| {
                let (domain, cell) = (&domain, &cell);
                scope.spawn(move || {
                    for generation in 1..=PUBLICATIONS {
                        cell.store(Arc::new(Canary(generation)), domain);
                    }
                });
                scope.spawn(move || {
                    for _ in 0..PUBLICATIONS {
                        let pin = domain.pin();
                        let snap = cell.load(&pin);
                        drop(pin);
                        drop(snap);
                    }
                });
            });
            // `cell` drops here, releasing the live snapshot and any retired
            // stragglers a pinned reader delayed.
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            PUBLICATIONS + 1,
            "every snapshot (initial + each publication) must drop exactly once"
        );
    }

    #[test]
    fn snap_answer_mirrors_locked_path_semantics() {
        let snap = SeriesSnap {
            base: 10,
            live: 25,
            w: 5,
            values: (0..15).map(|t| t as f64).collect(),
            fresh: vec![true, false, true],
            degraded: vec![false, false, true],
            missing: vec![true, false, true],
        };
        // Fully fresh window with missing entries: answered, one hit.
        let (resp, hits) = snap.answer(10, 15).unwrap();
        assert_eq!(resp.values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(hits, 1);
        assert!(!resp.degraded);
        // Touching the stale middle window falls through to the locked path.
        assert!(snap.answer(10, 20).is_none());
        // Degraded windows answer warm but carry the flag.
        let (resp, hits) = snap.answer(20, 25).unwrap();
        assert!(resp.degraded);
        assert_eq!(hits, 1);
        // Invalid / evicted ranges defer to the locked path for typed errors.
        assert!(snap.answer(9, 15).is_none(), "evicted start");
        assert!(snap.answer(10, 26).is_none(), "past live end");
        assert!(snap.answer(15, 12).is_none(), "inverted");
        // Empty range at a valid position is served warm (no windows).
        let (resp, hits) = snap.answer(25, 25).unwrap();
        assert!(resp.values.is_empty());
        assert_eq!(hits, 0);
    }
}
