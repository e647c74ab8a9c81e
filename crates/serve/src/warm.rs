//! The per-series warm snapshots behind the engine's read path.
//!
//! The engine's *write* path stays serialized behind the core state mutex —
//! DeepMVI's forward pass couples every series (the kernel regression reads
//! sibling values pointwise), so every mutation is inherently cross-series
//! work and needs a consistent multi-series view. Reads need no such view:
//! each series has one `RwLock<Arc<SeriesSnap>>` holding the imputed values
//! over the retained span plus per-window freshness/degradation/has-missing
//! bits. Mutations republish the affected series *before* releasing the core
//! lock (and therefore before returning to their caller), so a read that
//! starts after a mutation completed always observes it.
//!
//! A warm read takes the series' read guard, clones the `Arc` and drops the
//! guard; it never touches the core lock, so it never waits on a forward
//! pass. A publication builds the new snapshot first and holds the write
//! guard only for the pointer swap; the old snapshot is dropped after the
//! guard is released, and its memory goes when the last reader holding a
//! clone lets go. Neither guard is held while another lock is taken, so this
//! lock cannot join a deadlock cycle. Nothing can panic while a guard is
//! held, and a poisoned lock would still hold a whole snapshot, so poisoning
//! is ignored.

use std::sync::{Arc, PoisonError, RwLock};

use crate::engine::ImputeResponse;

/// An immutable warm snapshot of one series, published by every mutation
/// that touches the series and read by the warm query path without the core
/// lock. All coordinates mirror the engine's: `base`/`live` are logical,
/// `values` is the retained physical span (`values[t]` is logical time
/// `base + t`), and the per-window bit vectors are indexed by storage slot.
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

/// The engine's per-series warm snapshots.
pub(crate) struct WarmSnaps {
    cells: Vec<RwLock<Arc<SeriesSnap>>>,
}

impl WarmSnaps {
    pub(crate) fn new(n_series: usize) -> Self {
        Self { cells: (0..n_series).map(|_| RwLock::new(Arc::new(SeriesSnap::empty()))).collect() }
    }

    /// Series `s`'s current warm snapshot. The read guard lives only for the
    /// `Arc` clone.
    pub(crate) fn snapshot(&self, s: usize) -> Arc<SeriesSnap> {
        Arc::clone(&self.cells[s].read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes a new warm snapshot for series `s`. Callers serialize this
    /// under the engine's core lock.
    pub(crate) fn publish(&self, s: usize, snap: SeriesSnap) {
        let new = Arc::new(snap);
        let old = {
            let mut cell = self.cells[s].write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *cell, new)
        };
        // The old full-series copy drops here, after the write guard is
        // released, so readers never wait on its free.
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
