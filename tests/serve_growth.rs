//! End-to-end tests of growable series capacity: appends past the trained
//! `t_len` succeed (the PR-3 bugfix — they used to hard-fail with
//! `AppendOverflow`), the grown tail matches a batch re-impute of the
//! equivalently extended dataset to 1e-9, interior gaps backfill through
//! `fill_range`, grown states snapshot/restore at their live length, and the
//! whole path is bitwise thread-invariant.
//!
//! The trained model is built **once** per process (training is the expensive
//! step); every test restores its own engine from the shared snapshot.

mod common;

use common::Fixture;
use mvi_data::dataset::{Dataset, ObservedDataset};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{ImputationEngine, ServeError, ServeSnapshot};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

const SERIES: usize = 3;
/// Series length the model trains on.
const T_TRAIN: usize = 140;
/// Ground truth extends this far past training — the stream source.
const T_FULL: usize = 200;

/// Guards the process-global worker-thread budget (see `tests/determinism.rs`
/// for why thread-flipping tests must serialize).
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let full = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_FULL, 11);
        let trained_ds =
            Dataset::new("growth", full.dims.clone(), full.values.truncated_time(T_TRAIN));
        let inst = Scenario::mcar(1.0).apply(&trained_ds, 5);
        let obs = inst.observed();
        // `truth` runs over the full horizon `[0, T_FULL)`: the stream source.
        Fixture::train(full.values, obs, 20)
    })
}

/// The CI growth smoke: append N·w values past the trained length and assert
/// no capacity error — this exact flow returned `AppendOverflow` before
/// series storage became growable. CI runs the suite under both
/// `MVI_THREADS=1` and the default budget, so the smoke covers both.
#[test]
fn growth_smoke_appends_n_windows_past_trained_capacity() {
    let fix = fixture();
    let engine = ImputationEngine::new(fix.frozen(), fix.obs.clone()).unwrap();
    assert_eq!(engine.trained_len(), T_TRAIN);
    let w = engine.grid().window_len();
    let target = T_TRAIN + 3 * w;
    assert!(target <= T_FULL, "fixture must hold the grown stream");

    for s in 0..SERIES {
        let wm = engine.watermark(s).unwrap();
        let report = engine
            .append(s, &fix.truth.series(s)[wm..target])
            .expect("append past trained capacity must succeed");
        assert_eq!(report.recorded, (wm, target));
        assert_eq!(engine.watermark(s).unwrap(), target);
    }
    assert_eq!(engine.live_len(), target);
    assert_eq!(engine.grid().n_windows(), target.div_ceil(w));
    for s in 0..SERIES {
        // The grown tail serves the appended observations verbatim.
        let tail = engine.query(s, T_TRAIN, target).unwrap();
        assert_eq!(tail, fix.truth.series(s)[T_TRAIN..target].to_vec());
    }
    // Queries past the live end still validate against the *live* length.
    assert!(matches!(engine.query(0, 0, target + 1), Err(ServeError::Range { .. })));
}

/// Positions `append` refreshes eagerly: missing entries of the appended
/// series from one window before the append onwards, plus missing entries of
/// sibling series inside the appended range (same contract as
/// `tests/serve_online.rs`, now over the live grid).
fn affected_positions(
    engine: &ImputationEngine,
    obs: &ObservedDataset,
    s: usize,
    wm: usize,
    end: usize,
) -> Vec<(usize, usize)> {
    let grid = engine.grid();
    let tail = grid.tail_windows_for(wm);
    let (tail_lo, _) = grid.bounds(tail.start);
    let mut out = Vec::new();
    for series in 0..obs.n_series() {
        let avail = obs.available.series(series);
        let range = if series == s { tail_lo..grid.t_len() } else { wm..end };
        for t in range {
            if !avail[t] {
                out.push((series, t));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance property: stream random-sized chunks round-robin past the
    /// trained capacity; after the final append the eagerly refreshed
    /// positions match a batch re-impute of the equivalently extended dataset
    /// to 1e-9, and a full query sweep converges the whole live cache to it.
    #[test]
    fn appends_past_capacity_match_batch_reimpute_of_extended_dataset(
        chunks in proptest::collection::vec(1usize..23, 5..10),
        series_offset in 0usize..SERIES,
    ) {
        let fix = fixture();
        let engine = ImputationEngine::new(fix.frozen(), fix.obs.clone()).unwrap();
        let oracle_model = fix.frozen();

        let mut last = None;
        for (i, &len) in chunks.iter().enumerate() {
            let s = (series_offset + i) % SERIES;
            let wm = engine.watermark(s).unwrap();
            let end = (wm + len).min(T_FULL);
            if end <= wm {
                continue;
            }
            let report = engine.append(s, &fix.truth.series(s)[wm..end]).unwrap();
            prop_assert_eq!(report.recorded, (wm, end));
            prop_assert_eq!(report.live_len, engine.live_len());
            last = Some((s, wm, end));
        }
        let Some((s, wm, end)) = last else { return Ok(()); };

        // Oracle: a batch re-impute over the equivalently extended dataset.
        let current = engine.observed();
        prop_assert_eq!(current.t_len(), engine.live_len());
        let oracle = oracle_model.impute(&current);
        let cache = engine.cached_values();
        for (series, t) in affected_positions(&engine, &current, s, wm, end) {
            let got = cache.series(series)[t];
            let want = oracle.series(series)[t];
            prop_assert!(
                (got - want).abs() < 1e-9,
                "series {} t={} after append to {}@{}: engine {} vs oracle {}",
                series, t, s, wm, got, want
            );
        }

        // Lazily-invalidated windows heal on touch; the whole live cache then
        // matches the oracle (observed state is unchanged by queries).
        let live = engine.live_len();
        for series in 0..SERIES {
            engine.query(series, 0, live).unwrap();
        }
        let healed = engine.cached_values();
        prop_assert_eq!(healed.shape(), oracle.shape());
        for (i, (a, b)) in healed.data().iter().zip(oracle.data()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-9,
                "healed cache diverges from the batch oracle at flat index {} ({} vs {})",
                i, a, b
            );
        }
    }
}

/// Satellite regression: a series with a hidden *interior* range and an
/// observed tail starts with its watermark past the gap, so `append` can
/// never backfill it — `fill_range` records the late arrival, eagerly matches
/// the batch oracle within local reach, and the rest heals lazily.
#[test]
fn interior_gap_backfills_via_fill_range_and_matches_the_oracle() {
    let fix = fixture();
    let mut obs = fix.obs.clone();
    obs.hide_range(1, 60, 80);
    // Observed tail after the gap: the watermark sits at the series end.
    obs.record_range(1, T_TRAIN - 10, &fix.truth.series(1)[T_TRAIN - 10..T_TRAIN]);
    let engine = ImputationEngine::new(fix.frozen(), obs.clone()).unwrap();
    let oracle_model = fix.frozen();
    assert_eq!(engine.watermark(1).unwrap(), T_TRAIN, "tail observation pins the watermark");

    // The gap is beyond append's reach (the watermark already passed it) ...
    let before = engine.observed();
    assert!(before.available.series(1)[60..80].iter().all(|&a| !a));
    // ... but fill_range records it.
    let late = &fix.truth.series(1)[60..80];
    let report = engine.fill_range(1, 60, late).unwrap();
    assert_eq!(report.recorded, (60, 80));
    assert_eq!(engine.watermark(1).unwrap(), T_TRAIN, "interior backfill must not move the cursor");
    assert_eq!(engine.query(1, 60, 80).unwrap(), late.to_vec());

    // Eager contract: within ±w of the filled range (own series) and inside
    // the range (siblings), the cache matches a batch re-impute of the
    // current state.
    let current = engine.observed();
    let oracle = oracle_model.impute(&current);
    let cache = engine.cached_values();
    let w = engine.grid().window_len();
    for series in 0..SERIES {
        let avail = current.available.series(series);
        let range = if series == 1 { 60 - w..(80 + w).min(T_TRAIN) } else { 60..80 };
        for t in range {
            if !avail[t] {
                let (got, want) = (cache.series(series)[t], oracle.series(series)[t]);
                assert!(
                    (got - want).abs() < 1e-9,
                    "series {series} t={t}: engine {got} vs oracle {want}"
                );
            }
        }
    }

    // Everything else heals on touch.
    for s in 0..SERIES {
        engine.query(s, 0, T_TRAIN).unwrap();
    }
    let healed = engine.cached_values();
    let max_diff = healed
        .data()
        .iter()
        .zip(oracle.data())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "healed cache diverges from the oracle by {max_diff}");
    assert_eq!(engine.stats().backfills, 1);
}

/// Snapshots of a grown deployment persist the live length next to the
/// trained one; restore geometry-checks both and reproduces the serving state.
#[test]
fn grown_state_snapshots_and_restores_at_the_live_length() {
    let fix = fixture();
    let engine = ImputationEngine::new(fix.frozen(), fix.obs.clone()).unwrap();
    let target = T_TRAIN + 20;
    for s in 0..SERIES {
        let wm = engine.watermark(s).unwrap();
        engine.append(s, &fix.truth.series(s)[wm..target]).unwrap();
    }
    let grown_obs = engine.observed();
    assert_eq!(grown_obs.t_len(), target);

    let source = fix.frozen();
    let snap = ServeSnapshot::capture(source.model(), &grown_obs);
    assert_eq!(snap.t_len, T_TRAIN, "trained length persists");
    assert_eq!(snap.live_t_len, target, "live length persists");
    let back = ServeSnapshot::from_json(&snap.to_json()).unwrap();

    // Geometry is checked against the *live* length now.
    assert!(matches!(back.restore(&fix.obs), Err(ServeError::Geometry(_))));
    let restored = back.restore(&grown_obs).unwrap();
    assert_eq!(restored.t_len(), T_TRAIN, "model rebuilds at the trained length");

    // A re-hydrated engine over the grown state serves exactly what the
    // original (fully healed) engine serves.
    let engine2 = ImputationEngine::new(restored, grown_obs.clone()).unwrap();
    engine2.warm_up();
    for s in 0..SERIES {
        engine.query(s, 0, engine.live_len()).unwrap();
    }
    assert_eq!(engine2.cached_values(), engine.cached_values());
}

/// Growth keeps the workspace determinism guarantee: the same append/query
/// history produces a bitwise-identical cache at any worker-thread count.
#[test]
fn grown_serving_is_bitwise_thread_invariant() {
    let _pool = POOL_LOCK.lock().unwrap();
    let fix = fixture();
    let run = |threads: usize| -> Vec<u64> {
        mvi_parallel::configure_threads(threads);
        let engine = ImputationEngine::new(fix.frozen(), fix.obs.clone()).unwrap();
        for s in 0..SERIES {
            let wm = engine.watermark(s).unwrap();
            engine.append(s, &fix.truth.series(s)[wm..T_FULL]).unwrap();
        }
        let live = engine.live_len();
        for s in 0..SERIES {
            engine.query(s, 0, live).unwrap();
        }
        let out = engine.cached_values();
        mvi_parallel::configure_threads(0); // restore the default budget
        out.data().iter().map(|v| v.to_bits()).collect()
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        assert_eq!(
            serial,
            run(threads),
            "grown serving with {threads} worker threads diverged bitwise from 1 thread"
        );
    }
}
