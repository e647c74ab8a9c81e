//! End-to-end tests of the bounded-memory retention ring and warm-restart
//! snapshots (PR 5): a long-lived stream keeps resident storage flat while
//! logical time advances, queries against evicted time fail typed, the
//! retained cache matches a **truncated batch re-impute** of the retained
//! span to 1e-9, windows whose rolling horizon lies inside the ring match the
//! **unbounded** engine bitwise, and a v3 snapshot with the warm-cache
//! section restarts an engine that serves cached queries with zero forward
//! passes.
//!
//! The trained model is built **once** per process (training is the expensive
//! step); every test restores its own engine from the shared snapshot.

use deepmvi::{DeepMviConfig, DeepMviModel, FrozenModel};
use mvi_data::dataset::Dataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{ImputationEngine, ServeError, ServeSnapshot};
use mvi_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

const SERIES: usize = 3;
/// Series length the model trains on.
const T_TRAIN: usize = 140;
/// Ground truth extends this far past training — the stream source.
const T_FULL: usize = 700;

/// Guards the process-global worker-thread budget (see `tests/determinism.rs`
/// for why thread-flipping tests must serialize).
static POOL_LOCK: Mutex<()> = Mutex::new(());

struct Fixture {
    /// Ground truth over the full horizon `[0, T_FULL)`.
    truth: Tensor,
    snapshot_json: String,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let full = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_FULL, 23);
        let trained_ds =
            Dataset::new("retention", full.dims.clone(), full.values.truncated_time(T_TRAIN));
        let inst = Scenario::mcar(1.0).apply(&trained_ds, 7);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 20, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let snapshot_json = ServeSnapshot::capture(&model, &obs).to_json();
        Fixture { truth: full.values, snapshot_json }
    })
}

/// The trained-length observed view the model was fit on (rebuilt per call —
/// the fixture snapshot only keeps the JSON).
fn trained_obs(fix: &Fixture) -> mvi_data::dataset::ObservedDataset {
    let full_truth = fix.truth.truncated_time(T_TRAIN);
    let dims = vec![mvi_data::dataset::DimSpec::indexed("series", "s", SERIES)];
    let ds = Dataset::new("retention", dims, full_truth);
    Scenario::mcar(1.0).apply(&ds, 7).observed()
}

/// A fresh frozen model from the shared snapshot.
fn frozen(fix: &Fixture) -> FrozenModel {
    ServeSnapshot::from_json(&fix.snapshot_json)
        .expect("fixture snapshot parses")
        .restore(&trained_obs(fix))
        .expect("fixture snapshot restores")
}

/// Streams the ground truth round-robin (`chunk`-sized appends) until every
/// series' watermark reaches `target`.
fn stream_to(engine: &ImputationEngine, truth: &Tensor, target: usize, chunk: usize) {
    loop {
        let mut all_done = true;
        for s in 0..SERIES {
            let wm = engine.watermark(s).expect("watermark");
            if wm >= target {
                continue;
            }
            all_done = false;
            let end = (wm + chunk).min(target);
            engine.append(s, &truth.series(s)[wm..end]).expect("append");
        }
        if all_done {
            return;
        }
    }
}

/// The CI retention smoke: stream a long-lived feed through a bounded engine
/// and assert resident storage never exceeds the ring cap while queries keep
/// serving the retained tail — this exact flow grew memory without bound
/// before the retention ring existed.
#[test]
fn retention_smoke_long_stream_keeps_storage_flat() {
    let fix = fixture();
    let retention = 80usize;
    let engine =
        ImputationEngine::with_retention(frozen(fix), trained_obs(fix), retention).unwrap();
    let cap = engine.ring_capacity().expect("bounded engine");
    let w = engine.grid().window_len();
    assert_eq!(cap, w * (retention.div_ceil(w) + 1));

    stream_to(&engine, &fix.truth, T_FULL, 11);
    assert_eq!(engine.live_len(), T_FULL, "logical time reaches the full stream");
    assert!(engine.storage_capacity() <= cap, "resident storage exceeded the ring cap");
    let base = engine.retained_start();
    assert!(T_FULL - base >= retention, "retention floor violated");
    assert!(T_FULL - base <= cap, "retained span exceeded the ring cap");
    assert!(base.is_multiple_of(w), "ring origin must stay window-aligned");
    assert!(engine.stats().evictions > 0, "a 5x-retention stream must evict");

    // The retained tail serves appended observations verbatim; evicted time
    // is a typed error on the exact boundary.
    let tail = engine.query(0, base, T_FULL).unwrap();
    assert_eq!(tail, fix.truth.series(0)[base..T_FULL].to_vec());
    assert!(matches!(
        engine.query(0, base - 1, T_FULL),
        Err(ServeError::Evicted { retained_start, .. }) if retained_start == base
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance property: stream random-sized chunks through a ring whose
    /// retention is *smaller than the trained span*; after a healing sweep
    /// the entire retained cache matches a batch re-impute of the retained
    /// span as a standalone dataset (the truncated-batch oracle) to 1e-9.
    #[test]
    fn retained_cache_matches_truncated_batch_reimpute(
        chunks in proptest::collection::vec(1usize..29, 4..9),
        retention in 45usize..100,
    ) {
        let fix = fixture();
        let engine =
            ImputationEngine::with_retention(frozen(fix), trained_obs(fix), retention).unwrap();
        let oracle_model = frozen(fix);

        for (i, &len) in chunks.iter().enumerate() {
            let s = i % SERIES;
            let wm = engine.watermark(s).unwrap();
            let end = (wm + len).min(T_FULL);
            if end <= wm {
                continue;
            }
            let report = engine.append(s, &fix.truth.series(s)[wm..end]).unwrap();
            prop_assert!(report.live_len - report.retained_start
                <= engine.ring_capacity().unwrap());
        }

        // Heal everything, then compare against the truncated oracle.
        let (base, live) = (engine.retained_start(), engine.live_len());
        for s in 0..SERIES {
            engine.query(s, base, live).unwrap();
        }
        let retained = engine.observed();
        prop_assert_eq!(retained.t_len(), live - base);
        let oracle = oracle_model.impute(&retained);
        let cache = engine.cached_values();
        prop_assert_eq!(cache.shape(), oracle.shape());
        for (i, (a, b)) in cache.data().iter().zip(oracle.data()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-9,
                "retained cache diverges from the truncated-batch oracle at flat index {} \
                 ({} vs {})", i, a, b
            );
        }
    }

    /// In-retention imputations match the *unbounded* path: windows whose
    /// rolling attention horizon lies entirely inside the ring see identical
    /// forward inputs whether or not older data was evicted, so the ring
    /// engine reproduces the unbounded engine **bitwise** there (1e-9 is the
    /// stated contract; equality of bits is what actually holds at a fixed
    /// thread count).
    #[test]
    fn deep_in_retention_windows_match_the_unbounded_engine_bitwise(
        extra_windows in 2usize..7,
        chunk in 5usize..17,
    ) {
        let fix = fixture();
        let w = frozen(fix).grid().window_len();
        let horizon_w = T_TRAIN.div_ceil(w);
        // Retention holds a full trained horizon plus a few windows, so the
        // newest windows' context never touches evicted time.
        let retention = (horizon_w + extra_windows) * w;
        let ring =
            ImputationEngine::with_retention(frozen(fix), trained_obs(fix), retention).unwrap();
        let unbounded = ImputationEngine::new(frozen(fix), trained_obs(fix)).unwrap();

        let target = T_TRAIN + 3 * retention.min(T_FULL - T_TRAIN);
        let target = target.min(T_FULL);
        stream_to(&ring, &fix.truth, target, chunk);
        stream_to(&unbounded, &fix.truth, target, chunk);
        prop_assert!(ring.stats().evictions > 0, "stream must push the ring");

        // Windows at logical index >= base_w + horizon_w - 1 have their whole
        // horizon inside the ring.
        let base = ring.retained_start();
        let deep_start = (base / w + horizon_w - 1) * w;
        prop_assert!(deep_start < target, "fixture leaves no deep-in-retention span");
        let a = ring.query(1, deep_start, target).unwrap();
        let b = unbounded.query(1, deep_start, target).unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "ring vs unbounded diverged at t={} ({} vs {})", deep_start + i, x, y
            );
        }
    }
}

/// Eviction interacts with `fill_range`: an interior gap that is still
/// retained backfills normally (even right at the ring origin), but once an
/// append evicts the gap's window, the late data has nowhere to land and the
/// backfill fails typed.
#[test]
fn append_evicting_a_window_defeats_a_pending_fill_range() {
    let fix = fixture();
    let mut obs = trained_obs(fix);
    // An interior gap with an observed tail: the watermark starts at T_TRAIN.
    obs.hide_range(1, 40, 60);
    obs.record_range(1, T_TRAIN - 5, &fix.truth.series(1)[T_TRAIN - 5..T_TRAIN]);
    let retention = 100usize;
    let engine = ImputationEngine::with_retention(frozen(fix), obs, retention).unwrap();
    let w = engine.grid().window_len();
    let cap = engine.ring_capacity().unwrap();
    // Construction already trimmed T_TRAIN down to the cap; the gap at 40..60
    // is in evicted time iff base > 40. Pick the scenario deliberately:
    let base0 = engine.retained_start();
    assert_eq!(base0, T_TRAIN - cap);
    assert!(base0 < 40, "gap must start retained for this scenario");

    // While retained, the gap backfills fine — including a range starting
    // exactly at the ring origin.
    let at_origin = engine.fill_range(1, 40, &fix.truth.series(1)[40..44]).unwrap();
    assert_eq!(at_origin.recorded, (40, 44));

    // Stream until eviction passes the gap's window.
    let mut target = T_TRAIN;
    while engine.retained_start() <= 60 {
        target += w;
        assert!(target <= T_FULL, "stream source exhausted");
        stream_to(&engine, &fix.truth, target, w);
    }
    let base = engine.retained_start();
    assert!(base > 60);
    // The remaining late arrival now targets evicted time: typed refusal,
    // not silent loss or wrong data.
    assert!(matches!(
        engine.fill_range(1, 44, &fix.truth.series(1)[44..60]),
        Err(ServeError::Evicted { retained_start, .. }) if retained_start == base
    ));
    // A backfill at the *current* origin still works: the boundary is exact.
    let healed = engine.fill_range(0, base, &fix.truth.series(0)[base..base + 2]).unwrap();
    assert_eq!(healed.recorded, (base, base + 2));
}

/// Warm-restart round-trip of a *ring* engine: the v3 snapshot preserves the
/// ring offsets (origin, retention, watermarks), the restored engine answers
/// previously-cached queries with zero forward passes, and the ring keeps
/// sliding — later appends evict from where the old process left off.
#[test]
fn ring_snapshot_roundtrip_preserves_offsets_and_serves_without_recompute() {
    let fix = fixture();
    let retention = 90usize;
    let engine =
        ImputationEngine::with_retention(frozen(fix), trained_obs(fix), retention).unwrap();
    stream_to(&engine, &fix.truth, 400, 13);
    let (base, live) = (engine.retained_start(), engine.live_len());
    assert!(base > 0);
    // Heal the whole retained span so the snapshot cache is fully fresh.
    let served: Vec<Vec<f64>> = (0..SERIES).map(|s| engine.query(s, base, live).unwrap()).collect();

    let json = engine.snapshot().to_json();
    let snap = ServeSnapshot::from_json(&json).expect("v3 ring snapshot parses");
    assert_eq!(snap.retained_start, base, "ring origin persists");
    assert_eq!(snap.retention, Some(retention), "retention config persists");
    assert_eq!(snap.live_t_len, live);
    assert_eq!(snap.t_len, T_TRAIN);

    let restored = ImputationEngine::from_snapshot(&snap).expect("warm restart");
    assert_eq!(restored.retained_start(), base);
    assert_eq!(restored.retention(), Some(retention));
    assert_eq!(restored.live_len(), live);
    for s in 0..SERIES {
        assert_eq!(restored.watermark(s).unwrap(), engine.watermark(s).unwrap());
        assert_eq!(&restored.query(s, base, live).unwrap(), &served[s], "series {s} diverged");
    }
    assert_eq!(restored.stats().windows_computed, 0, "warm restart must not recompute");
    assert!(matches!(restored.query(0, base - 1, live), Err(ServeError::Evicted { .. })));

    // The restarted ring keeps sliding exactly like the original.
    stream_to(&restored, &fix.truth, 500, 13);
    stream_to(&engine, &fix.truth, 500, 13);
    assert_eq!(restored.retained_start(), engine.retained_start());
    assert_eq!(restored.live_len(), engine.live_len());
    let (b2, l2) = (restored.retained_start(), restored.live_len());
    for s in 0..SERIES {
        assert_eq!(
            restored.query(s, b2, l2).unwrap(),
            engine.query(s, b2, l2).unwrap(),
            "post-restart streaming diverged on series {s}"
        );
    }
}

/// A ring engine's snapshot survives the binary file and the JSON encoding
/// field for field and bit for bit: config, geometry, ring offsets, weights
/// and the whole warm cache.
#[test]
fn ring_snapshot_file_and_json_roundtrip_every_field_bitwise() {
    let fix = fixture();
    let engine = ImputationEngine::with_retention(frozen(fix), trained_obs(fix), 90).unwrap();
    stream_to(&engine, &fix.truth, 400, 13);
    let snap = engine.snapshot();
    assert!(snap.retained_start > 0 && snap.shared_std.is_some());

    let path = std::env::temp_dir().join(format!("mvi_ring_{}.mvisnap", std::process::id()));
    snap.to_path(&path).unwrap();
    let from_file = ServeSnapshot::from_path(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let from_json = ServeSnapshot::from_json(&snap.to_json()).unwrap();

    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for back in [&from_file, &from_json] {
        assert_eq!(format!("{:?}", back.config), format!("{:?}", snap.config));
        assert_eq!(back.dims, snap.dims);
        let lengths = |s: &ServeSnapshot| (s.t_len, s.live_t_len, s.window, s.retained_start);
        assert_eq!(lengths(back), lengths(&snap));
        assert_eq!(back.retention, snap.retention);
        assert_eq!(back.shared_std.map(f64::to_bits), snap.shared_std.map(f64::to_bits));
        assert_eq!(back.params.params.len(), snap.params.params.len());
        for ((name, t), (want_name, want)) in back.params.params.iter().zip(&snap.params.params) {
            assert_eq!((name, t.shape()), (want_name, want.shape()));
            assert_eq!(bits(t), bits(want), "weights `{name}`");
        }
        let (c, want) = (back.cache.as_ref().unwrap(), snap.cache.as_ref().unwrap());
        assert_eq!(c.name, want.name);
        assert_eq!((bits(&c.values), bits(&c.imputed)), (bits(&want.values), bits(&want.imputed)));
        assert_eq!(c.available.data(), want.available.data());
        assert_eq!(c.available.shape(), want.available.shape());
        assert_eq!((&c.fresh, &c.watermark), (&want.fresh, &want.watermark));
    }
}

/// The ring path keeps the workspace determinism guarantee: the same
/// append/query history produces a bitwise-identical retained cache at any
/// worker-thread count.
#[test]
fn ring_serving_is_bitwise_thread_invariant() {
    let _pool = POOL_LOCK.lock().unwrap();
    let fix = fixture();
    let run = |threads: usize| -> Vec<u64> {
        mvi_parallel::configure_threads(threads);
        let engine = ImputationEngine::with_retention(frozen(fix), trained_obs(fix), 75).unwrap();
        stream_to(&engine, &fix.truth, 450, 9);
        let (base, live) = (engine.retained_start(), engine.live_len());
        for s in 0..SERIES {
            engine.query(s, base, live).unwrap();
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
            "ring serving with {threads} worker threads diverged bitwise from 1 thread"
        );
    }
}
