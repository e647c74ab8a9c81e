//! Fault-injection suite for the serving layer (PR 6): every failure the
//! fault-tolerance layer promises to survive is injected here and must come
//! back as a **typed error or a flagged degraded result — never a panic,
//! never silently-wrong data**:
//!
//! * poisoned streams: NaN/±inf payloads are refused before anything touches
//!   storage; absurd-but-finite values are quarantined by the [`ValueGuard`]
//!   while the stream keeps flowing;
//! * a panicking evaluation (injected through the engine's
//!   [`mvi_serve::EvalHook`]) is caught by the micro-batcher's supervisor and
//!   by the engine's poison-recovering state lock;
//! * a flooded batcher sheds load with `Overloaded`; a stalled evaluation
//!   frees its client with `DeadlineExceeded`;
//! * non-finite forward outputs degrade the window to the mean baseline with
//!   the degradation flagged, and heal on the next clean recompute;
//! * durable snapshot files survive truncation and bit flips as typed
//!   `Corrupt` errors (proptest-fuzzed over the whole file, plus every bit of
//!   the header and of every section's length fields), and
//!   `restore_with_fallback` walks back to the last good generation;
//! * with guards installed but not firing, the served values stay **bitwise
//!   identical** to the unguarded engine.
//!
//! The trained model is built **once** per process (training is the expensive
//! step); every test restores its own engine from the shared snapshot.

mod common;

use common::{scratch_path, Fixture};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{BatcherConfig, ImputationEngine, MicroBatcher, ServeError, ValueGuard};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SERIES: usize = 3;
const T_LEN: usize = 120;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_LEN, 11);
        let mut obs = Scenario::mcar(1.0).apply(&ds, 5).observed();
        // A streaming future for series 0, so appends land inside the live
        // range without growing it.
        obs.hide_range(0, 90, T_LEN);
        Fixture::train(ds.values, obs, 12)
    })
}

/// A fresh engine over the fixture's trained state.
fn engine() -> ImputationEngine {
    fixture().engine()
}

// ---------------------------------------------------------------------------
// Poisoned streams: input quarantine
// ---------------------------------------------------------------------------

#[test]
fn nonfinite_payloads_are_rejected_before_anything_touches_storage() {
    let eng = engine();
    eng.warm_up();
    let before_obs = eng.observed();
    let before_cache = eng.cached_values();
    let wm = eng.watermark(0).unwrap();

    for (payload, offset) in [
        (vec![1.0, f64::NAN, 2.0], 1),
        (vec![f64::INFINITY], 0),
        (vec![0.5, 0.5, 0.5, f64::NEG_INFINITY], 3),
    ] {
        let err = eng.append(0, &payload).unwrap_err();
        assert_eq!(err, ServeError::NonFiniteInput { s: 0, offset });
        let err = eng.fill_range(1, 10, &payload).unwrap_err();
        assert_eq!(err, ServeError::NonFiniteInput { s: 1, offset });
    }

    // The whole mutation was refused: observed state, cache and watermarks
    // are untouched, and the health surface counted every rejection.
    let after_obs = eng.observed();
    assert_eq!(after_obs.values, before_obs.values, "rejected values leaked into storage");
    assert_eq!(after_obs.available, before_obs.available, "rejected append changed availability");
    assert_eq!(eng.cached_values(), before_cache, "rejected append leaked into the cache");
    assert_eq!(eng.watermark(0).unwrap(), wm);
    let health = eng.health();
    assert_eq!(health.nonfinite_input_rejections, 6);
    assert_eq!(eng.stats().appends, 0, "no rejected mutation may count as an append");
}

#[test]
fn value_guard_quarantines_absurd_values_without_stopping_the_stream() {
    let eng = engine();
    eng.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: Some(50.0) }));
    let wm = eng.watermark(0).unwrap();

    // A glitching sensor: sane readings with two absurd spikes. The spikes
    // are finite, so the mutation succeeds — they are just never recorded.
    let payload = [1.0, 2.0, 9999.0, 3.0, -4444.0, 4.0];
    let report = eng.append(0, &payload).unwrap();
    assert_eq!(report.recorded, (wm, wm + payload.len()), "the stream keeps advancing");
    assert_eq!(report.values_quarantined, 2);
    assert_eq!(eng.watermark(0).unwrap(), wm + payload.len());

    // Accepted values serve back verbatim; quarantined positions are imputed
    // (finite, not the absurd reading).
    let served = eng.query(0, wm, wm + payload.len()).unwrap();
    assert_eq!(served[0], 1.0);
    assert_eq!(served[1], 2.0);
    assert_eq!(served[3], 3.0);
    assert_eq!(served[5], 4.0);
    for (i, v) in served.iter().enumerate() {
        assert!(v.is_finite(), "position {i} not finite");
        assert!(v.abs() < 1000.0, "quarantined value leaked into serving: {v}");
    }

    // The observed state really has holes at the quarantined positions.
    let avail = eng.observed().available.series(0).to_vec();
    assert!(avail[wm] && avail[wm + 1] && avail[wm + 3] && avail[wm + 5]);
    assert!(!avail[wm + 2] && !avail[wm + 4], "quarantined values entered the observed state");

    let health = eng.health();
    assert_eq!(health.quarantined, 2);
    assert_eq!(health.quarantined_by_series, vec![2, 0, 0]);
    assert_eq!(eng.stats().values_appended, 4, "only accepted values count as appended");

    // The jump guard references the last *accepted* value: after the 9999.0
    // spike, 3.0 is judged against 2.0 (accepted), not against the spike.
    // A genuine level shift beyond the jump bound is quarantined too.
    let report = eng.append(0, &[90.0]).unwrap();
    assert_eq!(report.values_quarantined, 1, "jump from 4.0 to 90.0 exceeds the bound");

    // Clearing the guard restores trusting ingestion.
    eng.set_value_guard(None);
    let report = eng.append(0, &[90.0]).unwrap();
    assert_eq!(report.values_quarantined, 0);
}

// ---------------------------------------------------------------------------
// Panicking evaluations: supervisor + poison recovery
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_is_a_typed_error_and_the_engine_recovers() {
    let eng = engine();
    let armed = Arc::new(AtomicBool::new(true));
    let hook_armed = Arc::clone(&armed);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        if hook_armed.load(Ordering::Relaxed) {
            panic!("injected evaluator fault");
        }
    })));

    // Direct engine call: the panic unwinds through the state lock. The next
    // call must recover (poison-healing lock), not panic or deadlock.
    let unwound = catch_unwind(AssertUnwindSafe(|| eng.query(0, 0, T_LEN)));
    assert!(unwound.is_err(), "the injected panic must surface to the direct caller");

    armed.store(false, Ordering::Relaxed);
    let served = eng.query(0, 0, T_LEN).expect("engine wedged after a panic");
    assert_eq!(served.len(), T_LEN);
    assert!(served.iter().all(|v| v.is_finite()));
    let health = eng.health();
    assert!(health.poison_recoveries >= 1, "poison recovery not counted");

    // Recovery marked everything stale; a healed sweep serves the exact
    // batch-impute oracle — the panic cost recompute, never wrong answers.
    let oracle = eng.model().impute(&eng.observed());
    for s in 0..SERIES {
        assert_eq!(eng.query(s, 0, T_LEN).unwrap(), oracle.series(s), "series {s}");
    }
}

#[test]
fn batcher_supervisor_isolates_a_panicking_batch() {
    let eng = Arc::new(engine());
    let panics_left = Arc::new(AtomicUsize::new(1));
    let hook_count = Arc::clone(&panics_left);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        if hook_count
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected batch fault");
        }
    })));

    let batcher = MicroBatcher::spawn(Arc::clone(&eng), 8);
    let mut handles = Vec::new();
    for s in 0..SERIES {
        for _ in 0..3 {
            let client = batcher.client();
            handles.push(std::thread::spawn(move || client.query(s, 0, T_LEN)));
        }
    }
    // Every caller gets an answer: a real one (the one-by-one retry isolates
    // the panicking evaluation, and recovery re-imputes) or the typed
    // `Panicked` — never a hang, never process death.
    for h in handles {
        match h.join().expect("client thread must not die") {
            Ok(vals) => assert_eq!(vals.len(), T_LEN),
            Err(ServeError::Panicked) => {}
            Err(other) => panic!("unexpected batcher error: {other}"),
        }
    }
    assert!(batcher.panics_caught() >= 1, "the supervisor saw no panic");

    // The worker survived: a fresh request on the same batcher succeeds and
    // matches the oracle (the panic left no wrong data behind).
    let client = batcher.client();
    let oracle = eng.model().impute(&eng.observed());
    for s in 0..SERIES {
        assert_eq!(client.query(s, 0, T_LEN).unwrap(), oracle.series(s), "series {s}");
    }
}

// ---------------------------------------------------------------------------
// Flooding + deadlines
// ---------------------------------------------------------------------------

#[test]
fn flooded_batcher_sheds_load_with_a_typed_overloaded_error() {
    let eng = Arc::new(engine());
    let release = Arc::new(AtomicBool::new(false));
    let hook_release = Arc::clone(&release);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        while !hook_release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
    })));

    let batcher = MicroBatcher::spawn_with(
        Arc::clone(&eng),
        BatcherConfig { max_batch: 1, queue_cap: 2, deadline: None },
    );
    // First request occupies the worker inside the stalled evaluation...
    let stalled = {
        let client = batcher.client();
        std::thread::spawn(move || client.query(0, 0, T_LEN))
    };
    while eng.stats().batches == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...so subsequent submissions pile into the bounded queue. With the
    // worker provably stalled, submissions beyond the cap must shed.
    let mut floods = Vec::new();
    for _ in 0..6 {
        let client = batcher.client();
        floods.push(std::thread::spawn(move || client.query(1, 0, T_LEN)));
    }
    std::thread::sleep(Duration::from_millis(300));
    release.store(true, Ordering::Release);

    let mut overloaded = 0;
    for h in floods {
        match h.join().unwrap() {
            Ok(vals) => assert_eq!(vals.len(), T_LEN),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected flood error: {other}"),
        }
    }
    assert!(overloaded >= 1, "a flood over a 2-deep queue must shed load");
    assert_eq!(stalled.join().unwrap().unwrap().len(), T_LEN);
}

#[test]
fn stuck_evaluation_frees_the_client_with_deadline_exceeded() {
    let eng = Arc::new(engine());
    let release = Arc::new(AtomicBool::new(false));
    let hook_release = Arc::clone(&release);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        while !hook_release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
    })));

    let batcher = MicroBatcher::spawn_with(
        Arc::clone(&eng),
        BatcherConfig { max_batch: 4, queue_cap: 16, deadline: Some(Duration::from_millis(60)) },
    );
    // The stalled evaluation must not hang its caller past the deadline.
    let stuck = batcher.client().query(0, 0, T_LEN);
    assert_eq!(stuck, Err(ServeError::DeadlineExceeded));

    // A request that expires while *queued* behind the stall is skipped by
    // the worker without wasting a forward pass: only the stalled batch is
    // ever evaluated.
    let queued = {
        let client = batcher.client();
        std::thread::spawn(move || client.query(1, 0, T_LEN))
    };
    assert_eq!(queued.join().unwrap(), Err(ServeError::DeadlineExceeded));
    let requests_before_release = eng.stats().requests;
    release.store(true, Ordering::Release);
    eng.set_eval_hook(None); // blocks until the stalled evaluation finishes

    assert_eq!(
        eng.stats().requests,
        requests_before_release,
        "the expired queued request must not have been evaluated"
    );
    // The batcher is healthy again: a fresh request beats the deadline.
    assert_eq!(batcher.client().query(0, 0, T_LEN).unwrap().len(), T_LEN);
}

// ---------------------------------------------------------------------------
// Output guard: non-finite forward output degrades, heals, never serves NaN
// ---------------------------------------------------------------------------

#[test]
fn nonfinite_forward_output_degrades_to_the_mean_baseline_and_heals() {
    let eng = engine();
    let poison = Arc::new(AtomicBool::new(true));
    let hook_poison = Arc::clone(&poison);
    eng.set_eval_hook(Some(Box::new(move |results| {
        if hook_poison.load(Ordering::Relaxed) {
            for vals in results.iter_mut() {
                vals.iter_mut().for_each(|v| *v = f64::NAN);
            }
        }
    })));

    // Poisoned forward pass: the answer is still finite, and flagged.
    let resp = eng.query_flagged(0, 0, T_LEN).unwrap();
    assert!(resp.degraded, "poisoned output must be flagged degraded");
    assert!(resp.values.iter().all(|v| v.is_finite()), "NaN leaked through the output guard");
    assert!(
        eng.cached_values().data().iter().all(|v| v.is_finite()),
        "NaN entered the imputation cache"
    );
    let health = eng.health();
    assert!(health.degraded_events >= 1);
    assert!(health.degraded_windows >= 1);

    // Degraded positions serve the series' observed mean — carrying no model
    // signal but safe to display.
    let obs = eng.observed();
    let (avail, vals) = (obs.available.series(0), obs.values.series(0));
    let observed: Vec<f64> = avail.iter().zip(vals).filter_map(|(&a, &v)| a.then_some(v)).collect();
    let mean = observed.iter().sum::<f64>() / observed.len() as f64;
    let missing_at = avail.iter().position(|&a| !a).expect("fixture has a gap in series 0");
    assert!(
        (resp.values[missing_at] - mean).abs() < 1e-12,
        "degraded position served {} instead of the mean baseline {mean}",
        resp.values[missing_at]
    );

    // Heal: disarm the fault, invalidate via a mutation, and the degradation
    // clears — the window serves model signal again, unflagged.
    poison.store(false, Ordering::Relaxed);
    let wm = eng.watermark(0).unwrap();
    eng.append(0, &[0.5, 0.6]).unwrap();
    let resp = eng.query_flagged(0, 0, wm).unwrap();
    assert!(!resp.degraded, "healed window still flagged");
    assert_eq!(eng.health().degraded_windows, 0, "all degradation must heal");
}

#[test]
fn retention_eviction_drops_evicted_degraded_windows_from_the_gauge() {
    let fix = fixture();
    let eng = ImputationEngine::with_retention(fix.frozen(), fix.obs.clone(), T_LEN).unwrap();
    assert_eq!(eng.retained_start(), 0, "the fixture fits the ring");
    let w = eng.grid().window_len();
    const DEGRADED_WINDOWS: usize = 6;

    // Degrade the oldest windows of every series with a NaN-poisoning hook.
    eng.set_eval_hook(Some(Box::new(|results| {
        for vals in results.iter_mut() {
            vals.iter_mut().for_each(|v| *v = f64::NAN);
        }
    })));
    for s in 0..SERIES {
        eng.query(s, 0, DEGRADED_WINDOWS * w).unwrap();
    }
    eng.set_eval_hook(None);
    // Which windows degraded (fully observed ones never run a forward pass).
    // They are all fresh now, so these reads recompute nothing.
    let degraded: Vec<(usize, usize)> = (0..SERIES)
        .flat_map(|s| (0..DEGRADED_WINDOWS).map(move |j| (s, j)))
        .filter(|&(s, j)| eng.query_flagged(s, j * w, (j + 1) * w).unwrap().degraded)
        .collect();
    let before = eng.health();
    assert_eq!(before.degraded_windows, degraded.len() as u64);
    assert!(before.degraded_windows > 0, "the poisoned reads degraded nothing");

    // Stream series 1 past the ring cap, one value at a time, until the ring
    // first evicts. The recomputes this triggers sit at the live end, far
    // from the degraded windows, so none of them heal.
    let mut k = 0;
    while eng.retained_start() == 0 {
        eng.append(1, &[0.25 + 0.001 * k as f64]).unwrap();
        k += 1;
    }
    let evicted_windows = eng.retained_start() / w;
    assert!(evicted_windows < DEGRADED_WINDOWS, "eviction must leave some degraded windows");
    let evicted = degraded.iter().filter(|&&(_, j)| j < evicted_windows).count() as u64;
    assert!(evicted > 0, "no degraded window was evicted");

    let after = eng.health();
    assert_eq!(
        after.degraded_windows,
        before.degraded_windows - evicted,
        "the gauge must fall by exactly the evicted degraded windows"
    );
    assert_eq!(after.degraded_events, before.degraded_events, "eviction is not a degrade event");
}

// ---------------------------------------------------------------------------
// Durable snapshots: fuzzing + fallback
// ---------------------------------------------------------------------------

/// The fixture engine's binary snapshot file bytes (written once).
fn durable_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let eng = engine();
        eng.warm_up();
        let path = scratch_path("fixture");
        eng.snapshot_to_path(&path).expect("durable write");
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

#[test]
fn durable_snapshot_roundtrips_and_fallback_walks_to_the_last_good_generation() {
    let eng = engine();
    eng.warm_up();
    let served: Vec<Vec<f64>> = (0..SERIES).map(|s| eng.query(s, 0, T_LEN).unwrap()).collect();

    let good = scratch_path("good");
    let corrupt = scratch_path("corrupt");
    let missing = scratch_path("missing");
    eng.snapshot_to_path(&good).unwrap();

    // The pristine file warm-restarts with zero forward passes.
    let restored = ImputationEngine::from_snapshot_path(&good).unwrap();
    for (s, expect) in served.iter().enumerate() {
        assert_eq!(&restored.query(s, 0, T_LEN).unwrap(), expect, "series {s}");
    }
    assert_eq!(restored.stats().windows_computed, 0);

    // A bit-flipped copy fails typed, naming the broken section.
    let mut bytes = std::fs::read(&good).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&corrupt, &bytes).unwrap();
    match ImputationEngine::from_snapshot_path(&corrupt) {
        Err(ServeError::Corrupt { section, .. }) => {
            assert!(!section.is_empty(), "corruption must name a section")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a bit-flipped snapshot must never load"),
    }

    // Fallback: corrupt newest + missing sibling still restore from the
    // older good generation, reporting which one served.
    let (fallback, used) =
        ImputationEngine::restore_with_fallback(&[&corrupt, &missing, &good]).unwrap();
    assert_eq!(used, 2, "the good generation is the third candidate");
    assert_eq!(fallback.live_len(), eng.live_len(), "the fallback restores the full stream");
    assert_eq!(fallback.query(0, 0, T_LEN).unwrap(), served[0]);

    // All-bad candidates aggregate into one typed failure.
    let err =
        ImputationEngine::restore_with_fallback(&[&corrupt, &missing]).map(|_| ()).unwrap_err();
    assert!(matches!(err, ServeError::Snapshot(msg) if msg.contains("2 candidate(s)")));

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&corrupt);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random truncation of the snapshot file never panics and never
    /// loads: every cut is a typed `Corrupt`/`Snapshot` error.
    #[test]
    fn truncated_snapshot_files_fail_typed(cut in 0usize..100) {
        let bytes = durable_bytes();
        // Spread the cuts over the whole file, always strictly truncating.
        let keep = (bytes.len() - 1) * (cut + 1) / 100;
        let path = scratch_path("trunc");
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let result = ImputationEngine::from_snapshot_path(&path);
        let _ = std::fs::remove_file(&path);
        match result {
            Err(ServeError::Corrupt { .. } | ServeError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error type: {other}"),
            Ok(_) => prop_assert!(false, "a truncated snapshot must never load"),
        }
    }

    /// A single flipped bit anywhere in the file — header, section fields,
    /// payloads or checksums — never panics and never loads silently.
    #[test]
    fn bitflipped_snapshot_files_fail_typed(pos in 0usize..10_000, bit in 0u8..8) {
        let mut bytes = durable_bytes().to_vec();
        // Spread the flips over the whole file, whatever its length.
        let i = pos * bytes.len() / 10_000;
        bytes[i] ^= 1 << bit;
        let path = scratch_path("flip");
        std::fs::write(&path, &bytes).unwrap();
        let result = ImputationEngine::from_snapshot_path(&path);
        let _ = std::fs::remove_file(&path);
        match result {
            Err(ServeError::Corrupt { .. } | ServeError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error type: {other}"),
            Ok(_) => prop_assert!(false, "a bit-flipped snapshot must never load"),
        }
    }
}

/// Offsets of a snapshot file's structural bytes, walked from the layout
/// documented in `mvi_serve::durable`: the whole header (magic, version,
/// length, body, CRC), then per section its name length, rank and shape,
/// payload length and CRC.
fn structural_offsets(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let header_end = 20 + word(12) + 4;
    let mut offsets: Vec<usize> = (0..header_end).collect();
    let mut at = header_end;
    while at < bytes.len() {
        offsets.extend(at..at + 8);
        at += 8 + word(at);
        let rank = word(at);
        offsets.extend(at..at + 8 + 8 * rank);
        at += 8 + 8 * rank;
        offsets.extend(at..at + 8);
        at += 8 + word(at);
        offsets.extend(at..at + 4);
        at += 4;
    }
    assert_eq!(at, bytes.len(), "the walk must end exactly at the end of the file");
    offsets
}

#[test]
fn every_header_bit_and_section_length_flip_fails_typed() {
    let pristine = durable_bytes();
    let offsets = structural_offsets(pristine);
    let path = scratch_path("sweep");
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        ImputationEngine::from_snapshot_path(&path)
    };
    assert!(load(pristine).is_ok(), "the pristine file loads");
    for i in offsets {
        for bit in 0..8 {
            let mut bytes = pristine.to_vec();
            bytes[i] ^= 1 << bit;
            match load(&bytes) {
                Err(ServeError::Corrupt { .. } | ServeError::Snapshot(_)) => {}
                Err(other) => panic!("byte {i} bit {bit}: unexpected error type: {other}"),
                Ok(_) => panic!("byte {i} bit {bit}: a bit-flipped snapshot must never load"),
            }
        }
    }
    // A file from another format version, CRC intact, is refused by
    // version rather than misread.
    let header_end = 20 + u64::from_le_bytes(pristine[12..20].try_into().unwrap()) as usize;
    let mut future = pristine.to_vec();
    future[8..12].copy_from_slice(&2u32.to_le_bytes());
    let crc = mvi_serve::durable::crc32(&future[..header_end]);
    future[header_end..header_end + 4].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        load(&future),
        Err(ServeError::Snapshot(msg)) if msg.contains("version 2")
    ));
    // Nothing may follow the last section.
    let mut extended = pristine.to_vec();
    extended.push(0);
    assert!(matches!(
        load(&extended),
        Err(ServeError::Corrupt { section, .. }) if section == "trailer"
    ));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Happy path: the guards cost no correctness
// ---------------------------------------------------------------------------

#[test]
fn guarded_happy_path_is_bitwise_identical_to_unguarded() {
    let trusting = engine();
    let guarded = engine();
    // Generous bounds that sane data never trips, plus the full batcher
    // front door on the guarded side.
    guarded.set_value_guard(Some(ValueGuard { abs_max: Some(1e9), max_jump: Some(1e9) }));

    let stream: Vec<f64> = (0..20).map(|i| (i as f64 / 9.0).sin()).collect();
    let rt = trusting.append(0, &stream).unwrap();
    let rg = guarded.append(0, &stream).unwrap();
    assert_eq!(rg.values_quarantined, 0, "sane data must not quarantine");
    assert_eq!(rt.recorded, rg.recorded);

    let guarded = Arc::new(guarded);
    let batcher = MicroBatcher::spawn_with(
        Arc::clone(&guarded),
        BatcherConfig { max_batch: 8, queue_cap: 64, deadline: Some(Duration::from_secs(30)) },
    );
    let client = batcher.client();
    for s in 0..SERIES {
        let want = trusting.query(s, 0, T_LEN).unwrap();
        let got = client.query(s, 0, T_LEN).unwrap();
        // Bitwise, not approximate: the guards only *observe* the hot path.
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "series {s} diverged at {i}");
        }
    }
    assert_eq!(batcher.panics_caught(), 0);
    let health = guarded.health();
    assert_eq!(health.quarantined, 0);
    assert_eq!(health.degraded_events, 0);
    assert_eq!(health.poison_recoveries, 0);
}

// ---------------------------------------------------------------------------
// Error surface: every variant renders for humans
// ---------------------------------------------------------------------------

#[test]
fn serve_error_display_is_exhaustive_and_humane() {
    // One instance of every variant. A new variant added without extending
    // this list will trip the match below at compile time.
    let all = [
        ServeError::Geometry("bad shape".into()),
        ServeError::NonFiniteInput { s: 3, offset: 17 },
        ServeError::Panicked,
        ServeError::Overloaded { capacity: 64 },
        ServeError::DeadlineExceeded,
        ServeError::Corrupt { section: "params/embed".into(), detail: "crc mismatch".into() },
        ServeError::Series { s: 9, n_series: 4 },
        ServeError::Range { start: 5, end: 2, t_len: 100 },
        ServeError::Evicted { start: 0, end: 10, retained_start: 40 },
        ServeError::NonFiniteWeights { param: "temporal.w_q".into() },
        ServeError::Snapshot("parse failed".into()),
        ServeError::Shutdown,
        ServeError::Disconnected,
        ServeError::UnknownTenant { tenant: "acme".into() },
        ServeError::TenantLoading { tenant: "acme".into() },
        ServeError::RegistryFull { capacity: 2 },
        ServeError::TenantIdTooLong { len: 65, max: 64 },
    ];
    for err in &all {
        // Exhaustiveness guard: adding a variant breaks this match.
        match err {
            ServeError::Geometry(_)
            | ServeError::NonFiniteInput { .. }
            | ServeError::Panicked
            | ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded
            | ServeError::Corrupt { .. }
            | ServeError::Series { .. }
            | ServeError::Range { .. }
            | ServeError::Evicted { .. }
            | ServeError::NonFiniteWeights { .. }
            | ServeError::Snapshot(_)
            | ServeError::Shutdown
            | ServeError::Disconnected
            | ServeError::UnknownTenant { .. }
            | ServeError::TenantLoading { .. }
            | ServeError::RegistryFull { .. }
            | ServeError::TenantIdTooLong { .. } => {}
        }
        let rendered = err.to_string();
        assert!(!rendered.is_empty(), "{err:?} renders empty");
        assert!(
            !rendered.contains("ServeError") && !rendered.contains("{ "),
            "`{rendered}` leaks debug formatting"
        );
        // It is a real std error: usable with `?` and error-reporting crates.
        let as_std: &dyn std::error::Error = err;
        assert!(as_std.source().is_none());
    }
    // Key fields actually surface in the text a human reads.
    assert!(ServeError::NonFiniteInput { s: 3, offset: 17 }.to_string().contains("17"));
    assert!(ServeError::Overloaded { capacity: 64 }.to_string().contains("64"));
    assert!(ServeError::Corrupt { section: "cache.values".into(), detail: "x".into() }
        .to_string()
        .contains("cache.values"));
    assert!(ServeError::Evicted { start: 0, end: 10, retained_start: 40 }
        .to_string()
        .contains("40"));
    assert!(ServeError::UnknownTenant { tenant: "acme".into() }.to_string().contains("acme"));
    assert!(ServeError::TenantLoading { tenant: "acme".into() }.to_string().contains("acme"));
    assert!(ServeError::RegistryFull { capacity: 2 }.to_string().contains('2'));
    assert!(ServeError::TenantIdTooLong { len: 65, max: 64 }.to_string().contains("65"));
    // The deliberate drain and the crash-shaped loss must read differently:
    // one was answered, the other lost its reply.
    let (shutdown, disconnected) =
        (ServeError::Shutdown.to_string(), ServeError::Disconnected.to_string());
    assert_ne!(shutdown, disconnected);
    assert!(disconnected.contains("lost") || disconnected.contains("disconnected"));
}
